"""Text formats for argumentation frameworks.

Two formats are supported:

* the logic-programming style ``arg(name).`` / ``att(a,b).`` statement
  format, one statement per line, ``%`` starting a comment;
* the trivial-graph edge-list format: one argument name per line, a single
  ``#`` separator line, then ``attacker target`` lines.

Argument names follow ``core.NAME_PATTERN`` in both formats. Parsers
report 1-based line numbers on error and, having checked every name and
attack themselves, build the framework without checking it again;
serializers are byte-deterministic (declaration order for arguments,
sorted index pairs for attacks).
"""

import re

from .core import NAME_PATTERN as _NAME, NAME_RE, ArgumentationFramework

# one APX statement, matched whole: groups (name, None, None) for an
# argument, (None, attacker, target) for an attack
_STATEMENT_RE = re.compile(rf"arg\(({_NAME})\)\.|att\(({_NAME}),({_NAME})\)\.")


class ParseError(ValueError):
    """Malformed framework text; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def parse_apx(text):
    """Parse statement-format text into a framework."""
    index = {}  # name -> 1-based index, in declaration order
    attack_lines = []
    statement = _STATEMENT_RE.fullmatch
    for lineno, raw in enumerate(text.splitlines(), 1):
        m = statement(raw)
        if m is None:
            # only a line with a comment or whitespace can still be valid
            stmt = "".join(raw.split("%", 1)[0].split())
            if not stmt:
                continue
            m = statement(stmt)
            if m is None:
                raise ParseError(f"unrecognized statement: {raw.strip()!r}",
                                 lineno)
        name, a, b = m.groups()
        if name is None:
            attack_lines.append((lineno, a, b))
        elif name in index:
            raise ParseError(f"duplicate argument declaration: {name}", lineno)
        else:
            index[name] = len(index) + 1
    if not index:
        raise ParseError("no arguments declared")
    attacks = []
    for lineno, a, b in attack_lines:
        if a not in index:
            raise ParseError(f"attack references undeclared argument: {a}", lineno)
        if b not in index:
            raise ParseError(f"attack references undeclared argument: {b}", lineno)
        attacks.append((index[a], index[b]))
    return ArgumentationFramework._checked(tuple(index), index, attacks)


def serialize_apx(af):
    """Statement-format text for a framework."""
    lines = [f"arg({name})." for name in af.arguments]
    for i, j in sorted(af.attacks):
        lines.append(f"att({af.name(i)},{af.name(j)}).")
    return "\n".join(lines) + "\n"


def parse_tgf(text):
    """Parse edge-list text into a framework."""
    index = {}  # name -> 1-based index, in declaration order
    attacks = []
    separator_seen = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line == "#":
            if separator_seen:
                raise ParseError("second separator line", lineno)
            separator_seen = True
            continue
        if not separator_seen:
            if len(line.split()) != 1:
                raise ParseError(f"expected one argument name: {raw.strip()!r}", lineno)
            if not NAME_RE.fullmatch(line):
                raise ParseError(f"bad argument name: {line!r}", lineno)
            if line in index:
                raise ParseError(f"duplicate argument name: {line}", lineno)
            index[line] = len(index) + 1
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"expected 'attacker target': {raw.strip()!r}", lineno)
            a, b = parts
            if a not in index:
                raise ParseError(f"attack references undeclared argument: {a}", lineno)
            if b not in index:
                raise ParseError(f"attack references undeclared argument: {b}", lineno)
            attacks.append((index[a], index[b]))
    if not separator_seen:
        raise ParseError("missing '#' separator line")
    if not index:
        raise ParseError("no arguments declared")
    return ArgumentationFramework._checked(tuple(index), index, attacks)


def serialize_tgf(af):
    """Edge-list text for a framework."""
    lines = list(af.arguments)
    lines.append("#")
    for i, j in sorted(af.attacks):
        lines.append(f"{af.name(i)} {af.name(j)}")
    return "\n".join(lines) + "\n"


def sniff_format(text):
    """Guess the format of framework text: 'apx' or 'tgf'."""
    for raw in text.splitlines():
        stmt = raw.split("%", 1)[0].strip()
        if not stmt:
            continue
        if stmt == "#":
            return "tgf"
        if stmt.startswith(("arg(", "att(")):
            return "apx"
    # A file with only name lines and no separator is not valid either way;
    # defaulting to tgf gives the more useful error message.
    return "tgf"


def parse(text, fmt="auto"):
    """Parse framework text in the named format ('apx', 'tgf', or 'auto')."""
    if fmt == "auto":
        fmt = sniff_format(text)
    if fmt == "apx":
        return parse_apx(text)
    if fmt == "tgf":
        return parse_tgf(text)
    raise ValueError(f"unknown format: {fmt!r}")


def serialize(af, fmt="apx"):
    """Serialize a framework in the named format."""
    if fmt == "apx":
        return serialize_apx(af)
    if fmt == "tgf":
        return serialize_tgf(af)
    raise ValueError(f"unknown format: {fmt!r}")

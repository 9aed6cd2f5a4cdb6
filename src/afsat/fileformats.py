"""Text formats for argumentation frameworks.

Two formats are supported:

* the logic-programming style ``arg(name).`` / ``att(a,b).`` statement
  format, one statement per line, ``%`` starting a comment; whitespace
  anywhere in a statement is ignored, and every ``str.splitlines`` break
  ends a line;
* the trivial-graph edge-list format: one argument name per line, a single
  ``#`` separator line, then ``attacker target`` lines.

Argument names follow ``core.NAME_PATTERN`` in both formats. Parsers
report 1-based line numbers on error and, having checked every name and
attack themselves, build the framework without checking it again;
serializers are byte-deterministic (declaration order for arguments,
sorted index pairs for attacks).
"""

import re
from itertools import count

from .core import NAME_PATTERN as _NAME, NAME_RE, ArgumentationFramework

# one APX statement, matched whole: groups (name, None, None) for an
# argument, (None, attacker, target) for an attack
_STATEMENT_RE = re.compile(rf"arg\(({_NAME})\)\.|att\(({_NAME}),({_NAME})\)\.")
# the same two statements, each as a whole line of a text of statements
# that starts and ends with "\n"; the literal "\n" prefix lets the regex
# engine skip ahead, where "^" with re.M tries every position
_ARG_LINE_RE = re.compile(rf"\narg\(({_NAME})\)\.(?=\n)")
_ATT_LINE_RE = re.compile(rf"\natt\(({_NAME}),({_NAME})\)\.(?=\n)")
_COMMENT_RE = re.compile(r"%[^\n]*")
# deletes the characters str.split() splits on, except "\n"; a regex
# substitution of whitespace is many times slower than str.translate
_NO_WHITESPACE = str.maketrans("", "", "\t\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0"
                               "\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
                               "\u2006\u2007\u2008\u2009\u200a\u2028\u2029"
                               "\u202f\u205f\u3000")


class ParseError(ValueError):
    """Malformed framework text; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _statement(line):
    """An APX line as its reader sees it: the comment cut, every
    whitespace character removed."""
    return line.split("%", 1)[0].translate(_NO_WHITESPACE)


def parse_apx(text):
    """Parse statement-format text into a framework."""
    return _read_apx(text.splitlines())


def _read_apx(lines):
    """A framework from APX lines, read in bulk: the statements of all
    lines as one text, scanned once for arguments and once for attacks.
    When the counts show any fault, _raise_apx_error names it."""
    text = _COMMENT_RE.sub("", "\n".join(("", *lines, ""))).translate(
        _NO_WHITESPACE)
    names = _ARG_LINE_RE.findall(text)
    pairs = _ATT_LINE_RE.findall(text)
    index = dict(zip(names, count(1)))  # name -> 1-based index
    statements = len(names) + len(pairs)  # at most one per line
    if names and len(index) == len(names) and (
            statements == len(lines)  # every line a statement
            or statements + text.split("\n").count("") - 2 == len(lines)):
        try:
            attacks = [(index[a], index[b]) for a, b in pairs]
        except KeyError:
            pass
        else:
            return ArgumentationFramework._checked(tuple(index), index, attacks)
    _raise_apx_error(lines)


def _raise_apx_error(lines):
    """Raise the first fault of APX lines, line by line: a bad statement
    or a repeated name where it occurs, then an empty framework, then the
    first attack on an undeclared argument."""
    declared = set()
    attack_lines = []
    for lineno, raw in enumerate(lines, 1):
        stmt = _statement(raw)
        if not stmt:
            continue
        m = _STATEMENT_RE.fullmatch(stmt)
        if m is None:
            raise ParseError(f"unrecognized statement: {raw.strip()!r}", lineno)
        name, a, b = m.groups()
        if name is None:
            attack_lines.append((lineno, a, b))
        elif name in declared:
            raise ParseError(f"duplicate argument declaration: {name}", lineno)
        else:
            declared.add(name)
    if not declared:
        raise ParseError("no arguments declared")
    for lineno, a, b in attack_lines:
        for end in (a, b):
            if end not in declared:
                raise ParseError(
                    f"attack references undeclared argument: {end}", lineno)
    raise AssertionError("the bulk APX reader rejected valid lines")


def serialize_apx(af):
    """Statement-format text for a framework."""
    lines = [f"arg({name})." for name in af.arguments]
    for i, j in sorted(af.attacks):
        lines.append(f"att({af.name(i)},{af.name(j)}).")
    return "\n".join(lines) + "\n"


def parse_tgf(text):
    """Parse edge-list text into a framework."""
    return _read_tgf(text.splitlines())


def _read_tgf(lines):
    index = {}  # name -> 1-based index, in declaration order
    attacks = []
    separator_seen = False
    for lineno, raw in enumerate(lines, 1):
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
    return _sniff(text.splitlines())


def _sniff(lines):
    """'apx' at the first line whose APX statement starts an argument or an
    attack, 'tgf' at a '#' separator line or when no line decides."""
    for line in lines:
        stmt = _statement(line)
        if stmt == "#":
            return "tgf"
        if stmt.startswith(("arg(", "att(")):
            return "apx"
    # A file with only name lines and no separator is not valid either way;
    # defaulting to tgf gives the more useful error message.
    return "tgf"


def parse(text, fmt="auto"):
    """Parse framework text in the named format ('apx', 'tgf', or 'auto')."""
    if fmt not in ("auto", "apx", "tgf"):
        raise ValueError(f"unknown format: {fmt!r}")
    lines = text.splitlines()
    if fmt == "auto":
        fmt = _sniff(lines)
    return _read_apx(lines) if fmt == "apx" else _read_tgf(lines)


def serialize(af, fmt="apx"):
    """Serialize a framework in the named format."""
    if fmt == "apx":
        return serialize_apx(af)
    if fmt == "tgf":
        return serialize_tgf(af)
    raise ValueError(f"unknown format: {fmt!r}")

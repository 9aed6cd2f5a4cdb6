"""Parsers and serializers for the two framework text formats."""

import random
import re
import sys

import pytest

from afsat.core import ArgumentationFramework
from afsat.fileformats import (
    ParseError,
    parse,
    parse_apx,
    parse_tgf,
    serialize,
    serialize_apx,
    serialize_tgf,
    sniff_format,
)
from afsat.fileformats import _NO_WHITESPACE

from conftest import MUTUAL, assert_same_as_checked


APX_SAMPLE = """\
% a mutual attack
arg(a).
arg(b).

att(a, b).  % spaces inside statements are fine
att(b,a).
"""

TGF_SAMPLE = """\
a
b
#
a b
b a
"""

# lines that do not match as written: the comment is cut and every
# whitespace character removed before the statement is matched again
NORMALIZED_APX = [
    "arg(a).\n arg( b ).\natt(a,\tb).\natt (b,a) .\n",
    "arg(a). % first\narg(b).%\natt(a,b).\natt(b,a).   % back\n",
    "arg(a).\r\narg(b).\r\n\r\natt(a,b).\r\n% note\r\natt(b,a).\r\n",
    "\n  \narg(a).\n%\n\t\n% arg(c).\narg(b).\natt(a,b).\natt(b,a).",
]
# every other valid input of this module, by format
VALID_INPUTS = [
    ("apx", APX_SAMPLE), ("tgf", TGF_SAMPLE),
    *[("apx", text) for text in NORMALIZED_APX],
    ("apx", "arg(z).\narg(a).\n"),
    ("apx", "att(b,a).\narg(a).\narg(b).\n"),
    ("apx", "arg(a b).\natt(a\tb,ab).\n"),
    ("apx", "arg(ab).\natt(ab,ab).\n"),
    ("tgf", "\na\n\nb\n\n#\n\na b\n\nb a\n\n"),
]


class TestApx:
    def test_parse_sample(self):
        af = parse_apx(APX_SAMPLE)
        assert af == MUTUAL

    def test_round_trip(self, small_afs):
        for af in small_afs:
            assert parse_apx(serialize_apx(af)) == af

    def test_serialize_deterministic(self):
        assert serialize_apx(MUTUAL) == "arg(a).\narg(b).\natt(a,b).\natt(b,a).\n"

    def test_declaration_order_preserved(self):
        af = parse_apx("arg(z).\narg(a).\n")
        assert af.arguments == ("z", "a")

    def test_errors(self):
        with pytest.raises(ParseError, match="line 2.*duplicate"):
            parse_apx("arg(a).\narg(a).\n")
        with pytest.raises(ParseError, match="line 1.*unrecognized"):
            parse_apx("argument(a).\n")
        with pytest.raises(ParseError, match="undeclared"):
            parse_apx("arg(a).\natt(a,b).\n")
        with pytest.raises(ParseError, match="no arguments"):
            parse_apx("% nothing here\n")
        with pytest.raises(ParseError):
            parse_apx("arg(a)\n")  # missing trailing dot

    def test_attack_before_declaration(self):
        af = parse_apx("att(b,a).\narg(a).\narg(b).\n")
        assert af.has_attack(2, 1)

    @pytest.mark.parametrize("text", NORMALIZED_APX,
                             ids=["spaces-and-tabs", "trailing-comments",
                                  "crlf", "blank-lines"])
    def test_normalized_lines(self, text):
        assert parse_apx(text) == MUTUAL

    def test_whitespace_inside_a_name_is_removed(self):
        assert parse_apx("arg(a b).\natt(a\tb,ab).\n") == \
            parse_apx("arg(ab).\natt(ab,ab).\n")

    def test_unrecognized_statement_after_matched_lines(self):
        with pytest.raises(ParseError,
                           match=r"^line 4: unrecognized statement: "
                                 r"'att\(a b c\)\.'$"):
            parse_apx("arg(a).\narg(b).\natt(a,b).\n  att(a b c).\n")

    def test_unrecognized_statement_beats_undeclared_attack(self):
        with pytest.raises(ParseError,
                           match=r"^line 3: unrecognized statement: 'bogus\.'$"):
            parse_apx("arg(a).\natt(a,c).\nbogus.\n")

    def test_undeclared_attacker(self):
        with pytest.raises(ParseError,
                           match=r"^line 2: attack references undeclared "
                                 r"argument: b$"):
            parse_apx("arg(a).\natt(b,a).\n")


# A line-by-line APX reader that shares no code with the package's: each
# line loses its comment and its whitespace, then must match one statement
# whole. Returns (framework, None) or (None, (error text, line number)).
REF_STATEMENT = re.compile(r"arg\(([A-Za-z0-9_]+)\)\."
                           r"|att\(([A-Za-z0-9_]+),([A-Za-z0-9_]+)\)\.")


def reference_apx(text):
    names = []
    attack_lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stmt = "".join(raw.split("%", 1)[0].split())
        if not stmt:
            continue
        m = REF_STATEMENT.fullmatch(stmt)
        if m is None:
            return None, (f"line {lineno}: unrecognized statement: "
                          f"{raw.strip()!r}", lineno)
        name, a, b = m.groups()
        if name is None:
            attack_lines.append((lineno, a, b))
        elif name in names:
            return None, (f"line {lineno}: duplicate argument declaration: "
                          f"{name}", lineno)
        else:
            names.append(name)
    if not names:
        return None, ("no arguments declared", None)
    attacks = []
    for lineno, a, b in attack_lines:
        for end in (a, b):
            if end not in names:
                return None, (f"line {lineno}: attack references undeclared "
                              f"argument: {end}", lineno)
        attacks.append((names.index(a) + 1, names.index(b) + 1))
    return ArgumentationFramework(names, attacks), None


SOUP_SPACES = [" ", "\t", "\xa0", "\u3000", "\x1f", "\u2009"]
SOUP_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"]
SOUP_BAD = ["arg(a)", "argh.", "att(a).", "arg(a-b).", "att(a,b,c).",
            "arg().", "ARG(a).", "arg(a)).", "x"]


def soup(rng, faults):
    """A random APX text: statements over a small name pool, comments and
    blank lines, with whitespace sprinkled in; with ``faults``, perhaps
    also repeated names, unknown endpoints and bad statements."""
    pool = ["a", "b", "c1", "_x", "9", "Zz"]
    declared = rng.sample(pool, rng.randint(1, 4))
    lines = [f"arg({n})." for n in declared]
    for _ in range(rng.randint(0, 6)):
        ends = pool if faults and rng.random() < 0.2 else declared
        lines.append(f"att({rng.choice(ends)},{rng.choice(ends)}).")
    for _ in range(rng.randint(0, 3)):
        lines.append(rng.choice(["", "%", "% note", "  % att(a,b).", "\t"]))
    if faults and rng.random() < 0.3:
        lines.append(f"arg({rng.choice(declared)}).")
    if faults and rng.random() < 0.3:
        lines.append(rng.choice(SOUP_BAD))
    rng.shuffle(lines)
    out = []
    for line in lines:
        chars = list(line)
        for _ in range(rng.randint(0, 3)):
            chars.insert(rng.randint(0, len(chars)), rng.choice(SOUP_SPACES))
        if rng.random() < 0.3:
            chars.append(rng.choice(["%", " % c ", "%arg(q)."]))
        out.append("".join(chars) + rng.choice(SOUP_BREAKS))
    return "".join(out)


class TestApxAgainstReference:
    """The bulk reader agrees with the line-by-line reference on random
    texts: the same framework in every stored field, or the same error
    text and line."""

    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulty"])
    def test_random_soups(self, faults):
        rng = random.Random(20261020 + faults)
        outcomes = set()
        for _ in range(1500):
            text = soup(rng, faults)
            want, error = reference_apx(text)
            # every soup declares an argument, so "auto" sniffs apx
            for read in (parse_apx, lambda t: parse(t, "auto")):
                if error is None:
                    af = read(text)
                    assert_same_as_checked(af)
                    assert (af.arguments, af.attacks) == \
                        (want.arguments, want.attacks), text
                else:
                    with pytest.raises(ParseError) as err:
                        read(text)
                    assert (str(err.value), err.value.line) == error, text
            outcomes.add(error[0].split(": ")[-2] if error else "ok")
        # every kind of outcome was drawn
        assert outcomes == ({"ok"} if not faults else {
            "ok", "unrecognized statement", "duplicate argument declaration",
            "attack references undeclared argument"})

    def test_no_arguments(self):
        for text in ["", "\n", "% only\r\n\t\n", "\xa0\u2028 %arg(a)."]:
            assert reference_apx(text)[1] == ("no arguments declared", None)
            with pytest.raises(ParseError) as err:
                parse_apx(text)
            assert (str(err.value), err.value.line) == \
                ("no arguments declared", None)

    def test_deletion_table_is_split_whitespace_but_newline(self):
        spaces = {chr(c) for c in range(sys.maxunicode + 1)
                  if chr(c).isspace()}
        assert set(map(chr, _NO_WHITESPACE)) == spaces - {"\n"}
        assert set(_NO_WHITESPACE.values()) == {None}


class TestTgf:
    def test_parse_sample(self):
        af = parse_tgf(TGF_SAMPLE)
        assert af == MUTUAL

    def test_round_trip(self, small_afs):
        for af in small_afs:
            assert parse_tgf(serialize_tgf(af)) == af

    def test_serialize_deterministic(self):
        assert serialize_tgf(MUTUAL) == "a\nb\n#\na b\nb a\n"

    def test_errors(self):
        with pytest.raises(ParseError, match="missing '#'"):
            parse_tgf("a\nb\n")
        with pytest.raises(ParseError, match="line 4.*second separator"):
            parse_tgf("a\nb\n#\n#\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_tgf("a\na\n#\n")
        with pytest.raises(ParseError, match="expected 'attacker target'"):
            parse_tgf("a\n#\na\n")
        with pytest.raises(ParseError, match="undeclared"):
            parse_tgf("a\n#\na b\n")
        with pytest.raises(ParseError, match="bad argument name"):
            parse_tgf("a-b\n#\n")

    # each error keeps its message and the line it names; blank lines are
    # skipped but still counted
    @pytest.mark.parametrize("text, message", [
        ("a\n\n#\n\na c\n",
         "line 5: attack references undeclared argument: c"),
        ("a\n#\nb a\n", "line 3: attack references undeclared argument: b"),
        ("a\nb c\n#\n", "line 2: expected one argument name: 'b c'"),
        ("#\n", "no arguments declared"),
        ("\n#\n\n", "no arguments declared"),
    ], ids=["blank-lines", "undeclared-attacker", "two-names",
            "separator-only", "blank-and-separator"])
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_tgf(text)
        assert str(err.value) == message

    def test_blank_lines_are_skipped(self):
        assert parse_tgf("\na\n\nb\n\n#\n\na b\n\nb a\n\n") == MUTUAL


class TestDispatch:
    def test_sniff(self):
        assert sniff_format(APX_SAMPLE) == "apx"
        assert sniff_format(TGF_SAMPLE) == "tgf"
        assert sniff_format("% comment\narg(a).\n") == "apx"
        assert sniff_format("a\nb\n") == "tgf"  # no line decides

    # a statement is judged as the APX reader sees it: comment cut and
    # every whitespace character removed
    @pytest.mark.parametrize("text", [
        "arg (a).\natt (a,a).\n", " arg\t(a).\n", "att\xa0(a,a).\narg(a).\n",
        "\n%x\n  \u3000arg (a). % c\n"])
    def test_sniff_spaced_apx(self, text):
        assert sniff_format(text) == "apx"
        assert parse(text) == parse_apx(text)

    def test_auto_parse(self):
        assert parse(APX_SAMPLE) == MUTUAL
        assert parse(TGF_SAMPLE) == MUTUAL
        assert parse(APX_SAMPLE, fmt="apx") == MUTUAL

    def test_cross_format_round_trip(self, small_afs):
        for af in small_afs:
            assert parse(serialize(af, "tgf"), "tgf") == parse(serialize(af, "apx"), "apx")

    def test_parsers_build_what_the_checking_constructor_builds(
            self, small_afs):
        inputs = VALID_INPUTS + [(fmt, serialize(af, fmt)) for af in small_afs
                                 for fmt in ("apx", "tgf")]
        for fmt, text in inputs:
            assert_same_as_checked(parse(text, fmt))

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse("x\n#\n", fmt="xml")
        with pytest.raises(ValueError):
            serialize(MUTUAL, "xml")

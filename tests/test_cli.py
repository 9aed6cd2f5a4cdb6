"""The command-line surface: every subcommand, exit codes, output schemas.

Most checks drive cli.main() in process and read stdout through capsys;
a few smoke tests go through a real interpreter to cover the
console-script and ``python -m`` entry points.

The console-script smoke test needs no install: it reads the ``afsat``
entry of ``[project.scripts]`` from this checkout's pyproject.toml and
writes the wrapper an installer would write for it. The install test
builds a copy of the checkout with pip and runs the script pip installs;
it runs only where a ``bdist_wheel`` command is available (the ``wheel``
package, or setuptools 70.1 and later).
"""

import argparse
import importlib.metadata
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import afsat
from afsat import __version__, cli
from afsat.cli import COMMANDS, _json_text, build_parser, main
from afsat.cnf import parse_dimacs
from afsat.generators import METHOD_PROBABILITY, build_suite, generate
from afsat.fileformats import parse, serialize_apx
from afsat.oracle import oracle_preferred

MUTUAL_APX = "arg(a).\narg(b).\natt(a,b).\natt(b,a).\n"
MUTUAL_TGF = "a\nb\n#\na b\nb a\n"
CHAIN_APX = "arg(a).\narg(b).\narg(c).\natt(a,b).\natt(b,c).\n"
REFDPLL = os.path.join(os.path.dirname(__file__), "tools", "refdpll.py")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the directory the afsat package under test was imported from
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(afsat.__file__)))

# the wrapper installers write for a ``module:function`` console script
CONSOLE_SCRIPT = """\
#!{python}
import sys
from {module} import {function}
if __name__ == "__main__":
    sys.exit({function}())
"""


def has_bdist_wheel():
    """True if setuptools can build a wheel here: it ships ``bdist_wheel``
    itself from 70.1 on, and needs the ``wheel`` package before that."""
    try:
        version = importlib.metadata.version("setuptools")
    except importlib.metadata.PackageNotFoundError:
        return False
    if importlib.util.find_spec("wheel") is not None:
        return True
    release = re.match(r"(\d+)\.(\d+)", version)
    return release is not None and tuple(map(int, release.groups())) >= (70, 1)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def af_file(tmp_path, text, name="af.apx"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def rings_apx(*rings):
    """APX text of disjoint attack cycles, one per string of names."""
    lines = [f"arg({x})." for ring in rings for x in ring]
    for ring in rings:
        lines.extend(f"att({x},{y})." for x, y in zip(ring, ring[1:] + ring[0]))
    return "\n".join(lines) + "\n"


def assert_proven(af, extensions):
    """Every reported extension (as name lists) is a preferred one."""
    preferred = oracle_preferred(af)
    for names in extensions:
        assert frozenset(af.index(n) for n in names) in preferred, names


def refdpll_solver(tmp_path):
    """``--solver`` value running the reference DPLL as an external solver."""
    wrapper = tmp_path / "refdpll"
    wrapper.write_text(f"#!{sys.executable}\nimport runpy\n"
                       f"runpy.run_path({REFDPLL!r}, run_name='__main__')\n")
    wrapper.chmod(0o755)
    return f"ext:{wrapper}"


# a<->b, a->c, b->c, c->d: the empty set is complete, but d is in both
# preferred extensions, {a, d} and {b, d}
FORK_APX = ("arg(a).\narg(b).\narg(c).\narg(d).\natt(a,b).\natt(b,a).\n"
            "att(a,c).\natt(b,c).\natt(c,d).\n")


def model_lits(out):
    """All literals from the v-lines of solver output, trailing 0 stripped."""
    lits = []
    for line in out.splitlines():
        if line.startswith("v"):
            lits.extend(int(tok) for tok in line.split()[1:])
    assert lits and lits[-1] == 0
    return lits[:-1]


def pigeonhole_dimacs(holes):
    pigeons = holes + 1

    def var(i, j):
        return (i - 1) * holes + j

    clauses = [[var(i, j) for j in range(1, holes + 1)]
               for i in range(1, pigeons + 1)]
    for j in range(1, holes + 1):
        for i1 in range(1, pigeons + 1):
            for i2 in range(i1 + 1, pigeons + 1):
                clauses.append([-var(i1, j), -var(i2, j)])
    lines = [f"p cnf {pigeons * holes} {len(clauses)}"]
    lines.extend(" ".join(str(l) for l in c) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


class TestParse:
    def test_apx_to_json(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, ["parse", af_file(tmp_path, MUTUAL_APX)])
        assert code == 0
        assert json.loads(out) == {
            "arguments": ["a", "b"],
            "attacks": [["a", "b"], ["b", "a"]],
        }

    def test_tgf_sniffed(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_TGF, name="af.tgf")
        code, out, _ = run_cli(capsys, ["parse", path])
        assert code == 0
        assert json.loads(out)["arguments"] == ["a", "b"]

    # the sniffer reads a statement as the APX reader does, whitespace and
    # all removed, so spaced APX is not taken for edge-list text
    def test_spaced_apx_sniffed(self, capsys, tmp_path):
        path = af_file(tmp_path, "arg (a).\natt (a,a).\n", name="s.apx")
        code, out, _ = run_cli(capsys, ["parse", path])
        assert code == 0
        assert json.loads(out) == {"arguments": ["a"],
                                   "attacks": [["a", "a"]]}
        code, out, _ = run_cli(capsys, ["enumerate", path])
        assert code == 0
        assert json.loads(out)["extensions"] == [[]]

    def test_cross_format_conversion(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_TGF, name="af.tgf")
        code, out, _ = run_cli(capsys, ["parse", path, "--to", "apx"])
        assert (code, out) == (0, MUTUAL_APX)
        path = af_file(tmp_path, MUTUAL_APX)
        code, out, _ = run_cli(capsys, ["parse", path, "--to", "tgf"])
        assert (code, out) == (0, MUTUAL_TGF)

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(MUTUAL_APX))
        code, out, _ = run_cli(capsys, ["parse", "-", "--format", "apx"])
        assert code == 0
        assert json.loads(out)["arguments"] == ["a", "b"]

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["parse", str(tmp_path / "nope.apx")])
        assert code == 2
        assert "error" in err

    def test_malformed_text_is_input_error(self, capsys, tmp_path):
        path = af_file(tmp_path, "arg(a)\n")
        code, _, err = run_cli(capsys, ["parse", path, "--format", "apx"])
        assert code == 2
        assert "line 1" in err


class TestEncode:
    def test_default_dimacs(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        code, out, _ = run_cli(capsys, ["encode", path])
        assert code == 0
        assert "p cnf 6 17" in out
        assert f"c source: {path}" in out
        assert "c arg 1 = a" in out and "c arg 2 = b" in out
        formula = parse_dimacs(out)
        assert formula.num_vars == 6 and len(formula.clauses) == 17

    def test_without_nonempty_drops_one_clause(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        code, out, _ = run_cli(capsys, ["encode", path, "--without-nonempty"])
        assert code == 0
        assert "p cnf 6 16" in out

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        _, stdout_text, _ = run_cli(capsys, ["encode", path])
        out_path = tmp_path / "f.cnf"
        code, out, _ = run_cli(capsys, ["encode", path, "--out", str(out_path)])
        assert code == 0 and out == ""
        assert out_path.read_text() == stdout_text

    def test_out_dash_is_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = af_file(tmp_path, MUTUAL_APX)
        _, stdout_text, _ = run_cli(capsys, ["encode", path])
        code, out, _ = run_cli(capsys, ["encode", path, "--out", "-"])
        assert code == 0 and out == stdout_text
        assert not os.path.exists("-")

    def test_stdin_has_no_source_comment(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(MUTUAL_APX))
        code, out, _ = run_cli(capsys, ["encode", "-", "--format", "apx"])
        assert code == 0
        assert "c source:" not in out

    def test_encoding_flag(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        code, out, _ = run_cli(capsys, ["encode", path, "--encoding", "C1"])
        assert code == 0
        formula = parse_dimacs(out)
        assert formula.num_vars == 6
        assert len(formula.clauses) > 17  # all six terms beat the minimal set

    def test_unknown_encoding_is_input_error(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        code, _, err = run_cli(capsys, ["encode", path, "--encoding", "C9"])
        assert code == 2
        assert "unknown encoding" in err


class TestEnumerate:
    def test_mutual_payload_frozen(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        code, out, _ = run_cli(capsys, ["enumerate", path])
        assert code == 0
        assert json.loads(out) == {
            "semantics": "preferred",
            "encoding": "C2",
            "complete": True,
            "num_extensions": 2,
            "extensions": [["a"], ["b"]],
            "stats": {
                "sat_calls": 5,
                "inner_iterations": 5,
                "outer_iterations": 3,
            },
        }

    def test_complete_semantics(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        code, out, _ = run_cli(
            capsys, ["enumerate", path, "--semantics", "complete"])
        assert code == 0
        payload = json.loads(out)
        assert payload["num_extensions"] == 3
        assert payload["extensions"] == [["a"], ["b"], []]

    def test_stats_only(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        code, out, _ = run_cli(capsys, ["enumerate", path, "--stats-only"])
        assert code == 0
        payload = json.loads(out)
        assert "extensions" not in payload
        assert payload["num_extensions"] == 2

    def test_timing_opt_in(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        _, out, _ = run_cli(capsys, ["enumerate", path])
        assert "wall_time_s" not in out
        _, out, _ = run_cli(capsys, ["enumerate", path, "--timing"])
        assert json.loads(out)["stats"]["wall_time_s"] >= 0

    def test_queries(self, capsys, tmp_path):
        path = af_file(tmp_path, CHAIN_APX)
        code, out, _ = run_cli(capsys, [
            "enumerate", path,
            "--query-credulous", "a", "--query-credulous", "b",
            "--query-skeptical", "c",
        ])
        assert code == 0
        queries = json.loads(out)["queries"]
        assert queries["credulous"] == {"a": True, "b": False}
        assert queries["skeptical"] == {"c": True}

    def test_unknown_query_name_is_input_error(self, capsys, tmp_path,
                                               monkeypatch):
        """Every query name is resolved before the run: an unknown one
        exits 2 without enumerating."""
        def enumerate_preferred(*args, **kwargs):
            raise AssertionError("enumerated before the query names were read")

        monkeypatch.setattr("afsat.enumeration.enumerate_preferred",
                            enumerate_preferred)
        path = af_file(tmp_path, CHAIN_APX)
        for flag in ["--query-credulous", "--query-skeptical"]:
            code, out, err = run_cli(
                capsys, ["enumerate", path, flag, "a", flag, "zzz"])
            assert code == 2
            assert out == ""
            assert err == "afsat: error: no argument named 'zzz'\n"

    def test_encoding_flag_respected(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        code, out, _ = run_cli(capsys, ["enumerate", path, "--encoding", "C3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["encoding"] == "C3"
        assert payload["extensions"] == [["a"], ["b"]]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        path = af_file(tmp_path, CHAIN_APX)
        argv = ["enumerate", path, "--query-skeptical", "a"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_budget_exhaustion_exit_code(self, capsys, tmp_path):
        # two disjoint 4-cycles need more than one conflict to enumerate
        text = rings_apx("abcd", "efgh")
        path = af_file(tmp_path, text)
        code, out, _ = run_cli(
            capsys, ["enumerate", path, "--conflict-budget", "1"])
        assert code == 3
        payload = json.loads(out)
        assert payload["complete"] is False
        assert_proven(parse(text), payload["extensions"])

    def test_queries_on_partial_run(self, capsys, tmp_path):
        text = rings_apx("abcd", "efgh", "xyz")
        af = parse(text)
        path = af_file(tmp_path, text)
        queries = [flag for name in af.arguments
                   for flag in ("--query-skeptical", name)]
        # the smallest budget that proves some extensions but not all
        for budget in range(1, 100):
            code, out, _ = run_cli(capsys, [
                "enumerate", path, "--conflict-budget", str(budget),
                "--query-credulous", "a"] + queries)
            payload = json.loads(out)
            if payload["extensions"] or payload["complete"]:
                break
        assert code == 3
        assert payload["complete"] is False
        proven = payload["extensions"]
        assert_proven(af, proven)
        # an argument missing from a proven extension is rejected; one in
        # every proven extension is unknown, not accepted
        skeptical = payload["queries"]["skeptical"]
        assert skeptical == {
            name: False if any(name not in e for e in proven) else None
            for name in af.arguments}
        assert set(skeptical.values()) == {False, None}
        assert payload["queries"]["credulous"] == {"a": True}

    def test_credulous_query_out_of_budget(self, capsys, tmp_path):
        # x4 is in no complete extension, but proving it takes more than
        # one conflict
        path = af_file(tmp_path, "arg(x1).\narg(x2).\narg(x3).\narg(x4).\n"
                       "att(x1,x1).\natt(x1,x2).\natt(x2,x4).\natt(x3,x1).\n"
                       "att(x3,x2).\natt(x3,x3).\n")
        code, out, _ = run_cli(capsys, [
            "enumerate", path, "--conflict-budget", "1",
            "--query-credulous", "x4", "--query-credulous", "x2"])
        assert code == 3
        assert json.loads(out)["queries"]["credulous"] == {"x4": None,
                                                           "x2": False}

    def test_one_budget_pool_for_run_and_queries(self, capsys, tmp_path,
                                                 monkeypatch):
        """The run and every credulous query draw on one factory, and a
        query that a proven extension answers builds no session."""
        import afsat.solver

        factories, sessions = [], []
        real = afsat.solver.builtin_session_factory

        def counting(*args, **kwargs):
            make = real(*args, **kwargs)
            factories.append(make)

            def counted(formula):
                sessions.append(formula)
                return make(formula)
            return counted

        monkeypatch.setattr(afsat.solver, "builtin_session_factory",
                            counting)
        text = rings_apx("abcd", "efgh")
        af = parse(text)
        path = af_file(tmp_path, text)
        queries = [flag for name in af.arguments
                   for flag in ("--query-credulous", name)]
        # the smallest budget that proves some extensions but not all
        for budget in range(1, 100):
            factories.clear()
            sessions.clear()
            code, out, _ = run_cli(capsys, [
                "enumerate", path, "--conflict-budget", str(budget)]
                + queries)
            payload = json.loads(out)
            if payload["extensions"] or payload["complete"]:
                break
        assert code == 3
        assert payload["complete"] is False
        proven = set().union(*payload["extensions"])
        credulous = payload["queries"]["credulous"]
        assert all(credulous[name] is True for name in proven)
        assert len(factories) == 1
        # a session per ring for the run, and one per query on an
        # argument that no proven extension holds
        assert len(sessions) == 2 + len(set(af.arguments) - proven)

    def test_skeptical_query_is_about_preferred(self, capsys, tmp_path):
        path = af_file(tmp_path, FORK_APX)
        for semantics in ("preferred", "complete"):
            code, out, _ = run_cli(capsys, [
                "enumerate", path, "--semantics", semantics,
                "--query-skeptical", "d", "--query-skeptical", "a"])
            assert code == 0
            payload = json.loads(out)
            assert payload["semantics"] == semantics
            assert payload["queries"]["skeptical"] == {"d": True, "a": False}

    def test_skeptical_query_on_partial_complete_run(self, capsys, tmp_path):
        # a proven complete extension may grow into a preferred one that
        # holds the argument, so nothing is decided
        text = rings_apx("abcd", "efgh")
        af = parse(text)
        path = af_file(tmp_path, text)
        code, out, _ = run_cli(capsys, [
            "enumerate", path, "--semantics", "complete",
            "--conflict-budget", "1"] + [
            flag for name in af.arguments
            for flag in ("--query-skeptical", name)])
        assert code == 3
        payload = json.loads(out)
        assert payload["complete"] is False
        assert payload["extensions"]
        assert payload["queries"]["skeptical"] == dict.fromkeys(af.arguments)

    def test_external_solver(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        # 2147483 s is the longest wait subprocess allows (MAX_BUDGET_S)
        for flags in ([], ["--solver-budget", "2147483"]):
            code, out, _ = run_cli(capsys, ["enumerate", path, "--solver",
                                            refdpll_solver(tmp_path)] + flags)
            assert code == 0
            payload = json.loads(out)
            assert payload["complete"] is True
            assert payload["extensions"] == [["a"], ["b"]]

    def test_solver_budget(self, capsys, tmp_path):
        sleeper = tmp_path / "sleeper"
        sleeper.write_text(f"#!{sys.executable}\nimport time\ntime.sleep(30)\n")
        sleeper.chmod(0o755)
        path = af_file(tmp_path, MUTUAL_APX)
        code, out, _ = run_cli(capsys, [
            "enumerate", path, "--solver", f"ext:{sleeper}",
            "--solver-budget", "0.5"])
        assert code == 3
        assert json.loads(out)["complete"] is False

    def test_solver_budget_bounds_the_whole_run(self, capsys, tmp_path):
        # each call takes about 0.3 s, well inside 1.5 s, but the 19 calls
        # of the full run take about 6 s
        slow = tmp_path / "slow-refdpll"
        slow.write_text(f"#!{sys.executable}\nimport runpy, time\n"
                        "time.sleep(0.3)\n"
                        f"runpy.run_path({REFDPLL!r}, run_name='__main__')\n")
        slow.chmod(0o755)
        text = rings_apx("ab", "cd", "ef")
        path = af_file(tmp_path, text)
        code, out, _ = run_cli(capsys, [
            "enumerate", path, "--solver", f"ext:{slow}",
            "--solver-budget", "1.5"])
        assert code == 3
        payload = json.loads(out)
        assert payload["complete"] is False
        assert payload["stats"]["sat_calls"] < 19
        assert_proven(parse(text), payload["extensions"])

    def test_bad_solver_value_is_input_error(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        code, _, err = run_cli(capsys, ["enumerate", path, "--solver", "wat"])
        assert code == 2
        assert "bad --solver" in err


class TestQuery:
    def test_credulous(self, capsys, tmp_path):
        path = af_file(tmp_path, CHAIN_APX)
        code, out, _ = run_cli(
            capsys, ["query", path, "--mode", "credulous", "--argument", "b"])
        assert code == 0
        assert json.loads(out) == {"argument": "b", "mode": "credulous",
                                   "encoding": "C2", "accepted": False}

    def test_skeptical(self, capsys, tmp_path):
        path = af_file(tmp_path, CHAIN_APX)
        code, out, _ = run_cli(
            capsys, ["query", path, "--mode", "skeptical", "--argument", "c"])
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_skeptical_on_partial_run(self, capsys, tmp_path):
        text = rings_apx("abcd", "efgh", "xyz")
        af = parse(text)
        path = af_file(tmp_path, text)
        queries = [flag for name in af.arguments
                   for flag in ("--query-skeptical", name)]
        # the smallest budget that proves some extensions but not all
        for n in range(1, 100):
            budget = ["--conflict-budget", str(n)]
            code, out, _ = run_cli(capsys, ["enumerate", path] + budget
                                   + queries)
            payload = json.loads(out)
            if payload["extensions"] or payload["complete"]:
                break
        assert code == 3
        assert payload["complete"] is False
        expected = payload["queries"]["skeptical"]
        answers = {}
        for name in af.arguments:
            code, out, _ = run_cli(capsys, [
                "query", path, "--mode", "skeptical", "--argument", name]
                + budget)
            assert code == 3
            answers[name] = json.loads(out)["accepted"]
        assert answers == expected
        assert set(answers.values()) == {False, None}

    def test_skeptical_is_about_preferred(self, capsys, tmp_path):
        path = af_file(tmp_path, FORK_APX)
        code, out, _ = run_cli(
            capsys, ["query", path, "--mode", "skeptical", "--argument", "d"])
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_credulous_out_of_budget(self, capsys, tmp_path):
        # the framework of TestEnumerate.test_credulous_query_out_of_budget
        path = af_file(tmp_path, "arg(x1).\narg(x2).\narg(x3).\narg(x4).\n"
                       "att(x1,x1).\natt(x1,x2).\natt(x2,x4).\natt(x3,x1).\n"
                       "att(x3,x2).\natt(x3,x3).\n")
        code, out, _ = run_cli(capsys, [
            "query", path, "--mode", "credulous", "--argument", "x4",
            "--conflict-budget", "1"])
        assert code == 3
        assert json.loads(out) == {"argument": "x4", "mode": "credulous",
                                   "encoding": "C2", "accepted": None}

    def test_unknown_argument_is_input_error(self, capsys, tmp_path):
        path = af_file(tmp_path, CHAIN_APX)
        code, _, err = run_cli(
            capsys, ["query", path, "--mode", "credulous", "--argument", "q"])
        assert code == 2
        assert "no argument named" in err


class TestBudgetFlags:
    """Each budget flag belongs to one backend and must be positive; any
    other use is an input error, not a flag silently ignored."""

    @pytest.mark.parametrize("command", [
        ["enumerate"], ["query", "--mode", "credulous", "--argument", "a"]],
        ids=["enumerate", "query"])
    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--solver-budget", "1"],
                     "--solver-budget does not apply", id="solver-on-builtin"),
        pytest.param(["--solver", "REFDPLL", "--conflict-budget", "1"],
                     "--conflict-budget does not apply", id="conflict-on-ext"),
        pytest.param(["--conflict-budget", "0"], "budget must be positive",
                     id="conflict-zero"),
        pytest.param(["--conflict-budget", "-3"], "budget must be positive",
                     id="conflict-negative"),
        pytest.param(["--solver", "REFDPLL", "--solver-budget", "0"],
                     "budget must be positive", id="solver-zero"),
        pytest.param(["--solver", "REFDPLL", "--solver-budget", "-1"],
                     "budget must be positive", id="solver-negative"),
        pytest.param(["--solver", "REFDPLL", "--solver-budget", "inf"],
                     "budget must be positive and finite: inf",
                     id="solver-inf"),
        pytest.param(["--solver", "REFDPLL", "--solver-budget", "nan"],
                     "budget must be positive and finite: nan",
                     id="solver-nan"),
        # subprocess cannot wait longer
        pytest.param(["--solver", "REFDPLL", "--solver-budget", "2147484"],
                     "budget must be at most 2147483 s: 2147484.0",
                     id="solver-too-long"),
    ])
    def test_rejected(self, capsys, tmp_path, command, flags, message):
        path = af_file(tmp_path, rings_apx("abcd", "efgh"))
        flags = [refdpll_solver(tmp_path) if f == "REFDPLL" else f
                 for f in flags]
        code, out, err = run_cli(capsys, command[:1] + [path] + command[1:]
                                 + flags)
        assert code == 2
        assert out == ""
        assert message in err

    def test_sat_rejects_zero_budget(self, capsys, tmp_path):
        path = tmp_path / "php.cnf"
        path.write_text(pigeonhole_dimacs(3))
        code, out, err = run_cli(
            capsys, ["sat", str(path), "--conflict-budget", "0"])
        assert code == 2
        assert out == ""
        assert "budget must be positive" in err


def test_layer_entry_points_looked_up_at_call_time(capsys, tmp_path,
                                                  monkeypatch):
    """The benchmark's traced run replaces these module attributes; an
    ``enumerate`` that bound one at import time would escape the trace."""
    import afsat.enumeration
    import afsat.fileformats
    import afsat.solver

    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in [(afsat.fileformats, "parse"),
                         (afsat.enumeration, "encode"),
                         (afsat.solver, "builtin_session_factory"),
                         (afsat.enumeration, "enumerate_preferred"),
                         (afsat.enumeration, "enumerate_complete")]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    path = af_file(tmp_path, MUTUAL_APX)
    for semantics in ("preferred", "complete"):
        code, _, _ = run_cli(capsys, ["enumerate", path,
                                      "--semantics", semantics])
        assert code == 0
    assert calls == {"parse": 2, "encode": 2, "builtin_session_factory": 2,
                     "enumerate_preferred": 1, "enumerate_complete": 1}


# a self-attack and two components: a <-> b, and c <-> d with d attacking
# itself; the grounded labelling decides nothing
TWO_PARTS_APX = ("arg(a).\narg(b).\narg(c).\narg(d).\natt(a,b).\natt(b,a).\n"
                 "att(c,d).\natt(d,c).\natt(d,d).\n")


def test_enumerate_checks_encodes_and_prints_in_one_pass(capsys, tmp_path,
                                                         monkeypatch):
    """``enumerate`` never re-checks a parsed framework or a subframework,
    never re-normalizes the encoder's clauses, and never takes the
    stdlib's pure-Python JSON encoder."""
    import json.encoder

    from afsat.cnf import CnfFormula
    from afsat.core import ArgumentationFramework

    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    targets = [(json.encoder, "_make_iterencode"),
               (ArgumentationFramework, "__init__"),
               (CnfFormula, "__init__")]
    for owner, name in targets:
        monkeypatch.setattr(owner, name, counting(
            f"{owner.__name__}.{name}", getattr(owner, name)))
    path = af_file(tmp_path, TWO_PARTS_APX)
    for argv in (["enumerate", path, "--timing", "--query-credulous", "b",
                  "--query-skeptical", "c"],
                 ["enumerate", path, "--semantics", "complete"],
                 ["query", path, "--mode", "credulous", "--argument", "d"]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and out
    assert calls == {}
    # the counters see what they guard
    json.dumps({"a": [1]}, indent=2)
    ArgumentationFramework(["a"])
    CnfFormula(1, [[1]])
    assert calls == {"json.encoder._make_iterencode": 1,
                     "ArgumentationFramework.__init__": 1,
                     "CnfFormula.__init__": 1}


class TestJsonOutput:
    """The one JSON writer prints what ``json.dumps(payload, indent=2,
    sort_keys=True)`` prints."""

    @pytest.mark.parametrize("payload", [
        {}, [], "", 0, None, True, 1.5,
        {"b": [], "a": {}, "c": [[], {}, [[]]]},
        [1, "x", None, True, False, -0.0, 1e300, 2.5e-7, -12, [1, [2, "y"]]],
        {"text": ["caf\u00e9", "\u20ac", "\U0001f600", "\n\t\"\\/\x00\x7f"],
         "\u00fcber": {"z": 1, "A": 2, "_": 3, "\u00e9": 4}},
        ("a", ("b", {"k": ("c",)})),
    ], ids=["empty-dict", "empty-list", "empty-string", "zero", "null",
            "true", "float", "empty-containers", "mixed-list",
            "non-ascii-and-escapes", "tuples"])
    def test_synthetic_payloads(self, payload):
        assert _json_text(payload) == json.dumps(payload, indent=2,
                                                 sort_keys=True)

    def test_every_command_payload(self, capsys, tmp_path):
        mutual = af_file(tmp_path, MUTUAL_APX)
        # x4 is in no complete extension, but proving it takes more than
        # one conflict: its credulous answer is null at budget 1
        hard = af_file(tmp_path, "arg(x1).\narg(x2).\narg(x3).\narg(x4).\n"
                       "att(x1,x1).\natt(x1,x2).\natt(x2,x4).\natt(x3,x1).\n"
                       "att(x3,x2).\natt(x3,x3).\n", name="hard.apx")
        parts = af_file(tmp_path, TWO_PARTS_APX, name="parts.apx")
        # four components named apart by case, digit, underscore and
        # prefix, with and without unattacked arguments: without them the
        # empty set is complete
        union = ("arg(a).\narg(B).\narg(a_).\narg(a0).\narg(aa).\narg(A1).\n"
                 "arg(_x).\narg(a1).\narg(b0).\narg(b_).\natt(a,B).\n"
                 "att(B,a).\natt(a_,a0).\natt(a0,aa).\natt(aa,a_).\n"
                 "att(A1,_x).\natt(_x,A1).\natt(_x,a1).\natt(b0,b_).\n"
                 "att(b_,b0).\n")
        unions = [af_file(tmp_path, union, name="union.apx"),
                  af_file(tmp_path, union + "arg(b).\narg(Z).\narg(B_).\n"
                          "att(Z,B_).\n", name="unattacked.apx")]
        runs = [["classify"], ["classify", "--no-witnesses"]]
        for semantics in ("preferred", "complete"):
            runs += [["enumerate", path, "--semantics", semantics]
                     for path in unions]
            runs += [
                ["enumerate", mutual, "--semantics", semantics, "--timing",
                 "--query-credulous", "a", "--query-skeptical", "a"],
                ["enumerate", parts, "--semantics", semantics,
                 "--query-credulous", "c", "--query-credulous", "d",
                 "--query-skeptical", "c"],
                ["enumerate", parts, "--semantics", semantics, "--stats-only"],
                ["enumerate", hard, "--semantics", semantics,
                 "--conflict-budget", "1", "--query-credulous", "x4",
                 "--query-credulous", "x2", "--query-skeptical", "x3"]]
        for path, name in ((mutual, "a"), (hard, "x4"), (parts, "c")):
            runs += [["parse", path],
                     ["query", path, "--mode", "credulous", "--argument", name]]
        answers = set()
        printed = []
        for argv in runs:
            _, out, _ = run_cli(capsys, argv)
            payload = json.loads(out)
            assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
            extensions = payload.get("extensions", [])
            # names sorted in each, lists by size descending, then names
            assert all(names == sorted(names) for names in extensions)
            assert extensions == sorted(extensions,
                                        key=lambda names: (-len(names), names))
            printed += extensions
            for group in payload.get("queries", {}).values():
                answers.update(group.values())
            if argv == ["classify"]:  # its witness strings hold line breaks
                assert "\\n" in out
        assert answers == {True, False, None}
        assert [] in printed and ["A1", "B", "a1", "b0"] in printed


def test_interrupt_exits_130_without_traceback(capsys, tmp_path, monkeypatch):
    import afsat.cli

    # a closed output pipe (afsat ... | head) is a normal end, exit 0
    for exc, want in ((KeyboardInterrupt, (130, "", "afsat: interrupted\n")),
                      (BrokenPipeError, (0, "", ""))):
        def interrupted(path):
            raise exc

        monkeypatch.setattr(afsat.cli, "_read_text", interrupted)
        code, out, err = run_cli(capsys,
                                 ["parse", af_file(tmp_path, MUTUAL_APX)])
        assert (code, out, err) == want


class TestGenerate:
    def test_single_instance_deterministic(self, capsys):
        argv = ["generate", "--k", "5", "--method", "probability",
                "--p-att", "0.5", "--seed", "9"]
        code, first, _ = run_cli(capsys, argv)
        assert code == 0
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        assert first == serialize_apx(generate(METHOD_PROBABILITY, 5, 0.5, 9))
        assert first.startswith("arg(a1).")

    def test_single_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "g.apx"
        code, out, _ = run_cli(capsys, [
            "generate", "--k", "4", "--method", "count", "--n-att", "3",
            "--out", str(out_path)])
        assert code == 0 and out == ""
        assert out_path.read_text().count("att(") == 3

    @pytest.mark.parametrize("argv", [
        ["--k", "3", "--method", "empty"],
        ["--k", "4", "--method", "count", "--n-att", "3", "--seed", "2"],
    ], ids=["empty", "count"])
    def test_single_out_dash_is_stdout(self, capsys, tmp_path, monkeypatch,
                                       argv):
        monkeypatch.chdir(tmp_path)
        _, stdout_text, _ = run_cli(capsys, ["generate"] + argv)
        code, out, _ = run_cli(capsys, ["generate"] + argv + ["--out", "-"])
        assert code == 0 and out == stdout_text
        assert stdout_text.startswith("arg(a1).")
        assert not os.path.exists("-")

    def test_suite_out_dash_is_input_error(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["generate", "--scale", "0.001", "--no-count-classes",
                "--no-extremes"]
        without = run_cli(capsys, argv)
        assert run_cli(capsys, argv + ["--out", "-"]) == without
        code, out, err = without
        assert code == 2 and out == ""
        assert "suite mode needs --out DIRECTORY" in err
        assert not os.path.exists("-")

    def test_full_method(self, capsys):
        code, out, _ = run_cli(
            capsys, ["generate", "--k", "3", "--method", "full"])
        assert code == 0
        assert out.count("att(") == 9

    def test_probability_requires_p(self, capsys):
        code, _, err = run_cli(capsys, ["generate", "--k", "3"])
        assert code == 2
        assert "--p-att" in err

    def test_suite_requires_out(self, capsys):
        code, _, err = run_cli(capsys, ["generate", "--scale", "0.02"])
        assert code == 2
        assert "--out" in err

    def test_suite_build(self, capsys, tmp_path):
        out_dir = tmp_path / "suite"
        code, out, _ = run_cli(capsys, [
            "generate", "--out", str(out_dir), "--scale", "0.02",
            "--no-count-classes", "--no-extremes"])
        assert code == 0
        assert out == f"wrote 24 instances to {out_dir}\n"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["instances"]) == 24
        first = manifest["instances"][0]
        assert (out_dir / first["path"]).exists()

    @pytest.mark.parametrize("argv, message", [
        (["--k", "3", "--method", "count", "--p-att", "0.5"],
         "--p-att does not apply to --method count"),
        (["--k", "3", "--method", "empty", "--p-att", "0.5"],
         "--p-att does not apply to --method empty"),
        (["--k", "3", "--method", "full", "--p-att", "0.5"],
         "--p-att does not apply to --method full"),
        (["--k", "3", "--p-att", "0.5", "--n-att", "2"],
         "--n-att does not apply to --method probability"),
        (["--k", "3", "--method", "empty", "--n-att", "2"],
         "--n-att does not apply to --method empty"),
        (["--k", "3", "--method", "full", "--n-att", "2"],
         "--n-att does not apply to --method full"),
        (["--out", "SUITE", "--p-att", "0.5"],
         "--p-att does not apply to suite mode"),
        (["--out", "SUITE", "--n-att", "2"],
         "--n-att does not apply to suite mode"),
        *[(["--out", "SUITE", "--scale", scale],
           "scale must be positive and finite")
          for scale in ("0", "-1", "nan", "inf")],
        (["--k", "3", "--p-att", "0.5", "--seed", "-1"],
         "seed must be a non-negative integer"),
        (["--out", "SUITE", "--scale", "0.01", "--seed", "-1"],
         "seed must be a non-negative integer"),
        # the suite-only flags in single mode, and --method in suite mode,
        # even at their help's default values
        (["--k", "2", "--p-att", "0.5", "--scale", "-1", "--no-extremes"],
         "--scale does not apply to single mode (--k)"),
        (["--k", "2", "--p-att", "0.5", "--scale", "1.0"],
         "--scale does not apply to single mode (--k)"),
        (["--k", "2", "--p-att", "0.5", "--no-count-classes"],
         "--no-count-classes does not apply to single mode (--k)"),
        (["--k", "2", "--method", "full", "--no-extremes"],
         "--no-extremes does not apply to single mode (--k)"),
        (["--out", "SUITE", "--method", "count"],
         "--method does not apply to suite mode (no --k)"),
        (["--out", "SUITE", "--method", "probability"],
         "--method does not apply to suite mode (no --k)"),
        # the empty and full methods draw nothing, so take no seed
        *[(["--k", "2", "--method", method, "--seed", seed],
           f"--seed does not apply to --method {method}")
          for method in ("empty", "full") for seed in ("-1", "5", "0")],
    ])
    def test_input_errors(self, capsys, tmp_path, argv, message):
        code, out, err = run_cli(capsys, ["generate"] + [
            str(tmp_path / "suite") if a == "SUITE" else a for a in argv])
        assert code == 2
        assert out == ""
        assert message in err
        # rejected before the suite directory is made
        assert not (tmp_path / "suite").exists()


class TestClassify:
    def test_json_counts(self, capsys):
        code, out, _ = run_cli(capsys, ["classify", "--no-witnesses"])
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == {"weak": 46, "correct_non_redundant": 5,
                                     "redundant": 13}
        assert len(payload["rows"]) == 64
        assert all(row["witness"] is None for row in payload["rows"])
        assert payload["rows"][0] == {"terms": [], "cardinality": 0,
                                      "verdict": "weak", "witness": None}

    def test_witnesses_on_weak_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["classify"])
        assert code == 0
        rows = json.loads(out)["rows"]
        for row in rows:
            if row["verdict"] == "weak" and row["cardinality"] > 0:
                assert row["witness"] is not None
                assert "arg(" in row["witness"]["framework_apx"]
            if row["verdict"] != "weak":
                assert row["witness"] is None

    def test_text_rendering(self, capsys):
        for flags, witnessed in ((["--no-witnesses"], 0), ([], 46)):
            code, out, _ = run_cli(capsys, ["classify", "--text"] + flags)
            assert code == 0
            lines = out.splitlines()
            assert len(lines) == 65
            assert lines[-1] == ("counts: 46 weak, 5 correct_non_redundant, "
                                 "13 redundant")
            # a weak row ends in its witness: [framework | labelling]
            assert sum(line.endswith("]") for line in lines) == witnessed
        assert lines[2].endswith(" weak  [arg(a). att(a,a). | a:in]")


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clisuite")
    classes = [("probT", METHOD_PROBABILITY, 6, 0.5, 2)]
    build_suite(str(out), base_seed=3, classes=classes)
    return str(out)


class TestBenchCommand:
    def test_end_to_end(self, capsys, suite_dir):
        out_csv = os.path.join(suite_dir, "results.csv")
        code, out, _ = run_cli(capsys, [
            "bench", "--manifest", suite_dir,
            "--systems", "C2:builtin,C3:builtin",
            "--budget", "60", "--out", out_csv])
        assert code == 0
        assert "k=006" in out
        assert "C2:builtin" in out and "C3:builtin" in out
        with open(out_csv) as fh:
            lines = fh.readlines()
        assert len(lines) == 6  # comment, header, 2 instances x 2 systems
        with open(os.path.join(suite_dir, "results.ipc.csv")) as fh:
            assert fh.readline() == "group,C2:builtin,C3:builtin,cases\n"
        with open(os.path.join(suite_dir, "results.ipc.dat")) as fh:
            assert fh.readline().startswith("# group")
        assert os.path.exists(os.path.join(suite_dir, "results.success.csv"))

    def test_rerun_resumes(self, capsys, suite_dir):
        out_csv = os.path.join(suite_dir, "results.csv")
        code, _, _ = run_cli(capsys, [
            "bench", "--manifest", suite_dir,
            "--systems", "C2:builtin,C3:builtin",
            "--budget", "60", "--out", out_csv])
        assert code == 0
        with open(out_csv) as fh:
            assert len(fh.readlines()) == 6  # nothing re-run, nothing appended

    def test_verbose_prints_error_detail(self, capsys, suite_dir, tmp_path):
        code, _, err = run_cli(capsys, [
            "bench", "--manifest", suite_dir, "--systems",
            "C2:ext:/nonexistent", "--budget", "60", "--verbose",
            "--out", str(tmp_path / "r.csv")])
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert re.fullmatch(r"  probT-00[01] C2:ext:/nonexistent error "
                                r"\d+\.\d\ds: afsat: error: .*/nonexistent.*",
                                line), line

    def test_malformed_results_row_is_input_error(self, capsys, suite_dir,
                                                  tmp_path):
        out_csv = tmp_path / "r.csv"
        out_csv.write_text("# afsat bench\ninstance_id,system_id,outcome,"
                           "seconds\nprobT-000,C2:bui\n")
        code, out, err = run_cli(capsys, [
            "bench", "--manifest", suite_dir, "--systems", "C2:builtin",
            "--out", str(out_csv)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"afsat: error: bad row in {out_csv}, line 3: ")

    def test_non_finite_run_time_is_input_error(self, capsys, suite_dir,
                                                tmp_path):
        out_csv = tmp_path / "r.csv"
        out_csv.write_text("# afsat bench\ninstance_id,system_id,outcome,"
                           "seconds\nprobT-000,C2:builtin,solved,nan\n")
        code, out, err = run_cli(capsys, [
            "bench", "--manifest", suite_dir, "--systems", "C2:builtin",
            "--out", str(out_csv)])
        assert code == 2
        assert out == ""
        assert err == (f"afsat: error: bad row in {out_csv}, line 3: "
                       "bad run time: 'nan'\n")

    @pytest.mark.parametrize("budget_line, row, message", [
        ("budget_s=1.2", "probT-000,C2:builtin,solved,1.300000",
         "bad row in {csv}, line 3: solved in 1.300000 s, past budget_s=1.2"),
        ("budget_s=abc", "probT-000,C2:builtin,solved,0.500000",
         "bad budget in {csv}, line 1: 'abc'"),
    ], ids=["solved-past-budget", "bad-budget-line"])
    def test_results_past_their_budget_are_input_error(
            self, capsys, suite_dir, tmp_path, budget_line, row, message):
        """A resumed CSV is checked against the budget its first line
        names, so both tables score the same runs."""
        out_csv = tmp_path / "r.csv"
        out_csv.write_text(f"# afsat 0.1.0 bench; {budget_line}\n"
                           "instance_id,system_id,outcome,seconds\n"
                           f"{row}\n")
        before = out_csv.read_text()
        code, out, err = run_cli(capsys, [
            "bench", "--manifest", suite_dir, "--systems", "C2:builtin",
            "--budget", "1.2", "--out", str(out_csv)])
        assert (code, out) == (2, "")
        assert err == f"afsat: error: {message.format(csv=out_csv)}\n"
        assert out_csv.read_text() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv"]

    def test_bad_system_spec_is_input_error(self, capsys, suite_dir, tmp_path):
        code, _, err = run_cli(capsys, [
            "bench", "--manifest", suite_dir, "--systems", "C2:magic",
            "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "system spec" in err

    @pytest.mark.parametrize("systems, budget, message", [
        ("C2:builtin", "-5", "budget must be positive and finite: -5.0"),
        ("C2:builtin", "0", "budget must be positive and finite: 0.0"),
        ("C2:builtin", "nan", "budget must be positive and finite: nan"),
        ("C2:builtin", "inf", "budget must be positive and finite: inf"),
        ("C2:builtin", "1e300", "budget must be at most 2147483 s: 1e+300"),
        ("C2:builtin,C2:builtin", "60", "system listed twice: C2:builtin"),
    ], ids=["negative-budget", "zero-budget", "nan-budget", "inf-budget",
            "too-long-budget", "repeated-system"])
    def test_bad_budget_or_repeated_system_is_input_error(
            self, capsys, suite_dir, tmp_path, systems, budget, message):
        out_csv = tmp_path / "r.csv"
        code, out, err = run_cli(capsys, [
            "bench", "--manifest", suite_dir, "--systems", systems,
            "--budget", budget, "--out", str(out_csv)])
        assert (code, out) == (2, "")
        assert err == f"afsat: error: {message}\n"
        assert not out_csv.exists()

    def test_resume_under_other_budget_is_input_error(self, capsys, suite_dir,
                                                      tmp_path):
        out_csv = tmp_path / "r.csv"
        out_csv.write_text("# afsat 0.1.0 bench; budget_s=0.001\n"
                           "instance_id,system_id,outcome,seconds\n"
                           "probT-000,C2:builtin,timeout,0.001000\n"
                           "probT-001,C2:builtin,timeout,0.001000\n")
        before = out_csv.read_text()
        code, out, err = run_cli(capsys, [
            "bench", "--manifest", suite_dir, "--systems", "C2:builtin",
            "--budget", "900", "--out", str(out_csv)])
        assert (code, out) == (2, "")
        assert err == (f"afsat: error: {out_csv} holds runs under "
                       "budget_s=0.001; it cannot resume under "
                       "budget_s=900.0\n")
        assert out_csv.read_text() == before

    def test_empty_systems_is_input_error(self, capsys, suite_dir, tmp_path):
        code, _, err = run_cli(capsys, [
            "bench", "--manifest", suite_dir, "--systems", ",",
            "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "no systems" in err

    def test_missing_manifest_is_input_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, [
            "bench", "--manifest", str(tmp_path / "nope"),
            "--systems", "C2:builtin", "--out", str(tmp_path / "r.csv")])
        assert code == 2

    def test_non_manifest_json_is_input_error(self, capsys, tmp_path):
        bogus = tmp_path / "manifest.json"
        bogus.write_text('{"format": "something-else"}\n')
        code, _, err = run_cli(capsys, [
            "bench", "--manifest", str(bogus), "--systems", "C2:builtin",
            "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "manifest" in err

    def test_non_object_manifest_is_input_error(self, tmp_path):
        bogus = tmp_path / "manifest.json"
        bogus.write_text("[]\n")
        proc = subprocess.run(
            [sys.executable, "-m", "afsat", "bench", "--manifest", str(bogus),
             "--systems", "C2:builtin", "--out", str(tmp_path / "r.csv")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT))
        assert proc.returncode == 2
        assert "not a suite manifest" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("manifest, message", [
        ({"format": "afsat-suite-1", "instances": [{"id": "x"}]},
         "instances[0] has no 'path' of type str"),
        ({"format": "afsat-suite-1"}, "'instances' must be a list"),
        # a@r2 would be the id of a's second repetition
        ({"format": "afsat-suite-1", "instances": [
            {"id": i, "path": f"{i}.apx", "class_id": "c", "method": "full",
             "k": 2} for i in ("a", "a@r2")]},
         "instances[1] has '@' in id 'a@r2'"),
        ({"format": "afsat-suite-1", "instances": []}, "'instances' is empty"),
    ], ids=["row", "no-instances", "repetition-id", "empty-instances"])
    def test_unusable_instance_rows_are_input_error(self, tmp_path, manifest,
                                                    message):
        bogus = tmp_path / "manifest.json"
        bogus.write_text(json.dumps(manifest))
        proc = subprocess.run(
            [sys.executable, "-m", "afsat", "bench", "--manifest", str(bogus),
             "--systems", "C2:builtin", "--out", str(tmp_path / "r.csv")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT))
        assert proc.returncode == 2
        assert proc.stderr == (f"afsat: error: not a suite manifest: {bogus}: "
                               f"{message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


class TestSat:
    def test_satisfiable_with_model(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
        code, out, _ = run_cli(capsys, ["sat", str(path)])
        assert code == 0
        assert out.splitlines()[0] == "s SATISFIABLE"
        assert model_lits(out) == [1, 2]

    def test_unsatisfiable(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, out, _ = run_cli(capsys, ["sat", str(path)])
        assert code == 0
        assert out == "s UNSATISFIABLE\n"

    def test_budget_reports_unknown(self, capsys, tmp_path):
        path = tmp_path / "php.cnf"
        path.write_text(pigeonhole_dimacs(3))
        code, out, _ = run_cli(
            capsys, ["sat", str(path), "--conflict-budget", "3"])
        assert code == 3
        assert out == "s UNKNOWN\n"

    def test_model_lines_wrap_at_32(self, capsys, tmp_path):
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 70 1\n70 0\n")
        code, out, _ = run_cli(capsys, ["sat", str(path)])
        assert code == 0
        v_lines = [l for l in out.splitlines() if l.startswith("v")]
        assert len(v_lines) == 3  # 71 tokens at 32 per line
        lits = model_lits(out)
        assert sorted(abs(l) for l in lits) == list(range(1, 71))
        assert 70 in lits

    def test_empty_clause_is_input_error(self, capsys, tmp_path):
        # an empty clause makes the formula unsatisfiable; dropping it
        # would answer SATISFIABLE
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 1\n0\n1 0\n")
        code, out, err = run_cli(capsys, ["sat", str(path)])
        assert code == 2
        assert out == ""
        assert err == "afsat: error: line 2: empty clause\n"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 1 1\n-1 0\n"))
        code, out, _ = run_cli(capsys, ["sat", "-"])
        assert code == 0
        assert model_lits(out) == [-1]


def subparsers(parser):
    """Command name -> subparser, for the commands ``parser`` holds."""
    [action] = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
    return action.choices


USAGE = "usage: afsat [-h] [--version] COMMAND ...\n"
CHOICES = ("(choose from 'parse', 'encode', 'enumerate', 'query', "
           "'generate', 'classify', 'bench', 'sat')")


class TestParserPerCommand:
    """main builds one parser per process, at its first call; it must read
    and report exactly as a freshly built one."""

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for command, (help_text, _, _) in COMMANDS.items():
            assert re.search(rf"^    {command}\s+{re.escape(help_text)}$", out,
                             re.MULTILINE), command

    def test_query_lists_not_shared_between_calls(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        for name in ("a", "b"):
            code, out, _ = run_cli(capsys, ["enumerate", path,
                                            "--query-credulous", name])
            assert code == 0
            assert json.loads(out)["queries"] == {"credulous": {name: True}}

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: COMMAND"),
        (["bogus"], f"argument COMMAND: invalid choice: 'bogus' {CHOICES}"),
        # runs go one at a time; concurrent runs would load each other
        (["bench", "--manifest", "m", "--systems", "C2:builtin",
          "--out", "r.csv", "--jobs", "2"],
         "unrecognized arguments: --jobs 2"),
    ], ids=["none", "unknown", "bench-jobs"])
    def test_missing_or_unknown_command(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert capsys.readouterr().err == USAGE + f"afsat: error: {message}\n"

    def test_second_call_builds_nothing(self, capsys, tmp_path, monkeypatch):
        path = af_file(tmp_path, MUTUAL_APX)
        add_argument = argparse.ArgumentParser.add_argument
        calls = []

        def counting(parser, *args, **kwargs):
            calls.append(args)
            return add_argument(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        cli._parser.cache_clear()
        counts = []
        for _ in range(2):
            calls.clear()
            assert run_cli(capsys, ["enumerate", path])[0] == 0
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[1] == 0

    def test_unknown_commands_do_not_grow_the_cache(self, capsys):
        cli._parser.cache_clear()
        for command in COMMANDS:
            with pytest.raises(SystemExit):
                main([command, "--help"])
        for i in range(50):
            with pytest.raises(SystemExit) as info:
                main([f"bogus{i}"])
            assert info.value.code == 1
            assert capsys.readouterr().err == USAGE + (
                f"afsat: error: argument COMMAND: invalid choice: "
                f"'bogus{i}' {CHOICES}\n")
        assert cli._parser.cache_info().currsize == 1

    def test_cached_help_follows_terminal_width(self, capsys, monkeypatch):
        cli._parser.cache_clear()
        helps = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as info:
                main(["enumerate", "--help"])
            assert info.value.code == 0
            helps.append(capsys.readouterr().out)
            fresh = subparsers(build_parser())["enumerate"]
            assert helps[-1] == fresh.format_help()
        assert helps[0] != helps[1]
        assert cli._parser.cache_info().misses == 1

    @pytest.mark.parametrize("extra", [
        ["--semantics", "grounded"], ["--conflict-budget", "x"], ["--jobs"]],
        ids=["choice", "type", "unrecognized"])
    def test_usage_error_after_success_as_in_fresh_process(
            self, capsys, tmp_path, monkeypatch, extra):
        monkeypatch.setenv("COLUMNS", "80")
        path = af_file(tmp_path, MUTUAL_APX)
        assert run_cli(capsys, ["enumerate", path])[0] == 0
        argv = ["enumerate", path] + extra
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        proc = subprocess.run(
            [sys.executable, "-m", "afsat"] + argv, capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT))
        assert proc.returncode == 1
        assert err == proc.stderr

    def test_import_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting(parser, *args, **kwargs):\n"
                "    built.append(args)\n"
                "    init(parser, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "import afsat.cli\n"
                "assert built == [], built\n"
                "assert afsat.cli._parser.cache_info().currsize == 0\n")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT))
        assert proc.returncode == 0, proc.stderr


class TestUsageAndMeta:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_missing_positional_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["parse"])
        assert info.value.code == 1

    def test_bad_choice_is_usage_error(self, capsys, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        with pytest.raises(SystemExit) as info:
            main(["parse", path, "--to", "xml"])
        assert info.value.code == 1

    @pytest.mark.parametrize("command", [
        ["enumerate"], ["query", "--mode", "credulous", "--argument", "a"],
        ["sat"]], ids=["enumerate", "query", "sat"])
    def test_no_seed_flag(self, capsys, tmp_path, command):
        # the built-in solver's search order is fixed; only generate is seeded
        path = af_file(tmp_path, MUTUAL_APX)
        with pytest.raises(SystemExit) as info:
            main(command + [path, "--seed", "5"])
        assert info.value.code == 1
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out == f"afsat {__version__}\n"

    def test_python_m_entry_point(self, tmp_path):
        path = af_file(tmp_path, MUTUAL_APX)
        proc = subprocess.run(
            [sys.executable, "-m", "afsat", "parse", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["arguments"] == ["a", "b"]

    def test_console_script(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["afsat"]
        module, function = target.split(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "afsat"
        script.write_text(CONSOLE_SCRIPT.format(
            python=sys.executable, module=module, function=function))
        script.chmod(0o755)
        env = dict(os.environ,
                   PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
                   PYTHONPATH=PACKAGE_PARENT)
        proc = subprocess.run(["afsat", "--version"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("afsat ")

    @pytest.mark.skipif(not has_bdist_wheel(),
                        reason="no bdist_wheel command: needs the wheel "
                               "package or setuptools>=70.1")
    def test_installed_console_script(self, tmp_path):
        # build from a copy so that build/ and *.egg-info stay out of the checkout
        source = tmp_path / "source"
        source.mkdir()
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(os.path.join(ROOT, name), source / name)
        shutil.copytree(os.path.join(ROOT, "src"), source / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = tmp_path / "target"
        install = subprocess.run(
            [sys.executable, "-m", "pip", "install", "--no-build-isolation",
             "--no-index", "--no-deps", "--target", str(target), str(source)],
            capture_output=True, text=True)
        assert install.returncode == 0, install.stdout + install.stderr
        proc = subprocess.run([str(target / "bin" / "afsat"), "--version"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(target)))
        assert proc.returncode == 0
        assert proc.stdout.startswith("afsat ")

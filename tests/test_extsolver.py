"""External solver bridge: protocol handling, verification, sessions."""

import math
import random
import sys
import time
from pathlib import Path

import pytest

from afsat import extsolver
from afsat.cnf import CnfFormula, EncodingId, encode, to_dimacs
from afsat.extsolver import (
    ExternalSession,
    SolverProtocolError,
    external_session_factory,
    solve_external,
)
from afsat.solver import Budget, BudgetExhausted, Solver

from conftest import CYCLE3, MUTUAL, random_clauses, tt_models

REFDPLL = str(Path(__file__).parent / "tools" / "refdpll.py")
REF = [sys.executable, REFDPLL]


def fake_solver(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("import sys, time\n" + body)
    return [sys.executable, str(path)]


class TestConfig:
    def test_string_command(self, tmp_path):
        # the space shows that a string is one item, never split
        script = tmp_path / "unsat solver"
        script.write_text(f"#!{sys.executable}\nprint('s UNSATISFIABLE')\n")
        script.chmod(0o755)
        formula = CnfFormula(1, [[1]])
        assert solve_external(str(script), formula) is None
        assert external_session_factory(str(script))(formula).solve() is None

    def test_empty_command(self):
        with pytest.raises(ValueError, match="empty solver command"):
            solve_external([], CnfFormula(1, [[1]]))
        with pytest.raises(ValueError, match="empty solver command"):
            external_session_factory([])

    @pytest.mark.parametrize("budget_s", [0, -1.5, math.inf, math.nan])
    def test_budget_must_be_positive(self, budget_s):
        with pytest.raises(ValueError, match="budget must be positive"):
            external_session_factory(REF, budget_s=budget_s)

    def test_budget_must_fit_a_subprocess_wait(self):
        # subprocess waits through poll(), whose timeout is a C int of ms
        with pytest.raises(ValueError, match=r"^budget must be at most "
                                             r"2147483 s: 2147483\.5$"):
            external_session_factory(REF, budget_s=2_147_483.5)
        session = external_session_factory(REF, budget_s=2_147_483)(
            CnfFormula(1, [[1]]))
        assert session.solve() == [False, True]


class TestReferenceSolverAgreement:
    def test_random_formulas(self):
        rng = random.Random(51)
        for _ in range(25):
            num_vars = rng.randint(1, 8)
            clauses = random_clauses(rng, num_vars)
            formula = CnfFormula(num_vars, clauses)
            expected = tt_models(num_vars, [list(c) for c in formula.clauses])
            model = solve_external(REF, formula)
            builtin = Solver.from_formula(formula).solve()
            assert (model is None) == (builtin is None)
            if model is None:
                assert expected == []
            else:
                assert tuple(model[1:]) in set(expected)

    def test_framework_formulas(self):
        for af, sat in [(MUTUAL, True), (CYCLE3, False)]:
            model = solve_external(REF, encode(af, EncodingId.C2))
            assert (model is not None) == sat


class TestProtocolErrors:
    FORMULA = CnfFormula(2, [[1, 2], [-1, 2]])

    def test_garbage_output(self, tmp_path):
        cmd = fake_solver(tmp_path, "garbage.py", "print('hello world')\n")
        with pytest.raises(SolverProtocolError, match="no status line"):
            solve_external(cmd, self.FORMULA)

    def test_lying_model_rejected(self, tmp_path):
        # claims SAT with an assignment that violates the formula
        cmd = fake_solver(tmp_path, "liar.py",
                          "print('s SATISFIABLE')\nprint('v 1 -2 0')\n")
        with pytest.raises(SolverProtocolError, match="does not satisfy"):
            solve_external(cmd, self.FORMULA)

    def test_unknown_variable_rejected(self, tmp_path):
        cmd = fake_solver(tmp_path, "wide.py",
                          "print('s SATISFIABLE')\nprint('v 1 2 7 0')\n")
        with pytest.raises(SolverProtocolError, match="unknown variable"):
            solve_external(cmd, self.FORMULA)

    def test_bad_value_token(self, tmp_path):
        cmd = fake_solver(tmp_path, "tokens.py",
                          "print('s SATISFIABLE')\nprint('v one 0')\n")
        with pytest.raises(SolverProtocolError, match="bad value token"):
            solve_external(cmd, self.FORMULA)

    def test_unknown_verdict_is_budget(self, tmp_path):
        cmd = fake_solver(tmp_path, "unknown.py", "print('s UNKNOWN')\n")
        with pytest.raises(BudgetExhausted):
            solve_external(cmd, self.FORMULA)

    def test_timeout_is_budget(self, tmp_path):
        cmd = fake_solver(tmp_path, "sleeper.py", "time.sleep(30)\n")
        with pytest.raises(BudgetExhausted, match="exceeded"):
            solve_external(cmd, self.FORMULA, timeout=0.3)

    def test_missing_executable(self):
        with pytest.raises(SolverProtocolError, match="cannot run"):
            solve_external(["/no/such/solver"], self.FORMULA)

    def test_partial_model_defaults_false(self, tmp_path):
        # only mentions variable 2; variable 1 must default to false
        cmd = fake_solver(tmp_path, "partial.py",
                          "print('s SATISFIABLE')\nprint('v 2 0')\n")
        model = solve_external(cmd, self.FORMULA)
        assert model == [False, False, True]


class TestExternalSession:
    def test_enumeration_with_blocking(self):
        formula = CnfFormula(2, [[1, 2]])
        make = external_session_factory(REF)
        session = make(formula)
        seen = set()
        while True:
            model = session.solve()
            if model is None:
                break
            bits = tuple(model[1:])
            assert bits not in seen
            seen.add(bits)
            session.add_clause([-v if model[v] else v for v in (1, 2)])
        assert seen == set(tt_models(2, [[1, 2]]))
        assert session.stats["calls"] == 4

    def test_assumptions_hold_for_one_call(self):
        make = external_session_factory(REF)
        session = make(CnfFormula(2, [[1, 2]]))
        assert session.solve([-1]) == [False, False, True]
        # a kept -1 would make this call unsatisfiable
        assert session.solve([-2]) == [False, True, False]
        assert session.solve([-1, -2]) is None
        assert session.solve() is not None
        assert session.stats["calls"] == 4

    def test_empty_clause_permanent(self):
        make = external_session_factory(REF)
        session = make(CnfFormula(1, [[1]]))
        session.add_clause([])
        assert session.solve() is None
        assert session.solve([1]) is None

    def test_tautology_skipped(self):
        make = external_session_factory(REF)
        session = make(CnfFormula(1, [[1]]))
        session.add_clause([1, -1])
        assert session.solve()[1] is True

    def test_literal_validation(self):
        make = external_session_factory(REF)
        session = make(CnfFormula(1, [[1]]))
        with pytest.raises(ValueError):
            session.add_clause([2])

    def test_each_call_writes_kept_clauses_plus_units(self, monkeypatch):
        # kept + units, re-normalized as one CnfFormula, is the formula the
        # session wrote when it normalized every clause on every call
        given = []
        monkeypatch.setattr(extsolver, "solve_external",
                            lambda command, formula, timeout: given.append(
                                formula))
        rng = random.Random(19)
        n = 6
        kept = random_clauses(rng, n)
        session = ExternalSession("unused", CnfFormula(n, kept))
        for _ in range(40):
            if rng.random() < 0.5:
                lits = [rng.choice((1, -1)) * rng.randint(1, n)
                        for _ in range(rng.randint(1, 4))]
                session.add_clause(lits)
                kept.append(lits)
            else:
                units = [[rng.choice((1, -1)) * rng.randint(1, n)]
                         for _ in range(rng.randint(0, 3))]
                session.solve([lit for (lit,) in units])
                want = CnfFormula(n, kept + units)
                assert given[-1] == want
                assert to_dimacs(given[-1]) == to_dimacs(want)
        assert len(given) == session.stats["calls"] > 10


class TestBudgetPool:
    FORMULA = CnfFormula(1, [[1]])

    def test_pool_spans_calls_and_sessions(self, tmp_path):
        """Each call runs for what is left of the factory's pool and spends
        its wall time; an empty pool starts no process."""
        log = tmp_path / "runs.log"
        cmd = fake_solver(tmp_path, "slow.py",
                          f"open({str(log)!r}, 'a').write('x')\n"
                          "time.sleep(0.2)\nprint('s UNSATISFIABLE')\n")
        make = external_session_factory(cmd, budget_s=1.0)
        first = make(self.FORMULA)
        start = time.monotonic()
        with pytest.raises(BudgetExhausted):
            for _ in range(20):
                assert first.solve() is None
        # a limit per call would have let all 20 calls run, for 4 s or more
        assert time.monotonic() - start < 1.0 + 0.5
        launched = len(log.read_text())
        assert launched <= 5
        assert first.stats["calls"] in (launched, launched + 1)
        second = make(self.FORMULA)
        with pytest.raises(BudgetExhausted, match="exhausted"):
            second.solve()
        assert second.stats["calls"] == 0
        assert len(log.read_text()) == launched

    def test_rejected_call_is_not_counted(self, monkeypatch):
        """A bad assumption raises before the call is counted, no solver
        starts and the pool spends nothing."""
        started = []
        monkeypatch.setattr(extsolver, "solve_external",
                            lambda *args: started.append(args))
        budget = Budget(10.0)
        session = ExternalSession("unused", CnfFormula(3), budget)
        with pytest.raises(ValueError, match="out of range: 4"):
            session.solve([4])
        assert session.stats["calls"] == 0 and budget.used == 0
        assert started == []

    def test_timeout_is_what_is_left(self, tmp_path):
        cmd = fake_solver(tmp_path, "sleeper.py", "time.sleep(30)\n")
        session = external_session_factory(cmd, budget_s=0.3)(self.FORMULA)
        start = time.monotonic()
        with pytest.raises(BudgetExhausted, match="exceeded"):
            session.solve()
        assert time.monotonic() - start < 5
        with pytest.raises(BudgetExhausted, match="exhausted"):
            session.solve()
        assert session.stats["calls"] == 1


class TestOwnCliAsExternalSolver:
    def test_sat_subcommand_speaks_the_protocol(self):
        cmd = [sys.executable, "-m", "afsat", "sat"]
        model = solve_external(cmd, CnfFormula(2, [[1, 2], [-1]]))
        assert model == [False, False, True]
        assert solve_external(cmd, CnfFormula(1, [[1], [-1]])) is None

"""External solver bridge: protocol handling, verification, sessions."""

import random
import sys
from pathlib import Path

import pytest

from afsat.cnf import CnfFormula, EncodingId, encode
from afsat.extsolver import (
    ExternalSolverConfig,
    SolverProtocolError,
    external_session_factory,
    solve_external,
)
from afsat.solver import BudgetExhausted, Solver

from conftest import CYCLE3, MUTUAL, random_clauses, tt_models

REFDPLL = str(Path(__file__).parent / "tools" / "refdpll.py")


def ref_config(**kwargs):
    return ExternalSolverConfig([sys.executable, REFDPLL], **kwargs)


def fake_solver(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("import sys, time\n" + body)
    return ExternalSolverConfig([sys.executable, str(path)])


class TestConfig:
    def test_string_command(self):
        cfg = ExternalSolverConfig("mysolver")
        assert cfg.command == ["mysolver"]

    def test_empty_command(self):
        with pytest.raises(ValueError):
            ExternalSolverConfig([])

    @pytest.mark.parametrize("budget_s", [0, -1.5])
    def test_budget_must_be_positive(self, budget_s):
        with pytest.raises(ValueError, match="budget must be positive"):
            ref_config(budget_s=budget_s)
        with pytest.raises(ValueError, match="budget must be positive"):
            external_session_factory([sys.executable, REFDPLL],
                                     budget_s=budget_s)


class TestReferenceSolverAgreement:
    def test_random_formulas(self):
        rng = random.Random(51)
        cfg = ref_config()
        for _ in range(25):
            num_vars = rng.randint(1, 8)
            clauses = random_clauses(rng, num_vars)
            formula = CnfFormula(num_vars, clauses)
            expected = tt_models(num_vars, [list(c) for c in formula.clauses])
            model = solve_external(cfg, formula)
            builtin = Solver.from_formula(formula).solve()
            assert (model is None) == (builtin is None)
            if model is None:
                assert expected == []
            else:
                assert tuple(model[1:]) in set(expected)

    def test_framework_formulas(self):
        cfg = ref_config()
        for af, sat in [(MUTUAL, True), (CYCLE3, False)]:
            model = solve_external(cfg, encode(af, EncodingId.C2))
            assert (model is not None) == sat


class TestProtocolErrors:
    FORMULA = CnfFormula(2, [[1, 2], [-1, 2]])

    def test_garbage_output(self, tmp_path):
        cfg = fake_solver(tmp_path, "garbage.py", "print('hello world')\n")
        with pytest.raises(SolverProtocolError, match="no status line"):
            solve_external(cfg, self.FORMULA)

    def test_lying_model_rejected(self, tmp_path):
        # claims SAT with an assignment that violates the formula
        cfg = fake_solver(tmp_path, "liar.py",
                          "print('s SATISFIABLE')\nprint('v 1 -2 0')\n")
        with pytest.raises(SolverProtocolError, match="does not satisfy"):
            solve_external(cfg, self.FORMULA)

    def test_unknown_variable_rejected(self, tmp_path):
        cfg = fake_solver(tmp_path, "wide.py",
                          "print('s SATISFIABLE')\nprint('v 1 2 7 0')\n")
        with pytest.raises(SolverProtocolError, match="unknown variable"):
            solve_external(cfg, self.FORMULA)

    def test_bad_value_token(self, tmp_path):
        cfg = fake_solver(tmp_path, "tokens.py",
                          "print('s SATISFIABLE')\nprint('v one 0')\n")
        with pytest.raises(SolverProtocolError, match="bad value token"):
            solve_external(cfg, self.FORMULA)

    def test_unknown_verdict_is_budget(self, tmp_path):
        cfg = fake_solver(tmp_path, "unknown.py", "print('s UNKNOWN')\n")
        with pytest.raises(BudgetExhausted):
            solve_external(cfg, self.FORMULA)

    def test_timeout_is_budget(self, tmp_path):
        cfg = fake_solver(tmp_path, "sleeper.py", "time.sleep(30)\n")
        cfg.budget_s = 0.3
        with pytest.raises(BudgetExhausted, match="exceeded"):
            solve_external(cfg, self.FORMULA)

    def test_missing_executable(self):
        cfg = ExternalSolverConfig(["/no/such/solver"])
        with pytest.raises(SolverProtocolError, match="cannot run"):
            solve_external(cfg, self.FORMULA)

    def test_partial_model_defaults_false(self, tmp_path):
        # only mentions variable 2; variable 1 must default to false
        cfg = fake_solver(tmp_path, "partial.py",
                          "print('s SATISFIABLE')\nprint('v 2 0')\n")
        model = solve_external(cfg, self.FORMULA)
        assert model == [False, False, True]


class TestExternalSession:
    def test_enumeration_with_blocking(self):
        formula = CnfFormula(2, [[1, 2]])
        make = external_session_factory([sys.executable, REFDPLL])
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
        make = external_session_factory([sys.executable, REFDPLL])
        session = make(CnfFormula(2, [[1, 2]]))
        assert session.solve([-1]) == [False, False, True]
        # a kept -1 would make this call unsatisfiable
        assert session.solve([-2]) == [False, True, False]
        assert session.solve([-1, -2]) is None
        assert session.solve() is not None
        assert session.stats["calls"] == 4

    def test_empty_clause_permanent(self):
        make = external_session_factory([sys.executable, REFDPLL])
        session = make(CnfFormula(1, [[1]]))
        session.add_clause([])
        assert session.solve() is None
        assert session.solve([1]) is None

    def test_tautology_skipped(self):
        make = external_session_factory([sys.executable, REFDPLL])
        session = make(CnfFormula(1, [[1]]))
        session.add_clause([1, -1])
        assert session.solve()[1] is True

    def test_literal_validation(self):
        make = external_session_factory([sys.executable, REFDPLL])
        session = make(CnfFormula(1, [[1]]))
        with pytest.raises(ValueError):
            session.add_clause([2])


class TestOwnCliAsExternalSolver:
    def test_sat_subcommand_speaks_the_protocol(self):
        cfg = ExternalSolverConfig([sys.executable, "-m", "afsat", "sat"])
        model = solve_external(cfg, CnfFormula(2, [[1, 2], [-1]]))
        assert model == [False, False, True]
        assert solve_external(cfg, CnfFormula(1, [[1], [-1]])) is None

"""Built-in CDCL solver against truth-table ground truth."""

import math
import random
import tracemalloc
from itertools import combinations

import pytest

from afsat.cnf import CnfFormula, EncodingId, encode
from afsat.generators import gen_probability
from afsat.solver import Budget, BudgetExhausted, Solver, builtin_session_factory

from conftest import random_clauses, tt_models


def pigeonhole(holes):
    """Pigeonhole formula with holes+1 pigeons; unsatisfiable."""
    pigeons = holes + 1
    var = lambda i, j: (i - 1) * holes + j
    clauses = [[var(i, j) for j in range(1, holes + 1)]
               for i in range(1, pigeons + 1)]
    for j in range(1, holes + 1):
        for i1, i2 in combinations(range(1, pigeons + 1), 2):
            clauses.append([-var(i1, j), -var(i2, j)])
    return pigeons * holes, clauses


def gated_pigeonhole(holes, blocks):
    """One pigeonhole block per gate variable: gate i (variable i) switches
    block i on, so solve([i]) is unsatisfiable and needs conflicts, while the
    formula without assumptions is satisfiable."""
    n, clauses = pigeonhole(holes)
    out = []
    for b in range(blocks):
        shift = blocks + b * n
        for c in clauses:
            out.append([-(b + 1)] + [l + shift if l > 0 else l - shift
                                     for l in c])
    return blocks + blocks * n, out


def check(solver, num_vars, clauses):
    model = solver.solve()
    expected = tt_models(num_vars, clauses)
    if model is None:
        assert expected == [], "solver says unsat but models exist"
    else:
        assert len(model) == num_vars + 1
        assert tuple(model[1:]) in set(expected)
    return model


class TestBasics:
    def test_empty_formula(self):
        s = Solver(3)
        model = s.solve()
        assert model == [False, False, False, False]

    def test_zero_vars(self):
        assert Solver(0).solve() == [False]

    def test_unit(self):
        s = Solver(2)
        s.add_clause([2])
        model = s.solve()
        assert model[2] is True

    def test_unit_chain(self):
        s = Solver(4)
        s.add_clause([1])
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        s.add_clause([-3, 4])
        model = s.solve()
        assert model[1:] == [True] * 4
        # the model belongs to the caller: overwriting it changes no answer
        model[:] = [not b for b in model]
        assert s.solve() == s.solve([2, 3]) == [False] + [True] * 4
        assert s.solve([-4]) is None

    def test_contradiction(self):
        s = Solver(1)
        s.add_clause([1])
        s.add_clause([-1])
        assert s.solve() is None
        # permanently unsat, later adds change nothing
        s.add_clause([1])
        assert s.solve() is None

    def test_tautology_ignored(self):
        s = Solver(1)
        s.add_clause([1, -1])
        s.add_clause([-1])
        model = s.solve()
        assert model[1] is False

    def test_duplicate_literals(self):
        s = Solver(1)
        s.add_clause([1, 1])
        assert s.solve()[1] is True

    def test_literal_validation(self):
        s = Solver(2)
        with pytest.raises(ValueError):
            s.add_clause([0])
        with pytest.raises(ValueError):
            s.add_clause([3])
        with pytest.raises(ValueError):
            Solver(-1)

    def test_from_formula(self):
        f = CnfFormula(2, [[1, 2], [-1]])
        model = Solver.from_formula(f).solve()
        assert model[1] is False and model[2] is True

    def test_pigeonhole_unsat(self):
        for holes in (2, 3, 4, 5):
            n, clauses = pigeonhole(holes)
            s = Solver(n)
            for c in clauses:
                s.add_clause(c)
            assert s.solve() is None
            assert s.stats["conflicts"] > 0
        # the holes=5 instance is big enough to exercise restarts
        assert s.stats["restarts"] >= 1


class TestAgainstTruthTable:
    def test_random_formulas(self):
        rng = random.Random(816)
        for _ in range(300):
            num_vars = rng.randint(1, 8)
            clauses = random_clauses(rng, num_vars)
            s = Solver(num_vars)
            for c in clauses:
                s.add_clause(c)
            check(s, num_vars, clauses)

    def test_model_enumeration_counts(self):
        """Blocking-clause enumeration finds every model exactly once."""
        rng = random.Random(429)
        for _ in range(100):
            num_vars = rng.randint(1, 6)
            clauses = random_clauses(rng, num_vars)
            s = Solver(num_vars)
            for c in clauses:
                s.add_clause(c)
            seen = set()
            while True:
                model = s.solve()
                if model is None:
                    break
                bits = tuple(model[1:])
                assert bits not in seen, "model repeated"
                seen.add(bits)
                s.add_clause([-v if model[v] else v
                              for v in range(1, num_vars + 1)])
            assert seen == set(tt_models(num_vars, clauses))

    def test_activity_rescale(self):
        """With the activity increment near its 1e100 limit, conflicts
        rescale every activity mid-search. Verdicts and models stay
        right."""
        rng = random.Random(1100)
        rescaled = 0
        for _ in range(100):
            # random 3-CNF near the satisfiability threshold, so that most
            # calls meet conflicts and about one in five is unsatisfiable
            num_vars = rng.randint(6, 10)
            clauses = [[v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, num_vars + 1), 3)]
                       for _ in range(round(4.3 * num_vars))]
            s = Solver(num_vars)
            for c in clauses:
                s.add_clause(c)
            s._var_inc = 1e100
            check(s, num_vars, clauses)
            rescaled += s._var_inc < 1e100
        assert rescaled >= 50

    def test_decision_takes_the_most_active_unassigned_variable(self):
        """After every solve call, the next decision assigns the unassigned
        variable with the highest activity, the lowest index on ties, in
        its saved phase. Every other session starts at the rescale limit,
        so conflicts rescale activities mid-search; calls under
        assumptions and blocking clauses vary which variables each call
        assigns."""
        rng = random.Random(2300)
        checked = rescaled = 0
        for i in range(120):
            num_vars = rng.randint(6, 12)
            s = Solver(num_vars)
            for _ in range(round(4.3 * num_vars)):
                s.add_clause([v if rng.random() < 0.5 else -v
                              for v in rng.sample(range(1, num_vars + 1), 3)])
            if i % 2:
                s._var_inc = 1e100
            for _ in range(4):
                model = s.solve([v if rng.random() < 0.5 else -v for v in
                                 rng.sample(range(1, num_vars + 1),
                                            rng.randint(0, 3))])
                assigned = set(map(abs, s._trail))
                unassigned = [v for v in range(1, num_vars + 1)
                              if v not in assigned]
                if unassigned:
                    want = min(unassigned,
                               key=lambda v: (-s._activity[v], v))
                    s._decide()
                    assert s._trail[-1] == (want if s._phase[want]
                                            else -want)
                    s._backtrack(0)
                    checked += 1
                if model is not None:
                    s.add_clause([-v if model[v] else v
                                  for v in range(1, num_vars + 1)])
            rescaled += i % 2 and s._var_inc < 1e100
        assert rescaled >= 50
        assert checked >= 400


class TestDeterminism:
    def test_same_run_twice(self):
        rng = random.Random(7)
        for _ in range(20):
            num_vars = rng.randint(1, 8)
            clauses = random_clauses(rng, num_vars)
            runs = []
            for _ in range(2):
                s = Solver(num_vars)
                for c in clauses:
                    s.add_clause(c)
                runs.append((s.solve(), dict(s.stats)))
            assert runs[0] == runs[1]

    def test_resolve_is_stable(self):
        s = Solver(3)
        s.add_clause([1, 2, 3])
        first = s.solve()
        second = s.solve()
        assert first == second


def test_search_memory_stays_with_the_learned_clauses():
    """One refutation of a k=80 framework (152 conflicts, 683 decisions)
    allocates about 60 KB at its peak, mostly learned clauses. Branching
    must keep no state that grows with every backtrack: entries queued
    per unassigned variable would take this call past 1 MB."""
    s = Solver.from_formula(encode(gen_probability(80, 0.25, 0),
                                   EncodingId.C2))
    tracemalloc.start()
    try:
        assert s.solve() is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (s.stats["conflicts"], s.stats["decisions"]) == (152, 683)
    assert peak < 256 * 1024, peak


class TestAssumptions:
    def test_random_assumption_sets(self):
        """Successive calls on one session, with blocking clauses added in
        between, each return a model of the clauses that satisfies that
        call's assumptions, or None exactly when no such model exists."""
        rng = random.Random(3117)
        for _ in range(150):
            num_vars = rng.randint(1, 8)
            clauses = random_clauses(rng, num_vars)
            s = Solver(num_vars)
            for c in clauses:
                s.add_clause(c)
            for _ in range(6):
                width = rng.randint(0, num_vars)
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, num_vars + 1),
                                                   width)]
                model = s.solve(assumptions)
                expected = set(tt_models(num_vars, clauses
                                         + [[l] for l in assumptions]))
                if model is None:
                    assert expected == set(), (clauses, assumptions)
                    continue
                assert tuple(model[1:]) in expected
                assert all(model[l] if l > 0 else not model[-l]
                           for l in assumptions)
                if rng.random() < 0.5:
                    block = [-v if model[v] else v
                             for v in range(1, num_vars + 1)]
                    s.add_clause(block)
                    clauses.append(block)
            check(s, num_vars, clauses)

    def test_unsat_under_assumptions_is_not_permanent(self):
        s = Solver(3)
        s.add_clause([1, 2])
        s.add_clause([-1, 3])
        s.add_clause([-2, 3])
        assert s.solve([-3]) is None
        model = s.solve()
        assert model is not None and model[3] is True
        assert s.solve([1, 2])[1:] == [True, True, True]

    def test_unsat_needing_search(self):
        n, clauses = gated_pigeonhole(4, 1)
        s = Solver(n)
        for c in clauses:
            s.add_clause(c)
        assert s.solve([1]) is None
        assert s.stats["conflicts"] > 0
        model = s.solve()
        assert model is not None
        # the clauses learned under the assumption stay and still hold
        assert model[1] is False
        assert s.solve([1]) is None

    def test_assumption_against_level0_unit(self):
        s = Solver(2)
        s.add_clause([1])
        s.add_clause([-1, 2])
        assert s.solve([-2]) is None
        assert s.solve([-1]) is None
        assert s.solve() == [False, True, True]
        assert s.solve([2, 1]) == [False, True, True]

    def test_assumption_already_true_and_repeated(self):
        s = Solver(3)
        s.add_clause([1])
        s.add_clause([-2, 3])
        model = s.solve([1, 2, 2, 1])
        assert model == [False, True, True, True]
        assert s.solve([2, -2]) is None
        assert s.solve([3]) is not None

    def test_assumption_validation(self):
        s = Solver(2)
        with pytest.raises(ValueError):
            s.solve([3])
        with pytest.raises(ValueError):
            s.solve([0])
        assert s.solve() is not None


class TestFromFormula:
    def test_units_falsify_attached_clauses(self):
        # units before and after the longer clauses whose literals they
        # falsify, including both watched literals of a clause
        cases = [
            (3, [[1, 2], [-1], [-2]]),
            (3, [[-1], [-2], [1, 2]]),
            (3, [[-1], [1, 2, 3], [-3], [-2, 3]]),
            (4, [[1, 2, 3, 4], [-1], [-2], [-4], [-3, 1]]),
            (1, [[1], [-1]]),
            (3, [[1, 2, 3], [-1], [-2]]),
            (4, [[-1], [1, 2, 4], [-2], [1, 3, -4], [2, 3, 4]]),
            (4, [[1, 2, 3, 4], [-4], [-3, -1], [-1, 2], [-2]]),
        ]
        verdicts = set()
        for num_vars, clauses in cases:
            s = Solver.from_formula(CnfFormula(num_vars, clauses))
            verdicts.add(check(s, num_vars, clauses) is None)
        assert verdicts == {True, False}

    def test_random_formulas(self):
        rng = random.Random(612)
        for _ in range(300):
            num_vars = rng.randint(1, 8)
            clauses = random_clauses(rng, num_vars)
            formula = CnfFormula(num_vars, clauses)
            s = Solver.from_formula(formula)
            check(s, num_vars, clauses)
            # clauses added later see the same fixed assignments
            extra = random_clauses(rng, num_vars)[:3]
            for c in extra:
                s.add_clause(c)
            check(s, num_vars, clauses + extra)


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(0)

    def test_exhaustion(self):
        n, clauses = pigeonhole(5)
        s = Solver(n, budget=Budget(5))
        for c in clauses:
            s.add_clause(c)
        with pytest.raises(BudgetExhausted):
            s.solve()

    def test_shared_across_solve_calls(self):
        n, clauses = gated_pigeonhole(4, 2)
        probe = Solver(n)
        for c in clauses:
            probe.add_clause(c)
        assert probe.solve([1]) is None
        first = probe.stats["conflicts"]
        budget = Budget(first + 1)
        s = Solver(n, budget=budget)
        for c in clauses:
            s.add_clause(c)
        assert s.solve([1]) is None
        assert budget.used == first
        assert budget.remaining == 1
        # the second block needs more than the one conflict left
        with pytest.raises(BudgetExhausted):
            s.solve([2])
        assert budget.used == budget.limit + 1
        assert budget.remaining == -1

    def test_large_budget_is_no_limit(self):
        n, clauses = pigeonhole(3)
        s = Solver(n, budget=Budget(10 ** 9))
        for c in clauses:
            s.add_clause(c)
        assert s.solve() is None


class TestFactory:
    def test_builds_working_sessions(self):
        f = CnfFormula(2, [[1], [1, -2]])
        make = builtin_session_factory()
        s = make(f)
        assert s.solve()[1] is True

    @pytest.mark.parametrize("limit", [0, -3, math.inf, math.nan])
    def test_budget_must_be_positive(self, limit):
        # 0 is not "unlimited": None is
        with pytest.raises(ValueError, match="budget must be positive"):
            builtin_session_factory(conflict_budget=limit)

    def test_budget_pool_spans_sessions(self):
        n, clauses = pigeonhole(5)
        f = CnfFormula(n, clauses)
        make = builtin_session_factory(conflict_budget=60)
        s1 = make(f)
        with pytest.raises(BudgetExhausted):
            s1.solve()
        s2 = make(f)
        with pytest.raises(BudgetExhausted):
            s2.solve()

    def test_budget_pool_spans_calls_and_sessions(self):
        n, clauses = gated_pigeonhole(4, 2)
        f = CnfFormula(n, clauses)
        probe = Solver.from_formula(f)
        assert probe.solve([1]) is None
        first = probe.stats["conflicts"]
        make = builtin_session_factory(conflict_budget=first + 1)
        s1 = make(f)
        assert s1.solve([1]) is None
        s2 = make(f)
        with pytest.raises(BudgetExhausted):
            s2.solve([2])
        # the first session draws on the same exhausted pool
        with pytest.raises(BudgetExhausted):
            s1.solve([2])

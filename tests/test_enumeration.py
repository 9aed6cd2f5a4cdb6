"""SAT-based enumeration against the exhaustive oracle."""

import random

import pytest

from afsat.cnf import ENCODINGS, CnfFormula, EncodingId
from afsat.core import ArgumentationFramework
from afsat.enumeration import (
    _components,
    _subframework,
    credulous_accept,
    credulous_answer,
    enumerate_complete,
    enumerate_preferred,
    grounded_labelling,
    skeptical_accept,
    skeptical_answer,
)
from afsat.generators import gen_count, gen_probability
from afsat.oracle import oracle_complete, oracle_preferred
from afsat.solver import Solver, builtin_session_factory

from conftest import (
    CHAIN3,
    CYCLE3,
    FULL3,
    MUTUAL,
    NO_ATTACKS3,
    SELF1,
    assert_same_as_checked,
    make_af,
    random_af,
    random_battery,
)


# names that order by case, digit, underscore and prefix
UNION_NAMES = ["B", "a", "a_", "a0", "aa", "A1", "_x", "b", "_", "a_0", "a1",
               "Z", "x9", "A", "ab", "b_", "_a", "Aa", "b0", "B_", "x", "X",
               "a00", "Ab"]


def names(af, extensions):
    return [sorted(af.name(i) for i in s) for s in extensions]


class TestFrozenCases:
    def test_mutual_attack_trace(self):
        """Two extensions; the exact solver call pattern is deterministic."""
        result = enumerate_preferred(MUTUAL)
        assert set(result.extensions) == {frozenset({1}), frozenset({2})}
        assert result.stats["outer_iterations"] == 3
        assert result.stats["sat_calls"] == 5
        assert result.stats["inner_iterations"] == 5
        assert result.complete
        assert result.semantics == "preferred"

    def test_chain(self):
        result = enumerate_preferred(CHAIN3)
        assert names(CHAIN3, result.extensions) == [["a", "c"]]

    def test_self_attacker_first_call_unsat(self):
        result = enumerate_preferred(SELF1)
        assert result.extensions == (frozenset(),)
        assert result.stats == dict(result.stats, sat_calls=1,
                                    inner_iterations=1, outer_iterations=1)

    def test_no_attacks_no_sat_calls(self):
        # every unattacked argument is grounded, so nothing reaches SAT
        af = make_af([f"x{i}" for i in range(40)], [])
        result = enumerate_preferred(af)
        assert result.extensions == (frozenset(range(1, 41)),)
        assert result.stats["sat_calls"] == 0
        assert result.stats["outer_iterations"] == 0

    def test_extension_ordering(self):
        # size descending, then by member names
        af = make_af("abcd", [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
        result = enumerate_preferred(af)
        assert names(af, result.extensions) == \
            [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]

    def test_ordering_follows_names_not_indices(self):
        rng = random.Random(4)
        renamed = []
        for af in random_battery(5, 30, max_k=7):
            # names whose order differs from the declaration order
            renamed.append(ArgumentationFramework(
                rng.sample([f"n{i}" for i in range(20)], af.k), af.attacks))
        for _ in range(30):
            # disjoint unions of 3-5 components plus unattacked arguments,
            # named apart by case, digit, underscore and prefix
            attacks = set()
            k = 0
            for _ in range(rng.randint(3, 5)):
                size = rng.randint(2, 4)
                # a mutual attack, so most components have two extensions
                attacks |= {(k + 1, k + 2), (k + 2, k + 1)}
                attacks |= {(k + i, k + j) for i in range(1, size + 1)
                            for j in range(1, size + 1) if rng.random() < 0.2}
                k += size
            k += rng.randint(1, 2)
            renamed.append(ArgumentationFramework(
                rng.sample(UNION_NAMES, k), sorted(attacks)))
        for af in renamed:
            for result in (enumerate_preferred(af), enumerate_complete(af)):
                assert list(result.extensions) == sorted(
                    result.extensions,
                    key=lambda s: (-len(s), sorted(af.name(i) for i in s)))


class TestOracleEquivalence:
    def test_preferred_all_encodings(self):
        for af in random_battery(99, 40, max_k=8):
            want = oracle_preferred(af)
            for enc in ENCODINGS:
                got = enumerate_preferred(af, encoding=enc)
                assert set(got.extensions) == want, (af, enc)
                assert len(got.extensions) == len(want)

    def test_complete_all_encodings(self):
        for af in random_battery(77, 25, max_k=7):
            want = oracle_complete(af)
            for enc in (EncodingId.C2, EncodingId.C3, EncodingId.C1):
                got = enumerate_complete(af, encoding=enc)
                assert set(got.extensions) == want, (af, enc)
                assert len(got.extensions) == len(want)
                assert got.semantics == "complete"

    def test_complete_includes_empty_when_oracle_says_so(self):
        got = enumerate_complete(MUTUAL)
        assert frozenset() in set(got.extensions)
        assert set(got.extensions) == oracle_complete(MUTUAL)

    def test_canonical_cases(self):
        for af in (CHAIN3, MUTUAL, SELF1, CYCLE3, NO_ATTACKS3, FULL3):
            assert set(enumerate_preferred(af).extensions) == oracle_preferred(af)
            assert set(enumerate_complete(af).extensions) == oracle_complete(af)


class TestDisjointUnions:
    """A disjoint union's preferred (complete) extensions are the unions of
    one preferred (complete) extension per component, which is the shape of
    frameworks with many extensions."""

    @staticmethod
    def union(components):
        names, attacks, offset = [], [], 0
        for af in components:
            names.extend(f"c{offset + i}" for i in range(1, af.k + 1))
            attacks.extend((offset + i, offset + j) for i, j in af.attacks)
            offset += af.k
        return ArgumentationFramework(names, attacks)

    @staticmethod
    def product(components, oracle):
        out, offset = {frozenset()}, 0
        for af in components:
            out = {s | {offset + i for i in t}
                   for s in out for t in oracle(af)}
            offset += af.k
        return out

    def test_product_of_component_answers(self):
        rng = random.Random(4242)
        for _ in range(12):
            components = [random_af(rng, max_k=3)
                          for _ in range(rng.randint(2, 4))]
            af = self.union(components)
            preferred = self.product(components, oracle_preferred)
            complete = self.product(components, oracle_complete)
            for enc in ENCODINGS:
                got = enumerate_preferred(af, encoding=enc)
                assert set(got.extensions) == preferred, (af, enc)
                assert len(got.extensions) == len(preferred)
                got = enumerate_complete(af, encoding=enc)
                assert set(got.extensions) == complete, (af, enc)
                assert len(got.extensions) == len(complete)


def hubbed_union(rng):
    """Random components joined only through grounded arguments: h1 -> h2,
    h2 attacks one argument of every component and h1 may attack one
    more, so the components separate once the grounded pass labels h1 in
    and what it attacks out."""
    components = [random_af(rng, max_k=3) for _ in range(rng.randint(2, 3))]
    base = TestDisjointUnions.union(components)
    h1, h2 = base.k + 1, base.k + 2
    attacks = set(base.attacks) | {(h1, h2)}
    offset = 0
    for af in components:
        attacks.add((h2, offset + rng.randint(1, af.k)))
        if rng.random() < 0.5:
            attacks.add((h1, offset + rng.randint(1, af.k)))
        offset += af.k
    return ArgumentationFramework(list(base.arguments) + ["h1", "h2"],
                                  attacks)


# x -> y, and y attacks into a 3-cycle and a mutual pair: x is in and y
# out in every complete labelling, which leaves two components
HUB = make_af("xyabcpq", [("x", "y"), ("y", "a"), ("y", "p"), ("a", "b"),
                          ("b", "c"), ("c", "a"), ("p", "q"), ("q", "p")])


class TestGroundedDecomposition:
    def test_grounded_is_least_complete_extension(self):
        for af in random_battery(31, 60, max_k=8):
            g_in, g_out = grounded_labelling(af)
            complete = oracle_complete(af)
            assert g_in in complete, af
            assert all(g_in <= s for s in complete), af
            assert g_out == {b for a in g_in for b in af.attackees(a)}, af

    def test_components_after_grounded_arguments(self):
        result = enumerate_preferred(HUB)
        assert names(HUB, result.extensions) == [["p", "x"], ["q", "x"]]
        # the 3-cycle refutes a non-empty extension in one call; the pair
        # takes five calls over three rounds, as MUTUAL does on its own
        assert result.stats == dict(result.stats, sat_calls=6,
                                    inner_iterations=6, outer_iterations=4)
        assert set(enumerate_complete(HUB).extensions) == oracle_complete(HUB)

    def test_subframeworks_equal_checked_ones(self):
        seen = 0
        for af in [HUB] + random_battery(31, 60, max_k=8):
            g_in, g_out = grounded_labelling(af)
            for component in _components(af, g_in | g_out,
                                          range(1, af.k + 1)):
                sub = _subframework(af, component)
                assert_same_as_checked(sub)
                assert sub.arguments == tuple(map(af.name, component))
                seen += 1
        assert seen >= 30

    def test_every_component_argument_has_an_attacker_in_it(self):
        """An undecided argument has an undecided attacker, so no
        conflict-free set holds a whole component and a growth clause is
        never empty."""
        rng = random.Random(808)
        frameworks = ([HUB] + random_battery(31, 60, max_k=8)
                      + [hubbed_union(rng) for _ in range(15)])
        seen = 0
        for af in frameworks:
            g_in, g_out = grounded_labelling(af)
            for component in _components(af, g_in | g_out,
                                          range(1, af.k + 1)):
                sub = _subframework(af, component)
                assert all(sub.attackers(a) for a in range(1, sub.k + 1)), af
                seen += 1
        assert seen >= 40

    def test_hubbed_unions_match_oracle(self):
        rng = random.Random(808)
        for _ in range(15):
            af = hubbed_union(rng)
            preferred = oracle_preferred(af)
            complete = oracle_complete(af)
            for enc in ENCODINGS:
                got = enumerate_preferred(af, encoding=enc)
                assert set(got.extensions) == preferred, (af, enc)
                assert len(got.extensions) == len(preferred)
                got = enumerate_complete(af, encoding=enc)
                assert set(got.extensions) == complete, (af, enc)
                assert len(got.extensions) == len(complete)

    def test_stats_sum_over_components(self):
        pairs = TestDisjointUnions.union([MUTUAL] * 6)
        result = enumerate_preferred(pairs)
        assert set(result.extensions) == oracle_preferred(pairs)
        assert len(result.extensions) == 64
        assert result.stats == dict(result.stats, sat_calls=30,
                                    inner_iterations=30, outer_iterations=18)

    def test_disjoint_cycles_one_call_each(self):
        cycles = TestDisjointUnions.union([CYCLE3] * 200)
        result = enumerate_preferred(cycles)
        assert result.extensions == (frozenset(),)
        assert result.stats["sat_calls"] == 200

    def test_credulous_on_hubbed_unions(self):
        rng = random.Random(909)
        for _ in range(15):
            af = hubbed_union(rng)
            preferred = oracle_preferred(af)
            for a in range(1, af.k + 1):
                want = any(a in s for s in preferred)
                assert credulous_accept(af, a) == want, (af, a)

    def test_credulous_grounded_arguments_take_no_sat_call(self):
        formulas = []

        def factory(formula):
            formulas.append(formula)
            return Solver.from_formula(formula)

        for name, want in (("x", True), ("y", False)):
            assert credulous_accept(HUB, HUB.index(name),
                                    session_factory=factory) is want
        assert formulas == []
        # an undecided argument solves only its component: p and q
        assert credulous_accept(HUB, HUB.index("p"),
                                session_factory=factory) is True
        assert [f.num_vars for f in formulas] == [6]


class PermutedSession:
    """Built-in session over the formula with its variables renamed by a
    seeded permutation; clauses, assumptions and models are mapped through
    it, so the solver meets the same problem in another variable order."""

    def __init__(self, formula, seed):
        n = formula.num_vars
        order = list(range(1, n + 1))
        random.Random(seed).shuffle(order)
        self._to = [0] + order
        self._solver = Solver.from_formula(CnfFormula(
            n, [self._rename(c) for c in formula.clauses]))
        self.models = []

    def _rename(self, lits):
        return [self._to[l] if l > 0 else -self._to[-l] for l in lits]

    def add_clause(self, lits):
        self._solver.add_clause(self._rename(lits))

    def solve(self, assumptions=()):
        model = self._solver.solve(self._rename(assumptions))
        if model is not None:
            model = [False] + [model[v] for v in self._to[1:]]
            self.models.append(tuple(model))
        return model


class TestModelOrderRobustness:
    def test_any_seed_same_extensions(self):
        """The growth loop is correct whatever model the solver returns, so
        other search orders must not change the answer."""
        for af in random_battery(55, 12, max_k=7):
            want = oracle_preferred(af)
            orders = set()
            for seed in range(6):
                sessions = []

                def factory(formula):
                    sessions.append(PermutedSession(formula, seed))
                    return sessions[-1]

                got = enumerate_preferred(af, session_factory=factory)
                assert set(got.extensions) == want, (af, seed)
                orders.add(tuple(m for s in sessions for m in s.models))
            # the permutations did change which models were returned
            assert len(orders) > 1 or len(want) <= 1, af


class TestAcceptance:
    def test_credulous(self):
        for af in random_battery(12, 20, max_k=7):
            preferred = oracle_preferred(af)
            for a in range(1, af.k + 1):
                want = any(a in s for s in preferred)
                assert credulous_accept(af, a) == want, (af, a)

    def test_skeptical(self):
        for af in random_battery(13, 20, max_k=7):
            preferred = oracle_preferred(af)
            for a in range(1, af.k + 1):
                want = all(a in s for s in preferred)
                assert skeptical_accept(af, a) == want, (af, a)

    def test_index_outside_range_is_rejected(self):
        """Both ends of 1..k answer as the oracle does; -1, 0 and k+1 raise
        instead of answering for some other argument."""
        # a<->b, c->c: index 0 and -1 once answered True, for a framework
        # holding only c, which is in no extension
        loop = make_af("abc", [("a", "b"), ("b", "a"), ("c", "c")])
        for af in [loop] + random_battery(16, 10, max_k=6):
            preferred = oracle_preferred(af)
            for a in (1, af.k):
                assert credulous_accept(af, a) == any(a in s for s in preferred)
                assert skeptical_accept(af, a) == all(a in s for s in preferred)
            for a in (-1, 0, af.k + 1):
                for accept in (credulous_accept, skeptical_accept):
                    with pytest.raises(ValueError, match=rf"^argument index "
                                       rf"{a} is outside 1\.\.{af.k}$"):
                        accept(af, a)

    def test_mutual_attack_queries(self):
        assert credulous_accept(MUTUAL, 1)
        assert credulous_accept(MUTUAL, 2)
        assert not skeptical_accept(MUTUAL, 1)
        # grounded-style case: skeptically accepted
        assert skeptical_accept(CHAIN3, 1)
        assert skeptical_accept(CHAIN3, 3)
        assert not credulous_accept(CHAIN3, 2)

    def test_skeptical_answer_from_either_semantics(self):
        """A finished complete enumeration answers skeptical acceptance over
        its subset-maximal members, the preferred extensions, and credulous
        acceptance over all its members."""
        for af in random_battery(14, 40, max_k=7):
            preferred = enumerate_preferred(af)
            complete = enumerate_complete(af)
            oracle = oracle_preferred(af)
            for a in range(1, af.k + 1):
                want = all(a in s for s in oracle)
                assert skeptical_answer(preferred, a) is want, (af, a)
                assert skeptical_answer(complete, a) is want, (af, a)
                want = any(a in s for s in oracle)
                assert credulous_answer(preferred, a) is want, (af, a)
                assert credulous_answer(complete, a) is want, (af, a)

    def test_complete_semantics_is_not_preferred(self):
        # a<->b, a->c, b->c, c->d: the empty set is complete, but d is in
        # both preferred extensions, {a, d} and {b, d}
        af = make_af("abcd", [("a", "b"), ("b", "a"), ("a", "c"),
                              ("b", "c"), ("c", "d")])
        d = af.index("d")
        complete = enumerate_complete(af)
        assert frozenset() in complete.extensions
        assert skeptical_answer(complete, d) is True
        assert skeptical_accept(af, d) is True


class TestDeterminism:
    def test_repeat_runs_identical(self):
        for af in (MUTUAL, CYCLE3, make_af("abcd", [("a", "b"), ("b", "c"),
                                                    ("c", "d"), ("d", "a")])):
            first = enumerate_preferred(af)
            second = enumerate_preferred(af)
            assert first.extensions == second.extensions
            for key in ("sat_calls", "inner_iterations", "outer_iterations"):
                assert first.stats[key] == second.stats[key]

    # Search counts of the built-in solver, recorded from the solver as it
    # stood when this test was written. Each row: sat_calls, then conflicts,
    # propagations, decisions and restarts summed over every session of the
    # run. A change that keeps the answers but changes the search (branching,
    # decay, restarts, propagation order) fails here; such a change updates
    # these values and says why.
    SEARCH_COUNTS = [
        ("p60 C2", "preferred", lambda: gen_probability(60, 0.25, 0), "C2",
         (3, 88, 4857, 266, 0)),
        ("p60 C3", "preferred", lambda: gen_probability(60, 0.25, 0), "C3",
         (3, 216, 9202, 541, 1)),
        ("self-hub pairs C2", "preferred", lambda: self_hub_pairs(6), "C2",
         (134, 32, 4307, 436, 0)),
        ("n30 C2", "complete", lambda: gen_count(30, None, 0), "C2",
         (2, 26, 472, 218, 0)),
        ("p100 C2", "preferred", lambda: gen_probability(100, 0.25, 3), "C2",
         (1, 613, 43614, 1553, 3)),
        ("p100 C3", "preferred", lambda: gen_probability(100, 0.25, 3), "C3",
         (1, 1530, 79172, 4053, 5)),
    ]

    @pytest.mark.parametrize("semantics, framework, encoding, want",
                             [row[1:] for row in SEARCH_COUNTS],
                             ids=[row[0] for row in SEARCH_COUNTS])
    def test_search_counts_are_pinned(self, semantics, framework, encoding,
                                      want):
        sessions = []
        make = builtin_session_factory()

        def counting(formula):
            sessions.append(make(formula))
            return sessions[-1]

        run = {"preferred": enumerate_preferred,
               "complete": enumerate_complete}[semantics]
        result = run(framework(), encoding=EncodingId(encoding),
                     session_factory=counting)
        keys = ("conflicts", "propagations", "decisions", "restarts")
        got = (result.stats["sat_calls"],) + tuple(
            sum(s.stats[key] for s in sessions) for key in keys)
        assert got == want, (
            "the built-in solver's search changed (sat_calls, conflicts, "
            f"propagations, decisions, restarts): {got} != {want}")


def self_hub_pairs(m):
    """m mutually attacking pairs, every member attacking one self-attacking
    hub: one component with 2**m preferred extensions."""
    names = ["h"] + [f"{x}{i}" for i in range(m) for x in "ab"]
    attacks = [(1, 1)]
    for a in range(2, 2 * m + 2, 2):
        attacks += [(a, a + 1), (a + 1, a), (a, 1), (a + 1, 1)]
    return ArgumentationFramework(names, attacks)


# two disjoint 4-cycles: enumeration needs a few conflicts, so the
# smallest budgets stop it after zero, one, two, ... extensions
RINGS = make_af("abcdefgh", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                             ("e", "f"), ("f", "g"), ("g", "h"), ("h", "e")])
# x4 is in no complete extension, but proving it takes more than one conflict
UNREACHABLE = make_af(["x1", "x2", "x3", "x4"],
                      [("x1", "x1"), ("x1", "x2"), ("x2", "x4"), ("x3", "x1"),
                       ("x3", "x2"), ("x3", "x3")])


def budgeted(budget):
    return builtin_session_factory(conflict_budget=budget)


def partial_runs(run, af):
    """The results of ``run`` under every budget below the one that lets it
    finish."""
    partials = []
    for budget in range(1, 1000):
        result = run(af, session_factory=budgeted(budget))
        if result.complete:
            return partials
        partials.append((budget, result))
    raise AssertionError("no budget below 1000 finishes")


class TestBudget:
    @staticmethod
    def partial_sizes(run, oracle):
        """Checks every partial result of ``run`` on RINGS against the oracle;
        returns the set of their extension counts."""
        proven = oracle(RINGS)
        sizes = set()
        for budget, partial in partial_runs(run, RINGS):
            assert partial.stats["sat_calls"] >= 1
            # never the empty fallback: every reported extension is proven
            assert set(partial.extensions) <= proven, budget
            sizes.add(len(partial.extensions))
        return sizes

    def test_partial_result_surfaces(self):
        sizes = self.partial_sizes(enumerate_preferred, oracle_preferred)
        assert 0 in sizes and len(sizes) > 1

    def test_partial_complete_result_surfaces(self):
        # complete models come without conflicts at first, so even the
        # smallest budget proves some
        sizes = self.partial_sizes(enumerate_complete, oracle_complete)
        assert len(sizes) > 1

    def test_partial_runs_of_three_components(self):
        """Components are solved round-robin: a partial run reports the
        product of what each has proven, even while the 3-cycle, whose
        only preferred extension is empty, is still unfinished."""
        af = make_af("abcdefghxyz", [
            ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("e", "f"),
            ("f", "g"), ("g", "h"), ("h", "e"), ("x", "y"), ("y", "z"),
            ("z", "x")])
        for run, oracle in ((enumerate_preferred, oracle_preferred),
                            (enumerate_complete, oracle_complete)):
            proven = oracle(af)
            products = 0
            for budget, partial in partial_runs(run, af):
                assert set(partial.extensions) <= proven, (run, budget)
                products += bool(partial.extensions)
            assert products, run

    def test_budget_large_enough_finishes(self):
        for run in (enumerate_preferred, enumerate_complete):
            assert run(MUTUAL, session_factory=budgeted(10 ** 6)).complete

    def test_credulous_out_of_budget(self):
        x4, x2 = UNREACHABLE.index("x4"), UNREACHABLE.index("x2")
        assert credulous_accept(UNREACHABLE, x4,
                                session_factory=budgeted(1)) is None
        assert credulous_accept(UNREACHABLE, x2,
                                session_factory=budgeted(1)) is False
        assert credulous_accept(UNREACHABLE, x4) is False

    def test_skeptical_out_of_budget(self):
        """A partial run rejects an argument that a proven extension lacks,
        and answers None for the rest; credulously it accepts an argument
        that a proven extension holds."""
        answers = set()
        for budget, partial in partial_runs(enumerate_preferred, RINGS):
            for a in range(1, RINGS.k + 1):
                want = False if any(a not in s for s in partial.extensions) \
                    else None
                assert skeptical_answer(partial, a) is want, (budget, a)
                assert credulous_answer(partial, a) is (
                    True if any(a in s for s in partial.extensions)
                    else None), (budget, a)
                assert skeptical_accept(RINGS, a, session_factory=budgeted(
                    budget)) is want, (budget, a)
                answers.add(want)
        assert answers == {False, None}

    def test_partial_complete_run_answers_none(self):
        """A proven complete extension may grow into a preferred one that
        holds the argument, so a partial complete run decides nothing."""
        runs = partial_runs(enumerate_complete, RINGS)
        assert any(partial.extensions for _, partial in runs)
        for _, partial in runs:
            for a in range(1, RINGS.k + 1):
                assert skeptical_answer(partial, a) is None


class TestStats:
    def test_wall_time_present(self):
        result = enumerate_preferred(MUTUAL)
        assert result.stats["wall_time_s"] >= 0

    def test_repr(self):
        result = enumerate_preferred(MUTUAL)
        text = repr(result)
        assert "preferred" in text and "2 extensions" in text

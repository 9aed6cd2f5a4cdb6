"""SAT-based enumeration against the exhaustive oracle."""

import random

import pytest

from afsat.cnf import ENCODINGS, EncodingId
from afsat.core import ArgumentationFramework
from afsat.enumeration import (
    EnumerationIncomplete,
    credulous_accept,
    enumerate_complete,
    enumerate_preferred,
    skeptical_accept,
)
from afsat.oracle import oracle_complete, oracle_preferred
from afsat.solver import builtin_session_factory

from conftest import (
    CHAIN3,
    CYCLE3,
    FULL3,
    MUTUAL,
    NO_ATTACKS3,
    SELF1,
    make_af,
    random_af,
    random_battery,
)


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

    def test_no_attacks_two_calls(self):
        af = make_af([f"x{i}" for i in range(40)], [])
        result = enumerate_preferred(af)
        assert result.extensions == (frozenset(range(1, 41)),)
        assert result.stats["sat_calls"] == 2
        assert result.stats["outer_iterations"] == 2

    def test_extension_ordering(self):
        # size descending, then by member names
        af = make_af("abcd", [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
        result = enumerate_preferred(af)
        assert names(af, result.extensions) == \
            [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]


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


class TestModelOrderRobustness:
    def test_any_seed_same_extensions(self):
        """The growth loop is correct whatever model the solver returns, so
        perturbed search orders must not change the answer."""
        for af in random_battery(55, 12, max_k=7):
            want = oracle_preferred(af)
            for seed in range(6):
                got = enumerate_preferred(
                    af, session_factory=builtin_session_factory(seed=seed))
                assert set(got.extensions) == want, (af, seed)


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

    def test_mutual_attack_queries(self):
        assert credulous_accept(MUTUAL, 1)
        assert credulous_accept(MUTUAL, 2)
        assert not skeptical_accept(MUTUAL, 1)
        # grounded-style case: skeptically accepted
        assert skeptical_accept(CHAIN3, 1)
        assert skeptical_accept(CHAIN3, 3)
        assert not credulous_accept(CHAIN3, 2)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        for af in (MUTUAL, CYCLE3, make_af("abcd", [("a", "b"), ("b", "c"),
                                                    ("c", "d"), ("d", "a")])):
            first = enumerate_preferred(af)
            second = enumerate_preferred(af)
            assert first.extensions == second.extensions
            for key in ("sat_calls", "inner_iterations", "outer_iterations"):
                assert first.stats[key] == second.stats[key]


class TestBudget:
    def test_partial_result_surfaces(self):
        # two disjoint 4-cycles: enumeration needs a few conflicts, so the
        # smallest budgets stop it after zero, one, two, ... extensions
        af = make_af("abcdefgh", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                                  ("e", "f"), ("f", "g"), ("g", "h"), ("h", "e")])
        preferred = oracle_preferred(af)
        sizes = set()
        for budget in range(1, 100):
            try:
                enumerate_preferred(
                    af, session_factory=builtin_session_factory(
                        conflict_budget=budget))
            except EnumerationIncomplete as exc:
                partial = exc.partial
            else:
                break
            assert not partial.complete
            assert partial.stats["sat_calls"] >= 1
            # never the empty fallback: every reported extension is proven
            assert set(partial.extensions) <= preferred, budget
            sizes.add(len(partial.extensions))
        assert 0 in sizes and len(sizes) > 1

    def test_budget_large_enough_finishes(self):
        result = enumerate_preferred(
            MUTUAL, session_factory=builtin_session_factory(conflict_budget=10 ** 6))
        assert result.complete


class TestStats:
    def test_wall_time_present(self):
        result = enumerate_preferred(MUTUAL)
        assert result.stats["wall_time_s"] >= 0

    def test_repr(self):
        result = enumerate_preferred(MUTUAL)
        text = repr(result)
        assert "preferred" in text and "2 extensions" in text

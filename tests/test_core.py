"""Framework model and definitional predicates on hand-worked cases."""

import pytest

from afsat.core import (
    IN,
    OUT,
    UNDEC,
    ArgumentationFramework,
    Labelling,
    SizeCapExceeded,
    extension_from_labelling,
    is_acceptable,
    is_admissible,
    is_complete,
    is_complete_labelling,
    is_conflict_free,
    is_preferred,
    labelling_from_extension,
)

from conftest import (CHAIN3, CYCLE3, FULL3, MUTUAL, NO_ATTACKS3, SELF1,
                      all_subsets, assert_same_as_checked)


def idx(af, names):
    return frozenset(af.index(n) for n in names)


class TestConstruction:
    def test_basic_accessors(self):
        af = CHAIN3
        assert af.k == 3
        assert af.arguments == ("a", "b", "c")
        assert af.index("b") == 2
        assert af.name(3) == "c"
        assert af.attackers(2) == (1,)
        assert af.attackers(1) == ()
        assert af.attackees(1) == (2,)
        assert af.is_attacked(2) and not af.is_attacked(1)
        assert af.has_attack(1, 2) and not af.has_attack(2, 1)

    def test_attacker_lists_sorted(self):
        af = ArgumentationFramework(["a", "b", "c"], [(3, 2), (1, 2)])
        assert af.attackers(2) == (1, 3)

    def test_self_attack_allowed(self):
        assert SELF1.has_attack(1, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ArgumentationFramework([])

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError):
            ArgumentationFramework(["a b"])
        with pytest.raises(ValueError):
            ArgumentationFramework([""])
        with pytest.raises(ValueError):
            ArgumentationFramework([7])

    def test_rejects_duplicate_name(self):
        with pytest.raises(ValueError):
            ArgumentationFramework(["a", "a"])

    def test_rejects_out_of_range_attack(self):
        with pytest.raises(ValueError):
            ArgumentationFramework(["a"], [(1, 2)])
        with pytest.raises(ValueError):
            ArgumentationFramework(["a"], [(0, 1)])

    def test_from_names_rejects_unknown(self):
        for pair in (("a", "z"), ("z", "a")):
            with pytest.raises(ValueError, match="unknown argument: 'z'"):
                ArgumentationFramework.from_names(["a"], [pair])

    def test_unknown_index_lookup(self):
        with pytest.raises(KeyError):
            CHAIN3.index("z")

    def test_equality_and_hash(self):
        twin = ArgumentationFramework(["a", "b", "c"], [(1, 2), (2, 3)])
        assert twin == CHAIN3
        assert hash(twin) == hash(CHAIN3)
        assert twin != MUTUAL

    # pairs given out of order, or repeated, still give ascending adjacency
    @pytest.mark.parametrize("pairs", [
        [(3, 3), (3, 1), (2, 3), (2, 1), (1, 2)],
        [(2, 1), (1, 2), (2, 1), (3, 1), (1, 2), (3, 3), (3, 1)],
    ], ids=["descending", "repeats"])
    def test_checked_pairs_in_any_order(self, pairs):
        names = ("a", "b", "c")
        af = ArgumentationFramework._checked(
            names, {"a": 1, "b": 2, "c": 3}, pairs)
        assert_same_as_checked(af)
        assert af.attacks == frozenset(pairs)
        assert af.attackers(1) == (2, 3)
        assert af.attackees(3) == (1, 3)

    def test_attacks_deduplicated(self):
        af = ArgumentationFramework(["a", "b"], [(1, 2), (1, 2)])
        assert len(af.attacks) == 1

    @pytest.mark.parametrize("pair", [(1.5, 2), (1, 2.0), ("1", 2), (1, None)],
                             ids=["float", "integral-float", "string", "none"])
    def test_rejects_non_integer_endpoint(self, pair):
        with pytest.raises(ValueError,
                           match=r"^attack endpoint is not an integer: "):
            ArgumentationFramework(["a", "b"], [pair])

    def test_accepts_numpy_integer_endpoints(self):
        np = pytest.importorskip("numpy")
        af = ArgumentationFramework(["a", "b"], [(np.int64(1), np.int64(2))])
        assert af == ArgumentationFramework(["a", "b"], [(1, 2)])
        assert [type(i) for pair in af.attacks for i in pair] == [int, int]
        assert af.attackers(2) == (1,)


class TestPredicates:
    def test_conflict_free(self):
        assert is_conflict_free(CHAIN3, idx(CHAIN3, "ac"))
        assert not is_conflict_free(CHAIN3, idx(CHAIN3, "ab"))
        assert is_conflict_free(CHAIN3, frozenset())
        assert not is_conflict_free(SELF1, {1})

    def test_acceptable(self):
        # c's only attacker b is attacked by a
        assert is_acceptable(CHAIN3, CHAIN3.index("c"), idx(CHAIN3, "a"))
        assert not is_acceptable(CHAIN3, CHAIN3.index("c"), frozenset())
        # unattacked arguments are acceptable to anything
        assert is_acceptable(CHAIN3, CHAIN3.index("a"), frozenset())

    def test_admissible(self):
        assert is_admissible(CHAIN3, idx(CHAIN3, "ac"))
        assert is_admissible(CHAIN3, idx(CHAIN3, "a"))
        assert not is_admissible(CHAIN3, idx(CHAIN3, "c"))
        assert is_admissible(CHAIN3, frozenset())
        assert not is_admissible(CYCLE3, idx(CYCLE3, "a"))

    def test_complete_chain(self):
        wanted = {idx(CHAIN3, "ac")}
        got = {s for s in all_subsets(3) if is_complete(CHAIN3, s)}
        assert got == wanted

    def test_complete_mutual(self):
        got = {s for s in all_subsets(2) if is_complete(MUTUAL, s)}
        assert got == {frozenset(), frozenset({1}), frozenset({2})}

    def test_complete_cycle(self):
        got = {s for s in all_subsets(3) if is_complete(CYCLE3, s)}
        assert got == {frozenset()}

    def test_preferred_frozen_cases(self):
        assert is_preferred(CHAIN3, idx(CHAIN3, "ac"))
        assert not is_preferred(CHAIN3, idx(CHAIN3, "a"))
        assert is_preferred(MUTUAL, {1}) and is_preferred(MUTUAL, {2})
        assert not is_preferred(MUTUAL, frozenset())
        assert is_preferred(SELF1, frozenset())
        assert is_preferred(CYCLE3, frozenset())
        assert is_preferred(NO_ATTACKS3, {1, 2, 3})
        assert is_preferred(FULL3, frozenset())

    def test_preferred_size_cap(self):
        big = ArgumentationFramework([f"x{i}" for i in range(21)])
        with pytest.raises(SizeCapExceeded):
            is_preferred(big, frozenset())
        small = ArgumentationFramework(["a", "b"], [(1, 2)])
        with pytest.raises(SizeCapExceeded):
            is_preferred(small, {1}, max_args=1)
        assert is_preferred(small, {1}, max_args=2)


class TestLabelling:
    def test_validation(self):
        with pytest.raises(ValueError):
            Labelling([])
        with pytest.raises(ValueError):
            Labelling(["in", "maybe"])

    def test_from_dict(self):
        lab = Labelling.from_dict(CHAIN3, {"a": IN, "b": OUT, "c": IN})
        assert lab.labels == (IN, OUT, IN)
        assert lab.label(2) == OUT
        with pytest.raises(ValueError):
            Labelling.from_dict(CHAIN3, {"a": IN, "b": OUT})

    def test_partitions(self):
        lab = Labelling([IN, OUT, UNDEC])
        assert lab.in_args() == {1}
        assert lab.out_args() == {2}
        assert lab.undec_args() == {3}
        assert lab.as_dict(CHAIN3) == {"a": IN, "b": OUT, "c": UNDEC}

    def test_complete_labelling_chain(self):
        assert is_complete_labelling(CHAIN3, Labelling([IN, OUT, IN]))
        # a is unattacked, so any label but in fails
        assert not is_complete_labelling(CHAIN3, Labelling([UNDEC, UNDEC, UNDEC]))
        assert not is_complete_labelling(CHAIN3, Labelling([OUT, IN, OUT]))

    def test_complete_labelling_mutual(self):
        good = [Labelling([IN, OUT]), Labelling([OUT, IN]), Labelling([UNDEC, UNDEC])]
        for lab in good:
            assert is_complete_labelling(MUTUAL, lab)
        for lab in [Labelling([IN, IN]), Labelling([IN, UNDEC]),
                    Labelling([OUT, OUT]), Labelling([UNDEC, OUT])]:
            assert not is_complete_labelling(MUTUAL, lab)

    def test_complete_labelling_self_attacker(self):
        assert is_complete_labelling(SELF1, Labelling([UNDEC]))
        assert not is_complete_labelling(SELF1, Labelling([IN]))
        assert not is_complete_labelling(SELF1, Labelling([OUT]))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            is_complete_labelling(CHAIN3, Labelling([IN]))

    def test_extension_round_trip(self):
        lab = labelling_from_extension(CHAIN3, idx(CHAIN3, "ac"))
        assert lab.labels == (IN, OUT, IN)
        assert extension_from_labelling(lab) == idx(CHAIN3, "ac")

    def test_extension_labelling_bijection(self, small_afs):
        """On complete extensions the induced labelling is complete and the
        in-projection inverts it."""
        for af in small_afs:
            for s in all_subsets(af.k):
                if is_complete(af, s):
                    lab = labelling_from_extension(af, s)
                    assert is_complete_labelling(af, lab)
                    assert extension_from_labelling(lab) == s

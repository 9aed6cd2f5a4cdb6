"""CNF encodings: clause counts, model sets, DIMACS serialization."""

import re

import pytest

from afsat.cnf import (
    ENCODING_TERMS,
    ENCODINGS,
    CnfFormula,
    EncodingId,
    VarLayout,
    encode,
    encoding_from_string,
    model_to_labelling,
    normalize_clause,
    parse_dimacs,
    satisfies,
    standard_comments,
    to_dimacs,
)
from afsat.constraints import Term
from afsat.core import IN, OUT, UNDEC
from afsat import extsolver
from afsat.extsolver import ExternalSession
from afsat.oracle import oracle_complete_labellings
from afsat.solver import Solver

from conftest import (
    CHAIN3,
    CYCLE3,
    FULL3,
    MUTUAL,
    NO_ATTACKS3,
    SELF1,
    make_af,
    random_battery,
)

TINY_BATTERY = [CHAIN3, MUTUAL, SELF1, CYCLE3, NO_ATTACKS3, FULL3,
                make_af("abc", [("a", "a"), ("a", "b"), ("c", "b")]),
                make_af("abc", [("b", "a"), ("c", "a"), ("a", "c"), ("c", "c")])]


def assignment_of(lab):
    bits = []
    for label in lab.labels:
        bits.extend((label == IN, label == OUT, label == UNDEC))
    return tuple(bits)


def formula_models(formula):
    n = formula.num_vars
    found = set()
    for mask in range(1 << n):
        model = [False] + [bool((mask >> b) & 1) for b in range(n)]
        if satisfies(formula, model):
            found.add(tuple(model[1:]))
    return found


def expected_models(af, nonempty=True):
    out = set()
    for lab in oracle_complete_labellings(af):
        if nonempty and not lab.in_args():
            continue
        out.add(assignment_of(lab))
    return out


class TestVarLayout:
    def test_numbering(self):
        v = VarLayout(3)
        assert v.num_vars == 9
        assert [v.in_var(2), v.out_var(2), v.undec_var(2)] == [4, 5, 6]
        assert v.in_var(1) == 1 and v.undec_var(3) == 9

    def test_role_round_trip(self):
        v = VarLayout(4)
        for i in range(1, 5):
            assert v.role(v.in_var(i)) == (i, IN)
            assert v.role(v.out_var(i)) == (i, OUT)
            assert v.role(v.undec_var(i)) == (i, UNDEC)
        with pytest.raises(ValueError):
            v.role(0)
        with pytest.raises(ValueError):
            v.role(13)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            VarLayout(0)


class TestCnfFormula:
    def test_duplicate_literals_dropped(self):
        f = CnfFormula(2, [[1, 1, -2]])
        assert f.clauses == ((1, -2),)

    def test_tautologies_dropped(self):
        f = CnfFormula(2, [[1, -1], [2]])
        assert f.clauses == ((2,),)

    def test_rejects_bad_clauses(self):
        with pytest.raises(ValueError):
            CnfFormula(2, [[]])
        with pytest.raises(ValueError):
            CnfFormula(2, [[3]])
        with pytest.raises(ValueError):
            CnfFormula(2, [[0]])
        with pytest.raises(ValueError):
            CnfFormula(-1)

    def test_equality(self):
        assert CnfFormula(2, [[1, 2]]) == CnfFormula(2, [[1, 2]])
        assert CnfFormula(2, [[1, 2]]) != CnfFormula(2, [[2, 1]])
        assert hash(CnfFormula(2, [[1]])) == hash(CnfFormula(2, [[1]]))


def stored_clauses(solver):
    """The clauses a built-in session keeps, as its watch lists hold them:
    each clause of two or more literals is watched twice."""
    return list({id(c): tuple(c) for wl in solver._watches
                 for c in wl}.values())


class TestNormalizeClause:
    """One clause rule for formulas and both session backends."""

    @pytest.mark.parametrize("lits, want", [
        ([2, 1, 2, -3, 1], (2, 1, -3)),  # repeats dropped, order kept
        ([1, -2, 2], None),  # tautology
        ([], ()),  # empty clause
        ([1, -1, 4], ValueError),  # out of range after a tautology
    ])
    def test_same_result_everywhere(self, lits, want):
        solver = Solver(3)
        external = ExternalSession("unused", CnfFormula(3))
        if want is ValueError:
            for add in (lambda c: normalize_clause(c, 3),
                        lambda c: CnfFormula(3, [c]),
                        solver.add_clause, external.add_clause):
                with pytest.raises(ValueError, match="out of range: 4"):
                    add(lits)
            return
        assert normalize_clause(lits, 3) == want
        solver.add_clause(lits)
        external.add_clause(lits)
        if want == ():
            with pytest.raises(ValueError, match="empty clause"):
                CnfFormula(3, [lits])
            assert solver.solve() is None and external.solve() is None
            return
        stored = [] if want is None else [want]
        assert list(CnfFormula(3, [lits]).clauses) == stored
        assert stored_clauses(solver) == stored
        assert external._clauses == stored

    @pytest.mark.parametrize("lits", [[1.7, 2], [2, 1.0], ["3"], [1.5], [None]],
                             ids=["float", "integral-float", "string",
                                  "lone-float", "none"])
    def test_non_integer_literal_rejected_everywhere(self, lits):
        solver = Solver(3)
        external = ExternalSession("unused", CnfFormula(3))
        for add in (lambda c: normalize_clause(c, 3),
                    lambda c: CnfFormula(3, [c]),
                    solver.add_clause, external.add_clause):
            with pytest.raises(ValueError,
                               match=r"^literal is not an integer: "):
                add(lits)
        assert stored_clauses(solver) == [] and external._clauses == []
        assert solver._trail == []  # no unit either
        assert solver.solve() is not None

    @pytest.mark.parametrize("assumptions", [[1.5], ["1"], [None], [0], [4]],
                             ids=["float", "string", "none", "zero",
                                  "out-of-range"])
    def test_assumptions_follow_the_clause_rule(self, monkeypatch,
                                                assumptions):
        with pytest.raises(ValueError) as want:
            normalize_clause(assumptions, 3)
        started = []
        monkeypatch.setattr(extsolver, "solve_external",
                            lambda *args: started.append(args))
        for session in (Solver(3), ExternalSession("unused", CnfFormula(3))):
            with pytest.raises(ValueError,
                               match=f"^{re.escape(str(want.value))}$"):
                session.solve(assumptions)
        assert started == []  # the external session started no command

    def test_true_assumption_is_literal_one(self, monkeypatch):
        given = []

        def solve_external(command, formula, timeout=None):
            given.append(formula)
            return [False, True, False, False]

        monkeypatch.setattr(extsolver, "solve_external", solve_external)
        assert Solver(3).solve([True])[1] is True
        assert ExternalSession("unused", CnfFormula(3)).solve([True])[1]
        assert to_dimacs(given[0]) == "p cnf 3 1\n1 0\n"

    def test_numpy_integers_accepted(self):
        np = pytest.importorskip("numpy")
        lits = [np.int64(2), np.int64(-1), np.int64(2)]
        assert normalize_clause(lits, 3) == (2, -1)
        assert [type(lit) for lit in normalize_clause(lits, 3)] == [int, int]
        assert CnfFormula(3, [lits]).clauses == ((2, -1),)


def raw_clauses(af, encoding, nonempty):
    """The clause groups as the module docstring spells them, in the
    canonical order, with the tautologies a self-attack makes."""
    v = VarLayout(af.k)
    I, O, U = v.in_var, v.out_var, v.undec_var
    args = range(1, af.k + 1)
    out = []
    for i in args:
        out += [[I(i), O(i), U(i)], [-I(i), -O(i)], [-I(i), -U(i)],
                [-O(i), -U(i)]]
    for i in args:
        if not af.attackers(i):
            out += [[I(i)], [-O(i)], [-U(i)]]
    groups = {  # in the canonical order
        Term.IN_BWD: lambda i, a: [[I(i)] + [-O(j) for j in a]],
        Term.IN_FWD: lambda i, a: [[-I(i), O(j)] for j in a],
        Term.OUT_BWD: lambda i, a: [[-I(j), O(i)] for j in a],
        Term.OUT_FWD: lambda i, a: [[-O(i)] + [I(j) for j in a]],
        Term.UNDEC_BWD: lambda i, a: [[U(i), -U(m)] + [I(j) for j in a]
                                      for m in a],
        Term.UNDEC_FWD: lambda i, a: ([[-U(i), -I(j)] for j in a]
                                      + [[-U(i)] + [U(j) for j in a]]),
    }
    for term, group in groups.items():
        if term in ENCODING_TERMS[encoding]:
            for i in args:
                if af.attackers(i):
                    out += group(i, af.attackers(i))
    if nonempty:
        out.append([I(i) for i in args])
    return out


class TestEncodedClausesAreNormalized:
    """encode builds its clauses normalized instead of passing them through
    normalize_clause; the formula must be the one normalization gives."""

    BATTERY = TINY_BATTERY + random_battery(20261019, 40, max_k=6)

    def test_battery_has_self_attacks(self):
        assert sum(any(af.has_attack(i, i) for i in range(1, af.k + 1))
                   for af in self.BATTERY) >= 10

    @pytest.mark.parametrize("nonempty", [True, False],
                             ids=["nonempty", "without-nonempty"])
    @pytest.mark.parametrize("encoding", ENCODINGS, ids=str)
    def test_equals_normalized_raw_clauses(self, encoding, nonempty):
        for af in self.BATTERY:
            want = CnfFormula(3 * af.k, raw_clauses(af, encoding, nonempty))
            assert encode(af, encoding, nonempty) == want


class TestEncodingIds:
    def test_from_string(self):
        assert encoding_from_string("C2") is EncodingId.C2
        assert encoding_from_string("C1a") is EncodingId.C1A
        with pytest.raises(ValueError):
            encoding_from_string("C4")

    def test_term_subsets_are_the_correct_ones(self):
        from afsat.constraints import MINIMAL_CORRECT
        assert ENCODING_TERMS[EncodingId.C1] == frozenset().union(*MINIMAL_CORRECT)
        for enc in ENCODINGS[1:]:
            assert ENCODING_TERMS[enc] in MINIMAL_CORRECT
        assert len({ENCODING_TERMS[e] for e in ENCODINGS}) == 6


class TestClauseCounts:
    def test_three_cycle_default_encoding(self):
        f = encode(CYCLE3, EncodingId.C2)
        assert f.num_vars == 9
        assert f.num_clauses == 25

    def test_single_unattacked_argument(self):
        af = make_af("a", [])
        for enc in ENCODINGS:
            f = encode(af, enc)
            assert f.num_clauses == 8
            assert f.num_vars == 3

    def test_self_attacker_counts(self):
        # tautological undec clauses are dropped
        assert encode(SELF1, EncodingId.C2).num_clauses == 8
        assert encode(SELF1, EncodingId.C1).num_clauses == 10
        for enc in ENCODINGS:
            for clause in encode(SELF1, enc).clauses:
                assert not any(-lit in clause for lit in clause)

    def test_mutual_counts(self):
        assert encode(MUTUAL, EncodingId.C2).num_clauses == 17

    def test_nonempty_toggle(self):
        base = encode(CHAIN3, EncodingId.C2, nonempty=False)
        with_it = encode(CHAIN3, EncodingId.C2, nonempty=True)
        assert with_it.num_clauses == base.num_clauses + 1
        assert with_it.clauses[-1] == (1, 4, 7)

    def test_composition(self):
        """C1 is exactly the union of the smaller encodings' clauses."""
        for af in TINY_BATTERY:
            c1 = set(encode(af, EncodingId.C1).clauses)
            c1a = set(encode(af, EncodingId.C1A).clauses)
            c1b = set(encode(af, EncodingId.C1B).clauses)
            c1c = set(encode(af, EncodingId.C1C).clauses)
            c2 = set(encode(af, EncodingId.C2).clauses)
            c3 = set(encode(af, EncodingId.C3).clauses)
            assert c1 == c1a | c1b == c1a | c1c == c1b | c1c
            assert c2 <= c1 and c3 <= c1

    def test_deterministic(self):
        for enc in ENCODINGS:
            assert encode(CYCLE3, enc) == encode(CYCLE3, enc)


class TestModelSets:
    def test_models_are_complete_labellings(self):
        """Exhaustive truth-table check: every encoding's models are exactly
        the (non-empty) complete labellings."""
        for af in TINY_BATTERY:
            want = expected_models(af, nonempty=True)
            for enc in ENCODINGS:
                got = formula_models(encode(af, enc))
                assert got == want, (af, enc)

    def test_models_without_nonempty_clause(self):
        for af in TINY_BATTERY:
            want = expected_models(af, nonempty=False)
            got = formula_models(encode(af, EncodingId.C2, nonempty=False))
            assert got == want, af

    def test_self_attacker_is_unsat_with_nonempty(self):
        assert formula_models(encode(SELF1, EncodingId.C2)) == set()
        only = formula_models(encode(SELF1, EncodingId.C2, nonempty=False))
        assert only == {(False, False, True)}


class TestModelDecoding:
    def test_round_trip(self):
        v = VarLayout(3)
        model = [None, True, False, False, False, True, False, True, False, False]
        lab = model_to_labelling(v, model)
        assert lab.labels == (IN, OUT, IN)

    def test_rejects_broken_exclusivity(self):
        v = VarLayout(1)
        with pytest.raises(ValueError):
            model_to_labelling(v, [None, True, True, False])
        with pytest.raises(ValueError):
            model_to_labelling(v, [None, False, False, False])

    def test_satisfies(self):
        f = CnfFormula(2, [[1, -2], [2]])
        assert satisfies(f, [None, True, True])
        assert not satisfies(f, [None, False, True])


class TestDimacs:
    SELF1_C2 = ("p cnf 3 8\n"
                "1 2 3 0\n-1 -2 0\n-1 -3 0\n-2 -3 0\n"
                "-1 2 0\n-2 1 0\n-3 -1 0\n1 0\n")

    def test_golden_bytes(self):
        assert to_dimacs(encode(SELF1, EncodingId.C2)) == self.SELF1_C2

    def test_comments(self):
        comments = standard_comments(MUTUAL, EncodingId.C2, source="mutual.apx")
        text = to_dimacs(encode(MUTUAL, EncodingId.C2), comments)
        assert "c complete-labelling encoding C2\n" in text
        assert "c source: mutual.apx\n" in text
        assert "c arg 1 = a\n" in text and "c arg 2 = b\n" in text
        assert text.index("c arg") < text.index("p cnf")

    def test_round_trip(self):
        for af in TINY_BATTERY:
            for enc in ENCODINGS:
                f = encode(af, enc)
                assert parse_dimacs(to_dimacs(f)) == f

    def test_parse_tolerance(self):
        f = parse_dimacs("c hi\np cnf 2 2\n1 -2 0\n\n2 0\n%\n")
        assert f.clauses == ((1, -2), (2,))
        # clause split across lines, missing final 0
        f = parse_dimacs("p cnf 3 1\n1 2\n3\n")
        assert f.clauses == ((1, 2, 3),)
        # SATLIB files end with a '%' line and a lone 0 after it
        f = parse_dimacs("p cnf 2 1\n1 -2 0\n%\n0\n\n")
        assert f.clauses == ((1, -2),)

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="problem line"):
            parse_dimacs("1 2 0\n")
        with pytest.raises(ValueError, match="bad problem line"):
            parse_dimacs("p cnf 2\n")
        with pytest.raises(ValueError, match="bad clause token"):
            parse_dimacs("p cnf 2 1\n1 x 0\n")
        with pytest.raises(ValueError, match="declares"):
            parse_dimacs("p cnf 2 2\n1 0\n")
        with pytest.raises(ValueError, match="missing problem line"):
            parse_dimacs("c nothing\n")
        for text, message in (
                ("p cnf 1 1\n0\n1 0\n", "line 2: empty clause"),
                ("p cnf 2 2\n1 0 0\n", "line 2: empty clause"),
                ("p cnf 2 2\n1 0\np cnf 2 2\n-1 0\n",
                 "line 3: second problem line"),
                ("p cnf x 1\n1 0\n", "line 1: bad problem line"),
                ("p cnf -2 0\n", "line 1: bad problem line"),
                ("c x\np cnf 2 -1\n", "line 2: bad problem line"),
                ("p cnf 1.5 1\n1 0\n", "line 1: bad problem line"),
                ("p cnf 2 2\n1 2 0\n1 3 0\n",
                 "line 3: literal out of range: 3"),
                ("p cnf 2 1\n1\n-3 0\n", "line 3: literal out of range: -3")):
            with pytest.raises(ValueError, match=message):
                parse_dimacs(text)

    def test_byte_determinism(self):
        a = to_dimacs(encode(CYCLE3, EncodingId.C1), ["x"])
        b = to_dimacs(encode(CYCLE3, EncodingId.C1), ["x"])
        assert a == b

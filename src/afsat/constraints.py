"""Labelling-condition terms and the classification of their subsets.

A complete labelling obeys three conditions, each of which splits into two
implications between an argument's label and the state of its attackers:

* in_fwd:    labelled in      =>  all attackers are out
* in_bwd:    all attackers out => labelled in
* out_fwd:   labelled out     =>  some attacker is in
* out_bwd:   some attacker in  => labelled out
* undec_fwd: labelled undec   =>  no attacker in and some attacker undec
* undec_bwd: no attacker in and some attacker undec => labelled undec

(For an unattacked argument "all attackers out" holds vacuously, so in_bwd
forces it in and undec_fwd forbids undec.)

A subset of the six terms is *correct* when the labellings satisfying it at
every argument are exactly the complete labellings, for every framework.
Exactly five minimal correct subsets exist; a subset is correct iff it
contains one of them. Subsets are classified as weak (admits a non-complete
labelling on some framework), correct_non_redundant (one of the five), or
redundant (correct with spare terms). For weak subsets a concrete witness
is found by exhaustive search over small frameworks.
"""

from enum import Enum
from functools import lru_cache
from itertools import combinations, permutations

from .core import (IN, OUT, UNDEC, ArgumentationFramework,
                   is_complete_labelling)
from .oracle import all_labellings

WEAK = "weak"
CORRECT_NON_REDUNDANT = "correct_non_redundant"
REDUNDANT = "redundant"


class Term(Enum):
    """One implication direction of one labelling condition."""

    IN_FWD = "in_fwd"
    IN_BWD = "in_bwd"
    OUT_FWD = "out_fwd"
    OUT_BWD = "out_bwd"
    UNDEC_FWD = "undec_fwd"
    UNDEC_BWD = "undec_bwd"

    def __repr__(self):
        return f"Term.{self.name}"


TERMS = tuple(Term)

# The five minimal correct subsets: both directions of two conditions, or
# the same direction of all three. They are the term sets of the encodings
# C1a, C1b, C1c, C2 and C3, in that order (cnf.ENCODING_TERMS).
MINIMAL_CORRECT = (
    frozenset({Term.IN_FWD, Term.IN_BWD, Term.OUT_FWD, Term.OUT_BWD}),
    frozenset({Term.OUT_FWD, Term.OUT_BWD, Term.UNDEC_FWD, Term.UNDEC_BWD}),
    frozenset({Term.IN_FWD, Term.IN_BWD, Term.UNDEC_FWD, Term.UNDEC_BWD}),
    frozenset({Term.IN_FWD, Term.OUT_FWD, Term.UNDEC_FWD}),
    frozenset({Term.IN_BWD, Term.OUT_BWD, Term.UNDEC_BWD}),
)


def _term_holds(af, lab, term, a):
    atts = af.attackers(a)
    la = lab.label(a)
    if term is Term.IN_FWD:
        return la != IN or all(lab.label(b) == OUT for b in atts)
    if term is Term.IN_BWD:
        return la == IN or not all(lab.label(b) == OUT for b in atts)
    if term is Term.OUT_FWD:
        return la != OUT or any(lab.label(b) == IN for b in atts)
    if term is Term.OUT_BWD:
        return la == OUT or not any(lab.label(b) == IN for b in atts)
    if term is Term.UNDEC_FWD:
        return la != UNDEC or (not any(lab.label(b) == IN for b in atts)
                               and any(lab.label(b) == UNDEC for b in atts))
    if term is Term.UNDEC_BWD:
        cond = (not any(lab.label(b) == IN for b in atts)
                and any(lab.label(b) == UNDEC for b in atts))
        return la == UNDEC or not cond
    raise ValueError(f"unknown term: {term!r}")


def satisfies_terms(af, lab, terms):
    """True iff the labelling satisfies every given term at every argument."""
    if len(lab) != af.k:
        raise ValueError("labelling size does not match the framework")
    return all(_term_holds(af, lab, t, a)
               for a in range(1, af.k + 1) for t in terms)


@lru_cache(maxsize=None)
def witness_battery(max_args=3):
    """One representative per isomorphism class of frameworks with 1..max_args
    arguments (self-attacks included), in a fixed order."""
    names = "abcdef"
    battery = []
    for n in range(1, max_args + 1):
        pair_space = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        perms = [dict(zip(range(1, n + 1), p))
                 for p in permutations(range(1, n + 1))]
        seen = set()
        for mask in range(1 << len(pair_space)):
            attacks = [pair_space[t] for t in range(len(pair_space))
                       if (mask >> t) & 1]
            canon = min(tuple(sorted((p[i], p[j]) for i, j in attacks))
                        for p in perms)
            if canon in seen:
                continue
            seen.add(canon)
            battery.append(ArgumentationFramework(names[:n], attacks))
    return tuple(battery)


def find_witness(terms):
    """A (framework, labelling) pair satisfying the terms but not complete.

    Searches the frameworks of up to three arguments in a fixed order, so
    witnesses are stable (every weak subset has one on at most two); raises
    LookupError when there is none, as for every correct subset.
    """
    terms = frozenset(terms)
    for af in witness_battery(3):
        for lab in all_labellings(af.k):
            if (satisfies_terms(af, lab, terms)
                    and not is_complete_labelling(af, lab)):
                return af, lab
    raise LookupError(
        f"no witness for {sorted(t.value for t in terms)} on frameworks "
        "with up to 3 arguments")


class Classification:
    """Verdict for one term subset, with a weakness witness when applicable."""

    __slots__ = ("terms", "verdict", "witness")

    def __init__(self, terms, verdict, witness=None):
        self.terms = frozenset(terms)
        self.verdict = verdict
        self.witness = witness

    def __repr__(self):
        return (f"Classification({sorted(t.value for t in self.terms)}, "
                f"{self.verdict!r})")


def classify_subset(terms, find_witnesses=True):
    """Classify one subset of terms as weak / correct_non_redundant / redundant."""
    ts = frozenset(terms)
    if any(m <= ts for m in MINIMAL_CORRECT):
        verdict = CORRECT_NON_REDUNDANT if ts in MINIMAL_CORRECT else REDUNDANT
        return Classification(ts, verdict)
    witness = find_witness(ts) if find_witnesses else None
    return Classification(ts, WEAK, witness)


def all_subsets():
    """All 64 term subsets, by cardinality then fixed term order."""
    out = []
    for r in range(len(TERMS) + 1):
        out.extend(frozenset(c) for c in combinations(TERMS, r))
    return out


def classify_all(find_witnesses=True):
    """Classify all 64 subsets; returns the Classification list in order."""
    return [classify_subset(ts, find_witnesses=find_witnesses)
            for ts in all_subsets()]

"""Preferred- and complete-extension enumeration through a SAT solver.

Preferred extensions are found by maximizing complete extensions on one
long-lived session. Each round first asks, without assumptions, for any
not-yet-covered non-empty complete extension S. It then adds the clause
"some argument outside S is in" and asks again under the assumptions "every
member of S is in", which forces a strict in-set superset; this repeats
until the solver reports none exists, and the last in-set found is
subset-maximal, hence preferred. The growth clauses are added permanently:
each excludes only subsets of the current S, which are subsets of the
round's final extension, and the last one is exactly the clause that
excludes that extension and all its subsets from later rounds. When the
first query of a round is unsatisfiable the enumeration is finished; if
nothing was ever found, the unique preferred extension is the empty set.

The inner loop is correct for any model the solver happens to return, so
any session backend, built-in or external, can drive it.

Every session of a run draws on one budget pool, conflicts or seconds by
backend. A run whose pool runs out is not an error: it returns the
extensions proven so far with ``complete`` False, and the acceptance
functions answer None where such a run cannot decide.
"""

import time

from .cnf import EncodingId, VarLayout, encode, model_in_args
from .solver import BudgetExhausted, Solver


class EnumerationResult:
    """Extensions found plus search statistics.

    ``extensions`` is a tuple of frozensets of argument indices, sorted by
    size descending then by member names; ``complete`` is False when the
    session budget ran out, and ``extensions`` then holds only those
    proven so far.
    """

    __slots__ = ("semantics", "encoding", "extensions", "stats", "complete")

    def __init__(self, semantics, encoding, extensions, stats, complete=True):
        self.semantics = semantics
        self.encoding = encoding
        self.extensions = tuple(extensions)
        self.stats = dict(stats)
        self.complete = complete

    def __repr__(self):
        return (f"EnumerationResult({self.semantics!r}, {self.encoding.value},"
                f" {len(self.extensions)} extensions, complete={self.complete})")


def _sorted_extensions(af, extensions):
    def key(s):
        return (-len(s), tuple(sorted(af.name(i) for i in s)))
    return sorted(extensions, key=key)


def enumerate_preferred(af, encoding=EncodingId.C2, session_factory=None):
    """All preferred extensions of a framework; a partial result when the
    session budget runs out."""
    factory = session_factory or Solver.from_formula
    layout = VarLayout(af.k)
    all_args = frozenset(range(1, af.k + 1))
    session = factory(encode(af, encoding, nonempty=True))
    found = []
    sat_calls = 0
    inner_iterations = 0
    outer_iterations = 0
    t0 = time.perf_counter()
    complete = True
    try:
        while True:
            outer_iterations += 1
            assumptions = ()
            candidate = None
            while True:
                inner_iterations += 1
                sat_calls += 1
                model = session.solve(assumptions)
                if model is None:
                    break
                candidate = model_in_args(layout, model)
                # grow: require one more argument; when the candidate covers
                # everything the clause is empty and correctly makes the
                # session permanently unsatisfiable
                session.add_clause([layout.in_var(a)
                                    for a in sorted(all_args - candidate)])
                if candidate == all_args:
                    break
                assumptions = [layout.in_var(a) for a in sorted(candidate)]
            if candidate is None:
                break
            found.append(candidate)
    except BudgetExhausted:
        complete = False
    # the empty set is preferred only when a finished run found nothing
    if complete and not found:
        found.append(frozenset())
    stats = {"sat_calls": sat_calls,
             "inner_iterations": inner_iterations,
             "outer_iterations": outer_iterations,
             "wall_time_s": time.perf_counter() - t0}
    return EnumerationResult("preferred", encoding,
                             _sorted_extensions(af, found), stats, complete)


def enumerate_complete(af, encoding=EncodingId.C2, session_factory=None):
    """All complete extensions of a framework (the empty one included when
    it is complete), by blocking each found in-set projection; a partial
    result when the session budget runs out."""
    factory = session_factory or Solver.from_formula
    layout = VarLayout(af.k)
    all_args = frozenset(range(1, af.k + 1))
    session = factory(encode(af, encoding, nonempty=False))
    found = []
    sat_calls = 0
    t0 = time.perf_counter()
    complete = True
    try:
        while True:
            sat_calls += 1
            model = session.solve()
            if model is None:
                break
            s = model_in_args(layout, model)
            found.append(s)
            blocking = ([-layout.in_var(a) for a in sorted(s)]
                        + [layout.in_var(a) for a in sorted(all_args - s)])
            session.add_clause(blocking)
    except BudgetExhausted:
        complete = False
    stats = {"sat_calls": sat_calls,
             "inner_iterations": sat_calls,
             "outer_iterations": 0,
             "wall_time_s": time.perf_counter() - t0}
    return EnumerationResult("complete", encoding,
                             _sorted_extensions(af, found), stats, complete)


def credulous_accept(af, a, encoding=EncodingId.C2, session_factory=None):
    """True iff argument index a is in at least one preferred extension;
    None when the session budget runs out.

    Membership in any complete extension suffices, so this is a single
    satisfiability call with the argument forced in.
    """
    factory = session_factory or Solver.from_formula
    layout = VarLayout(af.k)
    session = factory(encode(af, encoding, nonempty=True))
    session.add_clause([layout.in_var(a)])
    try:
        return session.solve() is not None
    except BudgetExhausted:
        return None


def skeptical_answer(result, a):
    """Whether argument index a is in every preferred extension, read off
    an enumeration result; None when a partial result cannot tell. A
    finished complete-semantics result answers over its subset-maximal
    members, which are the preferred extensions."""
    preferred = result.extensions
    if result.semantics == "complete":
        if not result.complete:
            return None  # any proven extension may grow to one holding a
        preferred = []
        for s in result.extensions:  # by size descending: supersets first
            if not any(s <= p for p in preferred):
                preferred.append(s)
    accepted = all(a in s for s in preferred)
    # a partial preferred result proves only rejections
    return None if accepted and not result.complete else accepted


def skeptical_accept(af, a, encoding=EncodingId.C2, session_factory=None):
    """True iff argument index a is in every preferred extension; False or
    None as ``skeptical_answer`` gives when the session budget runs out."""
    return skeptical_answer(
        enumerate_preferred(af, encoding, session_factory), a)

"""Preferred- and complete-extension enumeration through a SAT solver.

A run first computes the grounded labelling in linear time: an argument
is in once all its attackers are out, and out once one of its attackers
is in; the rest are undecided. Every complete labelling agrees with the
grounded one on the arguments it labels. A grounded in-argument attacks
only out-arguments, so an argument the pass leaves undecided has all its
attackers outside its weakly connected component (of the undecided
arguments) labelled out. The complete (preferred) extensions are
therefore the grounded in-set joined with one complete (preferred)
extension of each component's induced subframework, in every
combination. Only the components reach the solver, each on a session of
its own from the run's one factory; a framework the grounded pass
decides takes no SAT call at all.

Preferred extensions of a component are found by maximizing complete
extensions on one long-lived session. Each round first asks, without
assumptions, for any not-yet-covered non-empty complete extension S. It
then adds the clause "some argument outside S is in" and asks again under
the assumptions "every member of S is in", which forces a strict in-set
superset; this repeats until the solver reports none exists, and the last
in-set found is subset-maximal, hence preferred. The growth clauses are
added permanently: each excludes only subsets of the current S, which are
subsets of the round's final extension, and the last one is exactly the
clause that excludes that extension and all its subsets from later rounds.
When the first query of a round is unsatisfiable the component is
finished; if nothing was ever found, its unique preferred extension is the
empty set. Complete extensions of a component are found by blocking each
in-set projection in turn.

The inner loop is correct for any model the solver happens to return, so
any session backend, built-in or external, can drive it.

Every session of a run draws on one budget pool, conflicts or seconds by
backend. A run whose pool runs out is not an error: it returns the
extensions proven so far with ``complete`` False, and the acceptance
functions answer None where such a run cannot decide. The components are
solved round-robin, first one extension from each, then each to the end,
so that a partial run soon proves whole extensions: the products of the
extensions each component has proven. ``stats`` are summed over the
components.
"""

import time
from itertools import islice, product

from .cnf import EncodingId, VarLayout, encode
from .core import ArgumentationFramework
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


def grounded_labelling(af):
    """The in- and out-sets of the grounded labelling, as two frozensets;
    every other argument is undec. Linear in the attacks."""
    attackees = af._attackees  # read directly: no method call per visit
    live = list(map(len, af._attackers))  # entry 0 is the empty tuple's
    g_in = [a for a in range(1, len(live)) if not live[a]]
    g_out = set()
    for a in g_in:  # grows while it is walked; each argument joins once
        for b in attackees[a]:
            if b not in g_out:
                g_out.add(b)
                for c in attackees[b]:
                    live[c] -= 1  # one attacker fewer that is not yet out
                    if not live[c]:
                        g_in.append(c)
    return frozenset(g_in), frozenset(g_out)


def _components(af, decided, starts):
    """The weakly connected components of the undecided arguments reached
    from ``starts``, each as an ascending index list, in order of their
    first start."""
    seen = set(decided)
    out = []
    for a in starts:
        if a in seen:
            continue
        seen.add(a)
        component = [a]
        for x in component:  # grows while it is walked
            for y in af.attackers(x) + af.attackees(x):
                if y not in seen:
                    seen.add(y)
                    component.append(y)
        out.append(sorted(component))
    return out


def _subframework(af, component):
    """The framework induced by an ascending index list; its argument i is
    ``component[i - 1]``."""
    local = {a: i for i, a in enumerate(component, start=1)}
    names = tuple(map(af.name, component))
    return ArgumentationFramework._checked(
        names, {name: i for i, name in enumerate(names, start=1)},
        [(i, local[b]) for a, i in local.items()
         for b in af.attackees(a) if b in local])


def _preferred_of(sub, component, encoding, factory, stats):
    """Preferred extensions of one component as each is proven, each as
    an ascending list of framework indices; the empty one once the search
    finishes without any. ``sub`` is the component's subframework."""
    in_vars = range(1, 3 * sub.k + 1, 3)  # VarLayout.in_var of 1..k
    session = factory(encode(sub, encoding, nonempty=True))
    found = False
    while True:
        stats["outer_iterations"] += 1
        assumptions = ()
        members = None
        while True:
            stats["inner_iterations"] += 1
            stats["sat_calls"] += 1
            model = session.solve(assumptions)
            if model is None:
                break
            # grow: require one more argument (never none: each argument
            # of a component has an attacker in it, so no extension is all)
            session.add_clause([v for v in in_vars if not model[v]])
            assumptions = members = [v for v in in_vars if model[v]]
        if members is None:
            break
        found = True
        yield [component[v // 3] for v in members]
    if not found:
        yield []


def _complete_of(sub, component, encoding, factory, stats):
    """Complete extensions of one component, each blocked once proven, as
    ascending lists of framework indices."""
    in_vars = range(1, 3 * sub.k + 1, 3)  # VarLayout.in_var of 1..k
    session = factory(encode(sub, encoding, nonempty=False))
    while True:
        stats["inner_iterations"] += 1
        stats["sat_calls"] += 1
        model = session.solve()
        if model is None:
            return
        members = [v for v in in_vars if model[v]]
        yield [component[v // 3] for v in members]
        session.add_clause([-v for v in members]
                           + [v for v in in_vars if not model[v]])


def _run(af, semantics, encoding, session_factory, extensions_of):
    """The grounded in-set joined with every combination of one extension
    per component, as ``extensions_of`` proves them, in the documented
    order.

    Each component extension gets one integer key: its size, shifted
    above one bit per undecided argument, where the first undecided name
    in name order holds the highest bit. Components are disjoint and the
    grounded in-set is in every extension, so the sum of a combination's
    keys orders the joined extensions as (size descending, sorted member
    names) does, once the sums are sorted descending."""
    factory = session_factory or Solver.from_formula
    t0 = time.perf_counter()
    g_in, g_out = grounded_labelling(af)
    stats = {"sat_calls": 0, "inner_iterations": 0, "outer_iterations": 0}
    components = _components(af, g_in | g_out, range(1, af.k + 1))
    runs = [extensions_of(_subframework(af, c), c, encoding, factory, stats)
            for c in components]
    undecided = sorted([a for c in components for a in c], key=af.name)
    bit = [0] * (af.k + 1)
    for r, a in enumerate(reversed(undecided)):
        bit[a] = 1 << r
    width = len(undecided)
    proven = [[] for _ in components]
    keys = [[] for _ in components]
    complete = True
    try:
        # one extension from each component first (each has at least one),
        # then each to its end, so that a partial run reports a product
        # as soon as it can
        for take in (1, None):
            for run, found, found_keys in zip(runs, proven, keys):
                for part in islice(run, take):
                    found.append(frozenset(part))
                    found_keys.append((len(part) << width)
                                      + sum(map(bit.__getitem__, part)))
    except BudgetExhausted:
        complete = False
    # keys are distinct, as the extensions are
    by_key = dict(zip(map(sum, product(*keys)), product(*proven)))
    extensions = [g_in.union(*by_key[key])
                  for key in sorted(by_key, reverse=True)]
    stats["wall_time_s"] = time.perf_counter() - t0
    return EnumerationResult(semantics, encoding, extensions, stats,
                             complete)


def enumerate_preferred(af, encoding=EncodingId.C2, session_factory=None):
    """All preferred extensions of a framework; a partial result when the
    session budget runs out."""
    return _run(af, "preferred", encoding, session_factory, _preferred_of)


def enumerate_complete(af, encoding=EncodingId.C2, session_factory=None):
    """All complete extensions of a framework (the empty one included when
    it is complete); a partial result when the session budget runs out."""
    return _run(af, "complete", encoding, session_factory, _complete_of)


def _check_index(af, a):
    if not 1 <= a <= af.k:
        raise ValueError(f"argument index {a} is outside 1..{af.k}")


def credulous_accept(af, a, encoding=EncodingId.C2, session_factory=None):
    """True iff argument index a is in at least one preferred extension;
    None when the session budget runs out. An index outside 1..k raises
    ValueError.

    Membership in any complete extension suffices. The grounded labelling
    decides the arguments it labels in or out without a SAT call; any
    other argument takes one satisfiability call on its component, with
    the argument forced in.
    """
    _check_index(af, a)
    g_in, g_out = grounded_labelling(af)
    if a in g_in or a in g_out:
        return a in g_in
    component = _components(af, g_in | g_out, [a])[0]
    sub = _subframework(af, component)
    factory = session_factory or Solver.from_formula
    session = factory(encode(sub, encoding, nonempty=True))
    session.add_clause([VarLayout(sub.k).in_var(component.index(a) + 1)])
    try:
        return session.solve() is not None
    except BudgetExhausted:
        return None


def credulous_answer(result, a):
    """Whether argument index a is in some preferred extension, read off an
    enumeration result of either semantics (every complete extension lies
    inside a preferred one); None when a partial result cannot tell."""
    if any(a in s for s in result.extensions):
        return True
    return False if result.complete else None


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
    None as ``skeptical_answer`` gives when the session budget runs out. An
    index outside 1..k raises ValueError."""
    _check_index(af, a)
    return skeptical_answer(
        enumerate_preferred(af, encoding, session_factory), a)

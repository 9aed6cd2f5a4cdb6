"""Built-in CDCL SAT solver.

A deterministic conflict-driven clause-learning solver: two-watched-literal
propagation, first-UIP conflict analysis, exponentially decayed variable
activities with saved phases, and geometric restarts. Each decision scans
the activities for the unassigned variable with the highest one; ties break
toward the lowest variable index, so runs are reproducible.

Per-literal arrays are indexed by the literal itself, -v landing at slot
2n+1-v by negative indexing; slot 0 belongs to no literal and holds False,
so entries 0..n of a full assignment are the model ``solve()`` returns.

Sessions are incremental in one direction only: clauses can be added
between ``solve()`` calls, never removed. Restricted subproblems are solved
under assumptions (MiniSat-style, Eén & Sörensson 2003): ``solve(lits)``
decides the given literals first and holds only for that call, while
every learned clause stays, since it follows from the clauses alone.

A run is bounded by one ``Budget`` pool that every call of every session
built by one factory draws on: conflicts here, wall-clock seconds for the
external backend (``extsolver``).
"""

import math
from itertools import compress, repeat
from operator import is_

from .cnf import check_literals, normalize_clause


class BudgetExhausted(RuntimeError):
    """The budget ran out before the call could finish."""


class Budget:
    """Pool shared by every solve() call of the sessions that hold it, in
    the unit of their backend: conflicts or seconds. ``remaining`` goes
    negative once more than ``limit`` was spent."""

    __slots__ = ("limit", "used")

    def __init__(self, limit):
        if not 0 < limit < math.inf:  # NaN fails too
            raise ValueError(f"budget must be positive and finite: {limit}")
        self.limit = limit
        self.used = 0

    @property
    def remaining(self):
        return self.limit - self.used

    def spend(self, n):
        self.used += n


class Solver:
    """One solving session over a fixed variable range."""

    RESTART_FIRST = 100
    RESTART_MULT = 1.5
    VAR_DECAY = 0.95

    def __init__(self, num_vars, budget=None):
        if num_vars < 0:
            raise ValueError("negative variable count")
        n = num_vars
        self.num_vars = n
        # literal state True/False/None and watch lists, indexed by literal
        # (-v at 2n+1-v); slot 0 holds False, entry 0 of every model
        self._val = [False] + [None] * (2 * n)
        self._watches = [[] for _ in range(2 * n + 1)]
        self._trail = []
        self._trail_lim = []
        self._qhead = 0
        self._reason = [None] * (n + 1)
        self._level = [0] * (n + 1)
        self._activity = [0.0] * (n + 1)
        self._phase = [False] * (n + 1)
        self._var_inc = 1.0
        self._unsat = False
        self._budget = budget
        self.stats = {"decisions": 0, "propagations": 0, "conflicts": 0,
                      "restarts": 0}

    @classmethod
    def from_formula(cls, formula, budget=None):
        """Session over a CnfFormula.

        The formula's clauses are already range-checked, free of duplicate
        literals and tautologies, and non-empty, so they skip add_clause.
        Units are assigned and longer clauses attached as they are; nothing
        has propagated yet, so the first propagation sees every clause,
        including those whose watched literals the units falsify.
        """
        s = cls(formula.num_vars, budget=budget)
        for clause in formula.clauses:
            if len(clause) == 1:
                cur = s._val[clause[0]]
                if cur is None:
                    s._assign(clause[0], None)
                elif cur is False:
                    s._unsat = True
                    break
            else:
                s._attach(list(clause))
        return s

    # ------------------------------------------------------------------
    # assignment plumbing

    def _assign(self, lit, reason):
        self._val[lit] = True
        self._val[-lit] = False
        v = lit if lit > 0 else -lit
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _backtrack(self, target):
        if len(self._trail_lim) <= target:
            return
        limit = self._trail_lim[target]
        trail = self._trail
        val = self._val
        # _analyze reads only the current level's reasons, so stale ones stay;
        # deleting a clause must check that its variable is assigned first,
        # as MiniSat's locked does
        for lit in trail[limit:]:
            v = lit if lit > 0 else -lit
            self._phase[v] = lit > 0
            val[lit] = None
            val[-lit] = None
        del trail[limit:]
        del self._trail_lim[target:]
        self._qhead = limit

    # ------------------------------------------------------------------
    # clause management

    def add_clause(self, lits):
        """Add a clause; legal between solve() calls.

        The clause is normalized by normalize_clause, so tautologies are
        skipped. Literals false under the fixed (level-0) assignments are
        dropped and clauses already satisfied there are skipped. An empty
        clause, or a unit contradicting the fixed assignments, makes the
        session permanently unsatisfiable.
        """
        clause = normalize_clause(lits, self.num_vars)
        if clause is None or self._unsat:
            return
        self._backtrack(0)
        out = []
        for lit in clause:
            cur = self._val[lit]
            if cur is True:
                return
            if cur is None:
                out.append(lit)
        if not out:
            self._unsat = True
            return
        if len(out) == 1:
            self._assign(out[0], None)  # unassigned at level 0, as filtered
            return
        self._attach(out)

    def _attach(self, clause):
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    # ------------------------------------------------------------------
    # search

    def _propagate(self):
        val = self._val
        watches = self._watches
        trail = self._trail
        props = 0
        confl = None
        while confl is None and self._qhead < len(trail):
            lit = trail[self._qhead]
            self._qhead += 1
            props += 1
            fl = -lit  # the literal that just became false
            wl = watches[fl]
            i = j = 0
            end = len(wl)
            while i < end:
                clause = wl[i]
                i += 1
                if clause[0] == fl:
                    clause[0] = clause[1]
                    clause[1] = fl
                first = clause[0]
                fv = val[first]
                if fv is True:
                    wl[j] = clause
                    j += 1
                    continue
                for t in range(2, len(clause)):
                    lt = clause[t]
                    if val[lt] is not False:
                        clause[1] = lt
                        clause[t] = fl
                        watches[lt].append(clause)
                        break
                else:
                    wl[j] = clause
                    j += 1
                    if fv is False:
                        confl = clause
                        break
                    self._assign(first, clause)
            del wl[j:i]  # on a conflict the unvisited tail wl[i:] stays
        self.stats["propagations"] += props
        return confl

    def _bump(self, v):
        act = self._activity[v] + self._var_inc
        self._activity[v] = act
        if act > 1e100:
            self._activity = [a * 1e-100 for a in self._activity]
            self._var_inc *= 1e-100

    def _analyze(self, confl):
        level = self._level
        reason = self._reason
        trail = self._trail
        seen = set()
        cur = len(self._trail_lim)
        learnt = [0]
        counter = 0
        p = None
        idx = len(trail) - 1
        c = confl
        while True:
            # skip c[0] for reason clauses: it is the implied literal itself
            for t in range(0 if p is None else 1, len(c)):
                q = c[t]
                v = q if q > 0 else -q
                if v not in seen and level[v] > 0:
                    seen.add(v)
                    self._bump(v)
                    if level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                p = trail[idx]
                v = p if p > 0 else -p
                idx -= 1
                if v in seen:
                    break
            counter -= 1
            if counter == 0:
                break
            # only the decision lacks a reason and it is consumed last
            c = reason[v]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        mi = 1
        for t in range(2, len(learnt)):
            if level[abs(learnt[t])] > level[abs(learnt[mi])]:
                mi = t
        learnt[1], learnt[mi] = learnt[mi], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _decide(self):
        # max returns the first maximum, so ties go to the lowest index
        n = self.num_vars
        v = max(compress(range(1, n + 1), map(is_, self._val[1:n + 1],
                                              repeat(None))),
                key=self._activity.__getitem__)
        self._trail_lim.append(len(self._trail))
        self._assign(v if self._phase[v] else -v, None)
        self.stats["decisions"] += 1

    def solve(self, assumptions=()):
        """Search for a model of everything added so far, under assumptions.

        ``assumptions`` are literals that must hold in the model; they are
        decided first, one decision level each, and are forgotten when the
        call returns. Returns a new list indexed by variable (entry 0
        False, True/False per variable) or None when unsatisfiable under
        the assumptions. Only unsatisfiability without assumptions is
        permanent. A literal that check_literals rejects raises ValueError.
        Raises BudgetExhausted when the shared conflict budget runs out;
        the outcome is then unknown and the session stays usable. A call
        that propagation alone refutes, before any decision, spends no
        budget.
        """
        if self._unsat:
            return None
        n = self.num_vars
        if assumptions:  # most calls have none: skip the check's bookkeeping
            check_literals(assumptions, n)
        self._backtrack(0)
        if self._propagate() is not None:
            # refuted by propagation alone: no search, so no budget spent
            self.stats["conflicts"] += 1
            self._unsat = True
            return None
        val = self._val
        trail_lim = self._trail_lim
        num_assumptions = len(assumptions)
        restart_limit = self.RESTART_FIRST
        since_restart = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.stats["conflicts"] += 1
                if self._budget is not None:
                    self._budget.spend(1)
                    if self._budget.remaining < 0:
                        self._backtrack(0)
                        raise BudgetExhausted("conflict budget exhausted")
                if not trail_lim:
                    self._unsat = True
                    return None
                learnt, bt = self._analyze(confl)
                self._backtrack(bt)
                if len(learnt) > 1:
                    self._attach(learnt)
                self._assign(learnt[0], learnt)  # a level-0 reason is unread
                self._var_inc /= self.VAR_DECAY
                since_restart += 1
            else:
                if since_restart >= restart_limit:
                    since_restart = 0
                    restart_limit = int(restart_limit * self.RESTART_MULT)
                    self.stats["restarts"] += 1
                    self._backtrack(0)
                    continue
                if len(trail_lim) < num_assumptions:
                    lit = assumptions[len(trail_lim)]
                    cur = val[lit]
                    if cur is False:
                        # the clauses imply the negation of an assumption
                        self._backtrack(0)
                        return None
                    # an assumption already true gets an empty level, so
                    # that level i always belongs to assumption i
                    trail_lim.append(len(self._trail))
                    if cur is None:
                        self._assign(lit, None)
                    continue
                if len(self._trail) == n:
                    model = val[:n + 1]
                    self._backtrack(0)
                    return model
                self._decide()


def parse_backend(spec):
    """Solver backend spec ``builtin`` or ``ext:<command>`` as ``("builtin",)``
    or ``("ext", command)``; None when the spec is neither."""
    if spec == "builtin":
        return ("builtin",)
    if spec.startswith("ext:") and spec[4:]:
        return ("ext", spec[4:])
    return None


def builtin_session_factory(conflict_budget=None):
    """Session factory for enumeration runs.

    Every session produced by one factory, across all of its solve()
    calls, draws on a single pool of ``conflict_budget`` conflicts when
    one is set.
    """
    budget = None if conflict_budget is None else Budget(conflict_budget)

    def make(formula):
        return Solver.from_formula(formula, budget=budget)

    return make

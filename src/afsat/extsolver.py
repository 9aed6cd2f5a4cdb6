"""Bridge to external DIMACS solvers run as subprocesses.

The bridge writes the formula to a temporary DIMACS file in the system
temporary directory (``TMPDIR`` when set), invokes the configured command
with that path appended, and reads the stock solver output protocol from
stdout: an ``s SATISFIABLE`` / ``s UNSATISFIABLE`` / ``s UNKNOWN`` status
line plus ``v`` value lines for models. Variables the solver leaves
unmentioned default to false. Every reported model is re-verified in
process against the exact formula that was written; a model that does not
check out, or output with no status line, is a protocol error. A
wall-clock timeout (or an UNKNOWN verdict) surfaces as the same budget
outcome the built-in solver uses, never as unsatisfiable.

``ExternalSession`` wraps the one-shot bridge in the session interface the
enumeration code expects (``add_clause`` / ``solve(assumptions=())``) by
keeping the clause list and re-emitting the whole accumulated formula on
every call, with that call's assumptions added as unit clauses. Kept
clauses are normalized once, when they are added; each call checks only
its assumptions, by the same clause rule. The
sessions of one factory share one ``Budget`` pool of seconds, as the
built-in solver's share one of conflicts: each call may run for what is
left of it and then spends the wall time it took.
"""

import math
import operator
import os
import subprocess
import tempfile
import time

from .cnf import (CnfFormula, check_literals, normalize_clause, satisfies,
                  to_dimacs)
from .solver import Budget, BudgetExhausted


# subprocess waits through poll(), whose timeout is a C int of milliseconds
MAX_BUDGET_S = 2_147_483


class SolverProtocolError(RuntimeError):
    """The external solver produced unusable output."""


def check_budget_s(budget_s):
    """``budget_s`` if subprocess can wait that many seconds: positive,
    finite and at most MAX_BUDGET_S; ValueError otherwise."""
    if not 0 < budget_s < math.inf:  # NaN fails too
        raise ValueError(f"budget must be positive and finite: {budget_s}")
    if budget_s > MAX_BUDGET_S:
        raise ValueError(f"budget must be at most {MAX_BUDGET_S} s: "
                         f"{budget_s}")
    return budget_s


def _command_list(command):
    """The executable plus fixed arguments as a list; a string is one item."""
    command = [command] if isinstance(command, str) else list(command)
    if not command:
        raise ValueError("empty solver command")
    return command


def _parse_output(stdout):
    status = None
    values = []
    for line in stdout.splitlines():
        if line.startswith("s ") or line == "s":
            status = line[1:].strip()
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                try:
                    values.append(int(tok))
                except ValueError:
                    raise SolverProtocolError(
                        f"bad value token in solver output: {tok!r}") from None
    return status, values


def solve_external(command, formula, timeout=None):
    """Run the external solver on a formula.

    ``command`` is the executable plus fixed arguments; the DIMACS path is
    appended as the final argument. ``timeout`` is a wall-clock limit in
    seconds (None for unlimited). Returns a model (list indexed by
    variable) or None for unsatisfiable; raises BudgetExhausted on timeout
    or an UNKNOWN verdict and SolverProtocolError on anything
    unintelligible.
    """
    command = _command_list(command)
    fd, path = tempfile.mkstemp(suffix=".cnf", prefix="afsat-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(to_dimacs(formula))
        try:
            proc = subprocess.run(command + [path], capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BudgetExhausted(
                f"external solver exceeded {timeout}s") from None
        except OSError as exc:
            raise SolverProtocolError(
                f"cannot run {command[0]!r}: {exc}") from None
    finally:
        os.unlink(path)

    status, values = _parse_output(proc.stdout)
    if status == "SATISFIABLE":
        model = [False] * (formula.num_vars + 1)
        for lit in values:
            if lit == 0:
                continue
            var = abs(lit)
            if var > formula.num_vars:
                raise SolverProtocolError(
                    f"model mentions unknown variable {var}")
            model[var] = lit > 0
        if not satisfies(formula, model):
            raise SolverProtocolError(
                "external solver returned a model that does not satisfy "
                "the formula it was given")
        return model
    if status == "UNSATISFIABLE":
        return None
    if status == "UNKNOWN":
        raise BudgetExhausted("external solver gave up (s UNKNOWN)")
    raise SolverProtocolError(
        f"no status line in solver output (exit code {proc.returncode})")


class ExternalSession:
    """Session interface over the one-shot bridge.

    Keeps the accumulated clause list and re-emits the whole formula for
    every solve() call, so external solvers need no incremental mode.
    """

    def __init__(self, command, formula, budget=None):
        self._command = command
        self._budget = budget
        self.num_vars = formula.num_vars
        self._clauses = list(formula.clauses)
        self._unsat = False
        self.stats = {"calls": 0}

    def add_clause(self, lits):
        """Add a clause normalized by normalize_clause; an empty clause makes
        the session permanently unsatisfiable."""
        clause = normalize_clause(lits, self.num_vars)
        if clause == ():
            self._unsat = True
        elif clause is not None:
            self._clauses.append(clause)

    def solve(self, assumptions=()):
        """Model of the accumulated clauses plus the assumptions (a
        sequence, as for Solver.solve) as units, or None. The assumptions
        belong to this call only; a literal that add_clause would reject
        raises ValueError. Raises BudgetExhausted,
        without starting the solver, once the shared budget has no seconds
        left."""
        if self._unsat:
            return None
        budget = self._budget
        timeout = None if budget is None else budget.remaining
        if timeout is not None and timeout <= 0:
            raise BudgetExhausted(f"budget of {budget.limit}s exhausted")
        start = time.monotonic()
        n = self.num_vars
        if assumptions:
            check_literals(assumptions, n)  # a rejected call is not counted
        formula = CnfFormula._normalized(
            n, self._clauses + [(operator.index(lit),) for lit in assumptions])
        self.stats["calls"] += 1
        try:
            return solve_external(self._command, formula, timeout)
        finally:
            if budget is not None:
                budget.spend(time.monotonic() - start)


def external_session_factory(command, budget_s=None):
    """Session factory running every SAT call through an external solver.

    Every session produced by one factory, across all of its solve()
    calls, draws on a single pool of ``budget_s`` seconds when one is set;
    check_budget_s rules which are allowed.
    """
    command = _command_list(command)
    budget = None if budget_s is None else Budget(check_budget_s(budget_s))

    def make(formula):
        return ExternalSession(command, formula, budget)

    return make

"""Per-layer spans and counters for the traced benchmark run.

The program itself is not edited: ``Tracer.installed()`` replaces the
public entry point of each layer with a timing wrapper for the duration of
a ``with`` block and puts the originals back afterwards.

* ``afsat.fileformats.parse``                  -> span ``fileformats.parse``
* ``afsat.enumeration.encode``                 -> span ``cnf.encode``
* ``afsat.solver.builtin_session_factory``     -> span ``solver.build`` per
  session, and a proxy per session whose ``solve``, ``add_clause`` and
  ``clone`` calls get spans ``solver.solve``, ``solver.add_clause`` and
  ``solver.clone`` (clones are proxied in turn)
* ``afsat.enumeration.enumerate_preferred`` /
  ``enumerate_complete``                       -> span ``enumeration.run``
* the benchmark's own call of ``afsat.cli.main`` -> span ``cli.main``

The CLI looks up ``parse``, ``builtin_session_factory`` and the two
enumerators at call time, and ``enumeration`` calls ``encode`` through its
module global, so replacing the module attributes reaches every call made
by ``afsat enumerate``.

Spans stay in memory as ``(request, span_id, parent_id, name, start, end)``
tuples until the run writes them out.
"""

import contextlib
import json
from time import perf_counter

import afsat.enumeration
import afsat.fileformats
import afsat.solver

# Counters summed over every session of a request, clones included.
SOLVER_STATS = ("conflicts", "propagations", "decisions", "restarts")


class Tracer:
    """Spans of a whole run and the counters of the current request."""

    def __init__(self):
        self.spans = []
        self.request = None
        self.counts = {}
        self._stack = []
        self._sessions = []

    # ------------------------------------------------------------------
    # spans and counters

    def begin_request(self, request_id):
        self.request = request_id
        self.counts = {}
        self._sessions = []

    def end_request(self):
        """Counters of the request that just finished."""
        for session in self._sessions:
            stats = getattr(session, "stats", {})
            for key in SOLVER_STATS:
                self.count("solver." + key, stats.get(key, 0))
        self._sessions = []
        return self.counts

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; the span is recorded even if fn raises."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id so children sort after it
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = (self.request, span_id, parent, name,
                                   start, end)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # ------------------------------------------------------------------
    # wrappers around the layers' entry points

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_encode(self, fn):
        def encode(*args, **kwargs):
            formula = self.call("cnf.encode", fn, *args, **kwargs)
            self.count("cnf.clauses", len(formula.clauses))
            self.count("cnf.literals", sum(map(len, formula.clauses)))
            return formula
        return encode

    def _wrap_factory(self, factory):
        def traced_factory(*args, **kwargs):
            make = factory(*args, **kwargs)

            def traced_make(formula):
                return _Session(self, self.call("solver.build", make, formula))
            return traced_make
        return traced_factory

    @contextlib.contextmanager
    def installed(self):
        """Replace the layers' entry points with wrappers inside the block."""
        patches = [
            (afsat.fileformats, "parse",
             lambda fn: self._wrap("fileformats.parse", fn)),
            (afsat.enumeration, "encode", self._wrap_encode),
            (afsat.solver, "builtin_session_factory", self._wrap_factory),
            (afsat.enumeration, "enumerate_preferred",
             lambda fn: self._wrap("enumeration.run", fn)),
            (afsat.enumeration, "enumerate_complete",
             lambda fn: self._wrap("enumeration.run", fn)),
        ]
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _ in patches]
        for (module, attr, wrap), (_, _, original) in zip(patches, saved):
            setattr(module, attr, wrap(original))
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


class _Session:
    """Timing proxy for one solver session; other attributes pass through."""

    def __init__(self, tracer, session):
        self._tracer = tracer
        self._session = session
        tracer._sessions.append(session)

    def solve(self, *args, **kwargs):
        model = self._tracer.call("solver.solve", self._session.solve,
                                  *args, **kwargs)
        self._tracer.count("solver.models", model is not None)
        return model

    def add_clause(self, *args, **kwargs):
        return self._tracer.call("solver.add_clause",
                                 self._session.add_clause, *args, **kwargs)

    def clone(self, *args, **kwargs):
        clone = self._tracer.call("solver.clone", self._session.clone,
                                  *args, **kwargs)
        return _Session(self._tracer, clone)

    def __getattr__(self, name):
        return getattr(self._session, name)


def self_times(spans):
    """Seconds per span name, each span minus the time its children cover.

    Children of one span never overlap (one thread), so the covered part is
    the sum of the children's durations.
    """
    child_time = {}
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for _, span_id, _, name, start, end in spans:
        own = (end - start) - child_time.get(span_id, 0.0)
        out[name] = out.get(name, 0.0) + own
    return out

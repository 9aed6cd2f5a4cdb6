"""Benchmark harness and competition-style speed scoring.

A *system* is an encoding plus a solver backend, written ``C2:builtin`` or
``C1:ext:/path/to/solver``. Every (instance, system) run happens in a fresh
subprocess (the package's own CLI) under a wall-clock budget, with hard
kill on overrun. The budget must be positive and at most 2,147,483 s
(``extsolver.MAX_BUDGET_S``, the longest wait subprocess allows). A
child that exits 0 after its budget (the clock starts before the child
does) timed out at the budget, so no recorded run is solved past it. Runs
go one at a time, so no run's time includes load from another. Each is
appended to a CSV as soon as it finishes so an interrupted campaign
resumes where it stopped; a CSV resumes only under the budget it was
written with, and one holding a run solved past that budget is rejected.

Scoring follows the planning-competition speed rule: a case is valid when
at least one system solved it; with T* the fastest solving time on that
case, a solved run scores 1/(1+log10(T/T*)), any solved run below one
second scores exactly 1, and failures score 0. A system's normalized score
is its sum over valid cases divided by the number of valid cases, times
100.
"""

import csv
import math
import os
import signal
import subprocess
import sys
import tempfile
import time

from . import __version__
from .cnf import encoding_from_string
from .extsolver import check_budget_s
from .generators import instance_path, load_manifest
from .solver import parse_backend

OUTCOME_SOLVED = "solved"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_ERROR = "error"

CSV_HEADER = ["instance_id", "system_id", "outcome", "seconds"]


class BenchRecord:
    """One timed run of one system on one instance. ``detail`` is the last
    line a failed run wrote to stderr; it is not written to the CSV, so a
    record read back from one has an empty detail."""

    __slots__ = ("instance_id", "system_id", "outcome", "seconds", "detail")

    def __init__(self, instance_id, system_id, outcome, seconds, detail=""):
        if outcome not in (OUTCOME_SOLVED, OUTCOME_TIMEOUT, OUTCOME_ERROR):
            raise ValueError(f"bad outcome: {outcome!r}")
        self.seconds = float(seconds)
        if not 0 <= self.seconds < math.inf:  # NaN fails too
            raise ValueError(f"bad run time: {seconds!r}")
        self.instance_id = instance_id
        self.system_id = system_id
        self.outcome = outcome
        self.detail = detail

    def __repr__(self):
        return (f"BenchRecord({self.instance_id!r}, {self.system_id!r}, "
                f"{self.outcome!r}, {self.seconds:.3f})")


def parse_system(spec):
    """Split a system spec into (encoding, backend tuple).

    Backends: ``("builtin",)`` or ``("ext", command_path)``.
    """
    parts = spec.split(":", 1)
    if len(parts) != 2:
        raise ValueError(f"bad system spec (want ENCODING:backend): {spec!r}")
    encoding = encoding_from_string(parts[0])
    backend = parse_backend(parts[1])
    if backend is None:
        raise ValueError(f"bad solver backend in system spec: {spec!r}")
    return encoding, backend


def _system_command(system_id, apx_path):
    encoding, _ = parse_system(system_id)
    backend = system_id.split(":", 1)[1]  # the child parses it the same way
    return [sys.executable, "-m", "afsat", "enumerate", "--format", "apx",
            "--encoding", encoding.value, "--solver", backend, "--stats-only",
            apx_path]


def run_one(system_id, apx_path, budget_s):
    """Run one system on one instance in a fresh process; returns
    (outcome, seconds, detail). A child that exits 0 after ``budget_s``
    timed out at ``budget_s``. On overrun the child's whole process group
    (its solver included) is killed, and its private TMPDIR removed."""
    cmd = _system_command(system_id, apx_path)
    with tempfile.TemporaryDirectory(prefix="afsat-bench-") as tmp:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=dict(os.environ, TMPDIR=tmp),
                                start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=budget_s)
        except subprocess.TimeoutExpired:
            return OUTCOME_TIMEOUT, float(budget_s), ""
        finally:
            if proc.returncode is None:  # overrun or interrupt
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        dt = time.perf_counter() - t0
    if proc.returncode == 0:
        if dt > budget_s:  # its timeout window opened after this clock
            return OUTCOME_TIMEOUT, float(budget_s), ""
        return OUTCOME_SOLVED, dt, ""
    detail = (stderr or "").strip().splitlines()
    return OUTCOME_ERROR, dt, detail[-1] if detail else f"exit {proc.returncode}"


def _csv_budget(csv_path, first_line):
    """The budget a results CSV's first line names, as run_bench writes it,
    or None; ValueError naming the file when it is not a usable budget."""
    text = first_line.partition("; budget_s=")[2].strip()
    try:
        budget = float(text) if text else None
    except ValueError:
        budget = math.nan
    if budget is not None and not 0 < budget < math.inf:  # NaN fails too
        raise ValueError(f"bad budget in {csv_path}, line 1: {text!r}")
    return budget


def read_records(csv_path):
    """Read bench records back from a results CSV (comment lines skipped).
    A malformed row, or a solved row past the budget the first line names,
    raises ValueError naming the file and the line."""
    with open(csv_path, newline="") as fh:
        budget = _csv_budget(csv_path, fh.readline())
        fh.seek(0)
        lines = [(n, line) for n, line in enumerate(fh, 1)
                 if not line.startswith("#")]
    rows = csv.reader(line for _, line in lines)
    header = next(rows, None)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {csv_path}: {header}")
    records = []
    for row in rows:
        if not row:
            continue
        try:
            instance_id, system_id, outcome, seconds = row
            rec = BenchRecord(instance_id, system_id, outcome, seconds)
            if (rec.outcome == OUTCOME_SOLVED and budget is not None
                    and rec.seconds > budget):
                raise ValueError(f"solved in {seconds} s, past budget_s="
                                 f"{budget}")
            records.append(rec)
        except ValueError as exc:
            lineno = lines[rows.line_num - 1][0]
            raise ValueError(
                f"bad row in {csv_path}, line {lineno}: {exc}") from None
    return records


def _rep_id(instance_id, rep):
    return instance_id if rep == 0 else f"{instance_id}@r{rep + 1}"


def run_bench(manifest, systems, budget_s, out_csv, repetitions=1,
              resume=True, progress=None):
    """Run every system on every manifest instance, one run at a time;
    returns all records.

    ``manifest`` is a suite directory or a manifest path. Existing rows
    in ``out_csv`` are kept and their runs skipped when ``resume`` is set;
    a CSV whose first line names another budget raises ValueError.
    ``progress`` (optional) is called with each new BenchRecord.
    """
    manifest = load_manifest(manifest)
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    check_budget_s(budget_s)
    systems = list(systems)
    for i, s in enumerate(systems):
        parse_system(s)  # validate early
        if s in systems[:i]:  # it would score twice on every case
            raise ValueError(f"system listed twice: {s}")

    new_file = not (resume and os.path.exists(out_csv))
    if not new_file:
        with open(out_csv) as fh:
            old = _csv_budget(out_csv, fh.readline())
        if old is not None and old != budget_s:
            raise ValueError(f"{out_csv} holds runs under budget_s={old}; "
                             f"it cannot resume under budget_s={budget_s}")
    done = [] if new_file else read_records(out_csv)
    done_keys = {(r.instance_id, r.system_id) for r in done}

    tasks = []
    for row in manifest["instances"]:
        path = instance_path(manifest, row)
        for system_id in systems:
            for rep in range(repetitions):
                rid = _rep_id(row["id"], rep)
                if (rid, system_id) not in done_keys:
                    tasks.append((rid, system_id, path))

    records = list(done)
    with open(out_csv, "a" if not new_file else "w", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            fh.write(f"# afsat {__version__} bench; budget_s={budget_s}\n")
            writer.writerow(CSV_HEADER)
            fh.flush()
        for rid, system_id, path in tasks:
            rec = BenchRecord(rid, system_id,
                              *run_one(system_id, path, budget_s))
            records.append(rec)
            writer.writerow([rec.instance_id, rec.system_id, rec.outcome,
                             f"{rec.seconds:.6f}"])
            fh.flush()
            if progress:
                progress(rec)
    return records


# ----------------------------------------------------------------------
# scoring

def _case_score(seconds, best):
    if seconds < 1.0:
        return 1.0
    if seconds <= best:
        return 1.0
    if best <= 0.0:
        return 0.0
    return 1.0 / (1.0 + math.log10(seconds / best))


class ScoreTable:
    """Per-(group, system) aggregates with text/CSV/gnuplot renderings."""

    def __init__(self, kind, systems, groups, cells, cases_per_group):
        self.kind = kind  # "ipc" or "success"
        self.systems = list(systems)
        self.groups = list(groups)
        self.cells = cells  # (group, system) -> float
        self.cases_per_group = cases_per_group

    def value(self, group, system):
        return self.cells.get((group, system), 0.0)

    def to_text(self):
        label = {"ipc": "normalized IPC", "success": "success rate %"}[self.kind]
        width = max([len(str(g)) for g in self.groups] + [5])
        out = [f"{self.kind} table ({label}; cases per group in parens)"]
        head = " ".join(f"{s:>12}" for s in self.systems)
        out.append(f"{'group':<{width}} {head}   cases")
        for g in self.groups:
            row = " ".join(f"{self.value(g, s):>12.2f}" for s in self.systems)
            out.append(f"{g:<{width}} {row}   ({self.cases_per_group[g]})")
        return "\n".join(out) + "\n"

    def to_csv(self):
        lines = ["group," + ",".join(self.systems) + ",cases"]
        for g in self.groups:
            vals = ",".join(f"{self.value(g, s):.4f}" for s in self.systems)
            lines.append(f"{g},{vals},{self.cases_per_group[g]}")
        return "\n".join(lines) + "\n"

    def to_gnuplot(self):
        """Whitespace table: one row per group, one column per system."""
        lines = ["# group " + " ".join(self.systems)]
        for g in self.groups:
            vals = " ".join(f"{self.value(g, s):.4f}" for s in self.systems)
            lines.append(f"{g} {vals}")
        return "\n".join(lines) + "\n"


def _group_label(groups, instance_id):
    if groups is None:
        return "all"
    # repetition suffixes share their base instance's group; load_manifest
    # keeps '@' out of instance ids
    return groups.get(instance_id.partition("@")[0], "other")


def _cases(records, groups, budget_s=None):
    """One walk over the records: the systems in first-seen order, and for
    each case in first-seen order its group label and its runs as
    (system, solved, seconds). A solved run over ``budget_s`` is not
    solved. Raises on an empty record list."""
    if not records:
        raise ValueError("no bench records to score")
    systems = {}
    by_case = {}
    for r in records:
        systems.setdefault(r.system_id)
        solved = r.outcome == OUTCOME_SOLVED and (budget_s is None
                                                  or r.seconds <= budget_s)
        by_case.setdefault(r.instance_id, []).append((r.system_id, solved,
                                                      r.seconds))
    return list(systems), [(_group_label(groups, case_id), runs)
                           for case_id, runs in by_case.items()]


def ipc_score(records, budget_s=None, groups=None):
    """Competition speed scores per system, normalized to 0..100.

    ``groups`` maps instance ids to group labels (default: one group
    "all"). A solved run over the budget counts as a failure. Cases no
    system solved are ignored. Raises on an empty record list.
    """
    systems, cases = _cases(records, groups, budget_s)
    raw = {}
    valid_cases = {}  # label -> count, in first-seen order
    for label, runs in cases:
        solved_times = [sec for (_, ok, sec) in runs if ok]
        if not solved_times:
            continue  # invalid case: nobody solved it
        best = min(solved_times)
        valid_cases[label] = valid_cases.get(label, 0) + 1
        for system_id, ok, sec in runs:
            score = _case_score(sec, best) if ok else 0.0
            raw[(label, system_id)] = raw.get((label, system_id), 0.0) + score
    cells = {(label, s): 100.0 * raw.get((label, s), 0.0) / n
             for label, n in valid_cases.items() for s in systems}
    return ScoreTable("ipc", systems, sorted(valid_cases, key=str), cells,
                      valid_cases)


def success_rate(records, groups=None):
    """Fraction of cases solved per system (percent), by group."""
    systems, cases = _cases(records, groups)
    tally = {}  # (label, system) -> (runs, solved runs)
    for label, runs in cases:
        for system_id, ok, _ in runs:
            n, k = tally.get((label, system_id), (0, 0))
            tally[(label, system_id)] = (n + 1, k + ok)
    cells = {key: 100.0 * k / n for key, (n, k) in tally.items()}
    per_group = {}  # label -> most runs of one system, in first-seen order
    for (label, _), (n, _) in tally.items():
        per_group[label] = max(per_group.get(label, 0), n)
    return ScoreTable("success", systems, sorted(per_group, key=str), cells,
                      per_group)


def manifest_groups(manifest, by="k"):
    """Instance-id -> group label maps from manifest metadata.

    ``by`` is one of: "k" (argument-count buckets), "class" (the exact
    generation class), "method" (generation methods kept separate), or
    "all" (single merged group).
    """
    out = {}
    for row in manifest["instances"]:
        if by == "k":
            label = f"k={row['k']:03d}"
        elif by == "class":
            label = row["class_id"]
        elif by == "method":
            label = row["method"]
        elif by == "all":
            label = "all"
        else:
            raise ValueError(f"unknown grouping: {by!r}")
        out[row["id"]] = label
    return out

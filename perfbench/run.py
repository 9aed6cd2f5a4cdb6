"""Closed-loop, in-process benchmark of ``afsat enumerate``.

    python3 perfbench/run.py --workload sparse-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, one process each

One client in one thread sends one request at a time; each request starts
when the previous one has finished. A request is one call of
``afsat.cli.main(["enumerate", "--semantics", S, FILE])`` with stdout
captured: the ``afsat enumerate`` path without interpreter start-up. The
inputs are made from ``--seed`` and written as APX files under
``perfbench/out/``; the program receives only those files.

A run requests every case of its workload once (a pass), then keeps
cycling through them until ``--seconds`` have passed and at least
MIN_REQUESTS requests were made. Every answer is checked: the first
output of each case against a reference that the timed path did not
produce (see workloads.py), each later output for the same bytes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps each
layer's entry point (tracing.py), runs every request once traced and once
untraced, and reports the per-layer metrics of one pass together with the
tracing overhead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print the same
figures by name and unit, with ``error_rate``.

Counts that do not depend on the machine (output bytes, SAT calls and,
when traced, conflicts, propagations and decisions) must repeat exactly:
within a run for each case, and across runs with the same seed and the
same program and benchmark sources, through a record kept under
``perfbench/out/``.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_REPEATS = 5
# latency_p90_ms needs at least ten samples beyond it
MIN_REQUESTS = 100
# the keys of workloads.WORKLOADS, which cannot be imported before afsat
WORKLOAD_NAMES = ("dense-unsat", "many-preferred", "many-complete",
                  "sparse-large")

# per-layer time metric -> span name whose self time it sums
LAYER_TIMES = {
    "fileformats.parse_s": "fileformats.parse",
    "cnf.encode_s": "cnf.encode",
    "solver.build_s": "solver.build",
    "solver.solve_s": "solver.solve",
    "solver.add_clause_s": "solver.add_clause",
    "solver.clone_s": "solver.clone",
    "enumeration.self_s": "enumeration.run",
    "cli.self_s": "cli.main",
}
# per-layer call count -> span name it counts
LAYER_CALLS = {
    "fileformats.parse_calls": "fileformats.parse",
    "cnf.encode_calls": "cnf.encode",
    "solver.solve_calls": "solver.solve",
    "solver.add_clause_calls": "solver.add_clause",
    "solver.clones": "solver.clone",
}
# every count a traced request yields -> unit; solver.models only feeds
# solver.sat_ratio
LAYER_COUNTS = dict.fromkeys(
    list(LAYER_CALLS) + ["cnf.clauses", "cnf.literals", "solver.models",
                         "solver.conflicts", "solver.propagations",
                         "solver.decisions", "solver.restarts",
                         "enumeration.sat_calls",
                         "enumeration.outer_iterations",
                         "enumeration.inner_iterations",
                         "enumeration.extensions"], "count")
LAYER_COUNTS["cli.output_bytes"] = "bytes"
# traced counts that, with the output bytes and SAT calls, must repeat
# across runs of the same seed and sources
RECORDED_SOLVER_COUNTS = ("solver.conflicts", "solver.propagations",
                          "solver.decisions")


def import_program():
    """Import the afsat of this checkout; ImportError if it is missing."""
    sys.path.insert(0, SRC)
    import afsat
    import afsat.cli

    if not os.path.abspath(afsat.__file__).startswith(SRC + os.sep):
        raise ImportError(f"afsat was imported from {afsat.__file__}, "
                          f"not from {SRC}")
    # what `enumerate` imports lazily, so that its cost is import time and
    # not part of the first set-up repetition
    import afsat.cnf, afsat.enumeration, afsat.fileformats, afsat.solver  # noqa: E401,F401
    return afsat.cli


def source_digest():
    """Hash of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for directory in (os.path.join(SRC, "afsat"), HERE):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                digest.update(name.encode() + b"\0")
                with open(os.path.join(directory, name), "rb") as fh:
                    digest.update(fh.read() + b"\0")
    return digest.hexdigest()[:16]


def request(main, argv):
    """(exit code, stdout, seconds) of one CLI call; for a failed call the
    code is a description that includes what it printed on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a raising request failed
            code = f"raised {exc!r}"
        seconds = perf_counter() - start
    if code != 0:
        code = f"exit {code!r}, stderr {err.getvalue().strip()[:200]!r}"
    return code, out.getvalue(), seconds


def parse_payload(output):
    """The JSON object an enumerate request printed, or {} if none."""
    try:
        payload = json.loads(output)
    except ValueError:
        return {}
    return payload if isinstance(payload, dict) else {}


class Answers:
    """Outputs per case: the first good one is checked against the
    reference after the run; every later one must equal it byte for byte."""

    def __init__(self, n):
        self.first = [None] * n
        self.matched = [0] * n
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, i, code, output):
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"case {i}: {code}")
        elif self.first[i] is None:
            self.first[i] = output
            self.matched[i] = 1
        elif output == self.first[i]:
            self.matched[i] += 1
        else:
            self.failed += 1
            self.problems.append(f"case {i}: output bytes differ between "
                                 "requests of the same input")

    def check(self, cases, semantics, encoding):
        from workloads import check_answer, reference

        for i, case in enumerate(cases):
            if self.first[i] is None:
                continue
            payload = parse_payload(self.first[i])
            error = "output is not a JSON object" if not payload else \
                check_answer(case, semantics, payload,
                             reference(case, semantics, encoding))
            if error:
                self.failed += self.matched[i]
                self.problems.append(f"{case.stem}: {error}")


def closed_loop(n_cases, seconds, min_requests, step):
    """Call step(case, pass) until a full pass is done, `seconds` have
    passed and step has made `min_requests` requests; returns elapsed s."""
    start = perf_counter()
    deadline = start + seconds
    made = 0
    slot = 0
    while True:
        made += step(slot % n_cases, slot // n_cases)
        slot += 1
        if slot >= n_cases and made >= min_requests and \
                perf_counter() >= deadline:
            return perf_counter() - start


def setup(cli, cases_for, seed, semantics, inputs_dir):
    """Make and write the inputs, then one warm-up request; seconds."""
    from afsat.fileformats import serialize_apx

    start = perf_counter()
    cases = cases_for(seed)
    os.makedirs(inputs_dir, exist_ok=True)
    argvs = []
    for case in cases:
        path = os.path.join(inputs_dir, case.stem + ".apx")
        with open(path, "w") as fh:
            fh.write(serialize_apx(case.af))
        argvs.append(["enumerate", "--semantics", semantics, path])
    request(cli.main, argvs[0])
    return perf_counter() - start, cases, argvs


def end_to_end(per_case, elapsed, setup_s):
    """End-to-end metrics from each case's request times.

    The percentiles are taken over requests, each counted at the median
    time of its case: the spread of inputs shows, a short stall of the
    machine that slows a few requests does not.
    """
    typical = []
    for times in per_case:
        typical += [statistics.median(times)] * len(times)
    p90 = statistics.quantiles(typical, n=10)[8]
    return {
        "throughput_rps": (len(typical) / elapsed, "1/s"),
        "latency_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def traced_loop(cli, argvs, seconds, answers):
    """Each slot requests its case untraced and traced, in alternating
    order; returns per-case traced rows and both latency lists."""
    from tracing import Tracer, self_times

    tracer = Tracer()
    rows = [[] for _ in argvs]
    latencies = {"traced": [], "untraced": []}

    def traced_main(argv):
        return tracer.call("cli.main", cli.main, argv)

    def traced(i):
        first_span = len(tracer.spans)
        tracer.begin_request(answers.attempted)
        code, output, dt = request(traced_main, argvs[i])
        counts = tracer.end_request()
        answers.record(i, code, output)
        latencies["traced"].append(dt)
        spans = tracer.spans[first_span:]
        own = self_times(spans)
        row = {metric: own.get(span, 0.0)
               for metric, span in LAYER_TIMES.items()}
        for metric, span in LAYER_CALLS.items():
            row[metric] = sum(1 for s in spans if s[3] == span)
        row.update(counts)
        row["cli.output_bytes"] = len(output.encode())
        payload = parse_payload(output)
        for key in ("sat_calls", "outer_iterations", "inner_iterations"):
            row["enumeration." + key] = payload.get("stats", {}).get(key, 0)
        row["enumeration.extensions"] = payload.get("num_extensions", 0)
        rows[i].append(row)

    def untraced(i):
        code, output, dt = request(cli.main, argvs[i])
        answers.record(i, code, output)
        latencies["untraced"].append(dt)

    def step(i, pass_no):
        for fn in ((traced, untraced) if pass_no % 2 == 0
                   else (untraced, traced)):
            fn(i)
        return 2

    with tracer.installed():
        closed_loop(len(argvs), seconds, 2, step)
    return tracer, rows, latencies


def layer_metrics(rows, latencies, answers):
    """Per-pass figures: times are the sum over cases of the mean over
    that case's traced requests; counts come from each case's first traced
    request and must repeat exactly in its later ones."""
    times = dict.fromkeys(LAYER_TIMES, 0.0)
    counts = dict.fromkeys(LAYER_COUNTS, 0)
    for i, case_rows in enumerate(rows):
        for metric in LAYER_TIMES:
            times[metric] += statistics.fmean(r[metric] for r in case_rows)
        first = {k: v for k, v in case_rows[0].items() if k not in LAYER_TIMES}
        for later in case_rows[1:]:
            if {k: v for k, v in later.items() if k not in LAYER_TIMES} != first:
                answers.problems.append(
                    f"case {i}: counts differ between traced requests")
        for key, value in first.items():
            counts[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    out = {metric: (value, "s") for metric, value in times.items()}
    out.update({metric: (counts[metric], unit)
                for metric, unit in LAYER_COUNTS.items()
                if metric != "solver.models"})
    solve_s = times["solver.solve_s"]
    out["solver.sat_ratio"] = (
        ratio(counts["solver.models"], counts["solver.solve_calls"]), "ratio")
    out["solver.propagations_per_s"] = (
        ratio(counts["solver.propagations"], solve_s), "1/s")
    out["solver.conflicts_per_s"] = (
        ratio(counts["solver.conflicts"], solve_s), "1/s")
    out["enumeration.useful_ratio"] = (
        ratio(counts["enumeration.extensions"],
              counts["enumeration.sat_calls"]), "ratio")
    traced_rps = len(latencies["traced"]) / sum(latencies["traced"])
    untraced_rps = len(latencies["untraced"]) / sum(latencies["untraced"])
    out["trace.throughput_rps"] = (traced_rps, "1/s")
    out["trace.untraced_throughput_rps"] = (untraced_rps, "1/s")
    out["trace.overhead_rps"] = (untraced_rps - traced_rps, "1/s")
    return out


def check_record(workload, seed, record, answers):
    """Compare machine-independent counts with the first run of the same
    workload, seed and sources, then add the keys that run lacked."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"counts-{workload}-seed{seed}-"
                             f"{source_digest()}.json")
    stored = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    for key in sorted(set(stored) & set(record)):
        if stored[key] != record[key]:
            answers.problems.append(
                f"{key} is {record[key]}, an earlier run with this seed "
                f"and source gave {stored[key]} ({path})")
    with open(path, "w") as fh:
        json.dump({**record, **stored}, fh, indent=1, sort_keys=True)


def run_workload(args):
    try:
        cli = import_program()
        import workloads
        import tracing  # noqa: F401 - its import cost belongs to set-up
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - _PROCESS_START

    semantics, cases_for, encoding = workloads.WORKLOADS[args.workload]
    inputs_dir = os.path.join(OUT, f"inputs-{args.workload}-seed{args.seed}")
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, cases, argvs = setup(cli, cases_for, args.seed, semantics,
                                      inputs_dir)
        setups.append(seconds)
    setup_s = import_s + statistics.median(setups)

    answers = Answers(len(cases))
    if args.trace:
        tracer, rows, latencies = traced_loop(cli, argvs, args.seconds,
                                              answers)
    else:
        per_case = [[] for _ in cases]

        def step(i, _pass):
            code, output, dt = request(cli.main, argvs[i])
            answers.record(i, code, output)
            per_case[i].append(dt)
            return 1

        elapsed = closed_loop(len(cases), args.seconds, MIN_REQUESTS, step)
        # read before the reference answers are computed
        metrics = end_to_end(per_case, elapsed, setup_s)

    answers.check(cases, semantics, encoding)
    record = {}
    if all(out is not None for out in answers.first):
        record["output_sha256"] = hashlib.sha256(
            "\0".join(answers.first).encode()).hexdigest()
        record["enumeration.sat_calls"] = sum(
            parse_payload(out).get("stats", {}).get("sat_calls", 0)
            for out in answers.first)
    if args.trace:
        metrics = layer_metrics(rows, latencies, answers)
        for key in RECORDED_SOLVER_COUNTS:
            record[key] = metrics[key][0]
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    check_record(args.workload, args.seed, record, answers)

    for problem in answers.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if len(answers.problems) > 20:
        print(f"perfbench: ... {len(answers.problems) - 20} more failures",
              file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {answers.attempted}  cases {len(cases)}")
    error_rate = answers.failed / answers.attempted
    for name, (value, unit) in [("error_rate", (error_rate, "ratio"))] + \
            sorted(metrics.items()):
        print(f"  {name:<34} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not answers.problems,
        "attempted": answers.attempted,
        "failed": answers.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in a process of its own, so peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited with "
                  f"{proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""
Timing encoding/solver systems and scoring them
===============================================

A "system" is an encoding plus a solver backend, like C2:builtin. The
harness runs each system on each suite instance in a fresh child
process under a wall-clock budget, appends one CSV row per run, and
scores the result with the competition speed measure: 1 point for
matching the best time on a case, logarithmically less when slower,
0 for a timeout, everything under a second counted as instant.
"""

import os
import tempfile

from afsat.bench import ipc_score, manifest_groups, run_bench, success_rate

from afsat.generators import build_suite

# a throwaway suite: two sizes, two instances each
with tempfile.TemporaryDirectory(prefix="bench-") as suite:
    build_suite(suite, base_seed=5, classes=[
        ("small", "probability", 10, 0.5, 2),
        ("mid", "probability", 30, 0.5, 2),
    ])

    # compare the default encoding against the backward-only one
    systems = ["C2:builtin", "C3:builtin"]
    out_csv = os.path.join(suite, "records.csv")
    records = run_bench(suite, systems, budget_s=60.0, out_csv=out_csv,
                        progress=lambda r: print(" ", r))

    # resume is free: a second call finds every run already recorded
    again = run_bench(suite, systems, budget_s=60.0, out_csv=out_csv)
    print("runs on disk:", len(again))

    # scores, grouped by argument count
    from afsat.generators import load_manifest
    groups = manifest_groups(load_manifest(suite), "k")
print(ipc_score(records, budget_s=60.0, groups=groups).to_text())
print(success_rate(records, groups=groups).to_text())

# the same tables ship as CSV and as gnuplot-ready whitespace columns
print(ipc_score(records, budget_s=60.0, groups=groups).to_gnuplot())

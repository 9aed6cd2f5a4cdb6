"""System acceptance gate: nine end-to-end criteria, one printed line each.

Every test prints a [PASS]/[FAIL] summary line (visible under plain pytest,
via capsys.disabled) and then asserts, so a red criterion is both readable
in the log and fatal to the run. Criteria 6 and 7 drive real child
processes and dominate the runtime; the whole gate is sized for roughly a
quarter hour on one core.
"""

import os
import subprocess
import sys
import time
from functools import lru_cache
from statistics import mean

import pytest

from afsat.bench import (BenchRecord, _case_score, ipc_score, manifest_groups,
                         run_bench)
from afsat.cnf import (ENCODINGS, EncodingId, encode, satisfies,
                       standard_comments, to_dimacs)
from afsat.constraints import classify_all, satisfies_terms, witness_battery
from afsat.core import is_complete_labelling
from afsat.enumeration import enumerate_preferred
from afsat.extsolver import solve_external
from afsat.fileformats import serialize_apx
from afsat.generators import (METHOD_COUNT, METHOD_PROBABILITY, build_suite,
                              gen_count, gen_empty, gen_full, gen_probability,
                              load_manifest, suite_classes)
from afsat.oracle import all_labellings, oracle_preferred
from afsat.solver import Solver

REFDPLL = os.path.join(os.path.dirname(__file__), "tools", "refdpll.py")
P_ATT_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
VERDICT_WEAK = "weak"


def _report(capsys, num, title, problems, detail=""):
    status = "PASS" if not problems else "FAIL"
    line = f"[{status}] criterion {num}: {title}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(f"\n{line}")
    assert not problems, (f"criterion {num}: "
                          + "; ".join(str(p) for p in problems[:5]))


@pytest.fixture(scope="module")
def random_instances():
    """300 random frameworks, each enumerated under all six encodings.

    k cycles 1..12, the two generation methods alternate, and the attack
    probability cycles 0 / 0.25 / 0.5 / 0.75 / 1. Oracle disagreements and
    cross-encoding disagreements are collected once and consumed by the
    criterion 1 and criterion 2 tests; the frameworks themselves feed the
    cross-validation of criterion 7.
    """
    t0 = time.perf_counter()
    afs = []
    for i in range(300):
        k = (i % 12) + 1
        if i % 2 == 0:
            afs.append(gen_probability(k, P_ATT_VALUES[(i // 2) % 5],
                                       seed=1000 + i))
        else:
            afs.append(gen_count(k, None, seed=1000 + i))
    oracle_bad = []
    cross_bad = []
    for idx, af in enumerate(afs):
        want = oracle_preferred(af)
        per_encoding = {}
        for enc in ENCODINGS:
            got = set(enumerate_preferred(af, enc).extensions)
            per_encoding[enc] = got
            if got != want:
                oracle_bad.append(
                    f"instance {idx} under {enc.value} disagrees with the oracle")
        base = per_encoding[ENCODINGS[0]]
        for enc in ENCODINGS[1:]:
            if per_encoding[enc] != base:
                cross_bad.append(
                    f"instance {idx}: {enc.value} and {ENCODINGS[0].value} "
                    "return different extension sets")
    elapsed = time.perf_counter() - t0
    return {"afs": afs, "oracle_bad": oracle_bad, "cross_bad": cross_bad,
            "elapsed": elapsed}


def test_criterion_1_oracle_equivalence(capsys, random_instances):
    problems = list(random_instances["oracle_bad"])
    elapsed = random_instances["elapsed"]
    if elapsed >= 120.0:
        problems.append(f"battery took {elapsed:.1f}s, bound is 120s")
    _report(capsys, 1,
            "all six encodings match the exhaustive oracle on 300 random frameworks",
            problems,
            detail=f"k 1..12, both generators, five densities, {elapsed:.1f}s")


@lru_cache(maxsize=None)
def _truth_masks(num_vars):
    """Big-integer truth tables over the 2^num_vars assignment space.

    Bit ``idx`` of mask v is the value of variable v+1 under assignment
    ``idx``; a clause is an OR of masks and a formula an AND, so comparing
    whole model sets is integer equality.
    """
    full = (1 << (1 << num_vars)) - 1
    masks = []
    for v in range(num_vars):
        m = 0
        for idx in range(1 << num_vars):
            if (idx >> v) & 1:
                m |= 1 << idx
        masks.append(m)
    return full, tuple(masks)


def _model_set_mask(formula):
    full, masks = _truth_masks(formula.num_vars)
    acc = full
    for clause in formula.clauses:
        clause_mask = 0
        for lit in clause:
            m = masks[abs(lit) - 1]
            clause_mask |= m if lit > 0 else full & ~m
        acc &= clause_mask
        if not acc:
            break
    return acc


def test_criterion_2_encoding_equivalence(capsys, random_instances):
    # part one: the 300 shared instances already enumerated per encoding
    problems = list(random_instances["cross_bad"])
    # part two: exhaustive model sets on every small framework shape.
    # One representative per renaming class suffices: renaming arguments
    # permutes CNF variables identically in all six encodings, so equal
    # model sets on the representative mean equal model sets everywhere.
    reps = witness_battery(4)
    for af in reps:
        base = None
        for enc in ENCODINGS:
            mask = _model_set_mask(encode(af, enc, nonempty=False))
            if base is None:
                base = mask
            elif mask != base:
                problems.append(
                    f"CNF model sets differ under {enc.value} on a "
                    f"{af.k}-argument framework")
    _report(capsys, 2,
            "identical extension sets and identical CNF model sets across encodings",
            problems,
            detail=f"300 shared instances; all assignments on {len(reps)} "
                   "framework shapes with up to 4 arguments")


def _equivalent_on_battery(terms, battery):
    for af in battery:
        for lab in all_labellings(af.k):
            if satisfies_terms(af, lab, terms) != is_complete_labelling(af, lab):
                return False
    return True


def test_criterion_3_subset_classification(capsys):
    rows = classify_all(find_witnesses=True)
    problems = []
    counts = {}
    for c in rows:
        counts[c.verdict] = counts.get(c.verdict, 0) + 1
    if counts != {"weak": 46, "correct_non_redundant": 5, "redundant": 13}:
        problems.append(f"verdict counts are {counts}")

    card4_weak = [c for c in rows
                  if c.verdict == VERDICT_WEAK and len(c.terms) == 4]
    if len(card4_weak) != 6:
        problems.append(f"{len(card4_weak)} weak subsets of size 4, want 6")
    for c in card4_weak:
        label = "+".join(sorted(t.value for t in c.terms))
        if c.witness is None:
            problems.append(f"no witness found for {label}")
            continue
        af, lab = c.witness
        if af.k > 3:
            problems.append(f"witness for {label} needs {af.k} arguments")
        if not satisfies_terms(af, lab, c.terms):
            problems.append(f"witness for {label} fails its own terms")
        if is_complete_labelling(af, lab):
            problems.append(f"witness for {label} is a complete labelling")

    battery = witness_battery(3)
    correct = [c for c in rows if c.verdict != VERDICT_WEAK]
    for c in correct:
        if not _equivalent_on_battery(c.terms, battery):
            label = "+".join(sorted(t.value for t in c.terms))
            problems.append(f"correct subset {label} fails exhaustive equivalence")

    _report(capsys, 3,
            "the 64 condition subsets split 46 weak / 5 minimal / 13 redundant",
            problems,
            detail="six size-4 weak witnesses on <= 3 arguments; "
                   f"{len(correct)} correct subsets exhaustively equivalent")


def test_criterion_4_degenerate_classes(capsys):
    t0 = time.perf_counter()
    problems = []

    def expect(af, enc, want, what):
        result = enumerate_preferred(af, enc)
        if tuple(result.extensions) != want or not result.complete:
            problems.append(f"{what} gave {result.extensions}")
        return result

    # fully connected (self-loops included): nothing is conflict-free
    for k in (1, 2, 7, 25, 50):
        expect(gen_full(k), EncodingId.C2, (frozenset(),), f"full k={k}")
    for enc in ENCODINGS:
        expect(gen_full(7), enc, (frozenset(),), f"full k=7 under {enc.value}")
    for enc in (EncodingId.C1, EncodingId.C3):
        expect(gen_full(50), enc, (frozenset(),), f"full k=50 under {enc.value}")

    # no attacks at all: the one preferred extension is everything
    expect(gen_empty(50), EncodingId.C2, (frozenset(range(1, 51)),),
           "empty k=50")
    for enc in ENCODINGS:
        expect(gen_empty(7), enc, (frozenset(range(1, 8)),),
               f"empty k=7 under {enc.value}")

    # a single self-attacker must resolve on the first unsatisfiable call
    result = expect(gen_full(1), EncodingId.C2, (frozenset(),),
                    "single self-attacker")
    if result.stats["sat_calls"] != 1 or result.stats["outer_iterations"] != 1:
        problems.append(
            f"self-attacker took {result.stats['sat_calls']} solver calls "
            f"across {result.stats['outer_iterations']} outer rounds, want 1/1")

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"degenerate battery took {elapsed:.1f}s")
    _report(capsys, 4, "degenerate framework classes resolve exactly",
            problems, detail=f"full/empty up to k=50 in {elapsed:.1f}s")


def test_criterion_5_speed_score_arithmetic(capsys):
    problems = []
    vectors = [
        (_case_score(5.0, 5.0), 1.0, "time equal to the best"),
        (_case_score(10.0, 1.0), 0.5, "ten times the best"),
        (_case_score(0.5, 0.001), 1.0, "sub-second clamp"),
        (_case_score(0.999, 0.2), 1.0, "sub-second clamp near the edge"),
    ]
    for got, want, what in vectors:
        if got != want:
            problems.append(f"{what}: {got!r} != {want!r}")

    # a failed run contributes exactly zero
    records = [BenchRecord("c1", "A", "solved", 2.0),
               BenchRecord("c1", "B", "timeout", 60.0)]
    table = ipc_score(records, budget_s=60.0)
    if table.cells[("all", "A")] != 100.0:
        problems.append(f"sole solver scores {table.cells[('all', 'A')]}")
    if table.cells[("all", "B")] != 0.0:
        problems.append(f"failed system scores {table.cells[('all', 'B')]}")

    # an all-sub-second system normalizes to exactly 100
    times = [(0.1, 0.9), (0.4, 0.2), (0.05, 0.6)]
    records = [BenchRecord(f"c{i}", name, "solved", t)
               for i, (ta, tb) in enumerate(times)
               for name, t in (("A", ta), ("B", tb))]
    table = ipc_score(records)
    for name in ("A", "B"):
        if table.cells[("all", name)] != 100.0:
            problems.append(f"all-sub-second system {name} scores "
                            f"{table.cells[('all', name)]}")

    _report(capsys, 5, "speed-score unit vectors are exact", problems)


@pytest.fixture(scope="module")
def scaled_bench(tmp_path_factory):
    """A 120-instance timed comparison of all six encoding systems.

    k in {25, 50, 75, 100} crossed with densities {0.25, 0.5, 0.75}, ten
    instances per class, run serially through the real child-process
    harness with a 60s budget per run.
    """
    suite_dir = str(tmp_path_factory.mktemp("scaled-suite"))
    classes = suite_classes(k_values=(25, 50, 75, 100),
                            p_values=(0.25, 0.5, 0.75),
                            prob_per_class=10,
                            include_count=False, include_extremes=False)
    build_suite(suite_dir, base_seed=20260816, classes=classes)
    systems = [f"{enc.value}:builtin" for enc in ENCODINGS]
    records = run_bench(suite_dir, systems, budget_s=60.0,
                        out_csv=os.path.join(suite_dir, "records.csv"))
    return suite_dir, systems, records


@pytest.mark.slow
def test_criterion_6_encoding_ordering(capsys, scaled_bench):
    suite_dir, systems, records = scaled_bench
    problems = [f"harness error on {r.instance_id}/{r.system_id}"
                for r in records if r.outcome == "error"]
    groups = manifest_groups(load_manifest(suite_dir), "k")
    table = ipc_score(records, budget_s=60.0, groups=groups)
    means = {s: mean(table.cells[(g, s)] for g in table.groups)
             for s in systems}
    best = means["C2:builtin"]
    for system, score in means.items():
        if score > best:
            problems.append(f"{system} outranks C2:builtin "
                            f"({score:.2f} > {best:.2f})")
    runner_up = max(v for s, v in means.items() if s != "C2:builtin")
    _report(capsys, 6,
            "the default encoding has the best mean speed score of the six",
            problems,
            detail=f"120 instances, k 25..100, C2 {best:.1f} vs "
                   f"runner-up {runner_up:.1f}")


@pytest.mark.slow
def test_criterion_7_solver_cross_validation(capsys, random_instances):
    command = [sys.executable, REFDPLL]
    formulas = []
    for af in random_instances["afs"]:
        formulas.extend(encode(af, enc) for enc in ENCODINGS)
    for enc in ENCODINGS:
        formulas.append(encode(gen_full(7), enc))
        formulas.append(encode(gen_empty(7), enc))
    for k in (1, 2, 25):
        formulas.append(encode(gen_full(k)))
    for enc in (EncodingId.C1, EncodingId.C2, EncodingId.C3):
        formulas.append(encode(gen_full(50), enc))
    formulas.append(encode(gen_empty(50)))

    problems = []
    sat_n = unsat_n = 0
    for n, formula in enumerate(formulas):
        ours = Solver.from_formula(formula).solve()
        try:
            # the bridge re-verifies any claimed model before returning it
            theirs = solve_external(command, formula)
        except RuntimeError as exc:
            problems.append(f"formula {n}: external solve failed: {exc}")
            continue
        if (ours is None) != (theirs is None):
            problems.append(
                f"formula {n}: builtin says "
                f"{'UNSAT' if ours is None else 'SAT'}, external disagrees")
            continue
        if ours is None:
            unsat_n += 1
            continue
        sat_n += 1
        if not satisfies(formula, ours):
            problems.append(f"formula {n}: builtin model fails re-verification")
        if not satisfies(formula, theirs):
            problems.append(f"formula {n}: external model fails re-verification")

    _report(capsys, 7,
            "builtin and external solvers agree on every formula",
            problems,
            detail=f"{len(formulas)} formulas via child processes, "
                   f"{sat_n} satisfiable / {unsat_n} not, all models re-verified")


def test_criterion_8_determinism(capsys, tmp_path):
    problems = []

    # identical suites, file by file
    classes = [("probA", METHOD_PROBABILITY, 8, 0.5, 3),
               ("countA", METHOD_COUNT, 8, 12, 3)]
    dirs = [str(tmp_path / "one"), str(tmp_path / "two")]
    for d in dirs:
        build_suite(d, base_seed=7, classes=classes)
    names = ["manifest.json"]
    manifest = load_manifest(dirs[0])
    names.extend(row["path"] for row in manifest["instances"])
    for name in names:
        with open(os.path.join(dirs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(dirs[1], name), "rb") as fh:
            second = fh.read()
        if first != second:
            problems.append(f"suite file {name} differs between builds")

    # identical DIMACS from independently regenerated frameworks
    for enc in ENCODINGS:
        texts = []
        for _ in range(2):
            af = gen_probability(10, 0.5, seed=42)
            texts.append(to_dimacs(encode(af, enc), standard_comments(af, enc)))
        if texts[0] != texts[1]:
            problems.append(f"DIMACS under {enc.value} differs between runs")

    # identical enumeration JSON from two separate processes
    af_path = tmp_path / "det.apx"
    af_path.write_text(serialize_apx(gen_probability(9, 0.5, seed=5)))
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "afsat", "enumerate", str(af_path),
             "--query-skeptical", "a1"],
            capture_output=True)
        if proc.returncode != 0:
            problems.append(f"enumeration run exited {proc.returncode}")
        outs.append(proc.stdout)
    if outs[0] != outs[1] or not outs[0]:
        problems.append("enumeration JSON differs between processes")

    _report(capsys, 8,
            "suites, DIMACS, and enumeration JSON are byte-identical on reruns",
            problems,
            detail=f"{len(names)} suite files, six encodings, two child runs")


def test_criterion_9_scale_smoke(capsys):
    problems = []
    worst = 0.0
    for i in range(20):
        af = gen_probability(100, 0.5, seed=9100 + i)
        t0 = time.perf_counter()
        result = enumerate_preferred(af)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        if elapsed >= 900.0:
            problems.append(f"instance {i} took {elapsed:.0f}s")
        if not result.complete:
            problems.append(f"instance {i} did not finish")
    _report(capsys, 9,
            "a 20-instance suite at 100 arguments completes within budget",
            problems,
            detail=f"density 0.5, worst instance {worst:.2f}s of 900s allowed")

"""Seeded inputs of the benchmark's workloads and the reference answers.

Each workload is a list of cases that one pass requests once each, in a
fixed order. A case is a framework the benchmark builds in memory from the
seed; the program under test only ever sees the APX file written from it.

Why each workload exists, and which layer it stresses, is in README.md.
"""

import hashlib
import random

from afsat.cnf import EncodingId
from afsat.core import ArgumentationFramework, is_complete
from afsat.enumeration import enumerate_preferred
from afsat.generators import gen_count, gen_probability
from afsat.oracle import oracle_complete, oracle_preferred
from afsat.solver import builtin_session_factory

# dense-unsat: the paper suite's hardest density. Sizes are kept small
# enough that one run holds over a hundred requests and a pass holds 96
# distinct frameworks: search cost varies widely between frameworks, and
# only many of them keep the spread between seeds low.
DENSE_K_MIN = 60
DENSE_K_MAX = 80
DENSE_CASES = 96
DENSE_P_ATT = 0.25
# Checked under C1, whose clause set adds the three backward terms to the
# forward terms of the default C2; C3 would cost about five times more.
DENSE_REFERENCE = EncodingId.C1

# many-*: disjoint unions of small components. Every framework has the same
# kinds of component, and each random 5-argument component is redrawn
# until its (preferred, complete) extension counts hit a fixed target, so
# every framework has 16 preferred and 162 complete extensions and the
# seed varies only the random graphs and the order of the arguments.
# Drawing the kinds per framework made request times cluster by shape and
# the number of extensions swing with the seed, and with them the median.
MANY_FRAMEWORKS = 80
MANY_KINDS = ("pair", "pair", "cycle3", "cycle4", "random5", "random5")
MANY_RANDOM5_TARGETS = ((2, 3), (1, 2))
MANY_RANDOM5_P_ATT = 0.3

# sparse-large: the only shape where parsing, encoding and session set-up
# dominate; preferred extensions are printed in full. With one attack per
# argument nearly every case has one or two preferred extensions; denser
# cases had up to eight, and the per-case cost followed that count.
SPARSE_K_MIN = 500
SPARSE_K_MAX = 1000
SPARSE_CASES = 24
# Checked under C3, which shares no labelling term with the default C2.
SPARSE_REFERENCE = EncodingId.C3


class Case:
    """One framework of a pass.

    ``components`` lists the framework's parts, between which there are
    no attacks, as frameworks of their own when the benchmark built it
    that way; the reference answer is then the product of their oracle
    answers.
    """

    __slots__ = ("stem", "af", "components")

    def __init__(self, stem, af, components=None):
        self.stem = stem
        self.af = af
        self.components = components


def derive_seed(family, seed, index):
    """Per-case generator seed; stable across processes and platforms."""
    digest = hashlib.sha256(f"{family}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def spread_sizes(lo, hi, n):
    """n sizes spread evenly over [lo, hi], small and large alternating.

    Even spacing leaves request times no gaps for a percentile to jump
    across; alternating keeps a partial pass a fair mix of sizes.
    """
    sizes = [lo + round((hi - lo) * j / (n - 1)) for j in range(n)]
    half = (n + 1) // 2
    order = []
    for j in range(half):
        order.append(sizes[j])
        if j + half < n:
            order.append(sizes[j + half])
    return order


def dense_cases(seed):
    cases = []
    for n, k in enumerate(spread_sizes(DENSE_K_MIN, DENSE_K_MAX, DENSE_CASES)):
        af = gen_probability(k, DENSE_P_ATT, derive_seed("dense", seed, n))
        cases.append(Case(f"dense-{n:03d}-k{k}", af))
    return cases


def sparse_cases(seed):
    cases = []
    for n, k in enumerate(spread_sizes(SPARSE_K_MIN, SPARSE_K_MAX,
                                       SPARSE_CASES)):
        af = gen_count(k, k, derive_seed("sparse", seed, n))
        cases.append(Case(f"sparse-{n:03d}-k{k}", af))
    return cases


def _component(rng, kind, targets):
    """(size, attacks as 0-based pairs) of one component."""
    if kind == "pair":
        return 2, [(0, 1), (1, 0)]
    if kind == "cycle3":
        return 3, [(0, 1), (1, 2), (2, 0)]
    if kind == "cycle4":
        return 4, [(0, 1), (1, 2), (2, 3), (3, 0)]
    target = targets[0]
    targets.append(targets.pop(0))
    while True:
        attacks = [(i, j) for i in range(5) for j in range(5)
                   if rng.random() < MANY_RANDOM5_P_ATT]
        af = ArgumentationFramework([f"x{i}" for i in range(5)],
                                    [(i + 1, j + 1) for i, j in attacks])
        if (len(oracle_preferred(af)), len(oracle_complete(af))) == target:
            return 5, attacks


def _union(rng):
    """Disjoint union of MANY_KINDS components, arguments declared shuffled."""
    kinds = list(MANY_KINDS)
    rng.shuffle(kinds)
    targets = list(MANY_RANDOM5_TARGETS)
    components = []
    for c, kind in enumerate(kinds):
        size, attacks = _component(rng, kind, targets)
        names = [f"c{c}_{i}" for i in range(size)]
        components.append(ArgumentationFramework(
            names, [(i + 1, j + 1) for i, j in attacks]))
    names = [name for comp in components for name in comp.arguments]
    rng.shuffle(names)
    attacks = [(comp.name(i), comp.name(j))
               for comp in components for i, j in comp.attacks]
    return ArgumentationFramework.from_names(names, attacks), components


def many_cases(seed):
    cases = []
    for n in range(MANY_FRAMEWORKS):
        rng = random.Random(derive_seed("many", seed, n))
        af, components = _union(rng)
        cases.append(Case(f"many-{n:03d}", af, components))
    return cases


# name -> (semantics, function making the cases, encoding of the reference
# enumeration or None for the oracle). Both many-* workloads use the same
# frameworks for a given seed.
WORKLOADS = {
    "dense-unsat": ("preferred", dense_cases, DENSE_REFERENCE),
    "many-preferred": ("preferred", many_cases, None),
    "many-complete": ("complete", many_cases, None),
    "sparse-large": ("preferred", sparse_cases, SPARSE_REFERENCE),
}


def _names(af, extension):
    return frozenset(af.name(i) for i in extension)


def reference(case, semantics, encoding):
    """Extensions as a set of frozensets of argument names, computed
    without the default encoding: from the per-component oracle when the
    case has components, else by enumerating under ``encoding``."""
    if case.components is None:
        result = enumerate_preferred(case.af, encoding,
                                     builtin_session_factory())
        return {_names(case.af, ext) for ext in result.extensions}
    oracle = oracle_preferred if semantics == "preferred" else oracle_complete
    product = {frozenset()}
    for comp in case.components:
        product = {done | _names(comp, ext)
                   for done in product for ext in oracle(comp)}
    return product


def check_answer(case, semantics, payload, expected):
    """None when the enumerate payload is right, else what is wrong."""
    if payload.get("semantics") != semantics or payload.get("complete") is not True:
        return "wrong semantics or incomplete result"
    extensions = payload.get("extensions")
    if not isinstance(extensions, list) or payload.get("num_extensions") != len(extensions):
        return "extension list missing or miscounted"
    got = {frozenset(ext) for ext in extensions}
    if len(got) != len(extensions):
        return "duplicate extension"
    if got != expected:
        return (f"{len(got)} extensions differ from the "
                f"{len(expected)} of the reference")
    if case.components is None:
        af = case.af
        for ext in got:
            if not is_complete(af, {af.index(name) for name in ext}):
                return f"extension of size {len(ext)} is not complete"
            if any(ext < other for other in got):
                return f"extension of size {len(ext)} is not maximal"
    return None

"""Shared test fixtures: canonical small frameworks and a seeded AF maker."""

import random

import pytest

from afsat.core import ArgumentationFramework


def make_af(names, attack_names):
    return ArgumentationFramework.from_names(names, attack_names)


# canonical small cases used across the suite
CHAIN3 = make_af("abc", [("a", "b"), ("b", "c")])
MUTUAL = make_af("ab", [("a", "b"), ("b", "a")])
SELF1 = make_af("a", [("a", "a")])
CYCLE3 = make_af("abc", [("a", "b"), ("b", "c"), ("c", "a")])
NO_ATTACKS3 = make_af("abc", [])
FULL3 = make_af("abc", [(a, b) for a in "abc" for b in "abc"])


def random_af(rng, k=None, max_k=7, density=None):
    """Random framework from a seeded random.Random, independent of the
    package's own generators."""
    if k is None:
        k = rng.randint(1, max_k)
    if density is None:
        density = rng.choice([0.0, 0.15, 0.3, 0.5, 0.8])
    names = [f"x{i}" for i in range(1, k + 1)]
    attacks = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)
               if rng.random() < density]
    return ArgumentationFramework(names, attacks)


def assert_same_as_checked(af):
    """A framework built without the constructor's checks (by a parser or
    as a subframework) equals the one the checking constructor builds from
    its names and attacks, in every stored field."""
    checked = ArgumentationFramework(list(af.arguments), list(af.attacks))
    assert af.arguments == checked.arguments
    assert af.attacks == checked.attacks
    assert af._index == checked._index
    assert af._attackers == checked._attackers
    assert af._attackees == checked._attackees


def random_battery(seed, count, **kwargs):
    rng = random.Random(seed)
    return [random_af(rng, **kwargs) for _ in range(count)]


def all_subsets(k):
    for mask in range(1 << k):
        yield frozenset(i for i in range(1, k + 1) if (mask >> (i - 1)) & 1)


def tt_models(num_vars, clauses):
    """All models by truth table, as tuples of bools indexed from var 1."""
    found = []
    for mask in range(1 << num_vars):
        val = [False] + [bool((mask >> b) & 1) for b in range(num_vars)]
        if all(any(val[l] if l > 0 else not val[-l] for l in c) for c in clauses):
            found.append(tuple(val[1:]))
    return found


def random_clauses(rng, num_vars):
    """Random small clause list for solver fuzzing."""
    m = rng.randint(0, 3 * num_vars + 2)
    out = []
    for _ in range(m):
        width = rng.randint(1, min(3, num_vars))
        vs = rng.sample(range(1, num_vars + 1), width)
        out.append([v if rng.random() < 0.5 else -v for v in vs])
    return out


@pytest.fixture(scope="session")
def small_afs():
    """Mixed battery: canonical cases plus seeded random ones up to 7 args."""
    return ([CHAIN3, MUTUAL, SELF1, CYCLE3, NO_ATTACKS3, FULL3]
            + random_battery(20260816, 30, max_k=7))

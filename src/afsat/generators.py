"""Random framework generators and benchmark suites.

Randomness comes from a private port of the three numpy calls the
generators were first written against: ``SeedSequence`` entropy mixing,
``PCG64`` (XSL-RR output, O'Neill 2014) with its 53-bit doubles, and
``Generator.integers`` (Lemire's bounded integers, Lemire 2019). It draws
the same stream as numpy 2, so a (spec, seed) pair pins a framework byte
for byte with the standard library alone; golden sha256 digests in
tests/test_generators.py hold it there. Two attack models are provided:

* probability: one independent uniform draw per ordered argument pair in
  row-major order, the pair attacking iff the draw is <= p_att;
* count: exactly n_att distinct ordered pairs, drawn exactly uniformly by a
  partial Fisher-Yates pass over the flattened k*k pair space; n_att may
  itself be drawn uniformly from {0..k^2}.

Both models include self-attacks in the pair space (the suite manifest
records this). Fixed extremes (no attacks / every pair attacking) round
out benchmark suites. Generated arguments are named a1..ak.
"""

import json
import math
import operator
import os

from .core import ArgumentationFramework
from .fileformats import serialize_apx

METHOD_PROBABILITY = "probability"
METHOD_COUNT = "count"
METHOD_EMPTY = "empty"
METHOD_FULL = "full"

MANIFEST_FORMAT = "afsat-suite-1"
MANIFEST_NAME = "manifest.json"

# Paper-scale suite shape: 8 sizes x 3 densities x 50 probability-model
# instances, 8 sizes x 200 count-model instances, plus the 16 extremes.
SUITE_K_VALUES = (25, 50, 75, 100, 125, 150, 175, 200)
SUITE_P_VALUES = (0.25, 0.5, 0.75)
SUITE_PROB_PER_CLASS = 50
SUITE_COUNT_PER_CLASS = 200


def _names(k):
    return [f"a{i}" for i in range(1, k + 1)]


# The random stream, ported from numpy 2 (numpy/random/bit_generator.pyx,
# pcg64.h, distributions.c) and kept to what the generators call.
_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_value(seed):
    """``seed`` as an int; ValueError unless it is a non-negative integer."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1  # rejected below
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer: {seed!r}")
    return value


def _seed_words(entropy, n_words):
    """numpy's ``SeedSequence(entropy).generate_state(n_words, uint64)``
    for a list of non-negative ints (an int seed s reads as [s])."""
    words = []
    for seed in entropy:
        value = _seed_value(seed)
        words.append(value & _M32)
        while value > _M32:  # 32-bit words, least significant first
            value >>= 32
            words.append(value & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    halves = []
    for i in range(2 * n_words):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 2 * n_words, 2)]


class _Pcg64:
    """numpy's ``Generator(PCG64(seed))``, reduced to ``random(n)`` and
    ``integers(lo, hi)``."""

    def __init__(self, seed):
        s_hi, s_lo, i_hi, i_lo = _seed_words([seed], 4)
        # pcg64_set_seed: from state 0, step, add the seed, step again
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * _PCG_MULT
                       + self._inc) & _M128
        self._half = None  # upper half of a 64-bit draw, the next 32 bits

    def _next64(self):
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self):
        half, self._half = self._half, None
        if half is None:
            x = self._next64()
            half, self._half = x & _M32, x >> 32
        return half

    def random(self, n):
        """n uniform doubles in [0, 1), 53 bits each."""
        return [(self._next64() >> 11) * 2.0 ** -53 for _ in range(n)]

    def integers(self, lo, hi):
        """A uniform int in [lo, hi): Lemire's multiply-and-reject on 32
        bits of the stream while hi - lo <= 2^32, else on 64. A span of
        exactly 2^32 has threshold 0, so it takes one 32-bit draw as is."""
        span = hi - lo
        if span == 1:
            return lo  # draws nothing
        if span <= 1 << 32:
            bits, draw = 32, self._next32
        else:
            bits, draw = 64, self._next64
        threshold = (1 << bits) % span
        product = draw() * span
        while product & ((1 << bits) - 1) < threshold:
            product = draw() * span
        return lo + (product >> bits)


def gen_probability(k, p_att, seed):
    """Framework with each of the k*k ordered pairs attacking independently
    with probability p_att."""
    if k < 1:
        raise ValueError("k must be positive")
    if not 0.0 <= p_att <= 1.0:
        raise ValueError(f"p_att out of [0,1]: {p_att}")
    draws = _Pcg64(seed).random(k * k)
    attacks = []
    for idx in range(k * k):
        if draws[idx] <= p_att:
            i, j = divmod(idx, k)
            attacks.append((i + 1, j + 1))
    return ArgumentationFramework(_names(k), attacks)


def gen_count(k, n_att, seed):
    """Framework with exactly n_att distinct ordered attack pairs, exactly
    uniform over all such attack relations. n_att=None draws the count
    uniformly from {0..k^2} first."""
    if k < 1:
        raise ValueError("k must be positive")
    k2 = k * k
    rng = _Pcg64(seed)
    if n_att is None:
        n_att = rng.integers(0, k2 + 1)
    if not 0 <= n_att <= k2:
        raise ValueError(f"n_att out of [0,{k2}]: {n_att}")
    # partial Fisher-Yates over the flattened pair space, positions realized
    # lazily so large k stays cheap
    repl = {}
    attacks = []
    for t in range(n_att):
        r = rng.integers(t, k2)
        idx = repl.get(r, r)
        repl[r] = repl.get(t, t)
        i, j = divmod(idx, k)
        attacks.append((i + 1, j + 1))
    return ArgumentationFramework(_names(k), attacks)


def gen_empty(k):
    """Framework with no attacks at all."""
    return ArgumentationFramework(_names(k))


def gen_full(k):
    """Framework where every ordered pair (self-attacks included) attacks."""
    return ArgumentationFramework(
        _names(k), [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)])


def generate(method, k, param=None, seed=0):
    """Dispatch a single generation by method name."""
    if method == METHOD_PROBABILITY:
        return gen_probability(k, param, seed)
    if method == METHOD_COUNT:
        return gen_count(k, param, seed)
    if method == METHOD_EMPTY:
        return gen_empty(k)
    if method == METHOD_FULL:
        return gen_full(k)
    raise ValueError(f"unknown generation method: {method!r}")


def _scaled(count, scale):
    return max(1, round(count * scale))


def suite_classes(scale=1.0, k_values=SUITE_K_VALUES, p_values=SUITE_P_VALUES,
                  prob_per_class=SUITE_PROB_PER_CLASS,
                  count_per_class=SUITE_COUNT_PER_CLASS,
                  include_count=True, include_extremes=True):
    """Instance-class plan: list of (class_id, method, k, param, n_instances).

    The default plan at scale 1.0 is 24 probability classes of 50, 8
    count classes of 200, and 16 extreme singletons (2816 instances).
    Scaling multiplies the per-class instance counts, never below 1;
    extremes stay singletons. The scale must be positive and finite.
    """
    if not 0 < scale < math.inf:  # NaN fails too
        raise ValueError(f"scale must be positive and finite: {scale}")
    classes = []
    for k in k_values:
        for p in p_values:
            classes.append((f"prob-k{k:03d}-p{p}", METHOD_PROBABILITY, k, p,
                            _scaled(prob_per_class, scale)))
    if include_count:
        for k in k_values:
            classes.append((f"count-k{k:03d}", METHOD_COUNT, k, None,
                            _scaled(count_per_class, scale)))
    if include_extremes:
        for k in k_values:
            classes.append((f"empty-k{k:03d}", METHOD_EMPTY, k, None, 1))
            classes.append((f"full-k{k:03d}", METHOD_FULL, k, None, 1))
    return classes


def build_suite(out_dir, scale=1.0, base_seed=0, classes=None):
    """Materialize a suite: one APX file per instance plus a manifest.

    Per-instance seeds derive deterministically from (base_seed, class
    index, instance index) by the ported SeedSequence mixing, so any
    instance can be regenerated alone from its manifest row, and a suite
    is the same file for file as numpy's stream built it (golden digests
    in tests/test_generators.py). Returns the manifest dict; writes
    ``manifest.json`` into out_dir.
    """
    if classes is None:
        classes = suite_classes(scale)
    _seed_value(base_seed)  # before anything is written
    os.makedirs(out_dir, exist_ok=True)
    instances = []
    for class_index, (class_id, method, k, param, count) in enumerate(classes):
        for inst_index in range(count):
            seed = _seed_words([base_seed, class_index, inst_index], 1)[0]
            af = generate(method, k, param, seed)
            instance_id = f"{class_id}-{inst_index:03d}"
            path = f"{instance_id}.apx"
            with open(os.path.join(out_dir, path), "w") as fh:
                fh.write(serialize_apx(af))
            row = {"id": instance_id, "class_id": class_id, "k": k,
                   "method": method, "param": param, "seed": seed,
                   "path": path}
            if method == METHOD_COUNT and param is None:
                row["realized_n_att"] = len(af.attacks)
            instances.append(row)
    manifest = {"format": MANIFEST_FORMAT,
                "base_seed": base_seed,
                "scale": scale,
                "count_method_includes_self_attacks": True,
                "instances": instances}
    with open(os.path.join(out_dir, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


# the instance-row keys bench reads, all of which build_suite writes
_ROW_KEYS = (("id", str), ("path", str), ("class_id", str), ("method", str),
             ("k", int))


def load_manifest(path):
    """Read a suite manifest; accepts the directory or the file path.
    ValueError unless it lists at least one instance and every instance
    row holds the keys bench reads, under an id no other row has (bench
    scores and resumes by id) and without '@', which bench's repetition
    ids reserve."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or \
            manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"not a suite manifest: {path}")
    instances = manifest.get("instances")
    if not isinstance(instances, list):
        raise ValueError(f"not a suite manifest: {path}: "
                         "'instances' must be a list")
    if not instances:
        raise ValueError(f"not a suite manifest: {path}: 'instances' is empty")
    ids = set()
    for i, row in enumerate(instances):
        if not isinstance(row, dict):
            raise ValueError(f"not a suite manifest: {path}: "
                             f"instances[{i}] must be an object")
        for key, kind in _ROW_KEYS:
            if type(row.get(key)) is not kind:
                raise ValueError(f"not a suite manifest: {path}: instances"
                                 f"[{i}] has no {key!r} of type "
                                 f"{kind.__name__}")
        if row["id"] in ids:
            raise ValueError(f"not a suite manifest: {path}: instances"
                             f"[{i}] repeats id {row['id']!r}")
        if "@" in row["id"]:  # bench marks repetitions with @r<n>
            raise ValueError(f"not a suite manifest: {path}: instances"
                             f"[{i}] has '@' in id {row['id']!r}")
        ids.add(row["id"])
    manifest["_dir"] = os.path.dirname(os.path.abspath(path))
    return manifest


def instance_path(manifest, row):
    return os.path.join(manifest["_dir"], row["path"])

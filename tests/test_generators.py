"""Seeded generators and benchmark suite materialization."""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

import afsat
from afsat.fileformats import parse_apx, serialize_apx
from afsat.generators import (
    MANIFEST_FORMAT,
    METHOD_COUNT,
    METHOD_EMPTY,
    METHOD_FULL,
    METHOD_PROBABILITY,
    _Pcg64,
    _seed_words,
    build_suite,
    gen_count,
    gen_empty,
    gen_full,
    gen_probability,
    generate,
    instance_path,
    load_manifest,
    suite_classes,
)


class TestProbabilityMethod:
    def test_deterministic(self):
        a = gen_probability(10, 0.4, seed=42)
        b = gen_probability(10, 0.4, seed=42)
        assert a == b

    def test_seed_changes_output(self):
        assert gen_probability(10, 0.4, seed=1) != gen_probability(10, 0.4, seed=2)

    def test_extreme_probabilities(self):
        assert gen_probability(6, 0.0, seed=5).attacks == frozenset()
        full = gen_probability(6, 1.0, seed=5)
        assert len(full.attacks) == 36
        assert full.has_attack(3, 3)

    def test_argument_names(self):
        af = gen_probability(3, 0.5, seed=0)
        assert af.arguments == ("a1", "a2", "a3")

    def test_density_tracks_p(self):
        counts = [len(gen_probability(40, p, seed=s).attacks)
                  for p, s in ((0.25, 1), (0.75, 1))]
        assert counts[0] < 1600 * 0.35
        assert counts[1] > 1600 * 0.65

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_probability(0, 0.5, seed=1)
        with pytest.raises(ValueError):
            gen_probability(3, 1.5, seed=1)


class TestCountMethod:
    def test_exact_count(self):
        for n in (0, 1, 7, 16):
            af = gen_count(4, n, seed=3)
            assert len(af.attacks) == n

    def test_deterministic(self):
        assert gen_count(12, 30, seed=9) == gen_count(12, 30, seed=9)
        assert gen_count(12, 30, seed=9) != gen_count(12, 30, seed=10)

    def test_full_and_empty_counts(self):
        assert gen_count(5, 25, seed=1) == gen_full(5)
        assert gen_count(5, 0, seed=1) == gen_empty(5)

    def test_random_count_in_range(self):
        seen = set()
        for seed in range(60):
            af = gen_count(3, None, seed=seed)
            seen.add(len(af.attacks))
            assert 0 <= len(af.attacks) <= 9
        # the drawn counts should spread over the range
        assert len(seen) > 5

    def test_uniform_over_pair_sets(self):
        """Every 2-subset of the 2x2 pair space appears, at roughly equal
        frequency (the draw is exactly uniform; bounds are loose)."""
        counts = {}
        for seed in range(1200):
            af = gen_count(2, 2, seed=seed)
            counts[af.attacks] = counts.get(af.attacks, 0) + 1
        assert len(counts) == 6
        for n in counts.values():
            assert 140 <= n <= 260, counts

    def test_self_attacks_in_pair_space(self):
        hits = sum(gen_count(3, 5, seed=s).has_attack(2, 2) for s in range(80))
        assert hits > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_count(3, 10, seed=1)
        with pytest.raises(ValueError):
            gen_count(3, -1, seed=1)
        with pytest.raises(ValueError):
            gen_count(0, 0, seed=1)


class TestExtremes:
    def test_empty(self):
        af = gen_empty(4)
        assert af.k == 4 and not af.attacks

    def test_full(self):
        af = gen_full(3)
        assert len(af.attacks) == 9

    def test_dispatch(self):
        assert generate(METHOD_PROBABILITY, 4, 0.5, seed=7) == \
            gen_probability(4, 0.5, seed=7)
        assert generate(METHOD_COUNT, 4, 3, seed=7) == gen_count(4, 3, seed=7)
        assert generate(METHOD_EMPTY, 4) == gen_empty(4)
        assert generate(METHOD_FULL, 4) == gen_full(4)
        with pytest.raises(ValueError):
            generate("markov", 4)


class TestSuitePlan:
    def test_default_plan_size(self):
        classes = suite_classes()
        assert len(classes) == 24 + 8 + 16
        total = sum(n for *_, n in classes)
        assert total == 2816

    def test_scaled_plan(self):
        classes = suite_classes(scale=0.1)
        by_method = {}
        for _, method, _, _, n in classes:
            by_method.setdefault(method, set()).add(n)
        assert by_method[METHOD_PROBABILITY] == {5}
        assert by_method[METHOD_COUNT] == {20}
        assert by_method[METHOD_EMPTY] == {1} and by_method[METHOD_FULL] == {1}

    def test_scale_never_below_one(self):
        for _, _, _, _, n in suite_classes(scale=0.001):
            assert n >= 1

    @pytest.mark.parametrize("scale", [0, -1, math.nan, math.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="scale must be positive"):
            suite_classes(scale=scale)

    def test_class_ids_unique(self):
        ids = [c[0] for c in suite_classes()]
        assert len(set(ids)) == len(ids)

    def test_restriction_flags(self):
        classes = suite_classes(k_values=(25, 50), include_count=False,
                                include_extremes=False)
        assert {c[1] for c in classes} == {METHOD_PROBABILITY}
        assert {c[2] for c in classes} == {25, 50}


class TestBuildSuite:
    CLASSES = [("probA", METHOD_PROBABILITY, 5, 0.5, 3),
               ("countA", METHOD_COUNT, 4, None, 2),
               ("emptyA", METHOD_EMPTY, 3, None, 1)]

    def test_files_and_manifest(self, tmp_path):
        out = tmp_path / "suite"
        manifest = build_suite(str(out), base_seed=7, classes=self.CLASSES)
        assert len(manifest["instances"]) == 6
        loaded = load_manifest(str(out))
        assert loaded["format"] == "afsat-suite-1"
        assert loaded["base_seed"] == 7
        assert loaded["count_method_includes_self_attacks"] is True
        for row in loaded["instances"]:
            with open(instance_path(loaded, row)) as fh:
                af = parse_apx(fh.read())
            assert af.k == row["k"]
            # any instance can be rebuilt from its manifest row alone
            assert af == generate(row["method"], row["k"], row["param"],
                                  row["seed"])
            if row["method"] == METHOD_COUNT:
                assert row["realized_n_att"] == len(af.attacks)

    def test_instance_ids_match_paths(self, tmp_path):
        manifest = build_suite(str(tmp_path / "s"), classes=self.CLASSES)
        for row in manifest["instances"]:
            assert row["path"] == row["id"] + ".apx"
            assert row["id"].startswith(row["class_id"])

    def test_byte_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        build_suite(str(a), base_seed=11, classes=self.CLASSES)
        build_suite(str(b), base_seed=11, classes=self.CLASSES)
        files_a = sorted(os.listdir(a))
        assert files_a == sorted(os.listdir(b))
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_base_seed_changes_instances(self, tmp_path):
        m1 = build_suite(str(tmp_path / "x"), base_seed=1, classes=self.CLASSES)
        m2 = build_suite(str(tmp_path / "y"), base_seed=2, classes=self.CLASSES)
        seeds1 = [r["seed"] for r in m1["instances"]]
        seeds2 = [r["seed"] for r in m2["instances"]]
        assert seeds1 != seeds2

    def test_per_instance_seeds_differ(self, tmp_path):
        manifest = build_suite(str(tmp_path / "s"), classes=self.CLASSES)
        seeds = [r["seed"] for r in manifest["instances"]]
        assert len(set(seeds)) == len(seeds)

    def test_load_manifest_rejects_other_json(self, tmp_path):
        p = tmp_path / "manifest.json"
        for value in ({"format": "something-else"}, [], "x", None, 3):
            p.write_text(json.dumps(value))
            with pytest.raises(ValueError, match="not a suite manifest"):
                load_manifest(str(p))
        row = {"id": "x", "path": "x.apx", "class_id": "c", "method": "full",
               "k": 2}
        for instances, message in (
                (None, "'instances' must be a list"),
                ({"x": row}, "'instances' must be a list"),
                ([], "'instances' is empty"),
                ([row, "x"], r"instances\[1\] must be an object"),
                ([{"id": "x"}], r"instances\[0\] has no 'path' of type str"),
                ([row, dict(row, id=3)],
                 r"instances\[1\] has no 'id' of type str"),
                ([dict(row, class_id=None)],
                 r"instances\[0\] has no 'class_id' of type str"),
                ([dict(row, method=["full"])],
                 r"instances\[0\] has no 'method' of type str"),
                *[([dict(row, k=k)], r"instances\[0\] has no 'k' of type int")
                  for k in ("2", 2.0, True)],
                # bench scores and resumes by id
                ([row, dict(row, path="y.apx", k=3)],
                 r"instances\[1\] repeats id 'x'"),
                # bench's repetition ids x@r2, x@r3, ... must not collide
                ([row, dict(row, id="x@r2", path="y.apx")],
                 r"instances\[1\] has '@' in id 'x@r2'")):
            manifest = {"format": MANIFEST_FORMAT}
            if instances is not None:
                manifest["instances"] = instances
            p.write_text(json.dumps(manifest))
            with pytest.raises(ValueError, match=rf"^not a suite manifest: "
                                                 rf".*: {message}$"):
                load_manifest(str(p))
        manifest = {"format": MANIFEST_FORMAT, "instances": [row]}
        p.write_text(json.dumps(manifest))
        assert load_manifest(str(p))["instances"] == [row]


def apx_digest(af):
    return hashlib.sha256(serialize_apx(af).encode()).hexdigest()


def suite_digests(out_dir):
    """(manifest digest, one digest over every instance file by name)."""
    files = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name != "manifest.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                files.update(name.encode() + b"\0" + fh.read())
    with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest(), files.hexdigest()


class TestGoldenStream:
    """Digests of frameworks and a suite as numpy 2.4.6 built them, before
    the generators owned their stream; they hold without numpy."""

    @pytest.mark.parametrize("make, digest", [
        pytest.param(lambda: gen_probability(100, 0.25, 3),
                     "16b57e8144750a201576a547ef8953dd"
                     "6f5770c1474c582eb58bba8d14f01b84",
                     id="probability-k100"),
        pytest.param(lambda: gen_probability(200, 0.5, 20260816),
                     "c0da7dac1aa84bed1466f02371a0cea9"
                     "1ac27e22a49c62e4d504048c7be68450",
                     id="probability-k200"),
        pytest.param(lambda: gen_count(1000, 1000, 5),
                     "3d22d4cfe6679b6c20b3fcf49e01ec78"
                     "613662c96ea004abb76466944f0fbf1b",
                     id="count-k1000"),
        pytest.param(lambda: gen_count(60, None, 9),
                     "79373256c93bbbf950c66a3729dd34aa"
                     "b5a20587f90a4e761e7e32b51f679fe8",
                     id="count-drawn"),
        # k*k > 2^32: the 64-bit bounded-integer path
        pytest.param(lambda: gen_count(70000, 5, 1),
                     "5936124f302153e964048a311342a363"
                     "5f700ca4ab35b2943801da93cc72a361",
                     id="count-k70000"),
    ])
    def test_framework(self, make, digest):
        assert apx_digest(make()) == digest

    def test_suite(self, tmp_path):
        build_suite(str(tmp_path), scale=0.01, base_seed=7,
                    classes=suite_classes(scale=0.01))
        assert len(os.listdir(tmp_path)) == 57
        assert suite_digests(str(tmp_path)) == (
            "c6c4e27556914d6b97210385bd3363ca"
            "dda4b9745b13f135910c160ec982bb2a",
            "43cc21cdf5e884fff04769a1e9b1d926"
            "94cf4786948a6ed9feb072f55f7e1b32")


SEEDS = (0, 1, 3, 7, 42, 20260816, 2**32 - 1, 2**32, 2**64 + 7,
         123456789012345678901234567890)
SPANS = (1, 2, 40_000, 10**6, 2**32 - 1, 2**32, 2**32 + 1, 2**40)


class TestStreamMatchesNumpy:
    """The port against numpy's ``Generator(PCG64(seed))`` and
    ``SeedSequence``, draw for draw."""

    @pytest.fixture
    def np(self):
        return pytest.importorskip("numpy")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_floats(self, np, seed):
        theirs = np.random.Generator(np.random.PCG64(seed)).random(200)
        assert _Pcg64(seed).random(200) == theirs.tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_draws(self, np, seed):
        """Integers on every span, each bit width and random spans up to
        2^62, interleaved with floats, so the 32-bit half kept between
        draws is exercised too."""
        ours, theirs = _Pcg64(seed), np.random.Generator(np.random.PCG64(seed))
        pick = random.Random(seed)
        for _ in range(400):
            roll = pick.random()
            if roll < 0.2:
                n = pick.randrange(1, 4)
                assert ours.random(n) == theirs.random(n).tolist()
                continue
            if roll < 0.6:
                span = pick.choice(SPANS)
            else:
                span = pick.randrange(1, 2 ** pick.choice((32, 62)))
            lo = pick.randrange(0, 1000)
            assert ours.integers(lo, lo + span) == \
                int(theirs.integers(lo, lo + span))

    @pytest.mark.parametrize("entropy", [
        [0], [7, 0, 0], [20260816, 31, 199], [2**32 + 5, 2**40, 1],
        [2**64 + 7, 3, 2**33, 9, 11], [123456789012345678901234567890]])
    def test_seed_sequence(self, np, entropy):
        ss = np.random.SeedSequence(entropy)
        for n_words in (1, 4):
            assert _seed_words(entropy, n_words) == \
                ss.generate_state(n_words, np.uint64).tolist()

    def test_numpy_integer_seed(self, np):
        assert gen_probability(6, 0.5, np.int64(3)) == \
            gen_probability(6, 0.5, 3)


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_generators_reject(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            gen_probability(3, 0.5, seed)
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            gen_count(3, 2, seed)

    def test_base_seed_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            build_suite(str(tmp_path), base_seed=-1,
                        classes=TestBuildSuite.CLASSES)


def test_numpy_never_loaded():
    """Generating frameworks and suites, from the library and the command
    line, runs on the standard library alone."""
    code = """\
import contextlib, io, sys, tempfile
import afsat.bench, afsat.generators
from afsat.cli import main
with tempfile.TemporaryDirectory() as d:
    afsat.generators.build_suite(
        d + "/lib", base_seed=7,
        classes=afsat.generators.suite_classes(scale=0.01, k_values=(25,)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--k", "9", "--p-att", "0.5"]) == 0
        assert main(["generate", "--k", "9", "--method", "count"]) == 0
        assert main(["generate", "--out", d + "/cli", "--scale", "0.01",
                     "--no-extremes"]) == 0
print("numpy" in sys.modules)
"""
    package_parent = os.path.dirname(os.path.dirname(afsat.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ,
                                              PYTHONPATH=package_parent))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

"""
Reproducible random frameworks and on-disk suites
=================================================

Two random models: flip a seeded coin per ordered pair (probability
method), or draw an exact number of attacks without replacement (count
method). Seeds make every instance reproducible down to the byte, which
is what lets benchmark suites be regenerated from their manifest alone.
"""

import json
import os
import tempfile

from afsat.generators import (build_suite, gen_count, gen_probability,
                              generate, load_manifest, suite_classes)

# same seed, same framework; nearby seeds decorrelate immediately
a = gen_probability(6, 0.4, seed=11)
b = gen_probability(6, 0.4, seed=11)
c = gen_probability(6, 0.4, seed=12)
print("seed 11 twice:", a == b, "| seed 11 vs 12:", a == c)
print("attacks drawn:", len(a.attacks), "of 36 possible (p=0.4)")

# the count method hits its target exactly, self-attacks included
af = gen_count(6, 14, seed=3)
print("count method:", len(af.attacks), "attacks, self-attack:",
      any(i == j for i, j in af.attacks))

# the default benchmark plan is 2816 instances; scale it down for a look
classes = suite_classes(scale=0.01)
total = sum(n for *_, n in classes)
print(f"scaled plan: {len(classes)} classes, {total} instances")

# build a small suite on disk: one APX file per instance plus a manifest
with tempfile.TemporaryDirectory(prefix="suite-") as out:
    manifest = build_suite(out, base_seed=7,
                           classes=[("demo", "probability", 8, 0.5, 3)])
    print("suite files:", sorted(os.listdir(out)))

    # every manifest row carries what build_suite used, so any instance
    # can be regenerated independently and byte-compared
    row = manifest["instances"][0]
    print(json.dumps(row, indent=2, sort_keys=True))
    again = generate(row["method"], row["k"], row["param"], row["seed"])
    stored = load_manifest(out)
    assert stored["instances"][0] == row
    with open(os.path.join(out, row["path"])) as fh:
        on_disk = fh.read()
from afsat.fileformats import serialize_apx
print("regenerated == on disk:", serialize_apx(again) == on_disk)

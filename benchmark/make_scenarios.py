"""Write the benchmark's scenario files with explicit metric and weight tables.

Run from the repository root:

    python3 benchmark/make_scenarios.py

The instances come from ``dncalc.randomgen`` with the seeds fixed below.
The files are committed, so a later change to the generator does not
silently change what the benchmark measures; rerun this script and review
the diff when that is intended.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from dncalc.jets import JetSpace  # noqa: E402
from dncalc.randomgen import random_instance, random_metric, random_weight  # noqa: E402
from dncalc.serialize import SCHEMA_VERSION, jet_to_json  # noqa: E402

VERIFIED_PAIR = [
    {"kind": "factorize", "mode": "scalar", "verify": True},
    {"kind": "factorize", "mode": "gauge", "gauge": "s", "verify": True},
]

# Dense random instances: nearly full coefficient jets with large rationals.
# Seed 221 is the heavy instance.  The sizes keep one round near 4 s, so a
# run holds several rounds and reports their median: 221 runs at (6,5)
# depth 2, 1000 and 1002 at (5,4) depth 3.
DENSE = [
    ("dense-1000", 1000, 3, 5, 4, 3),
    ("dense-1002", 1002, 3, 5, 4, 3),
    ("dense-221", 221, 3, 6, 5, 2),
]

# y-independent instances at high depth: short jets, many symbol products.
# Sizes keep one round near 4 s, as for DENSE.
DEEP = [
    ("deep-n3-7", 7, 3, 8, 7, 7),
    ("deep-n4-41", 41, 4, 5, 4, 4),
    ("deep-n4-43", 43, 4, 5, 4, 4),
]

# The mixed round trip: random metric and weight drawn as a scenario file's
# "random" fields draw them, with seed 11, at (4,3) and depth 3, so that one
# round takes about 4 s.  Reconstructions run to order 2.
ROUNDTRIP_SEED = 11
ROUNDTRIP_TASKS = VERIFIED_PAIR + [
    {"kind": "dn", "map": "lambda0"},
    {"kind": "dn", "map": "lambda1", "gauge": "s"},
    {"kind": "reconstruct", "method": "first-order", "order": 1},
    {"kind": "reconstruct", "method": "metric-known-weight", "order": 2},
    {"kind": "reconstruct", "method": "weight-scalar", "order": 2},
    {"kind": "reconstruct", "method": "weight-gauge", "order": 2,
     "prescribe": {"d2V": "true"}},
    {"kind": "reconstruct", "method": "volume-gauge", "order": 2,
     "prescribe": {"d1V": "true"}},
    {"kind": "reconstruct", "method": "volume-scalar", "order": 2},
    {"kind": "counterexample", "depth": 3},
    {"kind": "validate-disk", "depth": 2, "modes": "8:64"},
]


def scenario(name, seed, n, kr, ky, depth, metric, weight, tasks):
    nt = n - 1
    table = {
        "%d,%d" % (a + 1, b + 1): jet_to_json(metric.g_lower[a][b])
        for a in range(nt)
        for b in range(a, nt)
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "dimension": n,
        "truncation": {"radial": kr, "tangential": ky},
        "depth": depth,
        "backend": "rational",
        "seed": seed,
        "metric": table,
        "weight": jet_to_json(weight),
        "tasks": tasks,
    }


def build_all() -> dict:
    out = {}
    for name, seed, n, kr, ky, depth in DENSE:
        metric, weight = random_instance(seed, n=n, kr=kr, ky=ky)
        out[name] = scenario(name, seed, n, kr, ky, depth, metric, weight, VERIFIED_PAIR)
    for name, seed, n, kr, ky, depth in DEEP:
        metric, weight = random_instance(
            seed, n=n, kr=kr, ky=ky, tangentially_constant=True
        )
        out[name] = scenario(name, seed, n, kr, ky, depth, metric, weight, VERIFIED_PAIR)
    # same draws as serialize.Scenario makes for "metric": "random" and
    # "weight": "random"
    space = JetSpace(3)
    metric = random_metric(random.Random(ROUNDTRIP_SEED), space, 4, 3)
    rng = random.Random(ROUNDTRIP_SEED)
    rng.random()
    weight = random_weight(rng, space, 4, 3)
    out["roundtrip"] = scenario(
        "roundtrip", ROUNDTRIP_SEED, 3, 4, 3, 3, metric, weight, ROUNDTRIP_TASKS
    )
    return out


def main() -> int:
    target = os.path.join(HERE, "scenarios")
    os.makedirs(target, exist_ok=True)
    for name, raw in build_all().items():
        path = os.path.join(target, name + ".json")
        with open(path, "w") as fh:
            json.dump(raw, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", os.path.relpath(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())

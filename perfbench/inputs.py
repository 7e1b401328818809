"""Seeded input generation for the workloads.

Run as a script it is the benchmark's set-up step: a fresh interpreter
imports circpc and writes one workload's inputs (study config or
elicitation plan) into a directory.  The same seed always writes
byte-identical files.  Its last line of output is the time the speed
probe (``workloads.probe_s``) took right after.

    python3 perfbench/inputs.py --workload prior-elicit --seed 1 --seconds 40 --trace 0 --out DIR
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("study-vm", "prior-elicit")

PAIRS = (
    ("vm", "uniform", math.pi / 2),
    ("vm", "pointmass", math.pi / 2),
    ("cardioid", "uniform", 0.5),
    ("cardioid", "curve", 0.5),
    ("wc", "uniform", 0.6),
)
ALPHAS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
PRIOR_DRAWS = 40000
QUANTILE_LEVELS = 99


def import_circpc():
    """Import circpc from this checkout's ``src``, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import circpc

    if not os.path.abspath(circpc.__file__).startswith(SRC + os.sep):
        raise ImportError(f"circpc was imported from {circpc.__file__}, not from {SRC}")
    return circpc


def _rng(workload, seed):
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence([int(seed), WORKLOADS.index(workload)]))


def _seed(rng):
    return int(rng.integers(1, 2**31 - 2**21))


def make(workload, seed, seconds, trace, out_dir):
    """Write the inputs of one run into ``out_dir`` and return its plan."""
    circpc = import_circpc()
    rng = _rng(workload, seed)
    # a traced run times one pass; an untraced one repeats passes for
    # ``seconds`` (workloads.run_passes)
    plan = {"workload": workload, "seed": int(seed),
            "seconds": 0.0 if trace else float(seconds), "min_passes": 1 if trace else 2}
    os.makedirs(out_dir, exist_ok=True)

    if workload == "study-vm":
        # the harness derives every replicate's data and chain seed from base_seed
        plan.update(base_seed=_seed(rng), replicates=1)
    elif workload == "prior-elicit":
        refs = []
        for family in ("vm", "cardioid", "wc"):
            for spec in circpc.full_study_config(family).prior_specs:
                if not spec.kind.startswith("pc_"):
                    refs.append([family, spec.kind, list(spec.hypers)])
        plan.update(
            pairs=[list(p) for p in PAIRS],
            alphas=list(ALPHAS),
            draws=PRIOR_DRAWS,
            levels=QUANTILE_LEVELS,
            sample_seeds=[[_seed(rng) for _ in ALPHAS] for _ in PAIRS],
            reference_priors=refs,
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")

    with open(os.path.join(out_dir, "plan.json"), "w") as fh:
        json.dump(plan, fh, indent=1, sort_keys=True)
    return plan


def digest_dir(path):
    """SHA-256 over the names and bytes of every file in ``path``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    make(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    # this interpreter's speed, for run.set_up to scale its wall time by
    import workloads

    print(statistics.median(workloads.probe_s() for _ in range(3)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

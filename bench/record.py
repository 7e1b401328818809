"""Record the sampler's cost per iteration in a BENCH_<n>.json.

    python bench/record.py --out BENCH_10.json
    python bench/record.py --against ../parent --rounds 15 --out BENCH_10.json

MCMC chains of 3000 iterations (1000 of them burn-in) per family x
prior class at n = 300 and n = 1000, timed by the chain's own
``wall_s``, in microseconds per iteration; this is ROADMAP item 1's
quick mode, and the only mode so far.  Each chain's time is also scaled
to reference speed, as perfbench scales an operation: by
``perfbench.workloads.PROBE_REF_S`` over the mean of the speed probe
timed just before and just after the chain, so a slow phase of a shared
core stretches the probe with the chain.  The checkout's tree is
``change``; with ``--against`` a second checkout is the ``parent``.
Each tree runs in its own worker interpreter, which imports circpc
from the tree's ``src``.  In every round each cell runs three times on
every tree, the trees taking turns chain by chain (in alternating
order), on the same data and seeds; a round keeps, per tree, the median
of its three chains' times at reference speed and, apart, the median of
their raw times.  (The smallest scaled time would also pick the chain
whose probe happened to read slowest.)  The JSON holds, per tree and
cell, the median and interquartile range over the rounds at reference
speed and raw, every round's scaled and raw value and a digest of each
round's draws, so a reader sees whether the trees drew the same bits;
with ``--against``, per cell the median over rounds of the paired
speed-up at reference speed and the number of rounds the change won;
and the machine (cores, CPU, Python, numpy, scipy, and numpy's dispatch
probe, which tells the CPU dispatch the chains' bits came from).

Run from the root of a checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ITERATIONS, BURN_IN = 3000, 1000
REPEATS = 3  # chains per cell, checkout and round; their medians count
SIZES = (300, 1000)
# family, the true concentration of its data, and its prior classes as
# (label, constructor name, arguments)
CELLS = (
    ("vm", 2.0, (("pc-uniform", "PcPrior", ("vm", "uniform", 0.9)),
                 ("pc-pointmass", "PcPrior", ("vm", "pointmass", 0.3)),
                 ("gamma", "GammaOneB", (1.0,)),
                 ("h2", "H2", ()),
                 ("h3", "H3", ()))),
    ("cardioid", 0.3, (("pc-uniform", "PcPrior", ("cardioid", "uniform", 2.0)),
                       ("pc-curve", "PcPrior", ("cardioid", "curve", 2.0)),
                       ("scaled-beta", "ScaledBetaHalf", (2.0, 2.0)),
                       ("uniform-half", "UniformHalf", ()))),
    ("wc", 0.7, (("pc-uniform", "PcPrior", ("wc", "uniform", 1.0)),
                 ("beta", "Beta", (2.0, 2.0)))),
)
CELL_NAMES = [f"{family}-{label}.n{n}" for family, _, priors in CELLS
              for n in SIZES for label, _, _ in priors]


def dispatch_probe():
    """SHA-256 of numpy's log, exp and log1p on a fixed input. Their bits
    depend on the CPU dispatch numpy takes (its AVX-512 kernels or the
    baseline ones), and so do a chain's; the timings and digests of a
    record hold for the probe value it gives."""
    import numpy

    x = numpy.linspace(1e-3, 700.0, 300_000)
    h = hashlib.sha256()
    for ufunc in (numpy.log, numpy.exp, numpy.log1p):
        h.update(ufunc(x).tobytes())
    return h.hexdigest()


def machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_dispatch": dispatch_probe()}


def serve(src):
    """Worker: import circpc from ``src``, then answer each stdin line
    ``[cell, seed]`` with one stdout line ``[us_per_iter at reference
    speed, raw us_per_iter, draws digest]``."""
    sys.path.insert(0, src)
    import circpc

    # every tree's worker times this checkout's probe
    sys.path.append(ROOT)
    from perfbench.workloads import PROBE_REF_S, probe_s

    models = {}
    for family, truth, priors in CELLS:
        for n in SIZES:
            data = circpc.sample(circpc.DistributionSpec(family, 1.0, truth), n, seed=n + 7)
            for label, kind, args in priors:
                prior = getattr(circpc, kind)(*args)
                models[f"{family}-{label}.n{n}"] = (circpc.ModelSpec(family, prior), data)
    for line in sys.stdin:
        cell, seed = json.loads(line)
        model, data = models[cell]
        config = circpc.McmcConfig(iterations=ITERATIONS, burn_in=BURN_IN, seed=seed)
        before = probe_s()
        chain = circpc.run_mcmc(model, data, config)
        after = probe_s()
        digest = hashlib.sha256(chain.draws.tobytes()).hexdigest()[:16]
        us = 1e6 * chain.wall_s / ITERATIONS
        print(json.dumps([us * 2.0 * PROBE_REF_S / (before + after), us, digest]), flush=True)


def quartiles(values):
    if len(values) == 1:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def record(args):
    trees = [("change", os.path.join(ROOT, "src"))]
    if args.against:
        trees.append(("parent", os.path.join(os.path.abspath(args.against), "src")))
    workers = {label: subprocess.Popen([sys.executable, os.path.abspath(__file__), "--worker", src],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for label, src in trees}

    def run(label, cell, seed):
        worker = workers[label]
        worker.stdin.write(json.dumps([cell, seed]) + "\n")
        worker.stdin.flush()
        return json.loads(worker.stdout.readline())

    runs = {label: {cell: [] for cell in CELL_NAMES} for label, _ in trees}
    try:
        for r in range(args.rounds):
            for i, cell in enumerate(CELL_NAMES):
                order = trees if (r + i) % 2 == 0 else trees[::-1]
                repeats = {label: [] for label, _ in trees}
                for _ in range(REPEATS):
                    for label, _ in order:
                        repeats[label].append(run(label, cell, r))
                # every repeat runs the round's seed, so draws the same digest
                for label, values in repeats.items():
                    runs[label][cell].append((statistics.median(v[0] for v in values),
                                              statistics.median(v[1] for v in values),
                                              values[0][2]))
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait()
    result = {
        "bench": "quick",
        "what": "inference.run_mcmc microseconds per iteration, per family x prior class, "
                "at reference speed (probe-scaled) and raw",
        "iterations": ITERATIONS,
        "burn_in": BURN_IN,
        "repeats": REPEATS,
        "rounds": args.rounds,
        "machine": machine(),
        "trees": {},
    }
    for label, cells in runs.items():
        tree = {}
        for cell, values in cells.items():
            times, raw = [v[0] for v in values], [v[1] for v in values]
            median, iqr = quartiles(times)
            raw_median, raw_iqr = quartiles(raw)
            tree[cell] = {"median_us": median, "iqr_us": iqr, "runs_us": times,
                          "raw_median_us": raw_median, "raw_iqr_us": raw_iqr, "raw_runs_us": raw,
                          "digests": [v[2] for v in values]}
        result["trees"][label] = tree
    if args.against:
        result["speedup"] = {}
        for cell in CELL_NAMES:
            pairs = list(zip(runs["change"][cell], runs["parent"][cell]))
            result["speedup"][cell] = {
                "median": statistics.median(p[0] / c[0] for c, p in pairs),
                "wins": sum(c[0] < p[0] for c, p in pairs),
                "same_draws": all(c[2] == p[2] for c, p in pairs),
            }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--against", help="the parent checkout, timed chain by chain in turn")
    ap.add_argument("--out", default="BENCH_quick.json")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        serve(args.worker)
        return 0
    if args.rounds < 1:
        ap.error("--rounds must be positive")
    result = record(args)
    for label, tree in result["trees"].items():
        for cell, row in tree.items():
            print(f"{label:8s} {cell:26s} {row['median_us']:8.2f} us/iter at reference speed "
                  f"(IQR {row['iqr_us']:.2f}; raw {row['raw_median_us']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

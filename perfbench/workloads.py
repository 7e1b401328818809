"""Timed phases of the workloads.

A runner builds one pass of its workload as a list of operations and
repeats the pass on the same inputs, in a closed loop: it calls the next
operation only after the previous one returned.  Every pass must give
bit-identical results.  With a tracer, the same work runs with spans
recorded around the calls into circpc's modules.

Each operation is timed at reference speed.  The reference machine shares
its cores with other tenants, and the speed at which one core runs the
same code changes by up to 1.5x, in phases that last from a fraction of a
second to minutes and differ between the two cores.  ``probe_s`` times a
fixed piece of Python and numpy work, independent of circpc, in the
benchmark's own thread before each operation and after the last.  An
operation's time multiplied by ``PROBE_REF_S`` over the mean of the probe
times on either side of it is its time at reference speed; its median
over the passes is the operation's result, and ``ref_wall_s``, the sum of
those medians, is the time one pass takes at reference speed.
"""

import hashlib
import math
import os
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

# largest parameter inverse_distance represents for the unbounded-distance
# pairs; pc_sample saturates there and pc_quantile refuses levels beyond it
PARAM_CAP = {"vm": math.exp(709.0), "wc": float(np.nextafter(1.0, 0.0))}

# probe_s on the reference machine (2-core Xeon, Python 3.11, numpy 2.4)
# when its cores are not contended
PROBE_REF_S = 0.0013
_PROBE_STEPS = np.linspace(-1.0, 1.0, 500)
_PROBE_X = np.linspace(0.5, 1.5, 40_000)
_PROBE_BUF = np.empty_like(_PROBE_X)  # reused, so that the probe allocates nothing


def _probe_density(x):
    return math.cos(x) - math.log1p(x * x)


def probe_s():
    """Wall time of the speed probe: a scalar random-walk loop shaped like
    the sampler's, and array arithmetic, the two kinds of work circpc
    does.  It allocates no arrays, so that its time does not depend on
    the allocator's state."""
    start = time.perf_counter()
    for _ in range(2):
        x, fx = 0.0, _probe_density(0.0)
        for i in range(_PROBE_STEPS.size):
            y = (x + 0.5 * _PROBE_STEPS[i]) % (2.0 * math.pi)
            fy = _probe_density(y)
            if fy - fx > -0.5:
                x, fx = y, fy
    for _ in range(10):
        np.exp(np.negative(_PROBE_X, out=_PROBE_BUF), out=_PROBE_BUF)
        np.log(np.add(_PROBE_BUF, _PROBE_X, out=_PROBE_BUF), out=_PROBE_BUF)
    return time.perf_counter() - start


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def run_passes(ops, plan, digest):
    """Run the ``(name, call)`` operations ``ops`` in order, once a pass.

    There are at least ``plan["min_passes"]`` passes; after that another
    one starts while one as long as the longest so far would end within
    ``plan["seconds"]`` of the first.  ``digest(row)`` reduces what a
    pass's operations returned (None for one that raised) to a string, or
    to None when the pass failed; only the last pass's results are kept.
    Returns ``(ref_s, last, failed, pass_s, digests)``: ``ref_s[i]`` is
    operation i's median time at reference speed, ``last`` the last pass's
    results, ``failed`` the number of raised calls, and ``pass_s[p]`` and
    ``digests[p]`` the measured time of pass p's operations and its digest.
    """
    scaled, pass_s, digests, failed = [], [], [], 0
    first = time.perf_counter()
    longest = 0.0
    while len(digests) < plan["min_passes"] or time.perf_counter() + longest - first <= plan["seconds"]:
        pass_start = time.perf_counter()
        before = probe_s()
        row_s, row_r, raw = [], [], 0.0
        for name, op in ops:
            start = time.perf_counter()
            try:
                result = op()
            except Exception:
                print(f"perfbench: operation failed: {name}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                result = None
                failed += 1
            elapsed = time.perf_counter() - start
            after = probe_s()
            row_s.append(elapsed * 2.0 * PROBE_REF_S / (before + after))
            row_r.append(result)
            raw += elapsed
            before = after
        scaled.append(row_s)
        pass_s.append(raw)
        digests.append(digest(row_r))
        longest = max(longest, time.perf_counter() - pass_start)
    return [statistics.median(col) for col in zip(*scaled)], row_r, failed, pass_s, digests


# the names circpc.harness imports from the layers below it, and their layers
HARNESS_CALLS = (
    ("sample", "distributions"),
    ("run_mcmc", "inference"),
    ("summarize", "inference"),
    ("build_concentration_prior", "harness"),
)


def study_vm(circpc, plan, workdir, tracer=None):
    """The desk grid, one single-cell ``run_sim_study`` call per cell, in
    grid order and serially: the study's chains then run in the
    benchmark's own thread, next to the speed probe."""
    import circpc.harness as harness

    config = replace(circpc.desk_study_config(plan["base_seed"]), replicates=plan["replicates"])
    cells = [replace(config, prior_specs=(spec,), true_concentration_grid=(truth,), sample_sizes=(n,))
             for spec in config.prior_specs
             for truth in config.true_concentration_grid
             for n in config.sample_sizes]
    run = circpc.run_sim_study
    targets = []
    if tracer is not None:
        run = tracer.wrap("harness", "run_sim_study", run)
        targets = [(harness, name, layer) for name, layer in HARNESS_CALLS]
    ops = [(f"cell {i}", lambda cell=cell: run(cell, workers=1)) for i, cell in enumerate(cells)]
    path = os.path.join(workdir, "study.csv")

    def digest(row):
        if None in row:
            return None
        harness.SimStudyResult(rows=tuple(r for result in row for r in result.rows)).to_csv(path)
        return sha256_file(path)

    with tracer.patched(targets) if tracer is not None else nullcontext():
        ref_s, last, raised, pass_s, digests = run_passes(ops, plan, digest)

    # every pass gives the same rows, or selftest.passes_identical fails
    rows = tuple(r for result in last if result is not None for r in result.rows)
    cells_failed = sum(r[6] for r in rows)
    return {
        "ref_wall_s": sum(ref_s),
        "pass_s": pass_s,
        "attempted": len(cells) * config.replicates * len(digests),
        "failed": raised * config.replicates + cells_failed * len(digests),
        "work": float(len(rows) * config.replicates - cells_failed),
        "config": config,
        "rows": rows,
        "pass_digests": digests,
        "fingerprints": {"study.csv": digests[-1]},
    }


# the circpc names the prior-elicit runner calls, and the layer of each
ELICIT_API = {
    "profile_for": "divergence",
    "attainable_alpha_range": "pc_priors",
    "TailSpec": "pc_priors",
    "calibrate_lambda": "pc_priors",
    "PcPrior": "pc_priors",
    "pc_sample": "pc_priors",
    "pc_cdf": "pc_priors",
    "pc_quantile": "pc_priors",
    "overfit_audit": "reference_priors",
    "PriorSpec": "harness",
    "build_concentration_prior": "harness",
}


class _Api:
    def __init__(self, circpc, tracer):
        for name, layer in ELICIT_API.items():
            fn = getattr(circpc, name)
            setattr(self, name, fn if tracer is None else tracer.wrap(layer, name, fn))


def prior_elicit(circpc, plan, workdir, tracer=None):
    """Elicit every attainable PC prior (calibrate, sample, quantile,
    audit), then audit every reference prior of the full study grids."""
    import circpc.pc_priors as pc_priors
    import circpc.reference_priors as reference_priors

    api = _Api(circpc, tracer)
    targets = []
    if tracer is not None:
        targets = [
            (pc_priors, "distance", "divergence"),
            (pc_priors, "inverse_distance", "divergence"),
            (reference_priors, "inverse_distance", "divergence"),
            (reference_priors, "pc_pdf", "pc_priors"),
        ]
    unit_levels = np.linspace(0.01, 0.99, plan["levels"])

    def elicit(family, base, U, alpha, seed):
        profile = api.profile_for(family, base)
        lo, hi = api.attainable_alpha_range(family, base, U)
        if not lo < alpha < hi:
            raise ValueError(f"alpha={alpha} is outside the attainable range ({lo}, {hi})")
        tail = api.TailSpec(U, alpha)
        prior = api.PcPrior(family, base, api.calibrate_lambda(family, base, tail))
        draws = api.pc_sample(prior, plan["draws"], seed)
        cap = PARAM_CAP[family] if math.isinf(profile.d_max) else None
        levels = (api.pc_cdf(prior, cap) if cap is not None else 1.0) * unit_levels
        return {
            "family": family, "base": base, "alpha": alpha, "tail": tail, "prior": prior,
            "profile": profile, "cap": cap, "draws": draws, "levels": levels,
            "quantiles": api.pc_quantile(prior, levels),
            "report": api.overfit_audit(prior, profile),
        }

    def audit(family, kind, hypers):
        prior = api.build_concentration_prior(api.PriorSpec(kind, tuple(hypers)), family)
        profile = api.profile_for(family, "uniform")
        return {"family": family, "kind": kind, "hypers": hypers, "prior": prior,
                "profile": profile, "report": api.overfit_audit(prior, profile)}

    # which alphas are attainable is the same in every pass; asking here only
    # decides which elicitations a pass holds (each asks again when timed)
    ops = []
    for ip, (family, base, U) in enumerate(plan["pairs"]):
        lo, hi = circpc.attainable_alpha_range(family, base, U)
        for ia, alpha in enumerate(plan["alphas"]):
            if lo < alpha < hi:
                args = (family, base, U, alpha, plan["sample_seeds"][ip][ia])
                ops.append((f"elicit {family}/{base} alpha={alpha}", lambda a=args: elicit(*a)))
    n_priors = len(ops)
    for family, kind, hypers in plan["reference_priors"]:
        ops.append((f"audit {family} {kind} {hypers}", lambda a=(family, kind, hypers): audit(*a)))

    def digest(row):
        h = hashlib.sha256()
        for item in row:
            if item is None:
                h.update(b"failed")
            elif "draws" in item:
                h.update(np.float64(item["prior"].lam).tobytes())
                h.update(np.ascontiguousarray(item["draws"]).tobytes())
                h.update(np.ascontiguousarray(item["quantiles"]).tobytes())
            else:
                h.update(item["report"].classification.encode())
        return h.hexdigest()

    with tracer.patched(targets) if tracer is not None else nullcontext():
        ref_s, last, failed, pass_s, digests = run_passes(ops, plan, digest)

    priors = [item for item in last[:n_priors] if item is not None]
    return {
        "ref_wall_s": sum(ref_s),
        "pass_s": pass_s,
        "attempted": len(ops) * len(digests),
        "failed": failed,
        "work": float(len(priors)),
        "priors": priors,
        "refs": [item for item in last[n_priors:] if item is not None],
        "pass_digests": digests,
        "fingerprints": {"elicitation": digests[-1]},
    }


RUNNERS = {"study-vm": study_vm, "prior-elicit": prior_elicit}

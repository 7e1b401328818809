"""Per-layer measurements: each circpc module's public functions timed
from outside, after a warm-up call, on inputs drawn from the run's seed.

``measure`` returns ``(metrics, checks)``: metrics as name -> (value,
unit), and correctness checks as ``(name, ok, detail)``.
"""

import io
import math
import os
import statistics
import time

import numpy as np

import inputs
from tracing import Tracer

# calibration alpha and scalar-call parameter for each pair of inputs.PAIRS
PAIR_CASES = {
    "vm-uniform": (0.5, 2.0),
    "vm-pointmass": (0.3, 2.0),
    "cardioid-uniform": (0.3, 0.2),
    "cardioid-curve": (0.9, 0.2),
    "wc-uniform": (0.7, 0.5),
}
MCMC_ITERATIONS = 3000
MCMC_BURN_IN = 1000

# the single fits the inference metrics stand in for: (label, family, true
# concentration, cli prior, prior hypers); the hypers of pc-uniform are the
# tail statement (U, alpha), those of beta its shapes
FITS = (
    ("vm-pc", "vm", 2.0, "pc-uniform", (math.pi / 2, 0.5)),
    ("cardioid-pc", "cardioid", 0.25, "pc-uniform", (0.5, 0.3)),
    ("wc-pc", "wc", 0.5, "pc-uniform", (0.6, 0.5)),
    ("wc-beta", "wc", 0.5, "beta", (2.0, 2.0)),
)
FIT_N = 1000


def per_call_s(fn, target_s=0.02, blocks=3):
    """Median over ``blocks`` timed blocks of the seconds one call takes;
    each block repeats the call until it lasts about ``target_s``."""
    fn()
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    reps = max(1, int(target_s / max(once, 1e-9)))
    times = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - start) / reps)
    return statistics.median(times)


def _fit_prior(circpc, family, prior, hypers):
    if prior == "beta":
        return circpc.Beta(*hypers)
    lam = circpc.calibrate_lambda(family, "uniform", circpc.TailSpec(*hypers))
    return circpc.PcPrior(family, "uniform", lam)


def measure(circpc, seed, workdir):
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 99]))
    jitter = lambda: 1.0 + 0.1 * float(rng.random())  # noqa: E731
    seed_of = lambda: int(rng.integers(1, 2**31 - 2**21))  # noqa: E731
    m = {}
    checks = []

    # special
    x = 2.5 * jitter()
    m["special.log_bessel_i0.scalar_us"] = (1e6 * per_call_s(lambda: circpc.log_bessel_i0(x)), "us")
    m["special.bessel_ratio_deriv.scalar_us"] = (
        1e6 * per_call_s(lambda: circpc.bessel_ratio_deriv(x)), "us")
    arr = rng.permutation(np.logspace(-3.0, 3.0, 100_000))
    m["special.bessel_ratio.array_ns_per_elem"] = (
        1e9 * per_call_s(lambda: circpc.bessel_ratio(arr)) / arr.size, "ns")

    # distributions; data and priors are those of FITS
    truth, angles, fit_priors = {}, {}, {}
    for label, family, conc, prior, hypers in FITS:
        fit_priors[label] = _fit_prior(circpc, family, prior, hypers)
        if family not in angles:
            truth[family] = conc
            spec = circpc.DistributionSpec(family, mu=float(rng.uniform(0, 2 * math.pi)),
                                           concentration=conc)
            angles[family] = circpc.sample(spec, FIT_N, seed=seed_of())
    for family in ("cardioid", "wc"):
        spec = circpc.DistributionSpec(family, mu=1.0, concentration=truth[family])
        a = angles[family].angles
        m[f"distributions.log_pdf.n1000_us.{family}"] = (
            1e6 * per_call_s(lambda: circpc.log_pdf(spec, a)), "us")
    m["distributions.DistributionSpec.construct_us"] = (1e6 * per_call_s(
        lambda: circpc.DistributionSpec("wc", mu=1.0, concentration=0.5)), "us")
    vm_spec = circpc.DistributionSpec("vm", mu=math.pi, concentration=jitter())
    s300 = seed_of()
    m["distributions.sample.n300_us.vm"] = (
        1e6 * per_call_s(lambda: circpc.sample(vm_spec, 300, seed=s300)), "us")

    # divergence, pc_priors, reference_priors: one row per (family, base) pair
    for family, base, U in inputs.PAIRS:
        pair = f"{family}-{base}"
        alpha, param = PAIR_CASES[pair]
        prof = circpc.profile_for(family, base)
        p = param * jitter()
        m[f"divergence.distance.scalar_us.{pair}"] = (
            1e6 * per_call_s(lambda: circpc.distance(prof, p)), "us")
        m[f"divergence.distance_deriv.scalar_us.{pair}"] = (
            1e6 * per_call_s(lambda: circpc.distance_deriv(prof, p)), "us")
        d_hi = min(prof.d_max, 3.0)
        ds = d_hi * rng.uniform(0.01, 0.99, 10_000)
        m[f"divergence.inverse_distance.ns_per_elem.{pair}"] = (
            1e9 * per_call_s(lambda: circpc.inverse_distance(prof, ds)) / ds.size, "ns")

        tail = circpc.TailSpec(U, alpha)
        m[f"pc_priors.calibrate_lambda.ms.{pair}"] = (
            1e3 * per_call_s(lambda: circpc.calibrate_lambda(family, base, tail)), "ms")
        prior = circpc.PcPrior(family, base, circpc.calibrate_lambda(family, base, tail))
        s = seed_of()
        m[f"pc_priors.pc_sample.ns_per_draw.{pair}"] = (
            1e9 * per_call_s(lambda: circpc.pc_sample(prior, 10_000, s), target_s=0.0) / 10_000, "ns")

        m[f"reference_priors.overfit_audit.ms.{pair}"] = (
            1e3 * per_call_s(lambda: circpc.overfit_audit(prior, prof), target_s=0.0), "ms")
        grid = np.linspace(1e-3, min(prof.d_max, 4.0) * (1 - 1e-5), 2000)
        m[f"reference_priors.distance_scale_pdf.ns_per_elem.{pair}"] = (
            1e9 * per_call_s(lambda: circpc.distance_scale_pdf(prior, prof, grid)) / grid.size, "ns")
    gamma, beta = circpc.GammaOneB(1.0), circpc.Beta(2.0, 2.0)
    xg, xb = 1.3 * jitter(), 0.4 * jitter()
    m["reference_priors.ref_pdf.scalar_us.gamma"] = (1e6 * per_call_s(lambda: circpc.ref_pdf(gamma, xg)), "us")
    m["reference_priors.ref_pdf.scalar_us.beta"] = (1e6 * per_call_s(lambda: circpc.ref_pdf(beta, xb)), "us")

    # inference
    for family in ("vm", "cardioid", "wc"):
        model = circpc.ModelSpec(family, fit_priors[f"{family}-pc"])
        data = angles[family]
        mu0, c0 = 1.0, truth[family]
        m[f"inference.log_posterior.us.{family}"] = (
            1e6 * per_call_s(lambda: circpc.log_posterior(model, data, mu0, c0)), "us")

    def mcmc(family, prior, data, label):
        cfg = circpc.McmcConfig(iterations=MCMC_ITERATIONS, burn_in=MCMC_BURN_IN, seed=seed_of())
        start = time.perf_counter()
        chain = circpc.run_mcmc(circpc.ModelSpec(family, prior), data, cfg)
        m[f"inference.run_mcmc.us_per_iter.{label}"] = (
            1e6 * (time.perf_counter() - start) / MCMC_ITERATIONS, "us")
        return chain

    vm300 = circpc.sample(circpc.DistributionSpec("vm", mu=math.pi, concentration=jitter()),
                          300, seed=seed_of())
    mcmc("vm", fit_priors["vm-pc"], vm300, "vm-pc.n300")
    mcmc("vm", gamma, vm300, "vm-gamma.n300")
    for label, family, _, _, _ in FITS:
        chain = mcmc(family, fit_priors[label], angles[family], f"{label}.n1000")
        for comp in ("mu", "concentration"):
            m[f"inference.acceptance.{label}.{comp}"] = (chain.acceptance_rates[comp], "ratio")
        m[f"inference.ess_per_iter.{label}"] = (
            circpc.effective_sample_size(chain.concentration) / len(chain), "ratio")

    # a 15k-draw chain shaped like a 20k-iteration fit after burn-in (AR(1) in both columns)
    z = rng.standard_normal((15_000, 2))
    draws = np.empty_like(z)
    draws[0] = z[0]
    for i in range(1, z.shape[0]):
        draws[i] = 0.9 * draws[i - 1] + z[i]
    draws[:, 0] = np.mod(draws[:, 0], 2 * math.pi)
    draws[:, 1] = np.exp(0.1 * draws[:, 1])
    chain = circpc.Chain(draws=draws, acceptance_rates={"mu": 0.44, "concentration": 0.44},
                         step_sizes=(0.5, 0.5), first_iteration=5000)
    m["inference.summarize.ms"] = (1e3 * per_call_s(lambda: circpc.summarize(chain)), "ms")
    path = os.path.join(workdir, "layer-chain.csv")
    m["inference.Chain.save_csv.ms"] = (1e3 * per_call_s(lambda: chain.save_csv(path), target_s=0.0), "ms")

    # harness
    pc_spec = circpc.PriorSpec("pc_uniform", (0.5,), U=math.pi / 2)
    gamma_spec = circpc.PriorSpec("gamma", (1.0,))
    m["harness.build_concentration_prior.ms.pc_uniform"] = (
        1e3 * per_call_s(lambda: circpc.build_concentration_prior(pc_spec, "vm")), "ms")
    m["harness.build_concentration_prior.ms.gamma"] = (
        1e3 * per_call_s(lambda: circpc.build_concentration_prior(gamma_spec, "vm")), "ms")
    m["harness.pool_speedup"] = (_pool(circpc, seed_of(), checks), "ratio")

    # cli
    m["cli.fit.overhead_ms"] = (_cli_overhead_ms(circpc, angles["wc"], seed_of(), workdir, checks), "ms")
    return m, checks


def _pool(circpc, base_seed, checks):
    """Serial against two-worker wall time on a 6-cell sub-grid of the desk
    study; the two result CSVs must be byte-identical."""
    config = circpc.SimStudyConfig(
        family="vm",
        true_concentration_grid=(0.33, 1.0, 3.0),
        sample_sizes=(100,),
        replicates=1,
        prior_specs=(circpc.PriorSpec("pc_uniform", (0.5,), U=math.pi / 2),
                     circpc.PriorSpec("gamma", (1.0,))),
        base_seed=base_seed,
        mcmc=circpc.McmcConfig(iterations=3000, burn_in=1000),
    )
    start = time.perf_counter()
    serial = circpc.run_sim_study(config, workers=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    pooled = circpc.run_sim_study(config, workers=2)
    pooled_s = time.perf_counter() - start

    texts = []
    for result in (serial, pooled):
        buf = io.StringIO()
        result.write_csv(buf)
        texts.append(buf.getvalue())
    checks.append(("harness.pool_identity", texts[0] == texts[1],
                   "workers=1 and workers=2 CSVs " + ("match" if texts[0] == texts[1] else "differ")))
    return serial_s / pooled_s


def _cli_overhead_ms(circpc, data, seed, workdir, checks):
    """``circpc fit`` wall time not spent in run_mcmc or summarize."""
    from circpc import cli

    path = os.path.join(workdir, "layer-fit.csv")
    data.save_csv(path)
    tracer = Tracer()
    main = tracer.wrap("cli", "cli.main", cli.main)
    targets = [(cli, "run_mcmc", "inference"), (cli, "summarize", "inference")]
    argv = ["fit", "--family", "wc", "--data", path, "--prior", "pc-uniform", "--U", "0.6",
            "--alpha", "0.5", "--iterations", str(MCMC_ITERATIONS), "--burn-in", str(MCMC_BURN_IN),
            "--seed", str(seed), "--chain-out", path + ".chain.csv", "--out", path + ".json"]
    with tracer.patched(targets):
        code = main(argv)
    checks.append(("cli.fit", code == 0, f"circpc fit exited {code}"))
    root = tracer.spans[0]
    inner = sum(end - start for _, _, start, end, parent in tracer.spans if parent == 0)
    return 1e3 * (root[3] - root[2] - inner)

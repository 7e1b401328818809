"""Correctness oracles, run after the timed phase.

Each check returns ``(name, ok, detail)``.  The oracles are written
with numpy and scipy directly; they call circpc only for the quantity
under test and for the prior densities the posterior is defined by.
"""

import math

import numpy as np
from scipy.special import i0e, logsumexp
from scipy.stats import kstwo

LOG_TWO_PI = math.log(2.0 * math.pi)

# MCMC error allowance, in Monte Carlo standard errors
Z_MCMC = 5.0
# a study replicate keeps 2000 draws; its concentration ESS is assumed to be
# at least this (acceptance-tuned random walk, typically 200-600)
STUDY_ESS_FLOOR = 100.0
# calibration roundtrip |P(Q > U) - alpha|; brentq runs at rtol 1e-12
CALIBRATION_TOL = 1e-9
# KS p-value below which a prior sample is rejected
KS_P_MIN = 1e-6


def _log_i0(k):
    return np.log(i0e(k)) + k


def _weighted_mean_sd(values, log_w):
    w = np.exp(log_w - logsumexp(log_w))
    mean = float(np.sum(w * values))
    return mean, float(math.sqrt(max(np.sum(w * (values - mean) ** 2), 0.0)))


# ---------------------------------------------------------------------------
# study-vm


def vm_grid_posterior(angles, log_prior_fn, kappas, n_mu=256):
    """Posterior mean and sd of kappa on a mu x kappa grid (von Mises data,
    circular-uniform location prior); the construction of acceptance
    criterion 8."""
    mus = np.linspace(0.0, 2.0 * math.pi, n_mu, endpoint=False)
    C = float(np.cos(angles).sum())
    S = float(np.sin(angles).sum())
    n = angles.size
    loglik = np.outer(kappas, C * np.cos(mus) + S * np.sin(mus)) - n * (
        LOG_TWO_PI + _log_i0(kappas)
    )[:, None]
    log_marginal = logsumexp(loglik, axis=1) + log_prior_fn(kappas)
    return _weighted_mean_sd(kappas, log_marginal)


def check_study(circpc, out):
    """Each cell's averaged posterior mean against the grid oracle averaged
    over the same replicate datasets."""
    config = out["config"]
    if not out["rows"]:
        return [("study.rows", False, "no study result")]
    kappas = np.linspace(1e-6, 15.0, 2000)
    checks = []
    rows = iter(out["rows"])
    for spec in config.prior_specs:
        prior = circpc.build_concentration_prior(spec, config.family)
        if isinstance(prior, circpc.PcPrior):
            log_prior = lambda k, p=prior: np.log(circpc.pc_pdf(p, k))
        else:
            log_prior = lambda k, p=prior: np.log(circpc.ref_pdf(p, k))
        for truth in config.true_concentration_grid:
            for n in config.sample_sizes:
                row = next(rows)
                means, sds = [], []
                for r in range(config.replicates):
                    data = circpc.sample(
                        circpc.DistributionSpec(config.family, config.mu_true, truth),
                        n, seed=config.base_seed + r,
                    )
                    m, s = vm_grid_posterior(data.angles, log_prior, kappas)
                    means.append(m)
                    sds.append(s)
                oracle = float(np.mean(means))
                mcse = math.sqrt(np.mean(np.square(sds)) / (config.replicates * STUDY_ESS_FLOOR))
                gap = abs(row[4] - oracle)
                name = f"study.{spec.kind}.{spec.hyper_label}.truth{truth!r}.N{n}"
                ok = row[6] == 0 and gap <= Z_MCMC * mcse
                checks.append((name, ok, f"mcmc {row[4]:.6g} grid {oracle:.6g} "
                                         f"gap {gap:.3g} allowed {Z_MCMC * mcse:.3g}"))
    return checks


# ---------------------------------------------------------------------------
# prior-elicit


def _ks_censored(circpc, item):
    """KS distance of the prior sample from the prior CDF.

    For the unbounded-distance pairs pc_sample puts every draw beyond the
    largest representable parameter on that parameter, so the sampled law
    is the prior CDF below the cap with an atom of 1 - F(cap) on it.
    """
    prior, draws = item["prior"], np.sort(item["draws"])
    n = draws.size
    if item["cap"] is not None:
        x_cap = circpc.inverse_distance(item["profile"], circpc.distance(item["profile"], item["cap"]))
        below = draws[draws < x_cap]
        f_cap = circpc.pc_cdf(prior, x_cap)
    else:
        below, f_cap = draws, 1.0
    k = below.size
    F = np.asarray(circpc.pc_cdf(prior, below))
    i = np.arange(1, k + 1)
    d = max(np.max(i / n - F, initial=0.0), np.max(F - (i - 1) / n, initial=0.0), abs(k / n - f_cap))
    return float(d), float(kstwo.sf(d, n))


def check_elicitation(circpc, out):
    checks = []
    for item in out["priors"]:
        prior = item["prior"]
        tag = f"elicit.{item['family']}-{item['base']}.alpha{item['alpha']!r}"
        err = abs(circpc.tail_probability(prior, item["tail"]) - item["alpha"])
        checks.append((tag + ".calibration", err <= CALIBRATION_TOL, f"|P - alpha| = {err:.3g}"))

        d, p = _ks_censored(circpc, item)
        checks.append((tag + ".ks", p >= KS_P_MIN, f"D = {d:.4g}, p = {p:.3g}"))

        # allowed roundtrip error: the CDF change across one ulp of the
        # parameter, which bounds what any float64 quantile can achieve
        q = np.asarray(item["quantiles"])
        back = np.asarray(circpc.pc_cdf(prior, q))
        profile = item["profile"]
        lo, hi = profile.support_lo, profile.support_hi
        q_up = np.minimum(np.nextafter(q, np.inf), np.nextafter(hi, lo))
        q_dn = np.maximum(np.nextafter(q, -np.inf), lo)
        ulp = np.abs(np.asarray(circpc.pc_cdf(prior, q_up)) - np.asarray(circpc.pc_cdf(prior, q_dn)))
        excess = float(np.max(np.abs(back - item["levels"]) - ulp - 1e-12))
        checks.append((tag + ".quantile", excess <= 0.0, f"worst excess over one-ulp CDF step {excess:.3g}"))

        cls = item["report"].classification
        checks.append((tag + ".audit", cls == "base_model_favoring", cls))
    for item in out["refs"]:
        want = _audit_class(circpc, item["prior"], item["profile"])
        got = item["report"].classification
        hypers = ",".join(repr(h) for h in item["hypers"])
        checks.append((f"audit.{item['family']}.{item['kind']}({hypers})", got == want,
                       f"audit {got}, analytic-Jacobian oracle {want}"))
    return checks


def _audit_class(circpc, prior, profile, grid_points=1000, d_cap=4.0):
    """overfit_audit's classification recomputed with the analytic
    Jacobian 1/|d'(xi)| in place of its finite difference."""
    hi = min(profile.d_max, d_cap)
    if math.isfinite(profile.d_max):
        hi *= 1.0 - 1e-5
    grid = np.linspace(1e-3, hi, grid_points)
    xi = np.asarray(circpc.inverse_distance(profile, grid))
    dens = np.asarray(circpc.ref_pdf(prior, xi)) / np.asarray(circpc.distance_deriv(profile, xi))
    return "base_model_favoring" if int(np.argmax(dens)) == 0 else "complexity_favoring"


CHECKS = {"study-vm": check_study, "prior-elicit": check_elicitation}

"""Posterior inference for (mu, concentration) of a circular model.

The location gets a circular-uniform prior, the concentration any prior
from this package; the sampler is a component-wise adaptive random-walk
Metropolis chain.  mu moves by a wrapped Gaussian step on the circle;
the concentration moves on an unconstrained transform (log kappa for
von Mises, logit(2*ell) for the cardioid, logit rho for the wrapped
Cauchy) with the transform's log-Jacobian folded into the target.  Step
sizes adapt toward a target acceptance rate during burn-in only and
stay frozen afterwards, so the kept draws come from a fixed kernel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import FAMILIES, TWO_PI, Dataset, Family, circular_mean, wrap_angle
from .pc_priors import PcPrior, _normalizer
from .reference_priors import VonMisesConjugate

__all__ = [
    "InitializationError",
    "ModelSpec",
    "McmcConfig",
    "Chain",
    "PosteriorSummary",
    "log_posterior",
    "run_mcmc",
    "summarize",
    "effective_sample_size",
]

_LOG_TWO_PI = math.log(TWO_PI)


class InitializationError(RuntimeError):
    """The chain's initial state has zero posterior density."""


@dataclass(frozen=True)
class ModelSpec:
    """Family plus a concentration prior; the location prior is circular uniform."""

    family: Family
    concentration_prior: object

    def __post_init__(self):
        fam = Family(self.family)
        if fam is Family.UNIFORM:
            raise ValueError("the uniform family has no concentration to infer")
        object.__setattr__(self, "family", fam)
        prior = self.concentration_prior
        if isinstance(prior, VonMisesConjugate):
            raise ValueError("the joint conjugate prior is evaluation-only here")
        lo, hi = FAMILIES[fam].support
        if isinstance(prior, PcPrior):
            if prior.family is not fam:
                raise ValueError("concentration prior is for a different family")
        elif hasattr(prior, "support"):
            if tuple(prior.support) != (lo, hi):
                raise ValueError(
                    f"prior support {prior.support} does not match the "
                    f"{fam.value} concentration support [{lo}, {hi})"
                )
        else:
            raise ValueError("concentration prior must be a PC or reference prior")


@dataclass(frozen=True)
class McmcConfig:
    iterations: int = 20000
    burn_in: int = 5000
    seed: int = 0
    initial_mu: Optional[float] = None
    initial_concentration: Optional[float] = None
    target_acceptance: float = 0.44

    def __post_init__(self):
        if int(self.iterations) != self.iterations or self.iterations <= 0:
            raise ValueError("iterations must be a positive integer")
        if int(self.burn_in) != self.burn_in or self.burn_in < 0:
            raise ValueError("burn_in must be a nonnegative integer")
        if self.iterations - self.burn_in < 1000:
            raise ValueError("need at least 1000 kept iterations for summaries")
        if not 0.0 < self.target_acceptance < 1.0:
            raise ValueError("target_acceptance must lie in (0, 1)")
        object.__setattr__(self, "iterations", int(self.iterations))
        object.__setattr__(self, "burn_in", int(self.burn_in))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class Chain:
    """Kept draws (mu, concentration) with sampler diagnostics."""

    draws: np.ndarray                 # shape (kept, 2): columns mu, concentration
    acceptance_rates: dict            # per component, post-burn-in
    step_sizes: tuple                 # frozen (mu_step, concentration_step)
    first_iteration: int              # global index of the first kept draw
    step_trace: Optional[np.ndarray] = field(default=None, repr=False)

    def __len__(self):
        return self.draws.shape[0]

    @property
    def mu(self):
        return self.draws[:, 0]

    @property
    def concentration(self):
        return self.draws[:, 1]

    def save_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "mu", "concentration"])
            for i, (m, c) in enumerate(self.draws):
                writer.writerow(
                    [self.first_iteration + i, format(m, ".17g"), format(c, ".17g")]
                )


@dataclass(frozen=True)
class PosteriorSummary:
    concentration_mean: float
    concentration_ci_low: float
    concentration_ci_high: float
    mu_circular_mean: float
    effective_sample_size: float

    def to_dict(self) -> dict:
        return {
            "concentration_mean": self.concentration_mean,
            "concentration_ci_low": self.concentration_ci_low,
            "concentration_ci_high": self.concentration_ci_high,
            "mu_circular_mean": self.mu_circular_mean,
            "effective_sample_size": self.effective_sample_size,
        }


def _log_conc_prior_fn(prior):
    """Scalar log prior density; -inf where the density vanishes.

    Callers guarantee the argument lies in the family support (ModelSpec
    matched the prior's support to the family's, and the sampler tests
    lo < conc < hi), so both branches skip the input checks of the
    public densities. The PC branch works on the log scale directly (the
    exponential never over/underflows this way at extreme distances) and
    hands the kernels a numpy scalar, which they take without building
    arrays.
    """
    if isinstance(prior, PcPrior):
        dist, deriv = prior.profile.dist, prior.profile.deriv
        lam = prior.lam
        log_lam_norm = math.log(lam) - math.log(_normalizer(prior))

        def log_prior(x):
            x = np.float64(x)
            d = dist(x)
            g = float(deriv(x, d))
            if g <= 0.0 or not math.isfinite(g):
                return -math.inf
            return log_lam_norm - lam * float(d) + math.log(g)

        return log_prior

    pdf = prior.pdf

    def log_prior(x):
        v = float(pdf(x))
        if not math.isfinite(v) or v <= 0.0:
            return -math.inf
        return math.log(v)

    return log_prior


def log_posterior(model: ModelSpec, data: Dataset, mu, conc) -> float:
    """Unnormalized log posterior density at (mu, conc).

    Sum of the data log-likelihood, the concentration log-prior, and the
    circular-uniform location term; -inf where the prior vanishes.
    """
    if len(data) == 0:
        raise ValueError("dataset must contain at least one angle")
    conc = float(conc)
    lo, hi = FAMILIES[model.family].support
    if not lo <= conc < hi:
        raise ValueError("concentration outside the family support")
    loglik = FAMILIES[model.family].loglik(data.angles)
    log_prior = _log_conc_prior_fn(model.concentration_prior)
    lp = log_prior(conc)
    if lp == -math.inf:
        return -math.inf
    return loglik(float(wrap_angle(mu)), conc) + lp - _LOG_TWO_PI


def run_mcmc(model: ModelSpec, data: Dataset, config: McmcConfig, *, trace_steps=False) -> Chain:
    """Component-wise adaptive random-walk Metropolis over (mu, concentration).

    Deterministic for a fixed config seed.  Step sizes adapt only during
    burn-in (Robbins-Monro on the log step toward target_acceptance).
    """
    angles = data.angles
    kern = FAMILIES[model.family]
    loglik = kern.loglik(angles)
    log_prior = _log_conc_prior_fn(model.concentration_prior)
    to_conc, log_jac = kern.to_conc, kern.log_jac
    lo, hi = kern.support

    mu = float(wrap_angle(config.initial_mu)) if config.initial_mu is not None \
        else float(circular_mean(angles))
    conc = float(config.initial_concentration) if config.initial_concentration is not None \
        else kern.initial
    if not lo < conc < hi:
        raise InitializationError("initial concentration outside the open support")
    cur_lik = loglik(mu, conc)
    cur_pri = log_prior(conc)
    if not np.isfinite(cur_lik + cur_pri):
        raise InitializationError("initial state has zero posterior density")
    theta = kern.to_theta(conc)
    cur_jac = log_jac(theta, conc)

    rng = np.random.default_rng(config.seed)
    iters, burn = config.iterations, config.burn_in
    # draw everything up front: one fixed consumption pattern per config
    z_all = rng.standard_normal((iters, 2))
    u_all = rng.random((iters, 2))
    kept = np.empty((iters - burn, 2))
    steps = [0.5, 0.5]
    accepted = [0, 0]
    trace = np.empty((iters, 2)) if trace_steps else None
    target = config.target_acceptance

    for i in range(iters):
        gamma = (i + 1.0) ** -0.7 if i < burn else 0.0

        # location: wrapped Gaussian proposal, flat prior cancels
        mu_prop = (mu + steps[0] * z_all[i, 0]) % TWO_PI
        lik_prop = loglik(mu_prop, conc)
        log_a = lik_prop - cur_lik
        a = 1.0 if log_a >= 0.0 else math.exp(log_a)
        if u_all[i, 0] < a:
            mu, cur_lik = mu_prop, lik_prop
            if i >= burn:
                accepted[0] += 1
        if gamma:
            steps[0] *= math.exp(gamma * (a - target))

        # concentration: Gaussian step on the unconstrained scale
        th_prop = theta + steps[1] * z_all[i, 1]
        conc_prop = to_conc(th_prop)
        if lo < conc_prop < hi and math.isfinite(conc_prop):
            lik_prop = loglik(mu, conc_prop)
            pri_prop = log_prior(conc_prop)
            jac_prop = log_jac(th_prop, conc_prop)
            log_a = (lik_prop + pri_prop + jac_prop) - (cur_lik + cur_pri + cur_jac)
            a = 1.0 if log_a >= 0.0 else (math.exp(log_a) if log_a > -745.0 else 0.0)
        else:
            a = 0.0
        if u_all[i, 1] < a:
            theta, conc = th_prop, conc_prop
            cur_lik, cur_pri, cur_jac = lik_prop, pri_prop, jac_prop
            if i >= burn:
                accepted[1] += 1
        if gamma:
            steps[1] *= math.exp(gamma * (a - target))

        if trace is not None:
            trace[i, 0] = steps[0]
            trace[i, 1] = steps[1]
        if i >= burn:
            kept[i - burn, 0] = mu
            kept[i - burn, 1] = conc

    n_kept = iters - burn
    return Chain(
        draws=kept,
        acceptance_rates={
            "mu": float(accepted[0] / n_kept),
            "concentration": float(accepted[1] / n_kept),
        },
        step_sizes=(float(steps[0]), float(steps[1])),
        first_iteration=burn,
        step_trace=trace,
    )


def effective_sample_size(x) -> float:
    """ESS via the initial-positive-sequence autocovariance truncation.

    Capped at the chain length; a constant chain reports the full length.
    """
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if n < 2:
        return float(n)
    if arr.min() == arr.max():
        return float(n)
    centered = arr - arr.mean()
    m = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, m)
    acov = np.fft.irfft(spec * np.conj(spec), m)[:n] / n
    if acov[0] <= 0.0:
        return float(n)
    rho = acov / acov[0]
    total = 0.0
    k = 0
    while 2 * k + 1 < n:
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair <= 0.0:
            break
        total += pair
        k += 1
    tau = max(2.0 * total - 1.0, 1.0 / n)
    return float(min(n, n / tau))


def summarize(chain: Chain) -> PosteriorSummary:
    """Posterior mean and equal-tailed 95% interval for the concentration,
    circular mean for mu, and the concentration ESS."""
    if len(chain) == 0:
        raise ValueError("chain has no kept draws")
    conc = chain.concentration
    lo, hi = np.quantile(conc, [0.025, 0.975])
    return PosteriorSummary(
        concentration_mean=float(conc.mean()),
        concentration_ci_low=float(lo),
        concentration_ci_high=float(hi),
        mu_circular_mean=float(circular_mean(chain.mu)),
        effective_sample_size=effective_sample_size(conc),
    )

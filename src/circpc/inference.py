"""Posterior inference for (mu, concentration) of a circular model.

The location gets a circular-uniform prior, the concentration any prior
from this package; the sampler is a component-wise adaptive random-walk
Metropolis chain.  mu moves by a wrapped Gaussian step on the circle;
the concentration moves on an unconstrained scale set by the family's
support (log kappa for von Mises, logit(2*ell) for the cardioid, logit
rho for the wrapped Cauchy) with the log-Jacobian folded into the
target.  Step
sizes adapt toward a target acceptance rate during burn-in only and
stay frozen afterwards, so the kept draws come from a fixed kernel.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import (
    FAMILIES,
    TWO_PI,
    _LOG_TWO_PI,
    Dataset,
    Family,
    _unconstrained,
    circular_mean,
    wrap_angle,
)
from .reference_priors import _check_support, _log_density_fn
from .special import _checked, _count

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


class InitializationError(RuntimeError):
    """The chain's initial state has zero posterior density."""


@dataclass(frozen=True)
class ModelSpec:
    """Family plus a concentration prior; the location prior is circular uniform."""

    family: Family
    concentration_prior: object

    def __post_init__(self):
        fam = Family(self.family)
        if FAMILIES[fam].support is None:
            raise ValueError("the uniform family has no concentration to infer")
        object.__setattr__(self, "family", fam)
        prior = self.concentration_prior
        if not hasattr(prior, "support"):
            raise ValueError("concentration prior must be a univariate PC or reference prior")
        _check_support(prior, fam)


@dataclass(frozen=True)
class McmcConfig:
    iterations: int = 20000
    burn_in: int = 5000
    seed: int = 0
    initial_mu: Optional[float] = None
    initial_concentration: Optional[float] = None
    target_acceptance: float = 0.44

    def __post_init__(self):
        iterations = _count(self.iterations, "iterations")
        burn_in = _count(self.burn_in, "burn_in", allow_zero=True)
        if iterations - burn_in < 1000:
            raise ValueError("need at least 1000 kept iterations for summaries")
        if not 0.0 < self.target_acceptance < 1.0:
            raise ValueError("target_acceptance must lie in (0, 1)")
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "burn_in", burn_in)
        object.__setattr__(self, "seed", _count(self.seed, "seed", allow_zero=True))
        # finite here; the concentration's support is run_mcmc's check,
        # which knows the family
        for name in ("initial_mu", "initial_concentration"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _checked(float(value), -math.inf, math.inf, name))


@dataclass(frozen=True)
class Chain:
    """Kept draws (mu, concentration) with sampler diagnostics."""

    draws: np.ndarray                 # shape (kept, 2): columns mu, concentration
    acceptance_rates: dict            # per component, post-burn-in
    step_sizes: tuple                 # frozen (mu_step, concentration_step)
    first_iteration: int              # global index of the first kept draw
    step_trace: Optional[np.ndarray] = field(default=None, repr=False)
    # concentration proposals, burn-in included, rejected because they
    # left the open support (or the transform back overflowed)
    out_of_support: int = 0
    wall_s: Optional[float] = None    # wall time of the sampling loop

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


def log_posterior(model: ModelSpec, data: Dataset, mu, conc) -> float:
    """Unnormalized log posterior density at (mu, conc).

    Sum of the data log-likelihood, the concentration log-prior, and the
    circular-uniform location term; -inf where the prior's density is 0
    (H3 at 0, say) and +inf where it diverges (a Beta with a < 1 at 0).
    A reference prior's log density is formed on the log scale, so it
    reads -inf only where its density is truly 0, not where a float
    density underflows (a Gamma past 746/b, the H3 tail). H2's is the
    log of its pdf, which leaves the normal floats only past 2^510.
    """
    if len(data) == 0:
        raise ValueError("dataset must contain at least one angle")
    conc = float(conc)
    lo, hi = FAMILIES[model.family].support
    if not lo <= conc < hi:
        raise ValueError("concentration outside the family support")
    lik = FAMILIES[model.family].loglik(data.angles)
    c, shared = lik.conc_term(conc)
    loglik = lik.combine(lik.mu_term(float(wrap_angle(mu))), conc, c)
    lp = _log_density_fn(model.concentration_prior)(conc, shared)
    if lp == -math.inf:
        return -math.inf
    return loglik + lp - _LOG_TWO_PI


def run_mcmc(model: ModelSpec, data: Dataset, config: McmcConfig, *, trace_steps=False) -> Chain:
    """Component-wise adaptive random-walk Metropolis over (mu, concentration).

    Deterministic for a fixed config seed.  The chain runs in two loops
    over one set of draws.  The burn-in loop adapts both step sizes
    (Robbins-Monro on the log step toward target_acceptance) and keeps
    nothing; the kept loop makes the same moves with the steps frozen,
    counts acceptances and writes each draw into the chain's preallocated
    array by index.  With ``trace_steps`` the steps after every burn-in
    iteration are recorded, and the kept rows repeat the frozen steps.
    The chain keeps the likelihood's mu term and concentration term of
    its current state, so a mu move evaluates only the new mu's term and
    a concentration move only the new concentration's. A concentration
    move maps its proposal back to the support, then calls the
    likelihood's term and combine, the prior (which takes the values the
    term shares: the von Mises Bessel pass) and the log-Jacobian.
    """
    angles = data.angles
    kern = FAMILIES[model.family]
    mu_term, conc_term, combine = kern.loglik(angles)
    log_prior = _log_density_fn(model.concentration_prior)
    to_theta, to_conc, log_jac, initial = _unconstrained(kern.support)
    lo, hi = kern.support

    mu = float(wrap_angle(config.initial_mu)) if config.initial_mu is not None \
        else float(circular_mean(angles))
    conc = float(config.initial_concentration) if config.initial_concentration is not None \
        else initial
    if not lo < conc < hi:
        raise InitializationError("initial concentration outside the open support")
    m = mu_term(mu)
    c, shared = conc_term(conc)
    cur_lik = combine(m, conc, c)
    cur_pri = log_prior(conc, shared)
    if not np.isfinite(cur_lik + cur_pri):
        raise InitializationError("initial state has zero posterior density")
    theta = to_theta(conc)
    cur_jac = log_jac(conc)

    rng = np.random.default_rng(config.seed)
    iters, burn = config.iterations, config.burn_in
    n_kept = iters - burn
    # draw everything up front: one fixed consumption pattern per config.
    # Both loops read each row (mu, concentration) as two Python floats
    # through one iterator taken twice, the kept loop where burn-in left
    # off: no numpy scalar per iteration.
    z_all = rng.standard_normal((iters, 2))
    u_all = rng.random((iters, 2))
    z = iter(memoryview(z_all.reshape(-1)))
    u = iter(memoryview(u_all.reshape(-1)))
    trace = np.empty((iters, 2)) if trace_steps else None
    exp, two_pi = math.exp, TWO_PI  # bound once for the loops
    step_mu = step_conc = 0.5
    target = config.target_acceptance
    out_of_support = 0

    # burn-in: both steps adapt (Robbins-Monro, gain (i + 1)^-0.7) on the
    # acceptance probability a of each move; nothing is counted or kept
    start = time.perf_counter()
    for i, z_mu, z_conc, u_mu, u_conc in zip(range(burn), z, z, u, u):
        gamma = (i + 1.0) ** -0.7

        # location: wrapped Gaussian proposal, flat prior cancels; the
        # concentration's term c is the current one's
        mu_prop = (mu + step_mu * z_mu) % two_pi
        m_prop = mu_term(mu_prop)
        lik_prop = combine(m_prop, conc, c)
        log_a = lik_prop - cur_lik
        a = 1.0 if log_a >= 0.0 else exp(log_a)
        if u_mu < a:
            mu, m, cur_lik = mu_prop, m_prop, lik_prop
        step_mu *= exp(gamma * (a - target))

        # concentration: Gaussian step on the unconstrained scale, mapped
        # back; a proposal outside the open support (or whose map back
        # overflowed) is rejected
        th_prop = theta + step_conc * z_conc
        conc_prop = to_conc(th_prop)
        if lo < conc_prop < hi:
            c_prop, shared = conc_term(conc_prop)
            lik_prop = combine(m, conc_prop, c_prop)
            pri_prop = log_prior(conc_prop, shared)
            jac_prop = log_jac(conc_prop)
            log_a = (lik_prop + pri_prop + jac_prop) - (cur_lik + cur_pri + cur_jac)
            a = 1.0 if log_a >= 0.0 else (exp(log_a) if log_a > -745.0 else 0.0)
        else:
            a = 0.0
            out_of_support += 1
        if u_conc < a:
            theta, conc, c = th_prop, conc_prop, c_prop
            cur_lik, cur_pri, cur_jac = lik_prop, pri_prop, jac_prop
        step_conc *= exp(gamma * (a - target))

        if trace is not None:
            trace[i] = step_mu, step_conc

    # kept: the same moves with the steps frozen, so the draws come from
    # one fixed kernel; each draw is written by index into the chain's
    # own array, through a view of each column
    draws = np.empty((n_kept, 2))
    kept_mu, kept_conc = memoryview(draws[:, 0]), memoryview(draws[:, 1])
    accepted_mu = accepted_conc = 0
    for j, z_mu, z_conc, u_mu, u_conc in zip(range(n_kept), z, z, u, u):
        mu_prop = (mu + step_mu * z_mu) % two_pi
        m_prop = mu_term(mu_prop)
        lik_prop = combine(m_prop, conc, c)
        log_a = lik_prop - cur_lik
        a = 1.0 if log_a >= 0.0 else exp(log_a)
        if u_mu < a:
            mu, m, cur_lik = mu_prop, m_prop, lik_prop
            accepted_mu += 1

        th_prop = theta + step_conc * z_conc
        conc_prop = to_conc(th_prop)
        if lo < conc_prop < hi:
            c_prop, shared = conc_term(conc_prop)
            lik_prop = combine(m, conc_prop, c_prop)
            pri_prop = log_prior(conc_prop, shared)
            jac_prop = log_jac(conc_prop)
            log_a = (lik_prop + pri_prop + jac_prop) - (cur_lik + cur_pri + cur_jac)
            a = 1.0 if log_a >= 0.0 else (exp(log_a) if log_a > -745.0 else 0.0)
        else:
            a = 0.0
            out_of_support += 1
        if u_conc < a:
            theta, conc, c = th_prop, conc_prop, c_prop
            cur_lik, cur_pri, cur_jac = lik_prop, pri_prop, jac_prop
            accepted_conc += 1

        kept_mu[j] = mu
        kept_conc[j] = conc
    wall_s = time.perf_counter() - start

    if trace is not None:
        trace[burn:] = step_mu, step_conc  # the kept phase's frozen steps
    return Chain(
        draws=draws,
        acceptance_rates={
            "mu": accepted_mu / n_kept,
            "concentration": accepted_conc / n_kept,
        },
        step_sizes=(step_mu, step_conc),
        first_iteration=burn,
        step_trace=trace,
        out_of_support=out_of_support,
        wall_s=wall_s,
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

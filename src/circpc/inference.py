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
from dataclasses import asdict, dataclass
from functools import lru_cache
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
from .reference_priors import _check_support, _inline_log_prior, _log_density_fn
from .special import _FLOAT_MATH, _checked, _count, _real

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
                object.__setattr__(self, name, _checked(_real(value, name), -math.inf, math.inf, name))


@dataclass(frozen=True)
class Chain:
    """Kept draws (mu, concentration) with sampler diagnostics."""

    draws: np.ndarray                 # shape (kept, 2): columns mu, concentration
    acceptance_rates: dict            # per component, post-burn-in
    step_sizes: tuple                 # frozen (mu_step, concentration_step)
    first_iteration: int              # global index of the first kept draw
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
        return asdict(self)


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
    _, shared, loglik = lik.conc_move(lik.mu_term(float(wrap_angle(mu))), conc)
    lp = _log_density_fn(model.concentration_prior)(conc, shared)
    if lp == -math.inf:
        return -math.inf
    return loglik + lp - _LOG_TWO_PI


@lru_cache(maxsize=8)
def _gains(burn):
    """The burn-in's Robbins-Monro gains (i + 1)^-0.7 for i < burn, as
    Python floats: made once per burn-in length, for every chain of it."""
    return tuple([(i + 1.0) ** -0.7 for i in range(burn)])


def run_mcmc(model: ModelSpec, data: Dataset, config: McmcConfig) -> Chain:
    """Component-wise adaptive random-walk Metropolis over (mu, concentration).

    Deterministic for a fixed config seed.  The chain runs in two loops
    over one set of draws.  The burn-in loop adapts both step sizes
    (Robbins-Monro on the log step toward target_acceptance) and keeps
    nothing; the kept loop makes the same moves with the steps frozen,
    counts acceptances and writes each draw into the chain's preallocated
    array by index.  Its steps' products with the normals are taken once,
    as one array: numpy's product of two floats is Python's.

    The chain keeps the mu term and the concentration term of its
    current state (``LogLikelihood``), so a mu move evaluates only the
    new mu's term and a concentration move only the new concentration's.
    A von Mises likelihood carries its sufficient statistics (n, C, S),
    and both its moves run inline in the loop, with the operations of
    its ``mu_term`` and ``conc_move``: T = C cos mu + S sin mu, and the
    Bessel pass i0e, its log and n (log 2 pi + (log i0e + kappa)).  Any
    other likelihood's move is one call, ``mu_move`` or ``conc_move``;
    the choice is made once per chain, and the loops are the same for
    every family.  A mu proposal is wrapped onto [0, 2*pi) only when it
    leaves it.  A concentration proposal theta maps back to the support
    in float arithmetic, and only below the scale's top
    (``_unconstrained``); a proposal from the top up, or one that maps
    outside the open support, is rejected and counted in
    ``out_of_support``.  Otherwise the move evaluates the likelihood,
    the prior (which takes the values the likelihood shares: the von
    Mises Bessel pass) and the log-Jacobian.  On von Mises two priors
    run inline as well, from constants read once per chain
    (``reference_priors._inline_log_prior``): a vm/uniform PC prior's
    mid form on 0.02 <= kappa < 1e3, with the operations of
    ``divergence._vm_uniform_mid`` on the Bessel pass and of
    ``pc_priors._pc_log_density_fn``, and a Gamma(1, b)'s log b - b kappa
    on its whole support.  Any other prior, and a PC kappa outside that
    interval, calls the prior's log density.

    Both loops take a move when log u < log_a, the logs of the chain's
    uniforms being taken once, before burn-in.  log 0 is -inf, so at
    u = 0 a move is taken however small its finite log_a, as exact
    arithmetic says; a nan or -inf log_a is rejected and a +inf one
    taken.  Burn-in forms a = min(1, e^log_a) only to adapt the step on;
    a concentration move's a is 0 for a nan log_a or one at or below -745.
    """
    angles = data.angles
    kern = FAMILIES[model.family]
    mu_term, mu_move, conc_move, stats = kern.loglik(angles)
    # von Mises: both moves inline, from the sufficient statistics
    inline = stats is not None
    n, c_sum, s_sum = stats if inline else (0, 0.0, 0.0)
    cos, sin, i0e, np_log = math.cos, math.sin, _FLOAT_MATH.i0e, np.log
    log_prior = _log_density_fn(model.concentration_prior)
    # on von Mises, a PC-uniform prior's mid form or a Gamma(1, b)'s log
    # density runs inline too (b > 0 marks a Gamma); any other prior, and a
    # PC kappa outside the mid form's interval, calls log_prior
    pc_lo, pc_hi, lam, log_lam_norm, log_b, b = _inline_log_prior(model.concentration_prior)
    i1e, sqrt, log, inf = _FLOAT_MATH.i1e, _FLOAT_MATH.sqrt, math.log, math.inf
    to_theta, to_conc, log_jac, initial, top = _unconstrained(kern.support)
    lo, hi = kern.support

    mu = float(wrap_angle(config.initial_mu)) if config.initial_mu is not None \
        else float(circular_mean(angles))
    conc = float(config.initial_concentration) if config.initial_concentration is not None \
        else initial
    if not lo < conc < hi:
        raise InitializationError("initial concentration outside the open support")
    m = mu_term(mu)
    c, shared, cur_lik = conc_move(m, conc)
    cur_pri = log_prior(conc, shared)
    if not np.isfinite(cur_lik + cur_pri):
        raise InitializationError("initial state has zero posterior density")
    theta = to_theta(conc)
    cur_jac = log_jac(conc)

    rng = np.random.default_rng(config.seed)
    iters, burn = config.iterations, config.burn_in
    n_kept = iters - burn
    # draw everything up front: one fixed consumption pattern per config,
    # the normals first. Each loop reads a row (mu, concentration) as two
    # Python floats through one iterator per array taken twice: no numpy
    # scalar per iteration. Burn-in reads the normals, the kept loop their
    # products with the frozen steps; both read the uniforms as their logs,
    # the kept loop where burn-in left off. log 0 is -inf, without a warning.
    z_all = rng.standard_normal((iters, 2))
    with np.errstate(divide="ignore"):
        log_us = np.log(rng.random((iters, 2)))
    z = iter(memoryview(z_all.reshape(-1)))
    log_u = iter(memoryview(log_us.reshape(-1)))
    exp, two_pi, log_two_pi = math.exp, TWO_PI, _LOG_TWO_PI  # bound once for the loops
    step_mu = step_conc = 0.5
    target = config.target_acceptance
    out_of_support = 0

    # burn-in: both steps adapt (Robbins-Monro, gain (i + 1)^-0.7) on the
    # acceptance probability a of each move; nothing is counted or kept
    start = time.perf_counter()
    for gamma, z_mu, z_conc, lu_mu, lu_conc in zip(_gains(burn), z, z, log_u, log_u):
        # location: wrapped Gaussian proposal, flat prior cancels; the
        # concentration's term c is the current one's
        mu_prop = mu + step_mu * z_mu
        if not 0.0 <= mu_prop < two_pi:
            mu_prop %= two_pi
        if inline:
            m_prop = c_sum * cos(mu_prop) + s_sum * sin(mu_prop)
            lik_prop = conc * m_prop - c
        else:
            m_prop, lik_prop = mu_move(mu_prop, conc, c)
        log_a = lik_prop - cur_lik
        if lu_mu < log_a:
            mu, m, cur_lik = mu_prop, m_prop, lik_prop
        a = 1.0 if log_a >= 0.0 else exp(log_a)
        step_mu *= exp(gamma * (a - target))

        # concentration: Gaussian step on the unconstrained scale, mapped
        # back below the top; a proposal from the top up or outside the
        # open support is rejected
        th_prop = theta + step_conc * z_conc
        conc_prop = to_conc(th_prop) if th_prop < top else hi
        if lo < conc_prop < hi:
            if inline:
                i0 = i0e(conc_prop)
                log_i0e = float(np_log(i0))
                c_prop = n * (log_two_pi + (log_i0e + conc_prop))
                lik_prop = conc_prop * m - c_prop
                if pc_lo <= conc_prop < pc_hi:
                    # _vm_uniform_mid on the Bessel pass, then the log density
                    r = i1e(conc_prop) / i0
                    v = 1.0 - r
                    d = sqrt(conc_prop * r - (log_i0e + conc_prop))
                    g = conc_prop * (v * (2.0 - v) - r / conc_prop) / (2.0 * d)
                    pri_prop = log_lam_norm - lam * d + log(g) if 0.0 < g < inf else -inf
                elif b:
                    pri_prop = log_b - b * conc_prop
                else:
                    pri_prop = log_prior(conc_prop, (i0, log_i0e))
            else:
                c_prop, shared, lik_prop = conc_move(m, conc_prop)
                pri_prop = log_prior(conc_prop, shared)
            jac_prop = log_jac(conc_prop)
            log_a = (lik_prop + pri_prop + jac_prop) - (cur_lik + cur_pri + cur_jac)
            if lu_conc < log_a:
                theta, conc, c = th_prop, conc_prop, c_prop
                cur_lik, cur_pri, cur_jac = lik_prop, pri_prop, jac_prop
            a = 1.0 if log_a >= 0.0 else (exp(log_a) if log_a > -745.0 else 0.0)
        else:
            a = 0.0
            out_of_support += 1
        step_conc *= exp(gamma * (a - target))

    # kept: the same moves with the steps frozen, so the draws come from
    # one fixed kernel; each draw is written by index into the chain's own
    # array, through a view of each column
    steps = iter(memoryview((z_all[burn:] * (step_mu, step_conc)).reshape(-1)))
    draws = np.empty((n_kept, 2))
    kept_mu, kept_conc = memoryview(draws[:, 0]), memoryview(draws[:, 1])
    accepted_mu = accepted_conc = 0
    for j, d_mu, d_conc, lu_mu, lu_conc in zip(range(n_kept), steps, steps, log_u, log_u):
        mu_prop = mu + d_mu
        if not 0.0 <= mu_prop < two_pi:
            mu_prop %= two_pi
        if inline:
            m_prop = c_sum * cos(mu_prop) + s_sum * sin(mu_prop)
            lik_prop = conc * m_prop - c
        else:
            m_prop, lik_prop = mu_move(mu_prop, conc, c)
        if lu_mu < lik_prop - cur_lik:
            mu, m, cur_lik = mu_prop, m_prop, lik_prop
            accepted_mu += 1

        th_prop = theta + d_conc
        conc_prop = to_conc(th_prop) if th_prop < top else hi
        if lo < conc_prop < hi:
            if inline:
                i0 = i0e(conc_prop)
                log_i0e = float(np_log(i0))
                c_prop = n * (log_two_pi + (log_i0e + conc_prop))
                lik_prop = conc_prop * m - c_prop
                if pc_lo <= conc_prop < pc_hi:
                    # _vm_uniform_mid on the Bessel pass, then the log density
                    r = i1e(conc_prop) / i0
                    v = 1.0 - r
                    d = sqrt(conc_prop * r - (log_i0e + conc_prop))
                    g = conc_prop * (v * (2.0 - v) - r / conc_prop) / (2.0 * d)
                    pri_prop = log_lam_norm - lam * d + log(g) if 0.0 < g < inf else -inf
                elif b:
                    pri_prop = log_b - b * conc_prop
                else:
                    pri_prop = log_prior(conc_prop, (i0, log_i0e))
            else:
                c_prop, shared, lik_prop = conc_move(m, conc_prop)
                pri_prop = log_prior(conc_prop, shared)
            jac_prop = log_jac(conc_prop)
            if lu_conc < (lik_prop + pri_prop + jac_prop) - (cur_lik + cur_pri + cur_jac):
                theta, conc, c = th_prop, conc_prop, c_prop
                cur_lik, cur_pri, cur_jac = lik_prop, pri_prop, jac_prop
                accepted_conc += 1
        else:
            out_of_support += 1

        kept_mu[j] = mu
        kept_conc[j] = conc
    wall_s = time.perf_counter() - start

    return Chain(
        draws=draws,
        acceptance_rates={
            "mu": accepted_mu / n_kept,
            "concentration": accepted_conc / n_kept,
        },
        step_sizes=(step_mu, step_conc),
        first_iteration=burn,
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

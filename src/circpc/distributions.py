"""Densities, log-densities and exact samplers for circular distributions.

Supports the circular uniform, von Mises, cardioid and wrapped Cauchy
families on [0, 2*pi). Samplers take an explicit seed and own their
generator, so repeated calls are reproducible and independent of any
global state.
"""

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import expit

from .special import _FLOAT_MATH, _checked, _count, _evaluate, _log_i0

__all__ = [
    "TWO_PI",
    "Family",
    "DistributionSpec",
    "Dataset",
    "wrap_angle",
    "pdf",
    "log_pdf",
    "sample",
    "circular_mean",
    "resultant_length",
]

TWO_PI = 2.0 * np.pi

_LOG_TWO_PI = float(np.log(TWO_PI))


class Family(str, Enum):
    UNIFORM = "uniform"
    VON_MISES = "vm"
    CARDIOID = "cardioid"
    WRAPPED_CAUCHY = "wc"


def wrap_angle(x):
    """Wrap finite angles into [0, 2*pi) with floored modulo."""
    return _evaluate(_wrap, x, -math.inf, math.inf, "angle")


def _wrap(x):
    out = np.mod(x, TWO_PI)
    # mod of a tiny negative can round up to 2*pi itself
    return np.where(out >= TWO_PI, 0.0, out)


@dataclass(frozen=True)
class FamilyKernel:
    """Everything the package needs to know about one family.

    ``FAMILIES`` holds one per family; every module reads these records
    instead of branching on the family. The concentration fields are
    None for the circular uniform, which has no concentration. The
    sampler's unconstrained scale, its map back, log-Jacobian and start
    come from ``support`` alone (``_unconstrained``); ``loglik``'s pieces
    take the concentration itself.
    """

    label: str                             # name used in messages
    log_density: Callable                  # (angles in [0, 2*pi), mu, conc) -> log density
    draw: Callable                         # (rng, mu, conc > 0, n) -> angles in [0, 2*pi)
    loglik: Optional[Callable] = None      # angles in [0, 2*pi) -> LogLikelihood
    support: Optional[tuple] = None        # open interval the concentration moves in
    q: Optional[Callable] = None           # user-scale transform Q(conc)
    threshold: Optional[Callable] = None   # the concentration at which Q crosses U
    q_increasing: bool = False             # whether Q grows with the concentration
    u_range: str = ""                      # the thresholds U that Q reaches


@dataclass(frozen=True)
class DistributionSpec:
    """A circular distribution: family tag, location mu, concentration."""

    family: Family
    mu: float = 0.0
    concentration: float = 0.0

    def __post_init__(self):
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "mu", wrap_angle(float(self.mu)))
        kern = FAMILIES[family]
        conc = 0.0
        if kern.support is not None:
            conc = _checked(float(self.concentration), *kern.support, f"{kern.label} concentration")
        object.__setattr__(self, "concentration", conc)


@dataclass
class Dataset:
    """Angles in [0, 2*pi) plus a label."""

    angles: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.angles, dtype=float))
        if arr.size == 0:
            raise ValueError("dataset must contain at least one angle")
        self.angles = wrap_angle(arr)

    def __len__(self):
        return self.angles.size

    def write_csv(self, fh):
        writer = csv.writer(fh)
        writer.writerow(["angle_rad"])
        for a in self.angles:
            writer.writerow([format(a, ".17g")])

    def save_csv(self, path):
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    @classmethod
    def load_csv(cls, path, label=""):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[0].strip() != "angle_rad":
                raise ValueError(f"{path}: expected a single 'angle_rad' header column")
            values = [float(row[0]) for row in reader if row]
        if not values:
            raise ValueError(f"{path}: no angles found")
        return cls(np.asarray(values), label=label or str(path))


def log_pdf(spec, x):
    """Log density of ``spec`` at angle(s) ``x`` (any finite real)."""
    return _evaluate(lambda a: _log_density(spec, a), x, -math.inf, math.inf, "angle")


def pdf(spec, x):
    """Density of ``spec`` at angle(s) ``x``."""
    return _evaluate(lambda a: np.exp(_log_density(spec, a)), x, -math.inf, math.inf, "angle")


def _log_density(spec, x):
    return FAMILIES[spec.family].log_density(_wrap(x), spec.mu, spec.concentration)


def _uniform_log_density(x, mu, conc):
    return np.full_like(x, -_LOG_TWO_PI)


def _vm_log_density(x, mu, kappa):
    return kappa * np.cos(x - mu) - _LOG_TWO_PI - _log_i0(kappa)


def _cardioid_log_density(x, mu, ell):
    # ell < 0.5 on every path here, so 2 ell cos(x - mu) > -1
    return np.log1p(2.0 * ell * np.cos(x - mu)) - _LOG_TWO_PI


def _wc_log_density(x, mu, rho):
    # the set-up's form (see _wc_loglik): nothing cancels as rho -> 1 near x = mu
    sq = 1.0 - rho
    denom = np.square(np.sin(0.5 * (x - mu))) * (4.0 * rho) + sq * sq
    return math.log1p(-rho) + math.log1p(rho) - _LOG_TWO_PI - np.log(denom)


# from here up the log scale's concentration reads inf, outside the support;
# e^709 is also the largest kappa a distance inverts to
_LOG_KAPPA_TOP = 709.0


def _unconstrained(support):
    """``(to_theta, to_conc, log_jac, initial)`` for a concentration on ``support``,
    log_jac(c) being log |d conc / d theta| at c: log c from 1 on (0, inf), and
    t = logit(c / hi), so c = hi expit(t), from hi / 2 on (0, hi)."""
    hi = support[1]
    if math.isinf(hi):
        return (math.log, lambda t: math.exp(t) if t < _LOG_KAPPA_TOP else math.inf,
                math.log, 1.0)
    log_hi = math.log(hi)
    return (lambda c: math.log(c / hi) - math.log1p(-c / hi), lambda t: hi * float(expit(t)),
            lambda c: math.log(c / hi) + math.log1p(-c / hi) + log_hi, hi / 2.0)


class LogLikelihood(NamedTuple):
    """A family's log-likelihood, set up once per dataset and split into
    three pure pieces for a component-wise sampler.

    ``mu_term(mu)`` is the part that depends on mu alone, and
    ``conc_term(conc) -> (c, shared)`` the part that depends on the
    concentration alone, at a concentration of the closed support;
    shared holds the values a concentration prior can take from it (the
    von Mises Bessel pass, empty for the others). ``combine(m, conc, c)``
    is the log-likelihood from the two. A sampler keeps the current
    terms as chain state, so a mu step computes only ``mu_term`` and a
    concentration step only ``conc_term``; the map from the sampler's
    scale is the support's (``_unconstrained``), not the likelihood's.
    Called as ``(mu, conc)``, it evaluates the log-likelihood whole.
    Every piece takes Python floats and returns floats, or arrays for a
    per-angle mu term.
    """

    mu_term: Callable
    conc_term: Callable
    combine: Callable

    def __call__(self, mu, conc):
        return self.combine(self.mu_term(mu), conc, self.conc_term(conc)[0])


def _vm_loglik(angles):
    # sufficient statistics: kappa T(mu) - n (log 2 pi + log I0 kappa) with
    # T(mu) = C cos mu + S sin mu; the Bessel pass (i0e, log i0e) of kappa
    # is shared with the prior
    n = angles.size
    c_sum = float(np.sum(np.cos(angles)))
    s_sum = float(np.sum(np.sin(angles)))
    i0e, np_log = _FLOAT_MATH.i0e, np.log

    def mu_term(mu):
        return c_sum * math.cos(mu) + s_sum * math.sin(mu)

    def conc_term(kappa):
        i0 = i0e(kappa)
        # numpy's log, as _FLOAT_MATH.log gives it, without that wrapper's call
        log_i0e = float(np_log(i0))
        return n * (_LOG_TWO_PI + (log_i0e + kappa)), (i0, log_i0e)

    def combine(trig, kappa, log_norm):
        return kappa * trig - log_norm

    return LogLikelihood(mu_term, conc_term, combine)


def _cardioid_loglik(angles):
    # cos(x - mu) = cos x cos mu + sin x sin mu, per angle
    n = angles.size
    c, s = np.cos(angles), np.sin(angles)

    def mu_term(mu):
        cos_dev = c * math.cos(mu)
        cos_dev += s * math.sin(mu)
        return cos_dev

    def conc_term(ell):
        return 2.0 * ell, ()

    def combine(cos_dev, ell, two_ell):
        t = cos_dev * two_ell
        return float(np.add.reduce(np.log1p(t, out=t))) - n * _LOG_TWO_PI

    return LogLikelihood(mu_term, conc_term, combine)


def _wc_loglik(angles):
    # 1 + rho^2 - 2 rho cos(x - mu) = (1 - rho)^2 + 4 rho sin^2((x - mu)/2):
    # two nonnegative terms, so nothing cancels as rho -> 1 near x = mu;
    # sin((x - mu)/2) = sin(x/2) cos(mu/2) - cos(x/2) sin(mu/2), per angle
    n = angles.size
    c, s = np.cos(0.5 * angles), np.sin(0.5 * angles)

    def mu_term(mu):
        sin_dev = s * math.cos(0.5 * mu)
        sin_dev -= c * math.sin(0.5 * mu)
        return np.square(sin_dev, out=sin_dev)

    def conc_term(rho):
        sq = 1.0 - rho
        # log(1 - rho^2) from its two factors stays accurate as rho -> 1
        log_norm = math.log1p(-rho) + math.log1p(rho) - _LOG_TWO_PI
        return (4.0 * rho, sq * sq, n * log_norm), ()

    def combine(sin2_dev, rho, terms):
        four_rho, sq2, n_log_norm = terms
        t = sin2_dev * four_rho
        t += sq2
        return n_log_norm - float(np.add.reduce(np.log(t, out=t)))

    return LogLikelihood(mu_term, conc_term, combine)


def _sample_uniform(rng, mu, conc, n):
    return TWO_PI * rng.random(n)


# below this kappa, tau - sqrt(2 tau) cancels in the envelope's rho, so rho
# takes an equal form that does not cancel
_VM_RHO_REARRANGED_BELOW = 1.0e-3
# below this kappa, exp(kappa cos x) rounds to 1 for every x: the von Mises
# density is the uniform one in floats, so the uniform is drawn (the
# envelope's r ~ 1/kappa would overflow below ~5e-309)
_VM_UNIFORM_BELOW = 2.0 ** -55


def _sample_von_mises(rng, mu, kappa, n):
    # Best-Fisher rejection sampler, vectorized in batches.
    if kappa < _VM_UNIFORM_BELOW:
        return _sample_uniform(rng, mu, kappa, n)
    tau = 1.0 + np.sqrt(1.0 + 4.0 * kappa * kappa)
    if kappa < _VM_RHO_REARRANGED_BELOW:
        # the same rho: tau - sqrt(2 tau) = tau (tau - 2) / (tau + sqrt(2 tau)),
        # and tau (tau - 2) = 4 kappa^2
        rho = 2.0 * kappa / (tau + np.sqrt(2.0 * tau))
    else:
        rho = (tau - np.sqrt(2.0 * tau)) / (2.0 * kappa)
    r = (1.0 + rho * rho) / (2.0 * rho)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = int((n - filled) / 0.6) + 8
        u1 = rng.random(m)
        u2 = rng.random(m)
        u3 = rng.random(m)
        z = np.cos(np.pi * u1)
        f = (1.0 + r * z) / (r + z)
        c = kappa * (r - f)
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = (c * (2.0 - c) - u2 > 0.0) | (np.log(c / u2) + 1.0 - c >= 0.0)
        theta = np.sign(u3 - 0.5) * np.arccos(np.clip(f, -1.0, 1.0))
        good = theta[accept]
        take = min(good.size, n - filled)
        out[filled : filled + take] = good[:take]
        filled += take
    return wrap_angle(mu + out)


def _cardioid_cdf_unit(x, mu, ell):
    # CDF on [0, 2*pi): x/(2 pi) + (ell/pi) (sin(x - mu) + sin(mu))
    return x / TWO_PI + (ell / np.pi) * (np.sin(x - mu) + np.sin(mu))


def _sample_cardioid(rng, mu, ell, n):
    # invert the closed-form CDF by bisection; the CDF is strictly
    # increasing, so 60 halvings pin x down to ~5e-18
    u = rng.random(n)
    lo = np.zeros(n)
    hi = np.full(n, TWO_PI)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _cardioid_cdf_unit(mid, mu, ell) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return wrap_angle(0.5 * (lo + hi))


def _sample_wc(rng, mu, rho, n):
    return wrap_angle(mu - np.log(rho) * rng.standard_cauchy(n))


FAMILIES = {
    Family.UNIFORM: FamilyKernel("circular uniform", _uniform_log_density, _sample_uniform),
    Family.VON_MISES: FamilyKernel(
        "von Mises", _vm_log_density, _sample_von_mises, _vm_loglik,
        support=(0.0, math.inf),
        q=lambda x: TWO_PI / (1.0 + x), threshold=lambda U: TWO_PI / U - 1.0,
        q_increasing=False, u_range="(0, 2*pi]",
    ),
    Family.CARDIOID: FamilyKernel(
        "cardioid", _cardioid_log_density, _sample_cardioid, _cardioid_loglik,
        support=(0.0, 0.5),
        q=lambda x: 2.0 * x, threshold=lambda U: U / 2.0,
        q_increasing=True, u_range="(0, 1)",
    ),
    Family.WRAPPED_CAUCHY: FamilyKernel(
        "wrapped Cauchy", _wc_log_density, _sample_wc, _wc_loglik,
        support=(0.0, 1.0),
        q=lambda x: TWO_PI * (1.0 - x), threshold=lambda U: 1.0 - U / TWO_PI,
        q_increasing=False, u_range="(0, 2*pi]",
    ),
}


def sample(spec, n, seed):
    """Draw ``n`` independent angles from ``spec``.

    Deterministic for a fixed seed. Von Mises uses the Best-Fisher
    rejection sampler, wrapped Cauchy wraps a Cauchy(mu, -log rho)
    draw, the cardioid inverts its closed-form CDF by bisection, and
    the circular uniform scales a unit uniform.
    """
    n = _count(n)
    rng = np.random.default_rng(seed)
    draw = FAMILIES[spec.family].draw if spec.concentration != 0.0 else _sample_uniform
    angles = draw(rng, spec.mu, spec.concentration, n)
    return Dataset(angles, label=f"{spec.family.value}-sample")


def _sample_angles(angles):
    """Finite angles, at least one, as _checked returns them."""
    arr = _checked(angles, -math.inf, math.inf, "angle")
    if np.size(arr) == 0:
        raise ValueError("sample must contain at least one angle")
    return arr


def circular_mean(angles):
    """Mean direction atan2(sum sin, sum cos), wrapped to [0, 2*pi)."""
    arr = _sample_angles(angles)
    return wrap_angle(np.arctan2(np.sin(arr).sum(), np.cos(arr).sum()))


def resultant_length(angles):
    """Mean resultant length of a sample of angles, in [0, 1]."""
    arr = _sample_angles(angles)
    return float(np.hypot(np.sin(arr).mean(), np.cos(arr).mean()))

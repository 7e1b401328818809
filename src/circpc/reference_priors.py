"""Comparison priors for circular concentration parameters.

Collects the priors commonly placed on von Mises kappa, cardioid ell,
and wrapped-Cauchy rho, plus the change of variables that re-expresses
any such prior as a density on the distance scale d.  Looking at a
prior in d makes its attitude toward model complexity visible: a
density peaking at d = 0 favors the base model, one that vanishes or
peaks away from d = 0 pushes fits toward complexity.  ``overfit_audit``
automates that reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.special import betaln

from .distributions import TWO_PI, wrap_angle
from .divergence import DistanceProfile, inverse_distance
from .pc_priors import PcPrior, pc_pdf
from .special import _checked, _log_i0

__all__ = [
    "GammaOneB",
    "H2",
    "H3",
    "Beta",
    "ScaledBetaHalf",
    "UniformHalf",
    "CircularUniformLocation",
    "VonMisesConjugate",
    "AuditReport",
    "ref_pdf",
    "distance_scale_pdf",
    "overfit_audit",
]


@dataclass(frozen=True)
class GammaOneB:
    """Gamma(1, b): the exponential density b*exp(-b*x) on [0, inf)."""

    b: float

    support = (0.0, math.inf)

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError("rate b must be positive and finite")

    def pdf(self, x):
        return self.b * np.exp(-self.b * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class H2:
    """Half-Cauchy-type density 2 / (pi * (1 + x^2)) on [0, inf)."""

    support = (0.0, math.inf)

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        return 2.0 / (math.pi * (1.0 + arr * arr))


@dataclass(frozen=True)
class H3:
    """Density x / (1 + x^2)^(3/2) on [0, inf); zero at the origin."""

    support = (0.0, math.inf)

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        return arr / np.power(1.0 + arr * arr, 1.5)


@dataclass(frozen=True)
class Beta:
    """Beta(a, b) on [0, 1); the value at 0 follows the shape limit."""

    a: float
    b: float

    support = (0.0, 1.0)

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError("shape a must be positive and finite")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError("shape b must be positive and finite")

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        lb = betaln(self.a, self.b)
        # 0*log(0) at an endpoint is patched below, so mute that path
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.log(arr)
            log1mx = np.log1p(-arr)
            out = np.exp((self.a - 1.0) * logx + (self.b - 1.0) * log1mx - lb)
        if self.a == 1.0:
            out = np.where(arr == 0.0, math.exp(-lb), out)
        return out


@dataclass(frozen=True)
class ScaledBetaHalf:
    """Beta(a, b) variable halved onto [0, 0.5): density 2*beta(2x; a, b)."""

    a: float
    b: float

    support = (0.0, 0.5)

    def __post_init__(self):
        Beta(self.a, self.b)

    def pdf(self, x):
        return 2.0 * Beta(self.a, self.b).pdf(2.0 * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class UniformHalf:
    """Uniform density 2 on [0, 0.5)."""

    support = (0.0, 0.5)

    def pdf(self, x):
        return np.full_like(np.asarray(x, dtype=float), 2.0)


@dataclass(frozen=True)
class CircularUniformLocation:
    """Uniform density 1/(2*pi) on the circle [0, 2*pi)."""

    support = (0.0, TWO_PI)

    def pdf(self, x):
        return np.full_like(np.asarray(x, dtype=float), 1.0 / TWO_PI)


@dataclass(frozen=True)
class VonMisesConjugate:
    """Joint conjugate prior for a von Mises (mu, kappa), proportional form.

    pdf evaluates exp(kappa*R0*cos(mu - mu0)) / I0(kappa)^c without the
    (intractable) normalizing constant; interpret c as a count of prior
    observations with resultant component R0 toward mu0.
    """

    c: float
    R0: float
    mu0: float

    support = (0.0, math.inf)  # kappa axis

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError("prior observation count c must be positive")
        if not math.isfinite(self.R0):
            raise ValueError("resultant component R0 must be finite")
        object.__setattr__(self, "mu0", float(wrap_angle(self.mu0)))

    def pdf(self, mu, kappa):
        k = _checked(kappa, what="kappa")
        m = _checked(mu, -math.inf, math.inf, "mu")
        return np.exp(k * self.R0 * np.cos(m - self.mu0) - self.c * _log_i0(k))


ReferencePrior = Union[
    GammaOneB,
    H2,
    H3,
    Beta,
    ScaledBetaHalf,
    UniformHalf,
    CircularUniformLocation,
    VonMisesConjugate,
]


def ref_pdf(prior, param):
    """Density of a comparison prior at param (domain-checked).

    VonMisesConjugate is bivariate: pass param as a (mu, kappa) pair.
    """
    if isinstance(prior, VonMisesConjugate):
        out = prior.pdf(*param)
        return float(out) if np.ndim(out) == 0 else out
    x = _checked(param, *prior.support, "parameter")
    out = prior.pdf(x)
    return float(out) if isinstance(x, float) else out


def _param_density(prior) -> Callable:
    """Parameter-space density callable for any auditable prior."""
    if isinstance(prior, PcPrior):
        return lambda x: pc_pdf(prior, x)
    if hasattr(prior, "pdf") and not isinstance(prior, VonMisesConjugate):
        return lambda x: ref_pdf(prior, x)
    if callable(prior):
        return prior
    raise TypeError("prior must expose a univariate density")


def distance_scale_pdf(prior, profile: DistanceProfile, d):
    """Density of the prior pushed onto the distance scale.

    Evaluates pi(xi(d)) / |d'(xi(d))| with xi(d) from inverse_distance
    and the analytic derivative of the profile's distance map.
    """
    pdf = _param_density(prior)
    xi = inverse_distance(profile, d)  # checks d
    out = pdf(xi) / profile.dist_deriv(xi)[1]
    return float(out) if isinstance(xi, float) else out


@dataclass(frozen=True)
class AuditReport:
    """Behavior of a prior near the base model, read on the distance scale."""

    density_at_zero: float
    monotone_decreasing: bool
    argmax_d: float
    classification: str

    def to_dict(self) -> dict:
        return {
            "density_at_zero": self.density_at_zero,
            "monotone_decreasing": self.monotone_decreasing,
            "argmax_d": self.argmax_d,
            "classification": self.classification,
        }


def _density_at_zero_limit(pdf_d, h=1e-4):
    """One-sided limit of a distance-scale density at d -> 0+.

    Richardson-style: if halving the abscissa grows the value sharply
    the density diverges; otherwise extrapolate linearly to zero.
    """
    v1 = float(pdf_d(h))
    v2 = float(pdf_d(0.5 * h))
    if v2 > 1.25 * v1 and v2 > 0.0:
        return math.inf
    return max(2.0 * v2 - v1, 0.0)


def overfit_audit(prior, profile: DistanceProfile, *, grid_points=1000, d_cap=4.0):
    """Classify a prior's attitude toward complexity on the distance scale.

    Reports the one-sided density limit at d=0, whether the density is
    monotone decreasing over a grid, and where its maximum sits.  A prior
    whose distance-scale density peaks at the base model (first grid
    point) is base-model-favoring; anything else rewards complexity.
    """
    pdf_d = lambda d: distance_scale_pdf(prior, profile, d)
    hi = min(profile.d_max, d_cap)
    if math.isfinite(profile.d_max):
        hi = hi * (1.0 - 1e-5)  # keep clear of diverging endpoint curvature
    # start just off d = 0, which the point-mass and curve bases reach
    # only as the parameter runs to its open end
    grid = np.linspace(1e-3, hi, int(grid_points))
    vals = np.asarray(pdf_d(grid), dtype=float)
    increases = vals[1:] > vals[:-1] * (1.0 + 1e-9) + 1e-300
    argmax = int(np.argmax(vals))
    return AuditReport(
        density_at_zero=_density_at_zero_limit(pdf_d),
        monotone_decreasing=bool(not np.any(increases)),
        argmax_d=float(grid[argmax]),
        classification=(
            "base_model_favoring" if argmax == 0 else "complexity_favoring"
        ),
    )

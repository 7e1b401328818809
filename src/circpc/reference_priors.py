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
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np
from scipy.special import betaln

from .distributions import FAMILIES, TWO_PI, wrap_angle
from .divergence import BaseModel, DistanceProfile, _checked_distance, inverse_distance
# pc_pdf is not called here: the traced prior-elicit benchmark patches it by name
from .pc_priors import PcPrior, _pc_density, _pc_log_density_fn, pc_pdf  # noqa: F401
from .special import _FLOAT_MATH, _TINY, _checked, _count, _evaluate, _log_i0, _piecewise_table

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


def _float_or_array(x):
    """A float (numpy's float64 is one) as it is, anything else as a float
    array: the densities then run float arithmetic on a scalar call."""
    return x if isinstance(x, float) else np.asarray(x, dtype=float)


def _vanished(ns, x):
    return 0.0


def _log_vanished(ns, x):
    return -math.inf


_LOG_2 = math.log(2.0)


class _Tabled:
    """A density given by its special._piecewise_table ``_pdf_table``,
    made once. All but H2 give its log by the table ``_log_table``: forms
    of their own, which stay finite wherever the density is positive,
    though its float value underflows. H2's one log would cost more than
    the log of its pdf, which keeps a normal float far beyond any chain's
    concentration.
    """

    def pdf(self, x):
        return self._pdf_table(_float_or_array(x))

    def __reduce__(self):
        # the tables are closures, which do not pickle: a copy is built
        # again from the prior's hyperparameters
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True)
class GammaOneB(_Tabled):
    """Gamma(1, b): the exponential density b*exp(-b*x) on [0, inf)."""

    b: float
    _pdf_table: Callable = field(init=False, repr=False, compare=False)
    _log_table: Callable = field(init=False, repr=False, compare=False)

    support = (0.0, math.inf)

    def __post_init__(self):
        b = self.b
        if not (math.isfinite(b) and b > 0.0):
            raise ValueError("rate b must be positive and finite")
        log_b = math.log(b)
        # from 746/b up exp(-b x) underflows to 0, and the density is 0
        # without forming b x, which overflows near the top of the floats
        object.__setattr__(self, "_pdf_table", _piecewise_table(
            (746.0 / b,), (lambda ns, x: b * ns.exp(-b * x), _vanished)))
        # log b - b x holds on the whole support
        object.__setattr__(self, "_log_table", _piecewise_table((), (lambda ns, x: log_b - b * x,)))


# The heavy-tailed densities' direct forms overflow in the denominator,
# pi (1 + x^2) above 2^511 and (1 + x^2)^1.5 above 2^341, and would read
# 0 there; 1 + x^2 rounds to x^2 long before, so the tails take the
# leading term. Each tail is x pi(x), the density in log x, divided by x:
# the density underflows gradually, and distance_scale_pdf takes x pi(x)
# alone where pi has left the normal range
def _h2_log_tail(x):
    return (2.0 / math.pi) / x


def _h3_log_tail(x):
    return 1.0 / x


_H2_PDF = _piecewise_table(
    (2.0 ** 511,),
    (lambda ns, x: 2.0 / (math.pi * (1.0 + x * x)), lambda ns, x: _h2_log_tail(x) / x),
)
_H3_PDF = _piecewise_table(
    (2.0 ** 341,),
    (lambda ns, x: x / ns.power(1.0 + x * x, 1.5), lambda ns, x: _h3_log_tail(x) / x),
)


# H3's log takes the same cut, each form with one log: below it the
# direct form stays finite, above it the tail is -2 log x; it is -inf at
# 0 alone
def _h3_log_direct(ns, x):
    t = 1.0 + x * x
    return ns.log(x / (t * ns.sqrt(t)))


_H3_LOG = _piecewise_table(
    (_TINY,) + _H3_PDF.cuts,
    (_log_vanished, _h3_log_direct, lambda ns, x: -2.0 * ns.log(x)),
)
# from here up distance_scale_pdf divides in log kappa on both von Mises
# pairs: the point mass's |d'| is formed from a subnormal k r'(k) / k, and
# the heavy tails' densities fall into the subnormals, where the uniform
# base's |d'| ~ 1/(4 d kappa) stays normal; both tails hold from here
_LOG_KAPPA_FROM = 2.0 ** 511


@dataclass(frozen=True)
class H2(_Tabled):
    """Half-Cauchy-type density 2 / (pi * (1 + x^2)) on [0, inf)."""

    support = (0.0, math.inf)
    _log_tail = staticmethod(_h2_log_tail)
    _pdf_table = staticmethod(_H2_PDF)


@dataclass(frozen=True)
class H3(_Tabled):
    """Density x / (1 + x^2)^(3/2) on [0, inf); zero at the origin."""

    support = (0.0, math.inf)
    _log_tail = staticmethod(_h3_log_tail)
    _pdf_table = staticmethod(_H3_PDF)
    _log_table = staticmethod(_H3_LOG)


@dataclass(frozen=True)
class Beta(_Tabled):
    """Beta(a, b) on [0, 1); the value at 0 follows the shape limit."""

    a: float
    b: float
    _pdf_table: Callable = field(init=False, repr=False, compare=False)
    _log_table: Callable = field(init=False, repr=False, compare=False)

    support = (0.0, 1.0)

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError("shape a must be positive and finite")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError("shape b must be positive and finite")
        a1, b1, lb = self.a - 1.0, self.b - 1.0, float(betaln(self.a, self.b))
        # the density's limit at x = 0, and its log's: 0, exp(-log B) or
        # inf as a > 1, a = 1 or a < 1
        log_at_zero = -lb if self.a == 1.0 else (-math.inf if self.a > 1.0 else math.inf)
        at_zero = math.exp(log_at_zero)

        def log_positive(ns, x):
            return a1 * ns.log(x) + b1 * ns.log1p(-x) - lb

        # [0, _TINY) holds only x = 0, where the limit stands in
        object.__setattr__(self, "_pdf_table", _piecewise_table(
            (_TINY,), (lambda ns, x: at_zero, lambda ns, x: ns.exp(log_positive(ns, x)))))
        object.__setattr__(self, "_log_table", _piecewise_table(
            (_TINY,), (lambda ns, x: log_at_zero, log_positive)))


def _doubled(form):
    return lambda ns, x: 2.0 * form(ns, 2.0 * x)


def _log_doubled(form):
    return lambda ns, x: _LOG_2 + form(ns, 2.0 * x)


@dataclass(frozen=True)
class ScaledBetaHalf(_Tabled):
    """Beta(a, b) variable halved onto [0, 0.5): density 2*beta(2x; a, b)."""

    a: float
    b: float
    _pdf_table: Callable = field(init=False, repr=False, compare=False)
    _log_table: Callable = field(init=False, repr=False, compare=False)

    support = (0.0, 0.5)

    def __post_init__(self):
        # 2 beta(2x): x = 0 alone is below _TINY, as 2x is below it for Beta
        beta = Beta(self.a, self.b)
        object.__setattr__(self, "_pdf_table", _piecewise_table(
            (_TINY,), tuple(map(_doubled, beta._pdf_table.forms))))
        object.__setattr__(self, "_log_table", _piecewise_table(
            (_TINY,), tuple(map(_log_doubled, beta._log_table.forms))))


@dataclass(frozen=True)
class UniformHalf(_Tabled):
    """Uniform density 2 on [0, 0.5)."""

    support = (0.0, 0.5)
    _pdf_table = staticmethod(_piecewise_table((), (lambda ns, x: 2.0,)))
    _log_table = staticmethod(_piecewise_table((), (lambda ns, x: _LOG_2,)))


@dataclass(frozen=True)
class CircularUniformLocation:
    """Uniform density 1/(2*pi) on the circle [0, 2*pi)."""

    support = (0.0, TWO_PI)

    def pdf(self, x):
        x = _float_or_array(x)
        return 1.0 / TWO_PI if isinstance(x, float) else np.full_like(x, 1.0 / TWO_PI)


@dataclass(frozen=True)
class VonMisesConjugate:
    """Joint conjugate prior for a von Mises (mu, kappa), proportional form.

    pdf evaluates exp(kappa*R0*cos(mu - mu0)) / I0(kappa)^c without the
    (intractable) normalizing constant; interpret c as a count of prior
    observations with resultant component R0 toward mu0. Having no
    univariate ``support``, it is no concentration prior.
    """

    c: float
    R0: float
    mu0: float

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


def ref_pdf(prior, param):
    """Density of a comparison prior at param (domain-checked).

    A prior without a ``support`` is bivariate (VonMisesConjugate): pass
    param as a (mu, kappa) pair, which its pdf checks.
    """
    if hasattr(prior, "support"):
        return _evaluate(prior.pdf, param, *prior.support, "parameter")
    out = prior.pdf(*param)
    return float(out) if np.ndim(out) == 0 else out


def _check_support(prior, family):
    """ValueError, naming both supports, unless ``prior.support`` is the
    concentration support of ``family``."""
    lo, hi = FAMILIES[family].support
    if tuple(prior.support) != (lo, hi):
        raise ValueError(
            f"prior support {prior.support} does not match the "
            f"{family.value} concentration support [{lo}, {hi})"
        )


def _log_density_fn(prior) -> Callable:
    """The log density of a univariate concentration prior at one float
    inside its support, unchecked, as the sampler and ``log_posterior``
    take it: ``(x, shared=()) -> float``, ``shared`` being the values a
    likelihood's concentration term shares.

    A PC prior's comes from pc_priors and shares the von Mises Bessel
    pass. A reference prior with a log table runs it, which ignores the
    pass; any other prior's is the log of its density. A density that
    diverges (a Beta with a < 1 at 0) gives +inf, and -inf comes only
    where the density is 0: from a log table, only where the true
    density is 0, though its float value underflows.
    """
    if isinstance(prior, PcPrior):
        return _pc_log_density_fn(prior)
    # x is a Python float: place it among the table's cuts here, and run
    # its form with float arithmetic
    table = getattr(prior, "_log_table", None)
    if table is not None:
        cuts, forms = table.cuts, table.forms

        def log_density(x, shared=()):
            return forms[bisect_right(cuts, x)](_FLOAT_MATH, x)

        return log_density
    log, inf = math.log, math.inf
    pdf = prior.pdf
    # a density without a table is one form
    table = getattr(prior, "_pdf_table", None) or _piecewise_table((), (lambda ns, x: pdf(x),))
    cuts, forms = table.cuts, table.forms

    def log_pdf(x, shared=()):
        v = forms[bisect_right(cuts, x)](_FLOAT_MATH, x)
        return log(v) if v > 0.0 else -inf

    return log_pdf


def distance_scale_pdf(prior, profile: DistanceProfile, d):
    """Density of the prior pushed onto the distance scale.

    Evaluates pi(xi(d)) / |d'(xi(d))| with xi(d) from inverse_distance
    and the analytic derivative of the profile's distance map. A PC
    prior on the same pair is exactly lambda e^(-lambda d) / Z there,
    which needs no parameter: d is checked as inverse_distance checks
    it, and raises where it does, but nothing is inverted.
    From kappa = 2^511 up, on both von Mises pairs, the quotient is
    taken in log kappa, the coordinate their inverses solve in: kappa
    pi(kappa) over kappa |d'|. There the point-mass profile's |d'| loses
    precision (past kappa ~ 1.6e161 it underflows to 0), and the heavy
    tails' densities fall into the subnormals (at d ~ 13.5 on the
    uniform base). The heavy tails give kappa pi(kappa) from a form that
    stays normal; any other prior gives pi(kappa) times kappa. kappa
    |d'| is the point-mass kernel's slope in log kappa, and kappa times
    |d'| on the uniform base, whose |d'| stays normal.
    A prior with a ``support`` must have the profile family's; its
    unchecked ``pdf`` is read on the inverse's output, which lies inside
    that support. A bare callable has none and is read on any pair.
    """
    if hasattr(prior, "support"):
        _check_support(prior, profile.family)
    elif not callable(prior):
        raise TypeError("prior must have a univariate support and pdf, or be a callable density")
    if isinstance(prior, PcPrior) and prior.profile is profile:
        x = _checked_distance(profile, d)
        out = _pc_density(prior, x, 1.0)
        return float(out) if isinstance(x, float) else out
    xi = inverse_distance(profile, d)  # checks d, and raises where no parameter has it
    density = prior.pdf(xi) if hasattr(prior, "support") else prior(xi)
    slope = profile.dist_deriv(xi)[1]
    far = xi >= _LOG_KAPPA_FROM
    if np.any(far):
        tail = getattr(prior, "_log_tail", None)
        # the floor keeps a tail form off the elements it does not hold for
        k_density = density * xi if tail is None else tail(np.maximum(xi, _LOG_KAPPA_FROM))
        density = np.where(far, k_density, density)
        # the point-mass kernel's log_slope flag gives kappa |d'|
        k_slope = (profile.dist_deriv(xi, (None, True))[1]
                   if profile.base is BaseModel.POINT_MASS else xi * slope)
        slope = np.where(far, k_slope, slope)
    out = density / slope
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


# the audit grid starts just off d = 0, which the point-mass and curve
# bases reach only as the parameter runs to its open end; the limit at 0
# reads the density at _ZERO_STEP and at half of it
_GRID_START = 1e-3
_ZERO_STEP = 1e-4


def _density_at_zero_limit(v_half, v_step):
    """One-sided limit of a distance-scale density at d -> 0+, from its
    values at d = _ZERO_STEP / 2 and _ZERO_STEP.

    Richardson-style: if halving the abscissa grows the value sharply
    the density diverges; otherwise extrapolate linearly to zero.
    """
    if v_half > 1.25 * v_step and v_half > 0.0:
        return math.inf
    return max(2.0 * v_half - v_step, 0.0)


def overfit_audit(prior, profile: DistanceProfile, *, grid_points=1000, d_cap=4.0):
    """Classify a prior's attitude toward complexity on the distance scale.

    Reports the one-sided density limit at d=0, whether the density is
    monotone decreasing over a grid, and where its maximum sits.  A prior
    whose distance-scale density peaks at the base model (first grid
    point) is base-model-favoring; anything else rewards complexity.
    The grid runs from 1e-3 to min(d_max, d_cap) in ``grid_points``
    points, at least 2; its top must be finite and above its start. The
    limit's two abscissae and the grid are evaluated in one call.
    """
    n = _count(grid_points, "grid_points")
    if n < 2:
        raise ValueError("grid_points must be at least 2")
    hi = min(profile.d_max, d_cap)
    if math.isfinite(profile.d_max):
        hi = hi * (1.0 - 1e-5)  # keep clear of diverging endpoint curvature
    # min() passes over a nan d_cap, so it is tested itself
    if d_cap != d_cap or not _GRID_START < hi < math.inf:
        raise ValueError(
            f"d_cap must be a number such that min(d_max, d_cap) is finite and above {_GRID_START}"
        )
    grid = np.linspace(_GRID_START, hi, n)
    at = np.concatenate(((0.5 * _ZERO_STEP, _ZERO_STEP), grid))
    vals = np.asarray(distance_scale_pdf(prior, profile, at), dtype=float)
    v_half, v_step, vals = float(vals[0]), float(vals[1]), vals[2:]
    increases = vals[1:] > vals[:-1] * (1.0 + 1e-9) + 1e-300
    argmax = int(np.argmax(vals))
    return AuditReport(
        density_at_zero=_density_at_zero_limit(v_half, v_step),
        monotone_decreasing=bool(not np.any(increases)),
        argmax_d=float(grid[argmax]),
        classification=(
            "base_model_favoring" if argmax == 0 else "complexity_favoring"
        ),
    )

"""Complexity-penalizing priors for circular concentration parameters.

Each prior is exponential in the distance scale d(param) of a
(family, base) pair from :mod:`circpc.divergence`:

    pi(param) = lambda * exp(-lambda * d(param)) * |d'(param)| / Z

Two normalization modes are shipped.  ``Truncated`` divides by
Z = 1 - exp(-lambda * d_max), so the density integrates to exactly 1
over the parameter support even when the distance range is finite.
``PaperExact`` reproduces the widely printed closed forms instead: for
the three pairs whose printed forms already normalize (vm/uniform,
cardioid/uniform, wc/uniform) the two modes coincide; for vm/pointmass
and cardioid/curve the printed forms omit the normalizer and the
resulting density integrates to 1 - exp(-lambda * d_max) < 1.

lambda is calibrated from a tail statement P(Q(param) > U) = alpha on a
user-scale transform Q: Q(kappa) = 2*pi/(1+kappa) for von Mises,
Q(ell) = 2*ell for the cardioid, Q(rho) = 2*pi*(1-rho) for the wrapped
Cauchy.  Numeric calibration against the implemented truncated CDF is
authoritative; the literature closed forms are exposed separately as
``calibrate_lambda_paper`` and cross-checked where they agree.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .distributions import FAMILIES, Family
from .divergence import (
    BaseModel,
    Direction,
    DistanceProfile,
    distance,
    inverse_distance,
    profile_for,
)
from .special import _FLOAT_MATH, _TINY, _checked, _count, _evaluate, _piecewise_table, _real

# the calibrations' first bracket for lambda, and the factor that widens it
_BRACKET = (1.0e-8, 1.0e6)
_WIDEN = 100.0
# the root solve's step limit, brentq's maxiter
_BRENT_STEPS = 100
# the CDF's distance to its end value below which its direct forms are
# rounding noise, about four ulps
_END_GAP = 2.0 ** -50


class InfeasibleTailError(ValueError):
    """No lambda achieves the requested tail probability.

    Carries the open interval of attainable alpha values for the given
    (family, base, U) in the ``attainable`` attribute.
    """

    def __init__(self, message, attainable):
        super().__init__(message)
        self.attainable = attainable


class UnsupportedModeError(ValueError):
    """Operation requires a normalized CDF and the mode does not have one."""


class Normalization(str, Enum):
    TRUNCATED = "truncated"
    PAPER_EXACT = "paper"


@dataclass(frozen=True)
class PcPrior:
    """A calibrated complexity-penalizing prior for one concentration axis.

    ``lam`` is the rate on the distance scale (serialized under the key
    "lambda"); ``profile`` is the pair's distance profile.
    """

    family: Family
    base: BaseModel
    lam: float
    normalization: Normalization = Normalization.TRUNCATED
    profile: DistanceProfile = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "base", BaseModel(self.base))
        object.__setattr__(self, "normalization", Normalization(self.normalization))
        object.__setattr__(self, "lam", _checked(_real(self.lam, "lambda"), _TINY, math.inf, "lambda"))
        object.__setattr__(self, "profile", profile_for(self.family, self.base))

    @property
    def support(self) -> tuple:
        """The open interval of the parameter: the family's concentration support."""
        return (self.profile.support_lo, self.profile.support_hi)

    def pdf(self, x):
        """The density at x inside the support, unchecked; pc_pdf checks x."""
        return _pc_density(self, *self.profile.dist_deriv(x))

    @property
    def is_normalized(self) -> bool:
        """True when the CDF runs from 0 to 1 over the support."""
        return self.normalization is Normalization.TRUNCATED or not self.profile.paper_unnormalized

    def to_record(self) -> dict:
        return {
            "family": self.family.value,
            "base": self.base.value,
            "lambda": self.lam,
            "normalization": self.normalization.value,
        }

    @classmethod
    def from_record(cls, record: dict) -> "PcPrior":
        return cls(
            family=record["family"],
            base=record["base"],
            lam=record["lambda"],
            normalization=record.get("normalization", Normalization.TRUNCATED),
        )


@dataclass(frozen=True)
class TailSpec:
    """Tail statement P(Q(param) > U) = alpha used to calibrate lambda."""

    U: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "U", _checked(_real(self.U, "U"), _TINY, math.inf, "U"))
        object.__setattr__(self, "alpha", _checked(_real(self.alpha, "alpha"), _TINY, 1.0, "alpha"))

    def validate_for(self, family) -> None:
        _crossing(family, self.U)


def _q_kernel(family):
    kern = FAMILIES[Family(family)]
    if kern.q is None:
        raise ValueError("no Q transform for the uniform family")
    return kern


def _crossing(family, U):
    """Check the threshold U for ``family``; return the family's record
    and xi_U, the concentration at which Q crosses U."""
    kern = _q_kernel(family)
    xi = kern.threshold(_checked(U, _TINY, math.inf, "U"))
    lo, hi = kern.support
    if not lo <= xi < hi:
        raise ValueError(f"{kern.label} tail threshold U must lie in {kern.u_range}")
    return kern, xi


def q_transform(family, param):
    """User-scale transform Q whose tail P(Q > U) = alpha calibrates lambda.

    Defined on the closed support: at its open end Q takes its limit.
    """
    kern = _q_kernel(family)
    lo, hi = kern.support
    return _evaluate(kern.q, param, lo, math.nextafter(hi, math.inf), f"{kern.label} concentration")


def _normalizer(lam, prof: DistanceProfile, normalized) -> float:
    """Mass of lambda*exp(-lambda*d) over the pair's distance range; 1
    where the form is not normalized."""
    if not normalized or math.isinf(prof.d_max):
        return 1.0
    return -math.expm1(-lam * prof.d_max)


# the normalized pairs' CDF pieces at gap = x - x_max, made once: x travels
# with gap, e_max = e^x_max (and the increasing pair's normalizer z) is
# passed whole. The increasing pair's cut depends on lambda, so its table
# is placed on gap - top, which is below 0 exactly when gap < top
_DECREASING_CDF = _piecewise_table((_END_GAP,), (
    lambda ns, gap, x, e_max: e_max * ns.expm1(gap), lambda ns, gap, x, e_max: ns.exp(x) - e_max,
))
_INCREASING_CDF = _piecewise_table((0.0,), (
    lambda ns, s, gap, x, e_max, z: 1.0 - e_max * ns.expm1(gap) / z,
    lambda ns, s, gap, x, e_max, z: -ns.expm1(x) / z,
))


def _cdf(lam, d, prof: DistanceProfile, normalized):
    """The PC CDF at distance(s) d: pc_cdf and the calibration residual
    both evaluate it, so each CDF formula is written once.

    Every branch lies in [0, 1] by construction, with no clip. d is
    clamped to d_max, which it can round past at the open end of the
    support, so x = -lam d lies in [x_max, 0] with x_max = -lam d_max.
    Then 1 - e^x, alone or over a normalizer that rounds to 1, lies in
    [0, 1]. The other forms rest on e^x >= e^x_max, which is exact but
    can fail in floats: numpy's exponentials of x and libm's of x_max
    (in e_max and the normalizer) may differ in the last bit. So where
    the CDF is within about four ulps of its end value (e^x - e^x_max
    below 2^-50 of e^x_max, or of the normalizer), that difference is
    computed as e^x_max expm1(x - x_max), which is never negative;
    elsewhere it exceeds the rounding of both exponentials, each off by
    less than one ulp.
    """
    d = np.minimum(d, prof.d_max)
    x = -lam * d
    if prof.direction is Direction.INCREASING:
        z = _normalizer(lam, prof, normalized)
        if z == 1.0:
            return -np.expm1(x)
        # (e^x - e^x_max) / z, the CDF's distance from 1, is below 2^-50 for x - x_max < top
        e_max = math.exp(-lam * prof.d_max)
        top = math.log1p(_END_GAP * z / e_max)
        gap = x + lam * prof.d_max
        return _INCREASING_CDF(gap - top, (gap, x, e_max, z))
    if not normalized:
        return np.exp(x)
    e_max = math.exp(-lam * prof.d_max)
    return _DECREASING_CDF(x + lam * prof.d_max, (x, e_max)) / (1.0 - e_max)


def _tail(kern, cdf_at_crossing):
    """P(Q > U) from the CDF at xi_U."""
    return 1.0 - cdf_at_crossing if kern.q_increasing else cdf_at_crossing


def pc_pdf(prior: PcPrior, param):
    """Prior density at param; exponential in the distance scale."""
    return _evaluate(prior.pdf, param, *prior.support, "parameter")


def _pc_density(prior: PcPrior, d, slope):
    """The prior density at a parameter with distance d and |d'| = slope."""
    z = _normalizer(prior.lam, prior.profile, prior.is_normalized)
    return prior.lam * np.exp(-prior.lam * d) * slope / z


def _pc_log_lam_norm(prior: PcPrior) -> float:
    """log(lam / z), the constant of the prior's log density, z being its
    normalizer."""
    z = _normalizer(prior.lam, prior.profile, prior.is_normalized)
    return math.log(prior.lam) - math.log(z)


def _pc_log_density_fn(prior: PcPrior):
    """The prior's log density at one float inside its support, unchecked.

    It works on the log scale, so the exponential never over- or
    underflows at extreme distances, and -inf stands where the density
    vanishes. A von Mises concentration step passes its Bessel pass of
    the same argument, (exp(-x) I0(x), its log), as ``shared``; the
    distance form then evaluates only what that pass lacks. x is a
    Python float, so the function places it among the kernel table's
    cuts itself and runs the form that holds it with float arithmetic.
    """
    table = prior.profile.dist_deriv
    cuts, forms = table.cuts, table.forms
    lam, log_lam_norm = prior.lam, _pc_log_lam_norm(prior)
    log, inf = math.log, math.inf

    def log_density(x, shared=()):
        form = forms[bisect_right(cuts, x)]
        # the shared pass is one argument, so the call takes the fast path
        d, g = form(_FLOAT_MATH, x, shared) if shared else form(_FLOAT_MATH, x)
        if not 0.0 < g < inf:
            return -inf
        return log_lam_norm - lam * d + log(g)

    return log_density


def pc_cdf(prior: PcPrior, param):
    """Prior CDF at param.

    Truncated mode runs from exactly 0 at the support minimum to 1 at
    the supremum.  PaperExact mode returns the printed closed forms,
    which for vm/pointmass and cardioid/curve do not reach 0 at the
    support minimum.
    """
    prof = prior.profile
    return _evaluate(
        lambda x: _cdf(prior.lam, distance(prof, x), prof, prior.is_normalized),
        param, prof.support_lo, prof.support_hi, "parameter",
    )


def _quantile_distance(prior: PcPrior, p):
    """Distance value whose CDF equals p, vectorized."""
    lam = prior.lam
    prof = prior.profile
    if prof.direction is Direction.INCREASING:
        z = _normalizer(lam, prof, prior.is_normalized)
        return -np.log1p(-p * z) / lam
    e_max = math.exp(-lam * prof.d_max)
    return -np.log(p + (1.0 - p) * e_max) / lam


def _require_normalized(prior: PcPrior, what: str) -> None:
    if not prior.is_normalized:
        raise UnsupportedModeError(
            f"{what} needs a CDF running from 0 to 1; the printed "
            f"{prior.family.value}/{prior.base.value} form does not normalize. "
            "Use truncated normalization."
        )


def pc_quantile(prior: PcPrior, p):
    """Inverse CDF: the param whose pc_cdf equals p, for p in (0, 1).

    A level close enough to 1 can map beyond the largest float64
    parameter: past the profile's ``d_top`` on the unbounded-distance
    pairs (vm/uniform, wc/uniform), or on vm/pointmass to a distance
    that rounds to 0, below the profile's ``domain``. That is reported
    as a ValueError rather than returned saturated.
    """
    _require_normalized(prior, "quantile")
    x = _checked(p, _TINY, 1.0, "quantile level")
    prof = prior.profile
    d = _quantile_distance(prior, x)
    beyond = "quantile level maps beyond the largest representable parameter"
    if np.any(d < prof.domain[0]):
        raise ValueError(beyond)
    top = prof.d_top
    if top is not None and np.any(d > top):
        reachable = float(_cdf(prior.lam, top, prof, prior.is_normalized))
        raise ValueError(f"{beyond} (reachable up to p = {reachable:.17g})")
    return inverse_distance(prof, d)


def pc_sample(prior: PcPrior, n, seed):
    """n inverse-CDF draws from the prior.

    A draw whose distance no float parameter has saturates at the
    largest representable parameter. On the unbounded-distance pairs
    (vm/uniform, wc/uniform) that is a distance beyond the profile's
    ``d_top``, 18.84 and 6.00, which a draw reaches with probability
    exp(-lambda d_top): 0.390 at lambda = 0.05 on vm/uniform,
    6.6e-9 at lambda = 1. On vm/pointmass it is a distance that rounds
    to 0, as a uniform draw near 1 does at small lambda. The distances
    are made here, so they are clipped to the profile's ``domain`` and
    go to the pair's inverse without the public check. A draw clipped
    to ``d_top`` takes the cap without a search: vm/uniform's inverse
    has a form for d_top, and the wrapped Cauchy's closed form clamps
    there. On the searched pairs, a draw whose parameter's coordinate
    (log kappa or logit(2 ell)) lies in [-30, 30] is read off the
    inverse's fitted table, with no distance evaluated; only draws
    beyond it run Newton steps. The draws are sorted once for the
    lookup: by the search, or by the inverse's table when they reach
    two of its forms.
    """
    _require_normalized(prior, "sampling")
    n = _count(n)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d = _quantile_distance(prior, rng.random(n))
    return prior.profile.inverse(np.clip(d, *prior.profile.domain))


def tail_probability(prior: PcPrior, tail: TailSpec) -> float:
    """P(Q(param) > U) under the prior's CDF."""
    kern, xi = _crossing(prior.family, tail.U)
    return _tail(kern, float(pc_cdf(prior, xi)))


def _tail_setup(prof: DistanceProfile, U):
    """Check U for the pair; return the family's record, d* = d(xi_U) at
    the crossing Q = U, and the open interval of attainable alpha."""
    kern, xi = _crossing(prof.family, U)
    d_star = float(prof.dist(xi))
    if xi <= prof.support_lo:
        return kern, d_star, (0.0, 0.0)  # tail event has probability 0 for every lambda
    ratio = d_star / prof.d_max  # 0 when d is unbounded
    if kern.q_increasing == (prof.direction is Direction.DECREASING):
        return kern, d_star, (ratio, 1.0)
    return kern, d_star, (0.0, 1.0 - ratio)


def attainable_alpha_range(family, base, U):
    """Open interval of alpha reachable by some lambda > 0 (truncated CDF).

    The tail probability is monotone in lambda; the interval endpoints
    are its lambda -> 0 and lambda -> infinity limits and are not
    attained. As lambda grows the prior piles up at d = 0: when the
    tail side contains d = 0 (Q and d run in opposite directions) alpha
    rises from d*/d_max toward 1, otherwise it falls from 1 - d*/d_max
    toward 0, where d* is the distance at the crossing Q = U.
    """
    return _tail_setup(profile_for(family, base), U)[2]


def _check_feasible(prof: DistanceProfile, tail: TailSpec, attainable):
    lo, hi = attainable
    if not lo < tail.alpha < hi:
        raise InfeasibleTailError(
            f"alpha={tail.alpha:g} is not attainable for "
            f"{prof.family.value}/{prof.base.value} at U={tail.U:g}; "
            f"attainable alpha range is ({lo:.12g}, {hi:.12g})",
            attainable,
        )


def calibrate_lambda(family, base, tail: TailSpec) -> float:
    """lambda such that P(Q(param) > U) = alpha under the truncated CDF.

    Solved by bracketing root search on lambda (see ``_rate_root``).
    The pair, U and alpha are checked once; each step evaluates the CDF
    at d* = d(xi_U).
    """
    prof = profile_for(family, base)
    kern, d_star, attainable = _tail_setup(prof, tail.U)
    _check_feasible(prof, tail, attainable)

    def residual(lam):
        return _tail(kern, float(_cdf(lam, d_star, prof, True))) - tail.alpha

    return _rate_root(residual, tail, attainable)


def _rate_root(f, tail: TailSpec, attainable) -> float:
    """The lambda where ``f`` changes sign, by ``_brent`` at xtol 1e-300
    and rtol 1e-12.

    The bracket starts at _BRACKET, and each end moves out by _WIDEN per
    step until it holds the root or lambda nears 1e-300. The solve
    reuses the last step's values at both ends.
    """
    lo, hi = _BRACKET
    f_lo, f_hi = f(lo), f(hi)
    while f_lo * f_hi > 0.0:
        if lo < 1e-296:
            raise InfeasibleTailError(
                f"no lambda in [{lo:g}, {hi:g}] achieves alpha={tail.alpha:g}", attainable
            )
        lo, hi = lo / _WIDEN, hi * _WIDEN
        f_lo, f_hi = f(lo), f(hi)
    return _brent(f, lo, hi, f_lo, f_hi, 1e-300, 1e-12)


def _brent(f, a, b, fa, fb, xtol, rtol):
    """A root of f in [a, b], given fa = f(a) and fb = f(b) of opposite
    signs: Brent's method (Brent 1973, *Algorithms for Minimization
    Without Derivatives*, ch. 4).

    It makes the float operations of scipy.optimize.brentq in the same
    order, so it returns brentq's bits, and keeps its contract: an end
    whose value is 0 is the root; a nan value raises ValueError, and so
    do ends of one sign; no convergence within _BRENT_STEPS steps raises
    RuntimeError. It stops once half the bracket is below
    (xtol + rtol |x|) / 2.
    """
    if fa != fa or fb != fb:
        raise ValueError("the function value is nan; the root solve cannot continue")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    # the current point, the previous one and the bracket's other end
    x_pre, x_cur, f_pre, f_cur = a, b, fa, fb
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_BRENT_STEPS):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (xtol + rtol * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0.0 else -delta)
        f_cur = f(x_cur)
        if f_cur != f_cur:
            raise ValueError("the function value is nan; the root solve cannot continue")
    raise RuntimeError(f"the root solve did not converge in {_BRENT_STEPS} steps")


def calibrate_lambda_paper(family, base, tail: TailSpec) -> float:
    """Literature closed forms for lambda, exposed for cross-checking.

    Four pairs print lambda = -log(1 - alpha) / d(xi_U), with xi_U the
    parameter where Q crosses U; the printed wrapped Cauchy radicand
    -log(U/pi - U^2/(4 pi^2)) is d(rho_U)^2 written out.  vm/uniform and
    wc/uniform agree with the truncated-CDF calibration, cardioid/curve
    matches the printed (unnormalized) CDF 1 - exp(-lambda*d) instead,
    and vm/pointmass is returned as published even though it is
    consistent with neither CDF: the printed CDF F = exp(-lambda*d)
    would give -log(alpha)/d.  cardioid/uniform solves its printed
    equation, which has lambda on both sides, by the same bracketing
    root search as ``calibrate_lambda``.  Prefer ``calibrate_lambda``.
    """
    prof = profile_for(family, base)
    _, d_star, attainable = _tail_setup(prof, tail.U)
    if not prof.paper_unnormalized:
        _check_feasible(prof, tail, attainable)
    alpha = tail.alpha
    lam = -math.log1p(-alpha) / d_star
    if prof.paper_unnormalized or math.isinf(prof.d_max):
        return lam

    d_max = prof.d_max

    def residual(lam):
        return lam + math.log(alpha + (1.0 - alpha) * math.exp(-lam * d_max)) / d_star

    return _rate_root(residual, tail, attainable)

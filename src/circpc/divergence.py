"""Kullback-Leibler divergences and distance functions to base models.

For each supported (family, base model) pair this module provides the
closed-form KLD, the distance d(xi) = sqrt(KLD), its derivative, and
the inverse map d -> xi. A trapezoid quadrature KLD doubles as the
oracle for the closed forms.

The algebra is arranged to stay accurate at both ends of every
parameter range: near the base model the raw formulas subtract nearly
equal quantities, so series or rearranged forms take over there.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .distributions import TWO_PI, Family, pdf
from .special import (
    _RATIO_TAIL_SWITCH,
    _log_i0,
    _one_minus_ratio,
    _ratio,
    _ratio_deriv,
    _ratio_deriv_tail_x2,
)

__all__ = [
    "BaseModel",
    "DistanceProfile",
    "Direction",
    "profile_for",
    "supported_pairs",
    "kld_vm",
    "kld_cardioid",
    "kld_wc",
    "kld_numeric",
    "distance",
    "distance_deriv",
    "inverse_distance",
]

# von Mises uniform-base radicand: series below, asymptotic above
_VM_RADICAND_SMALL = 2.0e-2
_VM_RADICAND_LARGE = 1.0e4
# cardioid log1p(s) - s + s^2/2 switches to its power series below this s
_CARD_L3_SERIES = 0.3

SQRT_LOG2 = float(np.sqrt(np.log(2.0)))
SQRT_1M_LOG2 = float(np.sqrt(1.0 - np.log(2.0)))


class BaseModel(str, Enum):
    UNIFORM = "uniform"
    POINT_MASS = "pointmass"
    CARDIOID_CURVE = "curve"


class Direction(str, Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


@dataclass(frozen=True)
class DistanceProfile:
    """The monotone map between a concentration parameter and its distance.

    Beyond the seven public fields, each record carries its pair's
    unchecked array kernels (the public functions below check inputs
    once, then call them) and two facts about the pair's PC prior.
    """

    family: Family
    base: BaseModel
    d_min: float
    d_max: float
    direction: Direction
    support_lo: float
    support_hi: float
    dist: Callable = field(repr=False, compare=False)       # param -> d
    deriv: Callable = field(repr=False, compare=False)      # (param, d) -> |d'|
    inverse: Callable = field(repr=False, compare=False)    # d (1-d array) -> param
    # largest invertible parameter, for the pairs whose d is unbounded
    max_param: Optional[float] = field(default=None, repr=False, compare=False)
    # the printed closed-form prior omits the truncation normalizer
    paper_unnormalized: bool = field(default=False, repr=False, compare=False)


def supported_pairs():
    return tuple(_PROFILES)


def profile_for(family, base):
    """Distance profile for a (family, base model) pair."""
    key = (Family(family), BaseModel(base))
    try:
        return _PROFILES[key]
    except KeyError:
        raise ValueError(
            f"unsupported (family, base) pair: ({key[0].value}, {key[1].value})"
        ) from None


def _checked_param(profile, param):
    arr = np.asarray(param, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("parameter must be finite")
    if not np.all((arr >= profile.support_lo) & (arr < profile.support_hi)):
        raise ValueError(
            f"parameter outside the {profile.family.value} support "
            f"[{profile.support_lo}, {profile.support_hi})"
        )
    return arr


# ---------------------------------------------------------------------------
# closed-form KLDs


def kld_vm(kappa, kappa0):
    """KLD of von Mises(kappa) from von Mises(kappa0), same location.

    log I0(k0) - log I0(k) + (k - k0) I1(k)/I0(k), clamped below at 0.
    """
    k = np.asarray(kappa, dtype=float)
    k0 = np.asarray(kappa0, dtype=float)
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(k0))):
        raise ValueError("kappa and kappa0 must be finite")
    if np.any(k < 0.0) or np.any(k0 < 0.0):
        raise ValueError("kappa and kappa0 must be nonnegative")
    out = np.maximum(_log_i0(k0) - _log_i0(k) + (k - k0) * _ratio(k), 0.0)
    return float(out) if np.ndim(kappa) == 0 and np.ndim(kappa0) == 0 else out


def _half_sqrt_terms(ell):
    # s = sqrt(1 - 4 ell^2) without cancellation: (1-2l)(1+2l) = 2 eps (1+2l)
    eps = 0.5 - ell
    return np.sqrt(2.0 * eps * (1.0 + 2.0 * ell)), eps


def kld_cardioid(ell, ell0):
    """KLD of cardioid(ell) from cardioid(ell0), same location.

    ell0 = 0 is rejected: the divergence against the exact uniform is
    the squared uniform-base distance instead.
    """
    l = np.asarray(ell, dtype=float)
    l0 = np.asarray(ell0, dtype=float)
    if np.any(l0 == 0.0):
        raise ValueError("ell0 must be positive; use the uniform-base distance for ell0 = 0")
    if np.any((l < 0.0) | (l >= 0.5)) or np.any((l0 < 0.0) | (l0 >= 0.5)):
        raise ValueError("ell must lie in [0, 0.5) and ell0 in (0, 0.5)")
    s, _ = _half_sqrt_terms(l)
    s0, _ = _half_sqrt_terms(l0)
    # 1 - s = 4 l^2 / (1 + s) keeps the small-ell cancellation out
    term = 4.0 * l * (l / (1.0 + s) - l0 / (1.0 + s0))
    out = np.maximum(term + np.log((1.0 + s) / (1.0 + s0)), 0.0)
    return float(out) if np.ndim(ell) == 0 and np.ndim(ell0) == 0 else out


def _log1m_rho_sq(rho):
    # log(1 - rho^2), stable across [0, 1)
    out = np.where(
        rho <= 0.5,
        np.log1p(-np.minimum(rho, 0.5) ** 2),
        np.log(np.maximum((1.0 - rho) * (1.0 + rho), np.finfo(float).tiny)),
    )
    return out


def kld_wc(rho):
    """KLD of wrapped Cauchy(rho) from the circular uniform: -log(1 - rho^2)."""
    r = np.asarray(rho, dtype=float)
    if np.any((r < 0.0) | (r >= 1.0)):
        raise ValueError("rho must lie in [0, 1)")
    out = -_log1m_rho_sq(r)
    return float(out) if np.ndim(rho) == 0 else out


def kld_numeric(p_spec, q_spec, nodes=20001):
    """Trapezoid quadrature of the KLD between two circular densities.

    The integrand p log(p/q) is periodic, so the trapezoid rule
    converges spectrally. Serves as the oracle for the closed forms.
    """
    xs = np.linspace(0.0, TWO_PI, int(nodes))
    p = pdf(p_spec, xs)
    q = pdf(q_spec, xs)
    if np.any(q <= 0.0):
        raise ValueError("q vanishes on the grid; KLD is not integrable")
    integrand = np.where(p > 0.0, p * (np.log(np.where(p > 0.0, p, 1.0)) - np.log(q)), 0.0)
    return float(np.trapezoid(integrand, xs))


# ---------------------------------------------------------------------------
# distance kernels, one set per (family, base) pair; arguments are float
# arrays already checked against the support or the distance range


def _vm_uniform_radicand(k):
    out = np.empty_like(k)
    small = k < _VM_RADICAND_SMALL
    large = k >= _VM_RADICAND_LARGE
    mid = ~small & ~large
    q = 0.25 * k[small] ** 2
    out[small] = q * (1.0 - 0.75 * q + (5.0 / 9.0) * q * q)
    km = k[mid]
    out[mid] = km * _ratio(km) - _log_i0(km)
    kl = k[large]
    inv = 1.0 / kl
    out[large] = (
        0.5 * (np.log(TWO_PI) + np.log(kl))
        - 0.5
        - inv * (0.25 + inv * (3.0 / 16.0 + inv * (25.0 / 96.0)))
    )
    return out


def _vm_uniform_radicand_deriv(k):
    # d/dk [k r(k) - log I0(k)] = k r'(k); fold the k into the series for
    # large k so the product does not underflow before the multiply
    out = np.empty_like(k)
    head = k < _RATIO_TAIL_SWITCH
    out[head] = k[head] * _ratio_deriv(k[head])
    kt = k[~head]
    out[~head] = _ratio_deriv_tail_x2(kt) / kt
    return out


def _card_l3(s):
    # log1p(s) - s + s^2/2 = s^3/3 - s^4/4 + ..., computed by series
    # below s = 0.3 where the direct form cancels
    out = np.empty_like(s)
    direct = s >= _CARD_L3_SERIES
    sd = s[direct]
    out[direct] = np.log1p(sd) - sd + 0.5 * sd * sd
    ss = s[~direct]
    acc = np.zeros_like(ss)
    term = ss * ss * ss
    sign = 1.0
    for k in range(3, 40):
        acc += sign * term / k
        term = term * ss
        sign = -sign
        if np.all(term < 1.0e-20):
            break
    out[~direct] = acc
    return out


def _bisect_increasing(fn, lo, hi, target, iters):
    lo = np.broadcast_to(np.asarray(lo, float), target.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, float), target.shape).copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = fn(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# bisection window in log kappa; its top is the largest invertible kappa
_LOG_KAPPA_LO = -700.0
_LOG_KAPPA_HI = 709.0
_KAPPA_MAX = math.exp(_LOG_KAPPA_HI)
_ELL_MAX = float(np.nextafter(0.5, 0.0))
_RHO_MAX = float(np.nextafter(1.0, 0.0))


def _vm_uniform_d(k):
    return np.sqrt(np.maximum(_vm_uniform_radicand(k), 0.0))


def _vm_uniform_deriv(k, d):
    return np.where(k > 0.0, _vm_uniform_radicand_deriv(k) / np.where(d > 0.0, 2.0 * d, 1.0), 0.5)


def _vm_uniform_inverse(d):
    if np.any(d > _vm_uniform_d(np.asarray([_KAPPA_MAX]))[0]):
        raise ValueError("distance not attainable within floating-point kappa range")
    t = _bisect_increasing(
        lambda lt: _vm_uniform_d(np.exp(lt)), _LOG_KAPPA_LO, _LOG_KAPPA_HI, d, 90
    )
    return np.where(d == 0.0, 0.0, np.exp(t))


def _vm_pointmass_d(k):
    return np.sqrt(_one_minus_ratio(k))


def _vm_pointmass_deriv(k, d):
    return np.where(k > 0.0, _ratio_deriv(k) / (2.0 * d), 0.25)


def _vm_pointmass_inverse(d):
    if np.any(d == 0.0):
        raise ValueError("d = 0 is not attained for the point-mass base")
    # distance decreases in kappa; bisect on its negation
    t = _bisect_increasing(
        lambda lt: -_vm_pointmass_d(np.exp(lt)), _LOG_KAPPA_LO, _LOG_KAPPA_HI, -d, 90
    )
    return np.where(d == 1.0, 0.0, np.exp(t))


def _card_uniform_d(l):
    s, _ = _half_sqrt_terms(l)
    u = 4.0 * l * l / (1.0 + s)
    return np.sqrt(np.maximum(u + np.log1p(-0.5 * u), 0.0))


def _card_uniform_deriv(l, d):
    s, _ = _half_sqrt_terms(l)
    return np.where(l > 0.0, 2.0 * l / ((1.0 + s) * np.where(d > 0.0, d, 1.0)), 1.0)


def _card_uniform_inverse(d):
    if np.any(d >= SQRT_1M_LOG2):
        raise ValueError("d_max is approached only as ell -> 0.5; not attained")
    ell = _bisect_increasing(_card_uniform_d, 0.0, _ELL_MAX, d, 80)
    return np.where(d == 0.0, 0.0, ell)


def _card_curve_d(l):
    s, eps = _half_sqrt_terms(l)
    return np.sqrt(np.maximum(2.0 * eps * eps + _card_l3(s), 0.0))


def _card_curve_deriv(l, d):
    s, eps = _half_sqrt_terms(l)
    return (s + 2.0 * eps) / ((1.0 + s) * d)


def _card_curve_inverse(d):
    # decreasing; d = 0 reports the open boundary just below 0.5
    ell = _bisect_increasing(lambda m: -_card_curve_d(m), 0.0, _ELL_MAX, -d, 80)
    return np.where(d == 0.0, _ELL_MAX, np.where(d == SQRT_LOG2, 0.0, ell))


def _wc_d(rho):
    return np.sqrt(-_log1m_rho_sq(rho))


def _wc_deriv(rho, d):
    one_m = (1.0 - rho) * (1.0 + rho)
    return np.where(rho > 0.0, rho / (one_m * np.where(d > 0.0, d, 1.0)), 1.0)


def _wc_inverse(d):
    # closed form; saturates at the largest rho below 1
    return np.minimum(np.sqrt(-np.expm1(-d * d)), _RHO_MAX)


_PROFILES = {
    (Family.VON_MISES, BaseModel.UNIFORM): DistanceProfile(
        Family.VON_MISES, BaseModel.UNIFORM, 0.0, np.inf, Direction.INCREASING, 0.0, np.inf,
        _vm_uniform_d, _vm_uniform_deriv, _vm_uniform_inverse, max_param=_KAPPA_MAX,
    ),
    (Family.VON_MISES, BaseModel.POINT_MASS): DistanceProfile(
        Family.VON_MISES, BaseModel.POINT_MASS, 0.0, 1.0, Direction.DECREASING, 0.0, np.inf,
        _vm_pointmass_d, _vm_pointmass_deriv, _vm_pointmass_inverse, paper_unnormalized=True,
    ),
    (Family.CARDIOID, BaseModel.UNIFORM): DistanceProfile(
        Family.CARDIOID, BaseModel.UNIFORM, 0.0, SQRT_1M_LOG2, Direction.INCREASING, 0.0, 0.5,
        _card_uniform_d, _card_uniform_deriv, _card_uniform_inverse,
    ),
    (Family.CARDIOID, BaseModel.CARDIOID_CURVE): DistanceProfile(
        Family.CARDIOID, BaseModel.CARDIOID_CURVE, 0.0, SQRT_LOG2, Direction.DECREASING, 0.0, 0.5,
        _card_curve_d, _card_curve_deriv, _card_curve_inverse, paper_unnormalized=True,
    ),
    (Family.WRAPPED_CAUCHY, BaseModel.UNIFORM): DistanceProfile(
        Family.WRAPPED_CAUCHY, BaseModel.UNIFORM, 0.0, np.inf, Direction.INCREASING, 0.0, 1.0,
        _wc_d, _wc_deriv, _wc_inverse, max_param=_RHO_MAX,
    ),
}


# ---------------------------------------------------------------------------
# public distance functions: check the input once, then call the kernels


def distance(profile, param):
    """Distance d(param) = sqrt(KLD against the profile's base model)."""
    out = profile.dist(_checked_param(profile, param))
    return float(out) if np.ndim(param) == 0 else out


def distance_deriv(profile, param):
    """|d d(param) / d param|, with exact limits at the support edge."""
    arr = _checked_param(profile, param)
    out = profile.deriv(arr, profile.dist(arr))
    return float(out) if np.ndim(param) == 0 else out


def inverse_distance(profile, d):
    """The parameter whose distance equals ``d``.

    Vectorized. Wrapped Cauchy inverts in closed form; the others
    bisect the monotone distance map (in log kappa for von Mises).
    Distances outside the attainable range raise; for the cardioid
    curve base, d = 0 reports the open boundary just below 0.5.
    """
    arr = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("distance must be finite")
    if np.any(arr < profile.d_min) or np.any(arr > profile.d_max):
        raise ValueError(
            f"distance outside [{profile.d_min}, {profile.d_max}] for this profile"
        )
    out = profile.inverse(np.atleast_1d(arr))
    return float(out[0]) if np.ndim(d) == 0 else out.reshape(arr.shape)

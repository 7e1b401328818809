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
from scipy.special import expit

from .distributions import _LOG_KAPPA_TOP, _LOG_TWO_PI, FAMILIES, TWO_PI, Family, pdf
from .special import (
    _RATIO_TAIL_SWITCH,
    _TINY,
    _checked,
    _evaluate,
    _log_i0,
    _one_minus_ratio_tail,
    _piecewise_table,
    _ratio,
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
# below this parameter the distances to the uniform are linear to double
# precision (d = kappa/2, ell, rho) and their squared forms would fall
# into the subnormals; the same cut, as a distance, for the wc inverse
_LINEAR_CUT = 1.0e-150

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
    """The monotone map between a concentration parameter and its
    distance: the whole description of one (family, base) pair.

    The five public fields are the pair, the distance's supremum
    ``d_max``, the ``direction`` d runs in as the parameter grows (d
    starts at 0) and ``domain = (lo, hi)``, the closed interval of
    distances the pair's ``inverse`` is defined on: the distances some
    float parameter has, or for the wrapped Cauchy, whose closed form
    saturates, every finite one. ``support_lo`` and ``support_hi`` are
    the family's support, ``FAMILIES[family].support``. Each record also
    carries its pair's two unchecked kernels (the public functions below
    check inputs once, then call them) and two facts about the pair's
    PC prior:

    - ``dist_deriv(param) -> (d, |d'|)``: the distance and the magnitude
      of its slope, from one evaluation of each Bessel function per
      element, as a ``special._piecewise_table``; ``dist`` is its first
      value;
    - ``inverse(d) -> param``: a ``special._piecewise_table`` over a 1-d
      array of distances in ``domain``, with a form for each end the
      pair's ``_Search`` does not reach, one for vm/uniform's ``d_top``
      (the search would run on a subnormal 1/kappa there), and the
      search between them (the wrapped Cauchy's closed form needs none);
    - ``d_top``: on the pairs whose d is unbounded, the largest distance
      a float parameter has: vm/uniform's ``domain[1]``, and the wrapped
      Cauchy's d(largest rho below 1), past which its closed inverse
      saturates; None elsewhere;
    - ``paper_unnormalized``: the printed closed-form prior omits the
      truncation normalizer.

    ``==`` and ``hash`` take in both kernels: equal profiles compute one map.
    """

    family: Family
    base: BaseModel
    d_max: float
    direction: Direction
    domain: tuple
    dist_deriv: Callable = field(repr=False)
    inverse: Callable = field(repr=False)
    d_top: Optional[float] = field(default=None, repr=False, compare=False)
    paper_unnormalized: bool = field(default=False, repr=False, compare=False)

    support_lo = property(lambda self: FAMILIES[self.family].support[0])
    support_hi = property(lambda self: FAMILIES[self.family].support[1])

    def dist(self, param):
        """d alone: the first value of ``dist_deriv``."""
        return self.dist_deriv(param)[0]

    def __reduce__(self):
        # a profile is its pair's entry in _PROFILES, so it pickles by
        # reference and its kernels need not pickle
        return profile_for, (self.family, self.base)


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


# ---------------------------------------------------------------------------
# closed-form KLDs


def kld_vm(kappa, kappa0):
    """KLD of von Mises(kappa) from von Mises(kappa0), same location.

    log I0(k0) - log I0(k) + (k - k0) I1(k)/I0(k), clamped below at 0.
    """
    k = _checked(kappa, what="kappa")
    k0 = _checked(kappa0, what="kappa0")
    out = np.maximum(_log_i0(k0) - _log_i0(k) + (k - k0) * _ratio(k), 0.0)
    return float(out) if isinstance(k, float) and isinstance(k0, float) else out


def _half_sqrt_terms(ns, ell):
    # s = sqrt(1 - 4 ell^2) without cancellation: (1-2l)(1+2l) = 2 eps (1+2l)
    eps = 0.5 - ell
    return ns.sqrt(2.0 * eps * (1.0 + 2.0 * ell)), eps


def kld_cardioid(ell, ell0):
    """KLD of cardioid(ell) from cardioid(ell0), same location.

    ell0 = 0 is rejected: the divergence against the exact uniform is
    the squared uniform-base distance instead.
    """
    l = _checked(ell, 0.0, 0.5, "ell")
    l0 = _checked(ell0, 0.0, 0.5, "ell0")
    if np.any(l0 == 0.0):
        raise ValueError("ell0 must be positive; use the uniform-base distance for ell0 = 0")
    s, _ = _half_sqrt_terms(np, l)
    s0, _ = _half_sqrt_terms(np, l0)
    # 1 - s = 4 l^2 / (1 + s) keeps the small-ell cancellation out
    term = 4.0 * l * (l / (1.0 + s) - l0 / (1.0 + s0))
    out = np.maximum(term + np.log((1.0 + s) / (1.0 + s0)), 0.0)
    return float(out) if isinstance(l, float) and isinstance(l0, float) else out


# log(1 - rho^2), stable across [0, 1); log1p takes rho <= 0.5
_log1m_rho_sq = _piecewise_table(
    (float(np.nextafter(0.5, 1.0)),),
    (lambda ns, r: ns.log1p(-(r * r)), lambda ns, r: ns.log((1.0 - r) * (1.0 + r))),
)


def kld_wc(rho):
    """KLD of wrapped Cauchy(rho) from the circular uniform: -log(1 - rho^2)."""
    return _evaluate(lambda r: -_log1m_rho_sq(r), rho, 0.0, 1.0, "rho")


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
# distance kernels, one set per (family, base) pair. ``dist_deriv``
# takes floats, numpy scalars or float arrays already checked against the
# support and returns (d, |d'|); a kernel with several forms is a table
# for special._piecewise whose forms each return both values, so an
# element evaluates each Bessel function once, in the one form that holds
# it. The von Mises kernels also take the (exp(-k) I0(k), its log) pass
# that a concentration step's likelihood has made for the same float k,
# so that step evaluates i0e and its log once. ``inverse`` takes a 1-d
# array already checked against the profile's ``domain``.


def _same(ns, x):
    return x


def _ell_max(ns, d):
    return _ELL_MAX


# log1p(s) - s + s^2/2 = sum_{j>=3} (-1)^(j+1) s^j / j; Horner coefficients
# of s^3 * (1/3 - s/4 + ... - s^27/30), highest power first. 28 terms are
# good to 5e-16 relative on [0, _CARD_L3_SERIES), for every element alone.
_CARD_L3_COEFS = tuple((1.0 if j % 2 else -1.0) / j for j in range(30, 2, -1))


def _card_l3_series(ns, s):
    p = 0.0
    for c in _CARD_L3_COEFS:
        p = c + s * p
    return s * s * s * p


# the direct form cancels below _CARD_L3_SERIES; a fixed series there
_card_l3 = _piecewise_table(
    (_CARD_L3_SERIES,), (_card_l3_series, lambda ns, s: ns.log1p(s) - s + 0.5 * s * s)
)


# Newton window in log kappa; its top, the sampler's cap, is the largest
# invertible kappa
_LOG_KAPPA_LO = -700.0
_KAPPA_MAX = math.exp(_LOG_KAPPA_TOP)
_ELL_MAX = float(np.nextafter(0.5, 0.0))
_RHO_MAX = float(np.nextafter(1.0, 0.0))

# A Newton step this small (in log kappa or logit(2 ell)) is taken and
# ends the search: the error left after it is ~ its square. Steps of the
# d-noise (~1e-12 in d) stay far below it, so the noise cannot stall the
# search; a bracket this narrow ends it too.
_NEWTON_TOL = 2.0 ** -26
# bisections alone end the widest window (log kappa, 1409 wide) in 37
# steps; the cap only bounds inputs whose d is not smooth in floats
_NEWTON_MAX_STEPS = 100
# elements per block of _solve_increasing
_NEWTON_BLOCK = 4096
# the nodes of every start table, in the solver's coordinate t (log kappa
# or logit(2 ell)): [-30, 30] in steps of 1/32. Beyond |t| = 30 the small-
# and large-parameter series start each element to ~1e-13 or better
_TABLE_T = np.arange(-960, 961) / 32.0


# The coordinates t a search solves in, each as (the parameter at t,
# the slope in t from the parameter and the kernel's slope, the Newton
# window). The von Mises kernels give the slope in t = log kappa
# themselves, kappa |d'|, as the point mass's |d'| alone underflows past
# kappa ~ 1e162. The window in t = logit(2 ell) = log(ell / (0.5 - ell))
# runs from the smallest positive ell to _ELL_MAX.
_LOG_KAPPA = (np.exp, lambda k, slope: slope, _LOG_KAPPA_LO, _LOG_KAPPA_TOP)
_LOGIT_2ELL = (
    lambda t: np.minimum(0.5 * expit(t), _ELL_MAX),
    lambda ell, slope: 2.0 * ell * (0.5 - ell) * slope,
    math.log(_TINY),
    math.log(_ELL_MAX / (0.5 - _ELL_MAX)),
)


class _Search:
    """A pair's inverse between the ends it does not reach: as a form of
    the pair's inverse table, ``search(ns, d)`` is the parameter at d.

    ``kernel(x)`` gives d and its slope at the parameter x; the
    coordinate (_LOG_KAPPA or _LOGIT_2ELL) carries x to the solver's t
    and back. The solver inverts g(t) = sign * d, signed by the pair's
    ``direction`` so that g increases, and ``series(sign * d)`` starts
    the targets beyond the table. At import, g is evaluated once on
    _TABLE_T; a target inside the table's values starts from the
    cubic-Hermite inverse on its interval, from the values and slopes at
    both ends, and keeps the interval's two nodes as its bracket. The
    table keeps one column per interval, (v_j, 1/h_j, c1, c2, c3, t_j,
    t_j+1). The starts of a sorted run of targets search only the nodes
    between its first and last target, and repeat each interval's column
    over the targets it holds.
    """

    def __init__(self, kernel, coordinate, direction, series):
        self.kernel, self.series = kernel, series
        self.param, self.slope_in_t, self.lo, self.hi = coordinate
        self.sign = 1.0 if direction is Direction.INCREASING else -1.0
        v, s = self.g(_TABLE_T)
        if not (np.all(np.diff(v) > 0.0) and np.all(s > 0.0) and np.all(np.isfinite(s))):
            raise RuntimeError("a start table must increase strictly, with finite positive slopes")
        self.values = v
        # t = t_j + u (c1 + u (c2 + u c3)) with u = (target - v_j) / h_j:
        # the Hermite cubic through (v_j, t_j) and (v_j+1, t_j+1) whose
        # slopes are 1/s_j and 1/s_j+1
        h = np.diff(v)
        m0, m1, span = h / s[:-1], h / s[1:], np.diff(_TABLE_T)
        self._rows = np.array((
            v[:-1], 1.0 / h, m0, 3.0 * span - 2.0 * m0 - m1, m0 + m1 - 2.0 * span,
            _TABLE_T[:-1], _TABLE_T[1:],
        ))
        # each element's start and bracket (t, lo, hi), from its own target alone
        self.start = _piecewise_table((v[0], v[-1]), (self._beyond, self._inside, self._beyond))

    def __call__(self, ns, d):
        return self.param(_solve_increasing(self, self.sign * d))

    def g(self, t):
        """The signed distance at t and its slope in t."""
        x = self.param(t)
        d, slope = self.kernel(x)
        return self.sign * d, self.slope_in_t(x, slope)

    def _beyond(self, ns, target):
        return self.series(target), self.lo, self.hi

    def _inside(self, ns, target):
        # target is a sorted run (_solve_increasing sorts, and the start
        # table slices its runs), held by intervals first to last: node
        # first + i falls at edges[i] among the targets, so interval
        # first + i holds the targets from edges[i] up to edges[i + 1]
        values = self.values
        first = int(np.searchsorted(values, target[0], side="right")) - 1
        last = int(np.searchsorted(values, target[-1], side="right")) - 1
        edges = np.searchsorted(target, values[first : last + 2])
        v, inv_h, c1, c2, c3, t0, t1 = np.repeat(
            self._rows[:, first : last + 1], edges[1:] - edges[:-1], axis=1
        )
        u = (target - v) * inv_h
        return t0 + u * (c1 + u * (c2 + u * c3)), t0, t1


def _solve_increasing(search, target):
    """Safeguarded Newton for search.g(t) = target, from the search's starts.

    ``g(t)`` returns the value and the slope. Every element starts from
    its table interval, or from the series beyond the table, and keeps
    its own bracket; a Newton step that would leave it, or that does
    not halve the step before it, becomes a bisection. Each element
    stops on its own, so its bits do not depend on the rest of the
    array. The targets are sorted once, solved in contiguous blocks of
    _NEWTON_BLOCK sorted keys, and the roots scattered back once: the
    order changes no bit, the blocks keep the temporaries of the
    kernels cache-sized, and on sorted keys the start table searches
    only the nodes a block spans and every kernel slices its forms'
    runs instead of gathering them.
    """
    order = np.argsort(target)
    keys = target[order]
    roots = np.empty_like(keys)
    for s in range(0, keys.size, _NEWTON_BLOCK):
        block = keys[s : s + _NEWTON_BLOCK]
        roots[s : s + _NEWTON_BLOCK] = _solve_block(search.g, block, *search.start(block))
    out = np.empty_like(target)
    out[order] = roots
    return out


def _solve_block(g, target, t, lo, hi):
    """The roots of g(t) = target for one block, from the starts ``t``
    and each element's bracket ``(lo, hi)``.

    A step evaluates g once on the live elements, then takes every
    element's Newton point t - f / slope in one array pass. The Newton
    test (the point strictly inside the bracket and at most half the last
    step away) picks out the rare elements whose point is not taken: one
    that fails it bisects its bracket, and an exact root, f = 0, keeps
    its t. Those are patched in by index, with the same comparisons as
    when every element picks its branch, so no decision or bit moves.
    ``out`` holds every element's latest point and ``idx`` the places of
    the live ones; a block whose elements all finish on the first step
    returns that step's points.
    """
    t = np.minimum(np.maximum(t, lo), hi)
    last = hi - lo
    idx = None
    for _ in range(_NEWTON_MAX_STEPS):
        val, slope = g(t)
        f = val - target
        lo = np.where(f < 0.0, t, lo)
        hi = np.where(f > 0.0, t, hi)
        # a zero slope never passes the test; the quotients of the elements
        # that fail it are replaced below, so their warnings are not raised
        newton = (
            ((t - hi) * slope < f)
            & (f < (t - lo) * slope)
            & (np.abs(2.0 * f) <= last * slope)
        )
        with np.errstate(all="ignore"):
            step = f / slope
            t_new = t - step
        done = np.abs(step) <= _NEWTON_TOL
        rare = np.flatnonzero(~newton | (f == 0.0))
        if rare.size:
            root = f[rare] == 0.0
            rare_lo, rare_hi = lo[rare], hi[rare]
            t_new[rare] = np.where(root, t[rare], 0.5 * (rare_lo + rare_hi))
            done[rare] = root | (rare_hi - rare_lo <= _NEWTON_TOL)
        if idx is None:
            out = t_new
        else:
            out[idx] = t_new
        if done.all():
            return out
        live = np.flatnonzero(~done)
        t_prev, t = t.take(live), t_new.take(live)
        last = np.abs(t - t_prev)
        lo, hi, target = lo.take(live), hi.take(live), target.take(live)
        idx = live if idx is None else idx.take(live)
    return out


def _logit_2ell(ell, eps):
    # t = log(ell / (0.5 - ell)) from ell and eps = 0.5 - ell, each > 0
    return np.log(np.maximum(ell, _TINY)) - np.log(np.maximum(eps, _TINY))


# |d'| = k r'(k) / (2d) for d = sqrt(k r(k) - log I0(k)); every form
# below returns (d, |d'|) and computes both in its own body. A form that
# uses the Bessel functions takes ``bessel``, the pair (exp(-k) I0(k), its
# log), from a caller that holds it (a von Mises concentration step) and
# evaluates only what it lacks, each through ns. Below _RATIO_TAIL_SWITCH
# r'(k) is u(2 - u) - r/k with u = 1 - r (special._ratio_deriv_head);
# above it, k r'(k) is the tail series x^2 r'(x) over k, the k folded into
# the series so the product does not underflow before the multiply.


def _vm_uniform_linear(ns, k, bessel=None):
    return 0.5 * k, 0.5


def _vm_uniform_small(ns, k, bessel=None):
    q = 0.25 * (k * k)
    d = ns.sqrt(q * (1.0 - 0.75 * q + (5.0 / 9.0) * q * q))
    r = ns.i1e(k) / (ns.i0e(k) if bessel is None else bessel[0])
    u = 1.0 - r
    return d, k * (u * (2.0 - u) - r / k) / (2.0 * d)


def _vm_uniform_mid(ns, k, bessel=None):
    if bessel is None:
        i0 = ns.i0e(k)
        log_i0 = ns.log(i0)
    else:
        i0, log_i0 = bessel
    r = ns.i1e(k) / i0
    u = 1.0 - r
    d = ns.sqrt(k * r - (log_i0 + k))
    return d, k * (u * (2.0 - u) - r / k) / (2.0 * d)


def _vm_uniform_upper(ns, k, bessel=None):
    if bessel is None:
        i0 = ns.i0e(k)
        log_i0 = ns.log(i0)
    else:
        i0, log_i0 = bessel
    d = ns.sqrt(k * (ns.i1e(k) / i0) - (log_i0 + k))
    return d, _ratio_deriv_tail_x2(k) / k / (2.0 * d)


def _vm_uniform_large(ns, k, bessel=None):
    inv = 1.0 / k
    d = ns.sqrt(
        0.5 * (_LOG_TWO_PI + ns.log(k))
        - 0.5
        - inv * (0.25 + inv * (3.0 / 16.0 + inv * (25.0 / 96.0)))
    )
    return d, _ratio_deriv_tail_x2(k) / k / (2.0 * d)


# d is linear below _LINEAR_CUT, then its series below _VM_RADICAND_SMALL,
# the direct form up to _VM_RADICAND_LARGE and the asymptotic series above;
# r' takes its tail series from _RATIO_TAIL_SWITCH up
_vm_uniform = _piecewise_table(
    (_LINEAR_CUT, _VM_RADICAND_SMALL, _RATIO_TAIL_SWITCH, _VM_RADICAND_LARGE),
    (
        _vm_uniform_linear,
        _vm_uniform_small,
        _vm_uniform_mid,
        _vm_uniform_upper,
        _vm_uniform_large,
    ),
)


def _vm_uniform_log_slope(k):
    d, slope = _vm_uniform(k)
    return d, k * slope


def _vm_uniform_series(d):
    # d^2 = q (1 - 3q/4 + ...) with q = kappa^2 / 4 below, and
    # d^2 = log(2 pi kappa) / 2 - 1/2 + ... above
    d2 = d * d
    return np.where(
        d < 1.0,
        np.log(2.0 * d) + 0.5 * np.log1p(0.75 * d2),
        2.0 * d2 + 1.0 - _LOG_TWO_PI,
    )


_VM_UNIFORM_SEARCH = _Search(
    _vm_uniform_log_slope, _LOG_KAPPA, Direction.INCREASING, _vm_uniform_series
)


# d = sqrt(1 - r(k)) and its slope: |d'| = r'(k) / (2d), or with
# log_slope the slope in log k, k r'(k) / (2d), which the inverse needs
# because |d'| itself underflows past k ~ 1e162. At k = 0, d = 1 and
# |d'| = r'(0) / 2 = 1/4.


def _vm_pointmass_zero(ns, k, bessel=None, log_slope=False):
    return 1.0, 0.0 if log_slope else 0.25


def _vm_pointmass_head(ns, k, bessel=None, log_slope=False):
    r = ns.i1e(k) / (ns.i0e(k) if bessel is None else bessel[0])
    u = 1.0 - r
    d = ns.sqrt(u)
    slope = u * (2.0 - u) - r / k
    return d, (k * slope if log_slope else slope) / (2.0 * d)


def _vm_pointmass_tail(ns, k, bessel=None, log_slope=False):
    d = ns.sqrt(_one_minus_ratio_tail(k))
    k_slope = _ratio_deriv_tail_x2(k) / k
    return d, (k_slope if log_slope else k_slope / k) / (2.0 * d)


_vm_pointmass = _piecewise_table(
    (_TINY, _RATIO_TAIL_SWITCH), (_vm_pointmass_zero, _vm_pointmass_head, _vm_pointmass_tail)
)


def _vm_pointmass_log_slope(k):
    return _vm_pointmass(k, (None, True))


def _vm_pointmass_series(target):
    # d^2 = 1 - r(kappa) for d = -target, with r ~ kappa/2 below and
    # 1 - r ~ 1/(2 kappa) above
    d = -target
    return np.where(
        d * d > 0.5,
        math.log(2.0) + np.log(np.maximum((1.0 - d) * (1.0 + d), _TINY)),
        -math.log(2.0) - 2.0 * np.log(d),
    )


_VM_POINTMASS_SEARCH = _Search(
    _vm_pointmass_log_slope, _LOG_KAPPA, Direction.DECREASING, _vm_pointmass_series
)


def _card_uniform_main(ns, l):
    s, _ = _half_sqrt_terms(ns, l)
    u = 4.0 * l * l / (1.0 + s)
    d = ns.sqrt(u + ns.log1p(-0.5 * u))
    return d, 2.0 * l / ((1.0 + s) * d)


_card_uniform = _piecewise_table((_LINEAR_CUT,), (lambda ns, l: (l, 1.0), _card_uniform_main))


def _card_uniform_series(d):
    # ell ~ d below; d^2 ~ d_max^2 - s^2/2 with s^2 = 1 - 4 ell^2 above
    s2 = np.minimum(2.0 * (SQRT_1M_LOG2 - d) * (SQRT_1M_LOG2 + d), 1.0)
    eps_top = 0.5 * s2 / (1.0 + np.sqrt(1.0 - s2))
    return np.where(
        d < 0.4,
        _logit_2ell(d, 0.5 - d),
        _logit_2ell(0.5 - eps_top, eps_top),
    )


_CARD_UNIFORM_SEARCH = _Search(
    _card_uniform, _LOGIT_2ELL, Direction.INCREASING, _card_uniform_series
)


def _card_curve_form(ns, l):
    s, eps = _half_sqrt_terms(ns, l)
    d = ns.sqrt(2.0 * eps * eps + _card_l3(s))
    return d, (s + 2.0 * eps) / ((1.0 + s) * d)


# one form over the whole support
_card_curve = _piecewise_table((), (_card_curve_form,))


def _card_curve_series(target):
    # d^2 ~ 8 eps^(3/2) / 3 near ell = 0.5, d ~ SQRT_LOG2 - ell / SQRT_LOG2
    # near ell = 0, for d = -target
    d = -target
    eps_top = np.cbrt(0.375 * d * d) ** 2
    ell_low = (SQRT_LOG2 - d) * SQRT_LOG2
    return np.where(
        d < 0.5,
        _logit_2ell(0.5 - eps_top, eps_top),
        _logit_2ell(ell_low, 0.5 - ell_low),
    )


_CARD_CURVE_SEARCH = _Search(
    _card_curve, _LOGIT_2ELL, Direction.DECREASING, _card_curve_series
)


def _wc_main(ns, rho):
    d = ns.sqrt(-_log1m_rho_sq(rho))
    return d, rho / ((1.0 - rho) * (1.0 + rho) * d)


_wc = _piecewise_table((_LINEAR_CUT,), (lambda ns, r: (r, 1.0), _wc_main))
# the unbounded pairs' largest attained distances: d(e^709), and the
# distance of the largest rho below 1, where the closed inverse
# saturates; it clamps d there before squaring it, which overflows from
# d ~ 1.3e154
_VM_UNIFORM_D_TOP = float(_vm_uniform(_KAPPA_MAX)[0])
_WC_D_TOP = float(_wc(_RHO_MAX)[0])


# Each pair's record. Every inverse is linear below d(_LINEAR_CUT); an
# open end of the support is reported as the largest float below it: at
# the cardioid's d_max, to which d(_ELL_MAX) rounds, and the curve's d = 0.
_PROFILES = {(p.family, p.base): p for p in (
    # no kappa up to _KAPPA_MAX reaches past d(_KAPPA_MAX); d_top itself
    # is _KAPPA_MAX without a search, where the large-kappa series would
    # run on a subnormal 1/kappa
    DistanceProfile(
        Family.VON_MISES, BaseModel.UNIFORM, np.inf, Direction.INCREASING,
        (0.0, _VM_UNIFORM_D_TOP), _vm_uniform,
        _piecewise_table(
            (0.5 * _LINEAR_CUT, _VM_UNIFORM_D_TOP),
            (lambda ns, d: 2.0 * d, _VM_UNIFORM_SEARCH, lambda ns, d: _KAPPA_MAX),
        ),
        d_top=_VM_UNIFORM_D_TOP,
    ),
    # d = 0 only as kappa -> inf, which no float kappa has; d = 1 at kappa = 0
    DistanceProfile(
        Family.VON_MISES, BaseModel.POINT_MASS, 1.0, Direction.DECREASING, (_TINY, 1.0),
        _vm_pointmass, _piecewise_table((1.0,), (_VM_POINTMASS_SEARCH, lambda ns, d: 0.0)),
        paper_unnormalized=True,
    ),
    DistanceProfile(
        Family.CARDIOID, BaseModel.UNIFORM, SQRT_1M_LOG2, Direction.INCREASING,
        (0.0, SQRT_1M_LOG2), _card_uniform,
        _piecewise_table((_LINEAR_CUT, SQRT_1M_LOG2), (_same, _CARD_UNIFORM_SEARCH, _ell_max)),
    ),
    DistanceProfile(
        Family.CARDIOID, BaseModel.CARDIOID_CURVE, SQRT_LOG2, Direction.DECREASING,
        (0.0, SQRT_LOG2), _card_curve,
        _piecewise_table((_TINY, SQRT_LOG2), (_ell_max, _CARD_CURVE_SEARCH, lambda ns, d: 0.0)),
        paper_unnormalized=True,
    ),
    DistanceProfile(
        Family.WRAPPED_CAUCHY, BaseModel.UNIFORM, np.inf, Direction.INCREASING,
        (0.0, np.inf), _wc,
        _piecewise_table((_LINEAR_CUT,), (_same, lambda ns, d: np.minimum(
            np.sqrt(-np.expm1(-np.minimum(d, _WC_D_TOP) ** 2)), _RHO_MAX))),
        d_top=_WC_D_TOP,
    ),
)}


# ---------------------------------------------------------------------------
# public distance functions: check the input once, then call the kernels


def distance(profile, param):
    """Distance d(param) = sqrt(KLD against the profile's base model)."""
    return _evaluate(profile.dist, param, profile.support_lo, profile.support_hi, "parameter")


def distance_deriv(profile, param):
    """|d d(param) / d param|, with exact limits at the support edge."""
    return _evaluate(
        lambda x: profile.dist_deriv(x)[1], param, profile.support_lo, profile.support_hi, "parameter"
    )


def _checked_distance(profile, d):
    """``d`` checked as a distance of the pair: finite, in [0, d_max]
    (d_max itself is attained, or reported as the open end, so the top is
    closed) and inside the profile's ``domain``, else ValueError. The
    domain is one interval, so d's least and greatest elements decide.
    Returns ``_checked``'s Python float or float array; nothing is
    inverted.
    """
    x = _checked(d, 0.0, math.nextafter(profile.d_max, math.inf), "distance")
    if np.size(x):
        lo, hi = profile.domain
        least, greatest = (x, x) if isinstance(x, float) else (x.min(), x.max())
        if least < lo or greatest > hi:
            raise ValueError("distance not attained by any floating-point parameter")
    return x


def inverse_distance(profile, d):
    """The parameter whose distance equals ``d``.

    Vectorized, through the pair's inverse table. Wrapped Cauchy inverts
    in closed form; the others run safeguarded Newton on the monotone
    distance map, in log kappa for von Mises and in logit(2 ell) for the
    cardioid. Each element starts from a table of the map built at
    import (nodes 1/32 apart in that coordinate, from -30 to 30), inside
    the bracket of its two nodes; distances beyond the table start from
    the small- and large-parameter series. Every element gets the bits
    of its scalar call, whatever the input's shape.
    Distances outside [0, d_max] raise, and so do those outside the
    profile's ``domain``, which no float parameter has: d = 0 for the
    point-mass base and, for the von Mises uniform base, d beyond
    d(e^709). The wrapped Cauchy saturates at the largest rho below 1.
    For the cardioid curve base, d = 0 reports the open boundary just
    below 0.5.
    """
    x = _checked_distance(profile, d)
    # the kernels solve a 1-d array; the result takes the input's shape once
    out = profile.inverse(np.ravel(x))
    return float(out[0]) if isinstance(x, float) else out.reshape(x.shape)

"""Modified Bessel functions of the first kind and related quantities.

Only what the von Mises formulas need: I_a(x) for a in {0, 1, 2}, an
overflow-free log I_0, and the ratio I_1/I_0 that stays stable for
large arguments.
"""

import numpy as np
from scipy import special as _sp

__all__ = ["bessel_i", "log_bessel_i0", "bessel_ratio", "bessel_ratio_deriv"]

# switch to the asymptotic series for 1 - I1/I0 and its derivative; at
# the switch the derivative's series is good to ~4e-12 relative and its
# direct form, which cancels, to ~1e-9 (see tests)
_RATIO_TAIL_SWITCH = 1.0e3


def _validated(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("argument must be finite")
    if np.any(arr < 0.0):
        raise ValueError("argument must be nonnegative")
    return arr


def _maybe_scalar(x, out):
    return float(out) if np.ndim(x) == 0 else out


# Unchecked kernels: arguments are floats, numpy scalars or float arrays,
# already known to be finite and nonnegative. The public functions below
# check once and call these; so do the distance kernels inside the
# sampler. Each kernel is one branch-free path: every branch is evaluated
# everywhere, on its argument clamped wherever the branch would otherwise
# overflow or divide by zero, and np.where keeps the right one.

# smallest positive float: clamps 0 out of a division without moving any
# positive argument
_TINY = 5e-324


def _log_i0(arr):
    return np.log(_sp.i0e(arr)) + arr


def _ratio(arr):
    return _sp.i1e(arr) / _sp.i0e(arr)


def _one_minus_ratio(x):
    head = 1.0 - _ratio(x)
    inv = 1.0 / np.maximum(x, _RATIO_TAIL_SWITCH)
    tail = inv * (0.5 + inv * (0.125 + inv * (0.125 + inv * (25.0 / 128.0))))
    return np.where(x < _RATIO_TAIL_SWITCH, head, tail)


def _ratio_deriv_tail_x2(x):
    """x^2 r'(x) for x >= _RATIO_TAIL_SWITCH: 1/2 + 1/(4x) + 3/(8x^2) + 25/(32x^3)."""
    inv = 1.0 / x
    return 0.5 + inv * (0.25 + inv * (0.375 + inv * (25.0 / 32.0)))


def _ratio_deriv_head(x):
    """r'(x) = u(2 - u) - r/x with u = 1 - r, for 0 < x < _RATIO_TAIL_SWITCH.

    Finite (never raising) for every x > 0, so it needs no upper clamp.
    """
    r = _ratio(x)
    u = 1.0 - r
    return u * (2.0 - u) - r / x


def _ratio_deriv(x):
    head = _ratio_deriv_head(np.maximum(x, _TINY))
    xt = np.maximum(x, _RATIO_TAIL_SWITCH)
    # two divisions, not a square: keeps gradual underflow honest at huge x
    tail = _ratio_deriv_tail_x2(xt) / xt / xt
    return np.where(x < _RATIO_TAIL_SWITCH, np.where(x > 0.0, head, 0.5), tail)


def bessel_i(order, x, scaled=False):
    """Modified Bessel function of the first kind, order 0, 1 or 2.

    Parameters
    ----------
    order : int
        One of 0, 1, 2.
    x : float or array_like
        Nonnegative, finite argument.
    scaled : bool
        If True, return exp(-x) * I_order(x). The scaled form never
        overflows; the unscaled one overflows to inf near x = 713.

    Returns
    -------
    float or ndarray
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    arr = _validated(x)
    if order == 0:
        val = _sp.i0e(arr)
    elif order == 1:
        val = _sp.i1e(arr)
    else:
        val = _sp.ive(2, arr)
    if not scaled:
        with np.errstate(over="ignore"):
            val = val * np.exp(arr)
    return _maybe_scalar(x, val)


def log_bessel_i0(x):
    """log I_0(x), computed without overflow for any finite x >= 0."""
    return _maybe_scalar(x, _log_i0(_validated(x)))


def bessel_ratio(x):
    """The ratio I_1(x) / I_0(x).

    Strictly increasing from 0 at x = 0 toward 1 as x grows. Uses the
    exponentially scaled functions so large arguments neither overflow
    nor lose the ratio.
    """
    return _maybe_scalar(x, _ratio(_validated(x)))


def one_minus_bessel_ratio(x):
    """1 - I_1(x)/I_0(x), accurate even where the ratio rounds to 1.

    For large x the direct subtraction loses everything (the ratio is
    1 - O(1/x)); an asymptotic tail series takes over there.
    """
    return _maybe_scalar(x, _one_minus_ratio(_validated(x)))


def bessel_ratio_deriv(x):
    """Derivative of I_1(x)/I_0(x) in x.

    Uses the identity r'(x) = 1 - r/x - r^2, rearranged as
    u(2 - u) - (1 - u)/x with u = 1 - r to dodge cancellation, and the
    asymptotic series of ``_ratio_deriv_tail_x2`` for large x where even
    that form cancels. r'(0) = 1/2 is the analytic limit.
    """
    return _maybe_scalar(x, _ratio_deriv(_validated(x)))

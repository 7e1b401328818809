"""Modified Bessel functions of the first kind and related quantities.

Only what the von Mises formulas need: I_a(x) for a in {0, 1, 2}, an
overflow-free log I_0, and the ratio I_1/I_0 that stays stable for
large arguments.
"""

import math
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np
from scipy import special as _sp
from scipy.special import cython_special as _cs

__all__ = ["bessel_i", "log_bessel_i0", "bessel_ratio", "bessel_ratio_deriv"]

# switch to the asymptotic series for 1 - I1/I0 and its derivative; at
# the switch the derivative's series is good to ~4e-12 relative and its
# direct form, which cancels, to ~1e-9 (see tests)
_RATIO_TAIL_SWITCH = 1.0e3


def _checked(x, lo=0.0, hi=math.inf, what="argument"):
    """The input check of every public numerical function.

    ``x`` must be finite and lie in [lo, hi). A scalar (Python number,
    numpy scalar or 0-d array) comes back as a Python float, so a
    kernel's table runs its float path and the caller tells a scalar
    result by ``isinstance(x, float)``; anything else comes back as a
    float array.
    """
    if isinstance(x, (float, int, np.generic)) or np.ndim(x) == 0:
        v = float(x)
        finite, inside = math.isfinite(v), lo <= v < hi
    else:
        v = np.asarray(x, dtype=float)
        finite, inside = np.all(np.isfinite(v)), np.all((v >= lo) & (v < hi))
    if not finite:
        raise ValueError(f"{what} must be finite")
    if not inside:
        # a lower bound of _TINY, the smallest positive float, reads as open
        left = "(0.0" if lo == _TINY else f"[{lo}"
        raise ValueError(f"{what} must lie in {left}, {hi})")
    return v


def _count(n, name="n", allow_zero=False):
    """A positive count ``n``, or zero too with ``allow_zero``, as an int.
    A bool, an infinite or nan value or a value with a fraction raises
    ValueError rather than being truncated."""
    try:
        whole = not isinstance(n, (bool, np.bool_)) and int(n) == n
    except (OverflowError, ValueError):
        # int() of an infinite or nan value
        whole = False
    if not whole or n < (0 if allow_zero else 1):
        raise ValueError(f"{name} must be a {'nonnegative' if allow_zero else 'positive'} integer")
    return int(n)


def _real(x, name):
    """A number ``x`` as a Python float; a bool, a string, bytes, a numpy
    complex, an array of bools, strings, bytes or objects (float() reads a
    0-d one as its element) or anything float() cannot take raises
    ValueError naming ``name``."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "bUSO":
        raise ValueError(f"{name} must be a number, not a {x.dtype} array")
    if isinstance(x, (bool, np.bool_, str, bytes, bytearray, np.complexfloating)):
        raise ValueError(f"{name} must be a number, not a {type(x).__name__}")
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"{name} must be a number: {err}") from None


def _float_of(ufunc):
    """``ufunc`` of one Python float as a Python float: numpy's bits, one conversion."""

    def call(x, ufunc=ufunc):
        return float(ufunc(x))

    return call


# The namespace a _piecewise_table hands a form for a 0-d argument, made a
# Python float, so the form runs float arithmetic with numpy's bits. sqrt is
# correctly rounded in both
# libraries, so math's is taken; numpy's log, exp, log1p, expm1 and power
# can differ from libm's in the last bit (math.log at 61 of 20 000 uniform
# points), so each stays one numpy call, converted to a float once. i0e and
# i1e come from scipy's cython_special: the cephes code of the ufuncs, called
# on a double, returning a Python float with the ufuncs' bits.
_FLOAT_MATH = SimpleNamespace(
    sqrt=math.sqrt,
    power=lambda x, y: float(np.power(x, y)),
    i0e=_cs.i0e,
    i1e=_cs.i1e,
    **{name: _float_of(getattr(np, name)) for name in ("log", "exp", "log1p", "expm1")},
)

# The namespace of an array of at least one dimension: numpy's ufuncs, and
# scipy's i0e and i1e, under the names of _FLOAT_MATH
_ARRAY_MATH = SimpleNamespace(
    i0e=_sp.i0e,
    i1e=_sp.i1e,
    **{name: getattr(np, name) for name in ("sqrt", "power", "log", "exp", "log1p", "expm1")},
)


def _piecewise_table(cuts, forms):
    """A function given piecewise, as a function ``(x, args=())`` that
    evaluates ``form(ns, x, *args)``.

    ``cuts`` increase and split the line into len(cuts) + 1 intervals;
    form i holds on [cuts[i-1], cuts[i]), the first one below cuts[0]
    and the last one from cuts[-1] up. Every form is a callable, even
    one whose value is fixed: a bare constant in its place raises
    TypeError when its interval is reached. A form returns one value or
    a tuple of values (a distance and its slope, say); a constant it
    returns stands for that value at every element, broadcast to x's
    shape. ``ns`` is the namespace the form takes its functions from
    (``ns.sqrt``, ``ns.log``, ``ns.i0e``, ...), so each formula is
    written once for every caller. This is the one place where a scalar
    call and an array call part ways:

    - a 0-d x (a Python float, a numpy scalar or a 0-d array) is placed
      among the cuts by a bisection in Python, and only the form that
      holds it runs, on float(x), with ``_FLOAT_MATH``: float arithmetic;
    - an array of at least one dimension is placed by its min() and
      max(). If one interval holds every element, its form runs on x
      itself. Otherwise each form runs once, with ``_ARRAY_MATH``, on
      the one contiguous run of x's sorted elements that its interval
      holds: a non-decreasing x (in C order) is sliced, so its forms get
      views of it and nothing is gathered; any other x is ordered once
      by an argsort and its values scattered back once through the same
      permutation; every form is elementwise, so the order it gives
      equal elements moves no bit. The values come back in arrays of
      x's shape.

    ``args`` of x's shape travel with x: they are sliced with it, or
    ordered with it; any other argument is passed whole. A form sees
    only arguments inside its own interval, so it must be finite, and
    raise nothing, there and nowhere else; every element gets the bits
    of its scalar call. A form may get a view of the caller's array, so
    it must not write into its arguments.
    A table without cuts is one form over the whole line.

    The function is the selector itself and takes no ``*args``, so a
    scalar call costs one plain Python call on the way to its form. It
    carries its ``cuts`` and ``forms``, so a caller that only ever
    passes Python floats, such as the sampler's log prior, can place its
    argument and run the form itself.
    """

    def table(x, args=()):
        if type(x) is not float:
            if isinstance(x, np.ndarray) and x.ndim:
                return _sorted_runs(x, cuts, forms, args)
            x = float(x)
        form = forms[bisect_right(cuts, x)]
        # a call without * unpacking takes the interpreter's fast path
        return form(_FLOAT_MATH, x, *args) if args else form(_FLOAT_MATH, x)

    table.cuts, table.forms = cuts, forms
    return table


def _sorted_runs(x, cuts, forms, args):
    """A _piecewise_table on an array x of at least one dimension."""
    if not cuts or not x.size:
        # one form over the whole line, or nothing to place: form 0
        return _filled(forms[0](_ARRAY_MATH, x, *args), x.shape)
    first, last = bisect_right(cuts, float(x.min())), bisect_right(cuts, float(x.max()))
    if first == last:
        return _filled(forms[first](_ARRAY_MATH, x, *args), x.shape)
    flat = x.ravel()
    moves = [np.shape(a) == x.shape for a in args]
    args = [np.ravel(a) if m else a for a, m in zip(args, moves)]
    order = None
    if (flat[1:] < flat[:-1]).any():
        order = np.argsort(flat)
        flat = flat[order]
        args = [a[order] if m else a for a, m in zip(args, moves)]
    # form i runs on the sorted elements from its lower cut to its upper one
    bounds = np.searchsorted(flat, cuts[first:last]).tolist()
    out = None
    for i, start, stop in zip(range(first, last + 1), [0, *bounds], [*bounds, flat.size]):
        if start == stop:
            continue
        run = slice(start, stop)
        vals = forms[i](_ARRAY_MATH, flat[run], *(a[run] if m else a for a, m in zip(args, moves)))
        many = isinstance(vals, tuple)
        if out is None:
            out = [np.empty(flat.size) for _ in (vals if many else (vals,))]
        for o, v in zip(out, vals if many else (vals,)):
            o[run] = v
    if order is not None:
        for o in out:
            o[order] = o.copy()
    out = [o.reshape(x.shape) for o in out]
    return tuple(out) if many else out[0]


def _filled(vals, shape):
    """A form's value(s) over a whole array: a constant becomes an array of the shape."""
    if isinstance(vals, tuple):
        return tuple(_filled(v, shape) for v in vals)
    return vals if np.shape(vals) == shape else np.full(shape, vals)


# Unchecked kernels: arguments are floats, numpy scalars or float arrays,
# already known to be finite and nonnegative. The public functions below
# check once and call these; so do the distance kernels inside the
# sampler. Each kernel is a _piecewise_table.

# smallest positive float: as a cut, [0, _TINY) holds only x = 0
_TINY = 5e-324


def _ratio_form(ns, x):
    # r = I1/I0 from the scaled functions, which never overflow
    return ns.i1e(x) / ns.i0e(x)


_ratio = _piecewise_table((), (_ratio_form,))

# log I0(x) = log(exp(-x) I0(x)) + x, without overflow
_log_i0 = _piecewise_table((), (lambda ns, x: ns.log(ns.i0e(x)) + x,))


def _one_minus_ratio_tail(x):
    inv = 1.0 / x
    return inv * (0.5 + inv * (0.125 + inv * (0.125 + inv * (25.0 / 128.0))))


_one_minus_ratio = _piecewise_table(
    (_RATIO_TAIL_SWITCH,),
    (lambda ns, x: 1.0 - _ratio_form(ns, x), lambda ns, x: _one_minus_ratio_tail(x)),
)


def _ratio_deriv_tail_x2(x):
    """x^2 r'(x) for x >= _RATIO_TAIL_SWITCH: 1/2 + 1/(4x) + 3/(8x^2) + 25/(32x^3)."""
    inv = 1.0 / x
    return 0.5 + inv * (0.25 + inv * (0.375 + inv * (25.0 / 32.0)))


def _ratio_deriv_head(ns, x):
    # r'(x) = u(2 - u) - r/x with u = 1 - r, for 0 < x < _RATIO_TAIL_SWITCH;
    # the von Mises distance forms write it out on the r they hold
    r = _ratio_form(ns, x)
    u = 1.0 - r
    return u * (2.0 - u) - r / x


def _ratio_deriv_tail(x):
    # two divisions, not a square: keeps gradual underflow honest at huge x
    return _ratio_deriv_tail_x2(x) / x / x


# r'(0) = 1/2 is the analytic limit
_ratio_deriv = _piecewise_table(
    (_TINY, _RATIO_TAIL_SWITCH),
    (lambda ns, x: 0.5, _ratio_deriv_head, lambda ns, x: _ratio_deriv_tail(x)),
)


def _evaluate(kernel, x, lo=0.0, hi=math.inf, what="argument"):
    """The boundary of every one-argument public numerical function:
    check ``x``, run ``kernel`` on it, and return the caller's type, a
    Python float for a scalar argument and an array otherwise."""
    x = _checked(x, lo, hi, what)
    out = kernel(x)
    return float(out) if isinstance(x, float) else out


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
    arr = _checked(x)
    if order == 0:
        val = _sp.i0e(arr)
    elif order == 1:
        val = _sp.i1e(arr)
    else:
        val = _sp.ive(2, arr)
    if not scaled:
        with np.errstate(over="ignore"):
            val = val * np.exp(arr)
    return float(val) if isinstance(arr, float) else val


def log_bessel_i0(x):
    """log I_0(x), computed without overflow for any finite x >= 0."""
    return _evaluate(_log_i0, x)


def bessel_ratio(x):
    """The ratio I_1(x) / I_0(x).

    Strictly increasing from 0 at x = 0 toward 1 as x grows. Uses the
    exponentially scaled functions so large arguments neither overflow
    nor lose the ratio.
    """
    return _evaluate(_ratio, x)


def one_minus_bessel_ratio(x):
    """1 - I_1(x)/I_0(x), accurate even where the ratio rounds to 1.

    For large x the direct subtraction loses everything (the ratio is
    1 - O(1/x)); an asymptotic tail series takes over there.
    """
    return _evaluate(_one_minus_ratio, x)


def bessel_ratio_deriv(x):
    """Derivative of I_1(x)/I_0(x) in x.

    Uses the identity r'(x) = 1 - r/x - r^2, rearranged as
    u(2 - u) - (1 - u)/x with u = 1 - r to dodge cancellation, and the
    asymptotic series of ``_ratio_deriv_tail_x2`` for large x where even
    that form cancels. r'(0) = 1/2 is the analytic limit.
    """
    return _evaluate(_ratio_deriv, x)

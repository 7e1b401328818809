import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as _sp

from circpc.special import (
    _ARRAY_MATH,
    _FLOAT_MATH,
    _RATIO_TAIL_SWITCH,
    _log_i0,
    _ratio,
    _one_minus_ratio,
    _piecewise,
    _ratio_deriv,
    bessel_i,
    bessel_ratio,
    bessel_ratio_deriv,
    log_bessel_i0,
    one_minus_bessel_ratio,
)


def series_i(order, x, terms=30):
    """Independent power-series oracle for I_order(x), small x only."""
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (2 * k + order) / (
            math.factorial(k) * math.factorial(k + order)
        )
    return total


class TestBesselI:
    def test_order0_at_zero_is_one(self):
        assert bessel_i(0, 0.0) == 1.0

    def test_order1_at_zero_is_zero(self):
        assert bessel_i(1, 0.0) == 0.0

    def test_order0_at_one_matches_series(self):
        assert bessel_i(0, 1.0) == pytest.approx(series_i(0, 1.0), rel=1e-12)
        assert bessel_i(0, 1.0) == pytest.approx(1.2660658, abs=2e-7)

    def test_series_agreement_small_range(self):
        for order in (0, 1, 2):
            for x in (0.1, 0.5, 2.0, 7.3, 15.0, 20.0):
                assert bessel_i(order, x) == pytest.approx(
                    series_i(order, x, terms=60), rel=1e-12
                )

    def test_scaled_path_matches_mpmath_large(self):
        mp = pytest.importorskip("mpmath")
        for x in (50.0, 300.0, 700.0):
            want = float(mp.besseli(0, x) * mp.exp(-x))
            assert bessel_i(0, x, scaled=True) == pytest.approx(want, rel=1e-10)

    def test_recurrence_order2(self):
        # I2 = I0 - (2/x) I1
        for x in np.linspace(0.1, 50.0, 23):
            lhs = bessel_i(2, x)
            rhs = bessel_i(0, x) - (2.0 / x) * bessel_i(1, x)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bessel_i(0, -1.0)

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            bessel_i(0, math.nan)


class TestLogBesselI0:
    def test_zero(self):
        assert log_bessel_i0(0.0) == 0.0

    def test_one_matches_series_log(self):
        assert log_bessel_i0(1.0) == pytest.approx(math.log(series_i(0, 1.0)), rel=1e-12)
        assert log_bessel_i0(1.0) == pytest.approx(0.2359142, abs=2e-7)

    def test_against_four_term_expansion(self):
        # the 4-term expansion x - log(2 pi x)/2 + 1/(8x) itself truncates
        # at 1/(16 x^2) + 25/(384 x^3) + ...; agreement can only be asked
        # down to that floor, which drops below 1e-8 only past x ~ 2500
        for x in (50.0, 100.0, 2500.0, 1e4, 1e6):
            expansion = x - 0.5 * math.log(2.0 * math.pi * x) + 1.0 / (8.0 * x)
            floor = 1.05 * (1.0 / (16.0 * x * x) + 25.0 / (384.0 * x ** 3)) + 1e-8
            assert abs(log_bessel_i0(x) - expansion) <= floor
        x = 1e4
        expansion = x - 0.5 * math.log(2.0 * math.pi * x) + 1.0 / (8.0 * x)
        assert abs(log_bessel_i0(x) - expansion) <= 1e-8

    def test_no_overflow_to_1e6(self):
        assert math.isfinite(log_bessel_i0(1e6))
        assert math.isfinite(log_bessel_i0(1e300))

    def test_consistency_with_bessel_i(self):
        for x in np.linspace(0.0, 30.0, 61):
            assert math.exp(log_bessel_i0(x)) == pytest.approx(
                bessel_i(0, x), rel=1e-10
            )

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            log_bessel_i0(-0.5)


class TestBesselRatio:
    def test_zero(self):
        assert bessel_ratio(0.0) == 0.0

    def test_one_matches_series(self):
        want = series_i(1, 1.0) / series_i(0, 1.0)
        assert bessel_ratio(1.0) == pytest.approx(want, rel=1e-12)
        assert bessel_ratio(1.0) == pytest.approx(0.4463900, abs=5e-8)

    def test_frozen_value_at_two(self):
        assert bessel_ratio(2.0) == pytest.approx(0.697774657964, abs=1e-12)

    def test_large_argument_in_unit_interval(self):
        r = bessel_ratio(700.0)
        assert 0.999 < r < 1.0

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 100.0, 1001)
        vals = bessel_ratio(xs)
        assert np.all(np.diff(vals) > 0.0)

    def test_bounds(self):
        xs = np.geomspace(1e-8, 1e8, 200)
        vals = bessel_ratio(xs)
        assert np.all((vals >= 0.0) & (vals < 1.0))

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_range_property(self, x):
        r = bessel_ratio(x)
        assert 0.0 <= r < 1.0


class TestOneMinusRatio:
    def test_matches_direct_subtraction_midrange(self):
        for x in (0.5, 2.0, 10.0, 50.0):
            assert one_minus_bessel_ratio(x) == pytest.approx(
                1.0 - bessel_ratio(x), rel=1e-12
            )

    def test_tail_asymptote(self):
        # 1 - r(x) ~ 1/(2x) + 1/(8x^2); the scaled-Bessel route saturates
        # far earlier, so huge arguments must stay alive and accurate
        for x in (1e3, 1e6, 1e25, 1e300):
            want = 0.5 / x + 0.125 / (x * x)
            assert one_minus_bessel_ratio(x) == pytest.approx(want, rel=1e-6)

    def test_positive_everywhere(self):
        xs = np.geomspace(1e-6, 1e300, 400)
        assert np.all(one_minus_bessel_ratio(xs) > 0.0)


class TestRatioDeriv:
    def test_finite_difference_agreement(self):
        for x in (0.05, 0.7, 3.0, 40.0, 500.0):
            h = 1e-6 * max(1.0, x)
            fd = (bessel_ratio(x + h) - bessel_ratio(x - h)) / (2.0 * h)
            assert bessel_ratio_deriv(x) == pytest.approx(fd, rel=1e-6)

    def test_limit_at_zero(self):
        assert bessel_ratio_deriv(0.0) == 0.5

    def test_tail_does_not_underflow_prematurely(self):
        # r'(x) ~ 1/(2 x^2); a sloppy 1/x * 1/x intermediate dies around
        # x = 1e162 even though the result is representable to x ~ 3e161
        assert bessel_ratio_deriv(1e150) == pytest.approx(0.5e-300, rel=1e-6)
        assert bessel_ratio_deriv(1e160) > 0.0

    def test_tail_series_against_high_precision(self):
        # mpmath at 40 digits: 1 - r/x - r^2 with r = I1(x)/I0(x)
        for x, want in ((1000.0, 5.002503757832876e-07), (2000.0, 1.2503127346194584e-07)):
            assert bessel_ratio_deriv(x) == pytest.approx(want, rel=1e-11, abs=0)

    def test_continuity_at_branch_switch(self):
        # adjacent floats on either side of the switch, so the gap is the
        # two branches' disagreement and not the slope of r'; the direct
        # form's own cancellation error there is ~6e-11
        lo, hi = float(np.nextafter(1000.0, 0.0)), 1000.0
        assert bessel_ratio_deriv(lo) == pytest.approx(bessel_ratio_deriv(hi), rel=2e-10, abs=0)


class TestKernelForms:
    @pytest.mark.parametrize("kernel", (_ratio_deriv, _one_minus_ratio))
    def test_scalar_and_array_calls_agree(self, kernel):
        # one code path for Python floats, numpy scalars, 0-d arrays and
        # arrays: the same bits everywhere, and no branch raises on a grid
        # straddling the tail switch and both ends (underflow to zero is
        # the right answer of r' at e^709)
        below, above = (float(v) for v in np.nextafter(_RATIO_TAIL_SWITCH, [0.0, np.inf]))
        grid = [0.0, 5e-324, 1e-300, 1e-8, 0.5, 3.0, below, _RATIO_TAIL_SWITCH, above,
                1e6, 1e300, math.exp(709.0)]
        with np.errstate(all="raise", under="ignore"):
            want = kernel(np.array(grid))
            for form in (float, np.float64, lambda x: np.asarray(x, dtype=float)):
                got = np.array([float(kernel(form(x))) for x in grid])
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.all(np.isfinite(want))

    def test_array_inside_one_interval(self):
        # an array runs only the branches its elements reach; a constant
        # branch holding all of them still gives an array of their shape
        assert np.array_equal(_ratio_deriv(np.zeros(3)), np.full(3, 0.5))
        assert _ratio_deriv(np.empty(0)).shape == (0,)
        x = np.array([2000.0, 3000.0])
        assert np.array_equal(_ratio_deriv(x), [_ratio_deriv(float(v)) for v in x])

    @pytest.mark.parametrize("kernel", (_ratio_deriv, _one_minus_ratio))
    @given(t=st.floats(min_value=math.log(1e-300), max_value=709.0))
    @settings(max_examples=200, deadline=None)
    def test_scalar_path_matches_array_path_property(self, kernel, t):
        # float, numpy scalar and 0-d array run only the live branch, an
        # array reaching 0 and e^709 every branch on a clamped argument
        x = math.exp(t)
        forms = (float, np.float64, lambda v: np.asarray(v, dtype=float),
                 lambda v: np.array([v, 0.0, math.exp(709.0)]))
        with np.errstate(all="raise", under="ignore"):
            got = [np.ravel(kernel(form(x)))[0] for form in forms]
        assert len(set(np.array(got, dtype=float).view(np.int64))) == 1, (x, got)


class TestScalarKernelTypes:
    def test_float_argument_gives_python_floats(self):
        # the sampler's scalar forms then run float, not numpy-scalar,
        # arithmetic; the values are scipy's bits
        for x in (0.0, 1e-300, 0.7, 1e3, 1e300):
            i0, i1 = _FLOAT_MATH.i0e(x), _FLOAT_MATH.i1e(x)
            assert type(i0) is float and type(i1) is float
            assert (i0, i1) == (float(_sp.i0e(x)), float(_sp.i1e(x)))
            for kernel in (_log_i0, _ratio):
                assert type(kernel(x)) is float
            assert _log_i0(x) == float(np.log(_sp.i0e(x))) + x
            assert _ratio(x) == float(_sp.i1e(x)) / float(_sp.i0e(x))

    def test_array_argument_gives_arrays(self):
        x = np.array([0.0, 0.7, 1e300])
        for kernel in (_log_i0, _ratio):
            assert isinstance(kernel(x), np.ndarray)
            assert np.array_equal(kernel(x), [kernel(float(v)) for v in x])


class TestPiecewiseSortedRuns:
    """An array call runs each form once, on the run of sorted elements
    its interval holds."""

    CUTS = (1.0, 10.0)

    def table(self, seen):
        # form i returns (x + i, arg * 2) and records what it was given;
        # an array call hands every form numpy's ufuncs
        def form(i):
            def f(ns, x, a, c):
                assert ns is _ARRAY_MATH or not np.ndim(x)
                seen.append((i, np.array(x, copy=True), np.array(a, copy=True)))
                return x + i + c, a * 2.0
            return f

        return self.CUTS, (form(0), form(1), form(2))

    def test_each_form_sees_only_its_interval(self):
        seen = []
        x = np.array([[12.0, 0.5, 3.0], [0.5, 1.0, 12.0]])  # unsorted, 2-d, repeats
        a = np.arange(6.0).reshape(2, 3)
        v, w = _piecewise(x, *self.table(seen), a, 100.0)
        assert v.shape == w.shape == x.shape
        assert np.array_equal(v, x + np.searchsorted(self.CUTS, x, side="right") + 100.0)
        assert np.array_equal(w, 2.0 * a)
        assert sorted(i for i, _, _ in seen) == [0, 1, 2]
        for i, xs, args in seen:
            lo = self.CUTS[i - 1] if i else -np.inf
            hi = self.CUTS[i] if i < len(self.CUTS) else np.inf
            assert np.all((lo <= xs) & (xs < hi))
            # array args travel with their elements: the form sees the
            # (x, arg) pairs of its interval, in sorted order
            mine = (lo <= x) & (x < hi)
            assert sorted(zip(xs, args)) == sorted(zip(x[mine], a[mine]))
        assert sum(xs.size for _, xs, _ in seen) == x.size

    def test_sorted_input_is_sliced_not_gathered(self):
        # a non-decreasing array's forms get views of it, and of the
        # arguments that travel with it
        x = np.array([0.0, 0.5, 1.0, 4.0, 10.0, 20.0])
        a = np.arange(6.0)
        shared = []

        def form(i):
            def f(ns, xs, args):
                shared.append((i, np.shares_memory(xs, x), np.shares_memory(args, a)))
                return xs + i
            return f

        out = _piecewise(x, self.CUTS, (form(0), form(1), form(2)), a)
        assert shared == [(0, True, True), (1, True, True), (2, True, True)]
        assert np.array_equal(out, [0.0, 0.5, 2.0, 5.0, 12.0, 22.0])

    def test_unsorted_input_equals_sorted_evaluation_permuted_back(self):
        rng = np.random.default_rng(5)
        x = rng.choice([0.0, 0.5, 1.0, 3.0, 9.9, 10.0, 11.0], size=(4, 5))
        x[0, 0], x[-1, -1] = 20.0, 0.25  # neither sorted nor in one interval
        a = rng.standard_normal(x.shape)
        order = np.argsort(x, axis=None, kind="stable")
        v, w = _piecewise(x, *self.table([]), a, 0.5)
        sv, sw = _piecewise(x.ravel()[order], *self.table([]), a.ravel()[order], 0.5)
        for got, want in ((v, sv), (w, sw)):
            back = np.empty(x.size)
            back[order] = want
            assert got.shape == x.shape
            assert np.array_equal(got.ravel().view(np.int64), back.view(np.int64))

    def test_caller_array_is_unchanged(self):
        for x in (np.array([12.0, 0.5, 3.0, 0.5]), np.array([0.5, 3.0, 12.0])):
            a = np.arange(float(x.size))
            before_x, before_a = x.copy(), a.copy()
            _piecewise(x, *self.table([]), a, 0.0)
            assert np.array_equal(x, before_x) and np.array_equal(a, before_a)

    def test_one_interval_runs_one_form_on_x_itself(self):
        seen = []
        x = np.array([[2.0, 3.0], [4.0, 2.0]])
        a = np.ones_like(x)
        v, w = _piecewise(x, *self.table(seen), a, 0.0)
        assert [i for i, _, _ in seen] == [1]
        assert np.array_equal(seen[0][1], x) and np.array_equal(v, x + 1.0)
        assert np.array_equal(w, 2.0 * a)

    def test_empty_array(self):
        seen = []
        v, w = _piecewise(np.empty((0, 3)), *self.table(seen), np.empty((0, 3)), 0.0)
        assert v.shape == w.shape == (0, 3)
        assert len(seen) <= 1

    def test_constant_forms_fill_the_shape(self):
        cuts, forms = (0.0,), (lambda ns, x: (1.0, 2.0), lambda ns, x: (x, 3.0))
        v, w = _piecewise(np.array([-1.0, 1.0, -2.0]), cuts, forms)
        assert np.array_equal(v, [1.0, 1.0, 1.0]) and np.array_equal(w, [2.0, 3.0, 2.0])
        v, w = _piecewise(np.full((2, 2), -1.0), cuts, forms)
        assert np.array_equal(v, np.ones((2, 2))) and np.array_equal(w, np.full((2, 2), 2.0))

    def test_scalar_runs_only_its_form(self):
        seen = []
        v, w = _piecewise(5.0, *self.table(seen), 3.0, 0.0)
        assert (v, w) == (6.0, 6.0) and [i for i, _, _ in seen] == [1]

    def test_namespace_follows_the_argument_type(self):
        # a Python float gets float arithmetic; a numpy scalar, a 0-d array
        # and an array keep numpy's ufuncs
        forms = (lambda ns, x: ns,)
        assert _piecewise(2.0, (), forms) is _FLOAT_MATH
        for x in (np.float64(2.0), np.array(2.0)):
            assert _piecewise(x, (), forms) is _ARRAY_MATH


class TestFloatMath:
    """The float namespace gives numpy's bits as Python floats."""

    def test_bits_and_types(self):
        rng = np.random.default_rng(3)
        xs = np.concatenate([rng.uniform(0.0, 2.0, 2000), np.exp(rng.uniform(-700.0, 700.0, 2000))])
        for name in ("sqrt", "log", "exp", "log1p", "expm1"):
            fn, ref = getattr(_FLOAT_MATH, name), getattr(np, name)
            args = -xs[xs < 700.0] if name in ("exp", "expm1") else xs
            with np.errstate(over="ignore"):
                want = ref(args)
            got = np.array([fn(float(x)) for x in args])
            assert all(type(fn(float(x))) is float for x in args[:5])
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
        got = np.array([_FLOAT_MATH.power(float(x), 1.5) for x in xs[:2000]])
        assert np.array_equal(got.view(np.int64), np.power(xs[:2000], 1.5).view(np.int64))

    def test_both_namespaces_name_the_same_functions(self):
        assert sorted(vars(_FLOAT_MATH)) == sorted(vars(_ARRAY_MATH))
        for name, fn in vars(_ARRAY_MATH).items():
            assert fn is (getattr(_sp, name) if name in ("i0e", "i1e") else getattr(np, name))


def _bessel_grid():
    """0, subnormals, log-uniform points from 1e-300 to 1e300, and the
    cephes switch at x = 8 with its float neighbours."""
    rng = np.random.default_rng(13)
    tiny = [5e-324, 1e-320, 2.0 ** -1060, float(np.nextafter(2.0 ** -1022, 0.0)), 2.0 ** -1022]
    switch = [8.0]
    for _ in range(4):
        switch = [float(np.nextafter(switch[0], 0.0))] + switch + [float(np.nextafter(switch[-1], np.inf))]
    spread = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 20000))
    return np.concatenate([[0.0], tiny, spread, switch, rng.uniform(7.0, 9.0, 2000)])


class TestCythonBessel:
    """The float namespace's i0e and i1e, from scipy.special.cython_special,
    run the ufuncs' cephes code: the same bits as the ufuncs, as Python
    floats."""

    @pytest.mark.parametrize("name", ("i0e", "i1e"))
    def test_bits_equal_the_ufuncs(self, name):
        grid = _bessel_grid()
        fn = getattr(_FLOAT_MATH, name)
        got = np.array([fn(float(x)) for x in grid])
        want = getattr(_sp, name)(grid)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert all(type(fn(float(x))) is float for x in grid[:10])

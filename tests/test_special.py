import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from circpc.special import (
    _RATIO_TAIL_SWITCH,
    _one_minus_ratio,
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

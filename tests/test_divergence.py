import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circpc.distributions import DistributionSpec, Family
from circpc.divergence import (
    _CARD_L3_SERIES,
    _ELL_MAX,
    _KAPPA_MAX,
    _RHO_MAX,
    _VM_RADICAND_LARGE,
    _VM_RADICAND_SMALL,
    _card_l3,
    SQRT_1M_LOG2,
    SQRT_LOG2,
    BaseModel,
    Direction,
    distance,
    distance_deriv,
    inverse_distance,
    kld_cardioid,
    kld_numeric,
    kld_vm,
    kld_wc,
    profile_for,
    supported_pairs,
)
from circpc.special import _RATIO_TAIL_SWITCH, log_bessel_i0

VM_UNI = profile_for(Family.VON_MISES, BaseModel.UNIFORM)
VM_PM = profile_for(Family.VON_MISES, BaseModel.POINT_MASS)
CARD_UNI = profile_for(Family.CARDIOID, BaseModel.UNIFORM)
CARD_CURVE = profile_for(Family.CARDIOID, BaseModel.CARDIOID_CURVE)
WC_UNI = profile_for(Family.WRAPPED_CAUCHY, BaseModel.UNIFORM)

ALL_PROFILES = (VM_UNI, VM_PM, CARD_UNI, CARD_CURVE, WC_UNI)


# the largest parameter of each family the kernels are asked about: e^709
# (the top of the inverse's window) and the largest float below the
# open support end
TOP_PARAM = {Family.VON_MISES: _KAPPA_MAX, Family.CARDIOID: _ELL_MAX, Family.WRAPPED_CAUCHY: _RHO_MAX}


def neighbours(x, lo, hi, k=3):
    """x and its k float neighbours on each side, kept inside [lo, hi]."""
    out = [x]
    down = up = x
    for _ in range(k):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return [float(v) for v in out if lo <= v <= hi]


def _ell_at_s(s):
    # the ell whose s = sqrt(1 - 4 ell^2) is s
    return math.sqrt((1.0 - s) * (1.0 + s)) / 2.0


# the parameters where each family's kernels switch form, or come close
SWITCHES = {
    Family.VON_MISES: (_VM_RADICAND_SMALL, _VM_RADICAND_LARGE, _RATIO_TAIL_SWITCH),
    Family.CARDIOID: (_ell_at_s(_CARD_L3_SERIES),),
    Family.WRAPPED_CAUCHY: (0.5,),
}


def kernel_grid(profile):
    """Parameters straddling every branch switch and support end of a pair,
    plus interior points."""
    lo, hi = profile.support_lo, TOP_PARAM[profile.family]
    edges = [lo, hi, 5e-324, 1e-300, 1e-160, 1e-8, 0.1, 0.3, *SWITCHES[profile.family]]
    if profile.family is Family.VON_MISES:
        edges += [3.0, 1e300]
    return sorted({v for e in edges for v in neighbours(e, lo, hi)})


def _bits(values):
    return np.array([float(v) for v in values]).view(np.int64)


def interior_grid(profile, n):
    lo, hi = profile.support_lo, profile.support_hi
    if not math.isfinite(hi):
        hi = 50.0
    pad = (hi - lo) * 1e-4
    return np.linspace(lo + pad, hi - pad, n)


class TestKldClosedForms:
    def test_vm_zero_at_equal(self):
        assert kld_vm(2.0, 2.0) == 0.0

    def test_vm_against_uniform(self):
        assert kld_vm(1.0, 0.0) == pytest.approx(0.21047560738935595, rel=1e-13)

    def test_vm_uniform_against_concentrated(self):
        # kappa = 0 drops every term but log I0(kappa0)
        assert kld_vm(0.0, 3.0) == pytest.approx(log_bessel_i0(3.0), rel=1e-14)

    def test_vm_nonnegative_clamp(self):
        ks = np.linspace(0.0, 30.0, 200)
        for k in ks:
            assert kld_vm(k, k + 1e-9) >= 0.0

    def test_cardioid_values(self):
        assert kld_cardioid(0.2, 0.4) == pytest.approx(0.06398973686135248, rel=1e-12)
        assert kld_cardioid(0.49, 0.01) == pytest.approx(0.27964014730733244, rel=1e-12)

    def test_cardioid_rejects_uniform_base(self):
        with pytest.raises(ValueError):
            kld_cardioid(0.2, 0.0)

    def test_wc_values(self):
        assert kld_wc(0.0) == 0.0
        assert kld_wc(0.5) == pytest.approx(-math.log(0.75), rel=1e-15)
        assert kld_wc(0.99) == pytest.approx(-math.log(1.0 - 0.99**2), rel=1e-15)

    def test_numeric_self_divergence_zero(self):
        spec = DistributionSpec(Family.VON_MISES, 1.0, 2.5)
        assert abs(kld_numeric(spec, spec)) <= 1e-12

    def test_closed_forms_match_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            k, k0 = rng.uniform(0.0, 20.0, size=2)
            spec_p = DistributionSpec(Family.VON_MISES, 0.0, k)
            spec_q = DistributionSpec(Family.VON_MISES, 0.0, k0)
            assert kld_vm(k, k0) == pytest.approx(
                kld_numeric(spec_p, spec_q), abs=1e-8
            )
        for _ in range(10):
            l, l0 = rng.uniform(0.01, 0.49, size=2)
            spec_p = DistributionSpec(Family.CARDIOID, 0.0, l)
            spec_q = DistributionSpec(Family.CARDIOID, 0.0, l0)
            assert kld_cardioid(l, l0) == pytest.approx(
                kld_numeric(spec_p, spec_q), abs=1e-8
            )
        for _ in range(10):
            r = rng.uniform(0.0, 0.9)
            spec_p = DistributionSpec(Family.WRAPPED_CAUCHY, 0.0, r)
            spec_q = DistributionSpec(Family.UNIFORM)
            assert kld_wc(r) == pytest.approx(kld_numeric(spec_p, spec_q), abs=1e-8)

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_vm_nonnegative_everywhere(self, k, k0):
        assert kld_vm(k, k0) >= 0.0

    @given(st.floats(min_value=0.0, max_value=0.499))
    @settings(max_examples=60, deadline=None)
    def test_cardioid_zero_iff_equal(self, l):
        assert kld_cardioid(l, max(l, 1e-6)) <= 1e-12 or l < 1e-6


class TestDistance:
    def test_profile_registry(self):
        assert len(supported_pairs()) == 5
        with pytest.raises(ValueError):
            profile_for(Family.WRAPPED_CAUCHY, BaseModel.POINT_MASS)

    def test_anchor_values(self):
        assert distance(VM_UNI, 0.0) == 0.0
        assert distance(VM_PM, 0.0) == 1.0
        assert distance(WC_UNI, 0.0) == 0.0
        assert distance(CARD_UNI, 0.0) == 0.0
        assert distance(CARD_UNI, 0.49999999) == pytest.approx(
            SQRT_1M_LOG2, rel=1e-7
        )
        assert distance(CARD_CURVE, 0.5 - 1e-12) == pytest.approx(0.0, abs=1e-5)
        assert distance(CARD_CURVE, 0.0) == pytest.approx(SQRT_LOG2, rel=1e-12)

    def test_frozen_interior_values(self):
        assert distance(VM_UNI, 3.0) == pytest.approx(0.9190474743211543, rel=1e-12)
        assert distance(VM_PM, 3.0) == pytest.approx(0.43590676301647, rel=1e-12)
        assert distance(CARD_UNI, 0.25) == pytest.approx(0.2542403036902, rel=1e-11)
        assert distance(CARD_CURVE, 0.25) == pytest.approx(0.50772562726381, rel=1e-11)
        assert distance(WC_UNI, 0.5) == pytest.approx(
            math.sqrt(-math.log(0.75)), rel=1e-15
        )

    def test_distance_is_sqrt_of_kld(self):
        for k in (0.3, 1.0, 4.0, 40.0):
            assert distance(VM_UNI, k) == pytest.approx(
                math.sqrt(kld_vm(k, 0.0)), rel=1e-10
            )
        for r in (0.1, 0.5, 0.9):
            assert distance(WC_UNI, r) == pytest.approx(math.sqrt(kld_wc(r)), rel=1e-14)

    def test_huge_kappa_stays_finite(self):
        assert distance(VM_UNI, 1e300) == pytest.approx(18.595878642385024, rel=1e-12)
        assert distance(VM_PM, 1e300) == pytest.approx(0.0, abs=1e-12)

    def test_small_cardioid_linear_start(self):
        # d ~ ell near 0, so d(1e-6) must not collapse to 0 or blow up
        d = distance(CARD_UNI, 1e-6)
        assert 0.0 < d <= 1e-5

    def test_monotone_on_grid(self):
        for prof in ALL_PROFILES:
            xs = interior_grid(prof, 1000)
            ds = distance(prof, xs)
            diffs = np.diff(ds)
            if prof.direction is Direction.INCREASING:
                assert np.all(diffs > 0.0), prof
            else:
                assert np.all(diffs < 0.0), prof

    def test_out_of_support_raises(self):
        with pytest.raises(ValueError):
            distance(VM_UNI, -0.5)
        with pytest.raises(ValueError):
            distance(CARD_UNI, 0.5)
        with pytest.raises(ValueError):
            distance(WC_UNI, 1.0)

    @given(st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=80, deadline=None)
    def test_vm_uniform_nonnegative(self, k):
        assert distance(VM_UNI, k) >= 0.0

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_scalar_and_array_calls_agree(self, profile):
        # the record kernels take Python floats, numpy scalars, 0-d arrays
        # and arrays through one code path: every form gives the same bits,
        # and no branch raises anywhere on the grid (underflow to a
        # subnormal or to zero is the right answer at the huge-kappa end)
        grid = kernel_grid(profile)
        with np.errstate(all="raise", under="ignore"):
            arr = np.array(grid)
            d_arr = profile.dist(arr)
            g_arr = profile.deriv(arr, d_arr)
            for form in (float, np.float64, lambda x: np.asarray(x, dtype=float)):
                xs = [form(x) for x in grid]
                ds = [profile.dist(x) for x in xs]
                gs = [profile.deriv(x, d) for x, d in zip(xs, ds)]
                assert np.array_equal(_bits(ds), _bits(d_arr))
                assert np.array_equal(_bits(gs), _bits(g_arr))
        assert np.all(np.isfinite(d_arr)) and np.all(np.isfinite(g_arr))


class TestCardL3:
    def test_series_against_high_precision(self):
        # log1p(s) - s + s^2/2 at 50 digits; each element is good to 1e-15
        # relative alone and keeps its bits inside any batch
        mp = pytest.importorskip("mpmath")
        s = np.array([1e-300, 1e-7, 1e-5, 1e-3, 0.01, 0.1, 0.2, 0.29,
                      float(np.nextafter(_CARD_L3_SERIES, 0.0))])
        with mp.workdps(50):
            want = [float(mp.log1p(mp.mpf(v)) - mp.mpf(v) + mp.mpf(v) ** 2 / 2) for v in s]
        batch = _card_l3(s)
        for i, v in enumerate(s):
            alone = _card_l3(np.array([v]))[0]
            assert alone == batch[i]
            assert alone == pytest.approx(want[i], rel=1e-15, abs=0)


class TestDistanceDeriv:
    def test_boundary_limits(self):
        # the derivative is reported as a magnitude, ready to use as a Jacobian
        assert distance_deriv(VM_UNI, 0.0) == pytest.approx(0.5, rel=1e-12)
        assert distance_deriv(VM_PM, 0.0) == pytest.approx(0.25, rel=1e-12)
        assert distance_deriv(CARD_UNI, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert distance_deriv(CARD_CURVE, 0.0) == pytest.approx(
            1.0 / SQRT_LOG2, rel=1e-12
        )
        assert distance_deriv(WC_UNI, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_interior_value(self):
        assert distance_deriv(VM_UNI, 3.0) == pytest.approx(
            0.12066089237114788, rel=1e-11
        )

    def test_matches_finite_differences(self):
        for prof in ALL_PROFILES:
            xs = interior_grid(prof, 25)
            for x in xs:
                h = 1e-6 * max(1.0, abs(x))
                fd = (distance(prof, x + h) - distance(prof, x - h)) / (2.0 * h)
                an = distance_deriv(prof, x)
                assert an == pytest.approx(abs(fd), rel=5e-5, abs=1e-12), (prof, x)

    def test_positive_on_interior(self):
        for prof in ALL_PROFILES:
            xs = interior_grid(prof, 50)
            der = distance_deriv(prof, xs)
            assert np.all(der > 0.0), prof

    def test_extreme_argument_stays_alive(self):
        # 1/(8 kappa sqrt(...)) shrinks but must not underflow to zero here
        assert distance_deriv(VM_UNI, 1e300) > 0.0


class TestInverseDistance:
    def test_round_trips(self):
        rng = np.random.default_rng(11)
        for prof in ALL_PROFILES:
            xs = interior_grid(prof, 40)
            for x in xs:
                d = float(distance(prof, x))
                back = inverse_distance(prof, d)
                assert back == pytest.approx(x, rel=1e-10, abs=1e-10), (prof, x)
        # and the other way, from sampled distances
        for prof in (VM_UNI, WC_UNI):
            for d in rng.uniform(0.01, 2.0, size=20):
                x = inverse_distance(prof, float(d))
                assert distance(prof, x) == pytest.approx(d, rel=1e-10)

    def test_wc_closed_inverse(self):
        d = distance(WC_UNI, 0.5)
        assert inverse_distance(WC_UNI, float(d)) == pytest.approx(0.5, rel=1e-14)

    def test_decreasing_profile_boundaries(self):
        assert inverse_distance(CARD_CURVE, 0.0) == pytest.approx(0.5, rel=1e-14)
        assert inverse_distance(CARD_CURVE, SQRT_LOG2) == pytest.approx(0.0, abs=1e-9)
        assert inverse_distance(VM_PM, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            inverse_distance(VM_PM, 1.5)
        with pytest.raises(ValueError):
            inverse_distance(CARD_UNI, SQRT_1M_LOG2 * 1.001)
        with pytest.raises(ValueError):
            inverse_distance(WC_UNI, -0.01)

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_against_bisection_oracle(self, profile):
        # the exact float crossing of d(x) = target, found by bisection over
        # the ordered bit patterns of [0, largest parameter]; the inverse
        # must match it to 1e-10 relative, or to the parameter interval
        # that d cannot tell apart within 4 ulps where that is wider.
        # Distances run from 1e-150 up: below, d(x) ~ x squares x into
        # the subnormals and is not accurate itself.
        top = TOP_PARAM[profile.family]
        increasing = profile.direction is Direction.INCREASING

        def crossing(target):
            lo = np.zeros(target.shape, np.int64)
            hi = np.full(target.shape, np.float64(top)).view(np.int64)
            for _ in range(64):
                mid = lo + (hi - lo) // 2
                v = profile.dist(mid.view(np.float64))
                below = v < target if increasing else v > target
                lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            return hi.view(np.float64)

        d_top = float(profile.dist(top))
        d_end = float(profile.dist(0.0))
        d_lo, d_hi = min(d_top, d_end), max(d_top, d_end)
        switches = [float(profile.dist(x)) for x in SWITCHES[profile.family]]
        rng = np.random.default_rng(3)
        ds = np.array(sorted(
            {v for x in [d_lo, d_hi, 1e-150, 1e-12, *switches]
             for v in neighbours(x, max(d_lo, 1e-150), d_hi)}
            | set(rng.uniform(d_lo, d_hi, 200))
        ))
        # the cardioid's d_max is not attained, though d(_ELL_MAX) rounds to it
        ds = ds[(ds != d_end) & (ds < profile.d_max)]
        got = np.asarray(inverse_distance(profile, ds))
        want = crossing(ds)
        band = np.abs(crossing(ds * (1.0 + 2.0 ** -50)) - crossing(ds * (1.0 - 2.0 ** -50)))
        err = np.abs(got - want)
        assert np.all(err <= np.maximum(1e-10 * want, band)), ds[np.argmax(err / np.maximum(1e-10 * want, band))]
        # the exact ends, which the inverse reports without searching
        assert inverse_distance(profile, d_end) == 0.0

    @given(st.floats(min_value=1e-4, max_value=0.55))
    @settings(max_examples=40, deadline=None)
    def test_card_uniform_round_trip_property(self, d):
        if d >= SQRT_1M_LOG2:
            return
        x = inverse_distance(CARD_UNI, d)
        assert distance(CARD_UNI, x) == pytest.approx(d, rel=1e-9)

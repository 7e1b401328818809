import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as scipy_special

from circpc import divergence, special
from circpc.distributions import DistributionSpec, Family
from circpc.divergence import (
    _CARD_L3_SERIES,
    _ELL_MAX,
    _KAPPA_MAX,
    _LINEAR_CUT,
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
from circpc.harness import full_study_config
from circpc.pc_priors import PcPrior, TailSpec, attainable_alpha_range, calibrate_lambda, pc_pdf, pc_sample
from circpc.special import _RATIO_TAIL_SWITCH, _TINY, log_bessel_i0

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


# the ways a kernel is called: Python float, numpy scalar and 0-d array
# run only the live form; an array reaching both support ends runs each
# form on the elements of its interval (its first element is compared)
SCALAR_FORMS = (float, np.float64, lambda x: np.asarray(x, dtype=float))


def log_uniform(u, lo, hi):
    """The point a fraction u of the way from lo to hi on the log scale."""
    return min(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))), hi)


# the pairs whose inverse is a Newton search, and the search of each
SEARCHES = {
    VM_UNI: divergence._VM_UNIFORM_SEARCH,
    VM_PM: divergence._VM_POINTMASS_SEARCH,
    CARD_UNI: divergence._CARD_UNIFORM_SEARCH,
    CARD_CURVE: divergence._CARD_CURVE_SEARCH,
}
SEARCHED = tuple(SEARCHES)
# the distances where each search's series start switches form
SERIES_SWITCHES = {VM_UNI: (1.0,), VM_PM: (math.sqrt(0.5),), CARD_UNI: (0.4,), CARD_CURVE: (0.5,)}


def inverse_targets(profile):
    """Sorted attainable distances of a pair: both ends of its range, the
    cuts of its inverse's forms, the series switches, the first, some
    inner and the last values of its start table with their float
    neighbours and points beyond them, and random points."""
    top = float(profile.dist(TOP_PARAM[profile.family]))
    lo, hi = sorted((top, float(profile.dist(0.0))))
    if profile is not VM_PM:
        lo = 0.0
    points = [lo, hi, 1e-300, 1e-150, 0.5 * _LINEAR_CUT, _LINEAR_CUT, 1e-12, *SERIES_SWITCHES.get(profile, ())]
    if profile in SEARCHES:
        table = np.abs(SEARCHES[profile].values)
        points += [float(v) for v in table[[0, 1, 500, 960, 1919, 1920]]]
        ends = (table.min(), table.max())
        points += [0.5 * ends[0], 0.5 * (ends[1] + hi)]
    rng = np.random.default_rng(9)
    points += list(rng.uniform(lo, hi, 60))
    points += [log_uniform(u, max(lo, 1e-300), hi) for u in rng.random(40)]
    return np.array(sorted({v for x in points for v in neighbours(x, lo, hi, k=2)}))


def pin_targets(profile):
    """A fixed grid of a pair's distances for its bit pins: 1e-300 (and 0
    where the inverse takes it) up to the top of the range, log- and
    linearly spaced, with the float neighbours of every cut of the
    inverse, every series switch and both ends and some inner nodes of
    the start table. The wrapped Cauchy grid runs on past d(_RHO_MAX),
    where the closed form saturates."""
    top = float(profile.dist(TOP_PARAM[profile.family]))
    hi = max(top, float(profile.dist(0.0)))
    if profile is WC_UNI:
        hi = 100.0
    lo = 1e-300 if profile is VM_PM else 0.0
    points = [lo, 1e-300, hi, top, 0.5 * _LINEAR_CUT, _LINEAR_CUT, _TINY, 1.0,
              SQRT_LOG2, SQRT_1M_LOG2, *SERIES_SWITCHES.get(profile, ())]
    if profile in SEARCHES:
        points += [float(v) for v in np.abs(SEARCHES[profile].values)[[0, 1, 500, 960, 1919, 1920]]]
    points += list(np.geomspace(1e-300, hi, 1500)) + list(np.linspace(0.0, hi, 500))
    return np.array(sorted({v for x in points for v in neighbours(x, lo, hi, k=2)}))


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

    def test_profiles_equal_when_their_maps_are(self):
        # == and hash take the kernels in: a copy computes the same map, and
        # one with another inverse does not
        copy = dataclasses.replace(VM_UNI)
        assert copy is not VM_UNI and copy == VM_UNI and hash(copy) == hash(VM_UNI)
        other = dataclasses.replace(VM_UNI, inverse=lambda d, args=(): VM_UNI.inverse(d, args))
        assert other != VM_UNI
        profiles = list(divergence._PROFILES.values())
        assert len(profiles) == 5 and len(set(profiles)) == 5
        assert all(p != q for i, p in enumerate(profiles) for q in profiles[i + 1:])

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
            d_arr, g_arr = profile.dist_deriv(arr)
            assert np.array_equal(_bits(profile.dist(arr)), _bits(d_arr))
            for form in (float, np.float64, lambda x: np.asarray(x, dtype=float)):
                xs = [form(x) for x in grid]
                ds, gs = zip(*(profile.dist_deriv(x) for x in xs))
                assert np.array_equal(_bits(ds), _bits(d_arr))
                assert np.array_equal(_bits(gs), _bits(g_arr))
                assert np.array_equal(_bits(profile.dist(x) for x in xs), _bits(d_arr))
        assert np.all(np.isfinite(d_arr)) and np.all(np.isfinite(g_arr))

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_gathered_array_call_matches_scalar_calls(self, profile):
        # the grid shuffled, with repeats, as a 2-d array: each element of
        # the array call has the bits of its own scalar call
        grid = kernel_grid(profile)
        rng = np.random.default_rng(5)
        arr = rng.permutation(np.concatenate([grid, grid[::3]]))
        arr = arr[: arr.size // 2 * 2].reshape(2, -1)
        with np.errstate(all="raise", under="ignore"):
            d_arr, g_arr = profile.dist_deriv(arr)
            ds, gs = zip(*(profile.dist_deriv(float(x)) for x in arr.ravel()))
        assert d_arr.shape == g_arr.shape == arr.shape
        assert np.array_equal(_bits(ds), _bits(d_arr.ravel()))
        assert np.array_equal(_bits(gs), _bits(g_arr.ravel()))


    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    @given(u=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_scalar_path_matches_array_path_property(self, profile, u):
        # a scalar runs only its own form, an array each form on the
        # elements of its interval; both must give the same bits, anywhere
        # from 1e-300 to the largest parameter
        top = TOP_PARAM[profile.family]
        x = log_uniform(u, 1e-300, top)
        ds, gs = [], []
        with np.errstate(all="raise", under="ignore"):
            for form in (*SCALAR_FORMS, lambda v: np.array([v, 0.0, top])):
                d, g = profile.dist_deriv(form(x))
                ds.append(np.ravel(d)[0])
                gs.append(np.ravel(g)[0])
        assert len(set(_bits(ds))) == 1, (x, ds)
        assert len(set(_bits(gs))) == 1, (x, gs)


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

    # SHA-256 of inverse_distance over pin_targets, first 16 hex digits.
    # The inverse's bits are pinned like the sampler's chains: a rewrite
    # of the inverse must give every element the same float. Recorded
    # with numpy 2.4 and scipy 1.17 on x86-64 Linux.
    PINS = {
        (Family.VON_MISES, BaseModel.UNIFORM): "380b8fd9c3ac3f06",
        (Family.VON_MISES, BaseModel.POINT_MASS): "03d0f0d1fff07514",
        (Family.CARDIOID, BaseModel.UNIFORM): "f06fbcebcd8733b2",
        (Family.CARDIOID, BaseModel.CARDIOID_CURVE): "adfcf426e9f27a30",
        (Family.WRAPPED_CAUCHY, BaseModel.UNIFORM): "ca4b9a769b27d238",
    }

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_bits_pinned(self, profile):
        ds = pin_targets(profile)
        assert ds.size > 3000 and 1e-300 in ds
        got = np.ascontiguousarray(inverse_distance(profile, ds), dtype=np.float64)
        assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == self.PINS[profile.family, profile.base]

    def test_wc_closed_inverse(self):
        d = distance(WC_UNI, 0.5)
        assert inverse_distance(WC_UNI, float(d)) == pytest.approx(0.5, rel=1e-14)

    def test_decreasing_profile_boundaries(self):
        assert inverse_distance(CARD_CURVE, 0.0) == pytest.approx(0.5, rel=1e-14)
        assert inverse_distance(CARD_CURVE, SQRT_LOG2) == pytest.approx(0.0, abs=1e-9)
        assert inverse_distance(VM_PM, 1.0) == pytest.approx(0.0, abs=1e-9)
        # the wrapped Cauchy closed form saturates at the largest rho below 1
        assert inverse_distance(WC_UNI, 100.0) == _RHO_MAX

    # the closed interval of distances each pair's inverse takes: from 0
    # (from the smallest positive float on the point mass, whose d = 0 no
    # float kappa has) up to d(e^709) on the von Mises uniform base and
    # d_max on the bounded pairs; the wrapped Cauchy takes every finite d
    DOMAINS = {
        VM_UNI: (0.0, 18.839292410629565),
        VM_PM: (5e-324, 1.0),
        CARD_UNI: (0.0, 0.5539429748990907),
        CARD_CURVE: (0.0, 0.8325546111576977),
        WC_UNI: (0.0, math.inf),
    }

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_domain_ends(self, profile):
        # both ends are inverted, as a scalar and in one array, and the
        # next float beyond each raises
        lo, hi = self.DOMAINS[profile]
        assert profile.domain == (lo, hi)
        top = min(hi, np.finfo(float).max)
        with np.errstate(over="ignore"):
            ends = [inverse_distance(profile, lo), inverse_distance(profile, top)]
            assert np.array_equal(inverse_distance(profile, np.array([lo, top])), ends)
        for past in (math.nextafter(lo, -math.inf), math.nextafter(top, math.inf)):
            with pytest.raises(ValueError):
                inverse_distance(profile, past)

    # the largest distance a float parameter has, on the pairs whose d is
    # unbounded: vm/uniform's domain top, and d(largest rho below 1),
    # where the wrapped Cauchy's inverse saturates
    TOPS = {VM_UNI: 18.839292410629565, WC_UNI: 6.003636680306125}

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_top_distance(self, profile):
        top = self.TOPS.get(profile)
        assert profile.d_top == top
        if top is not None:
            assert distance(profile, TOP_PARAM[profile.family]) == top
            assert inverse_distance(profile, top) == TOP_PARAM[profile.family]

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            inverse_distance(VM_PM, 1.5)
        with pytest.raises(ValueError):
            inverse_distance(CARD_UNI, SQRT_1M_LOG2 * 1.001)
        with pytest.raises(ValueError):
            inverse_distance(WC_UNI, -0.01)
        # the ends no parameter reaches: d = 0 for the point mass, and
        # beyond d(_KAPPA_MAX) for the uniform base
        with pytest.raises(ValueError):
            inverse_distance(VM_PM, 0.0)
        with pytest.raises(ValueError):
            inverse_distance(VM_UNI, 100.0)

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_against_bisection_oracle(self, profile):
        # the exact float crossing of d(x) = target, found by bisection over
        # the ordered bit patterns of [0, largest parameter]; the inverse
        # must match it to 1e-10 relative, or to the parameter interval
        # that d cannot tell apart within 4 ulps where that is wider.
        # Distances run from 1e-300 up, through the linear forms that
        # keep d exact where squaring the parameter would underflow.
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
            {v for x in [d_lo, d_hi, 1e-300, 1e-150, 1e-12, *switches]
             for v in neighbours(x, max(d_lo, 1e-300), d_hi)}
            | set(rng.uniform(d_lo, d_hi, 200))
        ))
        # the cardioid's d_max is not attained; it stands for the open end,
        # to which d(_ELL_MAX) rounds (see the support-edge round trip)
        ds = ds[(ds != d_end) & (ds < profile.d_max)]
        got = np.asarray(inverse_distance(profile, ds))
        want = crossing(ds)
        band = np.abs(crossing(ds * (1.0 + 2.0 ** -50)) - crossing(ds * (1.0 - 2.0 ** -50)))
        err = np.abs(got - want)
        assert np.all(err <= np.maximum(1e-10 * want, band)), ds[np.argmax(err / np.maximum(1e-10 * want, band))]
        # the exact ends, which the inverse reports without searching
        assert inverse_distance(profile, d_end) == 0.0

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_round_trip_at_support_edges(self, profile):
        # 0 and the largest parameter (e^709 for von Mises, or the largest
        # float below the open end) come back from their own distances; so do
        # parameters deep inside the linear form of the uniform-base pairs
        edges = [0.0, TOP_PARAM[profile.family]]
        if profile.direction is Direction.INCREASING:
            edges += [1e-300, 1e-310]
        for x in edges:
            back = inverse_distance(profile, distance(profile, x))
            assert back == pytest.approx(x, rel=1e-12, abs=0), x

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_two_dimensional_input(self, profile):
        # a 2-d array inside one interval of the inverse's forms, and one
        # straddling its cuts, come back in their own shape with the
        # values of the 1-d call
        targets = inverse_targets(profile)
        straddling = targets[np.linspace(0, targets.size - 1, 12).astype(int)]
        for ds in (np.array([0.02, 0.1, 0.2, 0.45]), straddling):
            grid = ds.reshape(2, -1)
            got = inverse_distance(profile, grid)
            assert got.shape == grid.shape
            assert np.array_equal(_bits(got.ravel()), _bits(inverse_distance(profile, ds)))

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_array_call_matches_scalar_calls(self, profile):
        # the targets shuffled, with repeats, as a 2-d array: each element
        # has the bits of its own scalar call, whether it starts from a
        # table interval, a node value, or the series beyond the table
        ds = inverse_targets(profile)
        rng = np.random.default_rng(7)
        arr = rng.permutation(np.concatenate([ds, ds[::3]]))
        arr = arr[: arr.size // 2 * 2].reshape(2, -1)
        with np.errstate(all="raise", under="ignore"):
            got = inverse_distance(profile, arr)
            alone = [inverse_distance(profile, float(d)) for d in arr.ravel()]
        assert got.shape == arr.shape
        assert np.array_equal(_bits(alone), _bits(got.ravel()))

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_target_order_changes_no_bit(self, profile):
        # each block is solved in the order of its sorted targets, so no
        # order of the input may move a bit: three full blocks and a part,
        # from distances at every kernel cut, both ends of the start table,
        # the series beyond them and 1e-300
        cuts = profile.dist(np.array(kernel_grid(profile)))
        pool = np.union1d(inverse_targets(profile), np.append(cuts, 1e-300))
        if profile in SEARCHES:
            ends = np.abs(SEARCHES[profile].values[[0, -1]])
            assert np.all(np.isin(ends, pool)) and pool.min() < ends.min() and pool.max() > ends.max()
        rng = np.random.default_rng(14)
        n = 3 * divergence._NEWTON_BLOCK + 17
        d = rng.permutation(np.concatenate([pool, rng.choice(pool, n - pool.size)]))
        want = inverse_distance(profile, d).view(np.int64)
        for perm in (rng.permutation(n), np.arange(n)[::-1]):
            assert np.array_equal(inverse_distance(profile, d[perm]).view(np.int64), want[perm])

    @pytest.mark.parametrize("profile", SEARCHED, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_blocks_take_sorted_keys_and_stop_after_one_step(self, profile, monkeypatch):
        # a target equal to a start-table value starts on its node and hits
        # its root exactly, so every element of every block finishes on the
        # first step: one g call per block, on non-decreasing targets
        search = SEARCHES[profile]
        g, solve, blocks = search.g, divergence._solve_block, []

        def counted(t):
            blocks[-1][1] += 1
            return g(t)

        def spy(g, target, t, lo, hi):
            blocks.append([target.copy(), 0])
            return solve(g, target, t, lo, hi)

        monkeypatch.setattr(search, "g", counted)
        monkeypatch.setattr(divergence, "_solve_block", spy)
        rng = np.random.default_rng(16)
        # the last node is where the series beyond the table takes over
        nodes = rng.integers(0, divergence._TABLE_T.size - 1, 2 * divergence._NEWTON_BLOCK + 17)
        got = inverse_distance(profile, np.abs(search.values[nodes]))
        assert len(blocks) == 3
        for target, calls in blocks:
            assert np.all(np.diff(target) >= 0.0) and calls == 1
        assert np.array_equal(got, search.param(divergence._TABLE_T[nodes]))

    def test_exact_root_keeps_its_point(self):
        # on g(t) = t, an element started on its root keeps its t, even
        # -0.0, whose Newton point -0.0 - (-0.0 / 1) would be +0.0; 0.25
        # and -0.5 take one Newton step to the root and stop on the next
        g = lambda t: (t * 1.0, np.ones_like(t))
        t = np.array([-0.0, 0.0, 0.25, -0.5])
        got = divergence._solve_block(g, np.zeros(4), t, -1.0, 1.0)
        assert np.array_equal(np.signbit(got), [True, False, False, False]) and not got.any()

    def test_vm_uniform_top_skips_the_search(self, monkeypatch):
        # d_top, where pc_sample clips every draw beyond it, is e^709 from
        # the inverse's top form, with no block solved; the search agrees
        # there bit for bit, so the cut moves no element
        d = np.full(3 * divergence._NEWTON_BLOCK + 1, VM_UNI.d_top)
        solve, blocks = divergence._solve_block, []

        def spy(g, target, t, lo, hi):
            blocks.append(target.size)
            return solve(g, target, t, lo, hi)

        monkeypatch.setattr(divergence, "_solve_block", spy)
        got = inverse_distance(VM_UNI, d)
        assert blocks == []
        assert np.array_equal(got.view(np.int64), np.full(d.size, _KAPPA_MAX).view(np.int64))
        searched = divergence._VM_UNIFORM_SEARCH(special._ARRAY_MATH, d)
        assert len(blocks) == 4
        assert np.array_equal(searched.view(np.int64), got.view(np.int64))

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: f"{p.family.value}-{p.base.value}")
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_input(self, profile, shape):
        # no element reaches a form, not even the one for distances no
        # parameter has
        got = inverse_distance(profile, np.empty(shape))
        assert got.shape == shape

    @pytest.mark.parametrize("profile", SEARCHED, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_start_tables_increase(self, profile):
        search = SEARCHES[profile]
        assert search.values.size == divergence._TABLE_T.size
        assert np.all(np.diff(search.values) > 0.0)

    @pytest.mark.parametrize("profile", SEARCHED, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_one_evaluation_per_element(self, profile, monkeypatch):
        # draws of the study's PC priors start close enough to their roots
        # that one Newton step ends nearly every search
        search = SEARCHES[profile]
        g, evaluated = search.g, []

        def counted(t):
            evaluated.append(np.size(t))
            return g(t)

        monkeypatch.setattr(search, "g", counted)
        # the PC tail statements of the full study grid for this pair,
        # calibrated under truncated normalization where attainable
        tails = [
            TailSpec(spec.U, spec.hypers[0])
            for spec in full_study_config(profile.family).prior_specs
            if spec.kind == f"pc_{profile.base.value}"
        ]
        draws = 0
        for seed, tail in enumerate(tails):
            lo, hi = attainable_alpha_range(profile.family, profile.base, tail.U)
            if lo < tail.alpha < hi:
                lam = calibrate_lambda(profile.family, profile.base, tail)
                draws += pc_sample(PcPrior(profile.family, profile.base, lam), 40000, seed).size
        assert draws >= 40000
        assert sum(evaluated) <= 1.05 * draws, sum(evaluated) / draws

    @pytest.mark.parametrize("profile", SEARCHED, ids=lambda p: f"{p.family.value}-{p.base.value}")
    def test_inside_matches_per_target_search(self, profile):
        # a sorted run of targets inside the start table gets, bit for bit,
        # the start and bracket of each target's own interval: the one a
        # per-target searchsorted over every node finds
        search = SEARCHES[profile]
        v = search.values

        def per_target(target):
            j = np.searchsorted(v, target, side="right") - 1
            v_j, inv_h, c1, c2, c3, t0, t1 = search._rows.take(j, axis=1)
            u = (target - v_j) * inv_h
            return t0 + u * (c1 + u * (c2 + u * c3)), t0, t1

        rng = np.random.default_rng(18)
        mid = 0.5 * (v[:-1] + v[1:])
        runs = [
            v[:-1],  # every node, the first included
            mid,  # between every two nodes
            v[700:1000],  # nodes of 300 intervals
            np.repeat(v[[5, 6, 6, 6, 7]], 3),  # repeated nodes
            np.sort(rng.uniform(v[0], v[-1], 4096)),  # random, across the whole table
            np.sort(rng.uniform(v[800], v[1100], 4096)),  # random, across 300 intervals
            np.sort(np.concatenate([v[200:500], mid[200:500], rng.uniform(v[200], v[500], 500)])),
            np.sort(rng.uniform(v[42], v[43], 50)),  # one interval
            v[[0]], mid[[1918]],  # a single target, at either end
            np.array([np.nextafter(v[-1], -np.inf)]),  # the last one inside
        ]
        for target in runs:
            assert np.all(np.diff(target) >= 0.0) and v[0] <= target[0] and target[-1] < v[-1]
            got, want = search._inside(special._ARRAY_MATH, target), per_target(target)
            for g, w in zip(got, want):
                assert np.array_equal(g.view(np.int64), w.view(np.int64))

    @given(st.floats(min_value=1e-4, max_value=0.55))
    @settings(max_examples=40, deadline=None)
    def test_card_uniform_round_trip_property(self, d):
        if d >= SQRT_1M_LOG2:
            return
        x = inverse_distance(CARD_UNI, d)
        assert distance(CARD_UNI, x) == pytest.approx(d, rel=1e-9)


class _NoBessel:
    """scipy.special without i0e and i1e: reaching them fails the test."""

    def __getattr__(self, name):
        if name in ("i0e", "i1e"):
            raise AssertionError(f"scipy.special.{name} reached outside the namespaces' i0e and i1e")
        return getattr(scipy_special, name)


class TestBesselPasses:
    """Each element evaluates i0e and i1e once each, in the one form that
    holds it, through the namespace's i0e and i1e."""

    # every interval of vm/uniform (linear, series, direct with the direct
    # r', direct with the tail r', asymptotic) and vm/pointmass (0, direct, tail)
    GRID = np.array([0.0, 1e-200, 1e-100, 1e-3, 0.05, 0.5, 3.0, 500.0, 2e3, 5e3, 2e4, 1e300])
    # the parameters whose forms evaluate the Bessel functions
    BESSEL = {VM_UNI: (_LINEAR_CUT, _VM_RADICAND_LARGE), VM_PM: (_TINY, _RATIO_TAIL_SWITCH)}

    @pytest.fixture
    def seen(self, monkeypatch):
        # the arguments of every i0e and every i1e call, float or array
        seen = {"i0e": [], "i1e": []}

        def counted(name, fn):
            def call(x):
                seen[name].append(np.array(x, dtype=float).ravel())
                return fn(x)
            return call

        for ns in (special._FLOAT_MATH, special._ARRAY_MATH):
            for name in seen:
                monkeypatch.setattr(ns, name, counted(name, getattr(ns, name)))
        monkeypatch.setattr(special, "_sp", _NoBessel())
        return seen

    def expected(self, profile, params):
        lo, hi = self.BESSEL[profile]
        params = np.asarray(params, dtype=float).ravel()
        return np.sort(params[(params >= lo) & (params < hi)])

    @staticmethod
    def evaluated(calls):
        return np.sort(np.concatenate(calls)) if calls else np.empty(0)

    def assert_once_each(self, seen, want):
        for name, calls in seen.items():
            assert np.array_equal(self.evaluated(calls), want), name
            calls.clear()

    @pytest.mark.parametrize("profile", (VM_UNI, VM_PM), ids=("vm-uniform", "vm-pointmass"))
    def test_distance_deriv_and_pc_pdf(self, profile, seen):
        want = self.expected(profile, self.GRID)
        assert want.size >= 6
        prior = PcPrior(profile.family, profile.base, 1.3)
        for call in (lambda x: distance_deriv(profile, x), lambda x: pc_pdf(prior, x)):
            call(self.GRID)
            self.assert_once_each(seen, want)
            for x in self.GRID:
                call(float(x))
            self.assert_once_each(seen, want)

    @pytest.mark.parametrize("profile", (VM_UNI, VM_PM), ids=("vm-uniform", "vm-pointmass"))
    def test_one_newton_step(self, profile, seen, monkeypatch):
        # the spy sees each block's starts as the solver takes them, from
        # the node tables (built at import) or the series beyond them
        starts = []
        solve = divergence._solve_block

        def spy(g, target, t, lo, hi):
            starts.append(np.exp(np.minimum(np.maximum(t, lo), hi)))
            return solve(g, target, t, lo, hi)

        monkeypatch.setattr(divergence, "_solve_block", spy)
        monkeypatch.setattr(divergence, "_NEWTON_MAX_STEPS", 1)
        params = self.GRID[self.GRID > 0.0] if profile is VM_PM else self.GRID
        ds = distance(profile, params)
        for calls in seen.values():
            calls.clear()
        inverse_distance(profile, ds)
        want = self.expected(profile, np.concatenate(starts))
        assert want.size >= 4
        self.assert_once_each(seen, want)

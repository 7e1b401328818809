import dataclasses
import hashlib
import math
import pickle
import struct
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from circpc.distributions import TWO_PI, Family
from circpc.divergence import BaseModel, distance, distance_deriv, inverse_distance, profile_for
from circpc.harness import build_concentration_prior, full_study_config
from circpc import reference_priors
from circpc.pc_priors import PcPrior, TailSpec, attainable_alpha_range, calibrate_lambda, pc_pdf
from circpc.reference_priors import (
    Beta,
    CircularUniformLocation,
    GammaOneB,
    H2,
    H3,
    ScaledBetaHalf,
    UniformHalf,
    VonMisesConjugate,
    _audit_grid,
    _log_density_fn,
    distance_scale_pdf,
    overfit_audit,
    ref_pdf,
)
from circpc.special import log_bessel_i0

VM_UNI = profile_for(Family.VON_MISES, BaseModel.UNIFORM)
VM_PM = profile_for(Family.VON_MISES, BaseModel.POINT_MASS)
CARD_UNI = profile_for(Family.CARDIOID, BaseModel.UNIFORM)
CARD_CURVE = profile_for(Family.CARDIOID, BaseModel.CARDIOID_CURVE)
WC_UNI = profile_for(Family.WRAPPED_CAUCHY, BaseModel.UNIFORM)


class TestDensities:
    def test_h2_at_zero(self):
        assert H2().pdf(0.0) == pytest.approx(2.0 / math.pi, rel=1e-15)

    def test_h3_zero_at_origin_then_positive(self):
        assert H3().pdf(0.0) == 0.0
        assert H3().pdf(0.5) > 0.0

    def test_heavy_tails_integrate_to_one(self):
        for prior in (H2(), H3(), GammaOneB(0.34)):
            val, _ = integrate.quad(prior.pdf, 0.0, np.inf)
            assert val == pytest.approx(1.0, abs=1e-9), prior

    def test_gamma_is_exponential(self):
        g = GammaOneB(2.0)
        xs = np.linspace(0.0, 5.0, 50)
        assert g.pdf(xs) == pytest.approx(stats.expon.pdf(xs, scale=0.5), rel=1e-12)

    def test_gamma_rejects_bad_rate(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                GammaOneB(bad)

    def test_beta_matches_scipy(self):
        b = Beta(2.5, 1.5)
        xs = np.linspace(0.01, 0.99, 40)
        assert b.pdf(xs) == pytest.approx(stats.beta.pdf(xs, 2.5, 1.5), rel=1e-12)

    def test_beta_endpoint_at_a_equal_one(self):
        # density at 0 finishes the shape limit: b*(1-x)^(b-1) -> b
        assert Beta(1.0, 3.0).pdf(0.0) == pytest.approx(3.0, rel=1e-12)

    def test_scaled_beta_half_is_change_of_variables(self):
        sb = ScaledBetaHalf(2.0, 5.0)
        xs = np.linspace(0.01, 0.49, 30)
        assert sb.pdf(xs) == pytest.approx(2.0 * stats.beta.pdf(2.0 * xs, 2.0, 5.0), rel=1e-12)
        val, _ = integrate.quad(sb.pdf, 0.0, 0.5)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_uniform_half(self):
        assert UniformHalf().pdf(0.3) == 2.0

    def test_circular_uniform_location(self):
        assert CircularUniformLocation().pdf(1.0) == pytest.approx(1.0 / TWO_PI)

    def test_von_mises_conjugate_hand_value(self):
        vc = VonMisesConjugate(2.0, 0.7, 0.0)
        want = math.exp(0.7 * math.cos(0.0) - 2.0 * log_bessel_i0(1.0))
        assert ref_pdf(vc, (0.0, 1.0)) == pytest.approx(want, rel=1e-14)

    def test_von_mises_conjugate_validation(self):
        with pytest.raises(ValueError):
            VonMisesConjugate(0.0, 0.5, 0.0)
        vc = VonMisesConjugate(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            vc.pdf(0.0, -1.0)
        with pytest.raises(ValueError):
            vc.pdf(math.nan, 1.0)

    @pytest.mark.parametrize("family,base", [
        ("vm", "uniform"), ("vm", "pointmass"), ("cardioid", "uniform"), ("cardioid", "curve"), ("wc", "uniform"),
    ])
    def test_ref_pdf_of_a_pc_prior_is_pc_pdf(self, family, base):
        prior = PcPrior(family, base, 1.3)
        hi = min(prior.support[1], 50.0)
        grid = np.linspace(0.0, np.nextafter(hi, 0.0), 201)
        assert ref_pdf(prior, grid).tobytes() == pc_pdf(prior, grid).tobytes()
        for x in (0.0, 0.25 * hi, 0.5 * hi):
            got, want = ref_pdf(prior, x), pc_pdf(prior, x)
            assert type(got) is float and got.hex() == want.hex()

    def test_ref_pdf_out_of_support_raises(self):
        with pytest.raises(ValueError):
            ref_pdf(GammaOneB(1.0), -0.5)
        with pytest.raises(ValueError):
            ref_pdf(Beta(2.0, 2.0), 1.0)
        with pytest.raises(ValueError):
            ref_pdf(UniformHalf(), 0.5)
        with pytest.raises(ValueError):
            ref_pdf(H2(), math.inf)


class TestDistanceScale:
    def test_beta_on_wc_matches_closed_form(self):
        # rho(d) = sqrt(1 - e^(-d^2)) gives Jacobian d*e^(-d^2)/rho
        prior = Beta(2.0, 3.0)
        ds = np.linspace(0.05, 1.5, 100)
        got = distance_scale_pdf(prior, WC_UNI, ds)
        rho = np.sqrt(-np.expm1(-ds * ds))
        want = prior.pdf(rho) * ds * np.exp(-ds * ds) / rho
        assert np.max(np.abs(got - want)) < 1e-9

    def test_mass_is_conserved(self):
        prior = Beta(2.0, 3.0)
        val, _ = integrate.quad(
            lambda d: distance_scale_pdf(prior, WC_UNI, d), 0.0, 6.0, limit=200
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_pc_prior_is_exponential_on_distance_scale(self):
        lam = 1.3
        for prof in (VM_UNI, VM_PM, CARD_UNI, CARD_CURVE, WC_UNI):
            prior = PcPrior(prof.family, prof.base, lam)
            z = 1.0 if math.isinf(prof.d_max) else 1.0 - math.exp(-lam * prof.d_max)
            ds = np.linspace(0.05, 0.95 * min(prof.d_max, 3.0), 60)
            got = distance_scale_pdf(prior, prof, ds)
            want = lam * np.exp(-lam * ds) / z
            assert got == pytest.approx(want, rel=1e-9), prof

    def test_point_mass_far_end(self):
        # from kappa = 2^511 (d below ~5e-77) the point-mass |d'| is formed
        # from subnormals, and past kappa ~ 1e161 (d below ~1e-81) it
        # underflows to 0; the push-forward stays finite, with no warning,
        # down to d = 1e-300, where the inverse has saturated at the largest
        # kappa (the suite turns a RuntimeWarning into an error)
        ds = np.array([1e-50, 1e-80, 1e-99, 1e-101, 1e-154, 1e-200, 1e-300])
        lam = 0.5
        pc = PcPrior("vm", "pointmass", lam)
        want = lam * np.exp(-lam * ds) / -math.expm1(-lam)
        for got in (distance_scale_pdf(pc, VM_PM, ds), [distance_scale_pdf(pc, VM_PM, d) for d in ds]):
            assert got == pytest.approx(want, rel=1e-12)
        assert np.all(distance_scale_pdf(GammaOneB(1.0), VM_PM, ds) == 0.0)
        # H2 and H3 near d = 0 are (8/pi) d and 4 d: their densities in log
        # kappa, (2/pi)/kappa and 1/kappa, over kappa |d'| ~ 1/(2 kappa d)
        for prior, slope in ((H2(), 8.0 / math.pi), (H3(), 4.0)):
            got = distance_scale_pdf(prior, VM_PM, ds)
            assert np.all(np.isfinite(got)) and np.all(got > 0.0), prior
            assert [distance_scale_pdf(prior, VM_PM, d) for d in ds] == got.tolist(), prior
            assert got[1:4] == pytest.approx(slope * ds[1:4], rel=1e-6), prior
        # below kappa = 2^511 the quotient keeps its bits
        assert distance_scale_pdf(H2(), VM_PM, 1e-50) == 2.546479089470314e-50
        assert distance_scale_pdf(H3(), VM_PM, 1e-50) == 3.999999999999982e-50

    def test_uniform_base_far_end(self):
        # on the uniform base H2 and H3 far out are (8/pi) d / kappa and
        # 4 d / kappa, with log kappa = 2 d^2 + 1 - log(2 pi) + O(1/kappa):
        # their densities fall into the subnormals by d = 13.5 (kappa ~
        # 1e158) and to 0 from d ~ 13.6, while |d'| ~ 1/(4 d kappa) stays
        # normal, so from kappa = 2^511 the quotient is taken in log kappa
        ds = np.array([12.0, 13.0, 13.5, 14.0, 16.0])
        kappa = np.exp(2.0 * ds * ds + 1.0 - math.log(TWO_PI))
        for prior, slope in ((H2(), 8.0 / math.pi), (H3(), 4.0)):
            got = distance_scale_pdf(prior, VM_UNI, ds)
            assert got == pytest.approx(slope * ds / kappa, rel=1e-12, abs=0.0), prior
            assert [distance_scale_pdf(prior, VM_UNI, d) for d in ds] == got.tolist(), prior
        assert np.all(distance_scale_pdf(GammaOneB(1.0), VM_UNI, ds) == 0.0)

    def test_uniform_base_keeps_its_bits_below_the_far_end(self):
        # up to d = 13 (kappa below 2^511) the push-forward is the plain
        # quotient pi(kappa) / |d'(kappa)|, bit for bit
        ds = np.concatenate([np.linspace(1e-3, 13.0, 400), [13.0]])
        xi = inverse_distance(VM_UNI, ds)
        assert xi.max() < 2.0 ** 511
        for prior in (H2(), H3(), GammaOneB(1.0), PcPrior("vm", "pointmass", 0.4)):
            want = ref_pdf(prior, xi) if not isinstance(prior, PcPrior) else pc_pdf(prior, xi)
            want = want / distance_deriv(VM_UNI, xi)
            got = distance_scale_pdf(prior, VM_UNI, ds)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), prior

    def test_two_dimensional_grid(self):
        # a grid of any shape gives densities of that shape, equal to the
        # 1-d call's on the same distances
        ds = np.linspace(0.05, 0.5, 8)
        for prof in (VM_UNI, VM_PM, CARD_UNI, CARD_CURVE, WC_UNI):
            prior = PcPrior(prof.family, prof.base, 1.3)
            got = distance_scale_pdf(prior, prof, ds.reshape(2, 4))
            assert got.shape == (2, 4), prof
            assert np.array_equal(got.ravel(), distance_scale_pdf(prior, prof, ds)), prof

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_grid(self, shape):
        # an empty grid gives an empty density of its shape on every pair,
        # for the pair's own PC prior and for another prior
        for prof in (VM_UNI, VM_PM, CARD_UNI, CARD_CURVE, WC_UNI):
            other = {Family.VON_MISES: GammaOneB(1.0), Family.CARDIOID: ScaledBetaHalf(2.0, 2.0),
                     Family.WRAPPED_CAUCHY: Beta(2.0, 2.0)}[prof.family]
            for prior in (PcPrior(prof.family, prof.base, 1.3), other):
                assert distance_scale_pdf(prior, prof, np.empty(shape)).shape == shape, (prof, prior)

    def test_rejects_out_of_range_distance(self):
        with pytest.raises(ValueError):
            distance_scale_pdf(Beta(2.0, 2.0), WC_UNI, -0.1)
        with pytest.raises(ValueError):
            distance_scale_pdf(GammaOneB(1.0), VM_PM, 1.5)

    def test_wc_huge_distance(self):
        # the closed form saturates at the largest rho below 1 without
        # squaring a d that overflows (from d ~ 1.3e154)
        top = distance(WC_UNI, math.nextafter(1.0, 0.0))
        prior = Beta(2.0, 2.0)
        want_rho, want_pdf = inverse_distance(WC_UNI, top), distance_scale_pdf(prior, WC_UNI, top)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (1e200, 1e300):
                assert inverse_distance(WC_UNI, d) == want_rho
                assert distance_scale_pdf(prior, WC_UNI, d) == want_pdf
                assert np.array_equal(inverse_distance(WC_UNI, np.array([top, d])), [want_rho] * 2)
                assert np.array_equal(distance_scale_pdf(prior, WC_UNI, np.array([top, d])), [want_pdf] * 2)

    @pytest.mark.parametrize("prior,prof", [
        (GammaOneB(1.0), CARD_UNI),
        (H2(), WC_UNI),
        (Beta(2.0, 2.0), VM_UNI),
        (ScaledBetaHalf(2.0, 2.0), WC_UNI),
        (UniformHalf(), VM_PM),
        (PcPrior("vm", "uniform", 1.0), CARD_UNI),
        (PcPrior("wc", "uniform", 1.0), VM_UNI),
    ], ids=["gamma-cardioid", "h2-wc", "beta-vm", "scaled_beta-wc", "uniform_half-vm", "pc_vm-cardioid", "pc_wc-vm"])
    def test_rejects_a_prior_of_another_support(self, prior, prof):
        # a prior is read on the distance scale of a pair of its own family
        # only: both supports are named
        lo, hi = prof.support_lo, prof.support_hi
        match = rf"prior support \({prior.support[0]}, {prior.support[1]}\) does not match the {prof.family.value} concentration support \[{lo}, {hi}\)"
        with pytest.raises(ValueError, match=match):
            distance_scale_pdf(prior, prof, 0.1)
        with pytest.raises(ValueError, match=match):
            overfit_audit(prior, prof)

    def test_accepts_plain_callable(self):
        half_normal = lambda x: np.sqrt(2.0 / math.pi) * np.exp(-0.5 * x * x)
        v = distance_scale_pdf(half_normal, VM_UNI, 0.5)
        assert v > 0.0

    # the joint conjugate prior has no univariate support, and is no callable
    @pytest.mark.parametrize("prof", [VM_UNI, VM_PM, CARD_UNI, CARD_CURVE],
                             ids=["vm-uniform", "vm-pointmass", "cardioid-uniform", "cardioid-curve"])
    def test_rejects_the_joint_conjugate_prior(self, prof):
        with pytest.raises(TypeError, match="univariate support and pdf"):
            distance_scale_pdf(VonMisesConjugate(1.0, 0.5, 0.0), prof, 0.1)


class TestOverfitAudit:
    def test_h2_keeps_mass_at_base_model(self):
        report = overfit_audit(H2(), VM_UNI)
        assert report.density_at_zero == pytest.approx(4.0 / math.pi, rel=1e-7)
        assert report.monotone_decreasing
        assert report.classification == "base_model_favoring"

    def test_h3_vanishes_at_base_model(self):
        report = overfit_audit(H3(), VM_UNI)
        assert report.density_at_zero == pytest.approx(0.0, abs=1e-8)
        assert not report.monotone_decreasing
        assert report.classification == "complexity_favoring"
        assert report.argmax_d == pytest.approx(0.44533333333333336, abs=1e-12)

    def test_gamma_density_at_zero_is_rate_times_jacobian(self):
        report = overfit_audit(GammaOneB(0.68), VM_UNI)
        assert report.density_at_zero == pytest.approx(1.36, rel=1e-6)
        assert report.monotone_decreasing
        assert report.classification == "base_model_favoring"

    def test_pc_priors_always_base_model_favoring(self):
        cases = [
            (PcPrior(Family.VON_MISES, BaseModel.POINT_MASS, 1.3), VM_PM),
            (PcPrior(Family.CARDIOID, BaseModel.UNIFORM, 1.3), CARD_UNI),
            (PcPrior(Family.CARDIOID, BaseModel.CARDIOID_CURVE, 1.3), CARD_CURVE),
            (PcPrior(Family.WRAPPED_CAUCHY, BaseModel.UNIFORM, 2.0), WC_UNI),
        ]
        for prior, prof in cases:
            report = overfit_audit(prior, prof)
            lam = prior.lam
            z = -math.expm1(-lam * prof.d_max) if math.isfinite(prof.d_max) else 1.0
            assert report.density_at_zero == pytest.approx(lam / z, rel=5e-3), prior
            assert report.monotone_decreasing, prior
            assert report.classification == "base_model_favoring", prior

    def test_beta_shapes_flip_the_verdict(self):
        bump = overfit_audit(Beta(5.0, 2.0), WC_UNI)
        assert bump.classification == "complexity_favoring"
        assert bump.argmax_d == pytest.approx(0.8336246246246246, abs=1e-12)
        horseshoe = overfit_audit(Beta(0.5, 0.5), WC_UNI)
        assert horseshoe.density_at_zero == math.inf
        assert horseshoe.classification == "base_model_favoring"

    def test_audit_deterministic(self):
        a = overfit_audit(H2(), VM_UNI)
        b = overfit_audit(H2(), VM_UNI)
        assert a == b

    @pytest.mark.parametrize("grid_points", [1, 0, -3, True, 2.7, np.float64(2.5), math.nan])
    def test_rejects_grid_points(self, grid_points):
        # one point, or a bool or fraction made into a count, classified
        # Gamma(0.1) on vm/uniform as base_model_favoring
        assert overfit_audit(GammaOneB(0.1), VM_UNI).classification == "complexity_favoring"
        with pytest.raises(ValueError, match="grid_points"):
            overfit_audit(GammaOneB(0.1), VM_UNI, grid_points=grid_points)

    @pytest.mark.parametrize("prof,d_cap", [
        (VM_UNI, 5e-4),  # a descending grid
        (VM_UNI, 1e-3),  # a grid of one repeated point
        (VM_PM, 1.00001e-3),  # below the start once kept off the finite d_max
        (VM_PM, math.nan),  # ran as d_max
        (VM_UNI, math.nan),
        (VM_UNI, math.inf),
        (WC_UNI, -1.0),
    ], ids=lambda v: _pair_id(v) if hasattr(v, "base") else str(v))
    def test_rejects_d_cap(self, prof, d_cap):
        with pytest.raises(ValueError, match="d_cap"):
            overfit_audit(H2(), prof, d_cap=d_cap)

    @pytest.mark.parametrize("d_cap", [True, np.bool_(False)])
    def test_rejects_bool_d_cap(self, d_cap):
        # True ran as d_cap = 1.0
        with pytest.raises(ValueError, match="d_cap"):
            overfit_audit(H2(), VM_UNI, d_cap=d_cap)

    def test_d_cap_string_is_rejected(self):
        # a string is no number, even one that spells one
        with pytest.raises(ValueError, match="d_cap must be a number"):
            overfit_audit(H3(), VM_UNI, d_cap="3")

    def test_smallest_grid_and_cap(self):
        # two points are an audit, and so is a cap just above the start
        report = overfit_audit(H3(), VM_UNI, grid_points=2, d_cap=0.01)
        assert report.argmax_d == 0.01 and report.classification == "complexity_favoring"
        assert overfit_audit(H3(), VM_UNI, d_cap=math.nextafter(1e-3, 1.0)).argmax_d >= 1e-3
        assert overfit_audit(H2(), VM_PM, d_cap=math.inf) == overfit_audit(H2(), VM_PM, d_cap=1.0)
        assert overfit_audit(H2(), VM_UNI, grid_points=np.int64(50)).classification == "base_model_favoring"

    def test_report_dict_round_trip(self):
        report = overfit_audit(GammaOneB(1.0), VM_UNI)
        d = report.to_dict()
        assert set(d) == {
            "density_at_zero",
            "monotone_decreasing",
            "argmax_d",
            "classification",
        }


SHAPES = st.sampled_from((0.5, 1.0, 2.0, 5.0))


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


class TestScalarAndArrayCalls:
    """A density's scalar call skips the array conversion; a Python
    float, a numpy scalar, a 0-d array and the same point inside an
    array reaching both ends of the support give the same bits."""

    @given(
        prior=st.one_of(
            st.builds(GammaOneB, st.sampled_from((0.01, 0.34, 5.0))),
            st.just(H2()),
            st.just(H3()),
        ),
        x=st.floats(min_value=0.0, max_value=1.7e308),
    )
    @settings(max_examples=300, deadline=None)
    def test_unbounded_support(self, prior, x):
        self.check(prior, x)

    @given(
        prior=st.one_of(
            st.builds(Beta, SHAPES, SHAPES),
            st.builds(ScaledBetaHalf, SHAPES, SHAPES),
            st.just(UniformHalf()),
        ),
        u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounded_support(self, prior, u):
        hi = prior.support[1]
        # u in [0, 1) covers [0, 0.5) exactly by halving for the half supports
        self.check(prior, u * hi)

    @staticmethod
    def check(prior, x):
        lo, hi = prior.support
        edges = [lo, math.nextafter(hi, 0.0)] if math.isfinite(hi) else [lo, 1.7e308]
        with np.errstate(all="raise", under="ignore"):
            want = _bits(prior.pdf(np.array([edges[0], x, edges[1]]))[1])
            for form in (float, np.float64, lambda v: np.asarray(v, dtype=float)):
                assert _bits(prior.pdf(form(x))) == want, (prior, x, form)

    def test_heavy_tails_do_not_overflow(self):
        # the direct forms overflowed to 0 above ~7.6e153 (H2) and ~5.6e102
        # (H3); the tails take the leading term 2/(pi x^2) and 1/x^2
        for x in (1e103, 1e200, 1e300):
            assert H2().pdf(x) == pytest.approx(2.0 / math.pi / x / x, rel=1e-15)
            assert H3().pdf(x) == pytest.approx(1.0 / x / x, rel=1e-15)
        with np.errstate(all="raise", under="ignore"):
            for prior in (H2(), H3()):
                assert prior.pdf(1.7e308) >= 0.0


# the reference priors of the three full study grids
STUDY_REFERENCE_PRIORS = tuple(
    build_concentration_prior(spec, family)
    for family in (Family.VON_MISES, Family.CARDIOID, Family.WRAPPED_CAUCHY)
    for spec in full_study_config(family).prior_specs
    if not spec.kind.startswith("pc_")
)
# every reference prior but H2, whose log is the log of its pdf
LOG_TABLED_PRIORS = tuple(p for p in STUDY_REFERENCE_PRIORS if hasattr(p, "_log_table"))
_FLOAT_MAX = float(np.finfo(float).max)


def _log_density_40(prior, x):
    """The prior's log density at x by mpmath at 40 digits, from the
    density's own formula."""
    with mp.workdps(40):
        X = mp.mpf(x)
        if isinstance(prior, GammaOneB):
            return mp.log(mp.mpf(prior.b)) - mp.mpf(prior.b) * X
        if isinstance(prior, H2):
            return mp.log(2 / (mp.pi * (1 + X * X)))
        if isinstance(prior, H3):
            return mp.log(X / (1 + X * X) ** mp.mpf(1.5)) if x > 0.0 else -mp.inf
        if isinstance(prior, UniformHalf):
            return mp.log(2)
        if isinstance(prior, ScaledBetaHalf):
            return mp.log(2) + _log_density_40(Beta(prior.a, prior.b), 2.0 * x)
        a, b = mp.mpf(prior.a), mp.mpf(prior.b)
        if x == 0.0:
            # the limit: 1 / B(a, b) at a = 1, 0 above, +inf below
            return -mp.log(mp.beta(a, b)) if a == 1 else (-mp.inf if a > 1 else mp.inf)
        return (a - 1) * mp.log(X) + (b - 1) * mp.log1p(-X) - mp.log(mp.beta(a, b))


def _tables(prior):
    """The prior's pdf table, and its log table if it has one."""
    return (prior._pdf_table,) + ((prior._log_table,) if hasattr(prior, "_log_table") else ())


def _log_points(prior):
    """x = 0, the floats either side of every cut of the prior's log and
    pdf tables, both tails and an interior grid, inside the support."""
    lo, hi = prior.support
    cuts = sum((table.cuts for table in _tables(prior)), ())
    xs = [0.0, 5e-324, 1e-300, 1e-10]
    xs += [v for c in cuts for v in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf))]
    if math.isinf(hi):
        xs += [2.0 ** 26, 2.0 ** 27, 1e100, 2.0 ** 600, 1e300, 1.7e308]
        xs += list(np.geomspace(1e-3, 1e4, 60))
    else:
        xs += [math.nextafter(hi, 0.0), hi * (1.0 - 1e-9), hi * 1e-9]
        xs += list(np.linspace(0.0, hi, 61)[1:-1])
    return sorted({float(x) for x in xs if lo <= x < hi})


class TestLogDensity:
    """Each reference prior's log table: its forms against mpmath, their
    values where the float density underflows, and one formula for
    scalars and arrays alike."""

    @pytest.mark.parametrize("prior", LOG_TABLED_PRIORS + (GammaOneB(0.34), GammaOneB(600.0)), ids=repr)
    def test_against_mpmath(self, prior):
        # the Beta forms at shapes (5, 5) sum terms as large as |log B| =
        # 6.45 to a log density that crosses 0, so their rounding reaches
        # about 1.1e-15 (Beta) and 1.2e-15 (scaled Beta) on a fine grid
        # there: the error the pdf's exponent has too
        shapes = (getattr(prior, "a", None), getattr(prior, "b", None))
        rel = 2e-15 if shapes == (5.0, 5.0) else 1e-15
        log_density = _log_density_fn(prior)
        for x in _log_points(prior):
            got, want = log_density(x), _log_density_40(prior, x)
            if mp.isinf(want) or abs(want) > _FLOAT_MAX:
                # 0, a divergence, or a log below the floats
                assert got == float(mp.sign(want)) * math.inf, (prior, x, got)
                continue
            assert math.isfinite(got), (prior, x, got)
            assert abs(mp.mpf(got) - want) <= rel * max(1.0, abs(want)), (prior, x, got, want)

    @pytest.mark.parametrize("prior, x", [(GammaOneB(5.0), 1e3), (H3(), 2.0 ** 600)], ids=repr)
    def test_finite_where_density_underflows(self, prior, x):
        assert prior.pdf(x) == 0.0
        got = _log_density_fn(prior)(x)
        assert got == pytest.approx(float(_log_density_40(prior, x)), rel=1e-15)

    def test_h2_reads_log_of_its_pdf(self):
        # its pdf stays normal up to 2^510, beyond any chain, and one log
        # of the float math costs more than the pdf and math.log together
        log_density = _log_density_fn(H2())
        for x in (0.0, 1e-10, 0.7, 3.0, 1e6, 2.0 ** 510, 2.0 ** 511, 2.0 ** 600):
            v = H2().pdf(x)
            assert log_density(x) == (math.log(v) if v > 0.0 else -math.inf), x

    @pytest.mark.parametrize("prior", LOG_TABLED_PRIORS, ids=repr)
    def test_array_matches_scalar(self, prior):
        # a batched caller runs the same forms with numpy's ufuncs: the
        # same bits as the sampler's scalar call
        xs = [x for x in _log_points(prior) if x < 1e300]
        log_density = _log_density_fn(prior)
        with np.errstate(all="raise", under="ignore"):
            got = prior._log_table(np.array(xs))
        assert np.array_equal(_bits(got), _bits([log_density(x) for x in xs]))

    @pytest.mark.parametrize("prior", STUDY_REFERENCE_PRIORS + (GammaOneB(0.34),), ids=repr)
    def test_scalar_and_array_calls_agree(self, prior):
        # a Python float, a numpy scalar and a 0-d array all take the
        # tables' float path: the bits of that element of an array call
        xs = [x for x in _log_points(prior) if x < 1e300]
        for table in _tables(prior):
            with np.errstate(all="raise", under="ignore"):
                want = table(np.array(xs))
            for i, x in enumerate(xs):
                for form in (float, np.float64, lambda v: np.array(v)):
                    got = table(form(x))
                    assert type(got) is float, (prior, x, form)
                    assert _bits(got) == _bits(want[i]), (prior, x, form)


@pytest.mark.parametrize("prior", STUDY_REFERENCE_PRIORS, ids=repr)
def test_pickle_builds_the_tables_again(prior):
    # a study's process pool sends each cell's prior to its worker
    copy = pickle.loads(pickle.dumps(prior))
    assert type(copy) is type(prior) and copy == prior
    xs = np.array([x for x in _log_points(prior) if x < 1e300])
    for mine, theirs in zip(_tables(prior), _tables(copy)):
        assert np.array_equal(_bits(mine(xs)), _bits(theirs(xs)))


def _outcome(call):
    """What a call gives, as one line: the exception's type and message,
    or the result's type, shape and the sha256 of its bytes."""
    try:
        out = call()
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return f"{type(exc).__name__}: {exc}"
    arr = np.asarray(out, dtype=float)
    return f"{type(out).__name__} {arr.shape} {hashlib.sha256(arr.tobytes()).hexdigest()[:16]}"


# the pairs of the prior-elicit benchmark with their tail thresholds U
ELICIT_PAIRS = (
    (VM_UNI, math.pi / 2), (VM_PM, math.pi / 2), (CARD_UNI, 0.5), (CARD_CURVE, 0.5), (WC_UNI, 0.6),
)
ELICIT_ALPHAS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)


def _report_bytes(report):
    return struct.pack(
        "<d?d", report.density_at_zero, report.monotone_decreasing, report.argmax_d
    ) + report.classification.encode()


def _pair_id(prof):
    return f"{prof.family.value}-{prof.base.value}"


class TestAuditBits:
    """Every field of the audit, bit for bit, for the PC priors the
    elicitation benchmark calibrates and the reference priors of the full
    study grids; the digests were taken before the audit evaluated its
    abscissae in one call."""

    PC = {
        "vm-uniform": "498910b4ed25b48e936fc6750c7ec55e384413b9af45e672bd8843f744980322",
        "vm-pointmass": "97ebe67c4a334bbabf2c7a8f2116cd26acdd9fb93215f4b9566f7c91f6613f99",
        "cardioid-uniform": "4487eb4784219d8e6732b78c237356d90fa39ccefcf3545e32314dcc0f0d8853",
        "cardioid-curve": "7d025bded939f799393aacafec001e666fec3d2858a82f3729514f592caa0557",
        "wc-uniform": "a0743ea3782f4c91c2c931f4c622c59da31a0e0948a2323282892a495f7c42ec",
    }
    REFERENCE = {
        "vm": "9aa33e8bdb027211f7adc191e24fbfcf72eb9aaa0fbd4a4fefb954176854e234",
        "cardioid": "d79ff0ae931ae6225a92124c3b44c7a33ab5e79d86e9fb3e3c6ac45e273c3722",
        "wc": "a73984df0b30774ae0b191c068078eeb68a0fd36504e8a17492baa50ac859798",
    }

    @staticmethod
    def pc_digest(prof, U):
        h = hashlib.sha256()
        lo, hi = attainable_alpha_range(prof.family, prof.base, U)
        for alpha in ELICIT_ALPHAS:
            if lo < alpha < hi:
                lam = calibrate_lambda(prof.family, prof.base, TailSpec(U, alpha))
                h.update(_report_bytes(overfit_audit(PcPrior(prof.family, prof.base, lam), prof)))
        return h.hexdigest()

    @staticmethod
    def reference_digest(family):
        h = hashlib.sha256()
        prof = profile_for(family, BaseModel.UNIFORM)
        for spec in full_study_config(family).prior_specs:
            if not spec.kind.startswith("pc_"):
                prior = build_concentration_prior(spec, Family(family))
                h.update(_report_bytes(overfit_audit(prior, prof)))
        return h.hexdigest()

    @pytest.mark.parametrize("prof,U", ELICIT_PAIRS, ids=lambda v: _pair_id(v) if hasattr(v, "base") else "")
    def test_pc_priors(self, prof, U):
        assert self.pc_digest(prof, U) == self.PC[_pair_id(prof)]

    @pytest.mark.parametrize("family", ["vm", "cardioid", "wc"])
    def test_reference_priors(self, family):
        assert self.reference_digest(family) == self.REFERENCE[family]


def _study_reference_priors(family):
    return [build_concentration_prior(spec, family)
            for spec in full_study_config(family).prior_specs if not spec.kind.startswith("pc_")]


def _cross_pair_cases():
    """Each elicitation PC prior with the other profile of its family."""
    other = {"vm-uniform": VM_PM, "vm-pointmass": VM_UNI, "cardioid-uniform": CARD_CURVE,
             "cardioid-curve": CARD_UNI}
    cases = []
    for prof, U in ELICIT_PAIRS:
        lo, hi = attainable_alpha_range(prof.family, prof.base, U)
        for alpha in ELICIT_ALPHAS:
            if _pair_id(prof) in other and lo < alpha < hi:
                lam = calibrate_lambda(prof.family, prof.base, TailSpec(U, alpha))
                cases.append((PcPrior(prof.family, prof.base, lam), other[_pair_id(prof)], {}))
    return cases


@pytest.fixture
def inverse_calls(monkeypatch):
    """The profiles reference_priors inverts on, one per inverse_distance
    call, with the audit cache emptied before and after the test."""
    calls = []

    def spy(profile, d):
        calls.append(profile)
        return inverse_distance(profile, d)

    monkeypatch.setattr(reference_priors, "inverse_distance", spy)
    _audit_grid.cache_clear()
    yield calls
    _audit_grid.cache_clear()


class TestAuditGridCache:
    """overfit_audit reads a profile's grid, its inverse and its slope
    from a cache filled on the first audit: the same bits as a cold
    audit, one inverse per profile and grid, and nothing a prior can
    write into."""

    CASES = (
        [(prior, profile_for(family, BaseModel.UNIFORM), {})
         for family in (Family.VON_MISES, Family.CARDIOID, Family.WRAPPED_CAUCHY)
         for prior in _study_reference_priors(family)]
        + _cross_pair_cases()
        + [(H2(), VM_UNI, {"grid_points": 17, "d_cap": 2.5}),
           (Beta(2.0, 2.0), WC_UNI, {"grid_points": 17, "d_cap": 2.5})]
    )

    def test_cold_and_warm_bits(self, inverse_calls):
        cold = []
        for prior, prof, kw in self.CASES:
            _audit_grid.cache_clear()
            cold.append(_report_bytes(overfit_audit(prior, prof, **kw)))
        assert len(inverse_calls) == len(self.CASES)
        for (prior, prof, kw), want in zip(self.CASES, cold):
            overfit_audit(prior, prof, **kw)
            calls, hits = len(inverse_calls), _audit_grid.cache_info().hits
            assert _report_bytes(overfit_audit(prior, prof, **kw)) == want, (prior, _pair_id(prof), kw)
            assert len(inverse_calls) == calls and _audit_grid.cache_info().hits == hits + 1

    @pytest.mark.parametrize("family", ["vm", "cardioid", "wc"])
    def test_one_inverse_per_profile(self, inverse_calls, family):
        prof = profile_for(family, BaseModel.UNIFORM)
        for prior in _study_reference_priors(family):
            overfit_audit(prior, prof)
        assert inverse_calls == [prof] and _audit_grid.cache_info().misses == 1

    def test_own_pair_pc_prior_inverts_nothing(self, inverse_calls):
        for prof in (VM_UNI, VM_PM, CARD_UNI, CARD_CURVE, WC_UNI):
            overfit_audit(PcPrior(prof.family, prof.base, 1.3), prof)
        assert inverse_calls == [] and _audit_grid.cache_info().misses == 0

    def test_cached_arrays_are_read_only(self, inverse_calls):
        overfit_audit(GammaOneB(0.34), VM_UNI)
        # the default grid: 1000 points up to d_cap = 4
        at, terms = _audit_grid(VM_UNI, 1000, 4.0)
        assert _audit_grid.cache_info().hits == 1 and inverse_calls == [VM_UNI]
        arrays = [a for a in (at,) + terms if a is not None]
        assert len(arrays) >= 3 and not any(a.flags.writeable for a in arrays)

    def test_prior_writing_its_argument_raises(self, inverse_calls):
        want = _report_bytes(overfit_audit(H3(), VM_UNI))

        def writes(x):
            x *= 2.0
            return np.exp(-x)

        with pytest.raises(ValueError, match="read-only"):
            overfit_audit(writes, VM_UNI)
        assert _report_bytes(overfit_audit(H3(), VM_UNI)) == want
        assert inverse_calls == [VM_UNI]

    def test_profile_with_another_map_has_its_own_entry(self, inverse_calls):
        # a copy computes the same map and shares the entry; one with
        # another inverse kernel does not
        copy = dataclasses.replace(VM_UNI)
        other = dataclasses.replace(VM_UNI, inverse=lambda d, args=(): VM_UNI.inverse(d, args))
        for prof in (VM_UNI, copy, other):
            overfit_audit(H2(), prof)
        assert inverse_calls == [VM_UNI, other] and _audit_grid.cache_info().currsize == 2

    def test_raising_grid_enters_nothing(self, inverse_calls):
        # past d_top = 18.84 no float kappa has the grid's top distance
        with pytest.raises(ValueError):
            overfit_audit(H2(), VM_UNI, d_cap=30.0)
        assert inverse_calls == [VM_UNI] and _audit_grid.cache_info().currsize == 0

    def test_own_pair_pc_grid_past_d_top_raises(self, inverse_calls):
        # the same grid, read without an inverse, is checked as
        # distance_scale_pdf checks it
        with pytest.raises(ValueError, match="not attained"):
            overfit_audit(PcPrior("vm", "uniform", 1.0), VM_UNI, d_cap=30.0)
        assert inverse_calls == [] and _audit_grid.cache_info().misses == 0

    def test_bounded(self, inverse_calls):
        for n in range(2, 40):
            overfit_audit(H2(), VM_UNI, grid_points=n)
        info = _audit_grid.cache_info()
        assert info.currsize == info.maxsize == 8
        # the least recent grid was dropped, the most recent is kept
        overfit_audit(H2(), VM_UNI, grid_points=39)
        overfit_audit(H2(), VM_UNI, grid_points=2)
        assert len(inverse_calls) == 39


def _own_pc_cases(prof):
    """Inputs of distance_scale_pdf for a pair's own PC prior: both ends
    of the attainable range, past them, bad values and every input type."""
    if math.isfinite(prof.d_max):
        top, past = prof.d_max, math.nextafter(prof.d_max, math.inf)
    elif prof.family is Family.VON_MISES:
        # the largest distance a float kappa has, and the next float
        top = prof.domain[1]
        past = math.nextafter(top, math.inf)
    else:
        top, past = 1e150, math.inf
    mid = 0.5 * min(top, 1.0)
    return {
        "zero": 0.0,
        "minus_zero": -0.0,
        "tiny": 5e-324,
        "top": top,
        "past_top": past,
        "negative": -0.25,
        "nan": math.nan,
        "inf": math.inf,
        "int": 0,
        "np_scalar": np.float64(mid),
        "zero_d": np.asarray(mid),
        "list": [mid, 0.5 * mid],
        "empty": np.empty(0),
        "empty_2x0": np.empty((2, 0)),
        "grid_2d": np.linspace(1e-3, top if top < 50.0 else 3.0, 6).reshape(2, 3),
        "unsorted_with_zero": np.array([mid, 0.0, 0.5 * mid]),
        "unsorted_with_top": np.array([mid, top, 0.5 * mid]),
        "unsorted_past_top": np.array([mid, past, 0.5 * mid]),
        "nan_and_negative": np.array([-1.0, math.nan]),
    }


class TestOwnPcPriorTable:
    """distance_scale_pdf of each pair's PC prior (lambda = 1.3) on its own
    profile: the exception (type and message) or the result (type, shape
    and bytes) of every case, pinned before that path stopped inverting."""

    PINS = {
        ("vm-uniform", "zero"): "float () 3a782dc88acafd2e",
        ("vm-uniform", "minus_zero"): "float () 3a782dc88acafd2e",
        ("vm-uniform", "tiny"): "float () 3a782dc88acafd2e",
        ("vm-uniform", "top"): "float () e051a6fc24b79606",
        ("vm-uniform", "past_top"): "ValueError: distance not attained by any floating-point parameter",
        ("vm-uniform", "negative"): "ValueError: distance must lie in [0.0, inf)",
        ("vm-uniform", "nan"): "ValueError: distance must be finite",
        ("vm-uniform", "inf"): "ValueError: distance must be finite",
        ("vm-uniform", "int"): "float () 3a782dc88acafd2e",
        ("vm-uniform", "np_scalar"): "float () e74c88ee8f0b0b38",
        ("vm-uniform", "zero_d"): "float () e74c88ee8f0b0b38",
        ("vm-uniform", "list"): "ndarray (2,) a414f8728b3fafb8",
        ("vm-uniform", "empty"): "ndarray (0,) e3b0c44298fc1c14",
        ("vm-uniform", "empty_2x0"): "ndarray (2, 0) e3b0c44298fc1c14",
        ("vm-uniform", "grid_2d"): "ndarray (2, 3) 155cb710d8485960",
        ("vm-uniform", "unsorted_with_zero"): "ndarray (3,) 1418d5ed68a6803d",
        ("vm-uniform", "unsorted_with_top"): "ndarray (3,) 461a8ee5e67fc6b3",
        ("vm-uniform", "unsorted_past_top"): "ValueError: distance not attained by any floating-point parameter",
        ("vm-uniform", "nan_and_negative"): "ValueError: distance must be finite",
        ("vm-pointmass", "zero"): "ValueError: distance not attained by any floating-point parameter",
        ("vm-pointmass", "minus_zero"): "ValueError: distance not attained by any floating-point parameter",
        ("vm-pointmass", "tiny"): "float () e4f2d9add4d274ca",
        ("vm-pointmass", "top"): "float () c95288babb6ee77f",
        ("vm-pointmass", "past_top"): "ValueError: distance must lie in [0.0, 1.0000000000000002)",
        ("vm-pointmass", "negative"): "ValueError: distance must lie in [0.0, 1.0000000000000002)",
        ("vm-pointmass", "nan"): "ValueError: distance must be finite",
        ("vm-pointmass", "inf"): "ValueError: distance must be finite",
        ("vm-pointmass", "int"): "ValueError: distance not attained by any floating-point parameter",
        ("vm-pointmass", "np_scalar"): "float () 5cdd855345efed09",
        ("vm-pointmass", "zero_d"): "float () 5cdd855345efed09",
        ("vm-pointmass", "list"): "ndarray (2,) b1eb4b2e04871e38",
        ("vm-pointmass", "empty"): "ndarray (0,) e3b0c44298fc1c14",
        ("vm-pointmass", "empty_2x0"): "ndarray (2, 0) e3b0c44298fc1c14",
        ("vm-pointmass", "grid_2d"): "ndarray (2, 3) 72c5abcfb89a331b",
        ("vm-pointmass", "unsorted_with_zero"): "ValueError: distance not attained by any floating-point parameter",
        ("vm-pointmass", "unsorted_with_top"): "ndarray (3,) 108b3dbe0caf31c5",
        ("vm-pointmass", "unsorted_past_top"): "ValueError: distance must lie in [0.0, 1.0000000000000002)",
        ("vm-pointmass", "nan_and_negative"): "ValueError: distance must be finite",
        ("cardioid-uniform", "zero"): "float () 7f3607d8d497e760",
        ("cardioid-uniform", "minus_zero"): "float () 7f3607d8d497e760",
        ("cardioid-uniform", "tiny"): "float () 7f3607d8d497e760",
        ("cardioid-uniform", "top"): "float () aaf3c8846a119406",
        ("cardioid-uniform", "past_top"): "ValueError: distance must lie in [0.0, 0.5539429748990908)",
        ("cardioid-uniform", "negative"): "ValueError: distance must lie in [0.0, 0.5539429748990908)",
        ("cardioid-uniform", "nan"): "ValueError: distance must be finite",
        ("cardioid-uniform", "inf"): "ValueError: distance must be finite",
        ("cardioid-uniform", "int"): "float () 7f3607d8d497e760",
        ("cardioid-uniform", "np_scalar"): "float () a05f79bbe1540136",
        ("cardioid-uniform", "zero_d"): "float () a05f79bbe1540136",
        ("cardioid-uniform", "list"): "ndarray (2,) a3f10aef6d8b56db",
        ("cardioid-uniform", "empty"): "ndarray (0,) e3b0c44298fc1c14",
        ("cardioid-uniform", "empty_2x0"): "ndarray (2, 0) e3b0c44298fc1c14",
        ("cardioid-uniform", "grid_2d"): "ndarray (2, 3) fe2707c0cc28a071",
        ("cardioid-uniform", "unsorted_with_zero"): "ndarray (3,) 3c060183540e6795",
        ("cardioid-uniform", "unsorted_with_top"): "ndarray (3,) 345a483d2284f9aa",
        ("cardioid-uniform", "unsorted_past_top"): "ValueError: distance must lie in [0.0, 0.5539429748990908)",
        ("cardioid-uniform", "nan_and_negative"): "ValueError: distance must be finite",
        ("cardioid-curve", "zero"): "float () 36b9fe1ed2b9a1af",
        ("cardioid-curve", "minus_zero"): "float () 36b9fe1ed2b9a1af",
        ("cardioid-curve", "tiny"): "float () 36b9fe1ed2b9a1af",
        ("cardioid-curve", "top"): "float () 9de0b011a973fb5c",
        ("cardioid-curve", "past_top"): "ValueError: distance must lie in [0.0, 0.8325546111576978)",
        ("cardioid-curve", "negative"): "ValueError: distance must lie in [0.0, 0.8325546111576978)",
        ("cardioid-curve", "nan"): "ValueError: distance must be finite",
        ("cardioid-curve", "inf"): "ValueError: distance must be finite",
        ("cardioid-curve", "int"): "float () 36b9fe1ed2b9a1af",
        ("cardioid-curve", "np_scalar"): "float () 707596e4cb131416",
        ("cardioid-curve", "zero_d"): "float () 707596e4cb131416",
        ("cardioid-curve", "list"): "ndarray (2,) 8af84f74b6d62b0a",
        ("cardioid-curve", "empty"): "ndarray (0,) e3b0c44298fc1c14",
        ("cardioid-curve", "empty_2x0"): "ndarray (2, 0) e3b0c44298fc1c14",
        ("cardioid-curve", "grid_2d"): "ndarray (2, 3) 804033664b122393",
        ("cardioid-curve", "unsorted_with_zero"): "ndarray (3,) c2306f2e1e56e6f8",
        ("cardioid-curve", "unsorted_with_top"): "ndarray (3,) 0ee569229453b59d",
        ("cardioid-curve", "unsorted_past_top"): "ValueError: distance must lie in [0.0, 0.8325546111576978)",
        ("cardioid-curve", "nan_and_negative"): "ValueError: distance must be finite",
        ("wc-uniform", "zero"): "float () 3a782dc88acafd2e",
        ("wc-uniform", "minus_zero"): "float () 3a782dc88acafd2e",
        ("wc-uniform", "tiny"): "float () 3a782dc88acafd2e",
        ("wc-uniform", "top"): "float () af5570f5a1810b7a",
        ("wc-uniform", "past_top"): "ValueError: distance must be finite",
        ("wc-uniform", "negative"): "ValueError: distance must lie in [0.0, inf)",
        ("wc-uniform", "nan"): "ValueError: distance must be finite",
        ("wc-uniform", "inf"): "ValueError: distance must be finite",
        ("wc-uniform", "int"): "float () 3a782dc88acafd2e",
        ("wc-uniform", "np_scalar"): "float () e74c88ee8f0b0b38",
        ("wc-uniform", "zero_d"): "float () e74c88ee8f0b0b38",
        ("wc-uniform", "list"): "ndarray (2,) a414f8728b3fafb8",
        ("wc-uniform", "empty"): "ndarray (0,) e3b0c44298fc1c14",
        ("wc-uniform", "empty_2x0"): "ndarray (2, 0) e3b0c44298fc1c14",
        ("wc-uniform", "grid_2d"): "ndarray (2, 3) 82fd79e66db3beab",
        ("wc-uniform", "unsorted_with_zero"): "ndarray (3,) 1418d5ed68a6803d",
        ("wc-uniform", "unsorted_with_top"): "ndarray (3,) 70e775b4c0046cc7",
        ("wc-uniform", "unsorted_past_top"): "ValueError: distance must be finite",
        ("wc-uniform", "nan_and_negative"): "ValueError: distance must be finite",
    }

    def test_table(self):
        got = {
            (_pair_id(prof), name): _outcome(lambda d=d: distance_scale_pdf(
                PcPrior(prof.family, prof.base, 1.3), prof, d))
            for prof in (VM_UNI, VM_PM, CARD_UNI, CARD_CURVE, WC_UNI)
            for name, d in _own_pc_cases(prof).items()
        }
        assert got == self.PINS


class TestCrossBaseBits:
    """distance_scale_pdf of a PC prior (lambda = 1.3) on the other base's
    profile of its family, on 200 points across that profile's domain:
    the sha256 of the result's bytes, pinned before the prior's density
    was read through its own ``pdf``."""

    PINS = {
        ("vm", "uniform", "pointmass"): "f0b0781b0e7a66d82346c149c9486c04a389179cd35b7a24ab401c3e6daaca83",
        ("vm", "pointmass", "uniform"): "7fc6c7a1061493bc1429587e42ccc8e41f170a1b04b533c3eb5bafff6049b88f",
        ("cardioid", "uniform", "curve"): "f17d635645fa3c4bffa93730ff301266f82184b2fe7793d1f083595a09b3b1d4",
        ("cardioid", "curve", "uniform"): "06fc295570efef63211004d1131f3bd2f5d0c2d576f4b2576346f7ace68cb702",
    }

    @pytest.mark.parametrize("family,base,on", sorted(PINS), ids=str)
    def test_grid(self, family, base, on):
        prof = profile_for(Family(family), BaseModel(on))
        out = distance_scale_pdf(PcPrior(family, base, 1.3), prof, np.linspace(*prof.domain, 200))
        assert out.shape == (200,)
        assert hashlib.sha256(out.tobytes()).hexdigest() == self.PINS[(family, base, on)]

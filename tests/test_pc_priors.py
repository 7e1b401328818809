import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.optimize import brentq

import circpc.pc_priors as pc_priors
from circpc.distributions import Family
from circpc.divergence import (
    SQRT_LOG2,
    BaseModel,
    distance,
    distance_deriv,
    inverse_distance,
    profile_for,
)
from circpc.harness import desk_study_config, full_study_config
from circpc.pc_priors import (
    InfeasibleTailError,
    Normalization,
    PcPrior,
    TailSpec,
    UnsupportedModeError,
    _brent,
    _rate_root,
    attainable_alpha_range,
    calibrate_lambda,
    calibrate_lambda_paper,
    pc_cdf,
    pc_pdf,
    pc_quantile,
    pc_sample,
    q_transform,
    tail_probability,
)
from circpc.special import _TINY

PAIRS = (
    (Family.VON_MISES, BaseModel.UNIFORM),
    (Family.VON_MISES, BaseModel.POINT_MASS),
    (Family.CARDIOID, BaseModel.UNIFORM),
    (Family.CARDIOID, BaseModel.CARDIOID_CURVE),
    (Family.WRAPPED_CAUCHY, BaseModel.UNIFORM),
)

# pairs whose printed form already carries the truncation constant
CONSISTENT_PAIRS = (
    (Family.VON_MISES, BaseModel.UNIFORM),
    (Family.CARDIOID, BaseModel.UNIFORM),
    (Family.WRAPPED_CAUCHY, BaseModel.UNIFORM),
)


def interior_points(pair, n):
    prof = profile_for(*pair)
    lo, hi = prof.support_lo, prof.support_hi
    if not math.isfinite(hi):
        hi = 30.0
    pad = (hi - lo) * 1e-3
    return np.linspace(lo + pad, hi - pad, n)


class TestConstruction:
    def test_lambda_must_be_positive(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                PcPrior(Family.VON_MISES, BaseModel.UNIFORM, bad)

    def test_unsupported_pair_rejected(self):
        with pytest.raises(ValueError):
            PcPrior(Family.WRAPPED_CAUCHY, BaseModel.POINT_MASS, 1.0)

    def test_string_coercion(self):
        p = PcPrior("vm", "uniform", 1.0, "truncated")
        assert p.family is Family.VON_MISES
        assert p.base is BaseModel.UNIFORM
        assert p.normalization is Normalization.TRUNCATED
        # the enum's own values are the only spellings
        with pytest.raises(ValueError):
            PcPrior("vm", "uniform", 1.0, "paper_exact")

    def test_record_round_trip(self):
        p = PcPrior(Family.CARDIOID, BaseModel.CARDIOID_CURVE, 2.5, "paper")
        rec = p.to_record()
        assert rec["lambda"] == 2.5
        assert PcPrior.from_record(rec) == p

    def test_is_normalized_flag(self):
        assert PcPrior(Family.VON_MISES, BaseModel.POINT_MASS, 1.0).is_normalized
        assert not PcPrior(
            Family.VON_MISES, BaseModel.POINT_MASS, 1.0, "paper"
        ).is_normalized
        assert PcPrior(Family.WRAPPED_CAUCHY, BaseModel.UNIFORM, 1.0, "paper").is_normalized


class TestPdf:
    def test_vm_uniform_at_origin(self):
        # d=0 and |d'| = 1/2 there, so the density starts at lambda/2
        for lam in (0.5, 1.0, 3.0):
            p = PcPrior(Family.VON_MISES, BaseModel.UNIFORM, lam)
            assert pc_pdf(p, 0.0) == pytest.approx(lam / 2.0, rel=1e-12)

    def test_wc_hand_value(self):
        p = PcPrior(Family.WRAPPED_CAUCHY, BaseModel.UNIFORM, 1.0)
        assert pc_pdf(p, 0.5) == pytest.approx(0.7269660745306541, rel=1e-13)

    def test_vectorized_matches_scalar(self):
        # scalars run through the same array kernels, so the bits agree
        for pair in PAIRS:
            prof = profile_for(*pair)
            p = PcPrior(pair[0], pair[1], 2.0)
            xs = interior_points(pair, 9)
            for fn in (
                lambda x: distance(prof, x),
                lambda x: distance_deriv(prof, x),
                lambda x: pc_pdf(p, x),
            ):
                assert np.array_equal(fn(xs), [fn(float(x)) for x in xs]), pair

    def test_nonnegative_everywhere(self):
        for pair in PAIRS:
            p = PcPrior(pair[0], pair[1], 1.7)
            assert np.all(pc_pdf(p, interior_points(pair, 200)) >= 0.0)

    def test_truncated_equals_paper_for_consistent_pairs(self):
        for pair in CONSISTENT_PAIRS:
            trunc = PcPrior(pair[0], pair[1], 1.3)
            paper = PcPrior(pair[0], pair[1], 1.3, "paper")
            xs = interior_points(pair, 50)
            assert np.array_equal(pc_pdf(trunc, xs), pc_pdf(paper, xs))
            assert np.array_equal(pc_cdf(trunc, xs), pc_cdf(paper, xs))


class TestCdf:
    def test_endpoints(self):
        # the far probes sit at the float caps: the unbounded distances
        # grow like sqrt(log kappa), so moderate kappa is still mid-CDF
        probes = {
            (Family.VON_MISES, BaseModel.UNIFORM): math.exp(709.0),
            (Family.VON_MISES, BaseModel.POINT_MASS): 1e16,
            (Family.CARDIOID, BaseModel.UNIFORM): 0.5 - 1e-13,
            (Family.CARDIOID, BaseModel.CARDIOID_CURVE): 0.5 - 1e-13,
            (Family.WRAPPED_CAUCHY, BaseModel.UNIFORM): np.nextafter(1.0, 0.0),
        }
        for pair in PAIRS:
            prof = profile_for(*pair)
            p = PcPrior(pair[0], pair[1], 3.0)
            assert pc_cdf(p, prof.support_lo) == pytest.approx(0.0, abs=1e-14)
            assert pc_cdf(p, probes[pair]) == pytest.approx(1.0, abs=1e-6)

    def test_monotone_increasing(self):
        for pair in PAIRS:
            p = PcPrior(pair[0], pair[1], 0.8)
            cs = pc_cdf(p, interior_points(pair, 400))
            assert np.all(np.diff(cs) >= 0.0)

    @given(
        st.sampled_from(PAIRS),
        st.sampled_from(tuple(Normalization)),
        st.floats(min_value=1e-2, max_value=1e2),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_unit_interval_property(self, pair, normalization, lam, data):
        p = PcPrior(pair[0], pair[1], lam, normalization)
        hi = p.profile.support_hi
        params = st.floats(
            min_value=p.profile.support_lo,
            max_value=hi if math.isfinite(hi) else None,
            exclude_max=math.isfinite(hi),
            allow_infinity=False,
        )
        a, b = sorted((data.draw(params), data.draw(params)))
        # pc_cdf returns each formula's own value: nothing clips it into [0, 1]
        lower, upper = pc_cdf(p, a), pc_cdf(p, b)
        assert 0.0 <= lower <= 1.0 and 0.0 <= upper <= 1.0
        # d is monotone only up to its rounding (~1e-12 at the branch
        # switches), which moves the CDF by at most ~1e-10 here
        assert upper >= lower - 1e-9

    def test_in_unit_interval_at_support_ends(self):
        # at and next to the ends, where d meets d_max (the decreasing
        # pairs at 0, the cardioid's uniform base at its open end) and
        # numpy's exponentials may differ from libm's in the last bit
        lams = np.geomspace(1e-2, 1e2, 400)
        ends = {
            Family.VON_MISES: [0.0, 5e-324, 1e-300, 1e-17, 1e-16, 1e-15, 1e-12, math.exp(709.0)],
            Family.CARDIOID: [0.0, 5e-324, 1e-300, 1e-16, 1e-12, 0.5 - 1e-12, 0.5 - 1e-15,
                              *np.nextafter(0.5, np.zeros(1))],
            Family.WRAPPED_CAUCHY: [0.0, 5e-324, 1e-300, 1e-16, float(np.nextafter(1.0, 0.0))],
        }
        for pair in PAIRS:
            xs = np.array(ends[pair[0]], dtype=float)
            for normalization in Normalization:
                for lam in lams:
                    cdf = pc_cdf(PcPrior(pair[0], pair[1], lam, normalization), xs)
                    assert np.all((cdf >= 0.0) & (cdf <= 1.0)), (pair, normalization, lam, cdf)

    def test_paper_exact_raw_forms(self):
        lam = 1.3
        pm = PcPrior(Family.VON_MISES, BaseModel.POINT_MASS, lam, "paper")
        assert pc_cdf(pm, 0.0) == pytest.approx(math.exp(-lam), rel=1e-14)
        cc = PcPrior(Family.CARDIOID, BaseModel.CARDIOID_CURVE, lam, "paper")
        assert pc_cdf(cc, 0.0) == pytest.approx(
            math.exp(-lam * SQRT_LOG2), rel=1e-14
        )

    def test_matches_pdf_integral(self):
        p = PcPrior(Family.CARDIOID, BaseModel.UNIFORM, 2.0)
        for x in (0.1, 0.25, 0.4):
            val, err = integrate.quad(lambda t: pc_pdf(p, t), 0.0, x)
            assert pc_cdf(p, x) == pytest.approx(val, abs=max(1e-10, 10 * err))

    def test_decreasing_pair_makes_no_table_per_call(self, monkeypatch):
        # the normalized pairs' tables, decreasing and increasing, are made
        # once, at import; a calibration calls the CDF once per Brent step
        made = []
        monkeypatch.setattr(pc_priors, "_piecewise_table", lambda *a: made.append(a))
        calibrate_lambda(Family.VON_MISES, BaseModel.POINT_MASS, TailSpec(math.pi / 2, 0.3))
        pc_cdf(PcPrior(Family.VON_MISES, BaseModel.POINT_MASS, 1.3), np.linspace(0.1, 2.0, 7))
        calibrate_lambda(Family.CARDIOID, BaseModel.UNIFORM, TailSpec(0.5, 0.3))
        pc_cdf(PcPrior(Family.CARDIOID, BaseModel.UNIFORM, 1.3), np.linspace(0.05, 0.45, 7))
        assert made == []


class TestQuantile:
    def test_round_trip_through_cdf(self):
        for pair in PAIRS:
            p = PcPrior(pair[0], pair[1], 1.5)
            for level in (0.05, 0.25, 0.5, 0.75, 0.95):
                x = pc_quantile(p, level)
                assert pc_cdf(p, x) == pytest.approx(level, abs=1e-12), pair

    def test_vectorized(self):
        p = PcPrior(Family.WRAPPED_CAUCHY, BaseModel.UNIFORM, 2.0)
        levels = np.linspace(0.05, 0.95, 7)
        assert np.array_equal(pc_quantile(p, levels), [pc_quantile(p, float(v)) for v in levels])

    def test_two_dimensional_levels(self):
        # levels of any shape come back in that shape, with the bits of
        # their scalar calls
        levels = np.linspace(0.05, 0.95, 6).reshape(2, 3)
        for pair in CONSISTENT_PAIRS:
            p = PcPrior(pair[0], pair[1], 1.5)
            got = pc_quantile(p, levels)
            assert got.shape == levels.shape, pair
            assert np.array_equal(got.ravel(), [pc_quantile(p, float(v)) for v in levels.ravel()]), pair

    def test_levels_must_be_interior(self):
        p = PcPrior(Family.VON_MISES, BaseModel.UNIFORM, 1.0)
        for bad in (0.0, 1.0, -0.2, 1.3, math.nan):
            with pytest.raises(ValueError):
                pc_quantile(p, bad)

    # the message names the CDF at the profile's d_top, to 17 digits
    @pytest.mark.parametrize("family, lam, level, reachable", [
        (Family.VON_MISES, 0.05, 1.0 - 1e-16, "0.61013884674069552"),
        (Family.VON_MISES, 1.0, 1.0 - 1e-12, "0.99999999342040347"),
        (Family.WRAPPED_CAUCHY, 1.0, 1.0 - 1e-3, "0.99753024588111161"),
        (Family.WRAPPED_CAUCHY, 3.0, 1.0 - 1e-12, "0.99999998493527686"),
    ])
    def test_level_beyond_float_cap_raises(self, family, lam, level, reachable):
        p = PcPrior(family, BaseModel.UNIFORM, lam)
        message = ("quantile level maps beyond the largest representable parameter "
                   f"(reachable up to p = {reachable})")
        for levels in (level, np.array([0.5, level])):
            with pytest.raises(ValueError) as info:
                pc_quantile(p, levels)
            assert str(info.value) == message

    def test_level_whose_distance_rounds_to_zero_raises(self):
        # on the point mass at lambda = 0.05 this level's distance rounds
        # to 0, which no float kappa has; there is no reachable level to name
        p = PcPrior(Family.VON_MISES, BaseModel.POINT_MASS, 0.05)
        assert pc_priors._quantile_distance(p, 1.0 - 2.0 ** -53) == 0.0
        with pytest.raises(ValueError, match=r"^quantile level maps beyond the largest representable parameter$"):
            pc_quantile(p, 1.0 - 2.0 ** -53)
        with pytest.raises(ValueError, match=r"^quantile level maps beyond"):
            pc_quantile(p, np.array([0.5, 1.0 - 2.0 ** -53]))

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_levels(self, shape):
        for pair in PAIRS:
            p = PcPrior(pair[0], pair[1], 1.5)
            assert pc_quantile(p, np.empty(shape)).shape == shape, pair

    def test_raw_paper_mode_has_no_quantile(self):
        p = PcPrior(Family.VON_MISES, BaseModel.POINT_MASS, 1.0, "paper")
        with pytest.raises(UnsupportedModeError):
            pc_quantile(p, 0.5)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, level):
        p = PcPrior(Family.CARDIOID, BaseModel.CARDIOID_CURVE, 1.1)
        assert pc_cdf(p, pc_quantile(p, level)) == pytest.approx(level, abs=1e-11)


class _Levels(np.random.Generator):
    """A generator whose ``random(n)`` returns given uniforms."""

    def __init__(self, levels):
        super().__init__(np.random.PCG64(0))
        self.levels = np.asarray(levels, dtype=float)

    def random(self, n):
        assert n == self.levels.size
        return self.levels.copy()


class TestSample:
    def test_deterministic(self):
        p = PcPrior(Family.CARDIOID, BaseModel.UNIFORM, 1.0)
        a = pc_sample(p, 100, seed=5)
        b = pc_sample(p, 100, seed=5)
        assert np.array_equal(a, b)

    def test_draws_stay_in_support(self):
        for pair in PAIRS:
            prof = profile_for(*pair)
            p = PcPrior(pair[0], pair[1], 0.7)
            draws = pc_sample(p, 5000, seed=6)
            assert np.all(draws >= prof.support_lo)
            assert np.all(draws <= prof.support_hi)

    def test_ks_against_cdf(self):
        for pair in PAIRS:
            p = PcPrior(pair[0], pair[1], 1.4)
            draws = pc_sample(p, 20000, seed=7)
            stat, p_value = stats.kstest(draws, lambda x: pc_cdf(p, x))
            assert p_value > 1e-3, (pair, p_value)

    def test_tail_draw_saturates_not_raises(self):
        # lambda this small pushes some draws past the largest float kappa
        p = PcPrior(Family.VON_MISES, BaseModel.UNIFORM, 0.05)
        draws = pc_sample(p, 2000, seed=3)
        assert np.all(np.isfinite(draws))

    def test_saturated_share(self):
        # on the unbounded pairs a draw saturates at the largest float
        # parameter, e^709 on vm/uniform, with probability exp(-lambda
        # d_top): 0.390 at lambda = 0.05 on vm/uniform; the share of
        # 100 000 draws lies within 5 binomial standard deviations of it
        p = PcPrior(Family.VON_MISES, BaseModel.UNIFORM, 0.05)
        cap = inverse_distance(p.profile, p.profile.d_top)
        assert cap == math.exp(709.0) and distance(p.profile, cap) == p.profile.d_top
        prob = math.exp(-p.lam * p.profile.d_top)
        assert prob == pytest.approx(0.390, abs=5e-4)
        n = 100_000
        saturated = int(np.count_nonzero(pc_sample(p, n, seed=1) == cap))
        assert abs(saturated - n * prob) <= 5.0 * math.sqrt(n * prob * (1.0 - prob))

    def test_distance_rounding_to_zero_saturates_not_raises(self):
        # on the point mass at lambda = 0.05 a uniform of 1 - 2^-53 gives
        # a quantile distance that rounds to 0, which no float kappa has:
        # the draw saturates at the inverse's largest kappa, as a distance
        # past the unbounded pairs' largest does; the other draws keep the
        # bits of their inverse
        p = PcPrior(Family.VON_MISES, BaseModel.POINT_MASS, 0.05)
        prof = p.profile
        levels = np.array([1.0 - 2.0 ** -53, 0.5, 0.0, 0.999, 1e-9])
        assert pc_priors._quantile_distance(p, levels[:1])[0] == 0.0
        draws = pc_sample(p, levels.size, _Levels(levels))
        assert draws[0] == inverse_distance(prof, _TINY) and math.isfinite(draws[0])
        want = inverse_distance(prof, pc_priors._quantile_distance(p, levels[1:]))
        assert np.array_equal(draws[1:].view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("pair", PAIRS)
    def test_draws_are_the_public_inverse_of_their_distances(self, pair):
        # the draws skip the public check, not a bit of the inverse: a
        # stream of levels reaching both ends of (0, 1)
        p = PcPrior(pair[0], pair[1], 0.7)
        rng = np.random.default_rng(19)
        levels = np.concatenate([rng.random(3000), 1.0 - np.geomspace(2.0 ** -52, 0.5, 200),
                                 np.geomspace(1e-300, 0.5, 200), [0.0]])
        d = pc_priors._quantile_distance(p, levels)
        top = p.profile.d_top
        if top is not None:
            d = np.minimum(d, top)
        want = inverse_distance(p.profile, d)
        got = pc_sample(p, levels.size, _Levels(levels))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_non_integer_n_rejected(self):
        # a fraction or a bool is not truncated to a count
        p = PcPrior(Family.CARDIOID, BaseModel.UNIFORM, 1.0)
        for bad in (2.5, True, np.float64(0.5), 0):
            with pytest.raises(ValueError, match="positive integer"):
                pc_sample(p, bad, seed=0)
        assert pc_sample(p, np.int64(3), seed=0).size == 3

    def test_nan_n_rejected_as_a_count(self):
        p = PcPrior(Family.CARDIOID, BaseModel.UNIFORM, 1.0)
        with pytest.raises(ValueError, match="n must be a positive integer"):
            pc_sample(p, math.nan, 1)

    def test_raw_paper_mode_has_no_sampler(self):
        p = PcPrior(Family.CARDIOID, BaseModel.CARDIOID_CURVE, 1.0, "paper")
        with pytest.raises(UnsupportedModeError):
            pc_sample(p, 10, seed=0)


class TestQTransform:
    def test_values(self):
        assert q_transform(Family.VON_MISES, 1.0) == pytest.approx(math.pi)
        assert q_transform(Family.VON_MISES, 0.0) == pytest.approx(2.0 * math.pi)
        assert q_transform(Family.CARDIOID, 0.2) == pytest.approx(0.4)
        assert q_transform(Family.WRAPPED_CAUCHY, 0.75) == pytest.approx(math.pi / 2.0)
        assert q_transform(Family.WRAPPED_CAUCHY, 1.0) == pytest.approx(0.0)

    def test_uniform_family_rejected(self):
        with pytest.raises(ValueError):
            q_transform(Family.UNIFORM, 0.0)


class TestTailSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TailSpec(0.0, 0.5)
        with pytest.raises(ValueError):
            TailSpec(1.0, 0.0)
        with pytest.raises(ValueError):
            TailSpec(1.0, 1.0)

    def test_family_threshold_ranges(self):
        TailSpec(2.0 * math.pi, 0.5).validate_for(Family.VON_MISES)
        with pytest.raises(ValueError):
            TailSpec(7.0, 0.5).validate_for(Family.VON_MISES)
        with pytest.raises(ValueError):
            TailSpec(1.0, 0.5).validate_for(Family.CARDIOID)
        TailSpec(0.99, 0.5).validate_for(Family.CARDIOID)


class TestCalibration:
    def test_round_trip_all_pairs(self):
        cases = [
            (Family.VON_MISES, BaseModel.UNIFORM, TailSpec(math.pi / 2, 0.5)),
            (Family.VON_MISES, BaseModel.POINT_MASS, TailSpec(math.pi / 2, 0.3)),
            (Family.CARDIOID, BaseModel.UNIFORM, TailSpec(0.5, 0.3)),
            (Family.CARDIOID, BaseModel.CARDIOID_CURVE, TailSpec(0.5, 0.8)),
            (Family.WRAPPED_CAUCHY, BaseModel.UNIFORM, TailSpec(0.6, 0.3)),
        ]
        for fam, base, tail in cases:
            lam = calibrate_lambda(fam, base, tail)
            prior = PcPrior(fam, base, lam)
            assert tail_probability(prior, tail) == pytest.approx(
                tail.alpha, abs=1e-10
            ), (fam, base)

    def test_wc_frozen_value(self):
        lam = calibrate_lambda(
            Family.WRAPPED_CAUCHY, BaseModel.UNIFORM, TailSpec(0.6, 0.5)
        )
        assert lam == pytest.approx(0.5309205934962034, rel=1e-12)

    def test_paper_matches_numeric_where_consistent(self):
        cases = [
            (Family.VON_MISES, BaseModel.UNIFORM, TailSpec(math.pi / 2, 0.5)),
            (Family.CARDIOID, BaseModel.UNIFORM, TailSpec(0.5, 0.3)),
            # near the top of the attainable range (0, 0.541): lambda ~ 0.015,
            # where the printed equation is nearly flat in lambda
            (Family.CARDIOID, BaseModel.UNIFORM, TailSpec(0.5, 0.54)),
            (Family.WRAPPED_CAUCHY, BaseModel.UNIFORM, TailSpec(0.6, 0.5)),
        ]
        for fam, base, tail in cases:
            a = calibrate_lambda(fam, base, tail)
            b = calibrate_lambda_paper(fam, base, tail)
            assert b == pytest.approx(a, rel=1e-11), (fam, base)

    def test_paper_point_mass_frozen_value(self):
        # printed closed form; solves the raw e^(-lambda d) statement, not
        # the truncated CDF, so it stands alone as its own calibration
        lam = calibrate_lambda_paper(
            Family.VON_MISES, BaseModel.POINT_MASS, TailSpec(math.pi / 2, 0.3)
        )
        assert lam == pytest.approx(0.8182367749253235, rel=1e-12)

    def test_attainable_ranges_frozen(self):
        lo, hi = attainable_alpha_range(
            Family.VON_MISES, BaseModel.POINT_MASS, math.pi / 2
        )
        assert (lo, hi) == pytest.approx((0.0, 0.5640932369835316), abs=1e-10)
        lo, hi = attainable_alpha_range(Family.CARDIOID, BaseModel.UNIFORM, 0.5)
        assert (lo, hi) == pytest.approx((0.0, 0.5410352415128681), abs=1e-10)
        lo, hi = attainable_alpha_range(Family.CARDIOID, BaseModel.CARDIOID_CURVE, 0.5)
        assert (lo, hi) == pytest.approx((0.6098406284217227, 1.0), abs=1e-10)
        lo, hi = attainable_alpha_range(Family.VON_MISES, BaseModel.UNIFORM, math.pi)
        assert (lo, hi) == (0.0, 1.0)

    def test_tiny_alpha_inside_the_attainable_range(self):
        # lambda ~ 1e-13 lies below the first bracket [1e-8, 1e6]
        tail = TailSpec(math.pi / 2, 1e-13)
        assert attainable_alpha_range(Family.VON_MISES, BaseModel.UNIFORM, tail.U) == (0.0, 1.0)
        lam = calibrate_lambda(Family.VON_MISES, BaseModel.UNIFORM, tail)
        prior = PcPrior(Family.VON_MISES, BaseModel.UNIFORM, lam)
        assert tail_probability(prior, tail) == pytest.approx(1e-13, rel=1e-9)

    @pytest.mark.parametrize("root", [3e-15, 1e-8, 0.7, 1e6, 2e11])
    def test_bracket_widens_until_it_holds_the_root(self, root):
        # both sides of the first bracket, and its ends themselves
        lam = _rate_root(lambda x: math.log(x / root), TailSpec(1.0, 0.5), (0.0, 1.0))
        assert lam == pytest.approx(root, rel=1e-11)

    def test_bracket_stops_widening_at_the_float_range(self):
        with pytest.raises(InfeasibleTailError) as exc_info:
            _rate_root(lambda x: 1.0, TailSpec(1.0, 0.5), (0.0, 1.0))
        assert exc_info.value.attainable == (0.0, 1.0)

    def test_infeasible_alpha_raises_with_range(self):
        tail = TailSpec(0.5, 0.9)
        with pytest.raises(InfeasibleTailError) as exc_info:
            calibrate_lambda(Family.CARDIOID, BaseModel.UNIFORM, tail)
        err = exc_info.value
        assert err.attainable == pytest.approx((0.0, 0.5410352415128681), abs=1e-10)
        assert "attainable" in str(err)

    @given(
        st.sampled_from(CONSISTENT_PAIRS),
        st.floats(min_value=0.05, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_calibration_round_trip_property(self, pair, alpha):
        tail = TailSpec(0.5 if pair[0] is Family.CARDIOID else 1.0, alpha)
        lo, hi = attainable_alpha_range(pair[0], pair[1], tail.U)
        if not lo + 1e-3 < alpha < hi - 1e-3:
            return
        lam = calibrate_lambda(pair[0], pair[1], tail)
        prior = PcPrior(pair[0], pair[1], lam)
        assert tail_probability(prior, tail) == pytest.approx(alpha, abs=1e-9)


# every (pair, U, alpha) on the study grids whose alpha the pair attains:
# each grid's U and alphas on each pair of its family
def _study_tails():
    grids = {}
    for cfg in [desk_study_config()] + [full_study_config(f) for f in ("vm", "cardioid", "wc")]:
        for spec in cfg.prior_specs:
            if spec.kind.startswith("pc_"):
                grids.setdefault((cfg.family, spec.U), set()).add(spec.hypers[0])
    cases = []
    for (fam, U), alphas in sorted(grids.items()):
        for pair in PAIRS:
            if pair[0] is fam:
                lo, hi = attainable_alpha_range(*pair, U)
                cases += [(*pair, TailSpec(U, a)) for a in sorted(alphas) if lo < a < hi]
    return cases


STUDY_TAILS = _study_tails()
# (xtol, rtol): the calibrations', scipy's defaults, and a coarse pair
TOLERANCES = ((1e-300, 1e-12), (2e-12, 8.881784197001252e-16), (1e-6, 1e-6))
# smooth functions with a root at r and a scale s
SMOOTH = (
    lambda r, s: lambda x: s * (x - r),
    lambda r, s: lambda x: math.tanh(s * (x - r)),
    lambda r, s: lambda x: (x - r) + 0.3 * s * (x - r) ** 3,
    lambda r, s: lambda x: math.exp(x) - math.exp(r),
    lambda r, s: lambda x: math.atan(x - r) + 0.1 * math.sin(3.0 * (x - r)) * (x - r),
)


def _outcome(solve):
    """A solve's root, or the type of the error it raised."""
    try:
        return solve()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _same_as_brentq(f, a, b, xtol, rtol):
    """_brent from the values at both ends, and scipy's brentq, on f over [a, b]."""
    got = _outcome(lambda: _brent(f, a, b, f(a), f(b), xtol, rtol))
    want = _outcome(lambda: brentq(f, a, b, xtol=xtol, rtol=rtol))
    return got, want


class TestBrent:
    """_brent against scipy.optimize.brentq, for exact equality."""

    @staticmethod
    def _solves(monkeypatch, run):
        # each root solve of ``run``: its arguments and its root
        solves, solve = [], pc_priors._brent

        def spy(f, a, b, fa, fb, xtol, rtol):
            root = solve(f, a, b, fa, fb, xtol, rtol)
            solves.append((f, a, b, fa, fb, xtol, rtol, root))
            return root

        monkeypatch.setattr(pc_priors, "_brent", spy)
        run()
        return solves

    def _check_solves(self, solves):
        assert len(solves) == 1
        f, a, b, fa, fb, xtol, rtol, root = solves[0]
        # the ends' values come from the bracket's last widening step
        assert (fa, fb) == (f(a), f(b))
        assert root == brentq(f, a, b, xtol=xtol, rtol=rtol)

    @pytest.mark.parametrize("fam, base, tail", STUDY_TAILS)
    def test_study_calibrations(self, monkeypatch, fam, base, tail):
        self._check_solves(self._solves(monkeypatch, lambda: calibrate_lambda(fam, base, tail)))

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.54])
    def test_paper_cardioid_uniform(self, monkeypatch, alpha):
        tail = TailSpec(0.5, alpha)
        self._check_solves(self._solves(
            monkeypatch, lambda: calibrate_lambda_paper(Family.CARDIOID, BaseModel.UNIFORM, tail)
        ))

    @pytest.mark.parametrize("xtol, rtol", TOLERANCES)
    @pytest.mark.parametrize("form", range(len(SMOOTH)))
    def test_random_smooth_roots(self, form, xtol, rtol):
        rng = np.random.default_rng(1000 + form)
        for _ in range(100):
            r, s = rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)
            a, b = r - 10.0 ** rng.uniform(-2.0, 1.0), r + 10.0 ** rng.uniform(-2.0, 1.0)
            if rng.random() < 0.5:
                a, b = b, a
            got, want = _same_as_brentq(SMOOTH[form](r, s), a, b, xtol, rtol)
            assert isinstance(got, float) and got == want, (r, s, a, b)

    @pytest.mark.parametrize(
        "f, a, b, want",
        [
            # a nan residual, at either end or inside the bracket
            (lambda x: math.nan if x < 0.0 else x, -1.0, 2.0, ValueError),
            (lambda x: math.nan if x > 1.0 else x, -1.0, 2.0, ValueError),
            (lambda x: math.nan if 0.1 < x < 0.9 else x - 0.5, 0.0, 1.0, ValueError),
            # ends of one sign
            (lambda x: x * x + 1.0, -1.0, 2.0, ValueError),
            # an end whose residual is exactly 0 is the root
            (lambda x: x - 1.0, 1.0, 3.0, 1.0),
            (lambda x: x - 3.0, 1.0, 3.0, 3.0),
            (lambda x: -0.0 if x == 1.0 else x - 0.5, 1.0, -2.0, 1.0),
            # a sign step at 0 from +-1e300 needs ~2000 bisections
            (lambda x: 1.0 if x > 0.0 else -1.0, -1e300, 1e300, RuntimeError),
        ],
    )
    def test_scipy_contract(self, f, a, b, want):
        got, scipy_got = _same_as_brentq(f, a, b, 1e-300, 1e-12)
        assert got == scipy_got == want

import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from circpc.distributions import (
    FAMILIES,
    TWO_PI,
    Dataset,
    DistributionSpec,
    Family,
    circular_mean,
    log_pdf,
    pdf,
    resultant_length,
    sample,
    wrap_angle,
)
from circpc.special import log_bessel_i0


def wrapped_cauchy_sum_oracle(mu, rho, x, k_range=2000):
    """Density by brute-force wrapping of the Cauchy density.

    The tail terms fall off like 1/k^2, so the truncated part is replaced by a
    midpoint-rule estimate from the Cauchy tail mass.
    """
    gamma = -math.log(rho)
    ks = np.arange(-k_range, k_range + 1)
    total = stats.cauchy.pdf(x + TWO_PI * ks, loc=mu, scale=gamma).sum()
    edge = TWO_PI * (k_range + 0.5)
    total += (
        stats.cauchy.sf(x + edge, loc=mu, scale=gamma)
        + stats.cauchy.cdf(x - edge, loc=mu, scale=gamma)
    ) / TWO_PI
    return total


class TestSpecValidation:
    def test_uniform_ignores_concentration(self):
        spec = DistributionSpec(Family.UNIFORM, mu=1.0, concentration=9.9)
        assert spec.concentration == 0.0

    def test_cardioid_range(self):
        with pytest.raises(ValueError):
            DistributionSpec(Family.CARDIOID, concentration=0.5)
        DistributionSpec(Family.CARDIOID, concentration=0.49999)

    def test_wrapped_cauchy_range(self):
        with pytest.raises(ValueError):
            DistributionSpec(Family.WRAPPED_CAUCHY, concentration=1.0)

    def test_vm_negative_concentration(self):
        with pytest.raises(ValueError):
            DistributionSpec(Family.VON_MISES, concentration=-0.1)

    def test_mu_stored_wrapped(self):
        spec = DistributionSpec(Family.VON_MISES, mu=-1.0, concentration=1.0)
        assert 0.0 <= spec.mu < TWO_PI


class TestPdf:
    def test_vm_zero_concentration_is_uniform(self):
        spec = DistributionSpec(Family.VON_MISES, mu=math.pi, concentration=0.0)
        assert pdf(spec, 1.0) == pytest.approx(1.0 / TWO_PI, rel=1e-14)

    def test_cardioid_zero_concentration_is_uniform(self):
        spec = DistributionSpec(Family.CARDIOID, mu=math.pi, concentration=0.0)
        assert pdf(spec, 2.0) == pytest.approx(1.0 / TWO_PI, rel=1e-14)

    def test_wrapped_cauchy_hand_value(self):
        # (1/2pi) (1 - 0.25) / (1 + 0.25 - 2*0.5) = 3/(2 pi)
        spec = DistributionSpec(Family.WRAPPED_CAUCHY, mu=0.0, concentration=0.5)
        assert pdf(spec, 0.0) == pytest.approx(3.0 / TWO_PI, rel=1e-14)

    def test_wrapped_cauchy_matches_wrapped_sum(self):
        spec = DistributionSpec(Family.WRAPPED_CAUCHY, mu=1.2, concentration=0.4)
        for x in (0.0, 1.0, 3.5, 6.0):
            assert pdf(spec, x) == pytest.approx(
                wrapped_cauchy_sum_oracle(1.2, 0.4, x), rel=1e-9
            )

    def test_periodicity(self):
        for fam, conc in [
            (Family.VON_MISES, 2.0),
            (Family.CARDIOID, 0.3),
            (Family.WRAPPED_CAUCHY, 0.6),
        ]:
            spec = DistributionSpec(fam, mu=0.7, concentration=conc)
            xs = np.linspace(0.0, TWO_PI, 17)
            assert pdf(spec, xs) == pytest.approx(pdf(spec, xs + TWO_PI))

    def test_matching_limits_at_cut(self):
        spec = DistributionSpec(Family.VON_MISES, mu=2.0, concentration=3.0)
        assert pdf(spec, 0.0) == pdf(spec, TWO_PI)

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_location_equivariance(self, mu, delta):
        shifted = DistributionSpec(Family.VON_MISES, mu=mu, concentration=1.5)
        centered = DistributionSpec(Family.VON_MISES, mu=0.0, concentration=1.5)
        assert pdf(shifted, mu + delta) == pytest.approx(pdf(centered, delta), rel=1e-12)

    def test_normalization_all_families(self):
        grids = {
            Family.VON_MISES: (0.0, 0.5, 2.0, 10.0, 80.0),
            Family.CARDIOID: (0.0, 0.1, 0.25, 0.4, 0.49),
            Family.WRAPPED_CAUCHY: (0.0, 0.1, 0.5, 0.8, 0.95),
        }
        xs = np.linspace(0.0, TWO_PI, 20001)
        for fam, concs in grids.items():
            for c in concs:
                spec = DistributionSpec(fam, mu=1.0, concentration=c)
                mass = np.trapezoid(pdf(spec, xs), xs)
                assert mass == pytest.approx(1.0, abs=1e-8)


class TestLogPdf:
    def test_vm_hand_value(self):
        spec = DistributionSpec(Family.VON_MISES, mu=0.0, concentration=2.0)
        want = 2.0 - math.log(TWO_PI) - log_bessel_i0(2.0)
        assert log_pdf(spec, 0.0) == pytest.approx(want, rel=1e-14)

    def test_uniform_constant(self):
        spec = DistributionSpec(Family.UNIFORM)
        assert log_pdf(spec, 4.0) == pytest.approx(-math.log(TWO_PI), rel=1e-15)

    def test_cardioid_hand_value(self):
        spec = DistributionSpec(Family.CARDIOID, mu=0.0, concentration=0.3)
        assert log_pdf(spec, math.pi) == pytest.approx(math.log(0.4 / TWO_PI), rel=1e-12)

    def test_agrees_with_log_of_pdf(self):
        xs = np.linspace(0.0, TWO_PI, 101)
        for fam, conc in [
            (Family.VON_MISES, 5.0),
            (Family.CARDIOID, 0.45),
            (Family.WRAPPED_CAUCHY, 0.9),
        ]:
            spec = DistributionSpec(fam, mu=3.0, concentration=conc)
            assert log_pdf(spec, xs) == pytest.approx(np.log(pdf(spec, xs)), abs=1e-12)

    def test_large_kappa_stable(self):
        spec = DistributionSpec(Family.VON_MISES, mu=0.0, concentration=5000.0)
        assert math.isfinite(log_pdf(spec, 0.0))
        assert log_pdf(spec, math.pi) < -9000.0


class TestSampling:
    def test_uniform_resultant_small(self):
        data = sample(DistributionSpec(Family.UNIFORM), 100000, seed=1)
        assert resultant_length(data.angles) < 0.01

    def test_vm_resultant(self):
        from circpc.special import bessel_ratio

        data = sample(DistributionSpec(Family.VON_MISES, 0.3, 2.0), 100000, seed=2)
        r = resultant_length(data.angles)
        se = math.sqrt((1.0 - r * r) / 100000)
        assert abs(r - bessel_ratio(2.0)) < 3.0 * se

    def test_wc_resultant(self):
        data = sample(DistributionSpec(Family.WRAPPED_CAUCHY, 0.3, 0.5), 100000, seed=3)
        r = resultant_length(data.angles)
        se = math.sqrt((1.0 - r * r) / 100000)
        assert abs(r - 0.5) < 3.0 * se

    def test_deterministic_for_seed(self):
        a = sample(DistributionSpec(Family.CARDIOID, 1.0, 0.3), 50, seed=9)
        b = sample(DistributionSpec(Family.CARDIOID, 1.0, 0.3), 50, seed=9)
        assert np.array_equal(a.angles, b.angles)

    def test_all_angles_wrapped(self):
        for fam, conc in [
            (Family.UNIFORM, 0.0),
            (Family.VON_MISES, 3.0),
            (Family.CARDIOID, 0.4),
            (Family.WRAPPED_CAUCHY, 0.8),
        ]:
            data = sample(DistributionSpec(fam, 5.5, conc), 1000, seed=4)
            assert np.all((data.angles >= 0.0) & (data.angles < TWO_PI))

    def test_chi_square_against_pdf(self):
        # 36 bins, significance 1e-3
        edges = np.linspace(0.0, TWO_PI, 37)
        mids = 0.5 * (edges[:-1] + edges[1:])
        n = 100000
        for fam, conc in [
            (Family.VON_MISES, 2.0),
            (Family.CARDIOID, 0.35),
            (Family.WRAPPED_CAUCHY, 0.55),
        ]:
            spec = DistributionSpec(fam, 2.2, conc)
            data = sample(spec, n, seed=5)
            counts, _ = np.histogram(data.angles, bins=edges)
            probs = pdf(spec, mids)
            probs = probs / probs.sum()
            _, p_value = stats.chisquare(counts, probs * n)
            assert p_value > 1e-3, (fam, p_value)

    @pytest.mark.parametrize("kappa", (1e-5, 1e-8, 1e-12, 5e-324))
    def test_vm_tiny_kappa_finishes_and_is_uniform(self, kappa):
        # the envelope's rho used to cancel to 0 below kappa ~ 1e-7 and
        # reject every proposal forever; a hang fails the test after 20 s
        def hung(signum, frame):
            raise TimeoutError(f"sampling at kappa={kappa} did not finish")

        old = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            data = sample(DistributionSpec(Family.VON_MISES, 1.0, kappa), 5000, seed=6)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        # Rayleigh test of uniformity: P(Z > z) ~ exp(-z) for Z = n R^2
        n = len(data.angles)
        z = n * resultant_length(data.angles) ** 2
        assert math.exp(-z) > 1e-3, z

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError):
            sample(DistributionSpec(Family.UNIFORM), 0, seed=0)

    def test_non_integer_n_rejected(self):
        # a fraction or a bool is not truncated to a count
        spec = DistributionSpec(Family.VON_MISES, 1.0, 2.0)
        for bad in (2.5, True, np.float64(0.5)):
            with pytest.raises(ValueError, match="positive integer"):
                sample(spec, bad, seed=0)
        assert len(sample(spec, np.int64(3), seed=0).angles) == 3

    def test_infinite_n_rejected_as_a_count(self):
        spec = DistributionSpec(Family.VON_MISES, 1.0, 2.0)
        with pytest.raises(ValueError, match="n must be a positive integer"):
            sample(spec, math.inf, 1)


class TestDataset:
    def test_wraps_negative_angles(self):
        d = Dataset(np.array([-0.5, 7.0]))
        assert np.all((d.angles >= 0.0) & (d.angles < TWO_PI))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.array([]))

    def test_csv_round_trip(self, tmp_path):
        d = Dataset(np.array([0.25, 3.9, 6.1]), label="test")
        path = tmp_path / "angles.csv"
        d.save_csv(path)
        back = Dataset.load_csv(path)
        assert np.array_equal(back.angles, d.angles)

    def test_load_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("degrees\n10\n")
        with pytest.raises(ValueError):
            Dataset.load_csv(path)


class TestCircularStats:
    def test_circular_mean_wraps_across_cut(self):
        m = circular_mean(np.array([0.05, TWO_PI - 0.05]))
        assert min(m, TWO_PI - m) < 1e-9

    def test_resultant_of_point_mass(self):
        assert resultant_length(np.full(10, 1.3)) == pytest.approx(1.0, rel=1e-12)

    @given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_wrap_angle_range(self, xs):
        wrapped = wrap_angle(np.asarray(xs))
        assert np.all((wrapped >= 0.0) & (wrapped < TWO_PI))


class TestLoglikSetUp:
    """The per-dataset log-likelihoods: cardioid and wrapped Cauchy keep
    the trig of the angles, and every family splits into a mu term and a
    concentration term that a chain keeps as state."""

    MUS = (0.3, 1.7, 3.1, 4.4, 6.0)
    DEVS = tuple(s * 10.0 ** e for e in np.linspace(-10.0, -2.0, 9) for s in (1.0, -1.0))
    CASES = [(Family.CARDIOID, ell) for ell in (0.25, 0.49999)] + [
        (Family.WRAPPED_CAUCHY, rho) for rho in (0.5, 0.99, 1.0 - 1e-6)
    ]

    @staticmethod
    def exact(family, x, mu, conc):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            c = mp.cos(mp.mpf(x) - mp.mpf(mu))
            k = mp.mpf(conc)
            if family is Family.CARDIOID:
                v = mp.log1p(2 * k * c)
            else:
                v = mp.log1p(-k * k) - mp.log(1 + k * k - 2 * k * c)
            return v - mp.log(2 * mp.pi)

    @pytest.mark.parametrize("family, conc", CASES)
    def test_near_mu_against_mpmath(self, family, conc):
        # points with x - mu in +-[1e-10, 1e-2]: both the set-up and the
        # public log_pdf stay within 1e-9 (wc at 1 - 1e-6: 1.1e-10 and
        # 3.5e-15; a wrapped Cauchy denominator 1 + rho^2 - 2 rho cos(x - mu)
        # would cancel there, to 2.3e-4)
        kern = FAMILIES[family]
        err_setup = err_direct = 0.0
        for mu in self.MUS:
            spec = DistributionSpec(family, mu, conc)
            for dev in self.DEVS:
                x = float(wrap_angle(mu + dev))
                want = self.exact(family, x, mu, conc)
                got = kern.loglik(np.array([x]))(mu, conc)
                err_setup = max(err_setup, float(abs(got - want)))
                err_direct = max(err_direct, float(abs(log_pdf(spec, x) - want)))
        assert err_setup <= 1e-9, err_setup
        assert err_direct <= 1e-9, err_direct

    @pytest.mark.parametrize("family", (Family.VON_MISES, Family.CARDIOID, Family.WRAPPED_CAUCHY))
    def test_reused_setup_gives_fresh_bits(self, family):
        # current, proposal, current, accepted proposal, for mu and for the
        # concentration: one set-up, called again and again, returns what a
        # fresh one does
        angles = sample(DistributionSpec(family, 1.0, 0.3), 200, seed=4).angles
        loglik = FAMILIES[family].loglik(angles)
        a, b, c = 1.0, 1.3, 5.9
        k, k2, k3 = 0.2, 0.35, 0.1
        calls = [(a, k), (b, k), (a, k), (a, k2), (a, k), (b, k), (b, k3), (c, k3),
                 (b, k3), (c, k3), (a, k3)]
        for mu, conc in calls:
            fresh = FAMILIES[family].loglik(angles)(mu, conc)
            got = loglik(mu, conc)
            assert type(got) is float
            assert np.float64(got).view(np.int64) == np.float64(fresh).view(np.int64), (mu, conc)

    @pytest.mark.parametrize("family, conc", [(Family.CARDIOID, 0.3), (Family.WRAPPED_CAUCHY, 0.7)])
    def test_matches_summed_log_density(self, family, conc):
        angles = sample(DistributionSpec(family, 2.0, conc), 500, seed=5).angles
        kern = FAMILIES[family]
        for mu in (0.0, 2.0, 5.5):
            want = math.fsum(kern.log_density(angles, mu, conc))
            assert kern.loglik(angles)(mu, conc) == pytest.approx(want, rel=1e-13)

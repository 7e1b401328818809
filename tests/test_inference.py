import gc
import hashlib
import math
import struct
import sys
import warnings

import numpy as np
import pytest

from scipy import special as scipy_special

from circpc import divergence, inference, special
from circpc.distributions import (
    FAMILIES,
    TWO_PI,
    Dataset,
    DistributionSpec,
    Family,
    log_pdf,
    sample,
)
from circpc.harness import build_concentration_prior, desk_study_config, full_study_config
from circpc.inference import (
    Chain,
    InitializationError,
    McmcConfig,
    ModelSpec,
    PosteriorSummary,
    effective_sample_size,
    log_posterior,
    run_mcmc,
    summarize,
)
from circpc.divergence import _LINEAR_CUT, _VM_RADICAND_LARGE, _VM_RADICAND_SMALL
from circpc.pc_priors import PcPrior, TailSpec, calibrate_lambda, pc_pdf
from circpc.reference_priors import (
    _log_density_fn,
    H2,
    H3,
    Beta,
    GammaOneB,
    ScaledBetaHalf,
    UniformHalf,
    VonMisesConjugate,
    ref_pdf,
)
from circpc.special import _RATIO_TAIL_SWITCH, _TINY, _log_i0, bessel_ratio

DATA3 = Dataset(np.array([0.1, 1.2, 3.0]))


def pcu_vm_prior(alpha=0.5):
    lam = calibrate_lambda("vm", "uniform", TailSpec(math.pi / 2.0, alpha))
    return PcPrior("vm", "uniform", lam)


class TestModelSpecValidation:
    def test_uniform_family_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(Family.UNIFORM, GammaOneB(1.0))

    def test_prior_support_must_match(self):
        with pytest.raises(ValueError):
            ModelSpec(Family.CARDIOID, GammaOneB(1.0))
        with pytest.raises(ValueError):
            ModelSpec(Family.WRAPPED_CAUCHY, UniformHalf())

    def test_joint_conjugate_prior_rejected(self):
        with pytest.raises(ValueError, match="univariate"):
            ModelSpec(Family.VON_MISES, VonMisesConjugate(1.0, 0.5, 0.0))

    def test_pc_prior_family_must_match(self):
        with pytest.raises(ValueError):
            ModelSpec(Family.VON_MISES, PcPrior("cardioid", "uniform", 1.0))

    def test_unnormalized_pc_prior_allowed(self):
        # the missing constant cancels in the posterior, so this is usable
        ModelSpec(Family.VON_MISES, PcPrior("vm", "pointmass", 1.0, "paper"))


class TestMcmcConfigValidation:
    def test_minimum_kept_iterations(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=1500, burn_in=1000, seed=1)

    def test_target_acceptance_interior(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                McmcConfig(iterations=2000, burn_in=500, seed=1, target_acceptance=bad)

    def test_burn_in_nonnegative(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=2000, burn_in=-5, seed=1)

    def test_bool_and_fractional_counts_rejected(self):
        # rejected, not read as burn_in == 1 or truncated; 0 is a burn-in
        with pytest.raises(ValueError, match="burn_in"):
            McmcConfig(iterations=2000, burn_in=True, seed=1)
        with pytest.raises(ValueError, match="burn_in"):
            McmcConfig(iterations=2000, burn_in=500.5, seed=1)
        with pytest.raises(ValueError, match="iterations"):
            McmcConfig(iterations=2000.5, burn_in=500, seed=1)
        assert McmcConfig(iterations=1000, burn_in=0, seed=1).burn_in == 0

    def test_infinite_count_rejected_as_a_count(self):
        # ValueError with the count's own message, not int()'s OverflowError
        with pytest.raises(ValueError, match="iterations must be a positive integer"):
            McmcConfig(iterations=math.inf, burn_in=500, seed=1)

    @pytest.mark.parametrize("name", ["initial_mu", "initial_concentration"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_initial_state_must_be_finite(self, name, bad):
        # checked when the config is built, not when a chain starts
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            McmcConfig(iterations=2000, burn_in=500, seed=1, **{name: bad})
        cfg = McmcConfig(iterations=2000, burn_in=500, seed=1, **{name: np.float64(0.5)})
        assert getattr(cfg, name) == 0.5

    def test_seed_checked_not_truncated(self):
        # not read as seed 2, 1 or -1; 0 is a seed
        for bad in (2.5, True, -1):
            with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
                McmcConfig(iterations=2000, burn_in=500, seed=bad)
        assert McmcConfig(iterations=2000, burn_in=500, seed=0).seed == 0
        assert type(McmcConfig(iterations=2000, burn_in=500, seed=np.int64(7)).seed) is int


class TestLogPosterior:
    def test_hand_values_per_family(self):
        cases = [
            (Family.VON_MISES, GammaOneB(0.5), 2.0, math.log(0.5) - 0.5 * 2.0),
            (Family.CARDIOID, UniformHalf(), 0.3, math.log(2.0)),
            (Family.WRAPPED_CAUCHY, Beta(2.0, 2.0), 0.5, math.log(1.5)),
        ]
        for fam, prior, conc, log_prior in cases:
            model = ModelSpec(fam, prior)
            got = log_posterior(model, DATA3, 0.4, conc)
            loglik = float(np.sum(log_pdf(DistributionSpec(fam, 0.4, conc), DATA3.angles)))
            want = loglik + log_prior - math.log(TWO_PI)
            assert got == pytest.approx(want, rel=1e-13), fam

    def test_minus_inf_where_prior_vanishes(self):
        model = ModelSpec(Family.WRAPPED_CAUCHY, Beta(2.0, 2.0))
        assert log_posterior(model, DATA3, 1.0, 0.0) == -math.inf
        # H3's density is 0 at the closed end of the support
        assert ref_pdf(H3(), 0.0) == 0.0
        assert log_posterior(ModelSpec(Family.VON_MISES, H3()), DATA3, 1.0, 0.0) == -math.inf

    def test_prior_without_log_table_reads_log_of_its_pdf(self):
        # any object with the family's support and a pdf is a concentration
        # prior; without a log table of its own its log is log(pdf)
        class HalfNormal:
            support = (0.0, math.inf)

            def pdf(self, x):
                return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x)

        model = ModelSpec(Family.VON_MISES, HalfNormal())
        loglik = float(np.sum(log_pdf(DistributionSpec(Family.VON_MISES, 0.4, 2.0), DATA3.angles)))
        want = loglik + math.log(HalfNormal().pdf(2.0)) - math.log(TWO_PI)
        assert log_posterior(model, DATA3, 0.4, 2.0) == pytest.approx(want, rel=1e-13)
        # its density underflows to 0 at 40: the log reads -inf there
        assert log_posterior(model, DATA3, 0.4, 40.0) == -math.inf

    @pytest.mark.parametrize("prior, conc, log_prior", [
        (GammaOneB(5.0), 1e3, math.log(5.0) - 5e3),
        (H3(), 2.0 ** 600, -1200.0 * math.log(2.0)),
    ])
    def test_finite_where_float_density_underflows(self, prior, conc, log_prior):
        # the density is positive there, though its float value is 0
        assert ref_pdf(prior, conc) == 0.0
        got = log_posterior(ModelSpec(Family.VON_MISES, prior), DATA3, 0.4, conc)
        loglik = float(np.sum(log_pdf(DistributionSpec(Family.VON_MISES, 0.4, conc), DATA3.angles)))
        assert got == pytest.approx(loglik + log_prior - math.log(TWO_PI), rel=1e-13)

    @pytest.mark.parametrize("family, prior", [
        (Family.WRAPPED_CAUCHY, Beta(0.5, 2.0)),
        (Family.CARDIOID, ScaledBetaHalf(0.5, 2.0)),
    ])
    def test_plus_inf_where_prior_diverges(self, family, prior):
        # a shape a < 1 puts an infinite density at 0: the posterior is +inf
        # there, not -inf; just inside, both stay finite
        assert ref_pdf(prior, 0.0) == math.inf
        model = ModelSpec(family, prior)
        assert log_posterior(model, DATA3, 1.0, 0.0) == math.inf
        assert math.isfinite(log_posterior(model, DATA3, 1.0, 1e-300))

    def test_rejects_concentration_outside_family_support(self):
        model = ModelSpec(Family.WRAPPED_CAUCHY, Beta(2.0, 2.0))
        with pytest.raises(ValueError):
            log_posterior(model, DATA3, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_posterior(model, DATA3, 1.0, -0.5)

    def test_kappa_gradient_matches_sufficient_statistics(self):
        # d/dk log post = C cos(mu) + S sin(mu) - n I1(k)/I0(k) - b
        rng = np.random.default_rng(17)
        b = 0.75
        model = ModelSpec(Family.VON_MISES, GammaOneB(b))
        for _ in range(10):
            angles = rng.uniform(0.0, TWO_PI, size=25)
            data = Dataset(angles)
            mu = rng.uniform(0.0, TWO_PI)
            k = rng.uniform(0.2, 8.0)
            h = 1e-6 * max(1.0, k)
            fd = (
                log_posterior(model, data, mu, k + h)
                - log_posterior(model, data, mu, k - h)
            ) / (2.0 * h)
            C = float(np.sum(np.cos(angles)))
            S = float(np.sum(np.sin(angles)))
            analytic = (
                C * math.cos(mu) + S * math.sin(mu) - 25 * bessel_ratio(k) - b
            )
            assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-7)

    def test_pc_prior_matches_direct_density(self):
        from circpc.pc_priors import pc_pdf

        prior = pcu_vm_prior()
        model = ModelSpec(Family.VON_MISES, prior)
        for k in (0.1, 1.0, 5.0, 50.0):
            got = log_posterior(model, DATA3, 1.0, k)
            loglik = float(
                np.sum(log_pdf(DistributionSpec(Family.VON_MISES, 1.0, k), DATA3.angles))
            )
            want = loglik + math.log(pc_pdf(prior, k)) - math.log(TWO_PI)
            assert got == pytest.approx(want, rel=1e-11)


class TestRunMcmc:
    def test_deterministic_for_seed(self):
        model = ModelSpec(Family.VON_MISES, pcu_vm_prior())
        data = sample(DistributionSpec(Family.VON_MISES, 1.0, 2.0), 50, seed=8)
        cfg = McmcConfig(iterations=3000, burn_in=1000, seed=42)
        a = run_mcmc(model, data, cfg)
        b = run_mcmc(model, data, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert a.acceptance_rates == b.acceptance_rates

    def test_recovers_von_mises_concentration(self):
        data = sample(DistributionSpec(Family.VON_MISES, math.pi, 3.0), 1000, seed=21)
        model = ModelSpec(Family.VON_MISES, pcu_vm_prior())
        chain = run_mcmc(model, data, McmcConfig(iterations=6000, burn_in=2000, seed=5))
        post_mean = float(chain.draws[:, 1].mean())
        assert 2.4 <= post_mean <= 3.6

    def test_uniform_data_gives_small_wc_concentration(self):
        data = sample(DistributionSpec(Family.UNIFORM), 1000, seed=22)
        model = ModelSpec(Family.WRAPPED_CAUCHY, PcPrior("wc", "uniform", 1.0))
        chain = run_mcmc(model, data, McmcConfig(iterations=6000, burn_in=2000, seed=6))
        assert float(chain.draws[:, 1].mean()) < 0.15

    def test_location_label_invariance(self):
        # rotating every angle by delta should rotate the posterior for mu
        # by delta and leave the concentration untouched
        delta = 1.0
        base = sample(DistributionSpec(Family.VON_MISES, 2.0, 2.5), 400, seed=23)
        shifted = Dataset((base.angles + delta) % TWO_PI)
        model = ModelSpec(Family.VON_MISES, pcu_vm_prior())
        cfg = McmcConfig(iterations=8000, burn_in=2000, seed=7)
        s_base = summarize(run_mcmc(model, base, cfg))
        s_shift = summarize(run_mcmc(model, shifted, cfg))
        mu_gap = abs(s_shift.mu_circular_mean - s_base.mu_circular_mean - delta)
        mu_gap = min(mu_gap, TWO_PI - mu_gap)
        assert mu_gap < 0.05
        assert s_shift.concentration_mean == pytest.approx(
            s_base.concentration_mean, abs=0.05
        )

    def test_steps_adapt_only_in_burn_in(self):
        # the kept loop leaves the steps as burn-in left them: without
        # burn-in they are the initial ones, with it both have moved
        model = ModelSpec(Family.VON_MISES, pcu_vm_prior())
        data = sample(DistributionSpec(Family.VON_MISES, 1.0, 2.0), 100, seed=9)
        kept_only = run_mcmc(model, data, McmcConfig(iterations=1000, burn_in=0, seed=3))
        assert kept_only.step_sizes == (0.5, 0.5)
        adapted = run_mcmc(model, data, McmcConfig(iterations=3000, burn_in=1000, seed=3))
        assert all(step != 0.5 for step in adapted.step_sizes)

    def test_initial_point_outside_support_raises(self):
        model = ModelSpec(Family.CARDIOID, UniformHalf())
        cfg = McmcConfig(
            iterations=2000, burn_in=500, seed=1, initial_concentration=0.7
        )
        with pytest.raises(InitializationError):
            run_mcmc(model, DATA3, cfg)
        cfg2 = McmcConfig(
            iterations=2000, burn_in=500, seed=1, initial_concentration=-1.0
        )
        with pytest.raises(InitializationError):
            run_mcmc(model, DATA3, cfg2)

    def test_draw_count_and_offset(self):
        model = ModelSpec(Family.VON_MISES, pcu_vm_prior())
        cfg = McmcConfig(iterations=2500, burn_in=1100, seed=2)
        chain = run_mcmc(model, DATA3, cfg)
        assert chain.draws.shape == (1400, 2)
        assert chain.first_iteration == 1100
        assert np.all((chain.draws[:, 0] >= 0.0) & (chain.draws[:, 0] < TWO_PI))
        assert np.all(chain.draws[:, 1] > 0.0)


    def test_counts_out_of_support_proposals(self):
        # started at the largest rho below 1, steps up round back to rho = 1
        # and are rejected as outside the open support; from the default
        # start no proposal leaves it
        data = sample(DistributionSpec(Family.WRAPPED_CAUCHY, 1.0, 0.5), 50, seed=8)
        model = ModelSpec(Family.WRAPPED_CAUCHY, PcPrior("wc", "uniform", 1.0))
        edge = McmcConfig(iterations=2000, burn_in=1000, seed=1,
                          initial_concentration=float(np.nextafter(1.0, 0.0)))
        assert run_mcmc(model, data, edge).out_of_support > 0
        chain = run_mcmc(model, data, McmcConfig(iterations=2000, burn_in=1000, seed=1))
        assert chain.out_of_support == 0
        assert chain.wall_s > 0.0


def chain_digest(chain):
    """First 16 hex digits of a SHA-256 over a chain's draws, acceptance
    rates, step sizes and out-of-support count."""
    h = hashlib.sha256(chain.draws.tobytes())
    h.update(struct.pack("<2d", chain.acceptance_rates["mu"], chain.acceptance_rates["concentration"]))
    h.update(struct.pack("<2d", *chain.step_sizes))
    h.update(struct.pack("<q", chain.out_of_support))
    return h.hexdigest()[:16]


VM_PRIORS = {
    "pc-uniform": PcPrior("vm", "uniform", 0.9),
    "pc-pointmass": PcPrior("vm", "pointmass", 0.3),
    "gamma": GammaOneB(0.34),
    "h2": H2(),
    "h3": H3(),
}

# data at the ends of the kappa range, with the priors pinned on them:
# near-uniform angles under priors strong enough to keep every kept kappa
# in the small-kappa series range below 0.02, and concentrated angles
# whose chain climbs past 1e3 in burn-in and straddles 1e4 afterwards
VM_EDGES = {
    "near-uniform": (1e-3, lambda kappa: kappa.max() < 0.02, {
        "pc-uniform": PcPrior("vm", "uniform", 2000.0),
        "gamma": GammaOneB(600.0),
    }),
    "concentrated": (1e4, lambda kappa: kappa.min() < 1e4 < kappa.max(), {
        "pc-uniform": PcPrior("vm", "uniform", 0.9),
        "pc-pointmass": PcPrior("vm", "pointmass", 0.3),
        "gamma": GammaOneB(1e-4),
        "h2": H2(),
        "h3": H3(),
    }),
}


class TestVonMisesSamplerBits:
    """The von Mises chain's bits are pinned: a rewrite of the sampler's
    scalar path must keep the same floating-point operations in the same
    order. The hashes were recorded with numpy 2.4 and scipy 1.17 on
    x86-64 Linux."""

    EXPECTED = {
        ("pc-uniform", 100): "e4960cc1650370ad",
        ("pc-uniform", 300): "5622350510537380",
        ("pc-pointmass", 100): "b72351f5bd8b866f",
        ("pc-pointmass", 300): "9587847ae5dffeab",
        ("gamma", 100): "6ac0a113edad45fd",
        ("gamma", 300): "0b3bf0a67e72b89d",
        ("h2", 100): "7fe625edd6f4aa02",
        ("h2", 300): "5850aad8945b2c17",
        ("h3", 100): "71adaa6eb11d442c",
        ("h3", 300): "b95ce382be0f8ade",
    }

    EDGES = {
        ("near-uniform", "pc-uniform"): "d6a8787bc84a6cb9",
        ("near-uniform", "gamma"): "ee670a90eab8c1c5",
        ("concentrated", "pc-uniform"): "9d16b3708e273dbb",
        ("concentrated", "pc-pointmass"): "c81e61b28c5739fd",
        ("concentrated", "gamma"): "f2423a9fdb87b1d2",
        ("concentrated", "h2"): "bb1dad9f978de179",
        ("concentrated", "h3"): "2fa91ca1915dc29a",
    }

    @pytest.mark.parametrize("prior, n", sorted(EXPECTED))
    def test_chain_hash(self, prior, n):
        data = sample(DistributionSpec(Family.VON_MISES, 1.0, 2.0), n, seed=n + 7)
        model = ModelSpec(Family.VON_MISES, VM_PRIORS[prior])
        chain = run_mcmc(model, data, McmcConfig(iterations=2000, burn_in=500, seed=11))
        assert chain_digest(chain) == self.EXPECTED[prior, n]

    @pytest.mark.parametrize("data, prior", sorted(EDGES))
    def test_edge_chain_hash(self, data, prior):
        truth, visits, priors = VM_EDGES[data]
        angles = sample(DistributionSpec(Family.VON_MISES, 1.0, truth), 300, seed=307)
        model = ModelSpec(Family.VON_MISES, priors[prior])
        chain = run_mcmc(model, angles, McmcConfig(iterations=2000, burn_in=500, seed=11))
        assert visits(chain.concentration)
        assert chain_digest(chain) == self.EDGES[data, prior]

    # chains with no burn-in: every iteration is kept, and no step adapts
    KEPT_ONLY = {
        "pc-uniform": "6a99b980cd8b6c1a",
        "gamma": "25acdab03226f53e",
    }

    @pytest.mark.parametrize("prior", sorted(KEPT_ONLY))
    def test_kept_only_chain_hash(self, prior):
        data = sample(DistributionSpec(Family.VON_MISES, 1.0, 2.0), 100, seed=107)
        model = ModelSpec(Family.VON_MISES, VM_PRIORS[prior])
        chain = run_mcmc(model, data, McmcConfig(iterations=1500, burn_in=0, seed=11))
        assert chain.step_sizes == (0.5, 0.5)
        assert chain_digest(chain) == self.KEPT_ONLY[prior]


# family, true concentration of the data, and the priors pinned with it
LOGIT_FAMILIES = {
    Family.CARDIOID: (0.3, {
        "pc-uniform": PcPrior("cardioid", "uniform", 2.0),
        "scaled-beta": ScaledBetaHalf(2.0, 2.0),
        "uniform-half": UniformHalf(),
    }),
    Family.WRAPPED_CAUCHY: (0.7, {
        "pc-uniform": PcPrior("wc", "uniform", 1.0),
        "beta": Beta(2.0, 2.0),
    }),
}


class TestLogitScaleSamplerBits:
    """The cardioid and wrapped Cauchy chains' bits are pinned the same
    way: both move the concentration on a logit scale derived from the
    family's bounded support. Recorded with numpy 2.4 and scipy 1.17 on
    x86-64 Linux."""

    EXPECTED = {
        (Family.CARDIOID, "pc-uniform", 100): "5cd383b6999333b9",
        (Family.CARDIOID, "pc-uniform", 300): "880aee3c103cc531",
        (Family.CARDIOID, "scaled-beta", 100): "cdeb45284a024866",
        (Family.CARDIOID, "scaled-beta", 300): "0ce2616b34b72e57",
        (Family.CARDIOID, "uniform-half", 100): "1fd30633bbf84088",
        (Family.CARDIOID, "uniform-half", 300): "abbf366d8cb62a3c",
        (Family.WRAPPED_CAUCHY, "pc-uniform", 100): "2fc2e67b78d80158",
        (Family.WRAPPED_CAUCHY, "pc-uniform", 300): "4ddc440eb59780f3",
        (Family.WRAPPED_CAUCHY, "beta", 100): "3afaf58c3bef4768",
        (Family.WRAPPED_CAUCHY, "beta", 300): "6fe76b6f16b1204a",
    }

    @pytest.mark.parametrize("family, prior, n", sorted(EXPECTED))
    def test_chain_hash(self, family, prior, n):
        truth, priors = LOGIT_FAMILIES[family]
        data = sample(DistributionSpec(family, 1.0, truth), n, seed=n + 7)
        model = ModelSpec(family, priors[prior])
        chain = run_mcmc(model, data, McmcConfig(iterations=2000, burn_in=500, seed=11))
        assert chain_digest(chain) == self.EXPECTED[family, prior, n]


def _collapsed_vm_posterior_mean(angles, prior):
    """E[kappa | x] of a von Mises fit with a flat location prior, from
    numpy and scipy alone: mu integrates out to 2 pi I0(kappa R), so
    p(kappa | x) is proportional to pi(kappa) I0(kappa R) / I0(kappa)^n,
    with R the data's resultant length. The integrals run on a log-kappa
    grid. A Gamma(1, b) prior's density is b exp(-b kappa); a vm/uniform
    PC prior's is lambda exp(-lambda d) in d = sqrt(kappa A(kappa) -
    log I0(kappa)), A = I1 / I0, so that one integrates over d itself and
    needs no slope."""
    kappa = np.logspace(-6.0, 3.0, 20001)
    n = angles.size
    R = math.hypot(float(np.sum(np.cos(angles))), float(np.sum(np.sin(angles))))

    def log_i0(z):
        return np.log(scipy_special.i0e(z)) + z

    log_lik = log_i0(kappa * R) - n * log_i0(kappa)
    if isinstance(prior, GammaOneB):
        # d kappa = kappa d(log kappa)
        log_weight = log_lik - prior.b * kappa + np.log(kappa)
        measure = np.log(kappa)
    else:
        ratio = scipy_special.i1e(kappa) / scipy_special.i0e(kappa)
        measure = np.sqrt(kappa * ratio - log_i0(kappa))
        log_weight = log_lik - prior.lam * measure
    weight = np.exp(log_weight - log_weight.max())
    return float(np.trapezoid(kappa * weight, measure) / np.trapezoid(weight, measure))


class TestCollapsedPosteriorOracle:
    """A 20 000-iteration chain's posterior mean of kappa agrees with the
    collapsed posterior's, integrated on a grid, to within 4 Monte Carlo
    standard errors, the chain's standard deviation over the square root
    of its own effective sample size: an independent check of the
    sampler, the likelihood and the prior's log density together. The
    priors are strong enough to be seen: with the rate 1.5 times too
    large the oracle's mean moves by 38 (Gamma) and 7 (PC) such errors."""

    @pytest.mark.parametrize("prior", [GammaOneB(5.0), PcPrior("vm", "uniform", 5.0)], ids=repr)
    def test_posterior_mean(self, prior):
        data = sample(DistributionSpec(Family.VON_MISES, 1.0, 2.0), 100, seed=2024)
        chain = run_mcmc(ModelSpec(Family.VON_MISES, prior), data, McmcConfig(iterations=20000, seed=7))
        kappa = chain.concentration
        mcse = float(np.std(kappa)) / math.sqrt(effective_sample_size(kappa))
        want = _collapsed_vm_posterior_mean(data.angles, prior)
        assert abs(float(np.mean(kappa)) - want) <= 4.0 * mcse, (float(np.mean(kappa)), want, mcse)


class TestEffectiveSampleSize:
    def test_constant_chain_reports_full_length(self):
        assert effective_sample_size(np.full(500, 2.2)) == 500.0

    def test_iid_draws_near_full_length(self):
        x = np.random.default_rng(3).standard_normal(20000)
        ess = effective_sample_size(x)
        assert 0.8 * 20000 <= ess <= 20000

    def test_correlated_chain_shrinks(self):
        rng = np.random.default_rng(4)
        n = 20000
        x = np.empty(n)
        x[0] = 0.0
        for i in range(1, n):
            x[i] = 0.95 * x[i - 1] + rng.standard_normal()
        ess = effective_sample_size(x)
        # AR(1) with phi=0.95 has ESS about n/39
        assert ess < 0.1 * n

    def test_never_exceeds_length(self):
        x = np.random.default_rng(5).standard_normal(256)
        assert effective_sample_size(x) <= 256.0


class TestSummarize:
    def synthetic_chain(self, mu, conc):
        draws = np.column_stack([mu, conc])
        return Chain(
            draws=draws,
            acceptance_rates={"mu": 0.44, "concentration": 0.44},
            step_sizes=(1.0, 1.0),
            first_iteration=0,
        )

    def test_constant_chain(self):
        chain = self.synthetic_chain(np.full(2000, 1.0), np.full(2000, 3.3))
        s = summarize(chain)
        assert s.concentration_mean == pytest.approx(3.3)
        assert s.concentration_ci_low == pytest.approx(3.3)
        assert s.concentration_ci_high == pytest.approx(3.3)
        assert s.effective_sample_size == 2000.0

    def test_exponential_reference_quantiles(self):
        rng = np.random.default_rng(12)
        conc = rng.exponential(1.0, size=100000)
        chain = self.synthetic_chain(rng.uniform(0.0, TWO_PI, 100000), conc)
        s = summarize(chain)
        assert s.concentration_mean == pytest.approx(1.0, abs=0.02)
        assert s.concentration_ci_low == pytest.approx(0.025317807984289897, abs=0.002)
        assert s.concentration_ci_high == pytest.approx(3.6888794541139363, abs=0.05)

    def test_mu_mean_is_circular(self):
        # cluster around the 0/2pi cut; a linear mean would report ~pi
        rng = np.random.default_rng(13)
        mu = np.concatenate([
            rng.uniform(0.0, 0.1, 3000),
            rng.uniform(TWO_PI - 0.1, TWO_PI, 3000),
        ])
        chain = self.synthetic_chain(mu, np.ones_like(mu))
        s = summarize(chain)
        gap = min(s.mu_circular_mean, TWO_PI - s.mu_circular_mean)
        assert gap < 0.01

    def test_to_dict_keys(self):
        chain = self.synthetic_chain(np.full(1500, 0.5), np.full(1500, 1.0))
        d = summarize(chain).to_dict()
        assert set(d) == {
            "concentration_mean",
            "concentration_ci_low",
            "concentration_ci_high",
            "mu_circular_mean",
            "effective_sample_size",
        }


class TestChainCsv:
    def test_round_trip(self, tmp_path):
        model = ModelSpec(Family.VON_MISES, pcu_vm_prior())
        cfg = McmcConfig(iterations=2200, burn_in=1200, seed=11)
        chain = run_mcmc(model, DATA3, cfg)
        path = tmp_path / "chain.csv"
        chain.save_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,mu,concentration"
        assert len(lines) == 1 + 1000
        first = lines[1].split(",")
        assert int(first[0]) == 1200
        assert float(first[1]) == chain.draws[0, 0]
        assert float(first[2]) == chain.draws[0, 1]


def _loglik_reference(family, angles, mu, conc):
    """Each family's log-likelihood as one expression, independent of the
    split set-up: the same floating-point operations in the same order."""
    n = angles.size
    if family is Family.VON_MISES:
        trig = float(np.sum(np.cos(angles))) * math.cos(mu) + float(np.sum(np.sin(angles))) * math.sin(mu)
        return conc * trig - n * (math.log(TWO_PI) + _log_i0(conc))
    if family is Family.CARDIOID:
        t = (np.cos(angles) * math.cos(mu) + np.sin(angles) * math.sin(mu)) * (2.0 * conc)
        return float(np.add.reduce(np.log1p(t))) - n * math.log(TWO_PI)
    dev = np.square(np.sin(0.5 * angles) * math.cos(0.5 * mu) - np.cos(0.5 * angles) * math.sin(0.5 * mu))
    t = dev * (4.0 * conc) + (1.0 - conc) * (1.0 - conc)
    log_norm = math.log1p(-conc) + math.log1p(conc) - math.log(TWO_PI)
    return n * log_norm - float(np.add.reduce(np.log(t)))


def _to_conc_reference(support, theta):
    hi = support[1]
    if math.isinf(hi):
        return math.exp(theta)
    return hi * (1.0 / (1.0 + math.exp(-theta)))


def _log_jac_reference(support, conc):
    hi = support[1]
    if math.isinf(hi):
        return math.log(conc)
    return math.log(conc / hi) + math.log1p(-conc / hi) + math.log(hi)


def _straddle(support, cut):
    """The unconstrained points whose concentrations are the two floats the
    sampler reaches closest to ``cut``: the last below it and the first
    from it up."""
    to_theta, to_conc = inference._unconstrained(support)[:2]
    width = 1.0
    while not to_conc(to_theta(cut) - width) < cut <= to_conc(to_theta(cut) + width):
        width *= 2.0
    below, above = to_theta(cut) - width, to_theta(cut) + width
    # bisect until the two are adjacent floats
    while math.nextafter(below, math.inf) < above:
        mid = 0.5 * (below + above)
        if to_conc(mid) < cut:
            below = mid
        else:
            above = mid
    return below, above


# every family with a PC prior on each of its pairs and each reference class
STEP_PRIORS = {
    Family.VON_MISES: (PcPrior("vm", "uniform", 0.9), PcPrior("vm", "pointmass", 0.3),
                       PcPrior("vm", "pointmass", 0.3, "paper"), GammaOneB(1.0), H2(), H3()),
    Family.CARDIOID: (PcPrior("cardioid", "uniform", 2.0), PcPrior("cardioid", "curve", 2.0),
                      ScaledBetaHalf(2.0, 2.0), ScaledBetaHalf(0.5, 2.0), UniformHalf()),
    Family.WRAPPED_CAUCHY: (PcPrior("wc", "uniform", 1.0), Beta(2.0, 2.0), Beta(0.5, 2.0)),
}
# the cuts of the kernels a concentration step runs: the distance forms'
# (_TINY also holds Beta's, H3's and vm/pointmass's value at 0), the cut
# 746/b of GammaOneB(1)'s pdf, H2's and H3's tails, the wc log(1 - rho^2)
# switch, and a few ordinary points
STEP_CUTS = (_TINY, _LINEAR_CUT, 1e-3, _VM_RADICAND_SMALL, 0.3, float(np.nextafter(0.5, 1.0)), 2.0,
             _RATIO_TAIL_SWITCH, _VM_RADICAND_LARGE, 746.0, 2.0 ** 341, 2.0 ** 511)


class TestConcentrationStep:
    """The pieces a concentration move composes equal their references, bit
    for bit: the support's map back, the likelihood's move against the
    one-expression log-likelihood, the prior's log density
    given the term's shared values against the same density evaluated on
    its own (without the likelihood's Bessel pass) and the log-Jacobian,
    on the floats either side of every cut; the prior's log density also
    matches the log of its public density, to 1e-12."""

    @pytest.mark.parametrize("family", sorted(STEP_PRIORS, key=lambda f: f.value))
    def test_matches_separate_pieces(self, family):
        kern = FAMILIES[family]
        lo, hi = kern.support
        angles = sample(DistributionSpec(family, 1.0, 0.3), 50, seed=3).angles
        lik = kern.loglik(angles)
        to_conc, log_jac, _, top = inference._unconstrained(kern.support)[1:]
        mu = 0.7
        m = lik.mu_term(mu)
        visited = 0
        for prior in STEP_PRIORS[family]:
            log_prior = _log_density_fn(prior)
            for cut in STEP_CUTS:
                if not lo < cut < hi:
                    continue
                for theta in _straddle(kern.support, cut):
                    # the move as run_mcmc composes it
                    assert theta < top
                    got_conc = to_conc(theta)
                    if not lo < got_conc < hi:
                        continue
                    visited += 1
                    _, shared, got_lik = lik.conc_move(m, got_conc)
                    got_pri, got_jac = log_prior(got_conc, shared), log_jac(got_conc)
                    conc = _to_conc_reference(kern.support, theta)
                    assert all(type(v) is float for v in (got_conc, got_lik, got_pri, got_jac))
                    want = (conc, _loglik_reference(family, angles, mu, conc), log_prior(conc),
                            _log_jac_reference(kern.support, conc))
                    got = np.array((got_conc, got_lik, got_pri, got_jac))
                    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64)), \
                        (prior, conc, got, want)
                    # and the public density to rounding: each prior's log
                    # is formed on the log scale (a reference prior's is
                    # checked against mpmath in test_reference_priors)
                    density = pc_pdf(prior, conc) if isinstance(prior, PcPrior) else ref_pdf(prior, conc)
                    if density > 0.0:
                        assert got_pri == pytest.approx(math.log(density), rel=1e-12, abs=1e-12)
        assert visited >= 20

    def test_von_mises_shares_one_bessel_pass(self, monkeypatch):
        # i0e once, and i1e once where the prior's form needs it, per
        # proposal of a chain (and once for its start), through the float
        # namespace and never scipy's ufuncs; a mu move makes none
        calls = []

        def counted(name, fn):
            return lambda x: calls.append(name) or fn(x)

        class NoUfuncs:
            def __getattr__(self, name):
                if name in ("i0e", "i1e"):
                    raise AssertionError(f"scipy.special.{name} reached by a proposal")
                return getattr(scipy_special, name)

        for name in ("i0e", "i1e"):
            monkeypatch.setattr(special._FLOAT_MATH, name, counted(name, getattr(special._FLOAT_MATH, name)))
        monkeypatch.setattr(special, "_sp", NoUfuncs())
        config = McmcConfig(iterations=1000, burn_in=0, seed=5, initial_mu=1.0,
                            initial_concentration=2.0)
        for prior, want in ((PcPrior("vm", "uniform", 0.9), ["i0e", "i1e"]),
                            (PcPrior("vm", "pointmass", 0.3), ["i0e", "i1e"]),
                            (GammaOneB(1.0), ["i0e"])):
            calls.clear()
            chain = run_mcmc(ModelSpec(Family.VON_MISES, prior), DATA3, config)
            evaluated = 1 + config.iterations - chain.out_of_support
            assert calls == want * evaluated, prior


# the Python frames one run_mcmc iteration opens, by family and prior,
# for a chain started in the middle of the support (kappa = 2, ell = 0.25,
# rho = 0.5, where each distance kernel takes a direct form) on data drawn
# there, in burn-in and after it: the mu move (inline, no frame, on von
# Mises); the concentration move's map back (math.exp itself, no frame,
# on the log scale), the likelihood's move (inline on von Mises), the
# prior's log density (inline on von Mises for a PC-uniform prior's mid
# form and a Gamma's log b - b x, so no frame) and its form with the
# float namespace's numpy wrappers it calls, and for the logit families
# the log-Jacobian (math.log itself on the log scale); the cardioid and
# wc moves also open their O(n) sum
STEP_CALLS = {
    "vm+pc-uniform": (Family.VON_MISES, PcPrior("vm", "uniform", 0.9), 2.0, 0),
    "vm+pc-pointmass": (Family.VON_MISES, PcPrior("vm", "pointmass", 0.3), 2.0, 2),
    "vm+gamma": (Family.VON_MISES, GammaOneB(1.0), 2.0, 0),
    "cardioid+pc": (Family.CARDIOID, PcPrior("cardioid", "uniform", 2.0), 0.25, 10),
    "wc+beta": (Family.WRAPPED_CAUCHY, Beta(2.0, 2.0), 0.5, 10),
}


class TestProposalCallCount:
    """An iteration costs its arithmetic, not call layers: the number of
    Python frames each run_mcmc iteration opens is pinned, so layering
    cannot creep back unseen. Counted with sys.setprofile, so it does not
    depend on timing."""

    @pytest.mark.parametrize("burn_in", (0, 1000))
    @pytest.mark.parametrize("case", sorted(STEP_CALLS))
    def test_python_calls_per_proposal(self, case, burn_in):
        family, prior, initial, want = STEP_CALLS[case]
        config = McmcConfig(iterations=burn_in + 1000, burn_in=burn_in, seed=5,
                            initial_mu=1.0, initial_concentration=initial)
        # data at the start's concentration hold an adapting chain near it
        data = sample(DistributionSpec(family, 1.0, initial), 300, seed=13)
        # each frame opened, and None at each call of math.sin: the mu
        # term's, which every family's mu move makes once, inline or not
        events = []
        sin = math.sin

        def profile(frame, event, arg):
            if event == "call":
                events.append((frame.f_code.co_name, frame.f_back.f_code.co_name))
            elif event == "c_call" and arg is sin:
                events.append(None)

        # a collection would run any gc.callbacks another library set
        # (hypothesis times its collections) inside some iteration
        gc_was_enabled = gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            chain = run_mcmc(ModelSpec(family, prior), data, config)
        finally:
            sys.setprofile(None)
            if gc_was_enabled:
                gc.enable()
        assert chain.out_of_support == 0
        # the chain's start and then each iteration's mu move take the mu
        # term once; a period runs from one iteration's sin to the next's,
        # so the start's own frames and the last iteration's, which run
        # into the frames after the loop, are left out
        marks = [i for i, e in enumerate(events) if e is None]
        assert len(marks) == config.iterations + 1
        per_iteration = [b - a - 1 for a, b in zip(marks[1:], marks[2:])]
        # the same count in burn-in, where the steps adapt, and after it
        if burn_in:
            assert set(per_iteration[:burn_in]) == {want}, events[marks[1]:marks[2]]
        assert set(per_iteration[burn_in:]) == {want}, events[marks[-2]:marks[-1]]


def _floats_around(cut, count):
    """The ``count`` floats just below ``cut`` and the ``count`` from it up."""
    bits = int(np.float64(cut).view(np.int64))
    return (np.arange(bits - count, bits + count, dtype=np.int64).view(np.float64)).tolist()


# the vm PC-uniform and Gamma priors of the desk and full study grids
INLINE_PRIOR_SPECS = {
    f"{spec.kind}-{spec.hypers[0]}": spec
    for spec in desk_study_config().prior_specs + full_study_config(Family.VON_MISES).prior_specs
    if spec.kind in ("pc_uniform", "gamma")
}


class TestInlineCopies:
    """run_mcmc's von Mises loops write out the mu move, the concentration
    move and, for a PC-uniform prior's mid form and a Gamma(1, b), the
    prior's log density; each copy, in burn-in and in the kept loop,
    equals its source bit for bit: ``_vm_loglik``'s ``mu_term`` and
    ``conc_move``, and the prior's log density given the Bessel pass.
    The chain proposes a fixed list of concentrations, each in both
    loops, and the log-Jacobian, called right after the prior, reads the
    loop's values."""

    @pytest.mark.parametrize("spec", sorted(INLINE_PRIOR_SPECS))
    def test_inline_forms_equal_their_sources(self, monkeypatch, spec):
        prior = build_concentration_prior(INLINE_PRIOR_SPECS[spec], Family.VON_MISES)
        table = PcPrior("vm", "uniform", 1.0).profile.dist_deriv
        mid = table.forms.index(divergence._vm_uniform_mid)
        pc_lo, pc_hi = table.cuts[mid - 1], table.cuts[mid]
        assert (pc_lo, pc_hi) == (_VM_RADICAND_SMALL, _RATIO_TAIL_SWITCH) == (0.02, 1e3)
        # a dense grid over the mid interval, and the floats either side of
        # its cuts, the ones below the first and from the second up outside
        grid = np.geomspace(pc_lo, pc_hi, 2001)[:-1].tolist()
        grid += _floats_around(pc_lo, 4000) + _floats_around(pc_hi, 4000)
        # a Gamma's form holds on the whole support
        gamma_grid = grid + np.geomspace(1e-300, 1e300, 601).tolist()
        angles = sample(DistributionSpec(Family.VON_MISES, 1.0, 2.0), 100, seed=3).angles
        source = FAMILIES[Family.VON_MISES].loglik(angles)
        is_pc = isinstance(prior, PcPrior)
        kappas = grid if is_pc else gamma_grid
        proposals = iter(kappas + kappas)
        seen, fallback = [], []

        def to_conc(theta):
            return next(proposals)

        def log_jac(conc):
            loop = sys._getframe(1).f_locals
            if "pri_prop" in loop:  # not the chain's start
                seen.append((loop["conc_prop"], loop["pri_prop"], loop["c_prop"], loop["lik_prop"],
                             loop["mu_prop"], loop["m_prop"], loop["mu"], loop["m"], loop["conc"],
                             loop["c"], loop["cur_lik"], len(fallback)))
            return math.log(conc)

        def counted_log_density_fn(p):
            log_prior = _log_density_fn(p)

            def counted(x, shared=()):
                fallback.append(x)
                return log_prior(x, shared)

            return counted

        monkeypatch.setattr(inference, "_unconstrained",
                            lambda support: (math.log, to_conc, log_jac, 1.0, math.inf))
        monkeypatch.setattr(inference, "_log_density_fn", counted_log_density_fn)
        # every mu move is taken (log u = -inf), so each one's likelihood
        # becomes the chain's and shows in cur_lik
        z = np.random.default_rng(1).standard_normal((2 * len(kappas), 2))
        u = np.full(z.shape, 0.5)
        u[:, 0] = 0.0
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _StubRng(z, u))
        config = McmcConfig(iterations=2 * len(kappas), burn_in=len(kappas),
                            initial_mu=1.0, initial_concentration=2.0)
        run_mcmc(ModelSpec(Family.VON_MISES, prior), Dataset(angles), config)
        monkeypatch.undo()

        # each proposal once in burn-in, then once in the kept loop
        assert [v[0] for v in seen] == kappas + kappas
        log_prior = _log_density_fn(prior)
        i0e = special._FLOAT_MATH.i0e
        got, want, took_fallback = [], [], []
        calls = 1  # the chain's start calls the prior once
        for x, pri, c_prop, lik_prop, mu_prop, m_prop, mu, m, conc, c, cur_lik, n_calls in seen:
            took_fallback.append(n_calls > calls)
            calls = n_calls
            i0 = i0e(x)
            want_c, _, want_lik = source.conc_move(m, x)
            cur_c, _, cur_want = source.conc_move(m, conc)
            got += [pri, c_prop, lik_prop, m_prop, m, c, cur_lik]
            want += [log_prior(x, (i0, float(np.log(i0)))), want_c, want_lik,
                     source.mu_term(mu_prop), source.mu_term(mu), cur_c, cur_want]
        got, want = np.array(got), np.array(want)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # a PC prior calls its log density off the mid interval: on the
        # floats below it and from its top up; a Gamma never does
        outside = [is_pc and not pc_lo <= x < pc_hi for x in kappas + kappas]
        assert took_fallback == outside
        assert any(outside) == is_pc


class TestUnconstrainedMap:
    """The map back from the sampler's scale is float arithmetic with the
    bits the ufuncs give."""

    @pytest.mark.parametrize("hi", (0.5, 1.0))
    def test_logit_map_is_expit_bit_for_bit(self, hi):
        # the overflow of e^-t and below it, the middle, and far above
        top = 709.782712893384  # the largest t whose e^t is finite
        t = np.concatenate([np.linspace(-746.0, -700.0, 46_001), np.linspace(-40.0, 40.0, 80_001),
                            np.linspace(40.0, 750.0, 7_101), np.geomspace(750.0, 1e308, 300),
                            [-top, math.nextafter(-top, -math.inf), math.inf, -math.inf, 0.0]])
        to_conc, top_theta = inference._unconstrained((0.0, hi))[1::3]
        assert top_theta == math.inf
        got = np.array([to_conc(v) for v in t.tolist()])
        want = hi * scipy_special.expit(t)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # e^-t overflows below -top, where both read 0 exactly
        assert to_conc(math.nextafter(-top, -math.inf)) == 0.0 < to_conc(-top)

    def test_log_map_is_exp_below_its_top(self):
        to_theta, to_conc, log_jac, initial, top = inference._unconstrained((0.0, math.inf))
        assert (to_theta, to_conc, log_jac, initial) == (math.log, math.exp, math.log, 1.0)
        assert top == 709.0 and math.isfinite(to_conc(math.nextafter(top, 0.0)))


class _QueuedLogPrior:
    """A concentration prior on ``support`` whose log density reads the
    next value of a queue at every call, whatever the concentration."""

    def __init__(self, values, support):
        values = iter(values)
        self.support = support
        self._log_table = special._piecewise_table((), (lambda ns, x: next(values),))


class _StubRng:
    """A generator that hands run_mcmc the given draws."""

    def __init__(self, z, u):
        self.z, self.u = z, u

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z

    def random(self, shape):
        assert shape == self.u.shape
        return self.u


# the two move paths a chain can take, each on data concentrated enough
# that half a turn away from their mean direction has a log ratio below
# -745: von Mises, whose moves run inline on the log scale, and wrapped
# Cauchy, whose moves are calls on the logit scale. Per family: the data's
# concentration and the chain's start, the data's size, a prior that
# checks the half turn's log ratio, and half the change in the
# concentration of a step of 0.5e-3 on its scale
LOG_U_CASES = {
    "vm": (Family.VON_MISES, 50.0, 100, GammaOneB(1.0), 0.01),
    "wc": (Family.WRAPPED_CAUCHY, 0.9, 300, Beta(2.0, 2.0), 2e-5),
}


class TestLogUAcceptance:
    """Burn-in and kept moves alike are taken when log u < log a: at u = 0
    a move whose e^log_a underflows to 0 is taken, and a nan or -inf log
    ratio is rejected and a +inf one taken, without a RuntimeWarning; on
    the von Mises inline moves and on the calls of a logit-scale family
    alike."""

    @pytest.mark.parametrize("case", sorted(LOG_U_CASES))
    def test_log_u_decisions(self, monkeypatch, case):
        family, conc0, n, check_prior, _ = LOG_U_CASES[case]
        iters = 1000
        data = sample(DistributionSpec(family, 1.0, conc0), n, seed=2)
        z, u = np.zeros((iters, 2)), np.full((iters, 2), 0.5)
        # the concentration takes small steps up and down, so that each
        # accepted move shows in the draws; each proposal's log prior is
        # the next in the queue, after the start's 0
        z[:, 1] = np.where(np.arange(iters) % 2, -1e-3, 1e-3)
        cases = [  # (log prior of the proposal, u, taken)
            (-1000.0, 0.0, True),      # e^log_a is 0 = u: only log u < log a takes it
            (0.0, 0.5, True),          # back up by ~1000
            (-1000.0, 1e-300, False),  # log u = -690.8 > log a
            (-700.0, 0.0, True),
            (math.nan, 0.0, False),
            (-math.inf, 0.0, False),
            (math.inf, 0.999999, True),
        ]
        # from the +inf state on every log ratio is -inf
        rest = iters - len(cases)
        log_priors = [0.0] + [c[0] for c in cases] + [0.0] * rest
        taken = [c[2] for c in cases] + [False] * rest
        u[:len(cases), 1] = [c[1] for c in cases]
        # the mu move: half a turn away from the data's mean direction and
        # back, each at u = 0; the first's log ratio is below -745
        z[:2, 0] = TWO_PI, -TWO_PI  # the step is 0.5
        u[:2, 0] = 0.0
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _StubRng(z, u))
        model = ModelSpec(family, _QueuedLogPrior(log_priors, check_prior.support))
        config = McmcConfig(iterations=iters, burn_in=0, initial_mu=1.0, initial_concentration=conc0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = run_mcmc(model, data, config)
        check = ModelSpec(family, check_prior)
        half_turn = log_posterior(check, data, 1.0 + math.pi, conc0) - log_posterior(check, data, 1.0, conc0)
        assert half_turn < -745.0
        conc = np.concatenate([[conc0], chain.concentration])
        assert (conc[1:] != conc[:-1]).tolist() == taken
        assert chain.acceptance_rates["concentration"] == sum(taken) / iters
        assert chain.mu[0] == pytest.approx(1.0 + math.pi) and chain.mu[1] == pytest.approx(1.0)
        assert chain.acceptance_rates["mu"] == 1.0

    @staticmethod
    def _one_burn_in_row(monkeypatch, case, z_row, u_row, log_prior=0.0):
        # a chain whose one burn-in row has the given draws, the
        # concentration proposal's log prior being log_prior after the
        # start's 0; the kept rows propose the current state again, so the
        # first kept draw shows both burn-in decisions
        family, conc0, n, check_prior, _ = LOG_U_CASES[case]
        iters = 1001
        data = sample(DistributionSpec(family, 1.0, conc0), n, seed=2)
        z, u = np.zeros((iters, 2)), np.full((iters, 2), 0.5)
        z[0], u[0] = z_row, u_row
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _StubRng(z, u))
        prior = _QueuedLogPrior([0.0, log_prior] + [0.0] * (iters - 1), check_prior.support)
        config = McmcConfig(iterations=iters, burn_in=1, initial_mu=1.0, initial_concentration=conc0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = run_mcmc(ModelSpec(family, prior), data, config)
        assert all(math.isfinite(step) and step > 0.0 for step in chain.step_sizes)
        return chain

    @pytest.mark.parametrize("case", sorted(LOG_U_CASES))
    def test_burn_in_mu_move_at_u_zero(self, monkeypatch, case):
        # half a turn away from the data's mean direction, a log ratio
        # below -745 (see test_log_u_decisions), at u = 0; the step is 0.5
        chain = self._one_burn_in_row(monkeypatch, case, (TWO_PI, 0.0), (0.0, 0.5))
        assert chain.mu[0] == pytest.approx(1.0 + math.pi)

    @pytest.mark.parametrize("case", sorted(LOG_U_CASES))
    @pytest.mark.parametrize("log_prior, u_conc, taken", [
        (-1000.0, 0.0, True),      # e^log_a is 0 = u: only log u < log a takes it
        (-1000.0, 1e-300, False),  # log u = -690.8 > log a
        (-700.0, 0.0, True),
        (math.nan, 0.0, False),
        (-math.inf, 0.0, False),
        (math.inf, 0.999999, True),
    ])
    def test_burn_in_concentration_decisions(self, monkeypatch, case, log_prior, u_conc, taken):
        # a step up by 0.5e-3 on the concentration's scale: a taken one
        # moves it by twice the case's half change (kappa by 0.025, rho by 4.5e-5)
        conc0, half_change = LOG_U_CASES[case][1], LOG_U_CASES[case][4]
        chain = self._one_burn_in_row(monkeypatch, case, (0.0, 1e-3), (0.5, u_conc), log_prior)
        assert chain.mu[0] == 1.0
        assert (abs(chain.concentration[0] - conc0) > half_change) == taken

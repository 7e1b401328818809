import gc
import hashlib
import math
import struct
import sys

import numpy as np
import pytest

from scipy import special as scipy_special

from circpc import inference, special
from circpc.distributions import (
    FAMILIES,
    TWO_PI,
    Dataset,
    DistributionSpec,
    Family,
    log_pdf,
    sample,
)
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

    def test_step_adaptation_stops_after_burn_in(self):
        model = ModelSpec(Family.VON_MISES, pcu_vm_prior())
        data = sample(DistributionSpec(Family.VON_MISES, 1.0, 2.0), 100, seed=9)
        cfg = McmcConfig(iterations=3000, burn_in=1000, seed=3)
        chain = run_mcmc(model, data, cfg, trace_steps=True)
        trace = np.asarray(chain.step_trace)
        assert trace.shape[0] == 3000
        post = trace[1000:]
        assert np.all(post == post[0])
        pre = trace[:1000]
        assert np.any(pre[1:] != pre[:-1])

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


class TestStepTraceBits:
    """The step-size trace's bits are pinned per family, adapted rows and
    frozen rows alike: the first 16 hex digits of a SHA-256 over the
    whole (iterations, 2) trace. Recorded with numpy 2.4 and scipy 1.17 on
    x86-64 Linux."""

    EXPECTED = {
        Family.VON_MISES: (2.0, PcPrior("vm", "uniform", 0.9), "0f96ff56999c4f44"),
        Family.CARDIOID: (0.3, PcPrior("cardioid", "uniform", 2.0), "12c6ce1dc194f825"),
    }

    @pytest.mark.parametrize("family", sorted(EXPECTED, key=lambda f: f.value))
    def test_trace_hash(self, family):
        truth, prior, want = self.EXPECTED[family]
        data = sample(DistributionSpec(family, 1.0, truth), 100, seed=107)
        config = McmcConfig(iterations=2000, burn_in=500, seed=11)
        chain = run_mcmc(ModelSpec(family, prior), data, config, trace_steps=True)
        trace = chain.step_trace
        assert trace.shape == (2000, 2) and trace.dtype == np.float64
        assert trace.flags["C_CONTIGUOUS"]
        assert tuple(trace[-1]) == chain.step_sizes
        assert hashlib.sha256(trace.tobytes()).hexdigest()[:16] == want


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
    to_theta, to_conc, _, _ = inference._unconstrained(support)
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
    for bit: the support's map back, the likelihood's term and combine
    against the one-expression log-likelihood, the prior's log density
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
        to_conc, log_jac = inference._unconstrained(kern.support)[1:3]
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
                    got_conc = to_conc(theta)
                    if not lo < got_conc < hi:
                        continue
                    visited += 1
                    c, shared = lik.conc_term(got_conc)
                    got_lik = lik.combine(m, got_conc, c)
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
# there, in burn-in and after it: the mu
# move's mu_term and combine; the concentration move's map back (a
# lambda on either scale), conc_term, combine, the prior's log density
# and its form with the float namespace's numpy wrappers it calls (none
# for Gamma's log b - b x), and for the logit families the log-Jacobian
# (math.log itself, no frame, on the log scale)
STEP_CALLS = {
    "vm+pc-uniform": (Family.VON_MISES, PcPrior("vm", "uniform", 0.9), 2.0, 7),
    "vm+pc-pointmass": (Family.VON_MISES, PcPrior("vm", "pointmass", 0.3), 2.0, 7),
    "vm+gamma": (Family.VON_MISES, GammaOneB(1.0), 2.0, 7),
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
        frames = []

        def profile(frame, event, arg):
            if event == "call":
                frames.append((frame.f_code.co_name, frame.f_back.f_code.co_name))

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
        # each iteration opens with its mu move's mu_term; the first such
        # call is the chain start's, and the last iteration runs into the
        # frames after the loop
        starts = [i for i, f in enumerate(frames) if f == ("mu_term", "run_mcmc")]
        assert len(starts) == 1 + config.iterations
        per_iteration = [b - a for a, b in zip(starts[1:], starts[2:])]
        # the same count in burn-in, where the steps adapt, and after it
        if burn_in:
            assert set(per_iteration[:burn_in]) == {want}, frames[starts[1]:starts[2]]
        assert set(per_iteration[burn_in:]) == {want}, frames[starts[-2]:starts[-1]]

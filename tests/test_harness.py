import hashlib
import io
import logging
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import circpc
import circpc.harness as harness
from circpc.distributions import TWO_PI, Dataset, DistributionSpec, Family, sample
from circpc.harness import (
    PriorSpec,
    SimStudyConfig,
    build_concentration_prior,
    desk_study_config,
    full_study_config,
    run_sim_study,
    tail_from_data,
)
from circpc.inference import McmcConfig, summarize
from circpc.pc_priors import PcPrior, TailSpec
from circpc.reference_priors import Beta, GammaOneB, H2, UniformHalf

TINY_MCMC = McmcConfig(iterations=2000, burn_in=1000, seed=0)


def tiny_config(**overrides):
    kwargs = dict(
        family=Family.VON_MISES,
        true_concentration_grid=(1.0,),
        sample_sizes=(40,),
        replicates=2,
        prior_specs=(
            PriorSpec("gamma", (1.0,)),
            PriorSpec("pc_uniform", (0.5,), U=math.pi / 2.0),
        ),
        base_seed=99,
        mcmc=TINY_MCMC,
    )
    kwargs.update(overrides)
    return SimStudyConfig(**kwargs)


class TestPriorSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PriorSpec("cauchy", (1.0,))

    def test_pc_kind_needs_threshold(self):
        with pytest.raises(ValueError):
            PriorSpec("pc_uniform", (0.5,))

    def test_pc_kind_single_hyper(self):
        with pytest.raises(ValueError):
            PriorSpec("pc_uniform", (0.5, 0.1), U=1.0)

    def test_reference_kind_arity(self):
        with pytest.raises(ValueError):
            PriorSpec("gamma", ())
        with pytest.raises(ValueError):
            PriorSpec("beta", (2.0,))
        with pytest.raises(ValueError):
            PriorSpec("h2", (1.0,))

    def test_calibration_mode_checked(self):
        with pytest.raises(ValueError):
            PriorSpec("pc_uniform", (0.5,), U=1.0, calibration="exact")

    def test_hypers_must_be_a_sequence(self):
        # "5" would otherwise be split into the hyperparameter 5.0
        with pytest.raises(ValueError, match="hypers must be a sequence, not a string"):
            PriorSpec("gamma", "5")

    def test_hyper_labels_are_shortest_exact(self):
        assert PriorSpec("h2").hyper_label == "-"
        assert PriorSpec("gamma", (0.1,)).hyper_label == "0.1"
        assert PriorSpec("beta", (5.0, 2.0)).hyper_label == "a=5.0;b=2.0"
        assert PriorSpec("pc_uniform", (0.3,), U=1.0).hyper_label == "0.3"


class TestBuildPrior:
    def test_reference_kinds(self):
        assert build_concentration_prior(PriorSpec("h2"), Family.VON_MISES) == H2()
        assert build_concentration_prior(
            PriorSpec("gamma", (0.34,)), Family.VON_MISES
        ) == GammaOneB(0.34)
        assert build_concentration_prior(
            PriorSpec("uniform_half"), Family.CARDIOID
        ) == UniformHalf()
        assert build_concentration_prior(
            PriorSpec("beta", (5.0, 2.0)), Family.WRAPPED_CAUCHY
        ) == Beta(5.0, 2.0)

    def test_pc_kind_calibrates(self):
        prior = build_concentration_prior(
            PriorSpec("pc_uniform", (0.3,), U=0.6), Family.WRAPPED_CAUCHY
        )
        assert isinstance(prior, PcPrior)
        assert prior.lam == pytest.approx(0.27319749431596657, rel=1e-12)

    def test_paper_calibration_mode(self):
        spec = PriorSpec(
            "pc_pointmass", (0.3,), U=math.pi / 2.0, calibration="paper"
        )
        prior = build_concentration_prior(spec, Family.VON_MISES)
        assert prior.lam == pytest.approx(0.8182367749253235, rel=1e-12)


class TestSimStudyConfig:
    def test_uniform_family_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(family=Family.UNIFORM)

    def test_empty_grids_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(true_concentration_grid=())
        with pytest.raises(ValueError):
            tiny_config(sample_sizes=())
        with pytest.raises(ValueError):
            tiny_config(prior_specs=())

    def test_grids_must_be_sequences(self):
        # "13" would otherwise run the truths 1.0 and 3.0
        for name in ("true_concentration_grid", "sample_sizes", "prior_specs"):
            with pytest.raises(ValueError, match=f"{name} must be a sequence, not a string"):
                tiny_config(**{name: "13"})

    def test_truth_outside_support(self):
        with pytest.raises(ValueError):
            tiny_config(family=Family.CARDIOID, true_concentration_grid=(0.6,))
        with pytest.raises(ValueError):
            tiny_config(true_concentration_grid=(-1.0,))

    def test_replicates_positive(self):
        with pytest.raises(ValueError):
            tiny_config(replicates=0)

    def test_fractional_sample_size_rejected(self):
        # rejected, not truncated to 100
        with pytest.raises(ValueError, match="sample size"):
            tiny_config(sample_sizes=(100.7,))
        with pytest.raises(ValueError, match="sample size"):
            tiny_config(sample_sizes=(True,))

    def test_fractional_replicates_rejected(self):
        # rejected, not truncated to 2
        with pytest.raises(ValueError, match="replicates"):
            tiny_config(replicates=2.5)
        with pytest.raises(ValueError, match="replicates"):
            tiny_config(replicates=True)
        assert tiny_config(replicates=3.0).replicates == 3

    def test_base_seed_checked_not_truncated(self):
        # rejected, not run as base seed 520
        for bad in (520.9, True, -1):
            with pytest.raises(ValueError, match="base_seed must be a nonnegative integer"):
                tiny_config(base_seed=bad)
        assert tiny_config(base_seed=520.0).base_seed == 520

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mu_true_must_be_finite(self, bad):
        # checked when the config is built, not when a replicate's data is drawn
        with pytest.raises(ValueError, match="^mu_true must be finite$"):
            replace(desk_study_config(), mu_true=bad)

    def test_desk_and_full_configs_construct(self):
        desk = desk_study_config()
        assert desk.family is Family.VON_MISES
        assert desk.replicates == 20
        assert desk.sample_sizes == (100, 300)
        for fam in (Family.VON_MISES, Family.CARDIOID, Family.WRAPPED_CAUCHY):
            full = full_study_config(fam)
            assert full.replicates == 100
            # every prior in the grid must actually calibrate
            for spec in full.prior_specs:
                build_concentration_prior(spec, fam)


# run in a fresh interpreter with a pickled config on stdin: the lazily
# loaded modules after import, after a serial run and after a pooled
# one, then the pooled run's CSV
_FRESH_POOL_RUN = """
import io, pickle, sys
import circpc, circpc.cli
lazy = ("scipy.optimize", "concurrent.futures.process")
loaded = [[m for m in lazy if m in sys.modules]]
cfg = pickle.loads(sys.stdin.buffer.read())
circpc.run_sim_study(cfg, workers=1)
loaded.append([m for m in lazy if m in sys.modules])
buf = io.StringIO()
circpc.run_sim_study(cfg, workers=2).write_csv(buf)
loaded.append([m for m in lazy if m in sys.modules])
sys.stdout.write(repr(loaded) + "\\n" + buf.getvalue())
"""


class TestRunSimStudy:
    def test_rows_in_grid_order_with_expected_labels(self):
        result = run_sim_study(tiny_config())
        assert len(result.rows) == 2
        (r1, r2) = result.rows
        assert r1[0] == "gamma" and r1[1] == "1.0"
        assert r2[0] == "pc_uniform" and r2[1] == "0.5"
        for row in result.rows:
            assert row[2] == 1.0 and row[3] == 40
            assert math.isfinite(row[4]) and row[5] >= 0.0
            assert row[6] == 0

    def test_serial_and_pool_agree_bitwise(self):
        cfg = tiny_config()
        serial = run_sim_study(cfg)
        pooled = run_sim_study(cfg, workers=2)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        serial.write_csv(buf_a)
        pooled.write_csv(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        # in a fresh interpreter: importing the package and the CLI loads
        # neither scipy.optimize nor the process pool, a serial run does not
        # load the pool, and the first pooled run loads it and still gives
        # the serial CSV
        src = os.path.dirname(os.path.dirname(circpc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_POOL_RUN], input=pickle.dumps(cfg),
            capture_output=True, env=env, timeout=300,
        )
        assert fresh.returncode == 0, fresh.stderr.decode()
        loaded, pooled_csv = fresh.stdout.decode().split("\n", 1)
        assert loaded == "[[], [], ['concurrent.futures.process']]"
        assert pooled_csv == buf_a.getvalue()

    def test_rerun_identical(self):
        cfg = tiny_config()
        a = run_sim_study(cfg)
        b = run_sim_study(cfg)
        assert a.rows == b.rows

    def test_failed_cell_reported_not_raised(self):
        # cardioid support is (0, 0.5); an initial value of 0.7 can never
        # initialize, so every replicate of every cell fails
        cfg = SimStudyConfig(
            family=Family.CARDIOID,
            true_concentration_grid=(0.2,),
            sample_sizes=(30,),
            replicates=2,
            prior_specs=(PriorSpec("uniform_half"),),
            base_seed=7,
            mcmc=McmcConfig(
                iterations=2000, burn_in=1000, seed=0, initial_concentration=0.7
            ),
        )
        result = run_sim_study(cfg)
        (row,) = result.rows
        assert row[6] == 2
        assert math.isnan(row[4])
        assert row[5] == 0.0

    def test_unexpected_replicate_error_counted_and_logged(self, monkeypatch, caplog):
        # the second fit of the study raises something other than an
        # initialization failure: its cell counts it, every other
        # replicate and cell still runs, and the log names it
        real = harness.run_mcmc
        calls = []

        def flaky(model, data, config, **kwargs):
            calls.append(config.seed)
            if len(calls) == 2:
                raise FloatingPointError("overflow in a kernel")
            return real(model, data, config, **kwargs)

        monkeypatch.setattr(harness, "run_mcmc", flaky)
        cfg = tiny_config()
        with caplog.at_level(logging.WARNING, logger="circpc.harness"):
            result = run_sim_study(cfg)
        assert len(calls) == 4
        (gamma_row, pc_row) = result.rows
        assert gamma_row[6] == 1 and pc_row[6] == 0
        assert math.isfinite(gamma_row[4]) and gamma_row[5] == 0.0
        # a rerun is clean (the patched fit raises only once)
        assert pc_row == run_sim_study(cfg).rows[1]
        (record,) = caplog.records
        assert record.levelno == logging.WARNING and record.name == "circpc.harness"
        message = record.getMessage()
        assert "replicate 1 " in message and "truth=1.0" in message and "N=40" in message
        assert f"data seed {cfg.base_seed + 1}" in message
        assert f"chain seed {cfg.base_seed + 10 ** 6 + 1}" in message
        assert record.exc_info[0] is FloatingPointError

    def test_infeasible_pc_alpha_raises_upfront(self):
        cfg = tiny_config(
            family=Family.CARDIOID,
            true_concentration_grid=(0.2,),
            prior_specs=(PriorSpec("pc_uniform", (0.9,), U=0.5),),
        )
        with pytest.raises(ValueError):
            run_sim_study(cfg)

    # a prior of the family's support first, then one of another's
    @pytest.mark.parametrize("family,good,bad", [
        (Family.CARDIOID, PriorSpec("uniform_half"), PriorSpec("gamma", (1.0,))),
        (Family.CARDIOID, PriorSpec("uniform_half"), PriorSpec("beta", (2.0, 2.0))),
        (Family.WRAPPED_CAUCHY, PriorSpec("beta", (2.0, 2.0)), PriorSpec("uniform_half")),
    ])
    def test_prior_of_another_support_raises_before_any_chain(self, monkeypatch, family, good, bad):
        chains = []
        monkeypatch.setattr(harness, "run_mcmc", lambda *args, **kwargs: chains.append(args))
        cfg = tiny_config(family=family, true_concentration_grid=(0.2,), prior_specs=(good, bad))
        with pytest.raises(ValueError, match=f"does not match the {family.value} concentration support"):
            run_sim_study(cfg)
        assert chains == []

    def test_desk_study_bits(self):
        # the study's bits are pinned: a rewrite of the sampler or of a
        # prior must keep the same floating-point operations in the same
        # order (recorded with numpy 2.4 and scipy 1.17 on x86-64 Linux)
        buf = io.StringIO()
        run_sim_study(replace(desk_study_config(), replicates=2)).write_csv(buf)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == "538b509aa490e579484c9e1d30cfbfe239d8ed592ae0eded9efde5b9530ec704"

    def test_replicate_mean_is_summarized_mean_without_ess(self, monkeypatch):
        # a study reads only each chain's concentration mean: no replicate
        # runs the ESS's FFT, and each mean is summarize's, bit for bit
        chains, outcomes = [], []

        def recorded_fit(model, data, config, **kwargs):
            chains.append(real_fit(model, data, config, **kwargs))
            return chains[-1]

        def recorded_cell(task):
            outcomes.append(real_cell(task))
            return outcomes[-1]

        def no_fft(*args, **kwargs):
            raise AssertionError("a study replicate computed an ESS")

        real_fit, real_cell = harness.run_mcmc, harness._run_cell
        monkeypatch.setattr(harness, "run_mcmc", recorded_fit)
        monkeypatch.setattr(harness, "_run_cell", recorded_cell)
        monkeypatch.setattr(np.fft, "rfft", no_fft)
        config = desk_study_config()
        cell = replace(config, prior_specs=config.prior_specs[:1], true_concentration_grid=(1.0,),
                       sample_sizes=(100,), replicates=3)
        (row,) = run_sim_study(cell).rows
        monkeypatch.undo()
        ((means, failed),) = outcomes
        assert failed == 0 and row[6] == 0 and len(chains) == 3
        assert [type(m) for m in means] == [float] * 3
        want = [summarize(chain).concentration_mean for chain in chains]
        assert np.array_equal(np.array(means).view(np.int64), np.array(want).view(np.int64))

    def test_csv_format(self, tmp_path):
        result = run_sim_study(tiny_config())
        path = tmp_path / "study.csv"
        result.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "prior,hyper,truth,N,post_mean_avg,post_mean_sd,cells_failed"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "gamma"
        assert fields[2] == "1.0"
        assert fields[3] == "40"


class TestTailFromData:
    def test_uniform_sample_near_half(self):
        data = sample(DistributionSpec(Family.UNIFORM), 10000, seed=31)
        out = tail_from_data(data, math.pi)
        assert type(out) is TailSpec
        assert out.U == pytest.approx(math.pi)
        assert out.alpha == pytest.approx(0.5, abs=0.02)

    def test_tight_cluster_clamps_at_floor(self):
        data = Dataset(np.full(20, 1.3))
        out = tail_from_data(data, math.pi)
        assert out.alpha == 0.5 / 20

    def test_everything_far_clamps_at_ceiling(self):
        # all the mass at pi away from the reference direction 0
        data = Dataset(np.full(50, math.pi))
        out = tail_from_data(data, 0.5, center="zero")
        assert out.alpha == 1.0 - 0.5 / 50

    def test_center_modes_differ(self):
        data = Dataset(np.full(9, math.pi) + np.linspace(-0.3, 0.3, 9))
        at_mean = tail_from_data(data, 1.0, center="mean")
        at_zero = tail_from_data(data, 1.0, center="zero")
        assert at_mean.alpha == 0.5 / 9
        assert at_zero.alpha == 1.0 - 0.5 / 9

    def test_validation(self):
        data = Dataset(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            tail_from_data(data, 0.0)
        with pytest.raises(ValueError):
            tail_from_data(data, 7.0)
        with pytest.raises(ValueError):
            tail_from_data(data, 1.0, center="median")

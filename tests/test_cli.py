import json
import math

import numpy as np
import pytest

from circpc.cli import main
from circpc.distributions import Dataset, DistributionSpec, Family, sample
from circpc.divergence import BaseModel, distance, distance_deriv, profile_for
from circpc.pc_priors import PcPrior, pc_cdf, pc_pdf


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCalibrate:
    def test_round_trip_statement(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["calibrate", "--family", "wc", "--U", "0.6", "--alpha", "0.3"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "numeric"
        assert payload["lambda"] == pytest.approx(0.27319749431596657, rel=1e-10)
        assert payload["roundtrip_alpha"] == pytest.approx(0.3, abs=1e-8)

    def test_paper_method(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "calibrate", "--family", "vm", "--base", "pointmass",
                "--U", str(math.pi / 2.0), "--alpha", "0.3", "--method", "paper",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "closed_form"
        assert payload["lambda"] == pytest.approx(0.8182367749253235, rel=1e-10)

    def test_infeasible_alpha_fails_with_range(self, capsys):
        code, out, err = run_cli(
            capsys,
            [
                "calibrate", "--family", "cardioid", "--base", "uniform",
                "--U", "0.5", "--alpha", "0.9",
            ],
        )
        assert code == 1
        assert out == ""
        assert "attainable" in err

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["calibrate", "--family", "wc", "--U", "0.6"])
        assert exc_info.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "lam.json"
        code, out, _ = run_cli(
            capsys,
            [
                "calibrate", "--family", "wc", "--U", "0.6", "--alpha", "0.3",
                "--out", str(path),
            ],
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["lambda"] > 0.0


class TestPcDensity:
    def test_csv_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "pc-density", "--family", "wc", "--base", "uniform",
                "--lambda", "1.0", "--grid", "0.05:0.95:7",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,pdf,cdf"
        prior = PcPrior("wc", "uniform", 1.0)
        grid = np.linspace(0.05, 0.95, 7)
        assert len(lines) == 8
        for line, x in zip(lines[1:], grid):
            p, d, c = (float(v) for v in line.split(","))
            assert p == pytest.approx(x, rel=1e-15)
            assert d == pytest.approx(pc_pdf(prior, x), rel=1e-15)
            assert c == pytest.approx(pc_cdf(prior, x), rel=1e-15)

    # wrong shape, a non-number, lo > hi, no points
    @pytest.mark.parametrize("grid", ["oops", "0:x:3", "1:0:3", "0:1:0"])
    def test_bad_grid_exits_2(self, capsys, grid):
        with pytest.raises(SystemExit) as exc_info:
            main([
                "pc-density", "--family", "wc", "--base", "uniform",
                "--lambda", "1.0", "--grid", grid,
            ])
        assert exc_info.value.code == 2
        assert "grid" in capsys.readouterr().err


class TestDistance:
    def test_scalar_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["distance", "--family", "vm", "--base", "uniform", "--param", "3.0"],
        )
        assert code == 0
        payload = json.loads(out)
        prof = profile_for(Family.VON_MISES, BaseModel.UNIFORM)
        assert payload["distance"] == pytest.approx(float(distance(prof, 3.0)), rel=1e-14)
        assert payload["derivative"] == pytest.approx(
            float(distance_deriv(prof, 3.0)), rel=1e-14
        )

    def test_grid_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["distance", "--family", "cardioid", "--base", "uniform", "--grid", "0.05:0.45:5"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,distance,derivative"
        assert len(lines) == 6


class TestAudit:
    def test_reference_prior_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["audit", "--prior", "h2", "--profile", "vm:uniform"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "base_model_favoring"
        assert payload["density_at_zero"] == pytest.approx(4.0 / math.pi, rel=1e-6)
        assert payload["monotone_decreasing"] is True

    def test_pc_prior_needs_lambda(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["audit", "--prior", "pc", "--profile", "vm:pointmass"],
        )
        assert code == 1
        assert "lambda" in err

    def test_pc_prior_with_lambda(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["audit", "--prior", "pc", "--lambda", "1.3", "--profile", "vm:pointmass"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "base_model_favoring"

    @pytest.mark.parametrize("argv", [
        ["audit", "--prior", "gamma", "--hypers", "1", "--profile", "cardioid:uniform"],
        ["audit", "--prior", "beta", "--hypers", "2", "2", "--profile", "vm:uniform"],
        ["ref-density", "--prior", "h2", "--grid", "0.1:0.5:3", "--profile", "wc:uniform"],
    ], ids=["audit-gamma-cardioid", "audit-beta-vm", "ref-density-h2-wc"])
    def test_prior_of_another_support_exits_1(self, capsys, argv):
        # no verdict on a distance scale of another family
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert "prior support" in err and "concentration support" in err

    @pytest.mark.parametrize("flag,value", [
        ("--grid-points", "1"), ("--d-cap", "5e-4"), ("--d-cap", "nan"),
    ])
    def test_bad_grid_exits_1(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys,
            ["audit", "--prior", "gamma", "--hypers", "0.1", "--profile", "vm:uniform", flag, value],
        )
        assert code == 1 and out == ""
        assert flag[2:].replace("-", "_") in err


class TestRefDensity:
    def test_parameter_scale(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["ref-density", "--prior", "gamma", "--hypers", "2.0", "--grid", "0.5:2:4"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,pdf"
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert vals[0] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    # wrong shape, an unknown family, an unsupported pair
    @pytest.mark.parametrize("profile", ["vm", "kent:uniform", "wc:pointmass"])
    def test_bad_profile_exits_2(self, capsys, profile):
        with pytest.raises(SystemExit) as exc_info:
            main(["ref-density", "--prior", "h2", "--grid", "0.1:1.0:5", "--profile", profile])
        assert exc_info.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_distance_scale(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "ref-density", "--prior", "beta", "--hypers", "2.0", "3.0",
                "--grid", "0.1:1.0:5", "--profile", "wc:uniform",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "d,pdf"
        assert len(lines) == 6
        assert all(float(l.split(",")[1]) > 0.0 for l in lines[1:])


class TestSample:
    def test_writes_loadable_dataset(self, capsys, tmp_path):
        path = tmp_path / "draws.csv"
        code, out, _ = run_cli(
            capsys,
            [
                "sample", "--family", "vm", "--mu", "1.0",
                "--concentration", "2.0", "--n", "50", "--seed", "4",
                "--out", str(path),
            ],
        )
        assert code == 0
        data = Dataset.load_csv(path)
        assert len(data) == 50
        reference = sample(DistributionSpec(Family.VON_MISES, 1.0, 2.0), 50, seed=4)
        assert np.array_equal(data.angles, reference.angles)

    def test_stdout_is_a_loadable_dataset(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            ["sample", "--family", "wc", "--mu", "2.0", "--concentration", "0.6",
             "--n", "30", "--seed", "8"],
        )
        assert code == 0
        path = tmp_path / "stdout.csv"
        path.write_text(out)
        reference = sample(DistributionSpec(Family.WRAPPED_CAUCHY, 2.0, 0.6), 30, seed=8)
        assert np.array_equal(Dataset.load_csv(path).angles, reference.angles)

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["sample", "--family", "uniform", "--n", "10"])
        assert exc_info.value.code == 2


class TestFit:
    @pytest.fixture()
    def angle_file(self, tmp_path):
        data = sample(DistributionSpec(Family.VON_MISES, math.pi, 2.0), 40, seed=14)
        path = tmp_path / "angles.csv"
        data.save_csv(path)
        return path

    def test_end_to_end(self, capsys, tmp_path, angle_file):
        chain_path = tmp_path / "chain.csv"
        code, out, _ = run_cli(
            capsys,
            [
                "fit", "--family", "vm", "--data", str(angle_file),
                "--prior", "pc-uniform", "--U", str(math.pi / 2.0),
                "--alpha", "0.5", "--iterations", "2500", "--burn-in", "1000",
                "--seed", "3", "--chain-out", str(chain_path),
            ],
        )
        assert code == 0
        payload = json.loads(out)
        for key in (
            "concentration_mean",
            "concentration_ci_low",
            "concentration_ci_high",
            "mu_circular_mean",
            "effective_sample_size",
            "n",
            "prior",
            "lambda",
            "acceptance_rates",
            "out_of_support",
            "us_per_iter",
            "chain_csv",
        ):
            assert key in payload, key
        assert payload["n"] == 40
        assert payload["out_of_support"] == 0
        assert payload["us_per_iter"] > 0.0
        assert 0.3 <= payload["concentration_mean"] <= 6.0
        assert chain_path.exists()
        lines = chain_path.read_text().strip().split("\n")
        assert lines[0] == "iter,mu,concentration"
        assert len(lines) == 1 + 1500

    def test_alpha_from_data(self, capsys, angle_file):
        code, out, _ = run_cli(
            capsys,
            [
                "fit", "--family", "vm", "--data", str(angle_file),
                "--prior", "pc-uniform", "--U", str(math.pi / 2.0),
                "--alpha-from-data", "--center", "mean",
                "--iterations", "2500", "--burn-in", "1000", "--seed", "3",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 < payload["alpha"] < 1.0
        assert payload["lambda"] > 0.0

    def test_reference_prior_fit(self, capsys, angle_file):
        code, out, _ = run_cli(
            capsys,
            [
                "fit", "--family", "vm", "--data", str(angle_file),
                "--prior", "gamma", "--hypers", "1.0",
                "--iterations", "2500", "--burn-in", "1000", "--seed", "3",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["prior"] == "gamma"

    def test_missing_data_file_fails(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            [
                "fit", "--family", "vm", "--data", str(tmp_path / "nope.csv"),
                "--prior", "h2", "--iterations", "2500", "--burn-in", "1000",
                "--seed", "3",
            ],
        )
        assert code == 1
        assert err.startswith("error:")


class TestSimulate:
    def test_json_config(self, capsys, tmp_path):
        config = {
            "family": "vm",
            "truths": [1.0],
            "sample_sizes": [30],
            "replicates": 2,
            "priors": [
                {"kind": "gamma", "hypers": [1.0]},
                {"kind": "pc_uniform", "hypers": [0.5], "U": math.pi / 2.0},
            ],
            "mcmc": {"iterations": 2000, "burn_in": 1000},
        }
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "result.csv"
        code, out, _ = run_cli(
            capsys,
            [
                "simulate", "--config", str(cfg_path), "--seed", "99",
                "--out", str(out_path),
            ],
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "prior,hyper,truth,N,post_mean_avg,post_mean_sd,cells_failed"
        assert len(lines) == 3
        assert lines[1].startswith("gamma,1.0,1.0,30,")

    def test_fractional_replicates_rejected(self, capsys, tmp_path):
        config = {
            "family": "vm",
            "truths": [1.0],
            "sample_sizes": [30],
            "replicates": 2.5,
            "priors": [{"kind": "gamma", "hypers": [1.0]}],
            "mcmc": {"iterations": 2000, "burn_in": 1000},
        }
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg_path), "--seed", "99"])
        assert code == 1
        assert "replicates" in err

    def test_fractional_base_seed_rejected(self, capsys, tmp_path):
        # rejected, not run as base seed 520
        config = {
            "family": "vm",
            "truths": [1.0],
            "sample_sizes": [30],
            "replicates": 1,
            "base_seed": 520.9,
            "priors": [{"kind": "gamma", "hypers": [1.0]}],
            "mcmc": {"iterations": 2000, "burn_in": 1000},
        }
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg_path), "--seed", "99"])
        assert code == 1
        assert "base_seed" in err

    @pytest.mark.parametrize("key,mcmc", [
        ("initial_concentration", {"initial_concentration": math.nan}),
        ("initial_mu", {"initial_mu": math.inf}),
        ("mu_true", {}),
    ])
    def test_non_finite_value_rejected_before_any_cell(self, capsys, tmp_path, key, mcmc):
        config = {
            "family": "vm",
            "truths": [1.0],
            "sample_sizes": [30],
            "replicates": 1,
            "priors": [{"kind": "gamma", "hypers": [1.0]}],
            "mcmc": {"iterations": 2000, "burn_in": 1000, **mcmc},
        }
        if not mcmc:
            config["mu_true"] = math.nan
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "result.csv"
        code, out, err = run_cli(
            capsys, ["simulate", "--config", str(cfg_path), "--seed", "99", "--out", str(out_path)]
        )
        assert code == 1 and out == "" and not out_path.exists()
        assert f"{key} must be finite" in err

    def test_reduced_study_is_von_mises_only(self, capsys):
        code, _, err = run_cli(capsys, ["simulate", "--family", "cardioid", "--seed", "1"])
        assert code == 1
        assert "von Mises only" in err

    def test_seed_required(self, capsys, tmp_path):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text("{}")
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--config", str(cfg_path)])
        assert exc_info.value.code == 2

import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from dirichlet_reg import ExponentGrid, Triplet1D, WeightedAtoms, standard_truncation
from dirichlet_reg.cli import ConfigError, _validate, main


def run(tmp_path, command, config, name="config.json", extra=()):
    cfg_file = tmp_path / name
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    return main([command, "--config", str(cfg_file), "--out", str(out), *extra]), out


def read_all_outputs(outdir, skip_manifest=True):
    blobs = {}
    for f in sorted(outdir.iterdir()):
        if skip_manifest and f.name == "manifest.json":
            continue
        blobs[f.name] = f.read_bytes()
    return blobs


class TestConfigHandling:
    def test_schema_violation_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "qv", {"grid": {"horizon": -1.0, "steps": 100}})
        assert code == 2

    def test_unknown_key_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "qv", {"grid": {"horizon": 1.0, "steps": 10}, "bogus": 1})
        assert code == 2

    @pytest.mark.parametrize("cfg", [
        {"grid": {"horizon": -1.0, "steps": 100}},
        {"grid": {"horizon": 1.0, "steps": 10}, "bogus": 1},
        {"seed": 0},
        {"grid": {"horizon": 1.0, "steps": 10}, "model": {"kind": "brownian", "sigma": "x"}},
        {"grid": {"horizon": 1.0, "steps": 10}, "eps_multiples": []},
        [],
    ], ids=["horizon", "unknown_key", "no_grid", "model", "eps", "not_an_object"])
    @pytest.mark.parametrize("stage", ["config", "resolved config"])
    def test_messages_are_those_of_jsonschema_validate(self, cfg, stage):
        schema_file = resources.files("dirichlet_reg").joinpath("config_schema.json")
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(cfg, json.loads(schema_file.read_text()))
        with pytest.raises(ConfigError) as got:
            _validate(cfg, stage)
        assert str(got.value) == f"{stage} violates schema: {want.value.message}"

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["qv", "--config", str(tmp_path / "nope.json")]) == 2

    def test_missing_model_for_simulate_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "simulate", {"grid": {"horizon": 1.0, "steps": 10}})
        assert code == 2


class TestBadInput:
    """Inputs that only fail against the grid or model exit 2 and write nothing."""

    GRID = {"horizon": 1.0, "steps": 100}
    BM = {"kind": "brownian", "sigma": 1.0}

    def check_rejected(self, tmp_path, command, cfg, capsys, extra=()):
        code, out = run(tmp_path, command, cfg, extra=extra)
        err = capsys.readouterr().err
        assert code == 2
        assert "config error:" in err
        assert not out.exists() or list(out.iterdir()) == []
        return err

    def test_semimartingale_mode_with_fbm_exits_2(self, tmp_path, capsys):
        cfg = {"grid": self.GRID, "paths": 10, "mode": "semimartingale",
               "model": {"kind": "composite", "components": [
                   self.BM, {"kind": "fbm", "hurst": 0.7, "scale": 0.5}]}}
        self.check_rejected(tmp_path, "residual", cfg, capsys)

    def test_residual_time_beyond_horizon_exits_2(self, tmp_path, capsys):
        cfg = {"grid": self.GRID, "paths": 10, "model": self.BM, "times": [2.0]}
        self.check_rejected(tmp_path, "residual", cfg, capsys)

    @pytest.mark.parametrize("command", ["qv", "fwdint", "decompose"])
    def test_eps_schedule_beyond_horizon_exits_2(self, tmp_path, capsys, command):
        cfg = {"grid": self.GRID, "model": self.BM, "eps_multiples": [200, 100]}
        self.check_rejected(tmp_path, command, cfg, capsys)

    def test_sweep_schedule_too_coarse_for_a_grid_exits_2(self, tmp_path, capsys):
        cfg = {"grid": self.GRID, "model": self.BM,
               "sweep": {"steps_list": [400, 100], "eps_multiples": [200, 100]}}
        self.check_rejected(tmp_path, "sweep", cfg, capsys)


    @pytest.mark.parametrize("command,section", [
        ("simulate", "model"), ("residual", "model"), ("decompose", "model"),
        ("sweep", "model"), ("sweep", "sweep"), ("recover", "recover"),
    ])
    def test_missing_section_exits_2(self, tmp_path, capsys, command, section):
        cfg = {"grid": self.GRID, "model": self.BM, "sweep": {"steps_list": [100]},
               "recover": {"psi_csv": str(tmp_path / "psi.csv")}}
        del cfg[section]
        self.check_rejected(tmp_path, command, cfg, capsys)

    BAD_LAWS = {
        "unnormalized": {"kind": "discrete", "values": [1.0, -1.0], "probabilities": [0.5, 0.6]},
        "misaligned": {"kind": "discrete", "values": [1.0, -1.0], "probabilities": [1.0]},
        "empty_uniform": {"kind": "uniform", "a": 1.0, "b": 1.0},
    }

    @pytest.mark.parametrize("command", ["simulate", "qv", "residual", "decompose", "sweep"])
    @pytest.mark.parametrize("law", sorted(BAD_LAWS))
    def test_bad_jump_law_exits_2(self, tmp_path, capsys, command, law):
        cfg = {"grid": self.GRID, "sweep": {"steps_list": [100]},
               "model": {"kind": "compound_poisson", "rate": 1.0, "law": self.BAD_LAWS[law]}}
        self.check_rejected(tmp_path, command, cfg, capsys)

    @pytest.mark.parametrize("rows,w,u_max", [
        (2048, 0.0, 40.0), (256, 2.0, 40.0), (2048, 39.9, 40.0), (512, 2.0, 4000.0),
    ], ids=["w_zero", "too_few_rows", "w_too_wide", "no_u_in_drift_window"])
    def test_bad_recover_arguments_exit_2(self, tmp_path, capsys, rows, w, u_max):
        lam = WeightedAtoms(np.array([0.5]), np.array([1.0]))
        psi_csv = tmp_path / "psi.csv"
        tri = Triplet1D(0.0, 0.0, lam, standard_truncation())
        ExponentGrid.from_triplet(tri, u_max=u_max, m=rows).to_csv(psi_csv)
        cfg = {"grid": self.GRID, "recover": {"psi_csv": str(psi_csv), "w": w}}
        self.check_rejected(tmp_path, "recover", cfg, capsys)

    def test_descending_psi_csv_exits_2(self, tmp_path, capsys):
        tri = Triplet1D(0.0, 0.0, WeightedAtoms(np.array([0.5]), np.array([1.0])),
                        standard_truncation())
        psi_csv = tmp_path / "psi.csv"
        ExponentGrid.from_triplet(tri, u_max=40.0, m=2048).to_csv(psi_csv)
        header, *rows = psi_csv.read_text().splitlines()
        psi_csv.write_text("\n".join([header, *rows[::-1]]) + "\n")
        cfg = {"grid": self.GRID, "recover": {"psi_csv": str(psi_csv)}}
        assert "strictly increasing" in self.check_rejected(tmp_path, "recover", cfg, capsys)

    @pytest.mark.parametrize("command,integrand,csv_grid", [
        ("qv", "constant", (1.0, 3)),
        ("qv", "constant", (2.0, 100)),
        ("fwdint", "constant", (1.0, 3)),
        ("fwdint", "time", (1.0, 3)),
        ("fwdint", "identity", (1.0, 3)),
    ], ids=["qv-steps", "qv-horizon", "fwdint-constant", "fwdint-time", "fwdint-identity"])
    def test_csv_source_on_another_grid_exits_2(self, tmp_path, capsys, command, integrand,
                                                 csv_grid):
        from dirichlet_reg import TimeGrid, path_from_function

        src = tmp_path / "p.csv"
        path_from_function(TimeGrid(*csv_grid), np.sin).to_csv(src)
        cfg = {"grid": self.GRID, "source": {"kind": "csv", "file": str(src)},
               "integrand": integrand, "eps_multiples": [1]}
        self.check_rejected(tmp_path, command, cfg, capsys)

    NAN, INF = float("nan"), float("inf")
    NON_FINITE = {
        "residual_time": ("residual", {"times": [NAN]}, (), "times[0]"),
        "horizon": ("simulate", {"grid": {"horizon": NAN, "steps": 100}}, (), "grid.horizon"),
        "horizon_flag": ("qv", {}, ("--horizon", "nan"), "grid.horizon"),
        "rate": ("simulate", {"model": {"kind": "compound_poisson", "rate": INF, "law": {
            "kind": "discrete", "values": [1.0], "probabilities": [1.0]}}}, (), "model.rate"),
        "sigma": ("simulate", {"model": {"kind": "brownian", "sigma": NAN}}, (), "model.sigma"),
        "alpha_se_flag": ("residual", {}, ("--alpha-se", "nan"), "alpha_se"),
    }

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_number_exits_2(self, tmp_path, capsys, case):
        command, changes, extra, key = self.NON_FINITE[case]
        cfg = {"grid": self.GRID, "paths": 10, "model": self.BM, **changes}
        err = self.check_rejected(tmp_path, command, cfg, capsys, extra)
        assert f"non-finite number at {key}\n" in err

    def test_zero_size_heaviside_fixture_exits_2(self, tmp_path, capsys):
        cfg = {"grid": self.GRID, "source": {"kind": "fixture", "name": "heaviside",
                                             "jump_size": 0.0}}
        assert "bad heaviside fixture" in self.check_rejected(tmp_path, "qv", cfg, capsys)

    def test_non_uniform_csv_times_exit_2(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        src.write_text("t,value,jump\n0,0,0\n0.1,1,1\n0.5,2,1\n1.0,3,1\n")
        cfg = {"grid": {"horizon": 1.0, "steps": 3},
               "source": {"kind": "csv", "file": str(src)}, "eps_multiples": [1]}
        self.check_rejected(tmp_path, "qv", cfg, capsys)


class TestQv:
    def test_heaviside_fixture_converges_to_one(self, tmp_path):
        cfg = {
            "grid": {"horizon": 1.0, "steps": 1000},
            "source": {"kind": "fixture", "name": "heaviside"},
            "eps_multiples": [16, 8, 4, 2, 1],
        }
        code, out = run(tmp_path, "qv", cfg)
        assert code == 0
        summary = json.loads((out / "qv_summary.json").read_text())
        assert summary["converged"] is True
        assert summary["limit_final"] == pytest.approx(1.0, abs=1e-12)

    def test_white_noise_fixture_flags_nonconvergence(self, tmp_path):
        cfg = {
            "grid": {"horizon": 1.0, "steps": 1000},
            "source": {"kind": "fixture", "name": "white_noise"},
        }
        code, out = run(tmp_path, "qv", cfg)
        assert code == 3
        summary = json.loads((out / "qv_summary.json").read_text())
        assert summary["converged"] is False

    def test_brownian_model_bracket_near_t(self, tmp_path):
        cfg = {
            "grid": {"horizon": 1.0, "steps": 5000},
            "model": {"kind": "brownian", "sigma": 1.0},
            "seed": 5,
        }
        code, out = run(tmp_path, "qv", cfg)
        assert code == 0
        summary = json.loads((out / "qv_summary.json").read_text())
        assert abs(summary["limit_final"] - 1.0) < 0.1

    def test_csv_source_round_trip(self, tmp_path):
        from dirichlet_reg import CadlagPath, TimeGrid

        grid = TimeGrid(1.0, 100)
        i = grid.index_of(0.5)
        vals = np.where(np.arange(grid.n_nodes) >= i, 2.0, 0.0)
        p = CadlagPath.from_jumps(grid, vals, {i: 2.0})
        src = tmp_path / "p.csv"
        p.to_csv(src)
        cfg = {
            "grid": {"horizon": 1.0, "steps": 100},
            "source": {"kind": "csv", "file": str(src)},
            "eps_multiples": [8, 4, 2, 1],
        }
        code, out = run(tmp_path, "qv", cfg)
        assert code == 0
        summary = json.loads((out / "qv_summary.json").read_text())
        assert summary["limit_final"] == pytest.approx(4.0, abs=1e-12)


class TestFwdInt:
    def test_constant_integrand_on_drift_model(self, tmp_path):
        cfg = {
            "grid": {"horizon": 1.0, "steps": 1000},
            "model": {"kind": "drift", "coeffs": [0.0, 1.0]},
            "integrand": "time",
        }
        code, out = run(tmp_path, "fwdint", cfg)
        assert code == 0
        summary = json.loads((out / "fwdint_summary.json").read_text())
        assert abs(summary["limit_final"] - 0.5) < 2e-3


class TestSimulate:
    def test_deterministic_drift_single_csv(self, tmp_path):
        cfg = {
            "grid": {"horizon": 1.0, "steps": 50},
            "model": {"kind": "drift", "coeffs": [0.0, 1.0]},
            "paths": 1,
        }
        code, out = run(tmp_path, "simulate", cfg)
        assert code == 0
        from dirichlet_reg import CadlagPath

        p = CadlagPath.from_csv(out / "path_00000.csv")
        assert np.allclose(p.values, np.linspace(0, 1, 51))

    def test_repeat_runs_identical_bytes(self, tmp_path):
        cfg = {
            "grid": {"horizon": 1.0, "steps": 100},
            "model": {
                "kind": "levy_jump_diffusion",
                "drift": 0.1, "sigma": 1.0, "rate": 2.0,
                "law": {"kind": "gaussian", "mean": 0.0, "sd": 0.4},
            },
            "paths": 3,
            "seed": 9,
        }
        _, out1 = run(tmp_path, "simulate", cfg, name="c1.json")
        blobs1 = read_all_outputs(out1)
        (tmp_path / "out").rename(tmp_path / "out_first")
        _, out2 = run(tmp_path, "simulate", cfg, name="c2.json")
        assert read_all_outputs(out2) == blobs1

    def test_brownian_ensemble_variance_in_manifest(self, tmp_path):
        cfg = {
            "grid": {"horizon": 1.0, "steps": 64},
            "model": {"kind": "brownian", "sigma": 1.0},
            "paths": 100,
            "seed": 1,
        }
        code, out = run(tmp_path, "simulate", cfg)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert abs(manifest["verdicts"]["final_value_variance"] - 1.0) < 0.3
        assert len(list(out.glob("path_*.csv"))) == 100


class TestResidual:
    BASE = {
        "grid": {"horizon": 1.0, "steps": 128},
        "model": {"kind": "brownian", "sigma": 1.0},
        "paths": 2000,
        "seed": 314,
    }

    def test_brownian_passes(self, tmp_path):
        code, out = run(tmp_path, "residual", self.BASE)
        assert code == 0
        report = json.loads((out / "residual_report.json").read_text())
        assert report["pass"] is True
        assert report["quadrature_nodes"] == 40

    def test_injected_drift_fails_with_exit_4(self, tmp_path):
        cfg = dict(self.BASE, inject_drift=1.0, paths=1000)
        code, out = run(tmp_path, "residual", cfg)
        assert code == 4
        report = json.loads((out / "residual_report.json").read_text())
        assert report["pass"] is False

    def test_function_flag_overrides(self, tmp_path):
        code, out = run(tmp_path, "residual", dict(self.BASE, paths=1000, seed=315),
                        extra=("--function", "dampedsine"))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["function"] == "dampedsine"


class TestDecompose:
    def test_writes_components_and_reports(self, tmp_path):
        cfg = {
            "grid": {"horizon": 1.0, "steps": 2000},
            "model": {
                "kind": "levy_jump_diffusion",
                "drift": 0.5, "sigma": 1.0, "rate": 2.0,
                "law": {"kind": "uniform", "a": -0.5, "b": 0.5},
            },
            "seed": 3,
            "tolerance": 0.2,
        }
        code, out = run(tmp_path, "decompose", cfg)
        assert code == 0
        reports = json.loads((out / "identity_reports.json").read_text())
        assert reports["reconstruction_error"] < 1e-10
        for key in ("drift_bracket", "continuous_bracket"):
            assert set(reports[key]) == {"lhs_sup", "rhs_sup", "distance", "tolerance", "pass"}
        header = (out / "decomposition.csv").read_text().splitlines()[0]
        assert header == "t,x,continuous,compensated_jumps,drift,large_jumps"


class TestRecover:
    def test_bundled_fixture_round_trip(self, tmp_path):
        lam = WeightedAtoms(np.array([0.5, -0.8]), np.array([1.0, -0.5]))
        tri = Triplet1D(0.0, 0.0, lam, standard_truncation())
        grid = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        psi_csv = tmp_path / "psi.csv"
        grid.to_csv(psi_csv)
        cfg = {
            "grid": {"horizon": 1.0, "steps": 10},
            "recover": {"psi_csv": str(psi_csv), "w": 2.0},
        }
        code, out = run(tmp_path, "recover", cfg)
        assert code == 0
        rec = json.loads((out / "recovered_triplet.json").read_text())
        assert abs(rec["b"]) < 0.05
        assert abs(rec["c"]) < 0.05
        grid_arr = np.array(rec["lambda_grid"])
        assert grid_arr.shape == (1024, 2)
        near = np.abs(grid_arr[:, 0] - 0.5) < 0.21
        assert np.sum(grid_arr[near, 1]) * (8.0 / 1024) > 0.5  # mass shows up

    def test_missing_psi_csv_exits_2(self, tmp_path):
        cfg = {
            "grid": {"horizon": 1.0, "steps": 10},
            "recover": {"psi_csv": str(tmp_path / "absent.csv")},
        }
        code, _ = run(tmp_path, "recover", cfg)
        assert code == 2


class TestSweep:
    def test_long_format_output(self, tmp_path):
        cfg = {
            "grid": {"horizon": 1.0, "steps": 100},
            "model": {"kind": "brownian", "sigma": 1.0},
            "seed": 4,
            "sweep": {"steps_list": [100, 200], "eps_multiples": [4, 2, 1]},
        }
        code, out = run(tmp_path, "sweep", cfg)
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "dt,eps,t,value"
        assert len(lines) - 1 == 3 * 101 + 3 * 201


class TestReproducibility:
    CFG = {
        "grid": {"horizon": 1.0, "steps": 128},
        "model": {
            "kind": "composite",
            "components": [
                {"kind": "brownian", "sigma": 1.0},
                {"kind": "fbm", "hurst": 0.7, "scale": 0.5},
                {"kind": "compound_poisson", "rate": 1.0,
                 "law": {"kind": "discrete", "values": [0.5, -0.5],
                         "probabilities": [0.5, 0.5]}},
            ],
        },
        "paths": 400,
        "seed": 2718,
    }

    def test_replay_from_manifest_bit_identical(self, tmp_path):
        code, out1 = run(tmp_path, "residual", self.CFG, name="c1.json")
        assert code == 0
        blobs1 = read_all_outputs(out1)
        manifest = out1 / "manifest.json"
        out2 = tmp_path / "replayed"
        code2 = main(["residual", "--config", str(manifest), "--out", str(out2)])
        assert code2 == 0
        assert read_all_outputs(out2) == blobs1

    def test_batch_size_invariance(self, tmp_path):
        code, out1 = run(tmp_path, "residual", self.CFG, name="c1.json",
                         extra=("--batch-size", "37"))
        assert code == 0
        blobs1 = read_all_outputs(out1)
        (tmp_path / "out").rename(tmp_path / "out_a")
        code, out2 = run(tmp_path, "residual", self.CFG, name="c2.json",
                         extra=("--batch-size", "400"))
        assert read_all_outputs(out2) == blobs1

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRICHLET_REG_OUT", str(tmp_path / "envout"))
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({
            "grid": {"horizon": 1.0, "steps": 100},
            "source": {"kind": "fixture", "name": "heaviside"},
        }))
        assert main(["qv", "--config", str(cfg_file)]) == 0
        assert (tmp_path / "envout" / "qv_summary.json").exists()

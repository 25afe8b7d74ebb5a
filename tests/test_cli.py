import dataclasses
import inspect
import json
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from dirichlet_reg import (
    CadlagPath,
    Composite,
    CompoundPoisson,
    ExponentGrid,
    FractionalBrownianMotion,
    GaussianJumps,
    LevyJumpDiffusion,
    SeedSpec,
    TimeGrid,
    Triplet1D,
    WeightedAtoms,
    recover_triplet,
    simulate_path,
    standard_truncation,
)
from dirichlet_reg import cli
from dirichlet_reg.cli import ConfigError, _validate, main


def run(tmp_path, command, config, name="config.json", extra=()):
    cfg_file = tmp_path / name
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    return main([command, "--config", str(cfg_file), "--out", str(out), *extra]), out


def strict_json(path):
    """Parses a JSON file, rejecting the non-JSON tokens NaN and +-Infinity."""
    def reject(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def read_all_outputs(outdir, skip_manifest=True):
    blobs = {}
    for f in sorted(outdir.iterdir()):
        if skip_manifest and f.name == "manifest.json":
            continue
        blobs[f.name] = f.read_bytes()
    return blobs


class TestConfigHandling:
    SCHEMA = json.loads(resources.files("dirichlet_reg").joinpath("config_schema.json")
                        .read_text())

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
        {"grid": {"horizon": 1.0, "steps": 10}, "times": [0.5, -1.0]},
        [],
    ], ids=["horizon", "unknown_key", "no_grid", "model", "eps", "times_entry",
            "not_an_object"])
    @pytest.mark.parametrize("stage", ["config", "resolved config"])
    def test_messages_are_those_of_jsonschema_validate(self, cfg, stage):
        # prefixed with the key the error concerns, unless that is the whole config
        schema_file = resources.files("dirichlet_reg").joinpath("config_schema.json")
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(cfg, json.loads(schema_file.read_text()))
        with pytest.raises(ConfigError) as got:
            _validate(cfg, stage)
        key = ".".join(f"{p}" if isinstance(p, str) else f"[{p}]"
                       for p in want.value.absolute_path).replace(".[", "[")
        where = f" at {key}" if key else ""
        assert str(got.value) == f"{stage} violates schema{where}: {want.value.message}"

    @pytest.mark.parametrize("kind", sorted(cli._KINDS))
    def test_model_and_law_keys_are_their_class_fields(self, kind):
        # a section's keys are passed to its class by name, its defaults read from the class
        defs = self.SCHEMA["definitions"]
        branch = next(b["then"] for d in ("law", "leaf_model", "model") for b in defs[d]["allOf"]
                      if b["if"]["properties"]["kind"].get("const") == kind)
        fields = dataclasses.fields(cli._KINDS[kind])
        assert set(branch["properties"]) - {"kind"} == {f.name for f in fields}
        assert set(branch.get("required", ())) == {
            f.name for f in fields if f.default is dataclasses.MISSING}

    def test_recover_keys_are_the_recover_triplet_parameters(self):
        # psi_csv holds the grid argument, the other keys are passed by name
        section = self.SCHEMA["properties"]["recover"]
        params = inspect.signature(recover_triplet).parameters
        assert set(section["properties"]) - {"psi_csv"} == set(params) - {"grid"}
        assert set(section["required"]) - {"psi_csv"} == {
            key for key, p in params.items() if p.default is p.empty} - {"grid"}

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["qv", "--config", str(tmp_path / "nope.json")]) == 2

    def test_missing_model_for_simulate_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "simulate", {"grid": {"horizon": 1.0, "steps": 10}})
        assert code == 2

    RESIDUAL = {"grid": {"horizon": 1.0, "steps": 64}, "model": {"kind": "brownian"}, "paths": 4}

    @pytest.mark.parametrize("key,value", [("batch_size", 1024), ("inject_drift", 0.0)])
    def test_removed_residual_key_exits_2(self, tmp_path, capsys, key, value):
        code, out = run(tmp_path, "residual", dict(self.RESIDUAL, **{key: value}))
        assert code == 2
        assert f"'{key}' was unexpected" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_holding_the_removed_keys_exits_2(self, tmp_path, capsys):
        # manifests hold every resolved default, so older ones hold both keys
        _, out = run(tmp_path, "residual", self.RESIDUAL)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"].update(batch_size=1024, inject_drift=0.0)
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert main(["residual", "--config", str(old), "--out", str(tmp_path / "replay")]) == 2
        assert "'batch_size', 'inject_drift' were unexpected" in capsys.readouterr().err
        assert not (tmp_path / "replay").exists()


class TestBadInput:
    """Inputs that only fail against the grid or model exit 2 and write nothing."""

    GRID = {"horizon": 1.0, "steps": 100}
    BM = {"kind": "brownian", "sigma": 1.0}

    def check_rejected(self, tmp_path, command, cfg, capsys, extra=()):
        code, out = run(tmp_path, command, cfg, extra=extra)
        err = capsys.readouterr().err
        assert code == 2
        assert "config error:" in err
        assert not out.exists()
        return err

    def test_semimartingale_mode_with_fbm_exits_2(self, tmp_path, capsys):
        cfg = {"grid": self.GRID, "paths": 10, "mode": "semimartingale",
               "model": {"kind": "composite", "components": [
                   self.BM, {"kind": "fbm", "hurst": 0.7, "scale": 0.5}]}}
        self.check_rejected(tmp_path, "residual", cfg, capsys)

    def test_residual_time_beyond_horizon_exits_2(self, tmp_path, capsys):
        cfg = {"grid": self.GRID, "paths": 10, "model": self.BM, "times": [2.0]}
        self.check_rejected(tmp_path, "residual", cfg, capsys)

    @pytest.mark.parametrize("command", ["qv", "fwdint", "residual", "decompose"])
    def test_eps_schedule_beyond_horizon_exits_2(self, tmp_path, capsys, command):
        cfg = {"grid": self.GRID, "model": self.BM, "eps_multiples": [200, 100]}
        self.check_rejected(tmp_path, command, cfg, capsys)

    def test_sweep_schedule_too_coarse_for_a_grid_exits_2(self, tmp_path, capsys):
        cfg = {"grid": self.GRID, "model": self.BM,
               "sweep": {"steps_list": [400, 100], "eps_multiples": [200, 100]}}
        self.check_rejected(tmp_path, "sweep", cfg, capsys)

    @pytest.mark.parametrize("command", ["simulate", "qv", "fwdint", "residual", "decompose",
                                         "sweep"])
    def test_fbm_beyond_the_step_limit_exits_2(self, tmp_path, capsys, command):
        # 2^23 + 1 steps; sweep runs the limit-breaking grid from its steps_list
        too_fine = 8388609
        cfg = {"grid": {"horizon": 1.0, "steps": 64 if command == "sweep" else too_fine},
               "model": {"kind": "fbm", "hurst": 0.7},
               "sweep": {"steps_list": [64, too_fine]}}
        err = self.check_rejected(tmp_path, command, cfg, capsys)
        assert "step limit 8388608" in err


    # qv and fwdint read a model only for the default model source
    @pytest.mark.parametrize("command,section", [
        ("simulate", "model"), ("residual", "model"), ("decompose", "model"),
        ("sweep", "model"), ("sweep", "sweep"), ("recover", "recover"),
        ("qv", "model"), ("fwdint", "model"),
    ])
    def test_missing_section_exits_2(self, tmp_path, capsys, command, section):
        cfg = {"grid": self.GRID, "model": self.BM, "sweep": {"steps_list": [100]},
               "recover": {"psi_csv": str(tmp_path / "psi.csv")}}
        del cfg[section]
        err = self.check_rejected(tmp_path, command, cfg, capsys)
        assert section in err

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
        src = tmp_path / "p.csv"
        other = TimeGrid(*csv_grid)
        CadlagPath(other, np.sin(other.times())).to_csv(src)
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

    POINT = {"kind": "discrete", "values": [1.0], "probabilities": [1.0]}
    WIDE_UNIFORM = {"kind": "uniform", "a": -1e308, "b": 1e308}
    OVERFLOW = {
        "residual_sigma": ("residual", {"kind": "brownian", "sigma": 1e300}, "sigma"),
        "decompose_sigma": ("decompose", {"kind": "brownian", "sigma": 1e300}, "sigma"),
        "qv_sigma": ("qv", {"kind": "brownian", "sigma": 1e160}, "sigma"),
        "qv_scale": ("qv", {"kind": "fbm", "hurst": 0.7, "scale": 1e160}, "scale"),
        "simulate_rate": ("simulate", {"kind": "compound_poisson", "rate": 1e19,
                                       "law": POINT}, "rate"),
        "residual_rate": ("residual", {"kind": "levy_jump_diffusion", "drift": 0.0,
                                       "sigma": 1.0, "rate": 1e19, "law": POINT}, "rate"),
        "simulate_uniform_width": ("simulate", {"kind": "compound_poisson", "rate": 5.0,
                                                "law": WIDE_UNIFORM}, "width"),
        "residual_uniform_width": ("residual", {"kind": "compound_poisson", "rate": 5.0,
                                                "law": WIDE_UNIFORM}, "width"),
    }

    @pytest.mark.parametrize("case", sorted(OVERFLOW))
    def test_overflowing_parameter_exits_2(self, tmp_path, capsys, case):
        command, model, name = self.OVERFLOW[case]
        cfg = {"grid": self.GRID, "paths": 10, "model": model}
        err = self.check_rejected(tmp_path, command, cfg, capsys)
        assert f"bad model: {name} " in err

    # sigma squared is finite, but the squared increments of the coarser eps
    # overflow: the estimate holds inf or nan
    @pytest.mark.parametrize("command", ["qv", "sweep"])
    @pytest.mark.parametrize("sigma", [1e154, 1.3e154])
    def test_non_finite_estimate_exits_2(self, tmp_path, capsys, command, sigma):
        cfg = {"grid": self.GRID, "model": {"kind": "brownian", "sigma": sigma},
               "eps_multiples": [4, 2, 1], "sweep": {"steps_list": [100]}}
        err = self.check_rejected(tmp_path, command, cfg, capsys)
        assert f"{command}: non-finite number in the estimate" in err

    def test_non_finite_decomposition_report_exits_2(self, tmp_path, capsys):
        cfg = {"grid": {"horizon": 2.0, "steps": 100}, "eps_multiples": [4, 2, 1],
               "model": {"kind": "brownian", "sigma": 1.3e154}}
        err = self.check_rejected(tmp_path, "decompose", cfg, capsys)
        assert "decompose: non-finite number in the bracket reports" in err

    # finite parameters whose paths, or the verdicts over them, overflow:
    # every number bound for a result file or the manifest is checked, and
    # residual checks its simulated paths before it assembles residuals
    JUMPS_1E308 = {"kind": "compound_poisson", "rate": 5.0, "law": {
        "kind": "discrete", "values": [1e308, 1e308], "probabilities": [0.5, 0.5]}}
    DRIFT_1E308 = {"kind": "levy_jump_diffusion", "drift": 1e308, "sigma": 1.0, "rate": 1.0,
                   "law": POINT}
    SIMULATE = "simulate: non-finite number in the {} "
    RESIDUAL = "residual ensemble: simulated path {} holds a non-finite value "
    OVERFLOWING_PATH = {
        "simulate_drift": ("simulate", 1.0, DRIFT_1E308, SIMULATE.format("verdicts")),
        "simulate_jumps": ("simulate", 1.0, JUMPS_1E308, SIMULATE.format("path")),
        # path 0 jumps at most once and stays finite; past t = 1.797 the
        # drift overflows on every path
        "residual_jumps": ("residual", 1.0, JUMPS_1E308, RESIDUAL.format(1)),
        "residual_drift": ("residual", 2.0, DRIFT_1E308, RESIDUAL.format(0)),
        "simulate_fbm": ("simulate", 1e300, {"kind": "fbm", "hurst": 0.7, "scale": 1e150},
                         SIMULATE.format("path")),
        "simulate_polynomial": ("simulate", 1e300, {"kind": "drift", "coeffs": [0.0, 1e308]},
                                SIMULATE.format("path")),
        "residual_polynomial": ("residual", 1e300, {"kind": "drift", "coeffs": [0.0, 1e308]},
                                RESIDUAL.format(0)),
        "simulate_gaussian_jumps": ("simulate", 1.0, {"kind": "compound_poisson", "rate": 5.0,
                                                      "law": {"kind": "gaussian", "mean": 0.0,
                                                              "sd": 1e200}},
                                    SIMULATE.format("verdicts")),
    }

    @pytest.mark.parametrize("case", sorted(OVERFLOWING_PATH))
    def test_overflowing_path_exits_2(self, tmp_path, capsys, case):
        command, horizon, model, message = self.OVERFLOWING_PATH[case]
        cfg = {"grid": {"horizon": horizon, "steps": 64}, "paths": 4, "eps_multiples": [1],
               "model": model}
        assert message in self.check_rejected(tmp_path, command, cfg, capsys)

    @pytest.mark.parametrize("column,cell", [("re", "nan"), ("im", "inf")])
    def test_non_finite_psi_csv_exits_2(self, tmp_path, capsys, column, cell):
        # blamed on psi, not on the density recovered from it
        tri = Triplet1D(0.1, 0.5, WeightedAtoms(np.array([0.5, -0.8]), np.array([1.0, 0.5])))
        psi_csv = tmp_path / "psi.csv"
        ExponentGrid.from_triplet(tri).to_csv(psi_csv)
        header, *rows = psi_csv.read_text().splitlines()
        cells = rows[100].split(",")
        cells[header.split(",").index(column)] = cell
        rows[100] = ",".join(cells)
        psi_csv.write_text("\n".join([header, *rows]) + "\n")
        cfg = {"grid": self.GRID, "recover": {"psi_csv": str(psi_csv)}}
        err = self.check_rejected(tmp_path, "recover", cfg, capsys)
        assert "cannot load exponent csv: psi values must be finite" in err

    @pytest.mark.parametrize("source,message", [
        ({"kind": "csv"}, "'file' is a required property"),
        ({"kind": "fixture"}, "'name' is a required property"),
        ({"kind": "fixture", "name": "white_noise", "jump_time": 0.3},
         "Additional properties are not allowed ('jump_time' was unexpected)"),
        ({"kind": "model", "file": "path.csv"},
         "Additional properties are not allowed ('file' was unexpected)"),
    ], ids=["csv_without_file", "fixture_without_name", "white_noise_jump_time", "model_file"])
    def test_source_keys_are_checked_by_kind(self, tmp_path, capsys, source, message):
        cfg = {"grid": self.GRID, "model": self.BM, "source": source}
        err = self.check_rejected(tmp_path, "qv", cfg, capsys)
        assert f"config violates schema at source: {message}" in err

    def test_empty_residual_times_exit_2(self, tmp_path, capsys):
        # no test time would be a vacuous pass
        cfg = {"grid": self.GRID, "paths": 10, "model": self.BM, "times": []}
        assert "violates schema" in self.check_rejected(tmp_path, "residual", cfg, capsys)

    @pytest.mark.parametrize("key,value,message", [
        ("paths", 0, "0 is less than the minimum of 1"),
        ("times", [], "[] should be non-empty"),
        ("alpha_se", -1, "-1 is less than or equal to the minimum of 0"),
    ])
    def test_schema_error_names_its_key(self, tmp_path, capsys, key, value, message):
        cfg = {"grid": self.GRID, "paths": 10, "model": self.BM, key: value}
        err = self.check_rejected(tmp_path, "residual", cfg, capsys)
        assert f"config violates schema at {key}: {message}" in err

    @pytest.mark.parametrize("model,key,message", [
        ({"kind": "brownian", "sigma": "x"}, "model.sigma", "'x' is not of type 'number'"),
        ({"kind": "levy_jump_diffusion", "drift": 0.3, "sigma": 1.0, "rate": 2.0,
          "law": {"kind": "gaussian", "mean": 0.0, "sd": -1}},
         "model.law.sd", "-1 is less than the minimum of 0"),
        ({"kind": "nope"}, "model.kind", "'nope' is not one of ['brownian', "),
        ({"kind": "composite", "components": [{"kind": "composite", "components": [BM]}]},
         "model.components[0].kind", "'composite' is not one of ['brownian', "),
    ], ids=["sigma", "law_sd", "kind", "component_kind"])
    def test_model_schema_error_names_its_key(self, tmp_path, capsys, model, key, message):
        # the schema picks a model's branch by its kind, so the error reaches the bad field
        cfg = {"grid": self.GRID, "paths": 10, "model": model}
        err = self.check_rejected(tmp_path, "residual", cfg, capsys)
        assert f"config violates schema at {key}: {message}" in err

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

    def test_ragged_csv_row_exits_2(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        src.write_text("t,value,jump\n0,0,0\n0.5,1\n1.0,3,0\n")
        cfg = {"grid": {"horizon": 1.0, "steps": 2},
               "source": {"kind": "csv", "file": str(src)}, "eps_multiples": [1]}
        self.check_rejected(tmp_path, "qv", cfg, capsys)

    @pytest.mark.parametrize("command", ["qv", "fwdint"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_value_exits_2(self, tmp_path, capsys, command, cell):
        src = tmp_path / "p.csv"
        grid = TimeGrid(1.0, 64)
        CadlagPath(grid, np.sin(grid.times())).to_csv(src)
        rows = src.read_text().splitlines()
        rows[20] = f"{rows[20].split(',')[0]},{cell},0"
        src.write_text("\n".join(rows) + "\n")
        cfg = {"grid": {"horizon": 1.0, "steps": 64},
               "source": {"kind": "csv", "file": str(src)}, "eps_multiples": [2, 1]}
        err = self.check_rejected(tmp_path, command, cfg, capsys)
        assert "non-finite value or jump" in err

    NO_DATA = {"qv": ("t,value,jump", lambda f: {"source": {"kind": "csv", "file": f}}),
               "recover": ("u,re,im", lambda f: {"recover": {"psi_csv": f}})}

    @pytest.mark.parametrize("command", sorted(NO_DATA))
    @pytest.mark.parametrize("text", ["", "{header}\r\n"], ids=["empty", "header_only"])
    def test_csv_without_data_rows_exits_2(self, tmp_path, capsys, command, text):
        header, section = self.NO_DATA[command]
        src = tmp_path / "in.csv"
        src.write_text(text.format(header=header), newline="")
        cfg = {"grid": self.GRID, **section(str(src))}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.check_rejected(tmp_path, command, cfg, capsys)
        assert f"{src} holds no data rows" in err


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
    # on X_t = t the identity integrand is the time integrand: both integrate to 1/2
    @pytest.mark.parametrize("integrand", ["time", "identity"])
    def test_constant_integrand_on_drift_model(self, tmp_path, integrand):
        cfg = {
            "grid": {"horizon": 1.0, "steps": 1000},
            "model": {"kind": "drift", "coeffs": [0.0, 1.0]},
            "integrand": integrand,
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

    # 5000 steps: the rows cross the writer's 4096-row blocks
    @pytest.mark.parametrize("spec,model,n_paths", [
        ({"kind": "composite", "components": [
            {"kind": "fbm", "hurst": 0.7, "scale": 0.5},
            {"kind": "compound_poisson", "rate": 5.0,
             "law": {"kind": "gaussian", "mean": 0.0, "sd": 0.5}}]},
         Composite((FractionalBrownianMotion(0.7, 0.5),
                    CompoundPoisson(5.0, GaussianJumps(0.0, 0.5)))), 3),
        ({"kind": "levy_jump_diffusion", "drift": 0.3, "sigma": 1.0, "rate": 5.0,
          "law": {"kind": "gaussian", "mean": 0.0, "sd": 0.3}},
         LevyJumpDiffusion(0.3, 1.0, 5.0, GaussianJumps(0.0, 0.3)), 2),
    ], ids=["composite", "jump_diffusion"])
    def test_path_files_are_the_library_csvs(self, tmp_path, spec, model, n_paths):
        cfg = {"grid": {"horizon": 1.0, "steps": 5000}, "model": spec, "paths": n_paths,
               "seed": 11}
        code, out = run(tmp_path, "simulate", cfg)
        assert code == 0
        blobs = read_all_outputs(out)
        assert sorted(blobs) == [f"path_{i:05d}.csv" for i in range(n_paths)]
        for i in range(n_paths):
            simulate_path(model, TimeGrid(1.0, 5000), SeedSpec(11, i)).to_csv(tmp_path / "p.csv")
            assert blobs[f"path_{i:05d}.csv"] == (tmp_path / "p.csv").read_bytes()

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

    def test_function_flag_overrides(self, tmp_path):
        code, out = run(tmp_path, "residual", dict(self.BASE, paths=1000, seed=315),
                        extra=("--function", "dampedsine"))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["function"] == "dampedsine"

    @pytest.mark.parametrize("key,table,flag", [("function", "_TEST_FUNCTIONS", True),
                                                ("truncation", "_TRUNCATIONS", False)])
    def test_table_names_agree(self, key, table, flag):
        # the table, the --<key> choices if there is that flag, the schema enum and each name
        names = list(getattr(cli, table))
        choices = [list(a.choices) for a in cli.build_parser()._actions if a.dest == key]
        schema_file = resources.files("dirichlet_reg").joinpath("config_schema.json")
        schema = json.loads(schema_file.read_text())
        assert choices == ([names] if flag else [])
        assert schema["properties"][key]["enum"] == names
        if key == "function":
            assert [make().name for make in getattr(cli, table).values()] == names

    def test_manifest_counts_no_nonconverged_forward_integral_for_brownian(self, tmp_path):
        code, out = run(tmp_path, "residual", dict(self.BASE, paths=200))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verdicts"]["forward_nonconverged"] == 0

    @pytest.mark.parametrize("cfg", [
        {"paths": 1},
        {"paths": 50, "grid": {"horizon": 1.0, "steps": 64},
         "model": {"kind": "drift", "coeffs": [0, 1]}},
    ], ids=["one-path", "drift"])
    def test_zero_spread_writes_null_z_and_fails(self, tmp_path, cfg):
        code, out = run(tmp_path, "residual", dict(self.BASE, **cfg))
        assert code == 4
        report = strict_json(out / "residual_report.json")
        assert report["pass"] is False
        assert report["ses"] == [0.0, 0.0, 0.0]
        assert report["zscores"] == [None, None, None]


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

    def test_manifest_counts_the_ensemble_nonconverged_forward_integrals(
            self, tmp_path, monkeypatch):
        ensembles, real = [], cli.residual_ensemble

        def recording(*args, **kwargs):
            ensembles.append(real(*args, **kwargs))
            return ensembles[-1]

        monkeypatch.setattr(cli, "residual_ensemble", recording)
        code, out = run(tmp_path, "residual", self.CFG)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        count = ensembles[0].meta["forward_nonconverged"]
        assert manifest["verdicts"]["forward_nonconverged"] == count
        assert count > 0  # the fBm drift of the composite does not converge on some paths

    def test_manifest_run_section_reports_the_ensemble(self, tmp_path, monkeypatch):
        ensembles, real = [], cli.residual_ensemble

        def recording(*args, **kwargs):
            ensembles.append(real(*args, **kwargs))
            return ensembles[-1]

        monkeypatch.setattr(cli, "residual_ensemble", recording)
        code, out = run(tmp_path, "residual", self.CFG)
        assert code == 0
        section = json.loads((out / "manifest.json").read_text())["run"]
        meta = ensembles[0].meta
        assert section["paths"] == 400
        assert section["jumps"] == meta["jumps"] > 0
        # default times (0.25, 0.5, 1.0) at dt = 1/128: probes snap exactly
        assert section["probe_nodes"] == [{"probe": s, "grid_time": s}
                                          for s in (0.0625, 0.125, 0.25, 0.5)]
        assert section["seconds"].items() >= meta["seconds"].items()
        assert set(section["seconds"]) == {"simulate", "residual", "compute", "write"}

    # a config per command that leaves every default of a section out
    BARE = {
        "qv": {"grid": {"horizon": 1.0, "steps": 256},
               "source": {"kind": "fixture", "name": "heaviside"}},
        "simulate": {"grid": {"horizon": 1.0, "steps": 64}, "paths": 3,
                     "model": {"kind": "composite", "components": [
                         {"kind": "brownian"}, {"kind": "fbm", "hurst": 0.7}]}},
        "sweep": {"grid": {"horizon": 1.0, "steps": 64}, "model": {"kind": "brownian"},
                  "sweep": {"steps_list": [64, 128]}},
    }
    RESOLVED = {
        "qv": {"source": {"kind": "fixture", "name": "heaviside",
                          "jump_time": 0.5, "jump_size": 1.0}},
        "simulate": {"model": {"kind": "composite", "components": [
            {"kind": "brownian", "sigma": 1.0},
            {"kind": "fbm", "hurst": 0.7, "scale": 1.0}]}},
        "sweep": {"model": {"kind": "brownian", "sigma": 1.0},
                  "sweep": {"steps_list": [64, 128], "eps_multiples": [32, 16, 8, 4, 2, 1]}},
        "recover": {"recover": {"w": 2.0, "x_max": 4.0, "x_cells": 1024,
                                "weight_guard": 1e-3}},
    }

    def bare_config(self, tmp_path, command):
        if command != "recover":
            return self.BARE[command]
        lam = WeightedAtoms(np.array([0.5]), np.array([1.0]))
        psi_csv = tmp_path / "psi.csv"
        ExponentGrid.from_triplet(Triplet1D(0.1, 0.5, lam, standard_truncation()),
                                  u_max=40.0, m=1024).to_csv(psi_csv)
        return {"grid": {"horizon": 1.0, "steps": 10}, "recover": {"psi_csv": str(psi_csv)}}

    @pytest.mark.parametrize("command", sorted(RESOLVED))
    def test_manifest_holds_resolved_defaults_and_replays(self, tmp_path, command):
        code, out1 = run(tmp_path, command, self.bare_config(tmp_path, command))
        assert code == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        for section, resolved in self.RESOLVED[command].items():
            if section == "recover":
                resolved = dict(resolved, psi_csv=manifest["config"]["recover"]["psi_csv"])
            assert manifest["config"][section] == resolved
        out2 = tmp_path / "replayed"
        assert main([command, "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert read_all_outputs(out2) == read_all_outputs(out1)

    def test_residual_reads_its_eps_multiples_and_replays(self, tmp_path):
        # the fBm drift is integrated at the schedule's three finest eps
        cfg = dict(self.CFG, grid={"horizon": 1.0, "steps": 256}, paths=64,
                   model={"kind": "composite", "components": [
                       {"kind": "brownian", "sigma": 1.0}, {"kind": "fbm", "hurst": 0.7}]})
        run(tmp_path, "residual", cfg, name="c1.json")
        default = read_all_outputs(tmp_path / "out")
        (tmp_path / "out").rename(tmp_path / "out_default")
        code, out = run(tmp_path, "residual", dict(cfg, eps_multiples=[16, 8, 2]), name="c2.json")
        assert read_all_outputs(out) != default
        out2 = tmp_path / "replayed"
        assert main(["residual", "--config", str(out / "manifest.json"), "--out", str(out2)]) == code
        assert read_all_outputs(out2) == read_all_outputs(out)

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRICHLET_REG_OUT", str(tmp_path / "envout"))
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({
            "grid": {"horizon": 1.0, "steps": 100},
            "source": {"kind": "fixture", "name": "heaviside"},
        }))
        assert main(["qv", "--config", str(cfg_file)]) == 0
        assert (tmp_path / "envout" / "qv_summary.json").exists()


class TestRunSection:
    """Every manifest says where the run's time went: the compute and write
    seconds beside any stage seconds of the command, and the data rows of
    the CSVs it wrote."""

    # the keys of the run section and of its seconds beyond compute and write
    KEYS = {
        "simulate": ({"csv_rows"}, set()),
        "qv": ({"csv_rows"}, set()),
        "fwdint": ({"csv_rows"}, set()),
        "decompose": ({"csv_rows"}, set()),
        "sweep": ({"csv_rows"}, set()),
        "residual": ({"paths", "jumps", "probe_nodes"}, {"simulate", "residual"}),
        "recover": (set(), set()),
    }

    @pytest.mark.parametrize("command", sorted(KEYS))
    def test_run_section_times_the_stages_and_counts_the_csv_rows(self, tmp_path, command):
        code, out = run(tmp_path, command, TestStrictJson.config(tmp_path, command))
        assert code in (0, 3, 4)
        section = json.loads((out / "manifest.json").read_text())["run"]
        keys, stages = self.KEYS[command]
        assert set(section) == {"seconds"} | keys
        assert set(section["seconds"]) == {"compute", "write"} | stages
        assert all(s >= 0.0 for s in section["seconds"].values())
        csvs = list(out.glob("*.csv"))
        assert bool(csvs) == ("csv_rows" in keys)
        if csvs:
            assert section["csv_rows"] == sum(len(f.read_text().splitlines()) - 1 for f in csvs)


class TestStrictJson:
    CONFIGS = {
        "simulate": {"grid": {"horizon": 1.0, "steps": 64}, "model": {"kind": "brownian"},
                     "paths": 2},
        "qv": {"grid": {"horizon": 1.0, "steps": 256},
               "source": {"kind": "fixture", "name": "heaviside"}},
        "fwdint": {"grid": {"horizon": 1.0, "steps": 256},
                   "source": {"kind": "fixture", "name": "heaviside"}},
        "residual": {"grid": {"horizon": 1.0, "steps": 64}, "model": {"kind": "brownian"},
                     "paths": 1},
        "decompose": {"grid": {"horizon": 1.0, "steps": 256}, "model": {"kind": "brownian"}},
        "sweep": {"grid": {"horizon": 1.0, "steps": 64}, "model": {"kind": "brownian"},
                  "sweep": {"steps_list": [64, 128]}},
    }

    @classmethod
    def config(cls, tmp_path, command):
        if command != "recover":
            return cls.CONFIGS[command]
        lam = WeightedAtoms(np.array([0.5]), np.array([1.0]))
        psi_csv = tmp_path / "psi.csv"
        ExponentGrid.from_triplet(Triplet1D(0.1, 0.5, lam, standard_truncation()),
                                  u_max=40.0, m=1024).to_csv(psi_csv)
        return {"grid": {"horizon": 1.0, "steps": 10}, "recover": {"psi_csv": str(psi_csv)}}

    @pytest.mark.parametrize("command", sorted(CONFIGS) + ["recover"])
    def test_every_json_file_parses_strictly(self, tmp_path, command):
        code, out = run(tmp_path, command, self.config(tmp_path, command))
        assert code in (0, 3, 4)
        files = sorted(out.glob("*.json"))
        assert "manifest.json" in [f.name for f in files]
        for f in files:
            strict_json(f)

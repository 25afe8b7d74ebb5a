"""Config-driven command line front end.

    dirichlet-reg <command> --config FILE [--seed N] [--paths N] [--out DIR]

Commands: simulate, qv, fwdint, residual, decompose, recover, sweep.
Configurations are validated against the JSON schema shipped with the
package; every run writes a manifest with the fully resolved configuration
(all defaults explicit), tool version, timestamps, input hashes and a verdict
summary.  Re-running a command from its manifest reproduces all result files
byte for byte, independently of the batch size used internally.

Exit codes: 0 pass, 2 configuration error, 3 estimator non-convergence,
4 statistical failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .characteristics import (
    _continuous_bracket_report,
    _decomposition_brackets,
    _drift_bracket_report,
    decompose,
    known_characteristics,
    smooth_clip_truncation,
    standard_truncation,
)
from .paths import CadlagPath, GridAlignmentError, TimeGrid, _write_csv
from .regularize import (
    CovariationEstimate,
    EpsilonSchedule,
    covariation_limit,
    forward_integral_limit,
)
from .residuals import (
    bump,
    damped_sine,
    exp_tanh,
    martingale_mean_test,
    residual_ensemble,
)
from .levyexponent import ExponentGrid, recover_triplet
from .simulate import (
    BrownianMotion,
    Composite,
    CompoundPoisson,
    DeterministicDrift,
    DiscreteAtoms,
    FractionalBrownianMotion,
    GaussianJumps,
    LevyJumpDiffusion,
    SeedSpec,
    UniformJumps,
    _QUAD_NODES,
    simulate_path,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_STATFAIL = 4

_DEFAULTS = {
    "seed": 0,
    "paths": 1,
    "eps_multiples": [32, 16, 8, 4, 2, 1],
    "truncation": "standard",
    "function": "exptanh",
    "alpha_se": 3.0,
    "times": [0.25, 0.5, 1.0],
    "mode": "weak_dirichlet",
    "inject_drift": 0.0,
    "batch_size": 1024,
    "integrand": "constant",
    "tolerance": 0.05,
    "source": {"kind": "model"},
}


class ConfigError(ValueError):
    pass


@functools.cache
def _validator():
    """The shipped schema's validator, built once per process (each
    ``jsonschema.validate`` call re-checks the schema against its metaschema)."""
    with resources.files("dirichlet_reg").joinpath("config_schema.json").open() as fh:
        schema = json.load(fh)
    return jsonschema.validators.validator_for(schema)(schema)


def _non_finite_key(obj, key: str = "") -> str | None:
    """The key of the first NaN or infinity in a JSON value, if it holds one."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else key
    if isinstance(obj, dict):
        items = ((f"{key}.{k}" if key else k, v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_non_finite_key(v, k) for k, v in items)), None)


def _validate(cfg: dict, what: str) -> None:
    """Raises what ``jsonschema.validate`` would, as a config error; then
    rejects NaN and infinities, which the schema's bounds let through."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"{what} violates schema: {error.message}")
    key = _non_finite_key(cfg)
    if key is not None:
        raise ConfigError(f"{what} has a non-finite number at {key}")


def load_config(path: str) -> dict:
    """Reads a config file; a manifest file (with a 'config' key) replays."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if isinstance(raw, dict) and "config" in raw and "tool_version" in raw:
        raw = raw["config"]
    _validate(raw, "config")
    return raw


def resolve_config(raw: dict, args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    for key in ("seed", "paths", "function", "alpha_se", "batch_size"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    for key in ("steps", "horizon"):
        if getattr(args, key) is not None:
            cfg["grid"] = dict(cfg["grid"], **{key: getattr(args, key)})
    out = args.out or cfg.get("out") or os.environ.get("DIRICHLET_REG_OUT") or "runs"
    cfg["out"] = str(out)
    _validate(cfg, "resolved config")
    return cfg


def _build_law(spec: dict):
    kind = spec["kind"]
    if kind == "discrete":
        return DiscreteAtoms(tuple(spec["values"]), tuple(spec["probabilities"]))
    if kind == "gaussian":
        return GaussianJumps(spec["mean"], spec["sd"])
    if kind == "uniform":
        return UniformJumps(spec["a"], spec["b"])
    raise ConfigError(f"unknown law kind {kind!r}")


def _build_model(spec: dict):
    """The model of a config's ``model`` section; bad parameters are config errors."""
    try:
        return _model_from_spec(spec)
    except ValueError as exc:
        raise ConfigError(f"bad model: {exc}") from exc


def _model_from_spec(spec: dict):
    kind = spec["kind"]
    if kind == "brownian":
        return BrownianMotion(spec.get("sigma", 1.0))
    if kind == "fbm":
        return FractionalBrownianMotion(spec["hurst"], spec.get("scale", 1.0))
    if kind == "compound_poisson":
        return CompoundPoisson(spec["rate"], _build_law(spec["law"]))
    if kind == "levy_jump_diffusion":
        return LevyJumpDiffusion(
            spec["drift"], spec["sigma"], spec["rate"], _build_law(spec["law"])
        )
    if kind == "drift":
        coeffs = tuple(spec["coeffs"])
        return DeterministicDrift(lambda t, c=coeffs: np.polynomial.polynomial.polyval(t, c))
    if kind == "composite":
        return Composite(tuple(_model_from_spec(c) for c in spec["components"]))
    raise ConfigError(f"unknown model kind {kind!r}")


def _build_grid(cfg: dict) -> TimeGrid:
    return TimeGrid(T=float(cfg["grid"]["horizon"]), n_steps=int(cfg["grid"]["steps"]))


def _schedule(multiples, grid: TimeGrid) -> EpsilonSchedule:
    """The eps schedule, checked against the grid it will run on."""
    try:
        schedule = EpsilonSchedule(tuple(multiples))
        schedule.epsilons(grid)
    except ValueError as exc:
        raise ConfigError(
            f"eps_multiples {list(multiples)} do not fit {grid.n_steps} steps: {exc}"
        ) from exc
    return schedule


def _truncation(cfg: dict):
    return standard_truncation() if cfg["truncation"] == "standard" else smooth_clip_truncation()


def _test_function(cfg: dict):
    return {"exptanh": exp_tanh, "dampedsine": damped_sine, "bump": bump}[cfg["function"]]()


def _source_path(cfg: dict, grid: TimeGrid) -> CadlagPath:
    src = cfg["source"]
    kind = src["kind"]
    if kind == "model":
        if "model" not in cfg:
            raise ConfigError("source kind 'model' needs a model in the config")
        return simulate_path(_build_model(cfg["model"]), grid, SeedSpec(cfg["seed"], 0))
    if kind == "csv":
        try:
            X = CadlagPath.from_csv(src["file"])
        except (OSError, KeyError, IndexError, ValueError) as exc:
            raise ConfigError(f"cannot load path csv: {exc}") from exc
        if X.grid != grid:
            raise ConfigError(f"path csv {src['file']} lies on {X.grid}, the config on {grid}")
        return X
    if kind == "fixture":
        name = src.get("name")
        if name == "heaviside":
            jt = src.get("jump_time", 0.5)
            js = src.get("jump_size", 1.0)
            try:
                i = grid.index_of(jt)
                values = np.where(np.arange(grid.n_nodes) >= i, js, 0.0)
                if js == 0:
                    raise ValueError("jump_size must be nonzero")
                return CadlagPath.from_jumps(grid, values, {i: js})
            except ValueError as exc:
                raise ConfigError(f"bad heaviside fixture: {exc}") from exc
        if name == "white_noise":
            rng = SeedSpec(cfg["seed"], 0).generator()
            return CadlagPath(grid, rng.standard_normal(grid.n_nodes))
        raise ConfigError(f"unknown fixture {name!r}")
    raise ConfigError(f"unknown source kind {kind!r}")


# ---------------------------------------------------------------------------
# Deterministic output helpers
# ---------------------------------------------------------------------------

def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _long_columns(grid: TimeGrid, est: CovariationEstimate):
    """``t, eps, value`` columns: one block of grid rows per eps of the estimate."""
    return (np.tile(grid.times(), len(est.eps_values)),
            np.repeat(est.eps_values, grid.n_nodes), est.trajectories.ravel())


def _hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir: Path, cfg: dict, command: str, verdicts: dict,
                    input_files: list[str]) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "tool_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "input_hashes": {f: _hash_file(f) for f in input_files if os.path.exists(f)},
        "verdicts": verdicts,
    }
    _write_json(outdir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# Commands: each writes its result files and returns
# (exit code, manifest verdicts, input files to hash)
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, outdir: Path):
    grid = _build_grid(cfg)
    model = _build_model(cfg["model"])
    n = cfg["paths"]
    finals = np.empty(n)
    for i in range(n):
        p = simulate_path(model, grid, SeedSpec(cfg["seed"], i))
        p.to_csv(outdir / f"path_{i:05d}.csv")
        finals[i] = p.values[-1]
    verdicts = {
        "n_paths": n,
        "final_value_mean": float(np.mean(finals)),
        "final_value_variance": float(np.var(finals)) if n > 1 else 0.0,
    }
    return EXIT_OK, verdicts, []


def _estimator_command(cfg: dict, outdir: Path, command: str):
    grid = _build_grid(cfg)
    X = _source_path(cfg, grid)
    schedule = _schedule(cfg["eps_multiples"], grid)
    if command == "qv":
        est = covariation_limit(X, X, schedule)
    else:
        integrand = cfg["integrand"]
        if integrand == "constant":
            Y = CadlagPath(grid, np.ones(grid.n_nodes))
        elif integrand == "identity":
            Y = X
        else:
            Y = CadlagPath(grid, grid.times())
        est = forward_integral_limit(Y, X, schedule)
    _write_csv(outdir / f"{command}.csv", ["t", "eps", "value"], *_long_columns(grid, est))
    summary = {
        "limit_sup_error": est.error_estimate,
        "converged": bool(est.converged),
        "limit_final": float(est.limit[-1]),
    }
    _write_json(outdir / f"{command}_summary.json", summary)
    input_files = [cfg["source"]["file"]] if cfg["source"]["kind"] == "csv" else []
    return (EXIT_OK if est.converged else EXIT_NONCONVERGED), summary, input_files


def cmd_residual(cfg: dict, outdir: Path):
    grid = _build_grid(cfg)
    model = _build_model(cfg["model"])
    k = _truncation(cfg)
    for t in cfg["times"]:
        try:
            grid.index_of(t)
        except GridAlignmentError as exc:
            raise ConfigError(f"residual time {t}: {exc}") from exc
    if cfg["mode"] == "semimartingale" and not known_characteristics(model, k).bk_finite_variation:
        raise ConfigError("mode semimartingale needs a finite-variation drift; use weak_dirichlet")
    ens = residual_ensemble(
        model,
        grid,
        k,
        _test_function(cfg),
        master_seed=cfg["seed"],
        n_paths=cfg["paths"],
        times=tuple(cfg["times"]),
        mode=cfg["mode"],
        batch_size=cfg["batch_size"],
        inject_drift=cfg["inject_drift"],
    )
    report = martingale_mean_test(ens, alpha_se=cfg["alpha_se"])
    payload = report.to_dict()
    payload["quadrature_nodes"] = _QUAD_NODES
    _write_json(outdir / "residual_report.json", payload)
    return (EXIT_OK if report.passed else EXIT_STATFAIL), {"pass": report.passed}, []


def cmd_decompose(cfg: dict, outdir: Path):
    grid = _build_grid(cfg)
    model = _build_model(cfg["model"])
    k = _truncation(cfg)
    schedule = _schedule(cfg["eps_multiples"], grid)
    X = simulate_path(model, grid, SeedSpec(cfg["seed"], 0))
    dec = decompose(X, model, k)
    _write_csv(
        outdir / "decomposition.csv",
        ["t", "x", "continuous", "compensated_jumps", "drift", "large_jumps"],
        grid.times(), X.values, dec.continuous.values, dec.compensated_jumps.values,
        dec.drift.values, dec.large_jumps.values,
    )
    tol = cfg["tolerance"]
    reports = {}
    nonconverged = False
    brackets = _decomposition_brackets(X, dec, schedule)
    for label, rep in (
        ("drift_bracket", _drift_bracket_report(X, model, k, brackets)),
        ("continuous_bracket", _continuous_bracket_report(brackets)),
    ):
        reports[label] = {
            "lhs_sup": float(np.max(np.abs(rep.lhs))),
            "rhs_sup": float(np.max(np.abs(rep.rhs))),
            "distance": rep.sup_distance,
            "tolerance": tol,
            "pass": bool(rep.within(tol)),
        }
        nonconverged |= not rep.converged
    ok = all(v["pass"] for v in reports.values())
    reports["reconstruction_error"] = dec.reconstruction_error
    _write_json(outdir / "identity_reports.json", reports)
    code = EXIT_NONCONVERGED if nonconverged else EXIT_OK if ok else EXIT_STATFAIL
    return code, reports, []


def cmd_recover(cfg: dict, outdir: Path):
    rc = cfg["recover"]
    try:
        grid = ExponentGrid.from_csv(rc["psi_csv"])
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"cannot load exponent csv: {exc}") from exc
    try:
        rec = recover_triplet(
            grid,
            w=rc.get("w", 2.0),
            x_max=rc.get("x_max", 4.0),
            x_cells=rc.get("x_cells", 1024),
            weight_guard=rc.get("weight_guard", 1e-3),
        )
    except ValueError as exc:
        raise ConfigError(f"cannot recover from {rc['psi_csv']}: {exc}") from exc
    payload = {
        "b": rec.b,
        "c": rec.c,
        "lambda_grid": [
            [float(x), float(d)] for x, d in zip(rec.lam.xs, rec.lam.density)
        ],
        "residual": rec.residual_sup,
        "unrecovered_cells": [float(x) for x in rec.unrecovered_cells],
    }
    _write_json(outdir / "recovered_triplet.json", payload)
    return EXIT_OK, {"residual": rec.residual_sup}, [rc["psi_csv"]]


def cmd_sweep(cfg: dict, outdir: Path):
    sw = cfg["sweep"]
    eps_multiples = sw.get("eps_multiples", cfg["eps_multiples"])
    horizon = float(cfg["grid"]["horizon"])
    grids = [TimeGrid(horizon, int(steps)) for steps in sw["steps_list"]]
    schedules = [_schedule(eps_multiples, grid) for grid in grids]
    model = _build_model(cfg["model"])
    blocks = []
    for grid, schedule in zip(grids, schedules):
        X = simulate_path(model, grid, SeedSpec(cfg["seed"], 0))
        t, eps, value = _long_columns(grid, covariation_limit(X, X, schedule))
        blocks.append((np.full(t.size, grid.dt), eps, t, value))
    dt, eps, t, value = (np.concatenate(c) for c in zip(*blocks))
    _write_csv(outdir / "sweep.csv", ["dt", "eps", "t", "value"], dt, eps, t, value)
    return EXIT_OK, {"rows": int(t.size)}, []


# command -> (function, config sections it needs beyond ``grid``)
_COMMANDS = {
    "simulate": (cmd_simulate, ("model",)),
    "qv": (lambda cfg, out: _estimator_command(cfg, out, "qv"), ()),
    "fwdint": (lambda cfg, out: _estimator_command(cfg, out, "fwdint"), ()),
    "residual": (cmd_residual, ("model",)),
    "decompose": (cmd_decompose, ("model",)),
    "recover": (cmd_recover, ("recover",)),
    "sweep": (cmd_sweep, ("model", "sweep")),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dirichlet-reg",
        description="Covariation estimators, characteristics decompositions "
        "and martingale residual tests for sampled cadlag paths.",
    )
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True, help="JSON config (or manifest) file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--function", choices=["exptanh", "dampedsine", "bump"], default=None)
    p.add_argument("--alpha-se", type=float, default=None, dest="alpha_se")
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.add_argument("--out", default=None, help="output directory (env DIRICHLET_REG_OUT)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, sections = _COMMANDS[args.command]
    try:
        cfg = resolve_config(load_config(args.config), args)
        missing = [s for s in sections if s not in cfg]
        if missing:
            raise ConfigError(f"{args.command} needs the config section(s) {', '.join(missing)}")
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        code, verdicts, input_files = command(cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write_manifest(outdir, cfg, args.command, verdicts, input_files)
    return code


if __name__ == "__main__":
    sys.exit(main())

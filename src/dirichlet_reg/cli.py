"""Config-driven command line front end.

    dirichlet-reg <command> --config FILE [--seed N] [--paths N] [--out DIR]

Commands: simulate, qv, fwdint, residual, decompose, recover, sweep.
Configurations are validated against the JSON schema shipped with the
package; every run writes a manifest with the fully resolved configuration
(all defaults explicit), tool version, timestamps, input hashes and a verdict
summary.  Re-running a command from its manifest reproduces all result files
byte for byte.  Configs hold only experiment settings: a residual ensemble's
batch size follows from the grid.

A command computes its result files and returns them; ``main`` alone writes.
It checks every number of every result file and of the verdicts first, so a
NaN or infinity exits 2 before the output directory is created.

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
import time
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
    smooth_clip_truncation,
    standard_truncation,
)
from .paths import CadlagPath, TimeGrid, _format, _write_csv
from .regularize import (
    CovariationEstimate,
    EpsilonSchedule,
    _DEFAULT_MULTIPLES,
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
    _component_list,
    simulate_path,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_STATFAIL = 4

_DEFAULTS = {
    "seed": 0,
    "paths": 1,
    "eps_multiples": list(_DEFAULT_MULTIPLES),
    "truncation": "standard",
    "function": "exptanh",
    "alpha_se": 3.0,
    "times": [0.25, 0.5, 1.0],
    "mode": "weak_dirichlet",
    "integrand": "constant",
    "tolerance": 0.05,
    "source": {"kind": "model"},
}
# defaults inside a section, resolved wherever the section is present
_MODEL_DEFAULTS = {"brownian": {"sigma": 1.0}, "fbm": {"scale": 1.0}}
_RECOVER_DEFAULTS = {"w": 2.0, "x_max": 4.0, "x_cells": 1024, "weight_guard": 1e-3}
_HEAVISIDE_DEFAULTS = {"jump_time": 0.5, "jump_size": 1.0}
# the largest Poisson mean numpy's Generator.poisson draws (its POISSON_LAM_MAX)
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


class ConfigError(ValueError):
    pass


@functools.cache
def _validator():
    """The shipped schema's validator, built once per process (each
    ``jsonschema.validate`` call re-checks the schema against its metaschema)."""
    with resources.files("dirichlet_reg").joinpath("config_schema.json").open() as fh:
        schema = json.load(fh)
    return jsonschema.validators.validator_for(schema)(schema)


def _key_of(path) -> str:
    """A location in a JSON value, as ``model.components[0].sigma``."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def _non_finite_path(obj, path: tuple = ()) -> tuple | None:
    """The location of the first NaN or infinity in a JSON value, if it holds one."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return None
    return next(filter(None, (_non_finite_path(v, (*path, k)) for k, v in items)), None)


def _validate(cfg: dict, what: str) -> None:
    """Raises what ``jsonschema.validate`` would, as a config error naming the
    key it concerns unless that is the whole config; then rejects NaN and
    infinities, which the schema's bounds let through."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(cfg))
    if error is not None:
        where = f" at {_key_of(error.absolute_path)}" if error.absolute_path else ""
        raise ConfigError(f"{what} violates schema{where}: {error.message}")
    path = _non_finite_path(cfg)
    if path is not None:
        raise ConfigError(f"{what} has a non-finite number at {_key_of(path)}")


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
    for key in ("seed", "paths", "function", "alpha_se"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    for key in ("steps", "horizon"):
        if getattr(args, key) is not None:
            cfg["grid"] = dict(cfg["grid"], **{key: getattr(args, key)})
    out = args.out or cfg.get("out") or os.environ.get("DIRICHLET_REG_OUT") or "runs"
    cfg["out"] = str(out)
    if "model" in cfg:
        cfg["model"] = _with_model_defaults(cfg["model"])
    if "recover" in cfg:
        cfg["recover"] = {**_RECOVER_DEFAULTS, **cfg["recover"]}
    if "sweep" in cfg:
        cfg["sweep"] = {"eps_multiples": cfg["eps_multiples"], **cfg["sweep"]}
    if cfg["source"]["kind"] == "fixture" and cfg["source"].get("name") == "heaviside":
        cfg["source"] = {**_HEAVISIDE_DEFAULTS, **cfg["source"]}
    _validate(cfg, "resolved config")
    return cfg


def _with_model_defaults(spec: dict) -> dict:
    if spec["kind"] == "composite":
        return dict(spec, components=[_with_model_defaults(c) for c in spec["components"]])
    return {**_MODEL_DEFAULTS.get(spec["kind"], {}), **spec}


def _build_law(spec: dict):
    kind = spec["kind"]
    if kind == "discrete":
        return DiscreteAtoms(tuple(spec["values"]), tuple(spec["probabilities"]))
    if kind == "gaussian":
        return GaussianJumps(spec["mean"], spec["sd"])
    if kind == "uniform":
        return UniformJumps(spec["a"], spec["b"])
    raise ConfigError(f"unknown law kind {kind!r}")


def _build_model(cfg: dict):
    """The model of a config's ``model`` section; bad parameters, and a jump
    rate whose Poisson mean over the horizon numpy cannot draw, are config
    errors."""
    try:
        model = _model_from_spec(cfg["model"])
    except ValueError as exc:
        raise ConfigError(f"bad model: {exc}") from exc
    horizon = cfg["grid"]["horizon"]
    for comp in _component_list(model):
        if isinstance(comp, CompoundPoisson) and comp.rate * horizon > _POISSON_LAM_MAX:
            raise ConfigError(f"bad model: rate {comp.rate!r} over horizon {horizon!r} is a "
                              f"Poisson mean above {_POISSON_LAM_MAX:.6g}, the largest numpy draws")
    return model


def _model_from_spec(spec: dict):
    kind = spec["kind"]
    if kind == "brownian":
        return BrownianMotion(spec["sigma"])
    if kind == "fbm":
        return FractionalBrownianMotion(spec["hurst"], spec["scale"])
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
        return simulate_path(_build_model(cfg), grid, SeedSpec(cfg["seed"], 0))
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
            jt, js = src["jump_time"], src["jump_size"]
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
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _long_columns(grid: TimeGrid, est: CovariationEstimate):
    """``t, eps, value`` columns: one block of grid rows per eps of the
    estimate, the times formatted once."""
    return (np.tile(_format(grid.times()), len(est.eps_values)),
            np.repeat(est.eps_values, grid.n_nodes), est.trajectories.ravel())


def _hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir: Path, cfg: dict, command: str, verdicts: dict,
                    input_files: list[str], run: dict) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "tool_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "input_hashes": {f: _hash_file(f) for f in input_files if os.path.exists(f)},
        "verdicts": verdicts,
        "run": run,
    }
    _write_json(outdir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# Commands: each computes what it would write, writes nothing and returns
# (exit code, manifest verdicts, input files to hash, result files, the
# manifest's run section: what the run did and where its time went, to which
# ``main`` adds the compute and write seconds and any CSV data row count).
# A result file is (stage, name, content): content is a JSON value or a
# CSV's (header, columns), a column float64 or ``_format`` text; the stage
# names the file in a non-finite-number error.
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict):
    grid = _build_grid(cfg)
    model = _build_model(cfg)
    n = cfg["paths"]
    t = _format(grid.times())
    finals = np.empty(n)
    files = []
    for i in range(n):
        p = simulate_path(model, grid, SeedSpec(cfg["seed"], i))
        finals[i] = p.values[-1]
        files.append(("path", f"path_{i:05d}.csv",
                      (["t", "value", "jump"], (t, p.values, p.jumps))))
    verdicts = {
        "n_paths": n,
        "final_value_mean": float(np.mean(finals)),
        "final_value_variance": float(np.var(finals)) if n > 1 else 0.0,
    }
    return EXIT_OK, verdicts, [], files, {}


def _estimator_command(cfg: dict, command: str):
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
    summary = {
        "limit_sup_error": est.error_estimate,
        "converged": bool(est.converged),
        "limit_final": float(est.limit[-1]),
    }
    files = [("estimate", f"{command}.csv", (["t", "eps", "value"], _long_columns(grid, est))),
             ("estimate", f"{command}_summary.json", summary)]
    input_files = [cfg["source"]["file"]] if cfg["source"]["kind"] == "csv" else []
    return (EXIT_OK if est.converged else EXIT_NONCONVERGED), summary, input_files, files, {}


def cmd_residual(cfg: dict):
    grid = _build_grid(cfg)
    model = _build_model(cfg)
    schedule = _schedule(cfg["eps_multiples"], grid)
    try:
        ens = residual_ensemble(
            model,
            grid,
            _truncation(cfg),
            _test_function(cfg),
            master_seed=cfg["seed"],
            n_paths=cfg["paths"],
            times=tuple(cfg["times"]),
            mode=cfg["mode"],
            schedule=schedule,
        )
    except ValueError as exc:
        raise ConfigError(f"cannot run the residual ensemble: {exc}") from exc
    report = martingale_mean_test(ens, alpha_se=cfg["alpha_se"])
    files = [("report", "residual_report.json",
              {**report.to_dict(), "quadrature_nodes": _QUAD_NODES})]
    verdicts = {"pass": report.passed, "forward_nonconverged": ens.meta["forward_nonconverged"]}
    run = {"paths": ens.n_paths,
           **{key: ens.meta[key] for key in ("jumps", "probe_nodes", "seconds")}}
    return (EXIT_OK if report.passed else EXIT_STATFAIL), verdicts, [], files, run


def cmd_decompose(cfg: dict):
    grid = _build_grid(cfg)
    model = _build_model(cfg)
    k = _truncation(cfg)
    schedule = _schedule(cfg["eps_multiples"], grid)
    X = simulate_path(model, grid, SeedSpec(cfg["seed"], 0))
    tol = cfg["tolerance"]
    reports = {}
    nonconverged = False
    dec = decompose(X, model, k)
    brackets = _decomposition_brackets(X, dec, schedule)
    for label, rep in (
        ("drift_bracket", _drift_bracket_report(brackets)),
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
    columns = (grid.times(), X.values, dec.continuous.values, dec.compensated_jumps.values,
               dec.drift.values, dec.large_jumps.values)
    files = [
        ("decomposition", "decomposition.csv",
         (["t", "x", "continuous", "compensated_jumps", "drift", "large_jumps"], columns)),
        ("bracket reports", "identity_reports.json", reports),
    ]
    code = EXIT_NONCONVERGED if nonconverged else EXIT_OK if ok else EXIT_STATFAIL
    return code, reports, [], files, {}


def cmd_recover(cfg: dict):
    rc = cfg["recover"]
    try:
        grid = ExponentGrid.from_csv(rc["psi_csv"])
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"cannot load exponent csv: {exc}") from exc
    try:
        rec = recover_triplet(
            grid,
            w=rc["w"],
            x_max=rc["x_max"],
            x_cells=rc["x_cells"],
            weight_guard=rc["weight_guard"],
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
    files = [("recovered triplet", "recovered_triplet.json", payload)]
    return EXIT_OK, {"residual": rec.residual_sup}, [rc["psi_csv"]], files, {}


def cmd_sweep(cfg: dict):
    sw = cfg["sweep"]
    eps_multiples = sw["eps_multiples"]
    horizon = float(cfg["grid"]["horizon"])
    grids = [TimeGrid(horizon, int(steps)) for steps in sw["steps_list"]]
    schedules = [_schedule(eps_multiples, grid) for grid in grids]
    model = _build_model(cfg)
    blocks = []
    for grid, schedule in zip(grids, schedules):
        X = simulate_path(model, grid, SeedSpec(cfg["seed"], 0))
        t, eps, value = _long_columns(grid, covariation_limit(X, X, schedule))
        blocks.append((np.full(t.size, grid.dt), eps, t, value))
    columns = tuple(np.concatenate(c) for c in zip(*blocks))
    files = [("estimate", "sweep.csv", (["dt", "eps", "t", "value"], columns))]
    return EXIT_OK, {"rows": int(columns[0].size)}, [], files, {}


# command -> (function, config sections it needs beyond ``grid``)
_COMMANDS = {
    "simulate": (cmd_simulate, ("model",)),
    "qv": (lambda cfg: _estimator_command(cfg, "qv"), ()),
    "fwdint": (lambda cfg: _estimator_command(cfg, "fwdint"), ()),
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
        clock = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            code, verdicts, input_files, files, run = command(cfg)
        seconds = {"compute": time.perf_counter() - clock}
        # every number bound for the disk is checked before the first write;
        # a CSV's text columns are grid times
        for stage, _, content in [*files, ("verdicts", "manifest.json", verdicts)]:
            if isinstance(content, tuple):
                finite = all(np.isfinite(c).all() for c in content[1] if c.dtype != object)
            else:
                finite = _non_finite_path(content) is None
            if not finite:
                raise ConfigError(f"{args.command}: non-finite number in the {stage} "
                                  "(the model or path is too large for float64)")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    clock = time.perf_counter()
    csv_rows = 0
    for _, name, content in files:
        if isinstance(content, tuple):
            header, columns = content
            _write_csv(outdir / name, header, *columns)
            csv_rows += len(columns[0])
        else:
            _write_json(outdir / name, content)
    seconds["write"] = time.perf_counter() - clock
    run = {**run, "seconds": {**run.get("seconds", {}), **seconds}}
    if csv_rows:
        run["csv_rows"] = csv_rows
    _write_manifest(outdir, cfg, args.command, verdicts, input_files, run)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

A workload is a fixed list of ops run in order; one pass runs every op once.
``call(env)`` is the program call and is the only part that is timed;
``observe(result, env)`` reads the result or the files it wrote after the
pass; ``check(obs, earlier)`` states invariants that hold for every seed.
For the default seed the observations are also compared with the stored
reference (see ``compare``).

All master seeds and input arrays are drawn from the benchmark's ``--seed``;
the program receives only the generated configs and arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

DEFAULT_SEED = 0
RTOL = 1e-6   # relative to the largest reference value of the compared leaf
ATOL = 1e-12

FUNCTIONS = ("exptanh", "dampedsine")
CP2 = {"kind": "discrete", "values": [2.0, -2.0], "probabilities": [0.5, 0.5]}
CP_HALF = {"kind": "discrete", "values": [0.5, -0.5], "probabilities": [0.5, 0.5]}
MODELS = {
    "brownian": {"kind": "brownian", "sigma": 1.0},
    "compound_poisson": {"kind": "compound_poisson", "rate": 1.0, "law": CP2},
    "jump_diffusion": {
        "kind": "levy_jump_diffusion", "drift": 0.3, "sigma": 1.0, "rate": 2.0,
        "law": {"kind": "gaussian", "mean": 0.0, "sd": 0.3},
    },
    "composite": {
        "kind": "composite",
        "components": [
            {"kind": "brownian", "sigma": 1.0},
            {"kind": "fbm", "hurst": 0.7, "scale": 0.5},
            {"kind": "compound_poisson", "rate": 1.0, "law": CP_HALF},
        ],
    },
}


@dataclass
class Op:
    name: str
    call: Callable[[dict], Any]
    observe: Callable[[Any, dict], dict]
    check: Callable[[dict, dict], list[str]] = lambda obs, earlier: []


@dataclass
class Workload:
    ops: list[Op]
    items: int          # work items completed by one pass
    item: str           # what an item is


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def _write_config(path: Path, cfg: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _finite(obs: dict, earlier=None) -> list[str]:
    """One problem per observation entry that holds a non-finite number."""
    def ok(v):
        return all(map(ok, v)) if isinstance(v, list) else (
            not isinstance(v, float) or math.isfinite(v))
    return [f"non-finite {k}" for k, v in obs.items() if not ok(v)]


def _samples(a: np.ndarray, k: int = 9) -> list[float]:
    a = np.asarray(a, dtype=np.float64)
    return a[np.linspace(0, a.size - 1, k).round().astype(int)].tolist()


def csv_summary(path: Path) -> dict:
    """Row count, and per column its absolute sum and 9 evenly spaced values."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    a = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {
        "rows": int(a.shape[0]),
        "columns": {
            name: {"abs_sum": float(np.abs(a[:, j]).sum()), "samples": _samples(a[:, j])}
            for j, name in enumerate(header)
        },
    }


def _rows_check(obs: dict, expected: int, key: str = "csv") -> list[str]:
    rows = obs[key]["rows"]
    return [] if rows == expected else [f"{key} has {rows} rows, expected {expected}"]


def _exit_in(obs: dict, allowed) -> list[str]:
    return [] if obs["exit"] in allowed else [f"exit code {obs['exit']} not in {sorted(allowed)}"]


def _cli(dr, argv: list[str]) -> Callable[[dict], int]:
    return lambda env: dr.cli.main(argv)


# ---------------------------------------------------------------------------
# mc_residual: the criterion-6 suite through the CLI
# ---------------------------------------------------------------------------

MC_STEPS = 512
MC_PATHS = 256


def mc_residual(dr, seed: int, work: Path) -> Workload:
    masters = iter(_seeds(_rng(seed, 1), 2 * len(MODELS)))
    ops = []
    for model, spec in MODELS.items():
        cfg = _write_config(work / f"{model}.json", {
            "grid": {"horizon": 1.0, "steps": MC_STEPS}, "model": spec, "paths": MC_PATHS,
        })
        for fn in FUNCTIONS:
            out = work / f"{model}-{fn}"
            argv = ["residual", "--config", cfg, "--function", fn,
                    "--seed", str(next(masters)), "--out", str(out)]

            def observe(code, env, out=out):
                rep = _read_json(out / "residual_report.json")
                return {
                    "exit": code,
                    "pass": rep["pass"],
                    "n_paths": rep["n_paths"],
                    "means": rep["means"],
                    "zscores": rep["zscores"],
                    "orthogonality_z": [o["z"] for o in rep["orthogonality"]],
                }

            def check(obs, earlier):
                problems = _exit_in(obs, {0, 4})
                if (obs["exit"] == 0) != obs["pass"]:
                    problems.append("exit code disagrees with the report verdict")
                if obs["n_paths"] != MC_PATHS:
                    problems.append(f"report covers {obs['n_paths']} paths")
                return problems + _finite(obs)

            ops.append(Op(f"{model}/{fn}", _cli(dr, argv), observe, check))
    return Workload(ops, items=len(ops) * MC_PATHS, item="path-residual")


# ---------------------------------------------------------------------------
# pathwise_identities: the per-path estimator battery on a fine grid
# ---------------------------------------------------------------------------

PW_STEPS = 1 << 16
PW_EPS = (128, 32, 8, 2, 1)
STEP_SLOT = 256  # step-fixture jumps sit >= 192 nodes apart, beyond m = 128


def _library_models(dr) -> dict:
    law_g = dr.GaussianJumps(0.0, 0.3)
    return {
        "brownian": dr.BrownianMotion(1.0),
        "compound_poisson": dr.CompoundPoisson(1.0, dr.DiscreteAtoms((2.0, -2.0), (0.5, 0.5))),
        "jump_diffusion": dr.LevyJumpDiffusion(0.3, 1.0, 2.0, law_g),
        "composite": dr.Composite((
            dr.BrownianMotion(1.0),
            dr.FractionalBrownianMotion(0.7, 0.5),
            dr.CompoundPoisson(1.0, dr.DiscreteAtoms((0.5, -0.5), (0.5, 0.5))),
        )),
    }


def step_fixture(dr, grid, rng: np.random.Generator):
    """Two step paths sharing four jump nodes, all jumps > 128 nodes apart."""
    slots = rng.choice(np.arange(1, grid.n_steps // STEP_SLOT), size=12, replace=False)
    nodes = slots * STEP_SLOT + rng.integers(0, STEP_SLOT // 4, size=12)
    sizes = rng.uniform(0.5, 2.0, size=12) * rng.choice([-1.0, 1.0], size=12)

    def path(sel):
        jumps = dict(zip(nodes[sel].tolist(), sizes[sel].tolist()))
        steps = np.zeros(grid.n_nodes)
        steps[list(jumps)] = list(jumps.values())
        return dr.CadlagPath.from_jumps(grid, np.cumsum(steps), jumps)

    return path(slice(0, 8)), path(slice(4, 12))


def pathwise_identities(dr, seed: int, work: Path) -> Workload:
    rng = _rng(seed, 2)
    grid = dr.TimeGrid(1.0, PW_STEPS)
    sched = dr.EpsilonSchedule(PW_EPS)
    k = dr.standard_truncation()
    F = dr.exp_tanh()
    Y, Z = step_fixture(dr, grid, rng)
    masters = dict(zip(MODELS, _seeds(rng, len(MODELS))))

    def report_obs(rep, env):
        return {"sup": rep.sup_distance, "error": rep.error_estimate,
                "converged": bool(rep.converged), "precondition_ok": bool(rep.precondition_ok)}

    def step_check(obs, earlier):
        problems = [] if obs["precondition_ok"] else ["step-path precondition rejected"]
        if not obs["sup"] <= 1e-12:
            problems.append(f"step-path covariation error {obs['sup']:.3g} > 1e-12")
        return problems

    ops = [Op("step_paths/pure_jump",
              lambda env: dr.pure_jump_covariation_check(Y, Z, sched),
              report_obs, step_check)]
    for name, model in _library_models(dr).items():
        X = f"{name}/simulate"
        dec = f"{name}/decompose"
        ops += [
            Op(X, lambda env, m=model, s=masters[name]:
               dr.simulate_path(m, grid, dr.SeedSpec(s, 0)),
               lambda p, env: {"n_jumps": int(p.jump_indices.size),
                               "values": _samples(p.values)},
               _finite),
            Op(f"{name}/pure_jump",
               lambda env, X=X: dr.pure_jump_covariation_check(Y, env[X], sched),
               report_obs, _finite),
            Op(f"{name}/smooth_map_qv",
               lambda env, X=X: dr.smooth_map_qv_check(env[X], np.sin, np.cos, sched),
               report_obs, _finite),
            Op(dec, lambda env, X=X, m=model: dr.decompose(env[X], m, k),
               lambda d, env: {"reconstruction_error": d.reconstruction_error,
                               "drift": _samples(d.drift.values),
                               "continuous": _samples(d.continuous.values)},
               lambda obs, earlier: [] if obs["reconstruction_error"] <= 1e-12 else
               [f"reconstruction error {obs['reconstruction_error']:.3g} > 1e-12"]),
            Op(f"{name}/drift_bracket",
               lambda env, X=X, dec=dec, m=model:
               dr.drift_bracket_check(env[X], env[dec], m, k, sched),
               report_obs, _finite),
            Op(f"{name}/continuous_bracket",
               lambda env, X=X, dec=dec: dr.continuous_bracket_check(env[X], env[dec], sched),
               report_obs, _finite),
            Op(f"{name}/forward_integral",
               lambda env, X=X: dr.forward_integral_limit(env[X], env[X], sched),
               lambda est, env: {"limit": _samples(est.limit), "error": est.error_estimate,
                                 "converged": bool(est.converged)},
               _finite),
            Op(f"{name}/weak_dirichlet",
               lambda env, X=X, m=model: dr.weak_dirichlet_residual(env[X], m, k, F, sched),
               lambda r, env: {"values": _samples(r.values),
                               "forward_converged": bool(r.forward_converged)},
               _finite),
        ]
        if name != "composite":  # the classical form needs finite-variation drift
            ops.append(Op(f"{name}/semimartingale",
                          lambda env, X=X, m=model: dr.semimartingale_residual(env[X], m, k, F),
                          lambda r, env: {"values": _samples(r.values)}, _finite))
    return Workload(ops, items=len(MODELS), item="path through the full per-path battery")


# ---------------------------------------------------------------------------
# cli_export: CSV files in and out of the CLI
# ---------------------------------------------------------------------------

EX_STEPS = 1 << 14
EX_DECOMPOSE_STEPS = {"composite": 1 << 16, "jump_diffusion": 1 << 14}
EX_SWEEP = [2048, 4096, 8192]
EX_SIM_PATHS = 2
N_EPS_DEFAULT = 6  # the CLI's default eps_multiples has six entries


def cli_export(dr, seed: int, work: Path) -> Workload:
    s = iter(_seeds(_rng(seed, 3), 8))
    grid = {"horizon": 1.0, "steps": EX_STEPS}
    ops = []
    written = read = 0

    def cli_op(name, command, cfg, observe, check):
        out = work / name.replace("/", "-")
        argv = [command, "--config", _write_config(work / f"{out.name}.json", cfg),
                "--out", str(out)]
        ops.append(Op(name, _cli(dr, argv),
                      lambda code, env: {"exit": code, **observe(out)}, check))
        return out

    sim_out = {}
    for model in ("composite", "jump_diffusion"):
        sim_out[model] = cli_op(
            f"simulate/{model}", "simulate",
            {"grid": grid, "model": MODELS[model], "paths": EX_SIM_PATHS, "seed": next(s)},
            lambda out: {f"csv{i}": csv_summary(out / f"path_{i:05d}.csv")
                         for i in range(EX_SIM_PATHS)},
            lambda obs, earlier: _exit_in(obs, {0}) + [
                p for i in range(EX_SIM_PATHS) for p in _rows_check(obs, EX_STEPS + 1, f"csv{i}")],
        )
        written += EX_SIM_PATHS * (EX_STEPS + 1)

    for command, path_index, extra in (("qv", 0, {}), ("fwdint", 1, {"integrand": "identity"})):
        src = sim_out["composite"] / f"path_{path_index:05d}.csv"

        def observe(out, command=command):
            return {"summary": _read_json(out / f"{command}_summary.json"),
                    "csv": csv_summary(out / f"{command}.csv")}

        def check(obs, earlier):
            problems = _exit_in(obs, {0, 3}) + _rows_check(obs, N_EPS_DEFAULT * (EX_STEPS + 1))
            if (obs["exit"] == 3) == obs["summary"]["converged"]:
                problems.append("exit code disagrees with the convergence flag")
            return problems

        cli_op(f"{command}/composite", command,
               {"grid": grid, "source": {"kind": "csv", "file": str(src)}, **extra},
               observe, check)
        read += EX_STEPS + 1
        written += N_EPS_DEFAULT * (EX_STEPS + 1)

    for model, steps in EX_DECOMPOSE_STEPS.items():
        def check(obs, earlier, steps=steps):
            problems = _exit_in(obs, {0, 3, 4}) + _rows_check(obs, steps + 1)
            recon = obs["reports"]["reconstruction_error"]
            if not recon <= 1e-12:
                problems.append(f"reconstruction error {recon:.3g} > 1e-12")
            return problems

        cli_op(f"decompose/{model}", "decompose",
               {"grid": {"horizon": 1.0, "steps": steps}, "model": MODELS[model], "seed": next(s)},
               lambda out: {"reports": _read_json(out / "identity_reports.json"),
                            "csv": csv_summary(out / "decomposition.csv")},
               check)
        written += steps + 1

    sweep_rows = N_EPS_DEFAULT * sum(n + 1 for n in EX_SWEEP)
    cli_op("sweep/composite", "sweep",
           {"grid": grid, "model": MODELS["composite"], "seed": next(s),
            "sweep": {"steps_list": EX_SWEEP}},
           lambda out: {"csv": csv_summary(out / "sweep.csv")},
           lambda obs, earlier: _exit_in(obs, {0}) + _rows_check(obs, sweep_rows))
    written += sweep_rows
    return Workload(ops, items=written + read, item="CSV row written or read")


# ---------------------------------------------------------------------------
# exponent_recovery: forward map, CSV and recovery of the criterion-8 triplets
# ---------------------------------------------------------------------------

EXP_U_MAX = 40.0
EXP_M = 2048
GAUSS_B, GAUSS_C, GAUSS_MASS, GAUSS_SD = 0.5, 1.0, 2.0, 0.25
ATOMS = ((0.5, 1.0), (-0.8, -0.5))


def _gauss_density(xs):
    return GAUSS_MASS * np.exp(-xs**2 / (2 * GAUSS_SD**2)) / (GAUSS_SD * np.sqrt(2 * np.pi))


def _recovered(dr, payload: dict, grid, w: float):
    """RecoveredTriplet rebuilt from the CLI's JSON, for the atom-mass query."""
    lam = np.asarray(payload["lambda_grid"], dtype=np.float64)
    admissible = grid.u[np.abs(grid.u) <= grid.u_max - abs(w)]
    return dr.levyexponent.RecoveredTriplet(
        b=payload["b"], c=payload["c"],
        lam=dr.GriddedDensity(lam[:, 0], lam[:, 1]),
        recovered_mask=np.ones(lam.shape[0], bool), residual_sup=payload["residual"],
        truncation=dr.standard_truncation(),
        diagnostics={"w": w, "u_window": (float(admissible[0]), float(admissible[-1]))},
    )


def exponent_recovery(dr, seed: int, work: Path) -> Workload:
    """The triplets are fixed (criterion 8); the seed does not change the inputs."""
    k = dr.standard_truncation()
    xs = dr.ExponentGrid.symmetric_grid(4.0, 4001)
    triplets = {
        "gauss": dr.Triplet1D(GAUSS_B, GAUSS_C, dr.GriddedDensity(xs, _gauss_density(xs)), k),
        "atoms": dr.Triplet1D(0.0, 0.0, dr.WeightedAtoms(
            np.array([a for a, _ in ATOMS]), np.array([w for _, w in ATOMS])), k),
    }
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, tri in triplets.items():
        fwd, csv_path = f"{name}/forward", work / f"{name}-psi.csv"
        ops.append(Op(fwd, lambda env, tri=tri: dr.ExponentGrid.from_triplet(tri, EXP_U_MAX, EXP_M),
                      lambda g, env: {"re": _samples(g.psi.real), "im": _samples(g.psi.imag)},
                      _finite))
        ops.append(Op(f"{name}/to_csv", lambda env, fwd=fwd, p=csv_path: env[fwd].to_csv(p),
                      lambda r, env, p=csv_path: {"csv": csv_summary(p)},
                      lambda obs, earlier: _rows_check(obs, EXP_M)))
        for w in (2.0, 3.0):
            out = work / f"{name}-recover-w{w:g}"
            cfg = _write_config(work / f"{out.name}.json", {
                "grid": {"horizon": 1.0, "steps": 1},
                "recover": {"psi_csv": str(csv_path), "w": w}})

            def observe(code, env, out=out, fwd=fwd, w=w, name=name):
                rec = _read_json(out / "recovered_triplet.json")
                lam = np.asarray(rec["lambda_grid"])
                obs = {"exit": code, "b": rec["b"], "c": rec["c"], "residual": rec["residual"],
                       "lambda_abs_sum": float(np.abs(lam[:, 1]).sum()),
                       "lambda": _samples(lam[:, 1]),
                       "unrecovered_cells": len(rec["unrecovered_cells"])}
                if name == "gauss":
                    xs_r, dens = lam[:, 0], lam[:, 1]
                    win = (np.abs(xs_r) >= 0.05) & (np.abs(xs_r) <= 1.5)
                    true = _gauss_density(xs_r)
                    obs["lambda_l1_rel"] = float(
                        np.trapezoid(np.abs(dens - true)[win], xs_r[win])
                        / np.trapezoid(np.abs(true)[win], xs_r[win]))
                else:
                    rt = _recovered(dr, rec, env[fwd], w)
                    obs["atom_masses"] = [dr.levyexponent.atom_mass(rt, x) for x, _ in ATOMS]
                return obs

            def check(obs, earlier, name=name, w=w):
                if name == "gauss" and w == 2.0:
                    limit, errors = 0.05, {"b": abs(obs["b"] - GAUSS_B) / GAUSS_B,
                                           "c": abs(obs["c"] - GAUSS_C) / GAUSS_C,
                                           "lambda L1": obs["lambda_l1_rel"]}
                elif name == "gauss":
                    c2 = earlier[f"{name}/recover_w2"]["c"]
                    limit, errors = 0.02, {"c across w": abs(obs["c"] - c2) / abs(c2)}
                elif w == 2.0:
                    limit, errors = 0.05, {f"atom mass at {x}": abs(got - mass) / abs(mass)
                                           for (x, mass), got in zip(ATOMS, obs["atom_masses"])}
                else:
                    limit, errors = 0.0, {}
                return _exit_in(obs, {0}) + [f"{k} error {v:.4f} >= {limit}"
                                             for k, v in errors.items() if not v < limit]

            ops.append(Op(f"{name}/recover_w{w:g}", _cli(dr, [
                "recover", "--config", cfg, "--out", str(out)]), observe, check))
    return Workload(ops, items=4, item="recovery, with its forward map")


WORKLOADS = {
    "mc_residual": mc_residual,
    "pathwise_identities": pathwise_identities,
    "cli_export": cli_export,
    "exponent_recovery": exponent_recovery,
}


# ---------------------------------------------------------------------------
# Reference comparison
# ---------------------------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(obs, ref, where: str = "") -> list[str]:
    """Exact for exit codes, verdicts, counts and strings; numbers within
    RTOL of the largest reference value of their leaf, plus ATOL."""
    if isinstance(ref, dict):
        if not isinstance(obs, dict) or set(obs) != set(ref):
            return [f"{where}: keys differ from the reference"]
        return [p for key in ref for p in compare(obs[key], ref[key], f"{where}.{key}")]
    if isinstance(ref, list) and ref and all(_is_number(x) for x in ref):
        if not isinstance(obs, list) or len(obs) != len(ref):
            return [f"{where}: length differs from the reference"]
        return _close(obs, ref, where)
    if isinstance(ref, list):
        if not isinstance(obs, list) or len(obs) != len(ref):
            return [f"{where}: length differs from the reference"]
        return [p for i, (o, r) in enumerate(zip(obs, ref)) for p in compare(o, r, f"{where}[{i}]")]
    if isinstance(ref, float):
        return _close([obs], [ref], where) if _is_number(obs) else [f"{where}: not a number"]
    return [] if obs == ref and type(obs) is type(ref) else [f"{where}: {obs!r} != reference {ref!r}"]


def _close(obs: list, ref: list, where: str) -> list[str]:
    finite = [abs(r) for r in ref if math.isfinite(r)]
    tol = RTOL * (max(finite) if finite else 0.0) + ATOL
    for i, (o, r) in enumerate(zip(obs, ref)):
        if not _is_number(o):
            return [f"{where}[{i}]: not a number"]
        same = o == r if not (math.isfinite(r) and math.isfinite(o)) else abs(o - r) <= tol
        if not same:
            return [f"{where}[{i}]: {o!r} differs from reference {r!r} (tol {tol:.3g})"]
    return []

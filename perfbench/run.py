"""Benchmark of dirichlet-reg: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of mc_residual, pathwise_identities, cli_export,
exponent_recovery, or ``all`` (the four in turn, in this one process).  Run
from anywhere; the program is imported from ``src/`` next to this directory.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of BENCHMARK.json.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a per-metric sample
count and the machine facts go to ``.perfbench_out/`` at the repository root.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import trace as tr  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, compare  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 3

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "simulate.simulate_path.calls": "count",
    "simulate.simulate_path.busy_s": "s",
    "simulate.simulate_path.paths_per_s": "1/s",
    "simulate.jumps_registered": "count",
    "residuals.residual_ensemble.calls": "count",
    "residuals.residual_ensemble.busy_s": "s",
    "residuals.residual_ensemble.self_s": "s",
    "residuals.martingale_mean_test.busy_s": "s",
    "residuals.paths": "count",
    "residuals.weak_dirichlet_residual.busy_s": "s",
    "residuals.semimartingale_residual.busy_s": "s",
    "characteristics.CharacteristicsModel.bk_values.calls": "count",
    "characteristics.CharacteristicsModel.bk_values.busy_s": "s",
    "characteristics.known_characteristics.busy_s": "s",
    "characteristics.decompose.busy_s": "s",
    "characteristics.drift_bracket_check.self_s": "s",
    "characteristics.continuous_bracket_check.self_s": "s",
    "regularize.covariation_limit.calls": "count",
    "regularize.covariation_limit.busy_s": "s",
    "regularize.forward_integral_limit.calls": "count",
    "regularize.forward_integral_limit.busy_s": "s",
    "regularize.qv_decompose.busy_s": "s",
    "regularize.node_eps": "count",
    "regularize.node_eps_per_s": "1/s",
    "regularize.nonconverged": "count",
    "paths.CadlagPath.to_csv.busy_s": "s",
    "paths.CadlagPath.from_csv.busy_s": "s",
    "paths.csv_rows": "count",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "cli.result_bytes": "bytes",
    "levyexponent.exponent_eval.calls": "count",
    "levyexponent.exponent_eval.busy_s": "s",
    "levyexponent.exponent_eval.u_samples": "count",
    "levyexponent.phi_w.busy_s": "s",
    "levyexponent.recover_triplet.busy_s": "s",
    "levyexponent.recover_triplet.self_s": "s",
    "levyexponent.ExponentGrid.to_csv.busy_s": "s",
    "levyexponent.ExponentGrid.from_csv.busy_s": "s",
    # traced wall minus untraced wall, both medians over this run's passes
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    # sum of top-level span durations, and the rest of the traced pass
    "trace.top_level_busy_s": "s",
    "trace.glue_s": "s",
}


class CannotRun(Exception):
    """No program source next to the benchmark, or no reference outputs."""


def fresh_import():
    """Imports dirichlet_reg (and its CLI) anew from SRC; returns the package."""
    for key in [k for k in sys.modules if k == tr.PACKAGE or k.startswith(tr.PACKAGE + ".")]:
        del sys.modules[key]
    dr = importlib.import_module(tr.PACKAGE)
    importlib.import_module(tr.PACKAGE + ".cli")
    if not Path(dr.__file__).resolve().is_relative_to(SRC):
        raise CannotRun(f"{tr.PACKAGE} was imported from {dr.__file__}, not {SRC}")
    return dr


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_pass(workload, tracer=None):
    """Runs every op once; returns (wall seconds, results by op name)."""
    env = {}
    clock = time.perf_counter
    t0 = clock()
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = i
        try:
            env[op.name] = op.call(env)
        except Exception as exc:  # an op that raises is a failed op
            env[op.name] = exc
    return clock() - t0, env


def check_pass(workload, env, reference) -> tuple[dict, list[str]]:
    """Observes and checks every op; returns (observations, one message per
    failed op)."""
    observed, failures = {}, []
    for op in workload.ops:
        result = env[op.name]
        if isinstance(result, Exception):
            failures.append(f"{op.name}: raised {type(result).__name__}: {result}")
            continue
        try:
            obs = op.observe(result, env)
            problems = op.check(obs, observed)
        except Exception:
            failures.append(f"{op.name}: observing failed\n{traceback.format_exc()}")
            continue
        observed[op.name] = obs
        if reference is not None:
            problems = problems + compare(obs, reference.get(op.name), op.name)
        if problems:
            failures.append(f"{op.name}: " + "; ".join(problems))
    return observed, failures


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 record: bool = False) -> dict:
    work = OUT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            dr = fresh_import()
            workload = WORKLOADS[name](dr, seed, work)
            setup.append(time.perf_counter() - t0)

        reference = None
        if seed == DEFAULT_SEED and not record:
            reference = json.loads(REFERENCE.read_text()).get(name)
            if reference is None:
                raise CannotRun(f"no reference outputs for {name} in {REFERENCE}")

        _, env = run_pass(workload)  # warm-up pass, checked like the others
        observed, failures = check_pass(workload, env, reference)
        attempted = len(workload.ops)
        if record:
            return {"observed": observed, "failures": failures}

        walls, traced_walls, tracers = [], [], []
        start = time.perf_counter()
        while (len(walls) < MIN_PASSES or (traced and len(tracers) < MIN_PASSES)
               or time.perf_counter() - start < seconds):
            tracer = None
            if traced and len(walls) > len(tracers):
                tracer = tr.Tracer()
                undo = tr.instrument(tracer)
            try:
                wall, env = run_pass(workload, tracer)
            finally:
                if tracer is not None:
                    tr.uninstrument(undo)
            (traced_walls if tracer else walls).append(wall)
            if tracer is not None:
                tracers.append(tracer)
            failures += check_pass(workload, env, reference)[1]
            attempted += len(workload.ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = _median(walls)
    samples = {"wall_s": len(walls), "items_per_s": len(walls), "setup_s": len(setup),
               "peak_rss_mb": 1}
    if not traced:
        metrics = {
            "wall_s": wall,
            "items_per_s": workload.items / wall,
            "setup_s": _median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        per_pass = [tr.layer_metrics(t, PER_LAYER) for t in tracers]
        metrics = {m: _median([p[m] for p in per_pass]) for m in PER_LAYER}
        top = [tr.top_level_busy(t.spans) for t in tracers]
        metrics["trace.wall_s"] = _median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        metrics["trace.top_level_busy_s"] = _median(top)
        metrics["trace.glue_s"] = _median([w - b for w, b in zip(traced_walls, top)])
        units = PER_LAYER
        samples = {m: len(tracers) for m in PER_LAYER}
        samples["trace.overhead_s"] = len(walls)
        tr.write_spans(OUT / f"{name}-seed{seed}.spans.jsonl", tracers)
    return {
        "workload": name,
        "seed": seed,
        "item": workload.item,
        "items_per_pass": workload.items,
        "attempted": attempted,
        "failed": len(failures),
        "ops_failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        "samples": samples,
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
        "setup_runs_s": setup,
    }


def record_reference(names) -> None:
    """Stores the default-seed observations as the reference outputs."""
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names:
        res = run_workload(name, DEFAULT_SEED, 0, False, record=True)
        if res["failures"]:
            raise SystemExit("invariants fail, reference not recorded:\n"
                             + "\n".join(res["failures"]))
        ref[name] = res["observed"]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store the default-seed outputs as the reference and exit")
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not (SRC / tr.PACKAGE / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.record_reference:
            record_reference(names)
            return 0
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except CannotRun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    facts = machine_facts()
    OUT.mkdir(parents=True, exist_ok=True)
    for res in results:
        res["machine"] = facts
        path = OUT / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        for msg in res["failures"]:
            print(f"FAIL {res['workload']} {msg}", file=sys.stderr)
        print(f"{res['workload']}: {res['attempted']} ops, ops_failed_frac "
              f"{res['ops_failed_frac']:.4g}; item = {res['item']} ({res['items_per_pass']}/pass)")
        for m, v in res["metrics"].items():
            print(f"  {m:<56} {v['value']:>14.6g} {v['unit']:<6} "
                  f"n={res['samples'][m]}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself (not collected by the package's suite).

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, trace, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "MC_PATHS": 16,
    "MC_STEPS": 64,
    "PW_STEPS": 1 << 12,
    "PW_EPS": (16, 8, 4, 2, 1),
    "EX_STEPS": 256,
    "EX_DECOMPOSE_STEPS": {"composite": 512, "jump_diffusion": 256},
    "EX_SWEEP": [64, 128],
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    return tmp_path


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_lists_the_metrics_the_benchmark_computes():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [0, 1])
def test_workload_runs_end_to_end_at_tiny_size(tiny, capsys, name, traced):
    code = run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                     "--trace", str(traced)])
    assert code == 0
    out = _last_json(capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    spec = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if not traced:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_residual",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_on_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a recursive a [2, 3]) and b [5, 6]
    spans = [
        [0, "root", 0.0, 10.0, None, 0],
        [1, "a", 1.0, 4.0, 0, 0],
        [2, "a", 2.0, 3.0, 1, 0],
        [3, "b", 5.0, 6.0, 0, 0],
        [4, "root", 11.0, 12.0, None, 1],
    ]
    stats = trace.span_stats(spans)
    assert stats["root"] == {"calls": 2, "busy_s": 11.0, "self_s": 10.0 - 3.0 - 1.0 + 1.0}
    # the inner a is inside the outer a: busy counts it once, self splits it
    assert stats["a"] == {"calls": 2, "busy_s": 3.0, "self_s": 2.0 + 1.0}
    assert stats["b"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert trace.top_level_busy(spans) == 11.0


def test_tracer_records_parents_and_ops_with_a_fake_clock():
    ticks = iter(range(100))
    tr = trace.Tracer(clock=lambda: float(next(ticks)))
    inner = lambda: tr.call("inner", lambda: 7, (), {})
    tr.op = 3
    assert tr.call("outer", inner, (), {}) == 7
    outer, inner_span = tr.spans
    assert outer[1:] == ["outer", 0.0, 3.0, None, 3]
    assert inner_span[1:] == ["inner", 1.0, 2.0, 0, 3]
    assert trace.span_stats(tr.spans)["outer"]["self_s"] == 2.0


def _results(dr):
    grid = dr.TimeGrid(1.0, 256)
    model = dr.LevyJumpDiffusion(0.3, 1.0, 2.0, dr.GaussianJumps(0.0, 0.3))
    k, F = dr.standard_truncation(), dr.exp_tanh()
    X = dr.simulate_path(model, grid, dr.SeedSpec(5, 0))
    sched = dr.EpsilonSchedule((8, 4, 2, 1))
    ens = dr.residual_ensemble(model, grid, k, F, 11, 64, batch_size=16)
    tri = dr.Triplet1D(0.5, 1.0, dr.WeightedAtoms(np.array([0.5]), np.array([1.0])), k)
    g = dr.ExponentGrid.from_triplet(tri, 40.0, 512)
    return [
        X.values,
        dr.covariation_limit(X, X, sched).trajectories,
        dr.drift_bracket_check(X, dr.decompose(X, model, k), model, k, sched).lhs,
        dr.weak_dirichlet_residual(X, model, k, F, sched).values,
        *ens.residual_at.values(),
        g.psi,
        dr.recover_triplet(g).lam.density,
    ]


def test_wrapping_and_unwrapping_leaves_results_bit_identical():
    dr = run.fresh_import()
    modules = trace.package_modules()
    before_attrs = {name: dict(vars(mod)) for name, mod in modules.items()}
    before = _results(dr)

    tracer = trace.Tracer()
    undo = trace.instrument(tracer)
    try:
        assert dr.simulate_path is not before_attrs[""]["simulate_path"]
        during = _results(dr)
    finally:
        trace.uninstrument(undo)
    after = _results(dr)

    names = {s[1] for s in tracer.spans}
    assert {"simulate.simulate_path", "residuals.residual_ensemble",
            "characteristics.CharacteristicsModel.bk_values",
            "levyexponent.ExponentGrid.from_triplet"} <= names
    for a, b, c in zip(before, during, after):
        assert a.tobytes() == b.tobytes() == c.tobytes()
    for name, mod in modules.items():
        assert all(vars(mod)[k] is v for k, v in before_attrs[name].items())
    assert "bk_values" in vars(dr.CharacteristicsModel)
    assert isinstance(vars(dr.CadlagPath)["from_csv"], classmethod)


def test_compare_accepts_rounding_and_rejects_wrong_results():
    ref = {"exit": 3, "pass": False, "z": [1.5, -0.25, 2.0], "sup": 0.0125,
           "csv": {"rows": 10, "columns": {"t": {"abs_sum": 5.5, "samples": [0.0, 1.0]}}}}
    rounded = json.loads(json.dumps(ref))
    rounded["z"] = [z * (1 + 1e-12) for z in ref["z"]]
    rounded["sup"] = ref["sup"] + 1e-15
    assert workloads.compare(rounded, ref) == []

    for key, value in [("exit", 0), ("pass", True), ("sup", 0.0126), ("z", [1.5, -0.25, 2.001])]:
        wrong = dict(ref, **{key: value})
        assert workloads.compare(wrong, ref), key
    wrong = json.loads(json.dumps(ref))
    wrong["csv"]["rows"] = 11
    assert workloads.compare(wrong, ref)


def test_seed_generates_the_inputs(tmp_path):
    dr = run.fresh_import()
    configs = {}
    for label, seed in (("a", 4), ("b", 4), ("c", 5)):
        workloads.cli_export(dr, seed, tmp_path / label)
        work = tmp_path / label
        configs[label] = sorted(f.read_text().replace(str(work), "")
                                for f in work.glob("*.json"))
    assert configs["a"] == configs["b"] != configs["c"]
    grid = dr.TimeGrid(1.0, 1 << 12)
    y1, _ = workloads.step_fixture(dr, grid, np.random.default_rng([7, 2]))
    y2, _ = workloads.step_fixture(dr, grid, np.random.default_rng([7, 2]))
    y3, _ = workloads.step_fixture(dr, grid, np.random.default_rng([8, 2]))
    assert np.array_equal(y1.jump_indices, y2.jump_indices)
    assert not np.array_equal(y1.jump_indices, y3.jump_indices)

"""Span tracing of dirichlet_reg from outside the package.

``instrument`` replaces every public function of the package's layer modules
at each name a caller binds (the defining module, the package namespace and
every module that did ``from .x import f``), plus a few public methods, with a
wrapper that records one span per call.  ``uninstrument`` puts the original
objects back.  Nothing under ``src/`` is edited: private kernels such as
``_qv_eps`` or ``_compensator_term`` are not wrapped and stay inside their
caller's self time.

A span is ``[id, name, start, end, parent_id, op_id]``; spans of one pass stay
in memory in their ``Tracer`` and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "dirichlet_reg"
LAYERS = ("cli", "paths", "simulate", "characteristics", "regularize",
          "residuals", "levyexponent")

# Public methods traced in addition to each layer's module-level functions.
METHODS = (
    ("characteristics", "CharacteristicsModel", "bk_values"),
    ("paths", "CadlagPath", "to_csv"),
    ("paths", "CadlagPath", "from_csv"),
    ("levyexponent", "ExponentGrid", "from_triplet"),
    ("levyexponent", "ExponentGrid", "to_csv"),
    ("levyexponent", "ExponentGrid", "from_csv"),
)


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, hook=None):
        sid = len(self.spans)
        rec = [sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[2] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = self.clock()
            self._stack.pop()
        if hook is not None:
            hook(self.counts, args, kwargs, result)
        return result


# ---------------------------------------------------------------------------
# Work counters, updated after a span ends (their cost is benchmark glue)
# ---------------------------------------------------------------------------

def _count_jumps(counts, args, kwargs, path):
    counts["simulate.jumps_registered"] += path.jump_indices.size


def _count_paths(counts, args, kwargs, ens):
    counts["residuals.paths"] += ens.n_paths


def _count_estimate(counts, args, kwargs, est):
    counts["regularize.node_eps"] += est.grid.n_nodes * est.eps_values.size
    counts["regularize.nonconverged"] += not est.converged


def _count_rows_written(counts, args, kwargs, result):
    counts["paths.csv_rows"] += args[0].grid.n_nodes


def _count_rows_read(counts, args, kwargs, path):
    counts["paths.csv_rows"] += path.grid.n_nodes


def _count_result_bytes(counts, args, kwargs, code):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        counts["cli.result_bytes"] += sum(
            f.stat().st_size for f in out.iterdir()
            if f.is_file() and f.name != "manifest.json"
        )


def _count_u(counts, args, kwargs, psi):
    counts["levyexponent.exponent_eval.u_samples"] += len(psi) if hasattr(psi, "__len__") else 1


HOOKS = {
    "simulate.simulate_path": _count_jumps,
    "residuals.residual_ensemble": _count_paths,
    "regularize.covariation_limit": _count_estimate,
    "regularize.forward_integral_limit": _count_estimate,
    "paths.CadlagPath.to_csv": _count_rows_written,
    "paths.CadlagPath.from_csv": _count_rows_read,
    "cli.main": _count_result_bytes,
    "levyexponent.exponent_eval": _count_u,
}


# ---------------------------------------------------------------------------
# Wrapping and unwrapping
# ---------------------------------------------------------------------------

def _wrap(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hook)

    return traced


def public_functions(modules: dict) -> list[tuple[str, object]]:
    """(span name, function) for every public function of each layer."""
    out = []
    for layer in LAYERS:
        mod = modules[layer]
        names = mod.__all__ if layer != "cli" else ("main",)  # cli has no __all__
        for attr in names:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{layer}.{attr}", obj))
    return out


def package_modules() -> dict:
    """Imported package modules by short name ('' for the package itself)."""
    mods = {}
    for key, mod in list(sys.modules.items()):
        if key == PACKAGE:
            mods[""] = mod
        elif key.startswith(PACKAGE + "."):
            mods[key[len(PACKAGE) + 1:]] = mod
    return mods


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wraps the package's public functions and METHODS; returns the undo list."""
    modules = package_modules()
    undo = []
    for name, fn in public_functions(modules):
        wrapped = _wrap(tracer, name, fn)
        for mod in modules.values():
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                setattr(mod, attr, wrapped)
                undo.append((mod, attr, fn))
    for layer, cls_name, attr in METHODS:
        cls = getattr(modules[layer], cls_name)
        raw = cls.__dict__[attr]
        name = f"{layer}.{cls_name}.{attr}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, name, raw.__func__))
        else:
            wrapped = _wrap(tracer, name, raw)
        setattr(cls, attr, wrapped)
        undo.append((cls, attr, raw))
    return undo


def uninstrument(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (inclusive, outermost spans of that name
    only, so recursion is not counted twice) and self_s (duration minus the
    time covered by child spans)."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for s in spans:
        st = stats[s[1]]
        dur = s[3] - s[2]
        st["calls"] += 1
        st["self_s"] += dur - _covered(children.get(s[0], ()), s[2], s[3])
        parent = s[4]
        while parent is not None and by_id[parent][1] != s[1]:
            parent = by_id[parent][4]
        if parent is None:
            st["busy_s"] += dur
    return stats


def top_level_busy(spans) -> float:
    return sum(s[3] - s[2] for s in spans if s[4] is None)


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """Values of the named per-layer metrics for one traced pass.

    ``<layer>.<function>.{calls,busy_s,self_s}`` come from the spans; work
    counts come from the counters; two rates are derived from both.
    """
    stats = span_stats(tracer.spans)
    counts = tracer.counts
    out = {}
    for name in names:
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "busy_s", "self_s") and base in stats:
            out[name] = float(stats[base][stat])
        elif name == "simulate.simulate_path.paths_per_s":
            st = stats.get("simulate.simulate_path")
            out[name] = st["calls"] / st["busy_s"] if st and st["busy_s"] else 0.0
        elif name == "regularize.node_eps_per_s":
            busy = sum(stats[s]["busy_s"] for s in (
                "regularize.covariation_limit", "regularize.forward_integral_limit")
                if s in stats)
            out[name] = counts["regularize.node_eps"] / busy if busy else 0.0
        else:
            out[name] = float(counts.get(name, 0.0))
    return out


def write_spans(path: Path, tracers) -> None:
    """One JSON array per line: [pass, id, name, start, end, parent, op]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for i, tr in enumerate(tracers):
            for s in tr.spans:
                fh.write(json.dumps([i, *s]) + "\n")

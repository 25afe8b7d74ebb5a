"""Cadlag trajectories sampled on a uniform grid, with explicit jump bookkeeping.

The storage convention is right-continuous: ``values[i]`` is the value at
``t_i`` *including* any jump registered at ``t_i``.  Left limits are derived
from the jump registry, never stored.  Jumps live exactly on grid nodes, with
indices in ``(0, n_steps]``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GridAlignmentError",
    "GridMismatchError",
    "TimeGrid",
    "CadlagPath",
    "PathBatch",
    "JumpMeasure",
    "extract_jumps",
    "star_integral",
    "combine",
    "constant_path",
    "path_from_function",
]


class GridAlignmentError(ValueError):
    """A time does not sit on a grid node (within dt/2)."""


class GridMismatchError(ValueError):
    """Two paths do not share the same grid."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = T with t_i = i * dt."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"horizon must be positive, got T={self.T}")
        if self.n_steps < 1:
            raise ValueError(f"need at least one step, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_nodes)

    def index_of(self, t: float) -> int:
        """Nearest-node index of ``t``; raises if off-grid by more than dt/2."""
        if t < -0.5 * self.dt or t > self.T + 0.5 * self.dt:
            raise GridAlignmentError(f"time {t} outside [0, {self.T}]")
        i = int(round(t / self.dt))
        i = min(max(i, 0), self.n_steps)
        if abs(t - i * self.dt) > 0.5 * self.dt * (1 + 1e-9):
            raise GridAlignmentError(
                f"time {t} is not aligned to the grid (dt={self.dt})"
            )
        return i


def _as_jump_arrays(jumps) -> tuple[np.ndarray, np.ndarray]:
    if jumps is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if isinstance(jumps, dict):
        items = sorted(jumps.items())
        idx = np.array([i for i, _ in items], dtype=np.int64)
        sz = np.array([s for _, s in items], dtype=np.float64)
        return idx, sz
    jumps = list(jumps)
    idx = np.array([i for i, _ in jumps], dtype=np.int64)
    sz = np.array([s for _, s in jumps], dtype=np.float64)
    return idx, sz


@dataclass(frozen=True)
class CadlagPath:
    """Sampled cadlag trajectory with an explicit jump registry.

    ``jump_indices`` are strictly increasing node indices in ``(0, n_steps]``;
    ``jump_sizes[j]`` is ``X_{t_i} - X_{t_i-}`` at ``i = jump_indices[j]`` and
    must be nonzero.
    """

    grid: TimeGrid
    values: np.ndarray
    jump_indices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    jump_sizes: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    components: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"values must have shape ({self.grid.n_nodes},), got {values.shape}"
            )
        idx = np.asarray(self.jump_indices, dtype=np.int64)
        sz = np.asarray(self.jump_sizes, dtype=np.float64)
        if idx.shape != sz.shape:
            raise ValueError("jump indices and sizes must have equal length")
        if idx.size:
            if np.any(np.diff(idx) <= 0):
                raise ValueError("jump indices must be strictly increasing")
            if idx[0] < 1 or idx[-1] > self.grid.n_steps:
                raise ValueError("jump indices must lie in (0, n_steps]")
            if np.any(sz == 0.0):
                raise ValueError("registered jump sizes must be nonzero")
        for name, arr in (("values", values), ("jump_indices", idx), ("jump_sizes", sz)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_jumps(cls, grid: TimeGrid, values, jumps) -> "CadlagPath":
        idx, sz = _as_jump_arrays(jumps)
        keep = sz != 0.0
        return cls(grid, np.asarray(values, np.float64), idx[keep], sz[keep])

    @classmethod
    def from_node_jumps(cls, grid: TimeGrid, values, node_jumps,
                        components: dict | None = None) -> "CadlagPath":
        """Path whose registry holds the nonzero entries of ``node_jumps``, the
        jump at every node (zero where there is none)."""
        idx = np.flatnonzero(node_jumps)
        return cls(grid, values, idx, node_jumps[idx], components)

    def jump_at_index(self, i: int) -> float:
        pos = np.searchsorted(self.jump_indices, i)
        if pos < self.jump_indices.size and self.jump_indices[pos] == i:
            return float(self.jump_sizes[pos])
        return 0.0

    def node_jumps(self) -> np.ndarray:
        """The jump at every node, zero where there is none."""
        out = np.zeros(self.grid.n_nodes)
        out[self.jump_indices] = self.jump_sizes
        return out

    def left_values(self) -> np.ndarray:
        """Left limits X_{t_i-} at every node (X_{0-} := X_0)."""
        return self.values - self.node_jumps()

    def eval(self, t: float, side: str = "right") -> float:
        """Value at grid time ``t``; ``side='left'`` gives the left limit."""
        i = self.grid.index_of(t)
        if side == "right":
            return float(self.values[i])
        if side == "left":
            if i == 0:
                return float(self.values[0])
            return float(self.values[i] - self.jump_at_index(i))
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def jump_times(self) -> np.ndarray:
        return self.jump_indices * self.grid.dt

    def squared_jump_trajectory(self) -> np.ndarray:
        """Cumulative sum of squared jumps, evaluated at every node."""
        return np.cumsum(self.node_jumps() ** 2)

    def map(self, f: Callable[[np.ndarray], np.ndarray]) -> "CadlagPath":
        """Image path f(X) with the induced jump registry (zero jumps dropped)."""
        new_values = np.asarray(f(self.values), dtype=np.float64)
        if self.jump_indices.size:
            left = self.values[self.jump_indices] - self.jump_sizes
            new_sizes = new_values[self.jump_indices] - np.asarray(f(left), np.float64)
            keep = new_sizes != 0.0
            return CadlagPath(
                self.grid, new_values, self.jump_indices[keep], new_sizes[keep]
            )
        return CadlagPath(self.grid, new_values)

    def to_csv(self, path) -> None:
        """Write ``t,value,jump`` rows (exact round trip, see ``_write_csv``)."""
        _write_csv(path, ["t", "value", "jump"],
                   self.grid.times(), self.values, self.node_jumps())

    @classmethod
    def from_csv(cls, path) -> "CadlagPath":
        """Read ``t,value,jump`` rows; the times must form a uniform grid."""
        times, values, jumps = _read_csv(path, ["t", "value", "jump"])
        n = len(times) - 1
        grid = TimeGrid(T=float(times[-1]), n_steps=n)
        if not np.max(np.abs(times - grid.times())) <= 1e-9 * grid.dt:
            raise ValueError(f"times in {path} are not the uniform {n}-step grid on [0, {grid.T}]")
        return cls.from_node_jumps(grid, values, jumps)


@dataclass(frozen=True)
class PathBatch:
    """``B`` sampled cadlag paths on one grid as ``(B, n+1)`` rows.

    ``values[j]`` holds path j's right values and ``jumps[j, i]`` its jump at
    node i, zero where it has none.  ``components`` maps each component name
    to its own batch.  Rows that carry no data may be read-only broadcast views.
    """

    grid: TimeGrid
    values: np.ndarray
    jumps: np.ndarray
    components: dict | None = None

    def left_values(self) -> np.ndarray:
        """Left limits at every node, one row per path."""
        return self.values - self.jumps

    def path(self, j: int) -> CadlagPath:
        """Row j as a ``CadlagPath``, with its components."""
        parts = None if self.components is None else {
            name: part.path(j) for name, part in self.components.items()
        }
        return CadlagPath.from_node_jumps(self.grid, self.values[j], self.jumps[j], parts)


def _write_csv(path, header: Sequence[str], *columns) -> None:
    """Write equal-length numeric columns as CSV rows under ``header``, every
    number with 17 significant digits (exact float64 round trip).  Rows are
    formatted block by block, so memory does not grow with the file."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(0, columns[0].size, 4096):
            block = zip(*(c[i:i + 4096].tolist() for c in columns))
            w.writerows([f"{x:.17g}" for x in row] for row in block)


def _read_csv(path, header: Sequence[str]) -> np.ndarray:
    """The ``header`` columns of a CSV file as the contiguous rows of a float
    array; a first row starting with ``header[0]`` is the header and is skipped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows and rows[0][:1] == [header[0]]:
        rows = rows[1:]
    return np.array([[float(x) for x in r[: len(header)]] for r in rows]).T.copy()


@dataclass(frozen=True)
class JumpMeasure:
    """Atoms (s, dx) of the jump measure of one path, in time order."""

    times: np.ndarray
    sizes: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return int(self.times.size)


def extract_jumps(path: CadlagPath) -> JumpMeasure:
    """Jump measure atoms (time, size) registered on the path."""
    return JumpMeasure(
        times=path.jump_times(),
        sizes=np.array(path.jump_sizes),
        indices=np.array(path.jump_indices),
    )


def star_integral(
    h: Callable[[float, float, float], float],
    mu: JumpMeasure,
    left_values: Sequence[float],
    t: float,
) -> float:
    """Sum of h(s, dx, X_{s-}) over atoms with s <= t.

    With ``h(s, x, xl) = g(xl) * phi(s, x)`` this realizes integrals of
    left-limit processes against the jump measure.
    """
    left_values = np.asarray(left_values, dtype=np.float64)
    if left_values.shape != mu.times.shape:
        raise ValueError("left_values must align with the atoms")
    total = 0.0
    for s, x, xl in zip(mu.times, mu.sizes, left_values):
        if s <= t:
            total += h(s, x, xl)
    return total


def combine(a: float, X: CadlagPath, b: float, Y: CadlagPath) -> CadlagPath:
    """Linear combination a*X + b*Y; cancelled (zero) jumps are dropped."""
    if X.grid != Y.grid:
        raise GridMismatchError("paths live on different grids")
    return CadlagPath.from_node_jumps(
        X.grid, a * X.values + b * Y.values, a * X.node_jumps() + b * Y.node_jumps()
    )


def constant_path(grid: TimeGrid, value: float) -> CadlagPath:
    return CadlagPath(grid, np.full(grid.n_nodes, float(value)))


def path_from_function(grid: TimeGrid, f: Callable[[np.ndarray], np.ndarray]) -> CadlagPath:
    """Continuous path sampled as f(t_i), empty jump registry."""
    return CadlagPath(grid, np.asarray(f(grid.times()), dtype=np.float64))

"""Cadlag trajectories sampled on a uniform grid, with the jump at every node.

The storage convention is right-continuous: ``values[i]`` is the value at
``t_i`` *including* the jump ``jumps[i]`` at ``t_i``, so left limits are
``values - jumps``.  Jumps live exactly on grid nodes, never at node 0.
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


@dataclass(frozen=True)
class CadlagPath:
    """Sampled cadlag trajectory with its jump at every node.

    ``jumps[i]`` is ``X_{t_i} - X_{t_i-}``, +0.0 (never -0.0) where the path
    does not jump and always at node 0.  Without ``jumps`` the path is
    continuous, and ``jumps`` is a read-only zero-stride view (no row is
    allocated).
    """

    grid: TimeGrid
    values: np.ndarray
    jumps: np.ndarray | None = None
    components: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        shape = (self.grid.n_nodes,)
        values = np.asarray(self.values, dtype=np.float64)
        jumps = (np.broadcast_to(np.float64(0.0), shape) if self.jumps is None
                 else np.asarray(self.jumps, dtype=np.float64))
        for name, arr in (("values", values), ("jumps", jumps)):
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_jumps(cls, grid: TimeGrid, values, jumps) -> "CadlagPath":
        """Path with the jump registry ``jumps``: an ``{index: size}`` mapping or
        (index, size) pairs, indices strictly increasing in ``(0, n_steps]``.
        A zero size is no jump."""
        pairs = sorted(jumps.items()) if isinstance(jumps, dict) else list(jumps or ())
        idx = np.array([i for i, _ in pairs], dtype=np.int64)
        sizes = np.array([s for _, s in pairs], dtype=np.float64)
        if np.any(np.diff(idx) <= 0):
            raise ValueError("jump indices must be strictly increasing")
        if idx.size and (idx[0] < 1 or idx[-1] > grid.n_steps):
            raise ValueError("jump indices must lie in (0, n_steps]")
        keep = sizes != 0.0
        node_jumps = np.zeros(grid.n_nodes)
        node_jumps[idx[keep]] = sizes[keep]
        return cls(grid, values, node_jumps)

    @property
    def jump_indices(self) -> np.ndarray:
        """Nodes where the path jumps, in increasing order."""
        return np.flatnonzero(self.jumps)

    @property
    def jump_sizes(self) -> np.ndarray:
        """The jumps at ``jump_indices``."""
        return self.jumps[self.jump_indices]

    def left_values(self) -> np.ndarray:
        """Left limits X_{t_i-} at every node (X_{0-} := X_0)."""
        return self.values - self.jumps

    def eval(self, t: float, side: str = "right") -> float:
        """Value at grid time ``t``; ``side='left'`` gives the left limit."""
        i = self.grid.index_of(t)
        if side == "right":
            return float(self.values[i])
        if side == "left":
            return float(self.values[i] - self.jumps[i])
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def jump_times(self) -> np.ndarray:
        return self.jump_indices * self.grid.dt

    def squared_jump_trajectory(self) -> np.ndarray:
        """Cumulative sum of squared jumps, evaluated at every node."""
        return np.cumsum(self.jumps ** 2)

    def map(self, f: Callable[[np.ndarray], np.ndarray]) -> "CadlagPath":
        """Image path f(X) with the induced jumps (zero where f(X) does not jump)."""
        new_values = np.asarray(f(self.values), dtype=np.float64)
        idx = self.jump_indices
        if not idx.size:
            return CadlagPath(self.grid, new_values)
        left = np.asarray(f(self.values[idx] - self.jumps[idx]), np.float64)
        jumps = np.zeros(self.grid.n_nodes)
        jumps[idx] = new_values[idx] - left + 0.0  # + 0.0 turns -0.0 into 0.0
        return CadlagPath(self.grid, new_values, jumps)

    def to_csv(self, path) -> None:
        """Write ``t,value,jump`` rows (exact round trip, see ``_write_csv``)."""
        _write_csv(path, ["t", "value", "jump"], self.grid.times(), self.values, self.jumps)

    @classmethod
    def from_csv(cls, path) -> "CadlagPath":
        """Read ``t,value,jump`` rows; the times must form a uniform grid."""
        times, values, jumps = _read_csv(path, ["t", "value", "jump"])
        n = len(times) - 1
        grid = TimeGrid(T=float(times[-1]), n_steps=n)
        if not np.max(np.abs(times - grid.times())) <= 1e-9 * grid.dt:
            raise ValueError(f"times in {path} are not the uniform {n}-step grid on [0, {grid.T}]")
        if jumps[0] != 0.0:
            raise ValueError("jump indices must lie in (0, n_steps]")
        jumps += 0.0  # a "-0" jump is no jump
        return cls(grid, values, jumps)


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
        return CadlagPath(self.grid, self.values[j], self.jumps[j], parts)


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
    """Jump measure atoms (time, size) of the path."""
    idx = path.jump_indices
    return JumpMeasure(times=idx * path.grid.dt, sizes=path.jumps[idx], indices=idx)


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
    """Linear combination a*X + b*Y; a cancelled jump is no jump."""
    if X.grid != Y.grid:
        raise GridMismatchError("paths live on different grids")
    jumps = a * X.jumps + b * Y.jumps
    jumps += 0.0  # -0.0 (from -1 * 0.0) is no jump
    return CadlagPath(X.grid, a * X.values + b * Y.values, jumps)


def constant_path(grid: TimeGrid, value: float) -> CadlagPath:
    return CadlagPath(grid, np.full(grid.n_nodes, float(value)))


def path_from_function(grid: TimeGrid, f: Callable[[np.ndarray], np.ndarray]) -> CadlagPath:
    """Continuous path sampled as f(t_i)."""
    return CadlagPath(grid, np.asarray(f(grid.times()), dtype=np.float64))

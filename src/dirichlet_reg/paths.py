"""Cadlag trajectories sampled on a uniform grid, with the jump at every node,
one path at a time or as a stack of paths on one grid.

The storage convention is right-continuous: ``values[i]`` is the value at
``t_i`` *including* the jump ``jumps[i]`` at ``t_i``, so left limits are
``values - jumps``.  Jumps live exactly on grid nodes, never at node 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GridAlignmentError",
    "GridMismatchError",
    "TimeGrid",
    "CadlagPath",
    "star_integral",
    "combine",
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
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"horizon must be positive and finite, got T={self.T}")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ValueError(f"n_steps must be an integer of at least 1, got {self.n_steps!r}")

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


def _no_jumps(shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of ``shape`` as a read-only zero-stride array, built directly:
    np.broadcast_to costs more than the rest of the set-up of a short path."""
    zeros = np.ndarray(shape, np.float64, np.zeros(1), 0, (0,) * len(shape))
    zeros.flags.writeable = False
    return zeros


@dataclass(frozen=True)
class CadlagPath:
    """Sampled cadlag trajectory with its jump at every node: one path as
    ``(n+1,)`` arrays, or a stack of B paths on one grid as ``(B, n+1)`` rows.

    ``jumps[..., i]`` is ``X_{t_i} - X_{t_i-}``, +0.0 (never -0.0) where the
    path does not jump and always at node 0.  Without ``jumps`` the path is
    continuous, and ``jumps`` is a read-only zero-stride view (no row is
    allocated).  ``components`` maps each model component's name to its own
    path, or stack, as the simulators attach them.
    """

    grid: TimeGrid
    values: np.ndarray
    jumps: np.ndarray | None = None
    components: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        jumps = (_no_jumps(values.shape) if self.jumps is None
                 else np.asarray(self.jumps, dtype=np.float64))
        n = self.grid.n_nodes
        if values.ndim not in (1, 2) or values.shape[-1] != n or jumps.shape != values.shape:
            raise ValueError(f"values and jumps must have one shape, ({n},) or (B, {n}); "
                             f"got {values.shape} and {jumps.shape}")
        for name, arr in (("values", values), ("jumps", jumps)):
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
        """Nodes where the path jumps, in increasing order; one path only, as
        the flat indices of a stack would name no node."""
        if self.jumps.ndim != 1:
            raise ValueError("jump_indices needs one path; take path(j) of a stack")
        return np.flatnonzero(self.jumps)

    @property
    def jump_sizes(self) -> np.ndarray:
        """The jumps at ``jump_indices``."""
        return self.jumps[self.jump_indices]

    def left_values(self) -> np.ndarray:
        """Left limits X_{t_i-} at every node (X_{0-} := X_0)."""
        return self.values - self.jumps

    def path(self, j: int) -> "CadlagPath":
        """Path j of a stack, with its components."""
        parts = None if self.components is None else {
            name: part.path(j) for name, part in self.components.items()
        }
        return CadlagPath(self.grid, self.values[j], self.jumps[j], parts)

    def eval(self, t: float, side: str = "right") -> float:
        """Value at grid time ``t``; ``side='left'`` gives the left limit."""
        i = self.grid.index_of(t)
        if side == "right":
            return float(self.values[i])
        if side == "left":
            return float(self.values[i] - self.jumps[i])
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

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
        """Read ``t,value,jump`` rows; the times must form a uniform grid and
        the values and jumps be finite."""
        table = _read_csv(path, ["t", "value", "jump"])
        if not np.isfinite(table[1:]).all():
            raise ValueError(f"{path} holds a non-finite value or jump")
        times, values, jumps = table
        n = len(times) - 1
        grid = TimeGrid(T=float(times[-1]), n_steps=n)
        if not np.max(np.abs(times - grid.times())) <= 1e-9 * grid.dt:
            raise ValueError(f"times in {path} are not the uniform {n}-step grid on [0, {grid.T}]")
        if jumps[0] != 0.0:
            raise ValueError("jump indices must lie in (0, n_steps]")
        jumps += 0.0  # a "-0" jump is no jump
        return cls(grid, values, jumps)


def _format(values) -> np.ndarray:
    """The ``%.17g`` text of each number, as an object array of ``str``."""
    values = np.asarray(values, dtype=np.float64)
    text = ("%.17g," * values.size % tuple(values.tolist())).split(",")[:-1]
    return np.array(text, dtype=object)


def _write_csv(path, header: Sequence[str], *columns) -> None:
    """Write equal-length columns under ``header``, ``%.17g`` (exact) per number.

    A column is float64 numbers or the ``_format`` text of numbers; a number
    that repeats is formatted once.  Per block of 4096 rows, a float column
    that holds one bit pattern (-0.0 and +0.0, and nan payloads, differ) is a
    literal of the row template and a text column is copied with ``%s``.
    """
    columns = [c if c.dtype == object else c.astype(np.float64, copy=False)
               for c in map(np.asarray, columns)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(columns[0]), 4096):
            cells, args = [], []
            for block in (c[i:i + 4096] for c in columns):
                if block.dtype == object:
                    cells.append("%s")
                    args.append(block)
                elif not np.any((bits := block.view(np.uint64)) != bits[0]):
                    cells.append("%.17g" % block[0])
                else:
                    cells.append("%.17g")
                    args.append(block)
            # a text column makes the stacked table an object array
            flat = np.column_stack(args).ravel().tolist() if args else []
            fh.write((",".join(cells) + "\r\n") * len(block) % tuple(flat))


def _read_csv(path, header: Sequence[str]) -> np.ndarray:
    """The ``header`` columns of a CSV file as the contiguous rows of a float
    array; a first row whose first cell is ``header[0]`` is the header."""
    with open(path, newline="") as fh:
        skip = int(fh.readline().split(",", 1)[0].strip('"\r\n') == header[0])
        fh.seek(0)
        if not any(line.rstrip("\r\n") for line in itertools.islice(fh, skip, None)):
            raise ValueError(f"{path} holds no data rows")
    return np.loadtxt(path, delimiter=",", comments=None, skiprows=skip,
                      usecols=range(len(header)), ndmin=2, quotechar='"').T.copy()


def star_integral(
    h: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    X: CadlagPath,
    t: float,
) -> float:
    """(h * mu)_t: the sum of h(s, dx, X_{s-}) over the atoms (s, dx) of the
    jump measure mu of X at the nodes up to ``X.grid.index_of(t)``, as ``eval``.

    ``h`` is called once, on the arrays of jump times, sizes and left limits,
    and its values are summed in time order.  With ``h(s, x, xl) = g(xl) *
    phi(s, x)`` this realizes integrals of left-limit processes against mu.
    """
    idx = X.jump_indices
    idx = idx[idx <= X.grid.index_of(t)]
    if not idx.size:
        return 0.0
    x = X.jumps[idx]
    s = idx * X.grid.dt
    v = np.broadcast_to(np.asarray(h(s, x, X.values[idx] - x), dtype=np.float64), s.shape)
    # cumsum adds in time order, as a running total does (np.sum pairs terms
    # and differs in the last bits); + 0.0 turns a -0.0 total into 0.0
    return float(np.cumsum(v)[-1] + 0.0)


def _check_grids(X: CadlagPath, Y: CadlagPath) -> None:
    if X.grid != Y.grid:
        raise GridMismatchError("paths live on different grids")


def combine(a: float, X: CadlagPath, b: float, Y: CadlagPath) -> CadlagPath:
    """Linear combination a*X + b*Y; a cancelled jump is no jump."""
    _check_grids(X, Y)
    jumps = a * X.jumps + b * Y.jumps
    jumps += 0.0  # -0.0 (from -1 * 0.0) is no jump
    return CadlagPath(X.grid, a * X.values + b * Y.values, jumps)

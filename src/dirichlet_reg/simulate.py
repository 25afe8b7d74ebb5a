"""Seeded path generators for the model families used throughout the toolkit.

Reproducibility contract: path ``i`` of an ensemble is a pure function of
``(master_seed, i)`` via counter-based Philox substreams, independent of
evaluation order or batching.  Within a path, component ``j`` draws from the
substream ``jumped(j)``, so multi-component models have independent parts.
``simulate_batch`` fills ``(B, n+1)`` rows; ``simulate_path`` is its batch of one.
A batch builds one Philox bit generator and sets its state at the start of
each (path, component) substream, which draws the same numbers as a generator
built for that substream (``SeedSpec.bit_generator``, the reference).
Fractional noise builds the circulant eigenvalues of its (n, H) once per
batch and runs one inverse FFT per block of rows, with the bits of one FFT per
path.

Jump times are snapped to the nearest grid node (collisions merged by summing
sizes), which keeps left limits exact and estimators deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

from .paths import CadlagPath, TimeGrid

__all__ = [
    "DiscreteAtoms",
    "GaussianJumps",
    "UniformJumps",
    "JumpLaw",
    "BrownianMotion",
    "FractionalBrownianMotion",
    "CompoundPoisson",
    "LevyJumpDiffusion",
    "DeterministicDrift",
    "Composite",
    "ModelSpec",
    "SeedSpec",
    "law_expectation",
    "simulate_batch",
    "simulate_path",
]

_QUAD_NODES = 40
_MAX_FBM_STEPS = 1 << 23
# the largest Poisson mean numpy's Generator.poisson draws (its POISSON_LAM_MAX)
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10
# Complex nodes per inverse FFT of fractional noise: a block of
# _FFT_NODES // (2n) rows keeps each complex temporary near 512 kB, whatever
# the batch size.
_FFT_NODES = 1 << 15


# ---------------------------------------------------------------------------
# Jump size laws
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_rule(rule: Callable) -> tuple[np.ndarray, np.ndarray]:
    """``rule(_QUAD_NODES)``, built on first use, once per process; read-only."""
    x, w = rule(_QUAD_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _check_parameter(name: str, value: float, nonnegative: bool = True,
                     squared: bool = False) -> None:
    """A model or law parameter is a finite float, nonnegative unless told
    otherwise.  ``squared`` marks a diffusion coefficient, whose square (the
    rate of the continuous bracket) must be a finite float too."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if nonnegative and value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    if squared and not math.isfinite(value * value):
        raise ValueError(f"{name} = {value!r} has a square beyond the float range")


@dataclass(frozen=True)
class DiscreteAtoms:
    values: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        v = tuple(float(x) for x in self.values)
        p = tuple(float(x) for x in self.probabilities)
        if len(v) != len(p) or not v:
            raise ValueError("values and probabilities must align and be nonempty")
        for x, w in zip(v, p):
            _check_parameter("values", x, nonnegative=False)
            _check_parameter("probabilities", w)
        if abs(sum(p) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probabilities", p)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(np.array(self.values), p=np.array(self.probabilities), size=size)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.values), np.array(self.probabilities)


@dataclass(frozen=True)
class GaussianJumps:
    mean: float
    sd: float

    def __post_init__(self):
        _check_parameter("mean", self.mean, nonnegative=False)
        _check_parameter("sd", self.sd)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mean, self.sd, size)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        # Gauss-Hermite, fixed node count recorded in reports
        x, w = _gauss_rule(np.polynomial.hermite.hermgauss)
        return self.mean + np.sqrt(2.0) * self.sd * x, w / np.sqrt(np.pi)


@dataclass(frozen=True)
class UniformJumps:
    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("need a < b")
        if not math.isfinite(self.b - self.a):
            raise ValueError(f"width b - a of ({self.a!r}, {self.b!r}) is beyond the float range")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.a, self.b, size)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        # Gauss-Legendre mapped to (a, b)
        x, w = _gauss_rule(np.polynomial.legendre.leggauss)
        mid, half = 0.5 * (self.a + self.b), 0.5 * (self.b - self.a)
        return mid + half * x, w / 2.0


JumpLaw = Union[DiscreteAtoms, GaussianJumps, UniformJumps]


def law_expectation(law: JumpLaw, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Expectation of f under the jump law, by the law's fixed quadrature."""
    x, w = law.quadrature()
    return float(np.dot(w, np.asarray(f(x), dtype=np.float64)))


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrownianMotion:
    sigma: float = 1.0

    def __post_init__(self):
        _check_parameter("sigma", self.sigma, squared=True)


@dataclass(frozen=True)
class FractionalBrownianMotion:
    hurst: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0.5 < self.hurst < 1.0):
            raise ValueError(f"hurst must lie in (0.5, 1), got {self.hurst}")
        _check_parameter("scale", self.scale, squared=True)


@dataclass(frozen=True)
class CompoundPoisson:
    rate: float
    law: JumpLaw

    def __post_init__(self):
        _check_parameter("rate", self.rate)


@dataclass(frozen=True)
class LevyJumpDiffusion:
    """Jump diffusion with drift declared relative to the chosen truncation.

    ``drift`` is the slope of the drift characteristic under the truncation
    the model is analysed with; converting to another truncation shifts it by
    rate * E[k'(J) - k(J)] (see characteristics.convert_truncation).
    """

    drift: float
    sigma: float
    rate: float
    law: JumpLaw

    def __post_init__(self):
        _check_parameter("drift", self.drift, nonnegative=False)
        _check_parameter("sigma", self.sigma, squared=True)
        _check_parameter("rate", self.rate)


@dataclass(frozen=True)
class DeterministicDrift:
    f: Callable[[np.ndarray], np.ndarray]


# the leaf model kinds, each with the base name of its component path
_LEAF_NAMES = {BrownianMotion: "bm", FractionalBrownianMotion: "fbm", CompoundPoisson: "cp",
               DeterministicDrift: "drift"}


@dataclass(frozen=True)
class Composite:
    """Sum of independent leaf components (no nesting)."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("composite needs at least one component")
        for c in comps:
            if type(c) not in _LEAF_NAMES:
                raise ValueError(f"composite components must be leaf models, got {type(c).__name__}")
        object.__setattr__(self, "components", comps)


ModelSpec = Union[
    BrownianMotion,
    FractionalBrownianMotion,
    CompoundPoisson,
    LevyJumpDiffusion,
    DeterministicDrift,
    Composite,
]


def _substream_words(master_seed: int, path_index: int,
                     component: int) -> tuple[np.ndarray, np.ndarray]:
    """Philox key and counter at the start of substream ``component`` of path
    ``path_index``: the key holds both seed words mod 2**64, and the component
    sits in counter word 2 (the ``jumped(component)`` stream of that key).

    uint64 arrays: a list mixing words above and below 2**63 would go through
    float64 and lose the low bits of the large word.
    """
    key = np.array([master_seed & (2**64 - 1), path_index & (2**64 - 1)], dtype=np.uint64)
    return key, np.array([0, 0, component, 0], dtype=np.uint64)


@dataclass(frozen=True)
class SeedSpec:
    master_seed: int
    path_index: int = 0

    def bit_generator(self, component: int = 0) -> np.random.BitGenerator:
        key, counter = _substream_words(self.master_seed, self.path_index, component)
        return np.random.Philox(key=key, counter=counter)

    def generator(self, component: int = 0) -> np.random.Generator:
        return np.random.Generator(self.bit_generator(component))


# ---------------------------------------------------------------------------
# Generators: each draws one component into zeroed (B, n+1) rows, row j from
# the j-th generator of ``rngs``
# ---------------------------------------------------------------------------

def _brownian_values(grid: TimeGrid, sigma: float, rngs: Iterator[np.random.Generator],
                     out: np.ndarray) -> None:
    if sigma > 0:
        inc = out[:, 1:]
        for row, rng in zip(inc, rngs):
            rng.standard_normal(out=row)
        inc *= sigma * np.sqrt(grid.dt)
        np.cumsum(inc, axis=-1, out=inc)


def _circulant_root(n: int, hurst: float) -> np.ndarray:
    """Square roots of the circulant-embedding eigenvalues of unit-variance
    fractional Gaussian noise over ``n`` steps, as a read-only (2n,) array."""
    k = np.arange(n + 1, dtype=np.float64)
    h2 = 2.0 * hurst
    rho = 0.5 * (np.abs(k + 1) ** h2 + np.abs(k - 1) ** h2 - 2 * k**h2)
    row = np.concatenate([rho[: n], rho[n:n + 1], rho[n - 1:0:-1]])
    eig = np.fft.fft(row).real
    if eig.min() < -1e-8:
        raise ValueError("circulant embedding failed (negative eigenvalue)")
    root = np.sqrt(np.clip(eig, 0.0, None))
    root.flags.writeable = False
    return root


def _fbm_values(grid: TimeGrid, hurst: float, scale: float, rngs: Iterator[np.random.Generator],
                out: np.ndarray) -> None:
    """Fractional Brownian rows by circulant embedding: each row's complex
    Gaussian vector comes from its own generator, and one inverse FFT serves a
    block of rows (the same bits as one FFT per row)."""
    if not scale > 0:
        return
    n = grid.n_steps
    root = _circulant_root(n, hurst)
    rows = max(1, _FFT_NODES // (2 * n))
    for start in range(0, out.shape[0], rows):
        block = out[start:start + rows]
        # per row, in stream order: the real modes 0 and n, then n - 1 pairs
        ends = np.empty((block.shape[0], 2))
        pairs = np.empty((block.shape[0], n - 1, 2))
        for e, p, rng in zip(ends, pairs, rngs):
            rng.standard_normal(out=e)
            rng.standard_normal(out=p)
        z = np.empty((block.shape[0], 2 * n), dtype=np.complex128)
        z[:, 0] = ends[:, 0]
        z[:, n] = ends[:, 1]
        z[:, 1:n] = (pairs[..., 0] + 1j * pairs[..., 1]) / np.sqrt(2.0)
        z[:, n + 1:] = np.conj(z[:, n - 1:0:-1])
        inc = np.sqrt(2 * n) * np.fft.ifft(root * z).real[:, :n]
        inc *= scale * grid.dt**hurst
        np.cumsum(inc, axis=-1, out=block[:, 1:])


def _compound_poisson(grid: TimeGrid, rate: float, law: JumpLaw,
                      rngs: Iterator[np.random.Generator], out: np.ndarray,
                      node_jumps: np.ndarray) -> None:
    """Compound-Poisson rows: values into ``out``, per-node jump sizes
    (collisions summed) into ``node_jumps``."""
    if rate > 0:
        for row, rng in zip(node_jumps, rngs):
            count = rng.poisson(rate * grid.T)
            if count > 0:
                times = rng.uniform(0.0, grid.T, count)
                sizes = np.asarray(law.sample(rng, count), dtype=np.float64)
                idx = np.rint(times / grid.dt).astype(np.int64)
                np.add.at(row, np.minimum(np.maximum(idx, 1), grid.n_steps), sizes)
    np.cumsum(node_jumps, axis=-1, out=out)


def _component_list(model: ModelSpec) -> list:
    if isinstance(model, Composite):
        return list(model.components)
    if isinstance(model, LevyJumpDiffusion):
        return [
            DeterministicDrift(lambda t, b=model.drift: b * t),
            BrownianMotion(model.sigma),
            CompoundPoisson(model.rate, model.law),
        ]
    if type(model) not in _LEAF_NAMES:
        raise TypeError(f"not a model: {type(model).__name__}")
    return [model]


def _check_simulable(model: ModelSpec, grid: TimeGrid) -> None:
    """Rejects, before anything is allocated, a jump rate whose Poisson mean
    over the horizon numpy cannot draw and fractional noise on more steps
    than its generator takes."""
    for comp in _component_list(model):
        if isinstance(comp, CompoundPoisson) and comp.rate * grid.T > _POISSON_LAM_MAX:
            raise ValueError(f"rate {comp.rate!r} over horizon {grid.T!r} is a Poisson mean "
                             f"above {_POISSON_LAM_MAX:.6g}, the largest numpy draws")
        if (isinstance(comp, FractionalBrownianMotion) and comp.scale > 0
                and grid.n_steps > _MAX_FBM_STEPS):
            raise ValueError(f"fbm on {grid.n_steps} steps is above the step limit "
                             f"{_MAX_FBM_STEPS} (2^23) of exact fractional noise")


def _component_name(comp, taken: set[str]) -> str:
    """Stable component key: bare kind name, then kind2, kind3, ..."""
    base = _LEAF_NAMES[type(comp)]
    name, n = base, 1
    while name in taken:
        n += 1
        name = f"{base}{n}"
    taken.add(name)
    return name


class _Substreams:
    """One Philox for a whole batch.  ``at(i, component)`` returns a generator
    at the start of the ``SeedSpec(master_seed, i).bit_generator(component)``
    substream; after the first, it sets the state of the same bit generator,
    which costs a fraction of building a new one."""

    def __init__(self, master_seed: int):
        self._master_seed = master_seed
        self._buffer = np.zeros(4, dtype=np.uint64)
        self._rng: np.random.Generator | None = None

    def at(self, path_index: int, component: int) -> np.random.Generator:
        key, counter = _substream_words(self._master_seed, path_index, component)
        if self._rng is None:
            self._rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
        else:
            # the state of a newly built generator: no buffered output
            self._rng.bit_generator.state = {
                "bit_generator": "Philox", "state": {"counter": counter, "key": key},
                "buffer": self._buffer, "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0}
        return self._rng


def simulate_batch(model: ModelSpec, grid: TimeGrid, master_seed: int, indices) -> CadlagPath:
    """Paths ``indices`` of the ``master_seed`` ensemble as a ``(B, n+1)``
    stack; row j draws from the ``SeedSpec(master_seed, indices[j])``
    substreams only.

    ``components`` holds one stack per model component (drift, diffusion,
    fractional and jump parts), which the characteristics decomposition reads.
    A model beyond the limits of ``_check_simulable`` raises ``ValueError`` first.
    """
    _check_simulable(model, grid)
    indices = [int(i) for i in indices]
    streams = _Substreams(master_seed)
    shape = (len(indices), grid.n_nodes)
    values = np.zeros(shape)
    parts: dict[str, CadlagPath] = {}
    jump_parts: list[np.ndarray] = []
    taken: set[str] = set()
    stream = 0
    for comp in _component_list(model):
        name = _component_name(comp, taken)
        part_jumps = None
        if isinstance(comp, DeterministicDrift):
            v = np.asarray(comp.f(grid.times()), dtype=np.float64)
            if v.shape != (grid.n_nodes,):
                raise ValueError(f"drift values must have shape ({grid.n_nodes},), got {v.shape}")
            part_values = np.broadcast_to(v, shape)
        else:
            part_values = np.zeros(shape)
            rows = (streams.at(i, stream) for i in indices)
            if isinstance(comp, BrownianMotion):
                _brownian_values(grid, comp.sigma, rows, part_values)
            elif isinstance(comp, FractionalBrownianMotion):
                _fbm_values(grid, comp.hurst, comp.scale, rows, part_values)
            else:
                part_jumps = np.zeros(shape)
                _compound_poisson(grid, comp.rate, comp.law, rows, part_values,
                                  part_jumps)
                jump_parts.append(part_jumps)
            stream += 1
        parts[name] = CadlagPath(grid, part_values, part_jumps)
        values += part_values
    # 0 + x is x for every jump (never -0.0), so a lone jump part is shared
    jumps = sum(jump_parts[1:], jump_parts[0]) if jump_parts else None
    return CadlagPath(grid, values, jumps, parts)


def simulate_path(model: ModelSpec, grid: TimeGrid, seed: SeedSpec) -> CadlagPath:
    """One trajectory, deterministic in (model, grid, seed): the batch of one
    of ``simulate_batch``, with its ``components`` dict of per-component paths."""
    return simulate_batch(model, grid, seed.master_seed, [seed.path_index]).path(0)


"""Seeded path generators for the model families used throughout the toolkit.

Reproducibility contract: path ``i`` of an ensemble is a pure function of
``(master_seed, i)`` via counter-based Philox substreams, independent of
evaluation order or batching.  Within a path, component ``j`` draws from the
substream ``jumped(j)``, so multi-component models have independent parts.
``simulate_batch`` fills ``(B, n+1)`` rows; ``simulate_path`` is its batch of one.

Jump times are snapped to the nearest grid node (collisions merged by summing
sizes), which keeps left limits exact and estimators deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .paths import CadlagPath, PathBatch, TimeGrid

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
    "simulate_ensemble",
]

_QUAD_NODES = 40
_MAX_FBM_STEPS = 1 << 23


# ---------------------------------------------------------------------------
# Jump size laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteAtoms:
    values: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        v = tuple(float(x) for x in self.values)
        p = tuple(float(x) for x in self.probabilities)
        if len(v) != len(p) or not v:
            raise ValueError("values and probabilities must align and be nonempty")
        if any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
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
        if self.sd < 0:
            raise ValueError("sd must be nonnegative")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mean, self.sd, size)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        # Gauss-Hermite, fixed node count recorded in reports
        x, w = np.polynomial.hermite.hermgauss(_QUAD_NODES)
        return self.mean + np.sqrt(2.0) * self.sd * x, w / np.sqrt(np.pi)


@dataclass(frozen=True)
class UniformJumps:
    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("need a < b")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.a, self.b, size)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        # Gauss-Legendre mapped to (a, b)
        x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
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
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class FractionalBrownianMotion:
    hurst: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0.5 < self.hurst < 1.0):
            raise ValueError(f"hurst must lie in (0.5, 1), got {self.hurst}")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")


@dataclass(frozen=True)
class CompoundPoisson:
    rate: float
    law: JumpLaw

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")


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
        if self.sigma < 0 or self.rate < 0:
            raise ValueError("sigma and rate must be nonnegative")


@dataclass(frozen=True)
class DeterministicDrift:
    f: Callable[[np.ndarray], np.ndarray]


_LEAF_KINDS = (BrownianMotion, FractionalBrownianMotion, CompoundPoisson, DeterministicDrift)


@dataclass(frozen=True)
class Composite:
    """Sum of independent leaf components (no nesting)."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("composite needs at least one component")
        for c in comps:
            if not isinstance(c, _LEAF_KINDS):
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


@dataclass(frozen=True)
class SeedSpec:
    master_seed: int
    path_index: int = 0

    def bit_generator(self, component: int = 0) -> np.random.BitGenerator:
        # a uint64 array: a list mixing words above and below 2**63 would go
        # through float64 and lose the low bits of the large word
        key = np.array([self.master_seed & (2**64 - 1), self.path_index & (2**64 - 1)],
                       dtype=np.uint64)
        return np.random.Philox(key=key, counter=[0, 0, component, 0])

    def generator(self, component: int = 0) -> np.random.Generator:
        return np.random.Generator(self.bit_generator(component))


# ---------------------------------------------------------------------------
# Generators: each draws one path's component into zeroed rows
# ---------------------------------------------------------------------------

def _brownian_values(grid: TimeGrid, sigma: float, rng: np.random.Generator,
                     out: np.ndarray) -> None:
    if sigma > 0:
        inc = rng.standard_normal(grid.n_steps) * (sigma * np.sqrt(grid.dt))
        np.cumsum(inc, out=out[1:])


def _fgn_unit(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance fractional Gaussian noise by circulant embedding."""
    if n > _MAX_FBM_STEPS:
        raise MemoryError(
            f"grid too fine for exact fractional noise generation "
            f"({n} steps > {_MAX_FBM_STEPS})"
        )
    k = np.arange(n + 1, dtype=np.float64)
    h2 = 2.0 * hurst
    rho = 0.5 * (np.abs(k + 1) ** h2 + np.abs(k - 1) ** h2 - 2 * k**h2)
    row = np.concatenate([rho[: n], rho[n:n + 1], rho[n - 1:0:-1]])
    eig = np.fft.fft(row).real
    if eig.min() < -1e-8:
        raise ValueError("circulant embedding failed (negative eigenvalue)")
    eig = np.clip(eig, 0.0, None)
    z = np.empty(2 * n, dtype=np.complex128)
    z[0] = rng.standard_normal()
    z[n] = rng.standard_normal()
    v = rng.standard_normal((n - 1, 2))
    z[1:n] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
    z[n + 1:] = np.conj(z[1:n][::-1])
    return np.sqrt(2 * n) * np.fft.ifft(np.sqrt(eig) * z).real[:n]


def _fbm_values(grid: TimeGrid, hurst: float, scale: float, rng: np.random.Generator,
                out: np.ndarray) -> None:
    if scale > 0:
        inc = _fgn_unit(grid.n_steps, hurst, rng) * (scale * grid.dt**hurst)
        np.cumsum(inc, out=out[1:])


def _compound_poisson(grid: TimeGrid, rate: float, law: JumpLaw, rng: np.random.Generator,
                      out: np.ndarray, node_jumps: np.ndarray) -> None:
    """One compound-Poisson draw: values into ``out``, per-node jump sizes
    (collisions summed) into ``node_jumps``."""
    if rate > 0:
        count = rng.poisson(rate * grid.T)
        if count > 0:
            times = rng.uniform(0.0, grid.T, count)
            sizes = np.asarray(law.sample(rng, count), dtype=np.float64)
            idx = np.clip(np.rint(times / grid.dt).astype(np.int64), 1, grid.n_steps)
            np.add.at(node_jumps, idx, sizes)
    np.cumsum(node_jumps, out=out)


def _component_list(model: ModelSpec) -> list:
    if isinstance(model, Composite):
        return list(model.components)
    if isinstance(model, LevyJumpDiffusion):
        return [
            DeterministicDrift(lambda t, b=model.drift: b * t),
            BrownianMotion(model.sigma),
            CompoundPoisson(model.rate, model.law),
        ]
    return [model]


def _component_name(comp, taken: set[str]) -> str:
    """Stable component key: bare kind name, then kind2, kind3, ..."""
    base = {
        BrownianMotion: "bm",
        FractionalBrownianMotion: "fbm",
        CompoundPoisson: "cp",
        DeterministicDrift: "drift",
    }[type(comp)]
    name, n = base, 1
    while name in taken:
        n += 1
        name = f"{base}{n}"
    taken.add(name)
    return name


def simulate_batch(model: ModelSpec, grid: TimeGrid, master_seed: int, indices) -> PathBatch:
    """Paths ``indices`` of the ``master_seed`` ensemble as ``(B, n+1)`` rows;
    row j draws from the ``SeedSpec(master_seed, indices[j])`` substreams only.

    ``components`` holds one batch per model component (drift, diffusion,
    fractional and jump parts), which the characteristics decomposition reads.
    """
    seeds = [SeedSpec(master_seed, int(i)) for i in indices]
    shape = (len(seeds), grid.n_nodes)
    no_jumps = np.broadcast_to(np.float64(0.0), shape)
    values = np.zeros(shape)
    parts: dict[str, PathBatch] = {}
    taken: set[str] = set()
    stream = 0
    for comp in _component_list(model):
        name = _component_name(comp, taken)
        part_jumps = no_jumps
        if isinstance(comp, DeterministicDrift):
            v = np.asarray(comp.f(grid.times()), dtype=np.float64)
            if v.shape != (grid.n_nodes,):
                raise ValueError(f"drift values must have shape ({grid.n_nodes},), got {v.shape}")
            part_values = np.broadcast_to(v, shape)
        else:
            part_values = np.zeros(shape)
            if isinstance(comp, CompoundPoisson):
                part_jumps = np.zeros(shape)
            for row, seed in enumerate(seeds):
                rng = seed.generator(stream)
                if isinstance(comp, BrownianMotion):
                    _brownian_values(grid, comp.sigma, rng, part_values[row])
                elif isinstance(comp, FractionalBrownianMotion):
                    _fbm_values(grid, comp.hurst, comp.scale, rng, part_values[row])
                else:
                    _compound_poisson(grid, comp.rate, comp.law, rng,
                                      part_values[row], part_jumps[row])
            stream += 1
        parts[name] = PathBatch(grid, part_values, part_jumps)
        values += part_values
    # 0 + x is x for every jump (never -0.0), so a lone jump part is shared
    cp_jumps = [p.jumps for p in parts.values() if p.jumps is not no_jumps]
    jumps = sum(cp_jumps[1:], cp_jumps[0]) if cp_jumps else no_jumps
    return PathBatch(grid, values, jumps, parts)


def simulate_path(model: ModelSpec, grid: TimeGrid, seed: SeedSpec) -> CadlagPath:
    """One trajectory, deterministic in (model, grid, seed): the batch of one
    of ``simulate_batch``, with its ``components`` dict of per-component paths."""
    return simulate_batch(model, grid, seed.master_seed, [seed.path_index]).path(0)


def simulate_ensemble(
    model: ModelSpec, grid: TimeGrid, master_seed: int, n_paths: int
) -> list[CadlagPath]:
    """Independent paths; path i uses the (master_seed, i) substream."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    batch = simulate_batch(model, grid, master_seed, range(n_paths))
    return [batch.path(j) for j in range(n_paths)]

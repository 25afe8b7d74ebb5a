"""Truncation functions, characteristics triplets and the path decomposition

    X = X^c + k(x) * (mu - nu) + drift-characteristic + (x - k(x)) * mu,

together with numerical checks of the bracket identities relating the drift
characteristic to the continuous brackets of X and X^c.

The drift characteristic is assembled from three additive pieces: a linear
slope (Levy-type models), a deterministic time profile, and a path-dependent
rough part (fractional components, read from the simulator's component logs).
Only quasi-left-continuous characteristics are handled: nu({t} x R) = 0 at
every t, so the drift characteristic is continuous.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .paths import CadlagPath, TimeGrid
from .regularize import (
    EpsilonSchedule,
    IdentityReport,
    _identity_report,
    covariation_limit,
    qv_decompose,
)
from .simulate import (
    BrownianMotion,
    Composite,
    CompoundPoisson,
    DeterministicDrift,
    FractionalBrownianMotion,
    JumpLaw,
    LevyJumpDiffusion,
    ModelSpec,
    _component_name,
    law_expectation,
)


__all__ = [
    "Truncation",
    "standard_truncation",
    "smooth_clip_truncation",
    "CharacteristicsModel",
    "ComponentLogError",
    "known_characteristics",
    "convert_truncation",
    "Decomposition",
    "decompose",
    "drift_bracket_check",
    "continuous_bracket_check",
]


class ComponentLogError(ValueError):
    """The decomposition needs per-component trajectories the path lacks."""


def _centered(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """f(t) - f(0) as a vectorized profile with value 0 at t = 0."""
    f0 = float(np.asarray(f(np.zeros(1)), dtype=np.float64).flat[0])

    def profile(t):
        return np.asarray(f(np.asarray(t, np.float64)), np.float64) - f0

    return profile


# A truncation function: a bounded k with k(x) = x near 0, applied to float arrays.
Truncation = Callable[[np.ndarray], np.ndarray]


def standard_truncation() -> Truncation:
    """k(x) = x on |x| <= 1, zero beyond (discontinuous at |x| = 1)."""

    def fn(x):
        return np.where(np.abs(x) <= 1.0, x, 0.0)

    return fn


def smooth_clip_truncation() -> Truncation:
    """Odd C^2 clip: identity on |x| <= 0.5, constant +-1 beyond |x| >= 1.5.

    The blend on [0.5, 1.5] is the unique quintic matching value, slope and
    curvature at both junctions; it is monotone on the blend interval.
    """

    def fn(x):
        a = np.abs(x)
        u = np.clip(a - 0.5, 0.0, 1.0)
        blend = 0.5 + u - u**3 + 0.5 * u**4
        out = np.where(a <= 0.5, a, np.where(a >= 1.5, 1.0, blend))
        return np.sign(x) * out

    return fn


@dataclass(frozen=True)
class CharacteristicsModel:
    """Evaluators for the triplet (drift characteristic, C, compensator).

    ``drift_slope`` is the linear coefficient; ``drift_profile`` an optional
    deterministic extra (finite variation); ``drift_path_fn`` an optional
    path-dependent rough extra, evaluated on a path's component logs.
    ``c_rate`` is the slope of C(t) = c_rate * t.
    ``compensators`` lists (rate, law) pairs with nu(dt, dx) = rate dt law(dx).
    """

    truncation: Truncation
    drift_slope: float = 0.0
    drift_profile: Callable[[np.ndarray], np.ndarray] | None = None
    drift_path_fn: Callable[[CadlagPath], np.ndarray] | None = None
    c_rate: float = 0.0
    compensators: tuple[tuple[float, JumpLaw], ...] = ()

    @property
    def bk_finite_variation(self) -> bool:
        return self.drift_path_fn is None

    def c_values(self, grid: TimeGrid) -> np.ndarray:
        return self.c_rate * grid.times()

    def compensator_k_rate(self) -> float:
        """Total rate of k-truncated jump compensation, sum of rate*E[k(J)]."""
        return sum(
            rate * law_expectation(law, self.truncation)
            for rate, law in self.compensators
        )

    def bk_values(self, path: CadlagPath) -> np.ndarray:
        """Drift characteristic sampled along the path's grid: one row per path
        of a stack when it is path dependent, else one row for all."""
        times = path.grid.times()
        out = self.drift_slope * times
        if self.drift_profile is not None:
            out = out + np.asarray(self.drift_profile(times), dtype=np.float64)
        if self.drift_path_fn is not None:
            out = out + np.asarray(self.drift_path_fn(path), dtype=np.float64)
        return out


def _fbm_sum_fn(names: Sequence[str]) -> Callable[[CadlagPath], np.ndarray]:
    def path_fn(path: CadlagPath) -> np.ndarray:
        if path.components is None:
            raise ComponentLogError(
                "path-dependent drift characteristic needs component logs; "
                "the simulators attach them"
            )
        missing = [n for n in names if n not in path.components]
        if missing:
            raise ComponentLogError(f"missing component logs: {missing}")
        total = np.zeros(path.grid.n_nodes)
        for n in names:
            total = total + path.components[n].values
        return total

    return path_fn


def known_characteristics(model: ModelSpec, k: Truncation) -> CharacteristicsModel:
    """Closed-form triplet of a simulatable model under truncation k.

    For Levy-type models the drift characteristic is (trend + rate*E[k(J)])*t;
    fractional components enter as a path-dependent drift part; the compensator
    is rate dt law(dx).  Every family is quasi-left-continuous, the toolkit's
    scope, so none has a fixed-time atom.  A single family is a composite of
    one leaf.
    """
    composite = isinstance(model, Composite)
    # a lone leaf keeps its slope's bits: 0.0 + x would turn x = -0.0 into 0.0
    slope = 0.0 if composite else None
    profiles = []
    fbm_names: list[str] = []
    comp_list: list[tuple[float, JumpLaw]] = []
    c_rate = 0.0
    taken: set[str] = set()
    for comp in model.components if composite else (model,):
        if isinstance(comp, BrownianMotion):
            c_rate += comp.sigma**2
        elif isinstance(comp, FractionalBrownianMotion):
            fbm_names.append(_component_name(comp, taken))
        elif isinstance(comp, (CompoundPoisson, LevyJumpDiffusion)):
            term = comp.rate * law_expectation(comp.law, k)
            if isinstance(comp, LevyJumpDiffusion):
                term = comp.drift + term
                c_rate += comp.sigma**2
            slope = term if slope is None else slope + term
            comp_list.append((comp.rate, comp.law))
        elif isinstance(comp, DeterministicDrift):
            profiles.append(_centered(comp.f))
        else:
            raise TypeError(f"no known characteristics for {type(model).__name__}")
    profile = None
    if profiles:
        def profile(t, fns=tuple(profiles)):
            total = np.zeros_like(np.asarray(t, np.float64))
            for f in fns:
                total = total + f(t)
            return total
    return CharacteristicsModel(
        truncation=k,
        drift_slope=0.0 if slope is None else slope,
        drift_profile=profile,
        drift_path_fn=_fbm_sum_fn(fbm_names) if fbm_names else None,
        c_rate=c_rate,
        compensators=tuple(comp_list),
    )


def convert_truncation(
    model: ModelSpec | CharacteristicsModel,
    k: Truncation,
    k_new: Truncation,
) -> CharacteristicsModel:
    """Re-express the triplet under another truncation.

    Only the drift characteristic moves: slope shifts by rate*E[k'(J) - k(J)]
    per compensator entry; C and the compensator are unchanged.
    """
    chars = _as_chars(model, k)
    shift = sum(
        rate * (law_expectation(law, k_new) - law_expectation(law, k))
        for rate, law in chars.compensators
    )
    return replace(chars, truncation=k_new, drift_slope=chars.drift_slope + shift)


def _as_chars(model, k: Truncation) -> CharacteristicsModel:
    if isinstance(model, CharacteristicsModel):
        return model
    return known_characteristics(model, k)


@dataclass(frozen=True)
class Decomposition:
    """The four additive parts of a path under a chosen truncation."""

    continuous: CadlagPath          # X^c, continuous martingale part sample
    compensated_jumps: CadlagPath   # k(x) * (mu - nu)
    drift: CadlagPath               # drift characteristic sample
    large_jumps: CadlagPath         # (x - k(x)) * mu
    reconstruction_error: float


def decompose(
    X: CadlagPath, model: ModelSpec | CharacteristicsModel, k: Truncation
) -> Decomposition:
    """Split X into continuous, compensated-jump, drift and large-jump parts.

    The jump parts come from X's jumps, the drift part from the model's
    characteristics (including fractional component logs where the drift is
    path dependent); the continuous part is the remainder, so the four parts
    reproduce X at every node by construction.
    """
    chars = _as_chars(model, k)
    grid = X.grid
    times = grid.times()

    idx = X.jump_indices
    kj, lj = np.zeros(grid.n_nodes), np.zeros(grid.n_nodes)
    kj[idx] = chars.truncation(X.jumps[idx]) + 0.0  # + 0.0 turns -0.0 into 0.0
    lj[idx] = X.jumps[idx] - kj[idx]
    lam_k = chars.compensator_k_rate()
    # a part without jumps keeps no dense zero jump row
    mdk = CadlagPath(grid, np.cumsum(kj) - lam_k * times, kj if kj.any() else None)
    large = CadlagPath(grid, np.cumsum(lj), lj if lj.any() else None)
    bk = CadlagPath(grid, chars.bk_values(X))
    xc_values = X.values - (mdk.values + bk.values + large.values)
    xc = CadlagPath(grid, xc_values)
    recon = np.max(
        np.abs(xc.values + mdk.values + bk.values + large.values - X.values)
    )
    return Decomposition(
        continuous=xc,
        compensated_jumps=mdk,
        drift=bk,
        large_jumps=large,
        reconstruction_error=float(recon),
    )


def _decomposition_brackets(X, decomposition, schedule):
    """[X, X], [X^c, X^c] and [drift, drift], each estimated once; both
    bracket identities of a decomposition are read off these three."""
    xc = decomposition.continuous
    return (
        qv_decompose(X, schedule),
        covariation_limit(xc, xc, schedule),
        qv_decompose(decomposition.drift, schedule),
    )


def _drift_bracket_report(brackets) -> IdentityReport:
    qv_x, qv_xc, qv_bk = brackets
    return _identity_report(
        "drift bracket identity", qv_bk.estimate.limit, qv_x.continuous - qv_xc.limit,
        (qv_bk.estimate, qv_x.estimate, qv_xc),
    )


def _continuous_bracket_report(brackets) -> IdentityReport:
    qv_x, qv_xc, qv_bk = brackets
    return _identity_report(
        "continuous bracket split", qv_x.continuous, qv_xc.limit + qv_bk.continuous,
        (qv_x.estimate, qv_xc, qv_bk.estimate),
    )


def drift_bracket_check(
    X: CadlagPath,
    decomposition: Decomposition,
    model: ModelSpec | CharacteristicsModel,
    k: Truncation,
    schedule: EpsilonSchedule,
) -> IdentityReport:
    """Checks [drift, drift] = [X, X]^c - [X^c, X^c] in sup norm; ``model``
    and ``k`` are not read, as no fixed-time atom enters the identity."""
    return _drift_bracket_report(_decomposition_brackets(X, decomposition, schedule))


def continuous_bracket_check(
    X: CadlagPath, decomposition: Decomposition, schedule: EpsilonSchedule
) -> IdentityReport:
    """Checks [X, X]^c = [X^c, X^c] + [drift, drift]^c in sup norm."""
    return _continuous_bracket_report(_decomposition_brackets(X, decomposition, schedule))

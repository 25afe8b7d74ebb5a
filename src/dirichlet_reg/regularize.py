"""Epsilon-regularization estimators for covariation and forward integrals.

The bracket of two sampled paths is approximated, for a shift ``eps = m*dt``,
by the left-endpoint Riemann discretization of

    (1/eps) * integral_0^t (X_((s+eps)^t) - X_s) (Y_((s+eps)^t) - Y_s) ds,

evaluated exactly via index arithmetic (the clamped shift ``(s+eps)^t`` is an
index shift on a uniform grid).  Limits in eps are taken as the value at the
smallest eps of a decreasing schedule, with a successive-difference error bar;
non-convergence is a reported state, not an exception.

Quadratic forms are computed from squared increments (no cancellation), and
cross covariations are derived by polarization, which makes the estimator
symmetric in (X, Y) bit-for-bit and consistent with the quadratic form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .paths import CadlagPath, GridMismatchError, TimeGrid

__all__ = [
    "EpsilonSchedule",
    "default_schedule",
    "CovariationEstimate",
    "QvDecomposition",
    "IdentityReport",
    "covariation_eps",
    "covariation_limit",
    "forward_integral_eps",
    "forward_integral_limit",
    "qv_decompose",
    "pure_jump_covariation_check",
    "smooth_map_qv_check",
    "smooth_map_cross_check",
]


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing eps values, each an exact multiple of the grid step."""

    multiples: tuple[int, ...]

    def __post_init__(self):
        ms = tuple(int(m) for m in self.multiples)
        if not ms:
            raise ValueError("schedule must contain at least one eps value")
        if any(m < 1 for m in ms):
            raise ValueError("eps must be at least one grid step")
        if any(b <= a for a, b in zip(ms[1:], ms[:-1])):
            raise ValueError("eps values must be strictly decreasing")
        object.__setattr__(self, "multiples", ms)

    def epsilons(self, grid: TimeGrid) -> np.ndarray:
        eps = np.array(self.multiples, dtype=np.float64) * grid.dt
        if eps[0] >= grid.T:
            raise ValueError("largest eps must be smaller than the horizon")
        return eps


def default_schedule(
    grid: TimeGrid,
    multiples: Sequence[int] = (32, 16, 8, 4, 2, 1),
    cap_fraction: float = 0.1,
) -> EpsilonSchedule:
    """Geometric schedule truncated so that eps <= cap_fraction * T."""
    cap = cap_fraction * grid.T / grid.dt
    kept = tuple(m for m in multiples if m <= cap)
    if not kept:
        kept = (1,)
    return EpsilonSchedule(kept)


def _check_eps(grid: TimeGrid, eps: float) -> int:
    m = int(round(eps / grid.dt))
    if m < 1 or abs(m * grid.dt - eps) > 1e-9 * grid.dt:
        raise ValueError(f"eps={eps} is not a positive multiple of dt={grid.dt}")
    if eps >= grid.T:
        raise ValueError("eps must be smaller than the horizon")
    return m


def _cumsum0(x: np.ndarray) -> np.ndarray:
    """Cumulative sum with a leading zero along the last axis."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=out[..., 1:])
    return out


def _qv_eps(values: np.ndarray, m: int) -> np.ndarray:
    """Quadratic form trajectory for shift m, on all nodes; batch-friendly.

    Splits the sum at each output node j into the full-lag part (prefix sum of
    lag-m squared increments, i <= j-m) and the clamped tail (offsets 1..m-1
    ending at j).  All terms are squares, so the result is nonnegative.
    """
    n1 = values.shape[-1]
    out = np.zeros_like(values)
    if m < n1:
        d = values[..., m:] - values[..., :-m]
        out[..., m:] = np.cumsum(d * d, axis=-1)
    for off in range(1, min(m, n1)):
        d = values[..., off:] - values[..., :-off]
        out[..., off:] += d * d
    out /= m
    return out


def _cov_eps(vx: np.ndarray, vy: np.ndarray, m: int) -> np.ndarray:
    # polarization keeps the estimator symmetric in (X, Y) bit-for-bit
    if vx is vy:
        return _qv_eps(vx, m)
    qsum = _qv_eps(vx + vy, m)
    return 0.5 * (qsum - (_qv_eps(vx, m) + _qv_eps(vy, m)))


def _fwd_eps(vy: np.ndarray, vx: np.ndarray, m: int) -> np.ndarray:
    """Forward-integral trajectory of integrand values vy against vx, shift m."""
    n1 = vx.shape[-1]
    out = np.zeros_like(vx)
    if m < n1:
        d = vx[..., m:] - vx[..., :-m]
        out[..., m:] = np.cumsum(vy[..., :-m] * d, axis=-1)
    for off in range(1, min(m, n1)):
        d = vx[..., off:] - vx[..., :-off]
        out[..., off:] += vy[..., :-off] * d
    out /= m
    return out


def covariation_eps(X: CadlagPath, Y: CadlagPath, eps: float) -> np.ndarray:
    """Trajectory t -> [X, Y]^eps(t) on every grid node."""
    if X.grid != Y.grid:
        raise GridMismatchError("paths live on different grids")
    return _cov_eps(X.values, Y.values, _check_eps(X.grid, eps))


def forward_integral_eps(Y: CadlagPath, X: CadlagPath, eps: float) -> np.ndarray:
    """Trajectory of the eps-regularized forward integral of Y against X."""
    if X.grid != Y.grid:
        raise GridMismatchError("paths live on different grids")
    m = _check_eps(X.grid, eps)
    return _fwd_eps(Y.values, X.values, m)


@dataclass(frozen=True)
class CovariationEstimate:
    """Per-eps trajectories with the extrapolated limit and an error bar.

    ``limit`` is the trajectory at the smallest eps (no rate is assumed);
    ``error_estimate`` is the sup distance between the two finest trajectories.
    ``converged`` is False when that sup distance increased across the last
    two refinements, signalling that the limit may not exist at this
    resolution.
    """

    grid: TimeGrid
    eps_values: np.ndarray
    trajectories: np.ndarray  # shape (n_eps, n_nodes), coarsest first
    limit: np.ndarray
    error_estimate: float
    sup_diffs: np.ndarray
    converged: bool

    def at(self, t: float) -> float:
        return float(self.limit[self.grid.index_of(t)])


def _estimate_from_trajectories(
    grid: TimeGrid, eps: np.ndarray, traj: np.ndarray
) -> CovariationEstimate:
    diffs = (
        np.max(np.abs(np.diff(traj, axis=0)), axis=1)
        if traj.shape[0] > 1
        else np.empty(0)
    )
    if diffs.size:
        err = float(diffs[-1])
    else:
        err = 0.0
    converged = True
    if diffs.size >= 2 and diffs[-1] > diffs[-2] * (1 + 1e-12):
        converged = False
    return CovariationEstimate(
        grid=grid,
        eps_values=eps,
        trajectories=traj,
        limit=traj[-1].copy(),
        error_estimate=err,
        sup_diffs=diffs,
        converged=converged,
    )


def covariation_limit(
    X: CadlagPath, Y: CadlagPath, schedule: EpsilonSchedule
) -> CovariationEstimate:
    eps = schedule.epsilons(X.grid)
    traj = np.stack([covariation_eps(X, Y, e) for e in eps])
    return _estimate_from_trajectories(X.grid, eps, traj)


def forward_integral_limit(
    Y: CadlagPath, X: CadlagPath, schedule: EpsilonSchedule
) -> CovariationEstimate:
    eps = schedule.epsilons(X.grid)
    traj = np.stack([forward_integral_eps(Y, X, e) for e in eps])
    return _estimate_from_trajectories(X.grid, eps, traj)


@dataclass(frozen=True)
class QvDecomposition:
    """Split of an estimated bracket into continuous and jump components."""

    continuous: np.ndarray
    jump: np.ndarray
    estimate: CovariationEstimate

    @property
    def converged(self) -> bool:
        return self.estimate.converged


def qv_decompose(X: CadlagPath, schedule: EpsilonSchedule) -> QvDecomposition:
    """Continuous / jump split of [X, X]: jump part from the registry, exactly."""
    est = covariation_limit(X, X, schedule)
    jump = X.squared_jump_trajectory()
    return QvDecomposition(continuous=est.limit - jump, jump=jump, estimate=est)


@dataclass(frozen=True)
class IdentityReport:
    """Sup-norm comparison of two trajectories claimed equal in the limit."""

    name: str
    sup_distance: float
    error_estimate: float
    converged: bool
    precondition_ok: bool = True
    precondition_note: str = ""
    lhs: np.ndarray | None = None
    rhs: np.ndarray | None = None

    def within(self, tolerance: float) -> bool:
        return self.precondition_ok and self.sup_distance <= tolerance


def _identity_report(
    name: str, lhs: np.ndarray, rhs: np.ndarray, estimates: Sequence[CovariationEstimate],
    precondition_ok: bool = True, precondition_note: str = "",
) -> IdentityReport:
    """The one combination policy of every identity check: sup norm of
    lhs - rhs, the estimates' error bars summed in order, and converged only
    when every estimate converged."""
    error = 0.0
    for est in estimates:
        error += est.error_estimate
    converged = all(est.converged for est in estimates)
    sup = float(np.max(np.abs(lhs - rhs)))
    return IdentityReport(name, sup, error, converged, precondition_ok, precondition_note, lhs, rhs)


def pure_jump_covariation_check(
    Y: CadlagPath,
    Z: CadlagPath,
    schedule: EpsilonSchedule,
    continuous_tolerance: float | None = None,
) -> IdentityReport:
    """Checks [Y, Z] = sum of jump products when [Y, Y] has no continuous part.

    The precondition ([Y,Y]^c vanishing within tolerance) is verified and
    reported, never silently assumed.
    """
    qv_y = qv_decompose(Y, schedule)
    tol = (
        continuous_tolerance
        if continuous_tolerance is not None
        else max(2.0 * qv_y.estimate.error_estimate, 1e-10)
    )
    cont_sup = float(np.max(np.abs(qv_y.continuous)))
    pre_ok = cont_sup <= tol
    note = "" if pre_ok else (
        f"continuous bracket of first path is {cont_sup:.3g}, above tolerance {tol:.3g}"
    )
    est = covariation_limit(Y, Z, schedule)
    rhs = np.cumsum(Y.node_jumps() * Z.node_jumps())
    return _identity_report("pure-jump covariation", est.limit, rhs, (est,), pre_ok, note)


def smooth_map_qv_check(
    X: CadlagPath,
    phi: Callable[[np.ndarray], np.ndarray],
    dphi: Callable[[np.ndarray], np.ndarray],
    schedule: EpsilonSchedule,
) -> IdentityReport:
    """C^1-stability of the bracket: compares [phi(X), phi(X)] against

        int phi'(X_{s-})^2 d[X,X]^c_s  +  sum of squared jumps of phi(X).
    """
    qv_x = qv_decompose(X, schedule)
    img = X.map(phi)
    lhs_est = covariation_limit(img, img, schedule)
    g = np.asarray(dphi(X.left_values()), dtype=np.float64) ** 2
    rhs = _cumsum0(g[:-1] * np.diff(qv_x.continuous)) + img.squared_jump_trajectory()
    return _identity_report("C1 bracket stability", lhs_est.limit, rhs, (lhs_est, qv_x.estimate))


def smooth_map_cross_check(
    X1: CadlagPath,
    phi: Callable[[np.ndarray], np.ndarray],
    dphi: Callable[[np.ndarray], np.ndarray],
    X2: CadlagPath,
    psi: Callable[[np.ndarray], np.ndarray],
    dpsi: Callable[[np.ndarray], np.ndarray],
    schedule: EpsilonSchedule,
) -> IdentityReport:
    """Two-function variant: [phi(X1), psi(X2)] against

        int phi'(X1_s) psi'(X2_{s-}) d[X1,X2]^c_s + sum of phi/psi jump products.
    """
    cross = covariation_limit(X1, X2, schedule)
    cross_jump = np.cumsum(X1.node_jumps() * X2.node_jumps())
    cross_cont = cross.limit - cross_jump
    img1, img2 = X1.map(phi), X2.map(psi)
    lhs_est = covariation_limit(img1, img2, schedule)
    g = np.asarray(dphi(X1.values), np.float64) * np.asarray(
        dpsi(X2.left_values()), np.float64
    )
    img_jumps = np.cumsum(img1.node_jumps() * img2.node_jumps())
    rhs = _cumsum0(g[:-1] * np.diff(cross_cont)) + img_jumps
    return _identity_report("C1 cross-bracket stability", lhs_est.limit, rhs, (lhs_est, cross))

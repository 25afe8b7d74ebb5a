"""Epsilon-regularization estimators for covariation and forward integrals.

The bracket of two sampled paths is approximated, for a shift ``eps = m*dt``,
by the left-endpoint Riemann discretization of

    (1/eps) * integral_0^t (X_((s+eps)^t) - X_s) (Y_((s+eps)^t) - Y_s) ds,

evaluated exactly via index arithmetic (the clamped shift ``(s+eps)^t`` is an
index shift on a uniform grid).  One kernel serves both estimators: the
quadratic form weights each shifted increment by itself, the forward integral
weights it by the integrand.  Shifts of up to 32 steps sum the clamped tail
(the last m - 1 nodes before each node) offset by offset; longer shifts take
it from window sums in O(n), which can differ in the last bits, and default
schedules stop at 32 steps.  Limits in eps are taken as the value at the
smallest eps of a decreasing schedule, with a successive-difference error bar;
non-convergence is a reported state, not an exception.

Quadratic forms are computed from squared increments (no cancellation), and
cross covariations are derived by polarization, which makes the estimator
symmetric in (X, Y) bit-for-bit and consistent with the quadratic form.  A
check that already holds [X, X]^eps polarizes against it instead of
estimating it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .paths import CadlagPath, TimeGrid, _check_grids, _check_one_path

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
        if ms != tuple(self.multiples):
            raise ValueError(f"eps multiples must be integers, got {tuple(self.multiples)}")
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


# the geometric eps multiples of dt that schedules default to
_DEFAULT_MULTIPLES = (32, 16, 8, 4, 2, 1)


def default_schedule(grid: TimeGrid) -> EpsilonSchedule:
    """The default multiples truncated so that eps <= 0.1 * T, or (1,) when
    no eps fits."""
    cap = 0.1 * grid.T / grid.dt
    return EpsilonSchedule(tuple(m for m in _DEFAULT_MULTIPLES if m <= cap) or (1,))


def _check_eps(X: CadlagPath, Y: CadlagPath, eps: float) -> int:
    _check_grids(X, Y)
    grid = X.grid
    m = int(round(eps / grid.dt))
    if abs(m * grid.dt - eps) > 1e-9 * grid.dt:
        raise ValueError(f"eps={eps} is not a multiple of dt={grid.dt}")
    EpsilonSchedule((m,)).epsilons(grid)
    return m


def _cumsum0(x: np.ndarray) -> np.ndarray:
    """Cumulative sum with a leading zero along the last axis."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=out[..., 1:])
    return out


# Shifts of up to this many steps sum the tail offset by offset.  Near 32 the
# two tails cost about the same (n = 2^16: 5.0 against 4.1 ms; at m = 128,
# 15.6 against 4.4 ms), and every default schedule stops at 32, so default
# results keep the loop's bytes.
_LOOP_MAX_M = 32
# Nodes, over all rows, per run of chunks in the window tail, so that the
# run's temporaries stay in cache.
_RUN_NODES = 8192


def _shift_form(v: np.ndarray, m: int, w: np.ndarray | None = None) -> np.ndarray:
    """The one eps-shift kernel: (1/m) * sum of w_i (v_(i+m)^j - v_i) at every
    node j of every row (w is the increment itself when None), as the prefix
    sum of lag-m terms (i <= j-m) plus the clamped tail (i from j-m+1 to j-1).

    Up to ``_LOOP_MAX_M`` the tail is summed offset by offset, O(m*n); above
    it ``_window_tail`` takes it from window sums in O(n), which can differ
    from the loop in the last bits."""
    n1 = v.shape[-1]
    out = np.zeros_like(v)
    # in place: on (B, n+1) rows a fresh temporary costs more than the arithmetic
    if m < n1:
        d = v[..., m:] - v[..., :-m]
        np.multiply(d if w is None else w[..., :-m], d, out=d)
        np.cumsum(d, axis=-1, out=out[..., m:])
    if m > _LOOP_MAX_M and n1 > 1:
        _window_tail(v, min(m, n1) - 1, w, out)
    else:
        for off in range(1, min(m, n1)):
            d = v[..., off:] - v[..., :-off]
            out[..., off:] += np.multiply(d if w is None else w[..., :-off], d, out=d)
    out /= m
    return out


def _window_tail(v: np.ndarray, L: int, w: np.ndarray | None, out: np.ndarray) -> None:
    """Adds to ``out`` the tail of ``_shift_form`` over the window i in
    [j-L, j-1] (clipped at 0) of every node j, from window sums in O(n).

    With u = v minus a reference, the tail of node j is
    u_j * sum(w_i) - sum(w_i u_i), or c u_j^2 - 2 u_j sum(u_i) + sum(u_i^2)
    for the quadratic form (c terms), which is clamped at 0.  Rows are cut
    into chunks of L nodes, each recentred on its first node: the window of
    node r of chunk k is the prefix of chunk k before r plus the suffix of
    chunk k-1 from r on, taken against the reference of chunk k-1.  Every sum
    covers at most L terms of values at most 2L nodes apart, so no
    prefix-sum difference cancels and the rounding error stays of the order
    of the loop's (Higham, ch. 4).  Runs of chunks are processed together.
    """
    n1 = v.shape[-1]
    n_chunks = -(-n1 // L)
    step = max(1, _RUN_NODES // (L * math.prod(v.shape[:-1])))  # new chunks per run
    before = np.arange(L, dtype=np.float64)  # terms of node r's prefix; L - r in the suffix
    for first in range(0, n_chunks, step):
        lo, hi = max(first - 1, 0), min(first + step, n_chunks)
        a, b = lo * L, min(hi * L, n1)
        chunks = _chunks(v, a, b, hi - lo, L)
        ref = chunks[..., :1]
        u = chunks - ref
        f = u if w is None else _chunks(w, a, b, hi - lo, L)
        g = f * u
        # v_j against the reference of the chunk before
        shifted = u[..., 1:, :] + (ref[..., 1:, :] - ref[..., :-1, :])
        tail = _window_part(u, _cumsum0(f[..., :-1]), _cumsum0(g[..., :-1]), before, w is None)
        tail[..., 1:, :] += _window_part(
            shifted, _suffix(f)[..., :-1, :], _suffix(g)[..., :-1, :], L - before, w is None
        )
        if w is None:
            np.maximum(tail, 0.0, out=tail)
        tail = tail.reshape(tail.shape[:-2] + (-1,))
        out[..., first * L:b] += tail[..., (first - lo) * L:b - a]


def _window_part(uj: np.ndarray, f: np.ndarray, g: np.ndarray, count: np.ndarray,
                 quadratic: bool) -> np.ndarray:
    """One part of the window: uj * f - g, with f and g the part's sums of w
    and w*u, or uj * (count*uj - 2f) + g, with f and g its sums of u and u^2.
    Overwrites f."""
    if quadratic:
        f *= 2.0
        t = np.multiply(uj, count)
        t -= f
        t *= uj
        t += g
    else:
        t = np.multiply(uj, f, out=f)
        t -= g
    return t


def _chunks(x: np.ndarray, a: int, b: int, k: int, L: int) -> np.ndarray:
    """x[..., a:b] as k chunks of L nodes, zero-padded at the end."""
    seg = x[..., a:b]
    if b - a < k * L:
        seg = np.concatenate([seg, np.zeros(x.shape[:-1] + (k * L - (b - a),))], axis=-1)
    return seg.reshape(x.shape[:-1] + (k, L))


def _suffix(x: np.ndarray) -> np.ndarray:
    """Sums of each chunk's nodes from node r on, at every r."""
    s = np.empty_like(x)
    np.cumsum(x[..., ::-1], axis=-1, out=s[..., ::-1])
    return s


def _qv_eps(values: np.ndarray, m: int) -> np.ndarray:
    """Quadratic form trajectory for shift m: a sum of squares, so nonnegative."""
    return _shift_form(values, m)


def _fwd_eps(vy: np.ndarray, vx: np.ndarray, m: int) -> np.ndarray:
    """Forward-integral trajectory of integrand values vy against vx, shift m."""
    return _shift_form(vx, m, vy)


def _cov_eps(vx: np.ndarray, vy: np.ndarray, m: int, qx: np.ndarray | None = None) -> np.ndarray:
    """[X, Y]^eps by polarization, which keeps it symmetric in (X, Y) bit for
    bit; ``qx``, when given, is the [X, X]^eps trajectory already computed."""
    qx = _qv_eps(vx, m) if qx is None else qx
    return qx if vx is vy else 0.5 * (_qv_eps(vx + vy, m) - (qx + _qv_eps(vy, m)))


def covariation_eps(X: CadlagPath, Y: CadlagPath, eps: float) -> np.ndarray:
    """Trajectory t -> [X, Y]^eps(t) on every grid node."""
    return _cov_eps(X.values, Y.values, _check_eps(X, Y, eps))


def forward_integral_eps(Y: CadlagPath, X: CadlagPath, eps: float) -> np.ndarray:
    """Trajectory of the eps-regularized forward integral of Y against X."""
    return _fwd_eps(Y.values, X.values, _check_eps(X, Y, eps))


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
    converged: bool


def _sup_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = b - a
    return np.max(np.abs(d, out=d), axis=-1)


def _refinement(traj: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sup distances of successive trajectories (coarsest first), the one
    convergence rule, and the finest trajectory.  The rule is False where that
    distance grew across the last two refinements, so the three finest decide
    it; per row for a batch.  The trajectories are consumed one at a time and
    only the previous one is kept, so a generator holds at most two alive."""
    diffs, prev = [], None
    for cur in traj:
        if prev is not None:
            diffs.append(_sup_distance(prev, cur))
        prev = cur
    diffs = np.array(diffs)
    if len(diffs) < 2:
        return diffs, np.ones(prev.shape[:-1], dtype=bool), prev
    return diffs, ~(diffs[-1] > diffs[-2] * (1 + 1e-12)), prev


def _limit(
    X: CadlagPath, Y: CadlagPath, schedule: EpsilonSchedule, form: Callable[[int], np.ndarray]
) -> CovariationEstimate:
    """Estimate from the trajectories form(m), m over the schedule's multiples,
    each copied into its row of the estimate as soon as it is computed: no
    list of them and no stacked copy are held at once."""
    for path in (X, Y):
        _check_one_path(path, "a limit estimate")
    eps = schedule.epsilons(X.grid)
    _check_grids(X, Y)
    ms = schedule.multiples
    # the coarsest shift, whose kernel needs the most scratch, runs before the
    # rows are allocated
    first = form(ms[0])
    traj = np.empty((len(ms),) + first.shape)
    traj[0] = first
    del first
    for row, m in zip(traj[1:], ms[1:]):
        row[:] = form(m)
    diffs, converged, _ = _refinement(traj)
    return CovariationEstimate(
        grid=X.grid,
        eps_values=eps,
        trajectories=traj,
        limit=traj[-1].copy(),
        error_estimate=float(diffs[-1]) if diffs.size else 0.0,
        converged=bool(converged),
    )


def covariation_limit(
    X: CadlagPath, Y: CadlagPath, schedule: EpsilonSchedule
) -> CovariationEstimate:
    return _limit(X, Y, schedule, lambda m: _cov_eps(X.values, Y.values, m))


def _covariation_against(
    qv_x: CovariationEstimate, X: CadlagPath, Y: CadlagPath, schedule: EpsilonSchedule
) -> CovariationEstimate:
    """covariation_limit(X, Y, schedule), reading [X, X]^eps from ``qv_x``,
    the estimate of covariation_limit(X, X, schedule)."""
    qx = dict(zip(schedule.multiples, qv_x.trajectories))
    return _limit(X, Y, schedule, lambda m: _cov_eps(X.values, Y.values, m, qx[m]))


def forward_integral_limit(
    Y: CadlagPath, X: CadlagPath, schedule: EpsilonSchedule
) -> CovariationEstimate:
    return _limit(X, Y, schedule, lambda m: _fwd_eps(Y.values, X.values, m))


@dataclass(frozen=True)
class QvDecomposition:
    """Split of an estimated bracket into continuous and jump components."""

    continuous: np.ndarray
    jump: np.ndarray
    estimate: CovariationEstimate


def _jump_bracket(X: CadlagPath, Y: CadlagPath) -> np.ndarray:
    """The jump part of [X, Y], the running sum of dX dY, at every node."""
    return np.cumsum(X.jumps * Y.jumps)


def qv_decompose(X: CadlagPath, schedule: EpsilonSchedule) -> QvDecomposition:
    """Continuous / jump split of [X, X]: jump part from the jumps, exactly."""
    est = covariation_limit(X, X, schedule)
    jump = _jump_bracket(X, X)
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
) -> IdentityReport:
    """Checks [Y, Z] = sum of jump products when [Y, Y] has no continuous part.

    The precondition ([Y,Y]^c vanishing within twice the estimate's error
    bar, and at least 1e-10) is verified and reported, never silently assumed.
    """
    qv_y = qv_decompose(Y, schedule)
    tol = max(2.0 * qv_y.estimate.error_estimate, 1e-10)
    cont_sup = float(np.max(np.abs(qv_y.continuous)))
    pre_ok = cont_sup <= tol
    note = "" if pre_ok else (
        f"continuous bracket of first path is {cont_sup:.3g}, above tolerance {tol:.3g}"
    )
    est = _covariation_against(qv_y.estimate, Y, Z, schedule)
    rhs = _jump_bracket(Y, Z)
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
    rhs = _cumsum0(g[:-1] * np.diff(qv_x.continuous)) + _jump_bracket(img, img)
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
    cross_cont = cross.limit - _jump_bracket(X1, X2)
    img1, img2 = X1.map(phi), X2.map(psi)
    lhs_est = covariation_limit(img1, img2, schedule)
    g = np.asarray(dphi(X1.values), np.float64) * np.asarray(
        dpsi(X2.left_values()), np.float64
    )
    rhs = _cumsum0(g[:-1] * np.diff(cross_cont)) + _jump_bracket(img1, img2)
    return _identity_report("C1 cross-bracket stability", lhs_est.limit, rhs, (lhs_est, cross))

"""Martingale-problem residuals and their Monte Carlo hypothesis tests.

For a bounded C^{1,2} test function F and a path X with characteristics
(drift, C, compensator), the residual subtracts from F(t, X_t) - F(0, X_0) one
ds-integral of the time derivative, the compensated-jump rate, the
second-order term driven by dC + d[drift, drift]^c and a finite-variation
drift term, then a path-dependent drift's forward integral.  When the model is
correct the residual is a local martingale; at desk scale this is tested as
(a) zero mean at fixed times and (b) increment orthogonality against bounded
functionals of the earlier path, both at a configurable SE level.

All ds-integrals use the left-endpoint Riemann rule; the inner jump-law
expectation uses each law's fixed quadrature (exact for discrete atoms,
40-node Gauss rules otherwise); left limits at grid nodes feed the
compensated-jump integrand.  A test function is ``f`` plus one ``jet``,
which returns F and its three derivatives from shared subexpressions, F equal
to ``f`` bit for bit; only the compensator's quadrature loop, which needs F
alone at each node, calls ``f``.

One kernel assembles residuals, in blocks of 32 rows so that its (rows, n+1)
temporaries stay in cache; a per-path residual is a batch of one.  Ensembles
draw their paths from ``simulate_batch`` in batches of about 2^18 grid nodes,
whose (master_seed, path index) Philox streams are unchanged, so every sample
is the same bit for bit whatever the batch size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .characteristics import (
    CharacteristicsModel,
    TruncationFunction,
    _as_chars,
)
from .paths import CadlagPath, TimeGrid
from .regularize import (
    EpsilonSchedule,
    IdentityReport,
    covariation_limit,
    default_schedule,
    forward_integral_limit,
    _covariation_against,
    _cumsum0,
    _fwd_eps,
    _identity_report,
    _qv_eps,
    _refinement,
)
from .simulate import (
    BrownianMotion, ModelSpec, SeedSpec, law_expectation, simulate_batch, simulate_path,
)

__all__ = [
    "TestFunction",
    "exp_tanh",
    "damped_sine",
    "bump",
    "ResidualPath",
    "weak_dirichlet_residual",
    "semimartingale_residual",
    "ResidualEnsemble",
    "residual_ensemble",
    "MartingaleTestReport",
    "martingale_mean_test",
    "drift_orthogonality_probe",
]

# Rows per residual block: at n = 512 one (rows, n+1) temporary of 32 rows
# takes 131 kB, so the compensator's quadrature loop runs in cache.
_ROW_BLOCK = 32
# Grid nodes per simulated batch: 510 paths at n = 512, 15 at n = 2^14.  256
# Brownian paths at n = 2^14 then peak near 36 MB (tracemalloc) against 130 MB
# in one batch; from 15 to 4096 rows the time does not depend on the batch.
_BATCH_NODES = 2**18


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Bounded C^{1,2} function: ``f`` gives F, ``jet`` (F, dF/dt, dF/dx, d2F/dx2)."""

    __test__ = False  # not a pytest test class, whatever its name

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jet: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, ...]]
    bound: float
    name: str


def exp_tanh() -> TestFunction:
    """F(t, x) = exp(-t) * tanh(x)."""

    def f(t, x):
        return np.exp(-t) * np.tanh(x)

    def jet(t, x):
        e, th = np.exp(-t), np.tanh(x)
        f, sech2 = e * th, 1.0 - th**2
        return f, -f, e * sech2, -2.0 * e * th * sech2

    return TestFunction(f, jet, bound=1.0, name="exptanh")


def damped_sine() -> TestFunction:
    """F(t, x) = exp(-t) * sin(x)."""

    def f(t, x):
        return np.exp(-t) * np.sin(x)

    def jet(t, x):
        e = np.exp(-t)
        f = e * np.sin(x)
        return f, -f, e * np.cos(x), -f

    return TestFunction(f, jet, bound=1.0, name="dampedsine")


def bump() -> TestFunction:
    """Compactly supported C^2 bump in x, constant in t: (1 - (x/2)^2)^3."""
    a = 2.0

    def f(t, x):
        u = (np.asarray(x) / a) ** 2
        return np.where(u < 1.0, (1.0 - u) ** 3, 0.0) + 0.0 * np.asarray(t)

    def jet(t, x):
        t, x = np.asarray(t), np.asarray(x)
        u = (x / a) ** 2
        inside, v = u < 1.0, 1.0 - u
        return (np.where(inside, v**3, 0.0) + 0.0 * t, np.zeros(np.broadcast(t, x).shape),
                np.where(inside, -(6.0 * x / a**2) * v**2, 0.0),
                np.where(inside, (6.0 / a**2) * v * (5.0 * u - 1.0), 0.0))

    return TestFunction(f, jet, bound=1.0, name="bump")


# ---------------------------------------------------------------------------
# Residual construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualPath:
    """Residual trajectory and the convergence of its forward drift integral."""

    grid: TimeGrid
    values: np.ndarray
    forward_converged: bool = True


def _compensator_term(times: np.ndarray, left: np.ndarray, f_left: np.ndarray,
                      fx_left: np.ndarray, F: TestFunction,
                      laws: list[tuple[float, np.ndarray, np.ndarray, float]]) -> np.ndarray:
    """Compensated-jump rate at each node of (B, n+1) left-limit rows, given F and dF/dx there:
        sum of rate * E[F(s, X_{s-} + J) - F(s, X_{s-}) - k(J) dF/dx(s, X_{s-})]
    over ``laws``, the (rate, quadrature nodes, weights, E[k(J)]) of each
    compensator entry with a nonzero rate.
    """
    integrand = np.zeros_like(left)
    for rate, xq, wq, kbar in laws:
        acc = np.zeros_like(left)
        for x_i, w_i in zip(xq, wq):
            acc += w_i * F.f(times, left + x_i)
        integrand += rate * (acc - f_left - kbar * fx_left)
    return integrand


def _check_mode(chars: CharacteristicsModel, mode: str) -> None:
    if mode not in ("weak_dirichlet", "semimartingale"):
        raise ValueError(f"unknown residual mode {mode!r}")
    if mode == "semimartingale" and not chars.bk_finite_variation:
        raise ValueError("classical residual needs a finite-variation drift characteristic; "
                         "use weak_dirichlet mode for path-dependent drift")


def _residual_blocks(
    chars: CharacteristicsModel,
    grid: TimeGrid,
    values: np.ndarray,
    left: np.ndarray,
    bk: np.ndarray,
    F: TestFunction,
    mode: str,
    schedule: EpsilonSchedule | None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The one residual assembly.  For each block of up to ``_ROW_BLOCK``
    rows it yields the block's first row, its (rows, n+1) residual values and
    a (rows,) flag of forward-integral convergence.

    ``values``, ``left`` and ``bk`` hold one path per row: right values, left
    limits and the drift characteristic (``CharacteristicsModel.bk_values``; a
    single row broadcasts over the batch).  The mode, checked by the callers
    with ``_check_mode``, picks the drift integrand: dF/dx at right values for
    ``"weak_dirichlet"`` (forward-integral form), at left limits for
    ``"semimartingale"`` (classical Stieltjes form, finite-variation drift
    only).  F comes from one jet at right values, and from a second at left
    limits only when a compensator or that form needs them.  A path-dependent
    drift is integrated by the eps-regularized forward rule at the schedule's
    finest eps, and its continuous bracket enters the second-order term at the
    same eps, so the two discretization biases cancel.  Its flag applies the
    ``CovariationEstimate.converged`` rule to the three finest forward
    trajectories; a finite-variation drift converges.

    The residual is F(t, X_t) - F(0, X_0) less one left Riemann sum of
    (dF/dt + compensated-jump rate) ds + 1/2 d2F/dx2 d(C + [drift, drift]^c),
    plus dF/dx d(drift) for a finite-variation drift, and less the forward
    integral for a path-dependent one.

    Blocks keep the (rows, n+1) temporaries, above all those of the
    compensator's quadrature loop, in cache.  No operation mixes rows, so a
    row's bits do not depend on the block or batch it is computed in.
    """
    # a (1, n+1) row: against a batch of one, numpy runs the elementwise
    # loops faster than when it broadcasts a 1-D array
    times = grid.times()[None]
    dt = grid.dt
    c_inc = np.diff(chars.c_values(grid))
    laws = [(rate, *law.quadrature(), law_expectation(law, chars.truncation.fn))
            for rate, law in chars.compensators if rate != 0.0]
    if chars.drift_path_fn is not None:
        finest = (schedule or default_schedule(grid)).multiples[-3:]
    bk_per_row = bk.ndim == 2 and bk.shape[0] > 1
    needs_left = bool(laws) or mode == "semimartingale"

    for start in range(0, values.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        x, xl = values[rows], left[rows]
        b = bk[rows] if bk_per_row else bk

        fv, rate, integrand, fxx = F.jet(times, x)
        if needs_left:
            fl, _, fxl, _ = F.jet(times, xl)
            if mode == "semimartingale":
                integrand = fxl
        inc = c_inc
        converged = np.ones(x.shape[0], dtype=bool)
        fwd = None
        if chars.drift_path_fn is not None:
            _, converged, fwd = _refinement(_fwd_eps(integrand, b, m) for m in finest)
            inc = inc + np.diff(_qv_eps(b, finest[-1]))
        if laws:
            rate = rate + _compensator_term(times, xl, fl, fxl, F, laws)
        ds = rate[..., :-1] * dt + 0.5 * fxx[..., :-1] * inc
        if fwd is None:
            ds += integrand[..., :-1] * np.diff(b)

        residual = fv - fv[..., :1] - _cumsum0(ds)
        if fwd is not None:
            residual -= fwd
        yield start, residual, converged


def _path_residual(
    X: CadlagPath,
    chars: CharacteristicsModel,
    F: TestFunction,
    mode: str,
    schedule: EpsilonSchedule | None = None,
) -> ResidualPath:
    """Per-path residual: the one block of the batch-of-one kernel call."""
    _check_mode(chars, mode)
    [(_, values, converged)] = _residual_blocks(
        chars, X.grid, X.values[None], X.left_values()[None],
        chars.bk_values(X)[None], F, mode, schedule,
    )
    return ResidualPath(X.grid, values[0], bool(converged[0]))


def weak_dirichlet_residual(
    X: CadlagPath,
    model: ModelSpec | CharacteristicsModel,
    k: TruncationFunction,
    F: TestFunction,
    schedule: EpsilonSchedule | None = None,
) -> ResidualPath:
    """Residual of the expansion for weak Dirichlet characteristics.

    Terms, in order: F(t, X_t) - F(0, X_0); minus the time-derivative
    integral; minus half the second-derivative integral against
    dC + d[drift, drift]^c; minus the forward drift integral (exact Riemann
    when the drift characteristic is finite variation, eps-regularized when it
    is path dependent); minus the compensated-jump correction.
    ``forward_converged`` is that forward integral's convergence over the
    schedule, judged as ``CovariationEstimate.converged``.
    """
    return _path_residual(X, _as_chars(model, k), F, "weak_dirichlet", schedule)


def semimartingale_residual(
    X: CadlagPath,
    model: ModelSpec | CharacteristicsModel,
    k: TruncationFunction,
    F: TestFunction,
) -> ResidualPath:
    """Classical expansion residual: finite-variation drift characteristic,
    Stieltjes drift integral with left-limit integrand, no drift-bracket term.
    """
    return _path_residual(X, _as_chars(model, k), F, "semimartingale")


# ---------------------------------------------------------------------------
# Ensemble residuals and martingale statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualEnsemble:
    """Residual and path samples at the declared test and probe times."""

    times: tuple[float, ...]              # test times t
    residual_at: dict[float, np.ndarray]  # time -> (N,) residual samples
    path_at: dict[float, np.ndarray]      # probe time -> (N,) path values
    n_paths: int
    meta: dict = field(default_factory=dict)


def _probe_plan(times: Sequence[float]) -> tuple[tuple[float, ...], dict[float, tuple[float, float]]]:
    """For each test time t, declare earlier times (t/4, t/2) for functionals."""
    plan: dict[float, tuple[float, float]] = {}
    probes: list[float] = []
    for t in times:
        s1, s2 = t / 4.0, t / 2.0
        plan[t] = (s1, s2)
        probes.extend([s1, s2])
    return tuple(sorted(set(probes))), plan


def residual_ensemble(
    model: ModelSpec,
    grid: TimeGrid,
    k: TruncationFunction,
    F: TestFunction,
    master_seed: int,
    n_paths: int,
    times: Sequence[float] = (0.25, 0.5, 1.0),
    mode: str = "weak_dirichlet",
    schedule: EpsilonSchedule | None = None,
    batch_size: int | None = None,
) -> ResidualEnsemble:
    """Residual samples over an ensemble, batched; bit-identical across
    batch sizes (per-path substreams, single final reduction).  Each batch
    goes through the same kernel as the per-path residuals, so every sample
    equals the matching per-path residual bit for bit.

    ``batch_size`` paths are simulated at a time; by default as many as fit
    in ``_BATCH_NODES`` grid nodes, at least one.  It bounds memory and
    changes no result.  An empty ``times`` and a simulated path with a
    non-finite value raise ``ValueError``.  ``meta`` reports the count of
    paths whose forward drift integral did not converge, the node jumps of all
    paths, the grid times the probes snapped to, and the seconds spent
    simulating (with the drift characteristic) and assembling residuals.
    """
    chars = _as_chars(model, k)
    _check_mode(chars, mode)
    if len(times) == 0:
        raise ValueError("need at least one test time")
    if batch_size is None:
        batch_size = max(1, _BATCH_NODES // grid.n_nodes)
    elif batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    s_idx = {s: grid.index_of(s) for s in _probe_plan(times)[0]}
    # residual increments need M at probe times too
    m_idx = {t: grid.index_of(t) for t in sorted(set(times) | set(s_idx))}

    res_at = {t: np.empty(n_paths) for t in m_idx}
    path_at = {s: np.empty(n_paths) for s in s_idx}
    nonconverged = jumps = 0
    seconds = {"simulate": 0.0, "residual": 0.0}

    for start in range(0, n_paths, batch_size):
        clock = time.perf_counter()
        stop = min(start + batch_size, n_paths)
        batch = simulate_batch(model, grid, master_seed, range(start, stop))
        finite = np.isfinite(batch.values).all(axis=1)
        if not finite.all():
            raise ValueError(f"simulated path {start + int(np.argmin(finite))} holds a "
                             "non-finite value (the model is too large for float64)")
        paths, left, bk = batch.values, batch.left_values(), chars.bk_values(batch)
        jumps += int(np.count_nonzero(batch.jumps))
        del batch  # the kernel reads no component or jump rows: free them first
        for s, i in s_idx.items():
            path_at[s][start:stop] = paths[:, i]
        seconds["simulate"] += time.perf_counter() - clock

        clock = time.perf_counter()
        blocks = _residual_blocks(chars, grid, paths, left, bk, F, mode, schedule)
        for first, values, converged in blocks:
            nonconverged += int(np.count_nonzero(~converged))
            rows = slice(start + first, start + first + len(values))
            for t, i in m_idx.items():
                res_at[t][rows] = values[:, i]
        seconds["residual"] += time.perf_counter() - clock

    return ResidualEnsemble(
        times=tuple(times),
        residual_at=res_at,
        path_at=path_at,
        n_paths=n_paths,
        meta={
            "forward_nonconverged": nonconverged,
            "jumps": jumps,
            "probe_nodes": [{"probe": s, "grid_time": float(grid.times()[i])}
                            for s, i in s_idx.items()],
            "seconds": seconds,
        },
    )


@dataclass(frozen=True)
class OrthogonalityStat:
    g: str
    s: float
    t: float
    value: float
    se: float
    z: float
    passed: bool


@dataclass(frozen=True)
class MartingaleTestReport:
    """Zero-mean and increment-orthogonality verdicts for a residual ensemble."""

    times: tuple[float, ...]
    means: tuple[float, ...]
    ses: tuple[float, ...]
    zscores: tuple[float, ...]
    orthogonality: tuple[OrthogonalityStat, ...]
    alpha_se: float
    n_paths: int
    passed: bool

    def to_dict(self) -> dict:
        # JSON has no infinity: the z of a nonzero mean with zero spread is null
        return {
            "times": list(self.times),
            "means": list(self.means),
            "ses": list(self.ses),
            "zscores": [z if np.isfinite(z) else None for z in self.zscores],
            "orthogonality": [
                {
                    "g": o.g, "s": o.s, "t": o.t,
                    "value": o.value, "se": o.se, "pass": o.passed,
                    "z": o.z if np.isfinite(o.z) else None,
                }
                for o in self.orthogonality
            ],
            "alpha_se": self.alpha_se,
            "n_paths": self.n_paths,
            "pass": self.passed,
        }


def _zstat(samples: np.ndarray) -> tuple[float, float, float]:
    """(mean, se, z) with the exact-zero fast path for degenerate ensembles."""
    n = samples.size
    mean = float(np.mean(samples))
    sd = float(np.std(samples, ddof=1)) if n > 1 else 0.0
    if sd == 0.0:
        return mean, 0.0, 0.0 if mean == 0.0 else float("inf")
    se = float(sd / np.sqrt(n))
    return mean, se, mean / se


def martingale_mean_test(residuals: ResidualEnsemble, alpha_se: float = 3.0) -> MartingaleTestReport:
    """Per-time z-scores of the ensemble's residual means, plus orthogonality
    statistics E[(M_t - M_s) g(path values at earlier times)] for
    g in {1, tanh(X_s), sin(X_{s1}) sin(X_{s2})}; a statistic passes when
    |z| <= alpha_se, at each of the ensemble's test times.
    """
    ens, times = residuals, residuals.times
    if ens.n_paths < 1:
        raise ValueError("empty ensemble")

    _, plan = _probe_plan(times)
    means, ses, zs = [], [], []
    all_pass = True
    for t in times:
        mean, se, z = _zstat(ens.residual_at[t])
        means.append(mean)
        ses.append(se)
        zs.append(z)
        all_pass &= abs(z) <= alpha_se

    orth: list[OrthogonalityStat] = []
    for t in times:
        s1, s2 = plan[t]
        inc = ens.residual_at[t] - ens.residual_at[s2]
        fams = (
            ("1", np.ones(ens.n_paths)),
            ("tanh(X_s)", np.tanh(ens.path_at[s2])),
            ("sin(X_s1)sin(X_s2)", np.sin(ens.path_at[s1]) * np.sin(ens.path_at[s2])),
        )
        for gname, gvals in fams:
            mean, se, z = _zstat(inc * gvals)
            ok = abs(z) <= alpha_se
            all_pass &= ok
            orth.append(OrthogonalityStat(gname, s2, t, mean, se, z, ok))

    return MartingaleTestReport(
        times=tuple(times),
        means=tuple(means),
        ses=tuple(ses),
        zscores=tuple(zs),
        orthogonality=tuple(orth),
        alpha_se=alpha_se,
        n_paths=ens.n_paths,
        passed=bool(all_pass),
    )


def drift_orthogonality_probe(
    X: CadlagPath,
    model: ModelSpec | CharacteristicsModel,
    k: TruncationFunction,
    F: TestFunction,
    schedule: EpsilonSchedule,
) -> list[IdentityReport]:
    """Covariation of the drift-integral process against continuous martingale
    probes; the limit should vanish.  The probes: the path's continuous
    martingale component sample (when logged) and an independent Brownian path
    (master seed 977, path 0).
    """
    chars = _as_chars(model, k)
    grid = X.grid
    fx = F.jet(grid.times(), X.values)[2]
    bk = CadlagPath(grid, chars.bk_values(X))
    fwd = forward_integral_limit(CadlagPath(grid, fx), bk, schedule)
    integral_path = CadlagPath(grid, fwd.limit)

    probes = []
    if X.components and "bm" in X.components:
        probes.append(("continuous component", X.components["bm"]))
    indep = simulate_path(BrownianMotion(1.0), grid, SeedSpec(977, 0))
    probes.append(("independent brownian", indep))

    qv_integral = covariation_limit(integral_path, integral_path, schedule)
    reports = []
    for name, probe in probes:
        est = _covariation_against(qv_integral, integral_path, probe, schedule)
        reports.append(_identity_report(
            f"drift-integral orthogonality vs {name}", est.limit, np.zeros_like(est.limit), (est, fwd)
        ))
    return reports

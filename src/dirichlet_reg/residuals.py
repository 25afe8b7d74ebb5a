"""Martingale-problem residuals and their Monte Carlo hypothesis tests.

For a bounded C^{1,2} test function F and a path X with characteristics
(drift, C, compensator), the residual subtracts from F(t, X_t) the time
derivative, the second-order term driven by dC + d[drift, drift]^c, the
drift-integral term, and the compensated-jump correction.  When the model is
correct the residual is a local martingale; at desk scale this is tested as
(a) zero mean at fixed times and (b) increment orthogonality against
bounded functionals of the earlier path, both at a configurable SE level.

All ds-integrals use the left-endpoint Riemann rule; the inner jump-law
expectation uses each law's fixed quadrature (exact for discrete atoms,
40-node Gauss rules otherwise); left limits at grid nodes feed the
compensated-jump integrand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    _QUAD_NODES, BrownianMotion, ModelSpec, SeedSpec, law_expectation, simulate_batch,
    simulate_path,
)

__all__ = [
    "TestFunction",
    "exp_tanh",
    "damped_sine",
    "bump",
    "time_homogeneous",
    "combine_test_functions",
    "ResidualPath",
    "weak_dirichlet_residual",
    "semimartingale_residual",
    "ResidualEnsemble",
    "residual_ensemble",
    "MartingaleTestReport",
    "martingale_mean_test",
    "drift_orthogonality_probe",
]


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Bounded C^{1,2} function with evaluators for F, dF/dt, dF/dx, d2F/dx2."""

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ft: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fx: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fxx: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound: float
    name: str


def exp_tanh() -> TestFunction:
    """F(t, x) = exp(-t) * tanh(x)."""

    def f(t, x):
        return np.exp(-t) * np.tanh(x)

    def ft(t, x):
        return -np.exp(-t) * np.tanh(x)

    def fx(t, x):
        return np.exp(-t) * (1.0 - np.tanh(x) ** 2)

    def fxx(t, x):
        th = np.tanh(x)
        return -2.0 * np.exp(-t) * th * (1.0 - th**2)

    return TestFunction(f, ft, fx, fxx, bound=1.0, name="exptanh")


def damped_sine() -> TestFunction:
    """F(t, x) = exp(-t) * sin(x)."""

    def f(t, x):
        return np.exp(-t) * np.sin(x)

    def ft(t, x):
        return -np.exp(-t) * np.sin(x)

    def fx(t, x):
        return np.exp(-t) * np.cos(x)

    def fxx(t, x):
        return -np.exp(-t) * np.sin(x)

    return TestFunction(f, ft, fx, fxx, bound=1.0, name="dampedsine")


def bump(halfwidth: float = 2.0) -> TestFunction:
    """Compactly supported C^2 bump in x, constant in t: (1 - (x/a)^2)^3."""
    a = float(halfwidth)

    def f(t, x):
        u = (np.asarray(x) / a) ** 2
        return np.where(u < 1.0, (1.0 - u) ** 3, 0.0) + 0.0 * np.asarray(t)

    def ft(t, x):
        return np.zeros(np.broadcast(np.asarray(t), np.asarray(x)).shape)

    def fx(t, x):
        x = np.asarray(x)
        u = (x / a) ** 2
        return np.where(u < 1.0, -(6.0 * x / a**2) * (1.0 - u) ** 2, 0.0)

    def fxx(t, x):
        x = np.asarray(x)
        u = (x / a) ** 2
        val = (6.0 / a**2) * (1.0 - u) * (5.0 * u - 1.0)
        return np.where(u < 1.0, val, 0.0)

    return TestFunction(f, ft, fx, fxx, bound=1.0, name="bump")


def time_homogeneous(
    f: Callable, fx: Callable, fxx: Callable, bound: float, name: str
) -> TestFunction:
    """Wraps x-only evaluators into a TestFunction with dF/dt = 0."""

    def F(t, x):
        return np.asarray(f(x), np.float64) + 0.0 * np.asarray(t)

    def Ft(t, x):
        return np.zeros(np.broadcast(np.asarray(t), np.asarray(x)).shape)

    def Fx(t, x):
        return np.asarray(fx(x), np.float64) + 0.0 * np.asarray(t)

    def Fxx(t, x):
        return np.asarray(fxx(x), np.float64) + 0.0 * np.asarray(t)

    return TestFunction(F, Ft, Fx, Fxx, bound=bound, name=name)


def combine_test_functions(a: float, F: TestFunction, b: float, G: TestFunction) -> TestFunction:
    return TestFunction(
        f=lambda t, x: a * F.f(t, x) + b * G.f(t, x),
        ft=lambda t, x: a * F.ft(t, x) + b * G.ft(t, x),
        fx=lambda t, x: a * F.fx(t, x) + b * G.fx(t, x),
        fxx=lambda t, x: a * F.fxx(t, x) + b * G.fxx(t, x),
        bound=abs(a) * F.bound + abs(b) * G.bound,
        name=f"{a}*{F.name}+{b}*{G.name}",
    )


# ---------------------------------------------------------------------------
# Residual construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualPath:
    """Residual trajectory with its additive term breakdown (sums to values)."""

    grid: TimeGrid
    values: np.ndarray
    terms: dict[str, np.ndarray]
    forward_converged: bool = True

    def at(self, t: float) -> float:
        return float(self.values[self.grid.index_of(t)])


def _compensator_term(
    chars: CharacteristicsModel,
    times: np.ndarray,
    left: np.ndarray,
    F: TestFunction,
    dt: float,
    atom_idx: np.ndarray,
) -> np.ndarray:
    """Cumulative compensated-jump correction over (B, n+1) rows.

    Continuous part: left Riemann sum of
        rate * E[F(s, X_{s-} + J) - F(s, X_{s-}) - k(J) dF/dx(s, X_{s-})],
    plus fixed-atom contributions at their nodes ``atom_idx``.
    """
    k = chars.truncation
    integrand = np.zeros_like(left)
    base_f = None
    base_fx = None
    for rate, law in chars.compensators:
        if rate == 0.0:
            continue
        if base_f is None:
            base_f = F.f(times, left)
            base_fx = F.fx(times, left)
        xq, wq = law.quadrature()
        kbar = law_expectation(law, k.fn)
        acc = np.zeros_like(left)
        for x_i, w_i in zip(xq, wq):
            acc += w_i * F.f(times, left + x_i)
        integrand += rate * (acc - base_f - kbar * base_fx)
    out = _cumsum0(integrand[..., :-1] * dt)
    for i, (_, atoms) in zip(atom_idx, chars.fixed_atoms):
        ts = times[0, i]
        # scalar evaluation row by row: numpy's vector and scalar loops for
        # transcendentals may differ in the last bit, and a residual row must
        # not depend on the batch it is computed in
        for row, xl in zip(out, left[:, i]):
            f0, fx0 = F.f(ts, xl), F.fx(ts, xl)
            row[i:] += sum(
                w_a * (F.f(ts, xl + x_a) - f0 - float(k(np.float64(x_a))) * fx0)
                for x_a, w_a in atoms
            )
    return out


def _check_mode(chars: CharacteristicsModel, mode: str) -> None:
    if mode not in ("weak_dirichlet", "semimartingale"):
        raise ValueError(f"unknown residual mode {mode!r}")
    if mode == "semimartingale" and not chars.bk_finite_variation:
        raise ValueError("classical residual needs a finite-variation drift characteristic; "
                         "use weak_dirichlet mode for path-dependent drift")


def _residual_rows(
    chars: CharacteristicsModel,
    grid: TimeGrid,
    values: np.ndarray,
    left: np.ndarray,
    bk: np.ndarray,
    F: TestFunction,
    mode: str,
    schedule: EpsilonSchedule | None,
) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """The one residual assembly: (B, n+1) rows of residual values and terms,
    and a (B,) flag of forward-integral convergence.

    ``values``, ``left`` and ``bk`` hold one path per row: right values, left
    limits and the drift characteristic (``CharacteristicsModel.bk_values``; a
    single row broadcasts over the batch).  The mode, checked by the callers
    with ``_check_mode``, picks the drift integrand: dF/dx at right values for
    ``"weak_dirichlet"`` (forward-integral form), at left limits for
    ``"semimartingale"`` (classical Stieltjes form, finite-variation drift
    only).  A path-dependent drift is integrated by the eps-regularized forward
    rule at the schedule's finest eps, and its continuous bracket enters the
    second-order term at the same eps, so the two discretization biases
    cancel.  Its flag applies the ``CovariationEstimate.converged`` rule to the
    three finest forward trajectories; a finite-variation drift converges.
    Fixed atoms of the compensator sit at ``atom_k_integrals`` nodes: their
    k-jumps leave the continuous drift and enter the drift term with a
    left-limit integrand, and their jump correction enters the compensator.
    """
    # a (1, n+1) row: against a batch of one, numpy runs the elementwise
    # loops faster than when it broadcasts a 1-D array
    times = grid.times()[None]
    dt = grid.dt

    atom_idx, atom_sizes = chars.atom_k_integrals(grid)
    if atom_idx.size:
        bk = bk - np.cumsum(chars._atom_steps(grid))

    fv = F.f(times, values)
    term_value = fv - fv[..., :1]
    term_time = -_cumsum0(F.ft(times, values)[..., :-1] * dt)

    inc = np.diff(chars.c_values(grid))
    integrand = F.fx(times, values if mode == "weak_dirichlet" else left)
    converged = np.ones(values.shape[0], dtype=bool)
    if chars.drift_path_fn is not None:
        finest = (schedule or default_schedule(grid)).multiples[-3:]
        fwd = [_fwd_eps(integrand, bk, m) for m in finest]
        _, converged = _refinement(fwd)
        inc = inc + np.diff(_qv_eps(bk, finest[-1]))
        term_drift = -fwd[-1]
    else:
        term_drift = -_cumsum0(integrand[..., :-1] * np.diff(bk))
    term_second = -0.5 * _cumsum0(F.fxx(times, values)[..., :-1] * inc)
    if atom_idx.size:
        fx_left = F.fx(times, left)
        for i, s in zip(atom_idx, atom_sizes):
            term_drift[..., i:] -= (fx_left[..., i] * s)[..., None]

    terms = {
        "value": term_value,
        "time": term_time,
        "second_order": term_second,
        "drift": term_drift,
        "compensator": -_compensator_term(chars, times, left, F, dt, atom_idx),
    }
    return sum(terms.values()), terms, converged


def _path_residual(
    X: CadlagPath,
    chars: CharacteristicsModel,
    F: TestFunction,
    mode: str,
    schedule: EpsilonSchedule | None = None,
) -> ResidualPath:
    """Per-path residual: row 0 of the batch-of-one kernel call."""
    _check_mode(chars, mode)
    values, terms, converged = _residual_rows(
        chars, X.grid, X.values[None], X.left_values()[None],
        chars.bk_values(X)[None], F, mode, schedule,
    )
    return ResidualPath(
        X.grid, values[0], {name: t[0] for name, t in terms.items()}, bool(converged[0])
    )


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
    probe_times: tuple[float, ...]        # earlier times carrying path values
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
    batch_size: int = 1024,
    inject_drift: float = 0.0,
) -> ResidualEnsemble:
    """Residual samples over an ensemble, batched; bit-identical across
    batch sizes (per-path substreams, single final reduction).  Each batch
    goes through the same kernel as the per-path residuals, so every sample
    equals the matching per-path residual bit for bit.

    ``inject_drift`` adds a deliberate linear drift to every residual and is
    the negative control for the martingale tests.
    """
    chars = _as_chars(model, k)
    _check_mode(chars, mode)
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    probe_times, _ = _probe_plan(times)
    s_idx = {s: grid.index_of(s) for s in probe_times}
    # residual increments need M at probe times too
    m_idx = {t: grid.index_of(t) for t in sorted(set(times) | set(probe_times))}

    res_at = {t: np.empty(n_paths) for t in m_idx}
    path_at = {s: np.empty(n_paths) for s in probe_times}
    nonconverged = 0

    for start in range(0, n_paths, batch_size):
        stop = min(start + batch_size, n_paths)
        batch = simulate_batch(model, grid, master_seed, range(start, stop))
        paths, left, bk = batch.values, batch.left_values(), chars.bk_values(batch)
        del batch  # the kernel reads no component or jump rows: free them first
        values, _, converged = _residual_rows(chars, grid, paths, left, bk, F, mode, schedule)
        nonconverged += int(np.count_nonzero(~converged))
        if inject_drift:
            values = values + inject_drift * grid.times()
        for t, i in m_idx.items():
            res_at[t][start:stop] = values[:, i]
        for s, i in s_idx.items():
            path_at[s][start:stop] = paths[:, i]

    return ResidualEnsemble(
        times=tuple(times),
        probe_times=probe_times,
        residual_at=res_at,
        path_at=path_at,
        n_paths=n_paths,
        meta={
            "model": repr(model),
            "truncation": k.name,
            "function": F.name,
            "mode": mode,
            "master_seed": master_seed,
            "quadrature_nodes": _QUAD_NODES,
            "grid": {"T": grid.T, "n_steps": grid.n_steps},
            "forward_nonconverged": nonconverged,
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
        return {
            "times": list(self.times),
            "means": list(self.means),
            "ses": list(self.ses),
            "zscores": list(self.zscores),
            "orthogonality": [
                {
                    "g": o.g, "s": o.s, "t": o.t,
                    "value": o.value, "se": o.se, "z": o.z, "pass": o.passed,
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
    probes: Sequence[CadlagPath] | None = None,
    probe_seed: int = 977,
) -> list[IdentityReport]:
    """Covariation of the drift-integral process against continuous martingale
    probes; the limit should vanish.  Default probes: the path's continuous
    martingale component sample (when logged) and an independent Brownian path.
    """
    chars = _as_chars(model, k)
    grid = X.grid
    fx = F.fx(grid.times(), X.values)
    bk = chars.bk_path(X)
    fwd = forward_integral_limit(CadlagPath(grid, fx), bk, schedule)
    integral_path = CadlagPath(grid, fwd.limit)

    if probes is None:
        probes = []
        if X.components and "bm" in X.components:
            probes.append(("continuous component", X.components["bm"]))
        indep = simulate_path(BrownianMotion(1.0), grid, SeedSpec(probe_seed, 0))
        probes.append(("independent brownian", indep))
    else:
        probes = [(f"probe {i}", p) for i, p in enumerate(probes)]

    qv_integral = covariation_limit(integral_path, integral_path, schedule)
    reports = []
    for name, probe in probes:
        est = _covariation_against(qv_integral, integral_path, probe, schedule)
        reports.append(_identity_report(
            f"drift-integral orthogonality vs {name}", est.limit, np.zeros_like(est.limit), (est, fwd)
        ))
    return reports

import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dirichlet_reg import (
    BrownianMotion,
    CadlagPath,
    CharacteristicsModel,
    Composite,
    CompoundPoisson,
    DeterministicDrift,
    DiscreteAtoms,
    EpsilonSchedule,
    FractionalBrownianMotion,
    GaussianJumps,
    LevyJumpDiffusion,
    ResidualEnsemble,
    SeedSpec,
    TestFunction,
    TimeGrid,
    UniformJumps,
    bump,
    convert_truncation,
    covariation_limit,
    damped_sine,
    default_schedule,
    drift_orthogonality_probe,
    exp_tanh,
    forward_integral_limit,
    known_characteristics,
    martingale_mean_test,
    residual_ensemble,
    semimartingale_residual,
    simulate_path,
    smooth_clip_truncation,
    standard_truncation,
    weak_dirichlet_residual,
)
from dirichlet_reg import residuals

STD = standard_truncation()
ALL_FUNCTIONS = [exp_tanh(), damped_sine(), bump()]

FAMILIES = {
    "brownian": BrownianMotion(1.0),
    "fbm": FractionalBrownianMotion(0.7, 0.5),
    "compound_poisson": CompoundPoisson(2.0, GaussianJumps(0.1, 0.3)),
    "jump_diffusion": LevyJumpDiffusion(0.3, 1.0, 2.0, UniformJumps(-0.8, 1.6)),
    "drift": DeterministicDrift(lambda t: np.sin(3.0 * t) + t**2),
    "composite": Composite(
        (
            BrownianMotion(1.0),
            FractionalBrownianMotion(0.7, 0.5),
            CompoundPoisson(1.0, DiscreteAtoms((0.5, -0.5), (0.5, 0.5))),
        )
    ),
}
ROUGH = {"fbm", "composite"}  # path-dependent drift: weak_dirichlet form only
FAMILY_MODES = [
    (name, mode)
    for name in FAMILIES
    for mode in ("weak_dirichlet", "semimartingale")
    if mode == "weak_dirichlet" or name not in ROUGH
]


class TestTestFunctions:
    @pytest.mark.parametrize("F", ALL_FUNCTIONS, ids=lambda F: F.name)
    def test_finite_difference_consistency(self, F):
        h = 1e-4
        ts = np.linspace(0.0, 1.0, 7)
        xs = np.linspace(-3.0, 3.0, 41)
        T, X = np.meshgrid(ts, xs)
        fx_fd = (F.f(T, X + h) - F.f(T, X - h)) / (2 * h)
        ft_fd = (F.f(T + h, X) - F.f(T - h, X)) / (2 * h)
        fxx_fd = (F.f(T, X + h) - 2 * F.f(T, X) + F.f(T, X - h)) / h**2
        scale = 10 * h**2
        f, ft, fx, fxx = F.jet(T, X)
        assert np.max(np.abs(fx - fx_fd)) <= scale * 10
        assert np.max(np.abs(ft - ft_fd)) <= scale * 10
        assert np.max(np.abs(fxx - fxx_fd)) <= scale * 100
        # the jet's F is f bit for bit, on the meshgrid and on the kernel's
        # shapes: a (1, n+1) time row against (32, n+1) path values
        assert f.tobytes() == F.f(T, X).tobytes()
        row = np.linspace(0.0, 1.0, 65)[None]
        values = np.random.default_rng(0).normal(0.0, 2.0, (32, 65))
        f = F.jet(row, values)[0]
        assert f.shape == values.shape
        assert f.tobytes() == F.f(row, values).tobytes()

    @pytest.mark.parametrize("F", ALL_FUNCTIONS, ids=lambda F: F.name)
    def test_bounded(self, F):
        T, X = np.meshgrid(np.linspace(0, 5, 11), np.linspace(-50, 50, 2001))
        assert np.max(np.abs(F.f(T, X))) <= 1.0 + 1e-12


class TestResidualConstruction:
    def test_deterministic_drift_reduces_to_chain_rule(self):
        grid = TimeGrid(1.0, 2000)
        model = DeterministicDrift(lambda t: t)
        X = simulate_path(model, grid, SeedSpec(0, 0))
        for F in ALL_FUNCTIONS:
            r = weak_dirichlet_residual(X, model, STD, F)
            assert np.max(np.abs(r.values)) <= 5 * grid.dt * 3.0

    def test_deterministic_drift_classical_form(self):
        grid = TimeGrid(1.0, 2000)
        model = DeterministicDrift(lambda t: t)
        X = simulate_path(model, grid, SeedSpec(0, 0))
        r = semimartingale_residual(X, model, STD, damped_sine())
        assert np.max(np.abs(r.values)) <= 5 * grid.dt * 3.0

    def test_starts_at_zero(self):
        grid = TimeGrid(1.0, 500)
        model = LevyJumpDiffusion(0.2, 1.0, 2.0, GaussianJumps(0.0, 0.3))
        X = simulate_path(model, grid, SeedSpec(2, 0))
        r = weak_dirichlet_residual(X, model, STD, exp_tanh())
        assert r.values[0] == 0.0

    def test_brownian_forms_agree_exactly(self):
        # drift characteristic vanishes: both formulations build the same sums
        grid = TimeGrid(1.0, 1000)
        model = BrownianMotion(1.0)
        X = simulate_path(model, grid, SeedSpec(5, 0))
        ra = weak_dirichlet_residual(X, model, STD, bump())
        rb = semimartingale_residual(X, model, STD, bump())
        assert np.max(np.abs(ra.values - rb.values)) <= 1e-10

    def test_jump_diffusion_forms_agree_within_estimator_error(self):
        grid = TimeGrid(1.0, 1000)
        model = LevyJumpDiffusion(0.4, 1.0, 2.0, UniformJumps(-0.5, 0.5))
        X = simulate_path(model, grid, SeedSpec(6, 0))
        ra = weak_dirichlet_residual(X, model, STD, exp_tanh())
        rb = semimartingale_residual(X, model, STD, exp_tanh())
        # both integrate the same linear drift; integrand differs only at jumps
        n_jumps = X.jump_indices.size
        assert np.max(np.abs(ra.values - rb.values)) <= (n_jumps + 1) * grid.dt

    @pytest.mark.parametrize("form", [weak_dirichlet_residual, semimartingale_residual],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("F", ALL_FUNCTIONS, ids=lambda F: F.name)
    def test_truncation_invariance_after_conversion(self, form, F):
        # the k-shift of the drift and the -k(x) dF/dx compensator term cancel
        grid = TimeGrid(1.0, 2000)
        smooth = smooth_clip_truncation()
        model = LevyJumpDiffusion(0.3, 1.0, 2.0, UniformJumps(0.2, 1.8))
        X = simulate_path(model, grid, SeedSpec(7, 0))
        base = known_characteristics(model, STD)
        conv = convert_truncation(model, STD, smooth)
        r_std = form(X, base, STD, F)
        r_sm = form(X, conv, smooth, F)
        assert np.max(np.abs(r_std.values - r_sm.values)) <= 1e-8

    def test_linearity_in_test_function(self):
        grid = TimeGrid(1.0, 500)
        model = CompoundPoisson(2.0, GaussianJumps(0.0, 0.4))
        X = simulate_path(model, grid, SeedSpec(8, 0))
        F, G = exp_tanh(), damped_sine()
        a, b = 0.6, -1.2
        rF = weak_dirichlet_residual(X, model, STD, F)
        rG = weak_dirichlet_residual(X, model, STD, G)
        C = TestFunction(
            f=lambda t, x: a * F.f(t, x) + b * G.f(t, x),
            jet=lambda t, x: tuple(a * p + b * q for p, q in zip(F.jet(t, x), G.jet(t, x))),
            name="combined",
        )
        rC = weak_dirichlet_residual(X, model, STD, C)
        assert np.max(np.abs(rC.values - (a * rF.values + b * rG.values))) <= 1e-12

    @pytest.mark.parametrize("form", [weak_dirichlet_residual, semimartingale_residual],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("x_a", [0.5, 2.0])
    def test_compound_poisson_residual_structure(self, form, x_a):
        # time-homogeneous F: residual = F-increments minus the compensator sum,
        # for jumps inside (0.5) and outside (2.0) the truncation cutoff; the
        # symmetric law has no drift and no -k(x) dF/dx term
        grid = TimeGrid(1.0, 400)
        rate = 3.0
        model = CompoundPoisson(rate, DiscreteAtoms((x_a, -x_a), (0.5, 0.5)))
        X = simulate_path(model, grid, SeedSpec(9, 0))
        assert X.jump_indices.size > 0
        def tanh_jet(t, x):
            th = np.tanh(x) + 0.0 * t
            return th, np.zeros_like(th), 1 - th**2, -2 * th * (1 - th**2)

        th = TestFunction(f=lambda t, x: np.tanh(x) + 0.0 * t, jet=tanh_jet, name="tanh")
        r = form(X, model, STD, th)
        left = X.left_values()
        comp = np.zeros(grid.n_nodes)
        integrand = rate * (0.5 * (np.tanh(left + x_a) + np.tanh(left - x_a)) - np.tanh(left))
        comp[1:] = np.cumsum(integrand[:-1] * grid.dt)
        expected = np.tanh(X.values) - np.tanh(X.values[0]) - comp
        assert np.max(np.abs(r.values - expected)) <= 1e-12

    def test_classical_form_rejects_rough_drift(self):
        grid = TimeGrid(1.0, 200)
        model = Composite((BrownianMotion(1.0), FractionalBrownianMotion(0.7, 0.5)))
        X = simulate_path(model, grid, SeedSpec(10, 0))
        with pytest.raises(ValueError):
            semimartingale_residual(X, model, STD, exp_tanh())


def white_noise_drift(seed):
    """Path-dependent drift characteristic with no forward-integral limit."""
    def drift(path):
        return np.random.default_rng(seed).standard_normal(path.values.shape)

    return drift


def forward_flag(X, F, schedule, bk):
    """The forward integral's convergence, judged by forward_integral_limit."""
    fx = CadlagPath(X.grid, F.jet(X.grid.times(), X.values)[2])
    return forward_integral_limit(fx, CadlagPath(X.grid, bk), schedule).converged


SCHEDULES = [(1,), (2, 1), (4, 2, 1), (16, 8, 4, 2, 1), (12, 5, 3, 2, 1)]


class TestForwardConvergence:
    @pytest.mark.parametrize("multiples", SCHEDULES, ids=str)
    @pytest.mark.parametrize("family", ["fbm", "composite", "white_noise"])
    def test_flag_matches_forward_integral_limit(self, family, multiples):
        grid = TimeGrid(1.0, 512)
        schedule = EpsilonSchedule(multiples)
        for seed in range(4):
            if family == "white_noise":
                X = simulate_path(BrownianMotion(1.0), grid, SeedSpec(seed, 0))
                chars = CharacteristicsModel(truncation=STD, drift_path_fn=white_noise_drift(seed))
            else:
                X = simulate_path(FAMILIES[family], grid, SeedSpec(seed, 0))
                chars = known_characteristics(FAMILIES[family], STD)
            r = weak_dirichlet_residual(X, chars, STD, exp_tanh(), schedule)
            expected = forward_flag(X, exp_tanh(), schedule, chars.bk_values(X))
            assert r.forward_converged is expected

    def test_white_noise_drift_does_not_converge(self):
        grid = TimeGrid(1.0, 512)
        X = simulate_path(BrownianMotion(1.0), grid, SeedSpec(0, 0))
        chars = CharacteristicsModel(truncation=STD, drift_path_fn=white_noise_drift(0))
        r = weak_dirichlet_residual(X, chars, STD, exp_tanh(), EpsilonSchedule((16, 8, 4, 2, 1)))
        assert r.forward_converged is False

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    @pytest.mark.parametrize("family", ["fbm", "composite", "jump_diffusion"])
    def test_ensemble_counts_nonconverged_rows(self, family, batch_size):
        grid = TimeGrid(1.0, 256)
        model = FAMILIES[family]
        ens = residual_ensemble(model, grid, STD, exp_tanh(), 5, 64, batch_size=batch_size)
        flags = [
            weak_dirichlet_residual(simulate_path(model, grid, SeedSpec(5, i)), model, STD,
                                    exp_tanh()).forward_converged
            for i in range(64)
        ]
        assert ens.meta["forward_nonconverged"] == flags.count(False)
        assert (flags.count(False) > 0) == (family in ROUGH)


class TestMartingaleMeanTest:
    def _ensemble(self, residual_fn, n=200):
        times = (0.25, 0.5, 1.0)
        probe = (0.0625, 0.125, 0.25, 0.5)
        m_times = sorted(set(times) | set(probe))
        rng = np.random.default_rng(0)
        x = {s: rng.standard_normal(n) for s in probe}
        return ResidualEnsemble(
            times=times,
            residual_at={t: residual_fn(t, n) for t in m_times},
            path_at=x,
            n_paths=n,
        )

    def test_identically_zero_residuals_pass(self):
        ens = self._ensemble(lambda t, n: np.zeros(n))
        rep = martingale_mean_test(ens)
        assert rep.passed
        assert all(z == 0.0 for z in rep.zscores)

    def test_injected_drift_fails_every_time(self):
        ens = self._ensemble(lambda t, n: np.full(n, t))
        rep = martingale_mean_test(ens)
        assert not rep.passed
        assert all(z == float("inf") for z in rep.zscores)

    def test_centered_noise_passes(self):
        rng = np.random.default_rng(12)
        ens = self._ensemble(lambda t, n: rng.standard_normal(n) * np.sqrt(t))
        rep = martingale_mean_test(ens)
        assert len(rep.orthogonality) == 9
        assert rep.passed

    def test_report_round_trips_to_dict(self):
        ens = self._ensemble(lambda t, n: np.zeros(n))
        d = martingale_mean_test(ens).to_dict()
        assert d["pass"] is True
        assert len(d["orthogonality"]) == 9


@functools.cache
def ensemble_bytes(family, mode, batch_size, n_paths=70):
    """Every result of a residual ensemble as bytes: residual_at, path_at and
    the non-converged count.  70 paths cross two 32-row residual blocks."""
    ens = residual_ensemble(FAMILIES[family], TimeGrid(1.0, 64), STD, exp_tanh(), 23, n_paths,
                            mode=mode, batch_size=batch_size)
    return (
        [(t, a.tobytes()) for t, a in ens.residual_at.items()],
        [(s, a.tobytes()) for s, a in ens.path_at.items()],
        ens.meta["forward_nonconverged"],
    )


class TestEnsembleRunner:
    @pytest.mark.parametrize("batch_size", [7, 31, 32, 33, 64, 4096, None])
    @pytest.mark.parametrize("family,mode", FAMILY_MODES)
    def test_results_do_not_depend_on_the_batch_size(self, family, mode, batch_size):
        # a batch of one is the per-path kernel call; None derives the batch
        # from the grid
        assert ensemble_bytes(family, mode, batch_size) == ensemble_bytes(family, mode, 1)

    @pytest.mark.parametrize("family,mode", FAMILY_MODES)
    def test_a_full_4096_row_batch_matches_small_batches(self, family, mode):
        full = ensemble_bytes(family, mode, 4096, n_paths=4097)
        assert full == ensemble_bytes(family, mode, 33, n_paths=4097)

    def test_meta_reports_stages_jumps_and_probe_nodes(self):
        # dt = 0.1: the probes t/4 and t/2 of t = 0.5 and 1.0 snap to nodes
        grid = TimeGrid(1.0, 10)
        model = FAMILIES["compound_poisson"]
        ens = residual_ensemble(model, grid, STD, exp_tanh(), 8, 40, times=(0.5, 1.0),
                                batch_size=16)
        assert ens.meta["probe_nodes"] == [
            {"probe": 0.125, "grid_time": 0.1},
            {"probe": 0.25, "grid_time": 0.2},
            {"probe": 0.5, "grid_time": 0.5},
        ]
        jumps = sum(simulate_path(model, grid, SeedSpec(8, i)).jump_indices.size
                    for i in range(40))
        assert ens.meta["jumps"] == jumps > 0
        assert set(ens.meta["seconds"]) == {"simulate", "residual"}
        assert all(s > 0.0 for s in ens.meta["seconds"].values())

    def test_batch_size_does_not_change_results(self):
        grid = TimeGrid(1.0, 128)
        model = LevyJumpDiffusion(0.2, 1.0, 1.0, GaussianJumps(0.0, 0.3))
        a = residual_ensemble(model, grid, STD, exp_tanh(), 42, 300, batch_size=7)
        b = residual_ensemble(model, grid, STD, exp_tanh(), 42, 300, batch_size=300)
        for t in a.residual_at:
            assert np.array_equal(a.residual_at[t], b.residual_at[t])

    @pytest.mark.parametrize("F", ALL_FUNCTIONS, ids=lambda F: F.name)
    @pytest.mark.parametrize("family,mode", FAMILY_MODES)
    def test_matches_per_path_residuals(self, family, mode, F):
        # both go through one kernel: the ensemble rows are the per-path
        # residuals bit for bit, at test and probe times alike
        grid = TimeGrid(1.0, 256)
        model = FAMILIES[family]
        residual = weak_dirichlet_residual if mode == "weak_dirichlet" else semimartingale_residual
        ens = residual_ensemble(model, grid, STD, F, 11, 5, mode=mode, batch_size=3)
        for i in range(5):
            X = simulate_path(model, grid, SeedSpec(11, i))
            r = residual(X, model, STD, F)
            for t in ens.residual_at:
                assert ens.residual_at[t][i] == r.values[grid.index_of(t)]
            for s in ens.path_at:
                assert ens.path_at[s][i] == X.eval(s)

    @pytest.mark.parametrize("family,mode,match", [
        ("fbm", "semimartingale", "finite-variation"),
        ("brownian", "classical", "unknown residual mode"),
    ])
    def test_bad_mode_is_rejected_before_any_path_is_simulated(self, monkeypatch, family, mode,
                                                               match):
        def no_simulation(*args, **kwargs):
            raise AssertionError("paths simulated before the mode check")

        monkeypatch.setattr(residuals, "simulate_batch", no_simulation)
        with pytest.raises(ValueError, match=match):
            residual_ensemble(FAMILIES[family], TimeGrid(1.0, 64), STD, exp_tanh(), 0, 10,
                              mode=mode)

    def test_empty_times_are_rejected(self):
        with pytest.raises(ValueError, match="at least one test time"):
            residual_ensemble(BrownianMotion(1.0), TimeGrid(1.0, 64), STD, exp_tanh(), 0, 10,
                              times=())

    def test_overflowing_path_is_rejected(self):
        # a drift of 1e308 overflows past t = 1.797 on every path
        model = LevyJumpDiffusion(1e308, 1.0, 1.0, DiscreteAtoms((1.0,), (1.0,)))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="simulated path 0 "):
            residual_ensemble(model, TimeGrid(2.0, 64), STD, exp_tanh(), 0, 4, times=(1.0,))

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_must_be_positive(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            residual_ensemble(BrownianMotion(1.0), TimeGrid(1.0, 64), STD, exp_tanh(), 0, 10,
                              batch_size=batch_size)

    def test_default_batch_bounds_the_memory_of_a_fine_grid(self):
        # 256 paths at n = 2^14 in one batch peak near 130 MB; the default
        # batch of 15 rows peaks near 36 MB
        grid = TimeGrid(1.0, 2**14)
        tracemalloc.start()
        try:
            residual_ensemble(BrownianMotion(1.0), grid, STD, exp_tanh(), 0, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_brownian_ensemble_passes(self):
        grid = TimeGrid(1.0, 256)
        ens = residual_ensemble(BrownianMotion(1.0), grid, STD, exp_tanh(), 314, 4000)
        rep = martingale_mean_test(ens)
        assert rep.passed

    def test_negative_control_fails(self):
        grid = TimeGrid(1.0, 256)
        ens = residual_ensemble(BrownianMotion(1.0), grid, STD, exp_tanh(), 314, 2000)
        # the drift 1.0 * t makes the residual a non-martingale
        drifted = {t: r + 1.0 * grid.times()[grid.index_of(t)]
                   for t, r in ens.residual_at.items()}
        rep = martingale_mean_test(replace(ens, residual_at=drifted))
        assert not rep.passed
        assert all(abs(z) > 3 for z in rep.zscores)


class TestOrthogonalityProbe:
    def test_zero_drift_is_trivially_orthogonal(self):
        grid = TimeGrid(1.0, 1000)
        model = BrownianMotion(1.0)
        X = simulate_path(model, grid, SeedSpec(21, 0))
        reports = drift_orthogonality_probe(
            X, model, STD, exp_tanh(), default_schedule(grid)
        )
        for rep in reports:
            assert rep.sup_distance <= 1e-12

    def test_levy_linear_drift_orthogonal(self):
        grid = TimeGrid(1.0, 5000)
        model = LevyJumpDiffusion(0.5, 1.0, 1.0, GaussianJumps(0.0, 0.3))
        X = simulate_path(model, grid, SeedSpec(23, 0))
        reports = drift_orthogonality_probe(
            X, model, STD, exp_tanh(), default_schedule(grid)
        )
        assert len(reports) == 2
        for rep in reports:
            assert rep.sup_distance < 0.05

    def test_composite_drift_vs_independent_brownian(self):
        grid = TimeGrid(1.0, 5000)
        model = Composite(
            (
                BrownianMotion(1.0),
                FractionalBrownianMotion(0.7, 0.5),
                CompoundPoisson(1.0, DiscreteAtoms((0.5, -0.5), (0.5, 0.5))),
            )
        )
        sups = []
        for i in range(10):
            X = simulate_path(model, grid, SeedSpec(25, i))
            reports = drift_orthogonality_probe(
                X, model, STD, exp_tanh(), default_schedule(grid)
            )
            indep = [r for r in reports if "independent" in r.name]
            assert indep
            sups.append(indep[0].sup_distance)
        assert np.median(sups) < 0.05

    def test_each_report_equals_its_covariation_limit(self):
        grid = TimeGrid(1.0, 2048)
        schedule = EpsilonSchedule((16, 8, 4, 2, 1))
        model = FAMILIES["composite"]
        chars = known_characteristics(model, STD)
        X = simulate_path(model, grid, SeedSpec(3, 0))
        fx = CadlagPath(grid, exp_tanh().jet(grid.times(), X.values)[2])
        fwd = forward_integral_limit(fx, CadlagPath(grid, chars.bk_values(X)), schedule)
        integral = CadlagPath(grid, fwd.limit)
        probes = [X.components["bm"], simulate_path(BrownianMotion(1.0), grid, SeedSpec(977, 0))]
        reports = drift_orthogonality_probe(X, model, STD, exp_tanh(), schedule)
        for rep, probe in zip(reports, probes, strict=True):
            est = covariation_limit(integral, probe, schedule)
            assert rep.lhs.tobytes() == est.limit.tobytes()
            assert rep.error_estimate == est.error_estimate + fwd.error_estimate
            assert rep.converged == (est.converged and fwd.converged)

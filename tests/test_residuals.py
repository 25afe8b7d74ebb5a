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
    TimeGrid,
    UniformJumps,
    bump,
    combine_test_functions,
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
    time_homogeneous,
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
        assert np.max(np.abs(F.fx(T, X) - fx_fd)) <= scale * 10
        assert np.max(np.abs(F.ft(T, X) - ft_fd)) <= scale * 10
        assert np.max(np.abs(F.fxx(T, X) - fxx_fd)) <= scale * 100

    @pytest.mark.parametrize("F", ALL_FUNCTIONS, ids=lambda F: F.name)
    def test_bounded(self, F):
        T, X = np.meshgrid(np.linspace(0, 5, 11), np.linspace(-50, 50, 2001))
        assert np.max(np.abs(F.f(T, X))) <= F.bound + 1e-12

    def test_time_homogeneous_wrapper(self):
        th = time_homogeneous(
            np.tanh, lambda x: 1 - np.tanh(x) ** 2,
            lambda x: -2 * np.tanh(x) * (1 - np.tanh(x) ** 2),
            bound=1.0, name="tanh",
        )
        x = np.linspace(-2, 2, 11)
        assert np.all(th.ft(np.ones(11), x) == 0.0)
        assert np.allclose(th.f(np.zeros(11), x), np.tanh(x))


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

    def test_starts_at_zero_with_exact_term_breakdown(self):
        grid = TimeGrid(1.0, 500)
        model = LevyJumpDiffusion(0.2, 1.0, 2.0, GaussianJumps(0.0, 0.3))
        X = simulate_path(model, grid, SeedSpec(2, 0))
        r = weak_dirichlet_residual(X, model, STD, exp_tanh())
        assert r.values[0] == 0.0
        total = sum(r.terms.values())
        assert np.max(np.abs(total - r.values)) <= 1e-12
        assert set(r.terms) == {"value", "time", "second_order", "drift", "compensator"}

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

    def test_truncation_invariance_after_conversion(self):
        grid = TimeGrid(1.0, 2000)
        smooth = smooth_clip_truncation()
        model = LevyJumpDiffusion(0.3, 1.0, 2.0, UniformJumps(0.2, 1.8))
        X = simulate_path(model, grid, SeedSpec(7, 0))
        base = known_characteristics(model, STD)
        conv = convert_truncation(model, STD, smooth)
        r_std = semimartingale_residual(X, base, STD, exp_tanh())
        r_sm = semimartingale_residual(X, conv, smooth, exp_tanh())
        assert np.max(np.abs(r_std.values - r_sm.values)) <= 1e-8

    def test_linearity_in_test_function(self):
        grid = TimeGrid(1.0, 500)
        model = CompoundPoisson(2.0, GaussianJumps(0.0, 0.4))
        X = simulate_path(model, grid, SeedSpec(8, 0))
        F, G = exp_tanh(), damped_sine()
        a, b = 0.6, -1.2
        rF = weak_dirichlet_residual(X, model, STD, F)
        rG = weak_dirichlet_residual(X, model, STD, G)
        rC = weak_dirichlet_residual(X, model, STD, combine_test_functions(a, F, b, G))
        assert np.max(np.abs(rC.values - (a * rF.values + b * rG.values))) <= 1e-12

    def test_compound_poisson_residual_structure(self):
        # time-homogeneous F: residual = F-increments minus the compensator sum
        grid = TimeGrid(1.0, 400)
        model = CompoundPoisson(1.0, DiscreteAtoms((2.0, -2.0), (0.5, 0.5)))
        X = simulate_path(model, grid, SeedSpec(9, 0))
        th = time_homogeneous(
            np.tanh, lambda x: 1 - np.tanh(x) ** 2,
            lambda x: -2 * np.tanh(x) * (1 - np.tanh(x) ** 2),
            bound=1.0, name="tanh",
        )
        r = semimartingale_residual(X, model, STD, th)
        left = X.left_values()
        comp = np.zeros(grid.n_nodes)
        integrand = 0.5 * (np.tanh(left + 2.0) + np.tanh(left - 2.0)) - np.tanh(left)
        comp[1:] = np.cumsum(integrand[:-1] * grid.dt)
        expected = np.tanh(X.values) - np.tanh(X.values[0]) - comp
        assert np.max(np.abs(r.values - expected)) <= 1e-12

    def test_classical_form_rejects_rough_drift(self):
        grid = TimeGrid(1.0, 200)
        model = Composite((BrownianMotion(1.0), FractionalBrownianMotion(0.7, 0.5)))
        X = simulate_path(model, grid, SeedSpec(10, 0))
        with pytest.raises(ValueError):
            semimartingale_residual(X, model, STD, exp_tanh())

    @pytest.mark.parametrize("form", [weak_dirichlet_residual, semimartingale_residual],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("x_a", [0.5, 2.0])
    def test_fixed_atom_step_path_residual_vanishes(self, form, x_a):
        # one atom of weight 1 at s = 0.5 and a path that jumps by x_a there:
        # the drift and compensator atom terms cancel F's jump exactly,
        # inside (0.5) and outside (2.0) the truncation cutoff
        grid = TimeGrid(1.0, 200)
        i = grid.index_of(0.5)
        X = CadlagPath.from_jumps(
            grid, np.where(np.arange(grid.n_nodes) >= i, x_a, 0.0), [(i, x_a)]
        )
        chars = CharacteristicsModel(truncation=STD, fixed_atoms=((0.5, ((x_a, 1.0),)),))
        r = form(X, chars, STD, bump())
        assert np.max(np.abs(r.values)) == 0.0


def white_noise_drift(seed, scale=1.0):
    """Path-dependent drift characteristic with no forward-integral limit."""
    def drift(path):
        return scale * np.random.default_rng(seed).standard_normal(path.values.shape)

    return drift


def forward_flag(X, F, schedule, bk):
    """The forward integral's convergence, judged by forward_integral_limit."""
    fx = CadlagPath(X.grid, F.fx(X.grid.times(), X.values))
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

    def test_fixed_atoms_flag_reads_the_atom_free_drift(self):
        # the residual integrates the drift without its fixed-atom step; the
        # flag describes that integral, which here converges only with the step
        grid = TimeGrid(1.0, 512)
        schedule = EpsilonSchedule((16, 8, 4, 2, 1))
        X = simulate_path(BrownianMotion(1.0), grid, SeedSpec(0, 0))
        chars = CharacteristicsModel(
            truncation=STD, drift_path_fn=white_noise_drift(0, 1e-4),
            fixed_atoms=((0.5, ((0.5, 1.0),)),),
        )
        r = weak_dirichlet_residual(X, chars, STD, exp_tanh(), schedule)
        atom_free = chars.bk_values(X) - np.cumsum(chars._atom_steps(grid))
        assert r.forward_converged is forward_flag(X, exp_tanh(), schedule, atom_free)
        assert r.forward_converged is False
        assert forward_flag(X, exp_tanh(), schedule, chars.bk_path(X).values) is True

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
            probe_times=probe,
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


class TestEnsembleRunner:
    def test_batch_size_does_not_change_results(self):
        grid = TimeGrid(1.0, 128)
        model = LevyJumpDiffusion(0.2, 1.0, 1.0, GaussianJumps(0.0, 0.3))
        a = residual_ensemble(model, grid, STD, exp_tanh(), 42, 300, batch_size=7)
        b = residual_ensemble(model, grid, STD, exp_tanh(), 42, 300, batch_size=300)
        for t in a.residual_at:
            assert np.array_equal(a.residual_at[t], b.residual_at[t])

    @pytest.mark.parametrize("family,mode", FAMILY_MODES)
    def test_matches_per_path_residuals(self, family, mode):
        # both go through one kernel: the ensemble rows are the per-path
        # residuals bit for bit, at test and probe times alike
        grid = TimeGrid(1.0, 256)
        model = FAMILIES[family]
        residual = weak_dirichlet_residual if mode == "weak_dirichlet" else semimartingale_residual
        ens = residual_ensemble(model, grid, STD, exp_tanh(), 11, 5, mode=mode, batch_size=3)
        for i in range(5):
            X = simulate_path(model, grid, SeedSpec(11, i))
            r = residual(X, model, STD, exp_tanh())
            for t in ens.residual_at:
                assert ens.residual_at[t][i] == r.at(t)
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

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_must_be_positive(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            residual_ensemble(BrownianMotion(1.0), TimeGrid(1.0, 64), STD, exp_tanh(), 0, 10,
                              batch_size=batch_size)

    def test_brownian_ensemble_passes(self):
        grid = TimeGrid(1.0, 256)
        ens = residual_ensemble(BrownianMotion(1.0), grid, STD, exp_tanh(), 314, 4000)
        rep = martingale_mean_test(ens)
        assert rep.passed

    def test_negative_control_fails(self):
        grid = TimeGrid(1.0, 256)
        ens = residual_ensemble(
            BrownianMotion(1.0), grid, STD, exp_tanh(), 314, 2000, inject_drift=1.0
        )
        rep = martingale_mean_test(ens)
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
        extra = simulate_path(BrownianMotion(1.0), grid, SeedSpec(4, 0))
        fx = CadlagPath(grid, exp_tanh().fx(grid.times(), X.values))
        fwd = forward_integral_limit(fx, chars.bk_path(X), schedule)
        integral = CadlagPath(grid, fwd.limit)
        default_probes = [X.components["bm"],
                          simulate_path(BrownianMotion(1.0), grid, SeedSpec(977, 0))]
        for probes in (None, [extra, X]):
            reports = drift_orthogonality_probe(X, model, STD, exp_tanh(), schedule, probes)
            for rep, probe in zip(reports, probes or default_probes, strict=True):
                est = covariation_limit(integral, probe, schedule)
                assert rep.lhs.tobytes() == est.limit.tobytes()
                assert rep.error_estimate == est.error_estimate + fwd.error_estimate
                assert rep.converged == (est.converged and fwd.converged)

import numpy as np
import pytest

from dirichlet_reg import (
    BrownianMotion,
    CadlagPath,
    CharacteristicsModel,
    Composite,
    ComponentLogError,
    CompoundPoisson,
    DeterministicDrift,
    DiscreteAtoms,
    EpsilonSchedule,
    FractionalBrownianMotion,
    GaussianJumps,
    GridMismatchError,
    LevyJumpDiffusion,
    SeedSpec,
    TimeGrid,
    UniformJumps,
    combine,
    continuous_bracket_check,
    convert_truncation,
    covariation_limit,
    decompose,
    default_schedule,
    drift_bracket_check,
    known_characteristics,
    simulate_path,
    smooth_clip_truncation,
    standard_truncation,
)

STD = standard_truncation()
SMOOTH = smooth_clip_truncation()


class TestTruncations:
    @pytest.mark.parametrize("k", [STD, SMOOTH], ids=["standard", "smooth"])
    def test_bounded_on_probe_grid(self, k):
        x = np.linspace(-100.0, 100.0, 10_000)
        assert np.max(np.abs(k(x))) <= 1.0 + 1e-12

    def test_standard_identity_inside_radius_exact(self):
        x = np.linspace(-1.0, 1.0, 2001)
        assert np.array_equal(STD(x), x)

    def test_smooth_identity_inside_radius(self):
        x = np.linspace(-0.5, 0.5, 2001)
        assert np.max(np.abs(SMOOTH(x) - x)) <= 1e-12

    def test_smooth_is_c2(self):
        # value, slope and curvature continuous across both junctions
        h = 1e-6
        for x0 in (0.5, 1.5, -0.5, -1.5):
            lo, hi = x0 - 10 * h, x0 + 10 * h
            xs = np.linspace(lo, hi, 21)
            vals = SMOOTH(xs)
            d1 = np.gradient(vals, xs)
            d2 = np.gradient(d1, xs)
            assert np.max(np.abs(np.diff(vals))) < 2e-5
            assert np.max(np.abs(np.diff(d1))) < 2e-4
            assert np.max(np.abs(np.diff(d2))) < 0.3

    def test_smooth_saturates(self):
        assert SMOOTH(np.array([2.0]))[0] == 1.0
        assert SMOOTH(np.array([-3.0]))[0] == -1.0

    def test_odd(self):
        x = np.linspace(0.0, 5.0, 777)
        for k in (STD, SMOOTH):
            assert np.allclose(k(-x), -k(x), atol=1e-15)


class TestKnownCharacteristics:
    def test_brownian_triplet(self):
        ch = known_characteristics(BrownianMotion(2.0), STD)
        assert ch.drift_slope == 0.0
        assert ch.compensators == ()
        assert np.allclose(ch.c_values(TimeGrid(1.0, 4)), 4.0 * np.linspace(0, 1, 5))

    def test_large_atoms_vanish_under_standard_truncation(self):
        model = CompoundPoisson(1.0, DiscreteAtoms((2.0, -2.0), (0.5, 0.5)))
        ch = known_characteristics(model, STD)
        assert ch.drift_slope == 0.0
        assert ch.c_rate == 0.0
        assert ch.compensators[0][0] == 1.0

    def test_symmetric_uniform_slope_zero(self):
        ch = known_characteristics(CompoundPoisson(2.0, UniformJumps(-0.5, 0.5)), STD)
        assert abs(ch.drift_slope) < 1e-15

    def test_positive_uniform_slope(self):
        # rate 2, E[J] = 0.25 on (0, 0.5) where k is the identity
        ch = known_characteristics(CompoundPoisson(2.0, UniformJumps(0.0, 0.5)), STD)
        assert ch.drift_slope == pytest.approx(0.5, abs=1e-14)

    def test_jump_diffusion_slope_is_declared_drift_for_symmetric_laws(self):
        model = LevyJumpDiffusion(0.5, 1.0, 2.0, UniformJumps(-0.5, 0.5))
        ch = known_characteristics(model, STD)
        assert ch.drift_slope == pytest.approx(0.5, abs=1e-14)

    def test_a_non_model_has_no_known_characteristics(self):
        with pytest.raises(TypeError, match="no known characteristics for GaussianJumps"):
            known_characteristics(GaussianJumps(0.0, 1.0), STD)


class TestConvertTruncation:
    def test_same_truncation_is_identity(self):
        model = CompoundPoisson(1.5, GaussianJumps(0.2, 0.4))
        a = known_characteristics(model, STD)
        b = convert_truncation(model, STD, STD)
        assert b.drift_slope == a.drift_slope

    def test_zero_rate_is_identity(self):
        model = LevyJumpDiffusion(0.3, 1.0, 0.0, GaussianJumps(0.0, 1.0))
        b = convert_truncation(model, STD, SMOOTH)
        assert b.drift_slope == pytest.approx(0.3)

    def test_single_large_atom_shift(self):
        # atom at +2: standard k gives 0, smooth clip gives 1
        model = CompoundPoisson(1.0, DiscreteAtoms((2.0,), (1.0,)))
        base = known_characteristics(model, STD)
        conv = convert_truncation(model, STD, SMOOTH)
        assert conv.drift_slope == pytest.approx(base.drift_slope + 1.0)

    def test_only_drift_changes(self):
        model = LevyJumpDiffusion(0.1, 0.7, 2.0, GaussianJumps(0.1, 0.3))
        base = known_characteristics(model, STD)
        conv = convert_truncation(model, STD, SMOOTH)
        assert conv.compensators == base.compensators
        grid = TimeGrid(1.0, 10)
        assert np.array_equal(conv.c_values(grid), base.c_values(grid))


class TestDecompose:
    def test_truncation_of_negative_zero_registers_no_jump(self):
        # k(x) = -0.0 beyond the cutoff: the small-jump part has no jump there
        grid = TimeGrid(1.0, 100)
        k = lambda x: np.where(np.abs(x) <= 1.0, x, -0.0 * x)
        values = np.where(np.arange(grid.n_nodes) >= 40, 2.0, 0.0)
        X = CadlagPath.from_jumps(grid, values, {40: 2.0})
        dec = decompose(X, CharacteristicsModel(truncation=k), k)
        small = dec.compensated_jumps.jumps
        assert not np.any(np.signbit(small) & (small == 0.0))
        assert dec.large_jumps.jump_indices.tolist() == [40]

    def test_large_atom_compound_poisson(self):
        grid = TimeGrid(1.0, 2000)
        model = CompoundPoisson(1.0, DiscreteAtoms((2.0, -2.0), (0.5, 0.5)))
        X = simulate_path(model, grid, SeedSpec(3, 0))
        dec = decompose(X, model, STD)
        assert np.all(dec.continuous.values == 0.0)
        assert np.all(dec.compensated_jumps.values == 0.0)
        assert np.all(dec.drift.values == 0.0)
        assert np.array_equal(dec.large_jumps.values, X.values)

    def test_brownian_is_all_continuous(self):
        grid = TimeGrid(1.0, 2000)
        model = BrownianMotion(1.0)
        X = simulate_path(model, grid, SeedSpec(5, 0))
        dec = decompose(X, model, STD)
        assert np.array_equal(dec.continuous.values, X.values)
        for part in (dec.compensated_jumps, dec.drift, dec.large_jumps):
            assert np.all(part.values == 0.0)

    @pytest.mark.parametrize("model,with_jumps", [
        (BrownianMotion(1.0), ()),
        (CompoundPoisson(3.0, DiscreteAtoms((0.5, -0.5), (0.5, 0.5))), ("compensated_jumps",)),
        (CompoundPoisson(3.0, DiscreteAtoms((2.0, -2.0), (0.5, 0.5))), ("large_jumps",)),
        (LevyJumpDiffusion(0.1, 1.0, 3.0, GaussianJumps(0.0, 0.5)), ("compensated_jumps",)),
        (DeterministicDrift(lambda t: np.sin(3.0 * t) + t**2), ()),
        (FractionalBrownianMotion(0.7, 0.5), ()),
    ], ids=["brownian", "small_jumps", "large_jumps", "jump_diffusion", "drift", "fbm"])
    def test_jump_part_without_jumps_keeps_no_jump_row(self, model, with_jumps):
        # the drift part never jumps: the characteristics are quasi-left-continuous
        grid = TimeGrid(1.0, 2000)
        X = simulate_path(model, grid, SeedSpec(3, 0))
        assert (X.jump_indices.size > 0) == bool(with_jumps)
        dec = decompose(X, model, STD)
        for name in ("compensated_jumps", "large_jumps", "drift"):
            jumps = getattr(dec, name).jumps
            assert (jumps.strides == (0,)) == (name not in with_jumps)
            assert np.any(jumps != 0.0) == (name in with_jumps)

    def test_jump_diffusion_reconstruction_and_component_log(self):
        grid = TimeGrid(1.0, 10_000)
        model = LevyJumpDiffusion(0.5, 1.0, 2.0, UniformJumps(-0.5, 0.5))
        X = simulate_path(model, grid, SeedSpec(7, 0))
        dec = decompose(X, model, STD)
        assert dec.reconstruction_error < 1e-10
        assert np.allclose(dec.drift.values, 0.5 * grid.times(), atol=1e-12)
        # continuous part recovers the simulator's diffusion component
        assert np.max(np.abs(dec.continuous.values - X.components["bm"].values)) < 1e-10
        assert dec.continuous.jump_indices.size == 0

    def test_duplicate_component_kinds_stay_aligned(self):
        # names assigned by the simulator must match the characteristics lookup
        grid = TimeGrid(1.0, 200)
        model = Composite(
            (
                DeterministicDrift(lambda t: 0.1 * t),
                FractionalBrownianMotion(0.7, 0.5),
                FractionalBrownianMotion(0.8, 0.3),
                BrownianMotion(1.0),
            )
        )
        X = simulate_path(model, grid, SeedSpec(1, 0))
        assert {"drift", "fbm", "fbm2", "bm"} <= set(X.components)
        dec = decompose(X, model, STD)
        expected = (
            X.components["fbm"].values
            + X.components["fbm2"].values
            + X.components["drift"].values
        )
        assert np.max(np.abs(dec.drift.values - expected)) < 1e-12
        assert dec.reconstruction_error < 1e-10

    @pytest.mark.parametrize("logs, match", [
        (lambda X: None, "needs component logs"),
        (lambda X: {"bm": X.components["bm"]}, r"missing component logs: \['fbm'\]"),
    ], ids=["no_logs", "no_fbm_log"])
    def test_composite_needs_component_logs(self, logs, match):
        grid = TimeGrid(1.0, 500)
        model = Composite((BrownianMotion(1.0), FractionalBrownianMotion(0.7, 0.5)))
        X = simulate_path(model, grid, SeedSpec(9, 0))
        bare = CadlagPath(grid, X.values, X.jumps, logs(X))
        with pytest.raises(ComponentLogError, match=match):
            decompose(bare, model, STD)

    def test_compensated_jump_part_is_centered(self):
        # ensemble mean of the compensated small-jump part stays near 0
        grid = TimeGrid(1.0, 500)
        model = CompoundPoisson(2.0, UniformJumps(0.0, 0.5))
        nodes = [grid.index_of(t) for t in (0.25, 0.5, 1.0)]
        samples = np.empty((10_000, 3))
        for i in range(10_000):
            X = simulate_path(model, grid, SeedSpec(13, i))
            dec = decompose(X, model, STD)
            samples[i] = dec.compensated_jumps.values[nodes]
        means = samples.mean(axis=0)
        ses = samples.std(axis=0, ddof=1) / np.sqrt(10_000)
        assert np.all(np.abs(means) <= 3 * ses)


class TestBracketIdentities:
    @pytest.mark.parametrize("model", [
        LevyJumpDiffusion(0.5, 1.0, 2.0, UniformJumps(0.0, 0.5)),
        CompoundPoisson(2.0, UniformJumps(0.0, 0.5)),
        DeterministicDrift(lambda t: np.sin(3.0 * t) + t**2),
    ], ids=["jump_diffusion", "compound_poisson", "drift"])
    def test_continuous_finite_variation_drift_bracket_vanishes(self, model):
        # a Lipschitz drift characteristic with slope at most L has
        # [B, B]^eps_T <= L^2 eps T, so its bracket has no jump sum and tends to 0
        grid = TimeGrid(1.0, 1000)
        X = simulate_path(model, grid, SeedSpec(21, 0))
        bk = CadlagPath(grid, known_characteristics(model, STD).bk_values(X))
        assert not bk.jumps.any()
        lipschitz = np.max(np.abs(np.diff(bk.values))) / grid.dt
        assert lipschitz > 0.0
        schedule = EpsilonSchedule((8, 4, 2, 1))
        est = covariation_limit(bk, bk, schedule)
        bound = lipschitz**2 * est.eps_values * grid.T
        assert np.all(est.trajectories[:, -1] <= bound * (1.0 + 1e-12))
        rep = drift_bracket_check(X, decompose(X, model, STD), model, STD, schedule)
        assert np.array_equal(rep.lhs, est.limit)

    def test_levy_model_both_sides_near_zero(self):
        grid = TimeGrid(1.0, 10_000)
        model = LevyJumpDiffusion(0.5, 1.0, 2.0, UniformJumps(-0.5, 0.5))
        X = simulate_path(model, grid, SeedSpec(21, 0))
        dec = decompose(X, model, STD)
        sched = default_schedule(grid)
        rep = drift_bracket_check(X, dec, model, STD, sched)
        lhs_sup = float(np.max(np.abs(rep.lhs)))
        rhs_sup = float(np.max(np.abs(rep.rhs)))
        assert lhs_sup <= max(2 * rep.error_estimate, 1e-3)
        assert rhs_sup <= max(2 * rep.error_estimate, 0.05)

    def test_synthetic_two_brownian_algebra(self):
        # X = Xc + drift with drift an independent Brownian path of bracket t:
        # the right side must recover that injected bracket
        grid = TimeGrid(1.0, 10_000)
        xc = simulate_path(BrownianMotion(1.0), grid, SeedSpec(31, 0))
        bk = simulate_path(BrownianMotion(1.0), grid, SeedSpec(32, 0))
        X = combine(1.0, xc, 1.0, bk)
        chars = CharacteristicsModel(truncation=STD)
        from dirichlet_reg import Decomposition

        dec = Decomposition(
            continuous=xc,
            compensated_jumps=CadlagPath(grid, np.zeros(grid.n_nodes)),
            drift=bk,
            large_jumps=CadlagPath(grid, np.zeros(grid.n_nodes)),
            reconstruction_error=0.0,
        )
        rhs = drift_bracket_check(X, dec, chars, STD, default_schedule(grid)).rhs
        assert np.max(np.abs(rhs - grid.times())) < 0.05

    @pytest.mark.parametrize("check", [
        lambda X, dec, schedule: drift_bracket_check(X, dec, BrownianMotion(1.0), STD, schedule),
        continuous_bracket_check,
    ], ids=["drift_bracket", "continuous_bracket"])
    def test_a_decomposition_on_another_grid_is_rejected(self, check):
        model = BrownianMotion(1.0)
        X = simulate_path(model, TimeGrid(1.0, 64), SeedSpec(0, 0))
        X2 = simulate_path(model, TimeGrid(1.0, 128), SeedSpec(0, 0))
        with pytest.raises(GridMismatchError):
            check(X, decompose(X2, model, STD), EpsilonSchedule((4, 2, 1)))

    def test_continuous_bracket_split_brownian(self):
        grid = TimeGrid(1.0, 5000)
        model = BrownianMotion(1.0)
        X = simulate_path(model, grid, SeedSpec(41, 0))
        dec = decompose(X, model, STD)
        rep = continuous_bracket_check(X, dec, default_schedule(grid))
        assert rep.sup_distance <= 1e-10  # both sides are the same estimate

    def test_continuous_bracket_split_compound_poisson(self):
        grid = TimeGrid(1.0, 5000)
        model = CompoundPoisson(2.0, DiscreteAtoms((1.0, -1.0), (0.5, 0.5)))
        X = simulate_path(model, grid, SeedSpec(43, 0))
        dec = decompose(X, model, STD)
        rep = continuous_bracket_check(X, dec, default_schedule(grid))
        assert rep.sup_distance <= max(2 * rep.error_estimate, 1e-8)

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
    LevyJumpDiffusion,
    SeedSpec,
    TimeGrid,
    TruncationFunction,
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
        assert np.max(np.abs(k(x))) <= k.bound + 1e-12

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
        k = TruncationFunction(lambda x: np.where(np.abs(x) <= 1.0, x, -0.0 * x), 1.0, "neg")
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
    ], ids=["brownian", "small_jumps", "large_jumps"])
    def test_jump_part_without_jumps_keeps_no_jump_row(self, model, with_jumps):
        grid = TimeGrid(1.0, 2000)
        X = simulate_path(model, grid, SeedSpec(3, 0))
        assert (X.jump_indices.size > 0) == bool(with_jumps)
        dec = decompose(X, model, STD)
        for name in ("compensated_jumps", "large_jumps"):
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

    def test_composite_needs_component_logs(self):
        grid = TimeGrid(1.0, 500)
        model = Composite((BrownianMotion(1.0), FractionalBrownianMotion(0.7, 0.5)))
        X = simulate_path(model, grid, SeedSpec(9, 0))
        bare = CadlagPath(grid, X.values, X.jumps)
        with pytest.raises(ComponentLogError):
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


class TestDriftJump:
    GRID = TimeGrid(1.0, 100)

    def drift_jumps(self, chars):
        return chars.bk_path(CadlagPath(self.GRID, np.zeros(self.GRID.n_nodes))).jumps

    def test_quasi_left_continuous_models_have_none(self):
        model = LevyJumpDiffusion(0.1, 1.0, 3.0, GaussianJumps(0.0, 0.5))
        chars = known_characteristics(model, STD)
        idx, vals = chars.atom_k_integrals(self.GRID)
        assert idx.size == vals.size == 0
        assert not self.drift_jumps(chars).any()

    def test_synthetic_atom_inside_radius(self):
        chars = CharacteristicsModel(
            truncation=STD, fixed_atoms=((0.5, ((0.3, 1.0),)),)
        )
        idx, vals = chars.atom_k_integrals(self.GRID)
        assert idx.tolist() == [self.GRID.index_of(0.5)]
        assert vals.tolist() == pytest.approx([0.3])
        jumps = self.drift_jumps(chars)
        assert jumps[self.GRID.index_of(0.5)] == pytest.approx(0.3)
        assert jumps[self.GRID.index_of(0.25)] == 0.0

    def test_synthetic_atom_beyond_cutoff(self):
        chars = CharacteristicsModel(
            truncation=STD, fixed_atoms=((0.5, ((2.0, 1.0),)),)
        )
        assert chars.atom_k_integrals(self.GRID)[1].tolist() == [0.0]
        assert not self.drift_jumps(chars).any()

    def test_atom_schedule_matches_drift_path_jumps(self):
        chars = CharacteristicsModel(
            truncation=STD,
            drift_slope=0.2,
            fixed_atoms=((0.25, ((0.3, 1.0),)), (0.75, ((-0.1, 2.0),))),
        )
        idx, vals = chars.atom_k_integrals(self.GRID)
        jumps = self.drift_jumps(chars)
        assert jumps[idx].tolist() == pytest.approx(vals.tolist())
        assert np.count_nonzero(jumps) == 2

    def test_atom_k_integral_per_entry(self):
        # an entry summing to -0.0 reads 0.0
        atoms = (
            (0.2, ((0.3, 0.7), (-0.45, 0.25), (1.7, 1.0))),
            (0.4, ((0.1, 1.0 / 3.0), (0.2, 1.0 / 7.0))),
            (0.6, ((0.3, -0.0),)),
            (0.8, ((2.0, 1.0),)),
        )
        chars = CharacteristicsModel(truncation=STD, fixed_atoms=atoms)
        idx, vals = chars.atom_k_integrals(self.GRID)
        assert idx.tolist() == [self.GRID.index_of(s) for s, _ in atoms]
        assert vals.tolist() == pytest.approx(
            [0.3 * 0.7 - 0.45 * 0.25, 0.1 / 3.0 + 0.2 / 7.0, 0.0, 0.0])
        assert not np.signbit(vals[2])


class TestBracketIdentities:
    def test_step_drift_bracket_is_squared_jump_sum(self):
        # finite-variation drift characteristic: bracket = sum of squared jumps
        grid = TimeGrid(1.0, 1000)
        chars = CharacteristicsModel(
            truncation=STD, fixed_atoms=((0.3, ((0.4, 1.0),)), (0.7, ((0.2, 2.0),)))
        )
        X = CadlagPath(grid, np.zeros(grid.n_nodes))
        bk = chars.bk_path(X)
        est = covariation_limit(bk, bk, EpsilonSchedule((8, 4, 2, 1)))
        assert est.limit[-1] == pytest.approx(0.4**2 + 0.4**2, abs=1e-12)

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

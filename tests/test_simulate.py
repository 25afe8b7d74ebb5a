import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_reg import (
    CadlagPath,
    BrownianMotion,
    Composite,
    CompoundPoisson,
    DeterministicDrift,
    DiscreteAtoms,
    FractionalBrownianMotion,
    GaussianJumps,
    LevyJumpDiffusion,
    SeedSpec,
    TimeGrid,
    UniformJumps,
    law_expectation,
    simulate_batch,
    simulate_path,
)
from dirichlet_reg.simulate import _fgn_unit

FAMILIES = {
    "brownian": BrownianMotion(1.0),
    "fbm": FractionalBrownianMotion(0.7, 0.5),
    "compound_poisson": CompoundPoisson(8.0, DiscreteAtoms((1.0, -1.0), (0.5, 0.5))),
    "jump_diffusion": LevyJumpDiffusion(0.3, 1.0, 4.0, GaussianJumps(0.0, 0.4)),
    "drift": DeterministicDrift(lambda t: -t),
    "composite": Composite((
        BrownianMotion(0.5), FractionalBrownianMotion(0.8, 0.3),
        CompoundPoisson(6.0, UniformJumps(-0.4, 0.4)),
        CompoundPoisson(3.0, GaussianJumps(1.0, 0.1)),
    )),
}


class TestValidation:
    def test_hurst_range(self):
        with pytest.raises(ValueError):
            FractionalBrownianMotion(0.5)
        with pytest.raises(ValueError):
            FractionalBrownianMotion(1.0)

    def test_negative_rate_and_sigma(self):
        with pytest.raises(ValueError):
            BrownianMotion(-1.0)
        with pytest.raises(ValueError):
            CompoundPoisson(-0.1, GaussianJumps(0.0, 1.0))

    def test_discrete_probabilities_sum(self):
        with pytest.raises(ValueError):
            DiscreteAtoms((1.0, 2.0), (0.6, 0.6))

    def test_uniform_bounds(self):
        with pytest.raises(ValueError):
            UniformJumps(1.0, 1.0)

    def test_composite_rejects_nesting(self):
        inner = Composite((BrownianMotion(1.0),))
        with pytest.raises(ValueError):
            Composite((inner,))

    def test_fgn_capacity_guard(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MemoryError):
            _fgn_unit((1 << 23) + 1, 0.7, rng)


class TestDeterminism:
    def test_same_seed_same_path(self):
        grid = TimeGrid(1.0, 500)
        model = LevyJumpDiffusion(0.2, 1.0, 2.0, GaussianJumps(0.0, 0.4))
        a = simulate_path(model, grid, SeedSpec(99, 3))
        b = simulate_path(model, grid, SeedSpec(99, 3))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.jump_indices, b.jump_indices)
        assert np.array_equal(a.jump_sizes, b.jump_sizes)

    def test_ensembles_bitwise_identical(self):
        grid = TimeGrid(1.0, 200)
        model = CompoundPoisson(2.0, UniformJumps(-1.0, 1.0))
        b1 = simulate_batch(model, grid, 7, range(5))
        b2 = simulate_batch(model, grid, 7, range(5))
        for a, b in zip(map(b1.path, range(5)), map(b2.path, range(5))):
            assert np.array_equal(a.values, b.values)

    def test_single_path_ensemble_is_path_index_zero(self):
        grid = TimeGrid(1.0, 200)
        model = BrownianMotion(1.0)
        only = simulate_batch(model, grid, 11, range(1)).path(0)
        direct = simulate_path(model, grid, SeedSpec(11, 0))
        assert np.array_equal(only.values, direct.values)

    @pytest.mark.parametrize("key", [(0, 0), (7, 123), (2**63, 5)])
    @pytest.mark.parametrize("component", [0, 1, 2, 3, 5, 17])
    def test_component_stream_is_the_jumped_philox_stream(self, key, component):
        want = np.random.Philox(key=list(key)).jumped(component).random_raw(16)
        got = SeedSpec(*key).bit_generator(component).random_raw(16)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("a, b", [((2**63 + 1, 3), (2**63 + 5, 3)),
                                      ((2**64 - 1, 3), (0, 3)),
                                      ((3, 2**63 + 1), (3, 2**63 + 5))])
    def test_seed_words_above_2_63_keep_their_own_stream(self, a, b):
        grid = TimeGrid(1.0, 16)
        pa = simulate_path(BrownianMotion(1.0), grid, SeedSpec(*a))
        pb = simulate_path(BrownianMotion(1.0), grid, SeedSpec(*b))
        assert not np.array_equal(pa.values, pb.values)

    @pytest.mark.parametrize("key", [(0, 0), (7, 123), (2**31 - 1, 2**40), (2**63 - 1, 2**63 - 1)])
    def test_keys_below_2_63_keep_the_list_key_stream(self, key):
        want = np.random.Philox(key=list(key), counter=[0, 0, 2, 0])
        got = SeedSpec(*key).bit_generator(2)
        for name in ("counter", "key"):
            assert np.array_equal(got.state["state"][name], want.state["state"][name])
        assert np.array_equal(got.random_raw(8), want.random_raw(8))

    def test_paths_differ_across_indices(self):
        grid = TimeGrid(1.0, 200)
        a = simulate_path(BrownianMotion(1.0), grid, SeedSpec(1, 0))
        b = simulate_path(BrownianMotion(1.0), grid, SeedSpec(1, 1))
        assert not np.array_equal(a.values, b.values)


def assert_same_path(a, b):
    for name in ("values", "jump_indices", "jump_sizes"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.left_values(), b.left_values())


class TestJumpRegistryRoundTrip:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(master_seed=st.integers(0, 2**64 - 1), n=st.integers(1, 64))
    def test_from_jumps_of_the_registry_is_the_path(self, family, master_seed, n):
        grid = TimeGrid(1.0, n)
        p = simulate_path(FAMILIES[family], grid, SeedSpec(master_seed, 0))
        q = CadlagPath.from_jumps(grid, p.values, dict(zip(p.jump_indices, p.jump_sizes)))
        # bytes, so that a -0.0 where +0.0 belongs counts as a difference
        for name in ("values", "jumps"):
            assert getattr(q, name).tobytes() == getattr(p, name).tobytes()
        assert q.left_values().tobytes() == p.left_values().tobytes()


class TestBatch:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(master_seed=st.integers(0, 2**64 - 1),
           indices=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
    def test_rows_are_the_per_path_paths(self, family, master_seed, indices):
        grid = TimeGrid(1.0, 32)
        model = FAMILIES[family]
        batch = simulate_batch(model, grid, master_seed, indices)
        for j, i in enumerate(indices):
            want = simulate_path(model, grid, SeedSpec(master_seed, i))
            got = batch.path(j)
            assert_same_path(got, want)
            assert np.array_equal(batch.left_values()[j], want.left_values())
            assert list(got.components) == list(want.components)
            for name, part in want.components.items():
                assert_same_path(got.components[name], part)

    def test_drift_of_the_wrong_shape_is_rejected(self):
        grid = TimeGrid(1.0, 10)
        for f in (lambda t: 1.0, lambda t: t[:-1], lambda t: t[None]):
            with pytest.raises(ValueError):
                simulate_path(DeterministicDrift(f), grid, SeedSpec(0, 0))


class TestDeterministicModels:
    def test_identity_drift(self):
        grid = TimeGrid(1.0, 100)
        p = simulate_path(DeterministicDrift(lambda t: t), grid, SeedSpec(0, 0))
        assert np.array_equal(p.values, grid.times())
        assert p.jump_indices.size == 0

    def test_zero_rate_compound_poisson(self):
        grid = TimeGrid(1.0, 100)
        p = simulate_path(
            CompoundPoisson(0.0, GaussianJumps(0.0, 1.0)), grid, SeedSpec(5, 0)
        )
        assert np.all(p.values == 0.0)
        assert p.jump_indices.size == 0


class TestStatistics:
    def test_brownian_terminal_variance(self):
        # X_1 is exactly N(0, sigma^2) at any resolution
        grid = TimeGrid(1.0, 8)
        finals = np.array(
            [
                simulate_path(BrownianMotion(1.0), grid, SeedSpec(123, i)).values[-1]
                for i in range(10_000)
            ]
        )
        assert abs(np.var(finals) - 1.0) < 0.05
        assert abs(np.mean(finals)) < 3.0 / np.sqrt(10_000)

    def test_fbm_covariance_structure(self):
        grid = TimeGrid(1.0, 64)
        H, scale = 0.7, 1.0
        model = FractionalBrownianMotion(H, scale)
        vals = np.empty((10_000, grid.n_nodes))
        for i in range(10_000):
            vals[i] = simulate_path(model, grid, SeedSpec(31, i)).values

        def R(s, t):
            return 0.5 * scale**2 * (s ** (2 * H) + t ** (2 * H) - abs(t - s) ** (2 * H))

        for s, t in [(0.25, 0.75), (0.5, 0.5), (0.5, 1.0)]:
            i, j = grid.index_of(s), grid.index_of(t)
            emp = float(np.mean(vals[:, i] * vals[:, j]))
            assert abs(emp / R(s, t) - 1.0) < 0.05

    def test_compound_poisson_jump_count(self):
        grid = TimeGrid(1.0, 1000)
        lam = 2.0
        model = CompoundPoisson(lam, GaussianJumps(0.0, 1.0))
        counts = np.array(
            [
                len(simulate_path(model, grid, SeedSpec(77, i)).jump_indices)
                for i in range(10_000)
            ]
        )
        assert abs(np.mean(counts) - lam) < 3 * np.sqrt(lam / 10_000)

    def test_composite_components_uncorrelated(self):
        grid = TimeGrid(1.0, 16)
        model = Composite(
            (
                BrownianMotion(1.0),
                FractionalBrownianMotion(0.7, 1.0),
                CompoundPoisson(2.0, GaussianJumps(0.0, 1.0)),
            )
        )
        incs = {"bm": [], "fbm": [], "cp": []}
        for i in range(10_000):
            p = simulate_path(model, grid, SeedSpec(55, i))
            for name in incs:
                incs[name].append(np.diff(p.components[name].values))
        flat = {k: np.concatenate(v) for k, v in incs.items()}
        for a, b in [("bm", "fbm"), ("bm", "cp"), ("fbm", "cp")]:
            corr = np.corrcoef(flat[a], flat[b])[0, 1]
            assert abs(corr) < 0.05

    def test_component_sum_reproduces_path(self):
        grid = TimeGrid(1.0, 500)
        model = Composite(
            (
                BrownianMotion(0.5),
                FractionalBrownianMotion(0.8, 0.3),
                CompoundPoisson(1.0, UniformJumps(-0.4, 0.4)),
                DeterministicDrift(lambda t: 0.2 * t**2),
            )
        )
        p = simulate_path(model, grid, SeedSpec(61, 0))
        total = sum(c.values for c in p.components.values())
        assert np.max(np.abs(total - p.values)) < 1e-12


class TestLawQuadrature:
    def test_discrete_expectation_exact(self):
        law = DiscreteAtoms((2.0, -2.0), (0.25, 0.75))
        assert law_expectation(law, lambda x: x) == pytest.approx(-1.0)

    def test_uniform_linear_moment(self):
        assert law_expectation(UniformJumps(0.0, 0.5), lambda x: x) == pytest.approx(0.25)

    def test_gaussian_second_moment(self):
        law = GaussianJumps(0.3, 0.5)
        assert law_expectation(law, lambda x: x**2) == pytest.approx(0.3**2 + 0.5**2)

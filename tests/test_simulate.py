import tracemalloc

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
    decompose,
    law_expectation,
    simulate_batch,
    simulate_path,
    standard_truncation,
)
from dirichlet_reg.simulate import (
    _POISSON_LAM_MAX, _QUAD_NODES, _check_simulable, _circulant_root, _gauss_rule, _Substreams,
)

LAW = GaussianJumps(0.0, 1.0)
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

    @pytest.mark.parametrize("a,b", [(-1e308, 1e308), (-np.inf, 0.0), (0.0, np.inf)])
    def test_uniform_width_must_be_a_float(self, a, b):
        with pytest.raises(ValueError, match="width b - a"):
            UniformJumps(a, b)
        UniformJumps(-0.5e308, 0.5e308)  # a width of 1e308 is a float

    @pytest.mark.parametrize("components, match", [
        ((Composite((BrownianMotion(1.0),)),), "must be leaf models, got Composite"),
        ((), "at least one component"),
    ], ids=["nested", "empty"])
    def test_composite_rejects_nesting(self, components, match):
        with pytest.raises(ValueError, match=match):
            Composite(components)

    @pytest.mark.parametrize("model", [LAW, "brownian", None], ids=["law", "str", "none"])
    def test_a_non_model_is_a_type_error(self, model):
        with pytest.raises(TypeError, match=f"not a model: {type(model).__name__}"):
            simulate_path(model, TimeGrid(1.0, 4), SeedSpec(0, 0))

    def test_poisson_mean_beyond_numpy_is_rejected(self):
        with pytest.raises(ValueError, match="Poisson mean"):
            simulate_path(CompoundPoisson(1e19, LAW), TimeGrid(1.0, 4), SeedSpec(0, 0))

    def test_poisson_mean_limit_is_rate_times_horizon(self):
        model = CompoundPoisson(_POISSON_LAM_MAX, LAW)
        _check_simulable(model, TimeGrid(1.0, 4))
        with pytest.raises(ValueError, match="over horizon 2.0 is a Poisson mean"):
            _check_simulable(model, TimeGrid(2.0, 4))

    def test_fbm_beyond_the_step_limit_is_rejected_before_any_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="step limit"):
                simulate_batch(FractionalBrownianMotion(0.7), TimeGrid(1.0, 2**23 + 1), 0, [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one (2^23 + 2,) row would take 64 MiB

    def test_zero_scale_fbm_has_no_step_limit(self):
        _check_simulable(FractionalBrownianMotion(0.7, 0.0), TimeGrid(1.0, 2**23 + 1))
        _check_simulable(FractionalBrownianMotion(0.7), TimeGrid(1.0, 2**23))

    @pytest.mark.parametrize("make, field", [
        pytest.param(lambda: CompoundPoisson(np.nan, LAW), "rate", id="cp_rate_nan"),
        pytest.param(lambda: CompoundPoisson(np.inf, LAW), "rate", id="cp_rate_inf"),
        pytest.param(lambda: LevyJumpDiffusion(0.0, 1.0, np.nan, LAW), "rate", id="ljd_rate_nan"),
        pytest.param(lambda: LevyJumpDiffusion(np.nan, 1.0, 1.0, LAW), "drift",
                     id="ljd_drift_nan"),
        pytest.param(lambda: GaussianJumps(0.0, np.nan), "sd", id="gauss_sd_nan"),
        pytest.param(lambda: GaussianJumps(np.inf, 1.0), "mean", id="gauss_mean_inf"),
        pytest.param(lambda: DiscreteAtoms((np.nan,), (1.0,)), "values", id="atom_value_nan"),
        pytest.param(lambda: DiscreteAtoms((np.inf,), (1.0,)), "values", id="atom_value_inf"),
        pytest.param(lambda: DiscreteAtoms((1.0,), (np.nan,)), "probabilities",
                     id="atom_probability_nan"),
    ])
    def test_non_finite_parameter_is_rejected_by_name(self, make, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make()


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

    def test_substreams_are_the_seed_spec_streams(self):
        # one bit generator, moved between substreams in any order, and reset
        # even when the previous draw left 32-bit or 64-bit output buffered
        streams = _Substreams(2**63 + 7)
        for i, component in [(0, 0), (5, 2), (2**64 - 1, 1), (5, 0), (0, 3), (5, 2)]:
            rng = streams.at(i, component)
            want = SeedSpec(2**63 + 7, i).generator(component)
            assert np.array_equal(rng.bit_generator.random_raw(9), want.bit_generator.random_raw(9))
            draw = rng.integers(0, 2**32, dtype=np.uint32)
            assert draw == want.integers(0, 2**32, dtype=np.uint32)

    def test_paths_differ_across_indices(self):
        grid = TimeGrid(1.0, 200)
        a = simulate_path(BrownianMotion(1.0), grid, SeedSpec(1, 0))
        b = simulate_path(BrownianMotion(1.0), grid, SeedSpec(1, 1))
        assert not np.array_equal(a.values, b.values)


def reference_fbm_values(grid, hurst, scale, rng):
    """One fBm path by circulant embedding, with its own eigenvalues and its
    own inverse FFT."""
    n = grid.n_steps
    k = np.arange(n + 1, dtype=np.float64)
    h2 = 2.0 * hurst
    rho = 0.5 * (np.abs(k + 1) ** h2 + np.abs(k - 1) ** h2 - 2 * k**h2)
    eig = np.clip(np.fft.fft(np.concatenate([rho[:n], rho[n:n + 1], rho[n - 1:0:-1]])).real,
                  0.0, None)
    z = np.empty(2 * n, dtype=np.complex128)
    z[0] = rng.standard_normal()
    z[n] = rng.standard_normal()
    v = rng.standard_normal((n - 1, 2))
    z[1:n] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
    z[n + 1:] = np.conj(z[1:n][::-1])
    fgn = np.sqrt(2 * n) * np.fft.ifft(np.sqrt(eig) * z).real[:n]
    out = np.zeros(n + 1)
    np.cumsum(fgn * (scale * grid.dt**hurst), out=out[1:])
    return out


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

    @pytest.mark.parametrize("n, size", [(512, 1), (512, 7), (512, 31), (512, 32), (512, 33),
                                         (512, 64), (16, 4096)])
    def test_composite_rows_are_the_per_path_paths_across_fft_blocks(self, n, size):
        # n = 512 puts 32 rows in a fractional-noise FFT block, n = 16 puts 1024
        grid = TimeGrid(1.0, n)
        model = FAMILIES["composite"]
        batch = simulate_batch(model, grid, 9, range(size))
        for j in range(size):
            want = simulate_path(model, grid, SeedSpec(9, j))
            got = batch.path(j)
            for name, part in [("total", want), *want.components.items()]:
                row = got if name == "total" else got.components[name]
                assert row.values.tobytes() == part.values.tobytes()
                assert row.jumps.tobytes() == part.jumps.tobytes()

    # 2^14 + 1 steps: one row per FFT block
    @pytest.mark.parametrize("n", [1, 2, 17, 512, 2**14 + 1])
    def test_fbm_rows_are_the_per_row_circulant_embedding(self, n):
        grid = TimeGrid(1.0, n)
        batch = simulate_batch(FractionalBrownianMotion(0.7, 0.5), grid, 4, range(70))
        for i, row in enumerate(batch.values):
            want = reference_fbm_values(grid, 0.7, 0.5, SeedSpec(4, i).generator(0))
            assert row.tobytes() == want.tobytes()

    def test_path_of_a_stack_carries_each_component_row(self):
        grid = TimeGrid(1.0, 32)
        batch = simulate_batch(FAMILIES["composite"], grid, 9, range(5))
        assert batch.values.shape == (5, grid.n_nodes)
        for j in range(5):
            got = batch.path(j)
            assert list(got.components) == list(batch.components) == ["bm", "fbm", "cp", "cp2"]
            pairs = [(got, batch)] + [(got.components[name], part)
                                      for name, part in batch.components.items()]
            for row, stack in pairs:
                assert row.values.tobytes() == stack.values[j].tobytes()
                assert row.jumps.tobytes() == stack.jumps[j].tobytes()

    def test_jump_indices_of_a_stack_raise(self):
        batch = simulate_batch(FAMILIES["compound_poisson"], TimeGrid(1.0, 32), 3, range(4))
        with pytest.raises(ValueError, match="one path"):
            batch.jump_indices
        with pytest.raises(ValueError, match="one path"):
            decompose(batch, FAMILIES["compound_poisson"], standard_truncation())

    def test_circulant_root_is_read_only(self):
        root = _circulant_root(64, 0.7)
        assert root.shape == (128,) and not root.flags.writeable
        with pytest.raises(ValueError):
            root[0] = 1.0

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

    def test_zero_scale_fbm_draws_zeros_and_keeps_the_later_streams(self):
        # the zero-scale part still owns substream 0, so the Brownian part
        # draws substream 1 as beside a nonzero fBm
        grid = TimeGrid(1.0, 64)
        rows = {scale: simulate_batch(Composite((FractionalBrownianMotion(0.7, scale),
                                                 BrownianMotion(1.0))), grid, 3, range(4))
                for scale in (0.0, 1.0)}
        assert not rows[0.0].components["fbm"].values.any()
        assert (rows[0.0].components["bm"].values.tobytes()
                == rows[1.0].components["bm"].values.tobytes())
        assert rows[0.0].values.tobytes() == rows[0.0].components["bm"].values.tobytes()


class TestStatistics:
    def test_brownian_terminal_variance(self):
        # X_1 is exactly N(0, sigma^2) at any resolution
        grid = TimeGrid(1.0, 8)
        finals = simulate_batch(BrownianMotion(1.0), grid, 123, range(10_000)).values[:, -1]
        assert abs(np.var(finals) - 1.0) < 0.05
        assert abs(np.mean(finals)) < 3.0 / np.sqrt(10_000)

    def test_fbm_covariance_structure(self):
        grid = TimeGrid(1.0, 64)
        H, scale = 0.7, 1.0
        model = FractionalBrownianMotion(H, scale)
        vals = simulate_batch(model, grid, 31, range(10_000)).values

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
        counts = np.count_nonzero(simulate_batch(model, grid, 77, range(10_000)).jumps, axis=1)
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
        parts = simulate_batch(model, grid, 55, range(10_000)).components
        flat = {name: np.diff(parts[name].values).ravel() for name in ("bm", "fbm", "cp")}
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

    @pytest.mark.parametrize("rule", [np.polynomial.hermite.hermgauss,
                                      np.polynomial.legendre.leggauss])
    def test_gauss_rule_is_built_once_and_read_only(self, rule):
        x, w = _gauss_rule(rule)
        assert _gauss_rule(rule) is _gauss_rule(rule)
        assert not x.flags.writeable and not w.flags.writeable
        fresh = rule(_QUAD_NODES)
        assert x.tobytes() == fresh[0].tobytes() and w.tobytes() == fresh[1].tobytes()

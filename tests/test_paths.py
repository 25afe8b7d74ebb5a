import numpy as np
import pytest

from dirichlet_reg import (
    CadlagPath,
    GridAlignmentError,
    GridMismatchError,
    TimeGrid,
    combine,
    constant_path,
    extract_jumps,
    path_from_function,
    star_integral,
)


def heaviside(grid: TimeGrid, jump_time=0.5, size=1.0) -> CadlagPath:
    i = grid.index_of(jump_time)
    values = np.where(np.arange(grid.n_nodes) >= i, size, 0.0)
    return CadlagPath.from_jumps(grid, values, {i: size})


@pytest.fixture
def grid():
    return TimeGrid(1.0, 100)


class TestEval:
    def test_heaviside_left_limit_before_jump(self, grid):
        assert heaviside(grid).eval(0.5, "left") == 0.0

    def test_heaviside_right_value_at_jump(self, grid):
        assert heaviside(grid).eval(0.5, "right") == 1.0

    def test_constant_path_left(self, grid):
        assert constant_path(grid, 3.0).eval(0.7, "left") == 3.0

    def test_both_sides_agree_at_zero(self, grid):
        p = heaviside(grid)
        assert p.eval(0.0, "left") == p.eval(0.0, "right") == 0.0

    def test_out_of_range_time_raises(self, grid):
        with pytest.raises(GridAlignmentError):
            heaviside(grid).eval(1.2, "right")
        with pytest.raises(GridAlignmentError):
            heaviside(grid).eval(-0.3, "left")

    def test_times_snap_to_nearest_node_within_half_step(self, grid):
        # alignment tolerance is dt/2: near-node queries resolve to the node
        p = heaviside(grid)
        assert p.eval(0.5031, "right") == p.eval(0.5, "right")

    def test_jump_is_right_minus_left_everywhere(self, grid):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(grid.n_nodes)
        p = CadlagPath.from_jumps(grid, values, {10: 1.5, 40: -0.3, 77: 0.25})
        for i in range(grid.n_nodes):
            t = i * grid.dt
            gap = p.eval(t, "right") - p.eval(t, "left")
            assert gap == pytest.approx(p.jumps[i], abs=1e-14)


class TestJumpRegistry:
    def test_validation_drops_zero_sizes(self, grid):
        p = CadlagPath.from_jumps(grid, np.zeros(grid.n_nodes), {5: 0.0, 7: -0.0})
        assert p.jump_indices.size == 0
        assert not np.any(np.signbit(p.jumps))

    def test_validation_rejects_index_zero(self, grid):
        with pytest.raises(ValueError):
            CadlagPath.from_jumps(grid, np.zeros(grid.n_nodes), {0: 1.0})

    def test_validation_rejects_index_beyond_last_node(self, grid):
        with pytest.raises(ValueError):
            CadlagPath.from_jumps(grid, np.zeros(grid.n_nodes), {grid.n_nodes: 1.0})

    def test_validation_rejects_unsorted(self, grid):
        with pytest.raises(ValueError):
            CadlagPath.from_jumps(grid, np.zeros(grid.n_nodes), [(7, 1.0), (3, 1.0)])

    def test_validation_rejects_repeated_index(self, grid):
        with pytest.raises(ValueError):
            CadlagPath.from_jumps(grid, np.zeros(grid.n_nodes), [(7, 1.0), (7, 2.0)])

    def test_extract_jumps_heaviside(self, grid):
        mu = extract_jumps(heaviside(grid))
        assert len(mu) == 1
        assert mu.times[0] == pytest.approx(0.5)
        assert mu.sizes[0] == 1.0

    def test_extract_jumps_continuous_path_empty(self, grid):
        p = path_from_function(grid, np.sin)
        assert len(extract_jumps(p)) == 0

    def test_extract_jumps_match_value_increments(self):
        # the registry of a pure-jump path must agree with the value steps
        from dirichlet_reg import CompoundPoisson, DiscreteAtoms, SeedSpec, simulate_path

        grid = TimeGrid(1.0, 1000)
        law = DiscreteAtoms((1.0, -2.0, 0.5), (0.3, 0.3, 0.4))
        p = simulate_path(CompoundPoisson(3.0, law), grid, SeedSpec(17, 0))
        mu = extract_jumps(p)
        steps = np.diff(p.values)
        observed = {i: s for i, s in zip(np.nonzero(steps)[0] + 1, steps[np.nonzero(steps)[0]])}
        assert observed == {
            int(i): pytest.approx(s) for i, s in zip(mu.indices, mu.sizes)
        }


class TestStarIntegral:
    def test_square_of_single_atom(self, grid):
        mu = extract_jumps(heaviside(grid, size=2.0))
        assert star_integral(lambda s, x, xl: x**2, mu, [0.0], 1.0) == 4.0

    def test_no_atoms_before_time(self, grid):
        mu = extract_jumps(heaviside(grid, jump_time=0.3, size=2.0))
        assert star_integral(lambda s, x, xl: x**2, mu, [0.0], 0.2) == 0.0

    def test_time_weighted_atoms_cancel(self, grid):
        p = CadlagPath.from_jumps(
            grid, np.zeros(grid.n_nodes), {30: 2.0, 60: -1.0}
        )
        mu = extract_jumps(p)
        total = star_integral(lambda s, x, xl: s * x, mu, [0.0, 0.0], 1.0)
        assert total == pytest.approx(0.3 * 2.0 + 0.6 * (-1.0))

    def test_additive_over_disjoint_intervals(self, grid):
        p = CadlagPath.from_jumps(grid, np.zeros(grid.n_nodes), {20: 1.0, 70: 3.0})
        mu = extract_jumps(p)
        lv = [0.0, 0.0]
        h = lambda s, x, xl: x**2
        assert star_integral(h, mu, lv, 1.0) == pytest.approx(
            star_integral(h, mu, lv, 0.5)
            + (star_integral(h, mu, lv, 1.0) - star_integral(h, mu, lv, 0.5))
        )
        assert star_integral(h, mu, lv, 0.5) == 1.0
        assert star_integral(h, mu, lv, 1.0) == 10.0

    def test_left_values_passed_through(self, grid):
        p = heaviside(grid, size=2.0)
        mu = extract_jumps(p)
        lv = p.left_values()[mu.indices]
        got = star_integral(lambda s, x, xl: xl + x, mu, lv, 1.0)
        assert got == 2.0  # left value 0, jump 2

    def test_linear_in_integrand(self, grid):
        p = CadlagPath.from_jumps(grid, np.zeros(grid.n_nodes), {25: 1.2, 80: -0.7})
        mu = extract_jumps(p)
        lv = [0.0, 0.0]
        h1 = lambda s, x, xl: x**2
        h2 = lambda s, x, xl: s * x
        combined = lambda s, x, xl: 3.0 * h1(s, x, xl) - 2.0 * h2(s, x, xl)
        got = star_integral(combined, mu, lv, 1.0)
        want = 3.0 * star_integral(h1, mu, lv, 1.0) - 2.0 * star_integral(h2, mu, lv, 1.0)
        assert got == pytest.approx(want, abs=1e-14)


class TestCombine:
    def test_cancellation_empties_registry(self, grid):
        h = heaviside(grid)
        z = combine(1.0, h, -1.0, h)
        assert z.jump_indices.size == 0
        assert np.all(z.values == 0.0)

    def test_same_jump_doubles(self, grid):
        h = heaviside(grid)
        d = combine(1.0, h, 1.0, h)
        assert list(d.jump_sizes) == [2.0]

    def test_scaling_linear_path(self, grid):
        lin = path_from_function(grid, lambda t: t)
        p = combine(2.0, lin, 0.0, constant_path(grid, 7.0))
        assert np.allclose(p.values, 2.0 * grid.times())

    def test_grid_mismatch_raises(self, grid):
        other = TimeGrid(1.0, 50)
        with pytest.raises(GridMismatchError):
            combine(1.0, constant_path(grid, 1.0), 1.0, constant_path(other, 1.0))

    def test_registry_combines_linearly(self, grid):
        a = CadlagPath.from_jumps(grid, np.zeros(grid.n_nodes), {10: 1.0, 20: 2.0})
        b = CadlagPath.from_jumps(grid, np.zeros(grid.n_nodes), {20: -2.0, 30: 1.0})
        c = combine(1.0, a, 1.0, b)
        assert dict(zip(c.jump_indices, c.jump_sizes)) == {10: 1.0, 30: 1.0}


def has_negative_zero(p: CadlagPath) -> bool:
    return bool(np.any(np.signbit(p.jumps) & (p.jumps == 0.0)))


class TestNoNegativeZeroJumps:
    """A jump of -0.0 is no jump: left limits keep the sign of every value."""

    def test_combine_of_negated_paths(self, grid):
        z = combine(-1.0, heaviside(grid), -1.0, path_from_function(grid, np.sin))
        assert not has_negative_zero(z)
        assert list(z.jump_indices) == [grid.index_of(0.5)]

    @pytest.mark.parametrize("f", [np.sin, lambda v: v * 0.0], ids=["sin", "times_zero"])
    def test_map_of_a_path_at_negative_zero(self, grid, f):
        # a -1 jump from 1 down to -0.0, then a -1 jump down to -1
        values = np.where(np.arange(grid.n_nodes) >= 30, -0.0, 1.0)
        values[60:] = -1.0
        p = CadlagPath.from_jumps(grid, values, {30: -1.0, 60: -1.0})
        img = p.map(f)
        assert not has_negative_zero(img)
        assert np.array_equal(img.jumps != 0.0, f(p.values) != f(p.left_values()))

    def test_csv_jump_of_negative_zero(self, tmp_path):
        f = tmp_path / "path.csv"
        f.write_text("t,value,jump\n0,0,0\n0.5,-0,-0\n1,1,1\n")
        p = CadlagPath.from_csv(f)
        assert not has_negative_zero(p)
        assert list(p.jump_indices) == [2]
        assert np.signbit(p.left_values()[1])


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path, grid):
        rng = np.random.default_rng(3)
        values = np.cumsum(rng.standard_normal(grid.n_nodes)) * 0.1
        p = CadlagPath.from_jumps(grid, values, {13: np.pi, 50: -1 / 3})
        f = tmp_path / "path.csv"
        p.to_csv(f)
        q = CadlagPath.from_csv(f)
        assert q.grid == p.grid
        assert np.array_equal(q.values, p.values)
        assert np.array_equal(q.jump_indices, p.jump_indices)
        assert np.array_equal(q.jump_sizes, p.jump_sizes)

    def test_rejects_jump_at_time_zero(self, tmp_path):
        f = tmp_path / "path.csv"
        f.write_text("t,value,jump\n0,1,1\n0.5,1,0\n1,1,0\n")
        with pytest.raises(ValueError, match="n_steps"):
            CadlagPath.from_csv(f)

    def test_rejects_non_uniform_times(self, tmp_path):
        f = tmp_path / "path.csv"
        f.write_text("t,value,jump\n0,0,0\n0.1,1,1\n0.5,2,1\n1.0,3,1\n")
        with pytest.raises(ValueError, match="uniform"):
            CadlagPath.from_csv(f)

    def test_accepts_times_within_rounding_of_the_grid(self, tmp_path):
        f = tmp_path / "path.csv"
        rows = "".join(f"{i * 0.1!r},{i},0\n" for i in range(11))  # 0.30000000000000004 ...
        f.write_text("t,value,jump\n" + rows)
        q = CadlagPath.from_csv(f)
        assert q.grid == TimeGrid(1.0, 10)
        assert np.array_equal(q.values, np.arange(11.0))

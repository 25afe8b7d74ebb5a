import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_reg import (
    CadlagPath,
    GridAlignmentError,
    GridMismatchError,
    TimeGrid,
    combine,
    star_integral,
)
from dirichlet_reg.paths import _format, _read_csv, _write_csv


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
        assert CadlagPath(grid, np.full(grid.n_nodes, 3.0)).eval(0.7, "left") == 3.0

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

    def test_jump_atoms_heaviside(self, grid):
        p = heaviside(grid)
        assert p.jump_indices.size == 1
        assert p.jump_sizes[0] == 1.0

    def test_jump_atoms_continuous_path_empty(self, grid):
        p = CadlagPath(grid, np.sin(grid.times()))
        assert p.jump_indices.size == p.jump_sizes.size == 0

    def test_jump_atoms_match_value_increments(self):
        # the jumps of a pure-jump path must agree with the value steps
        from dirichlet_reg import CompoundPoisson, DiscreteAtoms, SeedSpec, simulate_path

        grid = TimeGrid(1.0, 1000)
        law = DiscreteAtoms((1.0, -2.0, 0.5), (0.3, 0.3, 0.4))
        p = simulate_path(CompoundPoisson(3.0, law), grid, SeedSpec(17, 0))
        steps = np.diff(p.values)
        observed = {i: s for i, s in zip(np.nonzero(steps)[0] + 1, steps[np.nonzero(steps)[0]])}
        assert observed == {
            int(i): pytest.approx(s) for i, s in zip(p.jump_indices, p.jump_sizes)
        }


def _looped_star_integral(h, X, t):
    """Reference: a running total of h over the atoms at the nodes up to t's
    node, one scalar call each."""
    total = 0.0
    last = X.grid.index_of(t)
    atoms = zip(X.jump_indices, X.jump_indices * X.grid.dt, X.jump_sizes,
                X.left_values()[X.jump_indices])
    for i, s, x, xl in atoms:
        if i <= last:
            total += h(s, x, xl)
    return total


class TestStarIntegral:
    def test_square_of_single_atom(self, grid):
        p = heaviside(grid, size=2.0)
        assert star_integral(lambda s, x, xl: x**2, p, 1.0) == 4.0

    def test_no_atoms_before_time(self, grid):
        p = heaviside(grid, jump_time=0.3, size=2.0)
        assert star_integral(lambda s, x, xl: x**2, p, 0.2) == 0.0

    def test_time_weighted_atoms_cancel(self, grid):
        p = CadlagPath.from_jumps(
            grid, np.zeros(grid.n_nodes), {30: 2.0, 60: -1.0}
        )
        total = star_integral(lambda s, x, xl: s * x, p, 1.0)
        assert total == pytest.approx(0.3 * 2.0 + 0.6 * (-1.0))

    def test_additive_over_disjoint_intervals(self, grid):
        p = CadlagPath.from_jumps(grid, np.zeros(grid.n_nodes), {20: 1.0, 70: 3.0})
        h = lambda s, x, xl: x**2
        assert star_integral(h, p, 1.0) == pytest.approx(
            star_integral(h, p, 0.5)
            + (star_integral(h, p, 1.0) - star_integral(h, p, 0.5))
        )
        assert star_integral(h, p, 0.5) == 1.0
        assert star_integral(h, p, 1.0) == 10.0

    def test_left_values_read_off_the_path(self, grid):
        p = heaviside(grid, size=2.0)
        assert star_integral(lambda s, x, xl: xl + x, p, 1.0) == 2.0  # left value 0, jump 2
        lifted = combine(1.0, p, 1.0, CadlagPath(grid, np.full(grid.n_nodes, 1.0)))
        assert star_integral(lambda s, x, xl: xl, lifted, 1.0) == 1.0

    def test_constant_integrand_counts_atoms(self, grid):
        p = CadlagPath.from_jumps(grid, np.zeros(grid.n_nodes), {20: 1.0, 70: -3.0})
        assert star_integral(lambda s, x, xl: 1.0, p, 1.0) == 2.0

    def test_linear_in_integrand(self, grid):
        p = CadlagPath.from_jumps(grid, np.zeros(grid.n_nodes), {25: 1.2, 80: -0.7})
        h1 = lambda s, x, xl: x**2
        h2 = lambda s, x, xl: s * x
        combined = lambda s, x, xl: 3.0 * h1(s, x, xl) - 2.0 * h2(s, x, xl)
        got = star_integral(combined, p, 1.0)
        want = 3.0 * star_integral(h1, p, 1.0) - 2.0 * star_integral(h2, p, 1.0)
        assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("n", [10, 1000])
    def test_jump_at_a_decimal_grid_time_counts(self, n):
        # a unit jump at every node: up to node i the integral of x is i, as
        # eval gives, although i * dt exceeds the decimal time i / n for some i
        grid = TimeGrid(1.0, n)
        p = CadlagPath(grid, np.arange(n + 1.0), np.r_[0.0, np.ones(n)])
        for i in range(n + 1):
            assert star_integral(lambda s, x, xl: x, p, i / n) == p.eval(i / n) == i

    def test_matches_a_per_atom_loop_bit_for_bit(self):
        from dirichlet_reg import CompoundPoisson, GaussianJumps, simulate_batch

        grid = TimeGrid(1.0, 512)
        batch = simulate_batch(CompoundPoisson(20.0, GaussianJumps(0.1, 1.0)), grid, 7, range(40))
        for j in range(40):
            X = batch.path(j)
            for h in (lambda s, x, xl: x**2, lambda s, x, xl: s * x):
                for t in (0.3, 0.77, 1.0):
                    assert star_integral(h, X, t) == _looped_star_integral(h, X, t)


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
        lin = CadlagPath(grid, grid.times())
        p = combine(2.0, lin, 0.0, CadlagPath(grid, np.full(grid.n_nodes, 7.0)))
        assert np.allclose(p.values, 2.0 * grid.times())

    def test_grid_mismatch_raises(self, grid):
        other = TimeGrid(1.0, 50)
        with pytest.raises(GridMismatchError):
            combine(1.0, CadlagPath(grid, np.ones(grid.n_nodes)), 1.0,
                    CadlagPath(other, np.ones(other.n_nodes)))

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
        z = combine(-1.0, heaviside(grid), -1.0, CadlagPath(grid, np.sin(grid.times())))
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

    @pytest.mark.parametrize("row", ["0.5,nan,0", "0.5,1,inf", "0.5,-inf,0", "0.5,1,nan"])
    def test_rejects_non_finite_value_or_jump(self, tmp_path, row):
        f = tmp_path / "path.csv"
        f.write_text(f"t,value,jump\n0,0,0\n{row}\n1,1,0\n")
        with pytest.raises(ValueError, match="non-finite value or jump"):
            CadlagPath.from_csv(f)

    def test_accepts_times_within_rounding_of_the_grid(self, tmp_path):
        f = tmp_path / "path.csv"
        rows = "".join(f"{i * 0.1!r},{i},0\n" for i in range(11))  # 0.30000000000000004 ...
        f.write_text("t,value,jump\n" + rows)
        q = CadlagPath.from_csv(f)
        assert q.grid == TimeGrid(1.0, 10)
        assert np.array_equal(q.values, np.arange(11.0))


def reference_write_csv(path, header, *columns) -> None:
    """The csv-module writer, one f-string per number, that _write_csv replaces."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(0, columns[0].size, 4096):
            block = zip(*(c[i:i + 4096].tolist() for c in columns))
            w.writerows([f"{x:.17g}" for x in row] for row in block)


EDGE_BITS = np.array([-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1e300, -1e-300,
                      np.inf, -np.inf, np.nan, -np.nan, 1 / 3, 2.0**53 + 1]).view(np.uint64)


@st.composite
def float64_tables(draw):
    """1-6 columns of 0, 1, 4095, 4096 or 4097 rows of any float64 bit pattern,
    with the edge values and some drawn bit patterns (nan payloads, subnormals)
    planted among random bits."""
    rows = draw(st.sampled_from([0, 1, 4095, 4096, 4097]))
    cols = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2**64, rows * cols, dtype=np.uint64)
    planted = np.concatenate([EDGE_BITS, np.array(
        draw(st.lists(st.integers(0, 2**64 - 1), max_size=16)), dtype=np.uint64)])
    where = rng.integers(0, max(bits.size, 1), planted.size)
    if bits.size:
        bits[where] = planted
    return bits.view(np.float64).reshape(cols, rows)


RUN_ENDS = [4095, 4096, 4097]
RUN_BITS = np.concatenate([EDGE_BITS, np.array([
    0x7FF8000000000001, 0xFFF0000000000001, 0x7FF0000000000000, 0x000FFFFFFFFFFFFF,
    0x8000000000000001], dtype=np.uint64)])


@st.composite
def constant_run_tables(draw):
    """1-4 columns of 4097 or 8193 rows, each made of runs of one bit pattern
    (-0.0 beside +0.0, nan payloads, +-inf, subnormals or drawn bits) that
    end on rows 4095, 4096 or 4097, and which columns to pass as ``_format``
    text."""
    rows = draw(st.sampled_from([4097, 8193]))
    bit_patterns = st.one_of(st.sampled_from(RUN_BITS.tolist()), st.integers(0, 2**64 - 1))
    table = []
    for _ in range(draw(st.integers(1, 4))):
        ends = sorted(draw(st.sets(st.sampled_from(RUN_ENDS)))) + [rows]
        starts = [0] + ends[:-1]
        bits = np.concatenate([np.full(b - a, draw(bit_patterns), dtype=np.uint64)
                               for a, b in zip(starts, ends)])
        table.append(bits.view(np.float64))
    return table, draw(st.lists(st.booleans(), min_size=len(table), max_size=len(table)))


class TestCsvFormat:
    """_write_csv writes the bytes of the csv-module writer; _read_csv parses
    them to the bits of ``float()`` per cell."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(table=float64_tables())
    def test_writer_bytes_match_the_csv_module(self, tmp_path_factory, table):
        d = tmp_path_factory.mktemp("csv")
        header = [f"c{j}" for j in range(len(table))]
        reference_write_csv(d / "ref.csv", header, *table)
        _write_csv(d / "got.csv", header, *table)
        assert (d / "got.csv").read_bytes() == (d / "ref.csv").read_bytes()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(drawn=constant_run_tables())
    def test_constant_runs_and_text_columns_match_the_csv_module(self, tmp_path_factory,
                                                                 drawn):
        table, as_text = drawn
        d = tmp_path_factory.mktemp("csv")
        header = [f"c{j}" for j in range(len(table))]
        reference_write_csv(d / "ref.csv", header, *table)
        _write_csv(d / "got.csv", header,
                   *(_format(c) if text else c for c, text in zip(table, as_text)))
        assert (d / "got.csv").read_bytes() == (d / "ref.csv").read_bytes()

    @pytest.mark.parametrize("end", RUN_ENDS)
    @pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zeros_in_one_block_keep_their_signs(self, tmp_path, end, first, second):
        column = np.full(8193, first)
        column[end:] = second
        reference_write_csv(tmp_path / "ref.csv", ["z"], column)
        _write_csv(tmp_path / "got.csv", ["z"], column)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(table=float64_tables())
    def test_format_matches_the_f_string(self, table):
        for column in (*table, EDGE_BITS.view(np.float64), RUN_BITS.view(np.float64)):
            got = _format(column)
            assert got.dtype == object
            assert got.tolist() == [f"{x:.17g}" for x in column.tolist()]

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(table=float64_tables().filter(lambda t: t.shape[1] > 0))
    def test_reader_bits_match_float_per_cell(self, tmp_path_factory, table):
        f = tmp_path_factory.mktemp("csv") / "t.csv"
        header = [f"c{j}" for j in range(len(table))]
        _write_csv(f, header, *table)
        with open(f, newline="") as fh:
            cells = list(csv.reader(fh))[1:]
        want = np.array([[float(x) for x in row] for row in cells]).T
        got = _read_csv(f, header)
        assert got.flags.c_contiguous
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestCsvReader:
    HEADER = ["t", "value", "jump"]

    def read(self, tmp_path, text):
        f = tmp_path / "path.csv"
        f.write_text(text, newline="")
        return _read_csv(f, self.HEADER)

    def test_quoted_header_and_number_parse(self, tmp_path):
        got = self.read(tmp_path, '"t","value","jump"\r\n0.25,"1",0\r\n')
        assert got.tolist() == [[0.25], [1.0], [0.0]]

    def test_extra_columns_are_ignored(self, tmp_path):
        got = self.read(tmp_path, "t,value,jump,note\r\n0,1,0,7\r\n1,2,1,8\r\n")
        assert got.tolist() == [[0.0, 1.0], [1.0, 2.0], [0.0, 1.0]]

    def test_file_without_header_reads_as_data(self, tmp_path):
        got = self.read(tmp_path, "0,1,0\n1,2,1\n")
        assert got.tolist() == [[0.0, 1.0], [1.0, 2.0], [0.0, 1.0]]

    def test_blank_line_between_rows_is_skipped(self, tmp_path):
        got = self.read(tmp_path, "t,value,jump\r\n0,1,0\r\n\r\n1,2,1\r\n\n")
        assert got.tolist() == [[0.0, 1.0], [1.0, 2.0], [0.0, 1.0]]

    @pytest.mark.parametrize("text", ["", "t,value,jump\r\n", "t,value,jump\r\n\r\n", "\n"],
                             ids=["empty", "header_only", "header_and_blank", "blank"])
    def test_no_data_rows_raises_naming_the_file(self, tmp_path, text):
        with pytest.raises(ValueError, match="path.csv holds no data rows"):
            self.read(tmp_path, text)

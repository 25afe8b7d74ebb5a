import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_reg import (
    BrownianMotion,
    CadlagPath,
    CompoundPoisson,
    CovariationEstimate,
    DiscreteAtoms,
    EpsilonSchedule,
    SeedSpec,
    TimeGrid,
    combine,
    covariation_eps,
    covariation_limit,
    default_schedule,
    forward_integral_eps,
    forward_integral_limit,
    pure_jump_covariation_check,
    qv_decompose,
    simulate_path,
    smooth_map_cross_check,
    smooth_map_qv_check,
)
import dirichlet_reg.regularize as regularize
from dirichlet_reg.regularize import _fwd_eps, _identity_report, _qv_eps, _refinement


def heaviside(grid, jump_time=0.5, size=1.0):
    i = grid.index_of(jump_time)
    values = np.where(np.arange(grid.n_nodes) >= i, size, 0.0)
    return CadlagPath.from_jumps(grid, values, {i: size})


def step_path(grid, jumps):
    values = np.zeros(grid.n_nodes)
    for i, s in jumps.items():
        values[i:] += s
    return CadlagPath.from_jumps(grid, values, jumps)


@pytest.fixture
def grid():
    return TimeGrid(1.0, 1000)


class TestSchedule:
    def test_default_truncates_to_tenth_of_horizon(self):
        grid = TimeGrid(1.0, 100)  # dt = 0.01, cap at eps <= 0.1 -> m <= 10
        sched = default_schedule(grid)
        assert sched.multiples == (8, 4, 2, 1)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            EpsilonSchedule((2, 4))

    def test_rejects_sub_grid_eps(self):
        with pytest.raises(ValueError):
            EpsilonSchedule((0,))

    def test_eps_must_be_grid_multiple(self, grid):
        X = CadlagPath(grid, np.full(grid.n_nodes, 1.0))
        with pytest.raises(ValueError):
            covariation_eps(X, X, 1.5 * grid.dt)


class TestCovariationEps:
    def test_heaviside_exact_window(self):
        grid = TimeGrid(1.0, 100)
        h = heaviside(grid)
        traj = covariation_eps(h, h, 0.1)
        assert traj[-1] == 1.0

    def test_constant_is_zero(self, grid):
        c = CadlagPath(grid, np.full(grid.n_nodes, 4.2))
        assert np.all(covariation_eps(c, c, 8 * grid.dt) == 0.0)

    def test_symmetry_bitwise(self, grid):
        rng = np.random.default_rng(5)
        X = CadlagPath(grid, np.cumsum(rng.standard_normal(grid.n_nodes)) * 0.03)
        Y = CadlagPath(grid, np.cumsum(rng.standard_normal(grid.n_nodes)) * 0.03)
        assert np.array_equal(
            covariation_eps(X, Y, 4 * grid.dt), covariation_eps(Y, X, 4 * grid.dt)
        )

    def test_bilinearity(self, grid):
        rng = np.random.default_rng(6)
        mk = lambda: CadlagPath(grid, np.cumsum(rng.standard_normal(grid.n_nodes)) * 0.03)
        X, X2, Y = mk(), mk(), mk()
        a, b = 1.7, -0.4
        lhs = covariation_eps(combine(a, X, b, X2), Y, 4 * grid.dt)
        rhs = a * covariation_eps(X, Y, 4 * grid.dt) + b * covariation_eps(X2, Y, 4 * grid.dt)
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_polarization(self, grid):
        rng = np.random.default_rng(7)
        mk = lambda: CadlagPath(grid, np.cumsum(rng.standard_normal(grid.n_nodes)) * 0.03)
        X, Y = mk(), mk()
        eps = 8 * grid.dt
        lhs = covariation_eps(X, Y, eps)
        rhs = 0.5 * (
            covariation_eps(combine(1, X, 1, Y), combine(1, X, 1, Y), eps)
            - (covariation_eps(X, X, eps) + covariation_eps(Y, Y, eps))
        )
        scale = np.max(np.abs(lhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_cauchy_schwarz(self, grid):
        rng = np.random.default_rng(8)
        mk = lambda: CadlagPath(grid, np.cumsum(rng.standard_normal(grid.n_nodes)) * 0.03)
        X, Y = mk(), mk()
        eps = 4 * grid.dt
        cxy = covariation_eps(X, Y, eps)
        cxx = covariation_eps(X, X, eps)
        cyy = covariation_eps(Y, Y, eps)
        assert np.all(np.abs(cxy) <= np.sqrt(cxx * cyy) + 1e-12)

    def test_self_bracket_nonnegative(self, grid):
        rng = np.random.default_rng(9)
        X = CadlagPath(grid, rng.standard_normal(grid.n_nodes))
        assert np.all(covariation_eps(X, X, 16 * grid.dt) >= 0.0)

    def test_step_paths_exact_product_sum(self):
        grid = TimeGrid(1.0, 1000)
        X = step_path(grid, {100: 1.5, 400: -2.0, 800: 0.5})
        Y = step_path(grid, {100: 2.0, 400: 1.0, 650: 3.0})
        expected = 1.5 * 2.0 + (-2.0) * 1.0
        for m in (1, 4, 16):  # eps below the smallest jump gap
            assert covariation_eps(X, Y, m * grid.dt)[-1] == pytest.approx(
                expected, abs=1e-12
            )


class TestLimits:
    def test_step_paths_limit_exact_with_zero_error(self):
        grid = TimeGrid(1.0, 1000)
        X = step_path(grid, {300: 2.0})
        Y = step_path(grid, {300: -1.0, 700: 4.0})
        est = covariation_limit(X, Y, EpsilonSchedule((16, 8, 4, 2, 1)))
        assert est.limit[-1] == pytest.approx(-2.0, abs=1e-12)
        assert est.error_estimate == 0.0
        assert est.converged

    def test_independent_brownian_covariation_small(self):
        grid = TimeGrid(1.0, 2000)
        sched = default_schedule(grid)
        sups = []
        for i in range(20):
            X = simulate_path(BrownianMotion(1.0), grid, SeedSpec(100, i))
            Y = simulate_path(BrownianMotion(1.0), grid, SeedSpec(200, i))
            sups.append(np.max(np.abs(covariation_limit(X, Y, sched).limit)))
        assert np.median(sups) < 0.1

    def test_brownian_self_bracket_near_t(self):
        grid = TimeGrid(1.0, 2000)
        sched = default_schedule(grid)
        sups = []
        for i in range(20):
            X = simulate_path(BrownianMotion(1.0), grid, SeedSpec(300, i))
            sups.append(np.max(np.abs(covariation_limit(X, X, sched).limit - grid.times())))
        assert np.median(sups) < 0.1

    def test_white_noise_flags_nonconvergence(self, grid):
        rng = np.random.default_rng(11)
        X = CadlagPath(grid, rng.standard_normal(grid.n_nodes))
        est = covariation_limit(X, X, default_schedule(grid))
        assert not est.converged


class TestForwardIntegral:
    def test_constant_integrand_telescopes(self):
        grid = TimeGrid(1.0, 1000)
        h = heaviside(grid, 0.5, 2.0)
        one = CadlagPath(grid, np.full(grid.n_nodes, 1.0))
        est = forward_integral_limit(one, h, default_schedule(grid))
        assert np.max(np.abs(est.limit - (h.values - h.values[0]))) <= max(
            est.error_estimate, 1e-12
        )

    def test_time_against_time_is_half(self):
        grid = TimeGrid(1.0, 1000)
        lin = CadlagPath(grid, grid.times())
        est = forward_integral_limit(lin, lin, default_schedule(grid))
        assert abs(est.limit[-1] - 0.5) < 2 * grid.dt

    def test_brownian_matches_closed_form(self):
        # per-path comparison with (W_1^2 - 1)/2
        grid = TimeGrid(1.0, 2000)
        sched = EpsilonSchedule((16, 8, 4, 2))
        errs = []
        for i in range(20):
            W = simulate_path(BrownianMotion(1.0), grid, SeedSpec(400, i))
            est = forward_integral_eps(W, W, 2 * grid.dt)
            errs.append(abs(est[-1] - (W.values[-1] ** 2 - 1.0) / 2.0))
        assert np.median(errs) < 0.1


class TestQvDecompose:
    def test_heaviside_split_exact(self):
        grid = TimeGrid(1.0, 1000)
        h = heaviside(grid)
        dec = qv_decompose(h, EpsilonSchedule((8, 4, 2, 1)))
        i = grid.index_of(0.5)
        expected_jump = np.where(np.arange(grid.n_nodes) >= i, 1.0, 0.0)
        assert np.array_equal(dec.jump, expected_jump)
        assert np.max(np.abs(dec.continuous)) <= 1e-12

    def test_compound_poisson_continuous_part_vanishes(self):
        grid = TimeGrid(1.0, 2000)
        law = DiscreteAtoms((1.0, -1.0), (0.5, 0.5))
        X = simulate_path(CompoundPoisson(3.0, law), grid, SeedSpec(19, 0))
        dec = qv_decompose(X, default_schedule(grid))
        assert np.array_equal(dec.jump, np.cumsum(X.jumps * X.jumps))
        assert np.max(np.abs(dec.continuous)) <= max(
            2 * dec.estimate.error_estimate, 1e-10
        )

    def test_brownian_split(self):
        grid = TimeGrid(1.0, 2000)
        X = simulate_path(BrownianMotion(1.0), grid, SeedSpec(23, 0))
        dec = qv_decompose(X, default_schedule(grid))
        assert np.all(dec.jump == 0.0)
        assert np.max(np.abs(dec.continuous - grid.times())) < 0.1


class TestPureJumpCheck:
    def test_shared_jump_times_exact(self):
        grid = TimeGrid(1.0, 1000)
        Y = step_path(grid, {200: 1.0, 600: -2.0})
        Z = step_path(grid, {200: 3.0, 450: 1.0})
        rep = pure_jump_covariation_check(Y, Z, EpsilonSchedule((8, 4, 2, 1)))
        assert rep.precondition_ok
        assert rep.sup_distance <= 1e-12

    def test_step_vs_continuous_both_sides_zero(self):
        grid = TimeGrid(1.0, 1000)
        Y = step_path(grid, {500: 1.0})
        Z = CadlagPath(grid, np.sin(2 * np.pi * grid.times()))
        rep = pure_jump_covariation_check(Y, Z, EpsilonSchedule((8, 4, 2, 1)))
        assert rep.precondition_ok
        assert rep.sup_distance <= max(2 * rep.error_estimate, 1e-6)

    def test_lhs_is_the_covariation_limit_on_rough_paths(self):
        grid = TimeGrid(1.0, 4096)
        sched = default_schedule(grid)
        W = simulate_path(BrownianMotion(1.0), grid, SeedSpec(31, 0))
        Z = simulate_path(CompoundPoisson(5.0, DiscreteAtoms((1.0, -0.5), (0.5, 0.5))),
                          grid, SeedSpec(32, 0))
        for Y, X in ((W, Z), (Z, W), (W, W)):
            rep = pure_jump_covariation_check(Y, X, sched)
            est = covariation_limit(Y, X, sched)
            assert rep.lhs.tobytes() == est.limit.tobytes()
            assert (rep.error_estimate, rep.converged) == (est.error_estimate, est.converged)

    def test_precondition_violation_reported(self):
        grid = TimeGrid(1.0, 2000)
        W = simulate_path(BrownianMotion(1.0), grid, SeedSpec(31, 0))
        Z = step_path(grid, {500: 1.0})
        rep = pure_jump_covariation_check(W, Z, default_schedule(grid))
        assert not rep.precondition_ok
        assert "tolerance" in rep.precondition_note


class TestSmoothMapChecks:
    def test_identity_map_exact(self):
        grid = TimeGrid(1.0, 1000)
        X = step_path(grid, {250: 1.0, 750: -0.5})
        rep = smooth_map_qv_check(
            X, lambda x: x, lambda x: np.ones_like(x), EpsilonSchedule((8, 4, 2, 1))
        )
        assert rep.sup_distance <= 1e-12

    def test_tanh_of_pure_jump_path(self):
        grid = TimeGrid(1.0, 2000)
        law = DiscreteAtoms((1.5, -1.0), (0.5, 0.5))
        X = simulate_path(CompoundPoisson(2.0, law), grid, SeedSpec(41, 0))
        sech2 = lambda x: 1.0 - np.tanh(x) ** 2
        rep = smooth_map_qv_check(X, np.tanh, sech2, default_schedule(grid))
        # continuous part vanishes: the bracket is the squared tanh jump sum
        assert rep.sup_distance <= max(2 * rep.error_estimate, 1e-8)

    def test_sine_of_brownian(self):
        grid = TimeGrid(1.0, 2000)
        X = simulate_path(BrownianMotion(1.0), grid, SeedSpec(43, 0))
        rep = smooth_map_qv_check(X, np.sin, np.cos, default_schedule(grid))
        assert rep.sup_distance < 0.15

    def test_two_function_variant(self):
        grid = TimeGrid(1.0, 2000)
        X1 = simulate_path(BrownianMotion(1.0), grid, SeedSpec(47, 0))
        cp = simulate_path(
            CompoundPoisson(1.0, DiscreteAtoms((1.0, -1.0), (0.5, 0.5))),
            grid,
            SeedSpec(47, 1),
        )
        X2 = combine(1.0, X1, 1.0, cp)
        sech2 = lambda x: 1.0 - np.tanh(x) ** 2
        rep = smooth_map_cross_check(
            X1, np.sin, np.cos, X2, np.tanh, sech2, default_schedule(grid)
        )
        assert rep.sup_distance < 0.2


values_st = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def path_pairs(draw, max_nodes=40):
    n1 = draw(st.integers(3, max_nodes))
    rows = st.lists(values_st, min_size=n1, max_size=n1)
    grid = TimeGrid(1.0, n1 - 1)
    return CadlagPath(grid, np.array(draw(rows))), CadlagPath(grid, np.array(draw(rows)))


def schedule_for(grid, top):
    return EpsilonSchedule(tuple(m for m in (4, 2, 1) if m <= min(top, grid.n_steps - 1)))


@st.composite
def separated_step_paths(draw):
    """Two step paths and the largest shift m below which their jumps are
    isolated: every jump node is more than m nodes past the last one (and
    past 0), and a node carrying jumps of both paths counts once."""
    m = draw(st.one_of(st.integers(1, 6), st.integers(33, 200)))
    gaps = draw(st.lists(st.integers(m + 1, m + 8), min_size=1, max_size=5))
    idx = np.cumsum(gaps)
    sizes = st.lists(st.floats(-3.0, 3.0, allow_subnormal=False),
                     min_size=idx.size, max_size=idx.size)
    grid = TimeGrid(1.0, int(idx[-1]) + draw(st.integers(0, m + 3)))
    x_sizes, y_sizes = np.array(draw(sizes)), np.array(draw(sizes))
    X, Y = (step_path(grid, dict(zip(idx.tolist(), s.tolist()))) for s in (x_sizes, y_sizes))
    return X, Y, m


def cents(top):
    """Multiples of 0.01 in [-top/100, top/100]: no magnitude so small that it underflows."""
    return st.integers(-top, top).map(lambda k: k / 100)


@st.composite
def jump_path_triples(draw, max_nodes=40):
    """Three random walks on one grid, each with jumps at a few random nodes."""
    n1 = draw(st.integers(4, max_nodes))
    grid = TimeGrid(1.0, n1 - 1)
    paths = []
    for _ in range(3):
        steps = np.array(draw(st.lists(cents(300), min_size=n1, max_size=n1)))
        nodes = draw(st.sets(st.integers(1, n1 - 1), max_size=4))
        sizes = draw(st.lists(cents(500), min_size=len(nodes), max_size=len(nodes)))
        jumps = dict(zip(sorted(nodes), sizes))
        steps[list(jumps)] += sizes
        paths.append(CadlagPath.from_jumps(grid, np.cumsum(steps), jumps))
    return tuple(paths)


class TestEstimatorProperties:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(pair=path_pairs(), top=st.integers(1, 4))
    def test_covariation_limit_is_bitwise_symmetric(self, pair, top):
        X, Y = pair
        sched = schedule_for(X.grid, top)
        xy, yx = covariation_limit(X, Y, sched), covariation_limit(Y, X, sched)
        assert np.array_equal(xy.trajectories, yx.trajectories)
        assert xy.error_estimate == yx.error_estimate
        assert xy.converged == yx.converged

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(pair=path_pairs(), top=st.integers(1, 4))
    def test_limits_stack_the_per_eps_trajectories(self, pair, top):
        X, Y = pair
        sched = schedule_for(X.grid, top)
        for est, per_eps in ((covariation_limit(X, Y, sched), covariation_eps),
                             (forward_integral_limit(X, Y, sched), forward_integral_eps)):
            want = np.stack([per_eps(X, Y, e) for e in sched.epsilons(X.grid)])
            assert est.trajectories.tobytes() == want.tobytes()
            assert np.array_equal(est.eps_values, sched.epsilons(X.grid))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(case=jump_path_triples(), top=st.integers(1, 4), same=st.booleans())
    def test_pure_jump_lhs_is_the_covariation_limit(self, case, top, same):
        # the check polarizes against the [Y, Y] trajectories of its precondition
        Y, Z, _ = case
        if same:
            Z = Y
        sched = schedule_for(Y.grid, top)
        rep = pure_jump_covariation_check(Y, Z, sched)
        est = covariation_limit(Y, Z, sched)
        assert rep.lhs.tobytes() == est.limit.tobytes()
        assert rep.error_estimate == est.error_estimate
        assert rep.converged == est.converged

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(pair=path_pairs(), top=st.integers(1, 4))
    def test_self_brackets_are_nonnegative(self, pair, top):
        for X in pair:
            est = covariation_limit(X, X, schedule_for(X.grid, top))
            assert np.all(est.trajectories >= 0.0)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(case=separated_step_paths())
    def test_step_paths_with_isolated_jumps_are_exact(self, case):
        X, Y, m = case
        want = np.cumsum(X.jumps * Y.jumps)
        for k in range(1, m + 1):
            got = covariation_eps(X, Y, k * X.grid.dt)
            assert np.max(np.abs(got - want)) <= 1e-12

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(rows=st.integers(1, 5), n1=st.integers(2, 30), m=st.integers(1, 32),
           data=st.data())
    def test_qv_eps_rows_equal_single_rows(self, rows, n1, m, data):
        stack = np.array(data.draw(st.lists(
            st.lists(values_st, min_size=n1, max_size=n1), min_size=rows, max_size=rows)))
        got = _qv_eps(stack, m)
        for r in range(rows):
            assert np.array_equal(got[r], _qv_eps(stack[r].copy(), m))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(rows=st.integers(1, 5), n1=st.integers(2, 30), m=st.integers(1, 32),
           data=st.data())
    def test_fwd_eps_rows_equal_single_rows(self, rows, n1, m, data):
        stacks = st.lists(st.lists(values_st, min_size=n1, max_size=n1),
                          min_size=rows, max_size=rows)
        vy, vx = np.array(data.draw(stacks)), np.array(data.draw(stacks))
        got = _fwd_eps(vy, vx, m)
        for r in range(rows):
            assert np.array_equal(got[r], _fwd_eps(vy[r].copy(), vx[r].copy(), m))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(case=jump_path_triples(), a=cents(1000), b=cents(1000), top=st.integers(1, 4))
    def test_covariation_limit_is_bilinear(self, case, a, b, top):
        X, Y, Z = case
        sched = schedule_for(X.grid, top)
        cov = lambda U, V: covariation_limit(U, V, sched).trajectories
        got = cov(combine(a, X, b, Y), Z)
        want = a * cov(X, Z) + b * cov(Y, Z)
        # each increment of a polarized sum rounds relative to the path values
        size = sum(np.max(np.abs(v)) for v in (a * X.values, b * Y.values, Z.values))
        assert np.max(np.abs(got - want)) <= 1e-12 * X.grid.n_nodes * size**2

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(bars=st.lists(st.tuples(st.floats(0.0, 1e3), st.booleans()), min_size=1, max_size=4),
           pair=path_pairs(max_nodes=8))
    def test_identity_report_sums_error_bars_and_needs_every_estimate(self, bars, pair):
        lhs, rhs = pair[0].values, pair[1].values
        grid = pair[0].grid
        estimates = [
            CovariationEstimate(grid, np.ones(1), lhs[None], lhs, err, ok)
            for err, ok in bars
        ]
        rep = _identity_report("property", lhs, rhs, estimates)
        want = 0.0
        for err, _ in bars:
            want += err
        assert rep.error_estimate == want
        assert rep.converged == all(ok for _, ok in bars)
        assert rep.sup_distance == float(np.max(np.abs(lhs - rhs)))
        assert rep.precondition_ok and rep.lhs is lhs and rep.rhs is rhs


def reference_shift_form(v, m, w=None):
    """The direct O(m*n) sum behind _qv_eps (w None: each increment weights
    itself) and _fwd_eps: the lag-m terms as a prefix sum, then the clamped
    tail added offset by offset, then 1/m."""
    n1 = v.shape[-1]
    out = np.zeros_like(v)
    if m < n1:
        d = v[..., m:] - v[..., :-m]
        out[..., m:] = np.cumsum((d if w is None else w[..., :-m]) * d, axis=-1)
    for off in range(1, min(m, n1)):
        d = v[..., off:] - v[..., :-off]
        out[..., off:] += (d if w is None else w[..., :-off]) * d
    return out / m


@st.composite
def window_rows(draw, rows=1):
    """(rows, n1) values and weights, with a shift m above the loop's 32 and
    n1 from below m up to several chunks of m - 1 nodes: Brownian walks,
    step paths with offsets, and walks with jumps."""
    m = draw(st.integers(33, 200))
    n1 = draw(st.integers(2, 5 * m))
    kind = draw(st.sampled_from(["walk", "steps", "jumps"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.standard_normal((rows, n1)) * 0.05
    jumps = np.where(rng.random((rows, n1)) < 0.01, rng.uniform(-3, 3, (rows, n1)), 0.0)
    v = {"walk": steps, "steps": jumps, "jumps": steps + jumps}[kind].cumsum(axis=-1)
    v += rng.uniform(-5.0, 5.0, (rows, 1))
    return v, np.tanh(v) + rng.standard_normal((rows, n1)) * 0.1, m


def window_bounds(v, w):
    """1e-12 (n+1) R^2 for the quadratic form, R the range of the row, and
    1e-12 (n+1) R max|w| for the forward form."""
    n1, R = v.shape[-1], np.ptp(v)
    return 1e-12 * n1 * R * R, 1e-12 * n1 * R * np.max(np.abs(w))


class TestWindowTail:
    """Shifts above 32 steps sum the clamped tail from window sums in O(n)."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=window_rows())
    def test_matches_the_direct_sum(self, case):
        (v,), (w,), m = case
        qv_bound, fwd_bound = window_bounds(v, w)
        assert np.max(np.abs(_qv_eps(v, m) - reference_shift_form(v, m))) <= qv_bound
        assert np.max(np.abs(_fwd_eps(w, v, m) - reference_shift_form(v, m, w))) <= fwd_bound

    @pytest.mark.parametrize("m", [1, 2, 7, 31, 32])
    def test_loop_shifts_equal_the_direct_sum_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        for n1 in (1, 2, m, m + 1, 3 * m + 5, 500):
            v = rng.standard_normal((2, n1)).cumsum(axis=-1)
            w = rng.standard_normal((2, n1))
            assert _qv_eps(v, m).tobytes() == reference_shift_form(v, m).tobytes()
            assert _fwd_eps(w, v, m).tobytes() == reference_shift_form(v, m, w).tobytes()

    @pytest.mark.parametrize("m", [33, 64, 200, 1000])
    def test_shift_at_or_beyond_the_row(self, m):
        # every node's window starts at node 0, and no lag-m term exists
        rng = np.random.default_rng(m)
        for n1 in (1, 2, 3, m // 2, m - 1, m):
            v = rng.standard_normal(n1).cumsum() + 2.0
            w = rng.standard_normal(n1)
            qv_bound, fwd_bound = window_bounds(v, w)
            assert np.max(np.abs(_qv_eps(v, m) - reference_shift_form(v, m))) <= qv_bound
            assert np.max(np.abs(_fwd_eps(w, v, m) - reference_shift_form(v, m, w))) <= fwd_bound

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=window_rows())
    def test_self_brackets_are_nonnegative(self, case):
        v, _, m = case
        assert np.all(_qv_eps(v[0], m) >= 0.0)

    def test_quadratic_tail_is_clamped_at_zero(self):
        # after a jump inside the first chunk, the windows of the next chunks
        # are flat away from that chunk's reference: their tail is 0 exactly,
        # and its window sums round to either side of 0
        rng = np.random.default_rng(0)
        for _ in range(20):
            L = int(rng.integers(32, 120))
            v = np.zeros(3 * L)
            v[rng.integers(1, L):] = rng.uniform(-3.0, 3.0)
            tail = np.zeros_like(v)
            regularize._window_tail(v, L, None, tail)
            assert np.all(tail >= 0.0)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(case=window_rows(rows=2), finer=st.integers(1, 32))
    def test_covariation_limit_is_bitwise_symmetric(self, case, finer):
        v, _, m = case
        grid = TimeGrid(1.0, v.shape[-1] + m - 1)  # room for eps = m dt < T
        X, Y = (CadlagPath(grid, np.append(row, row[-1] + np.arange(1, m + 1) * 0.01))
                for row in v)
        sched = EpsilonSchedule((m, finer))
        xy, yx = covariation_limit(X, Y, sched), covariation_limit(Y, X, sched)
        assert xy.trajectories.tobytes() == yx.trajectories.tobytes()
        assert (xy.error_estimate, xy.converged) == (yx.error_estimate, yx.converged)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(case=window_rows(rows=4))
    def test_rows_equal_single_rows_bit_for_bit(self, case):
        v, w, m = case
        qv, fwd = _qv_eps(v, m), _fwd_eps(w, v, m)
        for r in range(v.shape[0]):
            assert qv[r].tobytes() == _qv_eps(v[r].copy(), m).tobytes()
            assert fwd[r].tobytes() == _fwd_eps(w[r].copy(), v[r].copy(), m).tobytes()

    @pytest.mark.parametrize("run_nodes", [1, 300, 5000])
    def test_runs_of_chunks_do_not_change_a_bit(self, run_nodes, monkeypatch):
        rng = np.random.default_rng(run_nodes)
        v = rng.standard_normal((3, 4000)).cumsum(axis=-1)
        w = rng.standard_normal((3, 4000))
        want = [_qv_eps(v, m).tobytes() + _fwd_eps(w, v, m).tobytes() for m in (33, 77, 200)]
        monkeypatch.setattr(regularize, "_RUN_NODES", run_nodes)
        got = [_qv_eps(v, m).tobytes() + _fwd_eps(w, v, m).tobytes() for m in (33, 77, 200)]
        assert got == want


class TestRefinement:
    def test_keeps_only_the_previous_trajectory_alive(self):
        rng = np.random.default_rng(3)
        made = []

        def trajectories():
            for scale in (4.0, 2.0, 1.0, 0.5):
                # the consumer holds the previous trajectory only
                assert sum(ref() is not None for ref in made) <= 1
                traj = rng.standard_normal((2, 50)) * scale
                made.append(weakref.ref(traj))
                yield traj
                del traj

        diffs, converged, finest = _refinement(trajectories())
        assert diffs.shape == (3, 2) and converged.shape == (2,)
        assert finest is made[-1]()

    def test_stacked_and_streamed_trajectories_agree(self):
        traj = np.random.default_rng(4).standard_normal((4, 3, 20)).cumsum(axis=-1)
        stacked = _refinement(traj)
        streamed = _refinement(iter(list(traj)))
        for a, b in zip(stacked, streamed):
            assert a.tobytes() == b.tobytes()


class TestLimit:
    @pytest.mark.parametrize("estimate", [forward_integral_limit, covariation_limit])
    def test_holds_its_trajectories_once(self, estimate):
        # each trajectory goes into its row as soon as it is computed: the
        # peak is the rows plus the kernel's scratch (three rows here), not a
        # list of the rows and a stacked copy
        grid = TimeGrid(1.0, 2**14)
        X = simulate_path(BrownianMotion(1.0), grid, SeedSpec(0, 0))
        schedule = EpsilonSchedule((128, 32, 8, 2, 1))
        estimate(X, X, schedule)
        tracemalloc.start()
        try:
            est = estimate(X, X, schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row = grid.n_nodes * 8
        assert peak < est.trajectories.nbytes + 4 * row
        assert est.limit.tobytes() == est.trajectories[-1].tobytes()

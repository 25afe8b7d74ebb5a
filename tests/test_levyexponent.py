import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_reg import (
    ExponentGrid,
    GriddedDensity,
    Triplet1D,
    WeightedAtoms,
    exponent_eval,
    phi_w,
    recover_triplet,
    standard_truncation,
)
from dirichlet_reg.characteristics import smooth_clip_truncation
from dirichlet_reg.levyexponent import atom_mass, kernel_null_halfwidth

STD = standard_truncation()


def gaussian_density_measure(weight=2.0, sd=0.25, x_max=4.0, n=4001):
    xs = ExponentGrid.symmetric_grid(x_max, n)
    dens = weight * np.exp(-(xs**2) / (2 * sd**2)) / (sd * np.sqrt(2 * np.pi))
    return GriddedDensity(xs, dens)


def reference_psi(triplet, u) -> np.ndarray:
    """psi by one measure integral per u, the loop exponent_eval replaces."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    psi = 1j * u_arr * triplet.b - 0.5 * u_arr**2 * triplet.c
    k = triplet.truncation
    xs, wts = triplet.lam.nodes()
    for i, ui in enumerate(u_arr):
        psi[i] += complex(np.sum(wts * (np.exp(1j * ui * xs) - 1.0 - 1j * ui * k(xs))))
    return psi


SIGNED_XS = np.linspace(-3.0, 5.0, 640)
MEASURES = {
    "gridded": gaussian_density_measure(n=801),
    "signed_gridded": GriddedDensity(SIGNED_XS, np.sin(3 * SIGNED_XS) * np.exp(-np.abs(SIGNED_XS))),
    "atoms": WeightedAtoms(np.array([2.0]), np.array([1.0])),
    "signed_atoms": WeightedAtoms(np.array([0.5, -0.8, 1.0, -1.0, 2.5]),
                                  np.array([1.0, -0.5, 0.3, 0.2, -0.1])),
}
U_GRIDS = {
    "odd_with_zero": ExponentGrid.symmetric_grid(20.0, 257),
    "even": ExponentGrid.symmetric_grid(40.0, 300),
    "short_odd": np.array([-2.0, -0.0, 2.0]),
    "signed_zeros": np.array([-0.0, 0.0]),
    "not_antisymmetric": np.linspace(-3.0, 7.0, 301),
    "positive": np.linspace(0.0, 10.0, 130),
    "scalar": 1.7,
}


class TestExponentEval:
    @pytest.mark.parametrize("grid", sorted(U_GRIDS))
    @pytest.mark.parametrize("truncation", [STD, smooth_clip_truncation()],
                             ids=["standard", "smooth_clip"])
    @pytest.mark.parametrize("measure", sorted(MEASURES))
    def test_bits_equal_the_per_u_loop(self, measure, truncation, grid):
        tri = Triplet1D(-0.3, -0.4, MEASURES[measure], truncation)
        u = U_GRIDS[grid]
        got = np.atleast_1d(np.asarray(exponent_eval(tri, u), dtype=np.complex128))
        assert got.tobytes() == reference_psi(tri, u).tobytes()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(b=st.floats(-3, 3), c=st.floats(-3, 3),
           atoms=st.lists(st.tuples(st.floats(0.01, 5), st.booleans(), st.floats(-2, 2)),
                          min_size=1, max_size=8),
           gridded=st.booleans(), u_max=st.floats(0.5, 60), m=st.integers(2, 200),
           smooth=st.booleans())
    def test_psi_at_minus_u_is_the_conjugate(self, b, c, atoms, gridded, u_max, m, smooth):
        xs = np.array([x if positive else -x for x, positive, _ in atoms])
        ws = np.array([w for _, _, w in atoms])
        if gridded:
            grid_x = ExponentGrid.symmetric_grid(float(np.max(np.abs(xs))) + 1.0, 4 * m + 1)
            lam = GriddedDensity(grid_x, np.interp(grid_x, np.sort(xs), ws[np.argsort(xs)]))
        else:
            lam = WeightedAtoms(xs, ws)
        tri = Triplet1D(b, c, lam, smooth_clip_truncation() if smooth else STD)
        u = ExponentGrid.symmetric_grid(u_max, m)
        psi = exponent_eval(tri, u)
        assert np.array_equal(psi[::-1], np.conj(psi))
        # each sign evaluated on its own (neither array is antisymmetric)
        upper = u[u > 0]
        assert np.array_equal(exponent_eval(tri, -upper), np.conj(exponent_eval(tri, upper)))

    def test_zero_triplet(self):
        tri = Triplet1D(0.0, 0.0, None, STD)
        u = np.linspace(-5, 5, 11)
        assert np.all(exponent_eval(tri, u) == 0.0)

    def test_pure_gaussian_part(self):
        tri = Triplet1D(0.0, 1.0, None, STD)
        assert exponent_eval(tri, 2.0) == pytest.approx(-2.0)

    def test_single_atom_standard_truncation(self):
        # atom at 2: k(2) = 0, so psi(u) = e^{2iu} - 1 and psi(pi) = 0
        lam = WeightedAtoms(np.array([2.0]), np.array([1.0]))
        tri = Triplet1D(0.0, 0.0, lam, STD)
        assert abs(exponent_eval(tri, np.pi)) < 1e-12
        assert exponent_eval(tri, 0.25) == pytest.approx(np.exp(0.5j) - 1.0)

    def test_linearity(self):
        lam = WeightedAtoms(np.array([0.5, 2.0]), np.array([1.0, -0.5]))
        t1 = Triplet1D(0.3, 0.7, lam, STD)
        t2 = Triplet1D(-0.1, 0.2, None, STD)
        tsum = Triplet1D(0.2, 0.9, lam, STD)
        u = np.linspace(-10, 10, 41)
        lhs = exponent_eval(tsum, u)
        rhs = exponent_eval(t1, u) + exponent_eval(t2, u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))

    def test_hermitian_symmetry(self):
        tri = Triplet1D(0.4, 0.8, gaussian_density_measure(), STD)
        g = ExponentGrid.from_triplet(tri, u_max=20.0, m=257)
        assert np.max(np.abs(g.psi[::-1] - np.conj(g.psi))) < 1e-10

    def test_psi_vanishes_at_zero_on_odd_grids(self):
        tri = Triplet1D(0.5, 1.0, gaussian_density_measure(), STD)
        g = ExponentGrid.from_triplet(tri, u_max=10.0, m=257)
        i0 = np.flatnonzero(g.u == 0.0)[0]
        assert abs(g.psi[i0]) < 1e-12


class TestPhiW:
    def test_gaussian_part_gives_flat_sixth(self):
        tri = Triplet1D(0.0, 1.0, None, STD)
        g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        u = np.linspace(-30, 30, 61)
        vals = phi_w(g, 1.0, u)
        # linear interpolation of the quadratic exponent bounds the error
        assert np.max(np.abs(vals - 1.0 / 6.0)) < 5e-4

    def test_zero_exponent_gives_zero(self):
        g = ExponentGrid(
            ExponentGrid.symmetric_grid(10.0, 512), np.zeros(512, dtype=complex)
        )
        assert np.max(np.abs(phi_w(g, 2.0, np.linspace(-5, 5, 21)))) == 0.0

    def test_pure_drift_cancels(self):
        tri = Triplet1D(0.7, 0.0, None, STD)
        g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        assert np.max(np.abs(phi_w(g, 2.0, np.linspace(-30, 30, 101)))) < 1e-10

    def test_out_of_range_raises(self):
        tri = Triplet1D(0.0, 1.0, None, STD)
        g = ExponentGrid.from_triplet(tri, u_max=10.0, m=512)
        with pytest.raises(ValueError):
            phi_w(g, 2.0, 9.5)

    def test_zero_w_rejected(self):
        tri = Triplet1D(0.0, 1.0, None, STD)
        g = ExponentGrid.from_triplet(tri, u_max=10.0, m=512)
        with pytest.raises(ValueError):
            phi_w(g, 0.0, 1.0)


def reference_recovery(grid, w, x_max=4.0, x_cells=1024, weight_guard=1e-3):
    """dc and the Lambda density from the two dense phase matrices that
    recover_triplet replaces by one."""
    u_sub = grid.u[np.abs(grid.u) <= grid.u_max - abs(w)]
    phi = phi_w(grid, w, u_sub)
    u_weights = np.full(u_sub.size, u_sub[1] - u_sub[0])
    u_weights[0] *= 0.5
    u_weights[-1] *= 0.5
    window = float(np.sum(u_weights))
    xs = (np.arange(x_cells) + 0.5) * (2 * x_max / x_cells) - x_max
    weight = 1.0 - np.sinc(w * xs / np.pi)
    mask = weight > weight_guard
    phase = np.exp(-1j * np.outer(xs, u_sub))
    dc = complex(np.sum(phi * u_weights) / window)
    dens = (phase @ ((phi - dc) * u_weights)).real / (2 * np.pi)
    conj_phase = np.exp(1j * np.outer(xs[mask], u_sub))
    transform_mean = complex(
        np.sum(dens[mask] * np.sum(u_weights * conj_phase, axis=1)) * (xs[1] - xs[0]) / window
    )
    dc = complex(np.sum(phi * u_weights) / window) - transform_mean
    dens = (phase @ ((phi - dc) * u_weights)).real / (2 * np.pi)
    density = np.zeros_like(xs)
    density[mask] = dens[mask] / weight[mask]
    return dc, density


class TestRecovery:
    @pytest.mark.parametrize("x_cells", [1024, 777])
    @pytest.mark.parametrize("w", [2.0, 3.0, -2.0])
    @pytest.mark.parametrize("m", [600, 1025])
    @pytest.mark.parametrize("measure", ["gridded", "signed_atoms"])
    def test_bits_equal_the_dense_phase_matrices(self, measure, m, w, x_cells):
        g = ExponentGrid.from_triplet(Triplet1D(0.5, 1.0, MEASURES[measure], STD), 40.0, m)
        rec = recover_triplet(g, w=w, x_cells=x_cells)
        dc, density = reference_recovery(g, w, x_cells=x_cells)
        assert np.array(rec.diagnostics["dc"]).tobytes() == np.array([dc.real, dc.imag]).tobytes()
        assert rec.lam.density.tobytes() == density.tobytes()

    def test_zero_triplet_recovers_zero(self):
        g = ExponentGrid(
            ExponentGrid.symmetric_grid(40.0, 2048), np.zeros(2048, dtype=complex)
        )
        rec = recover_triplet(g, w=2.0)
        assert abs(rec.b) < 1e-8
        assert abs(rec.c) < 1e-8
        assert np.max(np.abs(rec.lam.density)) < 1e-8

    def test_gaussian_jump_measure_round_trip(self):
        lam = gaussian_density_measure(weight=2.0, sd=0.25)
        tri = Triplet1D(0.5, 1.0, lam, STD)
        g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        rec = recover_triplet(g, w=2.0)
        assert abs(rec.b - 0.5) / 0.5 < 0.05
        assert abs(rec.c - 1.0) / 1.0 < 0.05
        win = (np.abs(rec.lam.xs) >= 0.05) & (np.abs(rec.lam.xs) <= 1.5)
        true = 2.0 * np.exp(-rec.lam.xs**2 / (2 * 0.25**2)) / (0.25 * np.sqrt(2 * np.pi))
        err = np.trapezoid(np.abs(rec.lam.density - true)[win], rec.lam.xs[win])
        ref = np.trapezoid(np.abs(true)[win], rec.lam.xs[win])
        assert err / ref < 0.05

    def test_signed_atoms_round_trip(self):
        lam = WeightedAtoms(np.array([0.5, -0.8]), np.array([1.0, -0.5]))
        tri = Triplet1D(0.0, 0.0, lam, STD)
        g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        rec = recover_triplet(g, w=2.0)
        assert abs(atom_mass(rec, 0.5) - 1.0) < 0.05
        assert abs(atom_mass(rec, -0.8) - (-0.5)) < 0.05 * 0.5
        assert abs(rec.b) < 0.05
        assert abs(rec.c) < 0.05

    def test_diffusion_coefficient_w_independent(self):
        tri = Triplet1D(0.5, 1.0, gaussian_density_measure(), STD)
        g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        c2 = recover_triplet(g, w=2.0).c
        c3 = recover_triplet(g, w=3.0).c
        assert abs(c3 - c2) / abs(c2) < 0.02

    def test_guarded_cells_are_flagged(self):
        tri = Triplet1D(0.0, 1.0, gaussian_density_measure(), STD)
        g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        rec = recover_triplet(g, w=2.0)
        assert rec.unrecovered_cells.size > 0
        assert np.max(np.abs(rec.unrecovered_cells)) < 0.05  # hole hugs the origin
        assert np.all(rec.lam.density[~rec.recovered_mask] == 0.0)

    def test_needs_enough_samples(self):
        g = ExponentGrid(
            ExponentGrid.symmetric_grid(40.0, 256), np.zeros(256, dtype=complex)
        )
        with pytest.raises(ValueError):
            recover_triplet(g, w=2.0)

    def test_drift_window_without_samples_is_rejected(self):
        # 512 samples on u_max = 4000 are 15.66 apart: none has 0.1 <= |u| <= 1
        lam = WeightedAtoms(np.array([0.5]), np.array([1.0]))
        grid = ExponentGrid.from_triplet(Triplet1D(0.3, 0.5, lam, STD), u_max=4000.0, m=512)
        with pytest.raises(ValueError, match=r"0.1 <= \|u\| <= 1.0.*u-spacing 15.6"):
            recover_triplet(grid)

    def test_peak_memory_is_bounded(self):
        # 2048 u samples x 1024 x-cells: one complex phase matrix is about 32 MB
        tri = Triplet1D(0.5, 1.0, gaussian_density_measure(n=801), STD)
        g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        tracemalloc.start()
        try:
            recover_triplet(g, w=2.0, x_cells=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6

    def test_forward_residual_reported(self):
        tri = Triplet1D(0.5, 1.0, gaussian_density_measure(), STD)
        g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        rec = recover_triplet(g, w=2.0)
        assert np.isfinite(rec.residual_sup)

    def test_kernel_null_halfwidth_is_a_mass_null(self):
        from scipy.special import sici

        r = kernel_null_halfwidth(38.0)
        assert abs(sici(38.0 * r)[0] - np.pi / 2) < 1e-9


class TestGridValidationAndIo:
    def test_asymmetric_grid_rejected(self):
        u = np.linspace(-1.0, 2.0, 64)
        with pytest.raises(ValueError):
            ExponentGrid(u, np.zeros(64, dtype=complex))

    def test_descending_grid_rejected(self):
        # np.interp needs increasing u: on the reversed grid interp(1.0) read
        # -50-5j against the true -0.5+0.5j
        u = ExponentGrid.symmetric_grid(10.0, 201)
        psi = 0.5j * u - 0.5 * u**2  # b = 0.5, c = 1
        assert ExponentGrid(u, psi).interp(1.0) == pytest.approx(-0.5 + 0.5j)
        with pytest.raises(ValueError, match="strictly increasing"):
            ExponentGrid(u[::-1], psi[::-1])

    def test_all_zero_grid_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ExponentGrid(np.zeros(8), np.zeros(8, dtype=complex))

    def test_descending_density_grid_rejected(self):
        xs = np.linspace(2.0, -2.0, 41)
        with pytest.raises(ValueError, match="strictly increasing"):
            GriddedDensity(xs, np.ones_like(xs))

    @pytest.mark.parametrize("xs, density, match", [
        (np.linspace(-2.0, 2.0, 41), np.ones(40), "grid and density must be aligned 1-d arrays"),
        (np.zeros((2, 3)), np.ones((2, 3)), "aligned 1-d arrays"),
        (np.array([0.5]), np.ones(1), "aligned 1-d arrays"),
        (np.array([-2.0, -1.0, 0.5, 2.0]), np.ones(4), "x-grid must be uniform"),
        (np.linspace(-2.0, 2.0, 41), np.r_[np.ones(40), np.nan], "density values must be finite"),
        (np.linspace(-2.0, 2.0, 41), np.r_[-np.inf, np.ones(40)], "density values must be finite"),
    ], ids=["misaligned", "2d", "one_sample", "non_uniform", "nan", "inf"])
    def test_bad_density_grid_or_values_rejected(self, xs, density, match):
        with pytest.raises(ValueError, match=match):
            GriddedDensity(xs, density)

    @pytest.mark.parametrize("xs, ws", [([0.5, 1.0], [1.0]), ([[0.5]], [[1.0]])],
                             ids=["misaligned", "2d"])
    def test_atoms_must_be_aligned_1d(self, xs, ws):
        with pytest.raises(ValueError, match="must be 1-d and aligned"):
            WeightedAtoms(np.array(xs), np.array(ws))

    def test_nonzero_origin_rejected(self):
        u = ExponentGrid.symmetric_grid(5.0, 65)
        psi = np.zeros(65, dtype=complex)
        psi[32] = 0.5
        with pytest.raises(ValueError):
            ExponentGrid(u, psi)

    @pytest.mark.parametrize("cell", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_psi_rejected(self, cell):
        u = ExponentGrid.symmetric_grid(5.0, 65)
        psi = 0.5j * u - 0.5 * u**2
        psi[10] = cell
        with pytest.raises(ValueError, match="psi values must be finite"):
            ExponentGrid(u, psi)

    def test_csv_round_trip(self, tmp_path):
        tri = Triplet1D(0.2, 0.4, gaussian_density_measure(n=801), STD)
        g = ExponentGrid.from_triplet(tri, u_max=12.0, m=512)
        f = tmp_path / "psi.csv"
        g.to_csv(f)
        h = ExponentGrid.from_csv(f)
        assert np.array_equal(g.u, h.u)
        assert np.array_equal(g.psi, h.psi)

    def test_atoms_reject_origin(self):
        with pytest.raises(ValueError):
            WeightedAtoms(np.array([0.0]), np.array([1.0]))

    @pytest.mark.parametrize("xs,ws", [
        ([0.5, np.nan], [1.0, 1.0]), ([np.inf], [1.0]), ([0.5], [-np.inf]), ([0.5], [np.nan]),
    ])
    def test_atoms_reject_non_finite_locations_and_weights(self, xs, ws):
        with pytest.raises(ValueError, match="atom locations and weights must be finite"):
            WeightedAtoms(np.array(xs), np.array(ws))

    def test_gridded_density_hole_has_no_mass(self):
        xs = ExponentGrid.symmetric_grid(4.0, 1025)
        dens = np.ones_like(xs)
        lam = GriddedDensity(xs, dens)
        direct = np.sum(lam.nodes()[1])
        # the cells nearest the origin carry no weight
        assert direct.real < 8.0

import numpy as np
import pytest

from dirichlet_reg import (
    ExponentGrid,
    GriddedDensity,
    Triplet1D,
    WeightedAtoms,
    exponent_eval,
    exponent_eval_nd,
    phi_w,
    recover_triplet,
    standard_truncation,
)
from dirichlet_reg.levyexponent import atom_mass, kernel_null_halfwidth

STD = standard_truncation()


def gaussian_density_measure(weight=2.0, sd=0.25, x_max=4.0, n=4001):
    xs = ExponentGrid.symmetric_grid(x_max, n)
    dens = weight * np.exp(-(xs**2) / (2 * sd**2)) / (sd * np.sqrt(2 * np.pi))
    return GriddedDensity(xs, dens)


class TestExponentEval:
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

    def test_multidimensional_evaluation(self):
        b = np.array([0.1, -0.2])
        c = np.array([[1.0, 0.3], [0.3, 0.5]])
        xs = np.array([[2.0, 0.0], [0.1, 0.1]])
        ws = np.array([1.0, 2.0])
        u = np.array([0.5, -1.0])
        got = exponent_eval_nd(b, c, xs, ws, u)
        expected = (
            1j * (u @ b)
            - 0.5 * (u @ c @ u)
            + 1.0 * (np.exp(1j * (u @ xs[0])) - 1.0)          # |x|=2 beyond cutoff
            + 2.0 * (np.exp(1j * (u @ xs[1])) - 1.0 - 1j * (u @ xs[1]))
        )
        assert got == pytest.approx(expected)

    def test_signed_measure_variation_is_finite(self):
        lam = gaussian_density_measure()
        assert np.isfinite(lam.variation_check())


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


class TestRecovery:
    def test_zero_triplet_recovers_zero(self):
        g = ExponentGrid(
            ExponentGrid.symmetric_grid(40.0, 2048), np.zeros(2048, dtype=complex)
        )
        rec = recover_triplet(g, w=2.0, k=STD)
        assert abs(rec.b) < 1e-8
        assert abs(rec.c) < 1e-8
        assert np.max(np.abs(rec.lam.density)) < 1e-8

    def test_gaussian_jump_measure_round_trip(self):
        lam = gaussian_density_measure(weight=2.0, sd=0.25)
        tri = Triplet1D(0.5, 1.0, lam, STD)
        g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        rec = recover_triplet(g, w=2.0, k=STD)
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
        rec = recover_triplet(g, w=2.0, k=STD)
        assert abs(atom_mass(rec, 0.5) - 1.0) < 0.05
        assert abs(atom_mass(rec, -0.8) - (-0.5)) < 0.05 * 0.5
        assert abs(rec.b) < 0.05
        assert abs(rec.c) < 0.05

    def test_diffusion_coefficient_w_independent(self):
        tri = Triplet1D(0.5, 1.0, gaussian_density_measure(), STD)
        g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        c2 = recover_triplet(g, w=2.0, k=STD).c
        c3 = recover_triplet(g, w=3.0, k=STD).c
        assert abs(c3 - c2) / abs(c2) < 0.02

    def test_guarded_cells_are_flagged(self):
        tri = Triplet1D(0.0, 1.0, gaussian_density_measure(), STD)
        g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        rec = recover_triplet(g, w=2.0, k=STD)
        assert rec.unrecovered_cells.size > 0
        assert np.max(np.abs(rec.unrecovered_cells)) < 0.05  # hole hugs the origin
        assert np.all(rec.lam.density[~rec.recovered_mask] == 0.0)

    def test_needs_enough_samples(self):
        g = ExponentGrid(
            ExponentGrid.symmetric_grid(40.0, 256), np.zeros(256, dtype=complex)
        )
        with pytest.raises(ValueError):
            recover_triplet(g, w=2.0, k=STD)

    def test_drift_window_without_samples_is_rejected(self):
        # 512 samples on u_max = 4000 are 15.66 apart: none has 0.1 <= |u| <= 1
        lam = WeightedAtoms(np.array([0.5]), np.array([1.0]))
        grid = ExponentGrid.from_triplet(Triplet1D(0.3, 0.5, lam, STD), u_max=4000.0, m=512)
        with pytest.raises(ValueError, match=r"0.1 <= \|u\| <= 1.0.*u-spacing 15.6"):
            recover_triplet(grid)

    def test_forward_residual_reported(self):
        tri = Triplet1D(0.5, 1.0, gaussian_density_measure(), STD)
        g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
        rec = recover_triplet(g, w=2.0, k=STD)
        assert np.isfinite(rec.residual_sup)

    def test_kernel_null_halfwidth_is_a_mass_null(self):
        from scipy.special import sici

        r = kernel_null_halfwidth(38.0, 0.2)
        assert abs(sici(38.0 * r)[0] - np.pi / 2) < 1e-9


class TestGridValidationAndIo:
    def test_asymmetric_grid_rejected(self):
        u = np.linspace(-1.0, 2.0, 64)
        with pytest.raises(ValueError):
            ExponentGrid(u, np.zeros(64, dtype=complex))

    def test_nonzero_origin_rejected(self):
        u = ExponentGrid.symmetric_grid(5.0, 65)
        psi = np.zeros(65, dtype=complex)
        psi[32] = 0.5
        with pytest.raises(ValueError):
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

    def test_gridded_density_hole_has_no_mass(self):
        xs = ExponentGrid.symmetric_grid(4.0, 1025)
        dens = np.ones_like(xs)
        lam = GriddedDensity(xs, dens)
        direct = lam.integrate(lambda x: np.ones_like(x))
        # the cells nearest the origin carry no weight
        assert direct.real < 8.0

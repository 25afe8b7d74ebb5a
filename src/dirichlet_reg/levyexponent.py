"""Forward map from a (drift, diffusion, jump-measure) triplet to its exponent

    psi(u) = i u b - u^2 c / 2 + integral of (e^{iux} - 1 - i u k(x)) dLambda,

and constructive one-dimensional recovery of the triplet from sampled psi.

The recovery follows the averaged-exponent construction: with

    phi_w(u) = psi(u) - (1/2) * integral_{-1}^{1} psi(u + s w) ds,

the drift cancels and phi_w is the Fourier transform of the measure

    (w^2 c / 6) delta_0(dx) + (1 - sin(wx)/(wx)) Lambda(dx),

so the diffusion coefficient appears as the flat (DC) offset of phi_w, and
the jump measure is read off from a windowed inverse transform divided by
the weight 1 - sin(wx)/(wx), guarded where that weight is tiny.

Signed atom weights and negative c are supported; Lambda({0}) = 0 holds by
representation (atoms exclude 0, gridded densities carry a one-cell hole).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .characteristics import Truncation, standard_truncation
from .paths import _read_csv, _write_csv

__all__ = [
    "WeightedAtoms",
    "GriddedDensity",
    "Triplet1D",
    "ExponentGrid",
    "exponent_eval",
    "phi_w",
    "RecoveredTriplet",
    "recover_triplet",
    "kernel_null_halfwidth",
    "atom_mass",
]

_GL_NODES = 64
_U_BLOCK = 64  # u rows per block of exponentials


def _check_axis(axis: np.ndarray, values: np.ndarray, pair: str, name: str) -> None:
    """A sample axis: 1-d, aligned with its values, at least 2 samples,
    strictly increasing and uniform to 1e-9."""
    if axis.shape != values.shape or axis.ndim != 1 or axis.size < 2:
        raise ValueError(f"{pair} must be aligned 1-d arrays")
    step = np.diff(axis)
    if not np.all(step > 0):
        raise ValueError(f"{name} must be strictly increasing")
    if np.any(np.abs(step - step[0]) > 1e-9 * abs(step[0])):
        raise ValueError(f"{name} must be uniform")


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    """Trapezoid weights of a uniform axis: its spacing, halved at both ends."""
    w = np.full(axis.size, axis[1] - axis[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class WeightedAtoms:
    """Signed point masses sum of w_i * delta_{x_i}, with all x_i != 0."""

    xs: np.ndarray
    ws: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ws = np.asarray(self.ws, dtype=np.float64)
        if xs.shape != ws.shape or xs.ndim != 1:
            raise ValueError("atom locations and weights must be 1-d and aligned")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ws))):
            raise ValueError("atom locations and weights must be finite")
        if np.any(xs == 0.0):
            raise ValueError("atoms must avoid 0")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ws", ws)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Locations and weights of the exact sum."""
        return self.xs, self.ws


@dataclass(frozen=True)
class GriddedDensity:
    """Signed density on a uniform x-grid, integrated by the trapezoid rule.

    Grid points within one spacing of 0 are treated as carrying no mass
    (the representation excludes a hole around the origin).
    """

    xs: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        d = np.asarray(self.density, dtype=np.float64)
        _check_axis(xs, d, "grid and density", "x-grid")
        if not np.all(np.isfinite(d)):
            raise ValueError("density values must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "density", d)

    @property
    def spacing(self) -> float:
        return float(self.xs[1] - self.xs[0])

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid points and trapezoid weights times density."""
        w = _trapezoid_weights(self.xs)
        w[np.abs(self.xs) < self.spacing] = 0.0  # hole around the origin
        return self.xs, w * self.density


LevyMeasure1D = Union[WeightedAtoms, GriddedDensity]


@dataclass(frozen=True)
class Triplet1D:
    """Exponent data (b, c, Lambda) under a fixed truncation.

    ``c`` is any real (symmetric 1x1) coefficient and Lambda any signed
    measure integrating 1 ^ x^2; neither needs to come from a probability
    model.
    """

    b: float
    c: float
    lam: LevyMeasure1D | None
    truncation: Truncation = field(default_factory=standard_truncation)


def _mirror_start(u: np.ndarray) -> int:
    """First index to evaluate directly: the middle of an exactly antisymmetric
    u with no zero in its lower half, whose values at -u are then conjugates
    (a mirrored 0 could flip the sign of a zero), else 0."""
    half = u.size // 2
    return half if u[:half].all() and np.array_equal(u, -u[::-1]) else 0


def exponent_eval(triplet: Triplet1D, u) -> np.ndarray | complex:
    """psi(u); exact sums for atoms, trapezoid quadrature for densities.

    Lambda and k are real, so the jump term at -u is the conjugate of the
    one at u: on an exactly antisymmetric u only the upper half (with any 0)
    is evaluated and the lower half is its mirror, bit for bit.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    psi = 1j * u_arr * triplet.b - 0.5 * u_arr**2 * triplet.c
    if triplet.lam is not None:
        xs, wts = triplet.lam.nodes()
        kx = triplet.truncation(xs)
        m = u_arr.size
        start = _mirror_start(u_arr)
        jump = np.empty(m, dtype=np.complex128)
        for lo in range(start, m, _U_BLOCK):
            iu = 1j * u_arr[lo:lo + _U_BLOCK, None]
            # row sums over the contiguous axis keep the per-u pairwise order
            jump[lo:lo + _U_BLOCK] = np.sum(wts * (np.exp(iu * xs) - 1.0 - iu * kx), axis=1)
        jump[:start] = np.conj(jump[m - start:][::-1])
        psi += jump
    return psi if np.ndim(u) else complex(psi[0])


@dataclass(frozen=True)
class ExponentGrid:
    """Exponent samples on a symmetric uniform u-grid."""

    u: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        psi = np.asarray(self.psi, dtype=np.complex128)
        _check_axis(u, psi, "u and psi", "u-grid")
        if not np.all(np.isfinite(psi)):
            raise ValueError("psi values must be finite")
        if abs(u[0] + u[-1]) > 1e-9 * abs(u[-1]):
            raise ValueError("u-grid must be symmetric about 0")
        zero = np.flatnonzero(u == 0.0)
        if zero.size and abs(psi[zero[0]]) > 1e-9:
            raise ValueError("psi(0) must vanish")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "psi", psi)

    @property
    def u_max(self) -> float:
        return float(self.u[-1])

    @classmethod
    def symmetric_grid(cls, u_max: float, m: int) -> np.ndarray:
        raw = np.linspace(-u_max, u_max, m)
        return 0.5 * (raw - raw[::-1])  # exactly antisymmetric

    @classmethod
    def from_triplet(cls, triplet: Triplet1D, u_max: float = 40.0, m: int = 2048) -> "ExponentGrid":
        u = cls.symmetric_grid(u_max, m)
        return cls(u, exponent_eval(triplet, u))

    def interp(self, u) -> np.ndarray:
        """Linear interpolation of psi between grid samples."""
        u = np.asarray(u, dtype=np.float64)
        re = np.interp(u, self.u, self.psi.real)
        im = np.interp(u, self.u, self.psi.imag)
        return re + 1j * im

    def to_csv(self, path) -> None:
        _write_csv(path, ["u", "re", "im"], self.u, self.psi.real, self.psi.imag)

    @classmethod
    def from_csv(cls, path) -> "ExponentGrid":
        u, re, im = _read_csv(path, ["u", "re", "im"])
        return cls(u, re + 1j * im)


def _gl_nodes() -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])  # exactly symmetric


def phi_w(grid: ExponentGrid, w: float, u) -> np.ndarray | complex:
    """Drift-cancelling average phi_w(u) = psi(u) - (1/2) int_{-1}^1 psi(u+sw) ds.

    The s-integral uses 64-node Gauss-Legendre with linear interpolation of
    psi between grid samples; u +- w must stay inside the sampled range.
    """
    if w == 0.0:
        raise ValueError("w must be nonzero")
    u_arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if np.any(np.abs(u_arr) + abs(w) > grid.u_max * (1 + 1e-12)):
        raise ValueError("u + s*w leaves the sampled range")
    s, gw = _gl_nodes()
    shifted = u_arr[:, None] + s[None, :] * w
    avg = np.tensordot(grid.interp(shifted), gw, axes=([1], [0]))
    out = grid.interp(u_arr) - 0.5 * avg
    return out if np.ndim(u) else complex(out[0])


def _sinc_weight(w: float, x: np.ndarray) -> np.ndarray:
    """1 - sin(wx)/(wx), the jump-measure weight of the averaged exponent."""
    a = w * np.asarray(x, dtype=np.float64)
    return 1.0 - np.sinc(a / np.pi)


@dataclass(frozen=True)
class RecoveredTriplet:
    """Triplet read back from an exponent grid, with fit diagnostics."""

    b: float
    c: float
    lam: GriddedDensity
    recovered_mask: np.ndarray
    residual_sup: float
    truncation: Truncation
    diagnostics: dict = field(default_factory=dict)

    @property
    def unrecovered_cells(self) -> np.ndarray:
        return self.lam.xs[~self.recovered_mask]


def recover_triplet(
    grid: ExponentGrid,
    w: float = 2.0,
    x_max: float = 4.0,
    x_cells: int = 1024,
    weight_guard: float = 1e-3,
) -> RecoveredTriplet:
    """Reads (b, c, Lambda) back from sampled psi.

    The diffusion coefficient is the flat offset of phi_w over the admissible
    u-window, less the predicted window mean of the jump-measure transform;
    Lambda comes from the direct-quadrature inverse transform of the
    offset-free phi_w divided by the sinc weight, with cells where the weight
    is below ``weight_guard`` flagged unrecovered; the drift is the average of
    Im(psi corrected by the recovered c and Lambda)/u over 0.1 <= |u| <= 1,
    under the standard truncation.
    """
    if grid.u.size < 512:
        raise ValueError("recovery needs at least 512 exponent samples")
    in_window = (np.abs(grid.u) >= 0.1) & (np.abs(grid.u) <= 1.0)
    if not in_window.any():
        raise ValueError("no psi sample with 0.1 <= |u| <= 1.0 for the drift "
                         f"(u-spacing {grid.u[1] - grid.u[0]:.6g}); use a finer u-grid")

    admissible = np.abs(grid.u) <= grid.u_max - abs(w)
    u_sub = grid.u[admissible]
    if u_sub.size < 16:
        raise ValueError("admissible u-window too small; reduce |w|")
    phi = np.atleast_1d(phi_w(grid, w, u_sub))

    u_weights = _trapezoid_weights(u_sub)
    window = float(np.sum(u_weights))

    xs = (np.arange(x_cells) + 0.5) * (2 * x_max / x_cells) - x_max
    weight = _sinc_weight(w, xs)
    mask = weight > weight_guard
    # phase = exp(-i x u), (x_cells, n_u); on an exactly antisymmetric u_sub
    # the left columns are the conjugates of the mirrored right ones
    n_u = u_sub.size
    start = _mirror_start(u_sub)
    phase = np.empty((x_cells, n_u), dtype=np.complex128)
    np.multiply(-1j, np.outer(xs, u_sub[start:]), out=phase[:, start:])
    np.exp(phase[:, start:], out=phase[:, start:])
    np.conj(phase[:, n_u - start:][:, ::-1], out=phase[:, :start])

    def invert(dc: complex) -> np.ndarray:
        return (phase @ ((phi - dc) * u_weights)).real / (2 * np.pi)

    dc_flat = complex(np.sum(phi * u_weights) / window)
    dens = invert(dc_flat)
    # subtract the u-window mean that the recovered measure itself explains
    # exp(+i x u) is conj(phase) bit for bit; rows are reduced in blocks
    dx = xs[1] - xs[0]
    rows = np.flatnonzero(mask)
    row_sums = np.empty(rows.size, dtype=np.complex128)
    for lo in range(0, rows.size, _U_BLOCK):
        block = phase[rows[lo:lo + _U_BLOCK]]
        row_sums[lo:lo + _U_BLOCK] = np.sum(u_weights * np.conj(block), axis=1)
    transform_mean = complex(np.sum(dens[mask] * row_sums) * dx / window)
    dc = dc_flat - transform_mean
    dens = invert(dc)

    c_hat = 6.0 * dc.real / w**2
    lam_density = np.zeros_like(xs)
    lam_density[mask] = dens[mask] / weight[mask]
    lam = GriddedDensity(xs, lam_density)

    u_b = grid.u[in_window]
    psi_b = grid.psi[in_window]
    k = standard_truncation()
    kx = np.asarray(k(xs), np.float64)
    cell_w = np.where(mask, dx, 0.0)
    integ = (
        np.exp(1j * np.outer(u_b, xs)) - 1.0 - 1j * np.outer(u_b, kx)
    ) @ (cell_w * lam_density)
    b_hat = float(np.mean((psi_b + 0.5 * u_b**2 * c_hat - integ).imag / u_b))

    fitted = Triplet1D(b=b_hat, c=c_hat, lam=lam, truncation=k)
    residual = float(np.max(np.abs(exponent_eval(fitted, grid.u) - grid.psi)))

    return RecoveredTriplet(
        b=b_hat,
        c=c_hat,
        lam=lam,
        recovered_mask=mask,
        residual_sup=residual,
        truncation=k,
        diagnostics={
            "w": w,
            "dc": (dc.real, dc.imag),
            "u_window": (float(u_sub[0]), float(u_sub[-1])),
            "weight_guard": weight_guard,
        },
    )


def kernel_null_halfwidth(u_halfwidth: float) -> float:
    """Integration half-width at which the rectangular u-window's Dirichlet
    kernel integrates to exactly one.

    The windowed inverse transform smears an atom at x0 into the kernel
    sin(U(x-x0)) / (pi (x-x0)); its mass over |x-x0| <= r is (2/pi) Si(U r),
    which oscillates around 1.  Integrating to the Si = pi/2 crossing nearest
    r = 0.2 removes the window bias from atom-mass queries.
    """
    from scipy.special import sici

    z = np.linspace(1.0, max(8.0, u_halfwidth * 0.2 * 2.5), 20000)
    si = sici(z)[0] - np.pi / 2
    sign_changes = np.flatnonzero(np.diff(np.sign(si)) != 0)
    crossings = []
    for i in sign_changes:
        lo, hi = z[i], z[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (sici(mid)[0] - np.pi / 2) * (sici(lo)[0] - np.pi / 2) <= 0:
                hi = mid
            else:
                lo = mid
        crossings.append(0.5 * (lo + hi))
    rs = np.array(crossings) / u_halfwidth
    return float(rs[np.argmin(np.abs(rs - 0.2))])


def atom_mass(rec: RecoveredTriplet, x0: float) -> float:
    """Recovered jump-measure mass around an isolated atom location.

    The inverse transform smears an atom into a window kernel; this query
    integrates the raw (weighted) measure over a window whose half-width sits
    at a null of that kernel (see kernel_null_halfwidth) and divides by the
    sinc weight at the atom itself, so neither the window sidelobes nor the
    weight variation across the smear bias the mass.
    """
    lo, hi = rec.diagnostics["u_window"]
    w = rec.diagnostics["w"]
    r = kernel_null_halfwidth(0.5 * (hi - lo))
    sel = np.abs(rec.lam.xs - x0) <= r
    weight = _sinc_weight(w, rec.lam.xs[sel])
    raw = float(np.sum(rec.lam.density[sel] * weight) * rec.lam.spacing)
    return raw / float(_sinc_weight(w, np.asarray([x0]))[0])

"""Type-1/type-2 non-uniform FFTs in 3D via ES-kernel gridding.

Transforms evaluated, for points x_j in [-pi, pi)^3 and modes m on the scaled
integer lattice {-M, ..., M-1}^3 * h:

    type-1:   f(m) = (1/N) sum_j c_j exp(-i m . x_j)
    type-2:   F(x_n) = sum_m f(m) exp(+i m . x_n)

The classical construction: spread sources onto a 2x-oversampled uniform grid
with a compact kernel, FFT, and deconvolve by the kernel transform (type-2
runs the adjoint order).  The kernel is FINUFFT's "exponential of
semicircle" (Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput. 2019),

    phi(z) = exp(beta (sqrt(1 - z^2) - 1)),   |z| <= 1,  beta = 2.30 w,

stretched over w grid nodes per axis, with w growing like log10(1/tol).  Its
Fourier transform has no closed form and is computed by Gauss-Legendre
quadrature.  A GridderPlan's real-column spread (points -> grid) and gather
(grid -> points) share one sparse block of w^2 (x, y) pencil entries per
point chunk and apply the z stencil as w z-shifted products on the grid
padded periodically along z; type1/type2 wrap them in a batched complex FFT.
A LatticeSpreader spreads points on a tensor lattice by per-axis matrices,
into which filtered() folds a per-axis Fourier multiplier once, so a
filtered spread needs no FFT; both take their stencils from one helper.

Scaled modes reduce to integer modes on rescaled points y = h*x (mod 2pi),
which is how both transforms are computed internally.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "ModeGrid",
    "nufft_type1",
    "nufft_type2",
    "direct_type1",
    "direct_type2",
]

TOL_MIN, TOL_MAX = 1e-12, 1e-2
DIRECT_GUARD = 10**8
# ES shape parameter beta = 2.30 w, FINUFFT's choice for 2x oversampling
ES_BETA_PER_WIDTH = 2.30
# Gauss-Legendre nodes per stencil point for the kernel transform
ES_QUAD_PER_WIDTH = 4
# stored entries per sparse pencil block (2048 points of a 9^3 stencil): at
# kdim^2 entries per point that is SPREAD_CHUNK // kdim^2 points per block
SPREAD_CHUNK = 2048 * 9**3


@dataclass(frozen=True)
class ModeGrid:
    """Uniform mode lattice: per-axis values h * {-M, ..., M-1}."""

    h: float
    m_half: int
    d: int = 3

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("mode spacing h must be positive")
        if self.m_half < 1:
            raise ValueError("m_half must be >= 1")
        if self.d != 3:
            raise ValueError("only d=3 is supported")

    @property
    def n_modes(self) -> int:
        return 2 * self.m_half

    def mode_values(self) -> np.ndarray:
        """Physical mode values along one axis."""
        return self.h * np.arange(-self.m_half, self.m_half)


def _check_points(points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must have shape (N, 3)")
    if points.shape[0] < 1:
        raise ValueError("need at least one point")
    if not np.all((points >= -np.pi) & (points < np.pi)):
        raise ValueError("points must be finite and lie in [-pi, pi)^3")
    return points


def _check_tol(tol: float) -> float:
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must be in [{TOL_MIN:g}, {TOL_MAX:g}]")
    return float(tol)


def es_width(tol: float) -> int:
    """Per-axis stencil width w of the ES kernel for a target tolerance.

    Empirical rule w = ceil(log10(1/tol)) + 3, held against direct sums by
    the accuracy tests for tol in [1e-12, 1e-3]; the small guard keeps exact
    powers of ten from rounding up a point.
    """
    return int(np.ceil(-np.log10(tol) - 1e-9)) + 3


def es_kernel(z, beta: float) -> np.ndarray:
    """phi(z) = exp(beta (sqrt(1 - z^2) - 1)) on the support |z| <= 1."""
    z = np.asarray(z, dtype=float)
    return np.exp(beta * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0))


def es_transform(xi, width: int, beta: float) -> np.ndarray:
    """Fourier transform of s -> phi(2 s / width) at frequencies xi.

    psi_hat(xi) = (w/2) int_{-1}^{1} phi(z) cos(xi w z / 2) dz by
    Gauss-Legendre quadrature; phi is even, so the transform is real.
    """
    z, wq = np.polynomial.legendre.leggauss(ES_QUAD_PER_WIDTH * width)
    half = width / 2.0
    phase = np.cos(np.multiply.outer(np.asarray(xi, dtype=float), half * z))
    return half * (phase @ (wq * es_kernel(z, beta)))


def _stencil(coords, h: float, n_over: int, kdim: int):
    """Per coordinate (new last axis): the kdim wrapped grid nodes and ES kernel
    values; node l sits at y = 2 pi l / n_over, y = h x (mod 2 pi)."""
    half = kdim / 2.0
    t = np.mod(coords * h, 2.0 * np.pi) * (n_over / (2.0 * np.pi))
    nodes = np.ceil(t - half).astype(np.int64)[..., None] + np.arange(kdim)
    kern = es_kernel((t[..., None] - nodes) / half, ES_BETA_PER_WIDTH * kdim)
    return nodes % n_over, kern


class GridderPlan:
    """Precomputed spreading geometry for one (points, modes, tol) triple.

    Holds, per point and axis, the kdim wrapped grid indices and ES kernel
    values.  The grid is padded periodically along z to n + kdim - 1 nodes,
    so each point's z stencil is kdim consecutive padded rows.  spread and
    gather assemble, chunk by chunk, one sparse block of kdim^2 entries per
    point, kx * ky at the padded row of each (x, y) pencil's first z node,
    that all C real columns share; the z axis is kdim products of the block
    with the padded grid shifted by s rows, weighted by kz[:, s].  spread is
    the exact transpose of gather.  type1/type2 pass a complex column as its
    real and imaginary halves.  Reusable across many coefficient arrays; the
    surface diffuser keeps one for its gather.
    """

    def __init__(self, points, modes: ModeGrid, tol: float):
        points = _check_points(points)
        self.modes = modes
        self.tol = _check_tol(tol)
        self.npts = points.shape[0]

        m = modes.m_half
        self.n_over = n = 4 * m
        self.kdim = es_width(self.tol)
        # spread and gather work on the grid padded periodically to
        # n + kdim - 1 nodes along z, whose row count must fit int32
        self._pad_n = n + self.kdim - 1
        if n * n * self._pad_n > np.iinfo(np.int32).max:
            raise ValueError(f"z-padded grid {n}x{n}x{self._pad_n} exceeds 2^31 nodes")
        beta = ES_BETA_PER_WIDTH * self.kdim

        nodes, kern = _stencil(points, modes.h, n, self.kdim)
        # (x, y) pencil indices pre-multiplied by the padded strides, and the
        # first z node: the z stencil is the kdim padded rows from there on
        idx = nodes.astype(np.int32)
        self._ix = idx[:, 0, :] * np.int32(n * self._pad_n)
        self._iy = idx[:, 1, :] * np.int32(self._pad_n)
        self._z0 = idx[:, 2, :1]
        self._kx, self._ky, self._kz = kern[:, 0, :], kern[:, 1, :], kern[:, 2, :]

        # deconvolution on the retained modes: the product over the axes of
        # axis_deconv = n_over / psi_hat, psi_hat the kernel transform in grid
        # units, at the modes -M..M-1
        k = np.arange(-m, m)
        g = self.n_over / es_transform(2.0 * np.pi * k / self.n_over, self.kdim, beta)
        self.axis_deconv = g
        self._deconv = g[:, None, None] * g[None, :, None] * g[None, None, :]
        self._mode_ix = np.ix_(*(np.mod(k, self.n_over),) * 3)

    def _blocks(self):
        """Sparse (x, y) pencil blocks, one per point chunk: entry (j, col) holds
        kx * ky, col the padded-grid row of the pencil's first z node."""
        wsq = self.kdim**2
        chunk = SPREAD_CHUNK // wsq
        ncols = self.n_over**2 * self._pad_n - (self.kdim - 1)
        for lo in range(0, self.npts, chunk):
            hi = min(lo + chunk, self.npts)
            ids = (self._ix[lo:hi, :, None] + self._iy[lo:hi, None, :]
                   + self._z0[lo:hi, :, None])
            w2 = self._kx[lo:hi, :, None] * self._ky[lo:hi, None, :]
            # an int32 indptr keeps scipy from upcasting the int32 indices
            indptr = np.arange(0, (hi - lo) * wsq + 1, wsq, dtype=np.int32)
            yield lo, hi, sparse.csr_array(
                (w2.ravel(), ids.ravel(), indptr), shape=(hi - lo, ncols))

    def spread(self, cols) -> np.ndarray:
        """Real columns (N, C) spread onto the oversampled grid: (n, n, n, C)."""
        if cols.shape[0] != self.npts:
            raise ValueError("coefficient count does not match plan points")
        n = self.n_over
        padded = np.zeros((n * n * self._pad_n, cols.shape[1]))
        for lo, hi, block in self._blocks():
            rows = block.shape[1]
            for s in range(self.kdim):
                padded[s:s + rows] += block.T @ (self._kz[lo:hi, s, None] * cols[lo:hi])
        # fold the wrapped pad rows back onto z nodes mod n
        padded = padded.reshape(n, n, self._pad_n, -1)
        grid = padded[:, :, :n].copy()
        for z in range(n, self._pad_n, n):
            part = padded[:, :, z:z + n]
            grid[:, :, :part.shape[2]] += part
        return grid

    def gather(self, grid) -> np.ndarray:
        """Real grid columns (n, n, n, C) interpolated at the points: (N, C)."""
        if grid.shape[:3] != (self.n_over,) * 3:
            raise ValueError("grid does not match the oversampled grid")
        padded = np.take(grid, np.arange(self._pad_n) % self.n_over, axis=2)
        padded = padded.reshape(self.n_over**2 * self._pad_n, -1)
        out = np.empty((self.npts, padded.shape[1]))
        for lo, hi, block in self._blocks():
            rows = block.shape[1]
            out[lo:hi] = sum(self._kz[lo:hi, s, None] * (block @ padded[s:s + rows])
                             for s in range(self.kdim))
        return out

    def type1(self, coeffs) -> np.ndarray:
        """f(m) over the (2M)^3 lattice; coeffs shape (N,) or (N, C)."""
        coeffs = np.asarray(coeffs)
        squeeze = coeffs.ndim == 1
        if squeeze:
            coeffs = coeffs[:, None]
        # a complex column spreads as its real and imaginary halves side by side
        dtype = complex if np.iscomplexobj(coeffs) else float
        grid = self.spread(np.ascontiguousarray(coeffs, dtype=dtype).view(float))
        spec = np.fft.fftn(grid.view(dtype), axes=(0, 1, 2))
        out = spec[self._mode_ix] * (self._deconv / (self.n_over**3 * self.npts))[..., None]
        return out[..., 0] if squeeze else out

    def type2(self, spectral) -> np.ndarray:
        """F at the plan points; spectral shape (2M, 2M, 2M) or (..., C)."""
        spectral = np.asarray(spectral, dtype=complex)
        squeeze = spectral.ndim == 3
        if squeeze:
            spectral = spectral[..., None]
        if spectral.shape[:3] != self._deconv.shape:
            raise ValueError("spectral block does not match the mode grid")
        embedded = np.zeros((self.n_over,) * 3 + spectral.shape[3:], dtype=complex)
        embedded[self._mode_ix] = spectral * self._deconv[..., None]
        out = self.gather(np.fft.ifftn(embedded, axes=(0, 1, 2)).view(float)).view(complex)
        return out[:, 0] if squeeze else out


class LatticeSpreader:
    """GridderPlan.spread for points on a tensor lattice of at most 8 sites per
    point: the columns are summed onto the dense lattice of the distinct
    per-axis coordinates (coincident points add), then the dense (n_over, L_a)
    ES matrix of each axis is applied in turn.  filtered(mult) folds a Fourier
    multiplier into those matrices (complex; spread keeps the real part)."""

    def __init__(self, points, modes: ModeGrid, tol: float):
        points = _check_points(points)
        self.npts, self.n_over = points.shape[0], 4 * modes.m_half
        kdim = es_width(_check_tol(tol))
        axes = [np.unique(points[:, a], return_inverse=True) for a in range(3)]
        self.shape = tuple(len(u) for u, _ in axes)
        if np.prod(self.shape, dtype=float) > 8 * self.npts:
            raise ValueError(f"lattice {self.shape} exceeds 8 sites per point ({self.npts})")
        self._site = np.ravel_multi_index([inv.ravel() for _, inv in axes], self.shape)
        self._axes = []
        for u, _ in axes:
            nodes, kern = _stencil(u, modes.h, self.n_over, kdim)
            self._axes.append(np.zeros((self.n_over, len(u))))
            np.add.at(self._axes[-1], (nodes, np.arange(len(u))[:, None]), kern)

    def spread(self, cols) -> np.ndarray:
        """Real columns (N, C) spread onto the oversampled grid: (n, n, n, C)."""
        if cols.shape[0] != self.npts:
            raise ValueError("coefficient count does not match plan points")
        (lx, ly, lz), n, c = self.shape, self.n_over, cols.shape[1]
        lattice = np.zeros((lx * ly * lz, c))
        np.add.at(lattice, self._site, cols)
        sx, sy, sz = self._axes
        grid = sy @ (sz @ lattice.reshape(lx * ly, lz, c)).reshape(lx, ly, n * c)
        grid = grid.reshape(lx, -1)
        if np.iscomplexobj(sx):     # only the real part of the x product is kept
            return (sx.real @ grid.real - sx.imag @ grid.imag).reshape(n, n, n, c)
        return (sx @ grid).reshape(n, n, n, c)

    def filtered(self, mult) -> LatticeSpreader:
        """This spread followed by ifftn(mult_x mult_y mult_z * fftn(grid)).real:
        each axis matrix becomes ifft(mult * fft(S_a)), mult on fftfreq(n_over)."""
        out = copy.copy(self)
        out._axes = [np.fft.ifft(mult[:, None] * np.fft.fft(s, axis=0), axis=0)
                     for s in self._axes]
        return out


def nufft_type1(points, coeffs, modes: ModeGrid, tol: float) -> np.ndarray:
    """Fast evaluation of f(m) = (1/N) sum_j c_j e^{-i m.x_j} on the lattice.

    Max error relative to the largest output magnitude stays below tol.
    """
    return GridderPlan(points, modes, tol).type1(coeffs)


def nufft_type2(spectral, points, modes: ModeGrid, tol: float) -> np.ndarray:
    """Fast evaluation of F(x_n) = sum_m f(m) e^{+i m.x_n} at the points."""
    return GridderPlan(points, modes, tol).type2(spectral)


# ---------------------------------------------------------------------------
# Direct-summation oracles (small sizes only)
# ---------------------------------------------------------------------------

def _direct_guard(npts: int, modes: ModeGrid):
    work = npts * modes.n_modes**3
    if work > DIRECT_GUARD:
        raise ValueError(f"direct summation size {work:.2e} exceeds guard {DIRECT_GUARD:.0e}")


def direct_type1(points, coeffs, modes: ModeGrid) -> np.ndarray:
    """Exact double-precision evaluation of the type-1 sum."""
    points = _check_points(points)
    coeffs = np.asarray(coeffs, dtype=complex)
    _direct_guard(points.shape[0], modes)
    mv = modes.mode_values()
    out = np.zeros((modes.n_modes,) * 3, dtype=complex)
    phase_x = np.exp(-1j * np.outer(mv, points[:, 0]))
    phase_y = np.exp(-1j * np.outer(mv, points[:, 1]))
    phase_z = np.exp(-1j * np.outer(mv, points[:, 2]))
    for j in range(points.shape[0]):
        out += coeffs[j] * (phase_x[:, j][:, None, None]
                            * phase_y[:, j][None, :, None]
                            * phase_z[:, j][None, None, :])
    return out / points.shape[0]


def direct_type2(spectral, points, modes: ModeGrid) -> np.ndarray:
    """Exact double-precision evaluation of the type-2 sum."""
    points = _check_points(points)
    spectral = np.asarray(spectral, dtype=complex)
    _direct_guard(points.shape[0], modes)
    mv = modes.mode_values()
    phase_x = np.exp(1j * np.outer(points[:, 0], mv))
    phase_y = np.exp(1j * np.outer(points[:, 1], mv))
    phase_z = np.exp(1j * np.outer(points[:, 2], mv))
    out = np.empty(points.shape[0], dtype=complex)
    for j in range(points.shape[0]):
        out[j] = np.einsum("a,b,c,abc->", phase_x[j], phase_y[j], phase_z[j],
                           spectral)
    return out

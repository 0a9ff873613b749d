"""Spectral heat diffusion of matrix fields on the flat torus.

The periodic heat kernel acts diagonally in Fourier space; mode k of a torus
with axis lengths L picks up the exact symbol

    exp(-4 pi^2 tau sum_i (k_i / L_i)^2).

Each of the n^2 scalar matrix components is transformed independently
(forward FFT, multiply, inverse FFT).  Using the exact symbol instead of the
FFT of a sampled lattice-summed Gaussian is equivalent for band-limited data;
the sampled kernel survives in the tests as an independent oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalHealthError
from .field import GridSpec, MatrixField

__all__ = ["heat_multiplier", "TorusDiffuser", "diffuse_torus"]

IMAG_RESIDUE_TOL = 1e-10


def heat_multiplier(k, tau: float, extent) -> float:
    """Fourier symbol of the periodic heat kernel at integer mode vector k."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    k = np.asarray(k, dtype=float)
    extent = np.asarray(extent, dtype=float)
    return float(np.exp(-4.0 * np.pi**2 * tau * np.sum((k / extent) ** 2)))


class TorusDiffuser:
    """Cached-multiplier diffusion operator for one (grid, tau) pair."""

    def __init__(self, grid: GridSpec, tau: float):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.grid = grid
        self.tau = tau
        ksq = np.zeros(grid.sizes)
        for axis in range(grid.d):
            k = np.fft.fftfreq(grid.sizes[axis]) * grid.sizes[axis]
            shape = [1] * grid.d
            shape[axis] = grid.sizes[axis]
            ksq = ksq + (k.reshape(shape) / grid.extent[axis]) ** 2
        self.multipliers = np.exp(-4.0 * np.pi**2 * tau * ksq)

    def diffuse(self, f: MatrixField) -> MatrixField:
        if not f.is_grid or f.grid != self.grid:
            raise ValueError("field grid does not match diffuser grid")
        axes = tuple(range(self.grid.d))
        spec = np.fft.fftn(f.data, axes=axes)
        spec *= self.multipliers[..., None, None]
        out = np.fft.ifftn(spec, axes=axes)
        residue = float(np.abs(out.imag).max())
        if residue > IMAG_RESIDUE_TOL:
            raise NumericalHealthError(f"imaginary residue {residue:.3e} after diffusion")
        return f.copy_with(out.real)


def diffuse_torus(f: MatrixField, tau: float) -> MatrixField:
    """One heat step of length tau on a grid-backed field."""
    if not f.is_grid:
        raise ValueError("diffuse_torus needs a grid-backed field")
    return TorusDiffuser(f.grid, tau).diffuse(f)

"""Spectral heat diffusion of matrix fields on the flat torus.

The periodic heat kernel acts diagonally in Fourier space; mode k of a torus
with axis lengths L picks up the exact symbol

    exp(-4 pi^2 tau sum_i (k_i / L_i)^2).

All n^2 scalar matrix components go through one batched real FFT
(scipy.fft.rfftn over the grid axes), a multiply by the symbol on the
half spectrum (the last grid axis keeps modes 0..size//2), and one inverse
real FFT, whose output is real by construction.  Using the exact symbol
instead of the FFT of a sampled lattice-summed Gaussian is equivalent for
band-limited data; the sampled kernel survives in the tests as an
independent oracle.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .field import GridSpec, MatrixField

__all__ = ["heat_multiplier", "TorusDiffuser"]


def heat_multiplier(k, tau: float, extent):
    """Fourier symbol of the periodic heat kernel at integer modes k.

    k holds one mode value or array per axis; the arrays broadcast against
    each other, so scalars give the symbol at one mode and per-axis vectors
    reshaped to (size, 1, ...), (1, size, ...), ... give it on a whole grid.
    """
    if not 0 < tau < np.inf:
        raise ValueError("tau must be positive and finite")
    ksq = 0.0
    for k_i, length in zip(k, extent, strict=True):
        ksq = ksq + (np.asarray(k_i, dtype=float) / length) ** 2
    return np.exp(-4.0 * np.pi**2 * tau * ksq)


class TorusDiffuser:
    """Cached-multiplier diffusion operator for one (grid, tau) pair.

    multipliers holds the symbol on the rfftn half spectrum: shape
    sizes[:-1] + (sizes[-1] // 2 + 1,).
    """

    def __init__(self, grid: GridSpec, tau: float):
        self.grid = grid
        self.tau = tau
        modes = []
        for axis, size in enumerate(grid.sizes):
            last = axis == grid.d - 1
            k = (np.fft.rfftfreq if last else np.fft.fftfreq)(size) * size
            shape = [1] * grid.d
            shape[axis] = len(k)
            modes.append(k.reshape(shape))
        self.multipliers = heat_multiplier(modes, tau, grid.extent)

    def diffuse(self, f: MatrixField) -> MatrixField:
        if not f.is_grid or f.grid != self.grid:
            raise ValueError("field grid does not match diffuser grid")
        axes = tuple(range(self.grid.d))
        spec = scipy.fft.rfftn(f.data, axes=axes)
        spec *= self.multipliers[..., None, None]
        return f.copy_with(scipy.fft.irfftn(spec, s=self.grid.sizes, axes=axes))

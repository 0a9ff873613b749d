"""Small dense-matrix geometry: SVD and projections onto O(n), SO(n), SO-(n).

Matrices are numpy arrays whose trailing two axes are (n, n).
projection_factors is one pass over a stack: det A, the singular mask, the
gain <T+ - T-, A>_F = 2 sigma_min sign(det A) between the nearest elements
T+ of SO(n) and T- of SO-(n), and the per-matrix factors they are built
from (z+, z- and their moduli for n = 2; U, V^t and the SO/SO- sign for
n >= 3).  Its assemble(plus) writes T+ where plus is true and T- elsewhere
as one (..., n, n) stack:

    n = 1   T+ = 1, T- = -1, det A = a.
    n = 2   closed form from SO(2) ~ U(1): with z+ = (a+d) + i(c-b) and
            z- = (a-d) + i(b+c), A = (R(z+) + F(z-)) / 2 for the rotation
            R(x+iy) = [[x, -y], [y, x]] and the reflection
            F(x+iy) = [[x, y], [y, -x]], so T+ = R(z+/|z+|),
            T- = F(z-/|z-|) and the gain is |z+| - |z-|.  z = 0 gives the
            identity (rotation) or diag(1, -1) (reflection).
    n >= 3  SVD A = U diag(sigma) V^t: U V^t and U D_n V^t with
            D_n = diag(1, ..., 1, -1), sorted into SO/SO- by the sign of
            det U det V^t.

The pass and the assembly are split where a caller first has what it
needs to choose a branch.

The nearest element of O(n) is T+ where det A >= 0 and T- otherwise, so a
matrix with det exactly 0 goes to SO(n); its gain is 0.  The squared
Frobenius distances ||T - A||_F^2 are

    to the nearest element of O(n)             sum_i (sigma_i - 1)^2
    to the nearest element of the component    sum_i (sigma_i - 1)^2 + 4 sigma_min
    whose determinant sign is -sign(det A)

Determinants, shared by the projections and the field diagnostics, are
closed-form for n <= 3 and LAPACK's for n >= 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

__all__ = ["ProjectionFactors", "determinants", "projection_factors"]


def determinants(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack (..., n, n); cofactors for n <= 3, else LAPACK."""
    n = m.shape[-1]
    if n == 1:
        return m[..., 0, 0].copy()
    if n == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if n == 3:
        a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
        d, e, f = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
        g, h, i = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return np.linalg.det(m)


def _unit(x: np.ndarray, y: np.ndarray, r: np.ndarray):
    """(x, y) / r for r = hypot(x, y), with the direction (1, 0) at r = 0.

    Where r is subnormal (or 0) it has lost relative precision, so those
    entries are rescaled by an exact power of two and r is recomputed.
    """
    small = r < np.finfo(float).tiny
    if small.any():
        x = np.where(small, x * 2.0**600, x)
        y = np.where(small, y * 2.0**600, y)
        r = np.hypot(x, y)
        zero = r == 0.0
        x, r = np.where(zero, 1.0, x), np.where(zero, 1.0, r)
    return x / r, y / r


def _matrix2(m00, m01, m10, m11) -> np.ndarray:
    out = np.empty(m00.shape + (2, 2))
    out[..., 0, 0], out[..., 0, 1] = m00, m01
    out[..., 1, 0], out[..., 1, 1] = m10, m11
    return out


@dataclass(frozen=True)
class ProjectionFactors:
    """One pass over a stack of shape (..., n, n): what its projections share.

        det[i]     det mats[i]
        singular   boolean mask of exactly-zero determinants
        gain[i]    <T+ - T-, mats>_F  ( = 2 sigma_min sign(det), 0 if singular )

    and the private factors T+ and T- are built from: none for n = 1, z+
    and z- with their moduli for n = 2, and U, V^t with the sign of
    det U det V^t (which of U V^t, U D_n V^t is in SO(n)) for n >= 3.
    """

    det: np.ndarray
    singular: np.ndarray
    gain: np.ndarray
    _n: int = dataclass_field(repr=False)
    _parts: tuple = dataclass_field(repr=False)

    def assemble(self, plus) -> np.ndarray:
        """T+ where plus is true and T- elsewhere, as one (..., n, n) stack.

        plus broadcasts against det.  n = 2 normalises the chosen z once;
        n >= 3 is one batched product U diag(1, ..., 1, +-1) V^t.  Only
        arrays allocated here are written.
        """
        plus = np.broadcast_to(np.asarray(plus, dtype=bool), self.det.shape)
        if self._n >= 3:
            u, vh, so = self._parts
            # scaling U's last column by +-1 is exact
            d = np.ones(so.shape + (1, self._n))
            d[..., 0, -1] = np.where(plus == so, 1.0, -1.0)
            return (u * d) @ vh
        sign = np.where(plus, 1.0, -1.0)
        if self._n == 1:
            return sign[..., None, None]
        px, py, rp, mx, my, rm = self._parts
        x, y = _unit(np.where(plus, px, mx), np.where(plus, py, my),
                     np.where(plus, rp, rm))
        return _matrix2(x, -sign * y, y, sign * x)


def projection_factors(mats: np.ndarray) -> ProjectionFactors:
    """The factor pass of the module docstring for a stack (..., n, n)."""
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    det = determinants(mats)
    singular = det == 0.0
    if n == 1:
        return ProjectionFactors(det, singular, 2.0 * mats[..., 0, 0], n, ())
    if n == 2:
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, d = mats[..., 1, 0], mats[..., 1, 1]
        px, py = a + d, c - b
        mx, my = a - d, b + c
        rp, rm = np.hypot(px, py), np.hypot(mx, my)
        gain = np.where(singular, 0.0, rp - rm)
        return ProjectionFactors(det, singular, gain, n, (px, py, rp, mx, my, rm))
    u, s, vh = np.linalg.svd(mats)
    so = determinants(u) * determinants(vh) > 0
    gain = 2.0 * s[..., -1] * np.sign(det)
    return ProjectionFactors(det, singular, gain, n, (u, vh, so))


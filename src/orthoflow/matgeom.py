"""Small dense-matrix geometry: SVD and projections onto O(n), SO(n), SO-(n).

Matrices are numpy arrays whose trailing two axes are (n, n).  Every
projection goes through one stacked kernel that returns, per matrix A, the
nearest elements T+ of SO(n) and T- of SO-(n), the gain
<T+ - T-, A>_F = 2 sigma_min sign(det A), and det A:

    n = 1   T+ = 1, T- = -1, det A = a.
    n = 2   closed form from SO(2) ~ U(1): with z+ = (a+d) + i(c-b) and
            z- = (a-d) + i(b+c), A = (R(z+) + F(z-)) / 2 for the rotation
            R(x+iy) = [[x, -y], [y, x]] and the reflection
            F(x+iy) = [[x, y], [y, -x]], so T+ = R(z+/|z+|),
            T- = F(z-/|z-|) and the gain is |z+| - |z-|.  z = 0 gives the
            identity (rotation) or diag(1, -1) (reflection).
    n >= 3  SVD A = U diag(sigma) V^t: U V^t and U D_n V^t with
            D_n = diag(1, ..., 1, -1), sorted into SO/SO- by the sign of
            det(U V^t).

The nearest element of O(n) is T+ where det A >= 0 and T- otherwise, so a
matrix with det exactly 0 goes to SO(n); its gain is 0.  The squared
distances are ||T - A||_F^2, which equals

    nearest orthogonal     sum_i (sigma_i - 1)^2
    nearest opposite       sum_i (sigma_i - 1)^2 + 4 sigma_min

where "opposite" means the component of O(n) whose determinant sign is
-sign(det A).  Determinants, shared by the kernel and the field diagnostics,
are closed-form for n <= 3 and LAPACK's for n >= 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDeterminantError

__all__ = [
    "SvdResult",
    "svd",
    "determinants",
    "frobenius_inner",
    "nearest_orthogonal",
    "nearest_opposite",
    "t_plus",
    "t_minus",
    "orthogonal_projections",
]


@dataclass(frozen=True)
class SvdResult:
    """SVD factors with sigma sorted non-increasing and non-negative.

    Reconstruction is u @ diag(sigma) @ v.T (note: v, not v^t, is stored).
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


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


def _kernel(mats: np.ndarray):
    """(T+, T-, gain, det) for a stack (..., n, n), as in the module docstring."""
    n = mats.shape[-1]
    det = determinants(mats)
    if n == 1:
        ones = np.ones_like(mats)
        return ones, -ones, 2.0 * mats[..., 0, 0], det
    if n == 2:
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, d = mats[..., 1, 0], mats[..., 1, 1]
        px, py = a + d, c - b
        mx, my = a - d, b + c
        rp, rm = np.hypot(px, py), np.hypot(mx, my)
        gain = np.where(det == 0.0, 0.0, rp - rm)
        px, py = _unit(px, py, rp)
        mx, my = _unit(mx, my, rm)
        return _matrix2(px, -py, py, px), _matrix2(mx, my, my, -mx), gain, det
    u, s, vh = np.linalg.svd(mats)
    uv = u @ vh
    u[..., :, -1] = -u[..., :, -1]
    uvd = u @ vh
    so = (determinants(uv) > 0)[..., None, None]
    gain = 2.0 * s[..., -1] * np.sign(det)
    return np.where(so, uv, uvd), np.where(so, uvd, uv), gain, det


def svd(a) -> SvdResult:
    """Deterministic SVD of a small square matrix.

    Backed by LAPACK via numpy (the kernel's n >= 3 path); output is
    identical for identical input.
    """
    a = _check_square(a)
    u, s, vh = np.linalg.svd(a)
    return SvdResult(u=u, sigma=s, v=vh.T)


def frobenius_inner(a, b) -> float:
    """Frobenius inner product <A, B> = sum_ij A_ij B_ij."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))


def _nonsingular_kernel(a, who: str):
    a = _check_square(a)
    plus, minus, _, det = _kernel(a)
    if det == 0.0:
        raise DegenerateDeterminantError(f"{who} needs det(a) != 0")
    return a, plus, minus, det


def nearest_orthogonal(a) -> tuple[np.ndarray, float]:
    """Nearest matrix in O(n) and the squared Frobenius distance to it.

    For nonsingular input the result has the same determinant sign as the
    input; det exactly 0 maps to SO(n).  With repeated singular values any
    minimizer is acceptable and the kernel picks one deterministically.
    """
    a = _check_square(a)
    plus, minus, _, det = _kernel(a)
    q = plus if det >= 0 else minus
    return q, float(np.sum((q - a) ** 2))


def nearest_opposite(a) -> tuple[np.ndarray, float]:
    """Nearest matrix in the O(n) component opposite to sign(det a).

    Returns (C*, dist^2) with dist^2 = sum (sigma_i - 1)^2 + 4 sigma_min.
    Requires det(a) != 0.
    """
    a, plus, minus, det = _nonsingular_kernel(a, "nearest_opposite")
    c = minus if det > 0 else plus
    return c, float(np.sum((c - a) ** 2))


def t_plus(a) -> np.ndarray:
    """Nearest matrix in SO(n); requires det(a) != 0."""
    _, plus, _, _ = _nonsingular_kernel(a, "t_plus")
    return plus


def t_minus(a) -> np.ndarray:
    """Nearest matrix in SO-(n); requires det(a) != 0."""
    _, _, minus, _ = _nonsingular_kernel(a, "t_minus")
    return minus


# ---------------------------------------------------------------------------
# The stacked projection for pointwise field projections.
# ---------------------------------------------------------------------------

def orthogonal_projections(mats: np.ndarray):
    """Per-matrix SO/SO- projections for a stack of shape (..., n, n).

    Returns (plus, minus, delta_e, singular, det) where

        plus[i]    nearest matrix in SO(n)
        minus[i]   nearest matrix in SO-(n)
        delta_e[i] <plus - minus, mats>_F  ( = 2 sigma_min sign(det) )
        singular   boolean mask of exactly-zero determinants
        det[i]     det mats[i]

    Singular entries follow the plus-branch convention: delta_e is 0 there and
    both projections are still valid elements of their components.
    """
    plus, minus, gain, det = _kernel(np.asarray(mats, dtype=float))
    return plus, minus, gain, det == 0.0, det

"""Closest-point representation of closed surfaces and spectral surface diffusion.

The surface heat step is computed in the ambient space: constant-extend
surface values into a band of half-width w_b around the surface, integrate
the free-space Gaussian against the extension with the midpoint rule on the
band's cells, and evaluate the result back on the surface.  The Gaussian tail
outside the band is controlled by

    T(x) = (2x/sqrt(pi)) exp(-x^2) + (1 - erf(x)),    T(w_b / (2 sqrt(tau))) ~= eps,

and the Fourier-space evaluation uses the 1D kernel expansion

    G_tau(x) ~= (h/2pi) sum_{m=-M}^{M-1} exp(-m^2 h^2 tau + i m h x)

on a mode lattice of spacing h, tensorized over the three axes.  The two
Fourier sums (band points -> modes, modes -> surface points) are a type-1
and a type-2 NUFFT; they run fused, for all n^2 matrix components at once:
the kernel is the tensor product of the real 1D expansions, so its
multiplier is folded at set-up into the real per-axis matrices of the
separable band-lattice spread, and the gather follows, with no FFT per step.
One accuracy, the band's eps in [1e-12, 0.01], sets w_b, M and the stencil width.

Physical coordinates are affinely mapped into [-pi, pi)^3 before the spectral
step; the diffusion time rescales by the squared map factor.

A surface is any object with closest, bounding_box and area.  A surface field
(BandSet.field) holds one matrix per band cell (a cell whose centre lies within
w_b), stored at the closest point of that centre with its surface-measure weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import cKDTree
from scipy.special import erfc

from .errors import ConfigurationError
from .field import MatrixField
from .nufft import GridderPlan, LatticeSpreader, ModeGrid, check_tol

__all__ = [
    "tail_T",
    "band_width",
    "spectral_grid",
    "Sphere",
    "SurfaceOfRevolution",
    "peanut_surface",
    "BandSpec",
    "BandSet",
    "build_band",
    "SurfaceDiffuser",
]

PROFILE_SAMPLES = 1024    # profile points behind a surface of revolution's closest-point seed


# ---------------------------------------------------------------------------
# Truncation bound and spectral parameters
# ---------------------------------------------------------------------------

def tail_T(x: float) -> float:
    """Gaussian mass outside radius x (in units of 2 sqrt(tau)), 3D.

    T(x) = (2x/sqrt(pi)) exp(-x^2) + erfc(x); monotone decreasing, T(0) = 1.
    """
    if x < 0:
        raise ValueError("tail_T needs x >= 0")
    return float((2.0 * x / np.sqrt(np.pi)) * np.exp(-x * x) + erfc(x))


def band_width(tau: float, eps: float) -> float:
    """Band half-width w_b whose Gaussian tail is eps, for eps in [1e-12, 0.01].

    Solves the dominant term (2x/sqrt(pi)) exp(-x^2) = eps for x = w_b/(2
    sqrt(tau)) on [1/sqrt(2), 30], where it falls from its peak ~0.484, matching
    the reference width table.  The omitted erfc term leaves the full tail T
    above eps (by ~6% at eps = 1e-3); SurfaceDiffuser accepts any band at least
    this wide.
    """
    check_tol(eps, "eps")
    if not 0 < tau < np.inf:
        raise ValueError("tau must be positive and finite")

    def dominant(x):
        return (2.0 * x / np.sqrt(np.pi)) * np.exp(-x * x) - eps

    z = brentq(dominant, 1.0 / np.sqrt(2.0), 30.0, xtol=1e-14, rtol=1e-14)
    return float(2.0 * np.sqrt(tau) * z)


def spectral_grid(tau: float, eps: float) -> ModeGrid:
    """Mode spacing h and count M for the 1D heat-kernel expansion on [-pi, pi].

    h = min(1, pi / (2 sqrt(tau |ln eps|))), and M grows like
    sqrt(|ln(pi eps / (2 h sqrt(tau)))| / tau) / h.  The log is taken in
    absolute value (it is negative in the regimes of interest) and M is
    rounded up with a 0.2 guard so near-integer boundary values do not
    inflate the mode count.  eps must lie in [1e-12, 0.01].
    """
    check_tol(eps, "eps")
    if not 0 < tau < np.inf:
        raise ValueError("tau must be positive and finite")
    log_eps = abs(np.log(eps))
    h = min(1.0, np.pi / (2.0 * np.sqrt(tau * log_eps)))
    m_real = np.sqrt(abs(np.log(np.pi * eps / (2.0 * h * np.sqrt(tau)))) / tau) / h
    m = int(np.ceil(m_real - 0.2))
    return ModeGrid(h=float(h), m_half=max(m, 1))


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

class Sphere:
    """Sphere of the given radius about the origin, with analytic closest points."""

    def __init__(self, radius: float = 1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def closest(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(points, axis=1)
        out = np.empty_like(points)
        ok = r > 0
        out[ok] = points[ok] * (self.radius / r[ok])[:, None]
        # the origin is equidistant from everything: canonical axis point
        out[~ok] = np.array([self.radius, 0.0, 0.0])
        return out

    def bounding_box(self):
        r = np.full(3, self.radius)
        return -r, r

    def area(self):
        return 4.0 * np.pi * self.radius**2


class SurfaceOfRevolution:
    """Profile curve (axial(t), radial(t)) rotated about the x-axis.

    The closest-point search reduces to the 2D profile in the (axial, radial)
    half-plane.  A KD-tree over PROFILE_SAMPLES equally spaced profile points
    gives the nearest sample (ties resolve to the smallest parameter), and a
    golden-section search refines the parameter between that sample's
    neighbours.  On-axis points take the (y, z) direction (1, 0).
    """

    _GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, axial, radial, t_range=(-1.0, 1.0)):
        self.axial = axial
        self.radial = radial
        self.t0, self.t1 = float(t_range[0]), float(t_range[1])
        self._ts = np.linspace(self.t0, self.t1, PROFILE_SAMPLES)
        self._prof_x = np.asarray(axial(self._ts), dtype=float)
        self._prof_r = np.asarray(radial(self._ts), dtype=float)
        if not (np.all(np.isfinite(self._prof_x)) and np.all(np.isfinite(self._prof_r))):
            raise ValueError("profile samples must be finite")
        if np.any(self._prof_r < -1e-12):
            raise ValueError("radial profile must be non-negative")
        self._tree = cKDTree(np.column_stack([self._prof_x, self._prof_r]))

    def _seed(self, px, ps):
        """Nearest profile sample and its squared distance.

        The tree returns the two nearest samples; they are ranked by the
        squared distance computed here (the tree's rounded Euclidean
        distances can tie where these differ), then by index, so a tie
        between them goes to the smaller parameter.
        """
        _, j = self._tree.query(np.column_stack([px, ps]), k=2)
        d2 = (self._prof_x[j] - px[:, None]) ** 2 + (self._prof_r[j] - ps[:, None]) ** 2
        second = (d2[:, 1] < d2[:, 0]) | ((d2[:, 1] == d2[:, 0]) & (j[:, 1] < j[:, 0]))
        return np.where(second, j[:, 1], j[:, 0]), np.where(second, d2[:, 1], d2[:, 0])

    def _closest_param(self, px, ps):
        j, seed_d2 = self._seed(px, ps)
        ts = self._ts
        a = ts[np.maximum(j - 1, 0)]
        b = ts[np.minimum(j + 1, len(ts) - 1)]
        g = self._GOLDEN

        def f(t):
            return (np.asarray(self.axial(t)) - px) ** 2 \
                + (np.asarray(self.radial(t)) - ps) ** 2

        # golden section to ~1e-12 bracket width; each step keeps one
        # interior point and its value and evaluates the profile once
        c = b - g * (b - a)
        d = a + g * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(70):
            left = fc < fd                      # the minimum lies in [a, d]
            a = np.where(left, a, c)
            b = np.where(left, d, b)
            new = np.where(left, b - g * (b - a), a + g * (b - a))
            fnew = f(new)
            c, d, fc, fd = (np.where(left, new, d), np.where(left, c, new),
                            np.where(left, fnew, fd), np.where(left, fc, fnew))
        t = 0.5 * (a + b)
        # where rounding in the profile outweighs the refinement (a query on
        # a sample next to the sqrt-like tip of the peanut), keep the sample
        return np.where(f(t) <= seed_d2, t, ts[j])

    def closest(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(points)):
            raise ValueError("closest: query points must be finite")
        px = points[:, 0]
        ps = np.hypot(points[:, 1], points[:, 2])
        t = self._closest_param(px, ps)
        on_axis = ps == 0.0
        safe = np.where(on_axis, 1.0, ps)
        cr = np.asarray(self.radial(t), dtype=float)
        out = np.empty_like(points)
        out[:, 0] = np.asarray(self.axial(t), dtype=float)
        out[:, 1] = cr * np.where(on_axis, 1.0, points[:, 1] / safe)
        out[:, 2] = cr * np.where(on_axis, 0.0, points[:, 2] / safe)
        return out

    def bounding_box(self):
        xmax = float(np.max(self._prof_x))
        xmin = float(np.min(self._prof_x))
        rmax = float(np.max(self._prof_r))
        lo = np.array([xmin, -rmax, -rmax])
        hi = np.array([xmax, rmax, rmax])
        return lo, hi

    def area(self):
        ts = np.linspace(self.t0, self.t1, 200001)
        x = np.asarray(self.axial(ts), dtype=float)
        r = np.asarray(self.radial(ts), dtype=float)
        dx = np.gradient(x, ts)
        dr = np.gradient(r, ts)
        return float(np.trapezoid(2.0 * np.pi * r * np.hypot(dx, dr), ts))


def peanut_surface() -> SurfaceOfRevolution:
    """Peanut of revolution: x(t) = 3t - t^3, rho = sqrt((1+x^2)(4-x^2))/2."""

    def axial(t):
        return 3.0 * t - t * t * t

    def radial(t):
        # u = 1 - t^2, x = t (2 + u), 4 - x^2 = u^2 (3 + u): no cancellation at the tips
        u = (1.0 - t) * (1.0 + t)
        x = t * (2.0 + u)
        return 0.5 * np.sqrt((1.0 + x * x) * (3.0 + u)) * np.abs(u)

    return SurfaceOfRevolution(axial, radial, t_range=(-1.0, 1.0))


# ---------------------------------------------------------------------------
# Band construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandSpec:
    """Band parameters: cell size dx, band half-width w_b and accuracy eps.
    Each cell holds one quadrature point, so p is accepted only as 1."""

    dx: float
    w_b: float
    p: int = 1
    eps: float = 1e-6

    def __post_init__(self):
        check_tol(self.eps, "eps")
        for name, value in (("dx", self.dx), ("w_b", self.w_b)):
            if not 0 < value < np.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
        if self.w_b < self.dx:
            raise ConfigurationError(
                f"band width {self.w_b:g} below grid spacing {self.dx:g}: empty band")
        if self.p != 1:
            raise ConfigurationError(f"p must be 1, one point per band cell, got {self.p!r}")


class BandSet:
    """Retained band cells: their centres (the quadrature points), weights and
    closest points, and the surface-measure weights, fixed here: surface.area()
    may integrate a profile.  field(data) puts one matrix per cell there."""

    def __init__(self, surface, spec, quad_points, quad_weights, closest_points):
        self.surface = surface
        self.spec = spec
        self.quad_points = quad_points
        self.quad_weights = quad_weights
        self.closest_points = closest_points
        self._surface_weights = quad_weights * (surface.area() / float(np.sum(quad_weights)))
        self._surface_weights.flags.writeable = False

    @property
    def n_q(self) -> int:
        return len(self.quad_points)

    def surface_weights(self) -> np.ndarray:
        """Per-point surface-measure weights (sum equals the surface area), read-only."""
        return self._surface_weights

    def field(self, data) -> MatrixField:
        """The surface field with (n_q, n, n) data on this band's closest points."""
        return MatrixField.cloud_field(self.closest_points, self.surface_weights(), data)


def build_band(surface, spec: BandSpec) -> BandSet:
    """Grid the w_b-neighborhood of the surface and build the quadrature set.

    The bounding-box mesh holds the cell centres k dx + dx/2 per axis; one
    closest-point pass keeps the centres within w_b of the surface and gives
    their closest points.  Each kept centre is a quadrature point with weight
    dx^3: the midpoint rule on the band.
    """
    dx, w_b = spec.dx, spec.w_b
    lo, hi = surface.bounding_box()
    lo = lo - (w_b + 2 * dx)
    hi = hi + (w_b + 2 * dx)
    axes = [np.arange(np.floor(l / dx), np.ceil(h / dx) + 1) * dx + dx / 2
            for l, h in zip(lo, hi)]
    # held at once while the distances are taken, 3 doubles per point each: the
    # mesh arrays, the stacked points, their closest points, the difference
    # and its square; and the distances
    npoints = math.prod(len(a) for a in axes)
    need, available = 8 * 16 * npoints, _available_memory()
    if need > available:
        raise MemoryError(f"the band's bounding-box mesh of {npoints} points needs at least "
                          f"{need / 2**30:.3g} GiB, more than the {available / 2**30:.3g} GiB "
                          f"available")
    mesh = np.meshgrid(*axes, indexing="ij")
    centres = np.stack([m.ravel() for m in mesh], axis=1)

    closest = np.empty_like(centres)
    for start in range(0, npoints, _CLOSEST_CHUNK):
        chunk = slice(start, start + _CLOSEST_CHUNK)
        closest[chunk] = surface.closest(centres[chunk])
    keep = np.linalg.norm(centres - closest, axis=1) < w_b
    if not np.any(keep):
        raise ConfigurationError("band is empty: no cell centre within w_b")
    return BandSet(surface, spec, centres[keep], np.full(np.count_nonzero(keep), dx * dx * dx),
                   closest[keep])


_CLOSEST_CHUNK = 262144    # points per surface.closest call


def _available_memory() -> float:
    """Bytes the machine reports as available (MemAvailable); inf where unknown."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return 1024.0 * int(line.split()[1])
    except OSError:
        pass
    return math.inf


# ---------------------------------------------------------------------------
# Surface diffusion
# ---------------------------------------------------------------------------

class SurfaceDiffuser:
    """Spectral heat step on a band: filtered lattice spread -> gather.

    Precomputes the affine map into [-pi, pi)^3, the mode lattice, the
    closest points' GridderPlan, the per-axis heat multiplier mu, the band's
    LatticeSpreader filtered by mu, and the scalar kappa.  mu folds both ES
    deconvolutions, the damping exp(-m^2 h^2 tau), the constant and the FFT
    normalisations into one even factor per axis on the half spectrum,
    weighted 1 below M, 1/2 at M and 0 above: the step kernel is the tensor
    product of the real 1D expansions over -M..M-1 (the lone -M mode split
    evenly between +-M).

    kappa makes the largest response to the constant field exactly 1.  The
    kernel runs in scaled coordinates on physical weights, so kappa is the
    Jacobian scale^3 times a calibration within 1e-5 of 1 (kappa/scale^3 - 1
    is -1.3e-7 on the desk sphere and -2.9e-7 on the desk peanut).  scale^3
    alone would leave max D1 = 1 + 2.9e-7 on the desk peanut, inside the 1e-6
    slack of the maximum-principle checks but not exact; the calibration
    holds the bound on any band, however coarse.

    eps is the band's, band.spec.eps; the optional third argument is accepted
    only when it equals it.  A band narrower than band_width(tau, eps) is refused.
    """

    def __init__(self, band: BandSet, tau: float, eps: float | None = None):
        if eps is not None and eps != band.spec.eps:
            raise ConfigurationError(f"eps {eps!r} is not the band's eps {band.spec.eps!r}")
        self.band = band
        self.tau = tau
        self.eps = eps = band.spec.eps
        need = band_width(tau, eps)
        if band.spec.w_b < need:
            raise ConfigurationError(f"band too narrow for tau={tau:g}, eps={eps:g}: "
                                     f"w_b {band.spec.w_b:.6g} < band_width {need:.6g}")

        pts = np.concatenate([band.quad_points, band.closest_points])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        self.center = 0.5 * (lo + hi)
        halfwidth = float(np.max(hi - lo)) / 2.0
        self.scale = (1.0 - 1e-9) * np.pi / halfwidth
        self.tau_scaled = tau * self.scale**2
        self.modes = spectral_grid(self.tau_scaled, eps)

        src = (band.quad_points - self.center) * self.scale
        tgt = (band.closest_points - self.center) * self.scale
        self._tgt_plan = GridderPlan(tgt, self.modes, eps)

        # mu per axis on k = 0..n/2; the two deconvolutions are equal, taken at -k
        m, n, h = self.modes.m_half, self._tgt_plan.n_over, self.modes.h
        k = np.arange(n // 2 + 1)
        g = self._tgt_plan.axis_deconv[m - np.minimum(k, m)]
        self._mu = (g * g * np.exp(-(h * k) ** 2 * self.tau_scaled) * (h / (2.0 * np.pi * n))
                    * np.where(k < m, 1.0, 0.5 * (k == m)))
        self._spreader = LatticeSpreader(src, self.modes, eps).filtered(self._mu)

        # kappa, the Jacobian and the calibration together, from kappa = 1
        self._kappa = 1.0
        self._kappa = 1.0 / float(self.diffuse_values(np.ones((band.n_q, 1))).max())

    def diffuse_values(self, values: np.ndarray) -> np.ndarray:
        """Diffuse per-point scalar columns (n_q, C) for time tau."""
        grid = self._spreader.spread(self.band.quad_weights[:, None] * values)
        return self._tgt_plan.gather(grid) * self._kappa

    def diffuse(self, f: MatrixField) -> MatrixField:
        if f.is_grid or not np.array_equal(f.points, self.band.closest_points):
            raise ValueError("field does not live on this band's closest points")
        flat = f.flat().reshape(self.band.n_q, f.n * f.n)
        out = self.diffuse_values(flat)
        return f.copy_with(out.reshape(self.band.n_q, f.n, f.n))

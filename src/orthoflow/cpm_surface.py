"""Closest-point representation of closed surfaces and spectral surface diffusion.

The surface heat step is computed in the ambient space: constant-extend
surface values into a band of half-width w_b around the surface, integrate
the free-space Gaussian against the extension with per-cell quadrature, and
evaluate the result back on the surface.  The Gaussian tail outside the band
is controlled by

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
"""

from __future__ import annotations

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
    "Surface",
    "Sphere",
    "SurfaceOfRevolution",
    "CallableSurface",
    "peanut_surface",
    "BandSpec",
    "BandSet",
    "build_band",
    "SurfaceDiffuser",
]


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


def spectral_grid(tau: float, eps: float, R: float) -> ModeGrid:
    """Mode spacing h and count M for the 1D heat-kernel expansion on [-R, R].

    h = min(pi/R, pi / (2 sqrt(tau |ln eps|))), and M grows like
    sqrt(|ln(pi eps / (2 h sqrt(tau)))| / tau) / h.  The log is taken in
    absolute value (it is negative in the regimes of interest) and M is
    rounded up with a 0.2 guard so near-integer boundary values do not
    inflate the mode count.  eps must lie in [1e-12, 0.01].
    """
    check_tol(eps, "eps")
    if not (0 < tau < np.inf and 0 < R < np.inf):
        raise ValueError("tau and R must be positive and finite")
    log_eps = abs(np.log(eps))
    h = min(np.pi / R, np.pi / (2.0 * np.sqrt(tau * log_eps)))
    m_real = np.sqrt(abs(np.log(np.pi * eps / (2.0 * h * np.sqrt(tau)))) / tau) / h
    m = int(np.ceil(m_real - 0.2))
    return ModeGrid(h=float(h), m_half=max(m, 1))


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

class Surface:
    """A closed surface embedded in R^3, described by its closest-point map."""

    def closest(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def area(self) -> float:
        raise NotImplementedError


class Sphere(Surface):
    def __init__(self, radius: float = 1.0, center=(0.0, 0.0, 0.0)):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.center = np.asarray(center, dtype=float)

    def closest(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        rel = points - self.center
        r = np.linalg.norm(rel, axis=1)
        out = np.empty_like(rel)
        ok = r > 0
        out[ok] = rel[ok] * (self.radius / r[ok])[:, None]
        # center is equidistant from everything: canonical axis point
        out[~ok] = np.array([self.radius, 0.0, 0.0])
        return out + self.center

    def bounding_box(self):
        r = np.full(3, self.radius)
        return self.center - r, self.center + r

    def area(self):
        return 4.0 * np.pi * self.radius**2


class SurfaceOfRevolution(Surface):
    """Profile curve (axial(t), radial(t)) rotated about the x-axis.

    The closest-point search reduces to the 2D profile in the (axial, radial)
    half-plane.  A KD-tree over the presampled profile points gives the
    nearest sample (ties resolve to the smallest parameter), and a golden-
    section search refines the parameter between that sample's neighbours.
    On-axis points take the (y, z) direction (1, 0).
    """

    _GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, axial, radial, t_range=(-1.0, 1.0), samples: int = 1024):
        if samples < 2:
            raise ValueError("need at least 2 profile samples")
        self.axial = axial
        self.radial = radial
        self.t0, self.t1 = float(t_range[0]), float(t_range[1])
        self._ts = np.linspace(self.t0, self.t1, samples)
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


class CallableSurface(Surface):
    """Surface given directly by a closest-point map."""

    def __init__(self, closest_fn, bounding_box, area):
        self._closest = closest_fn
        self._bbox = (np.asarray(bounding_box[0], dtype=float),
                      np.asarray(bounding_box[1], dtype=float))
        self._area = float(area)

    def closest(self, points):
        return np.atleast_2d(np.asarray(self._closest(points), dtype=float))

    def bounding_box(self):
        return self._bbox

    def area(self):
        return self._area


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
    """Band parameters: grid spacing, band half-width, quadrature order, accuracy."""

    dx: float
    w_b: float
    p: int = 3
    eps: float = 1e-6

    def __post_init__(self):
        check_tol(self.eps, "eps")      # first: eps also sets the default w_b
        for name, value in (("dx", self.dx), ("w_b", self.w_b)):
            if not 0 < value < np.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
        if self.w_b < self.dx:
            raise ConfigurationError(
                f"band width {self.w_b:g} below grid spacing {self.dx:g}: empty band")
        if self.p < 1:
            raise ConfigurationError("quadrature order p must be >= 1")


def _gc_nodes_weights(p: int):
    """Per-axis Gauss-Chebyshev nodes on (-1, 1), weights normalized to sum 2.

    The plain-integrand correction sqrt(1 - xi^2) leaves a constant bias
    (pi/p) sum sqrt(1-c^2) != 2, so the weights are rescaled per axis; the
    per-cell product weights then sum to exactly dx^3.
    """
    k = np.arange(1, p + 1)
    c = np.cos((2.0 * k - 1.0) * np.pi / (2.0 * p))
    w = np.sqrt(1.0 - c**2)
    w = w * (2.0 / w.sum())
    return c, w


class BandSet:
    """Retained band cells with quadrature points, weights, closest points, and the
    surface-measure weights, fixed here: surface.area() may integrate a profile."""

    def __init__(self, surface, spec, grid_points, grid_distances,
                 quad_points, quad_weights, closest_points):
        self.surface = surface
        self.spec = spec
        self.grid_points = grid_points
        self.grid_distances = grid_distances
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

    def constant_field(self, n: int, matrix) -> MatrixField:
        data = np.broadcast_to(np.asarray(matrix, dtype=float),
                               (self.n_q, n, n)).copy()
        return MatrixField.cloud_field(self.closest_points,
                                       self.surface_weights(), data)


def build_band(surface: Surface, spec: BandSpec) -> BandSet:
    """Grid the w_b-neighborhood of the surface and build the quadrature set.

    Cells are anchored at multiples of dx; a cell x_g + [0, dx]^3 is retained
    when the grid point x_g lies within w_b of the surface.  Each retained
    cell gets p^3 product Gauss-Chebyshev points whose weights sum to dx^3.
    """
    dx, w_b, p = spec.dx, spec.w_b, spec.p
    lo, hi = surface.bounding_box()
    lo = lo - (w_b + 2 * dx)
    hi = hi + (w_b + 2 * dx)
    axes = [np.arange(np.floor(l / dx), np.ceil(h / dx) + 1) * dx
            for l, h in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid_points = np.stack([m.ravel() for m in mesh], axis=1)

    cps = _chunked_closest(surface, grid_points)
    dists = np.linalg.norm(grid_points - cps, axis=1)
    keep = dists < w_b
    if not np.any(keep):
        raise ConfigurationError("band is empty: no grid point within w_b")
    grid_points = grid_points[keep]
    dists = dists[keep]

    nodes, wts = _gc_nodes_weights(p)
    offs = (nodes + 1.0) * (dx / 2.0)          # p offsets in (0, dx)
    w1 = wts * (dx / 2.0)                       # per-axis weights, sum dx
    # p^3 tensor offsets/weights per cell
    ox, oy, oz = np.meshgrid(offs, offs, offs, indexing="ij")
    cell_offsets = np.stack([ox.ravel(), oy.ravel(), oz.ravel()], axis=1)
    wx, wy, wz = np.meshgrid(w1, w1, w1, indexing="ij")
    cell_weights = (wx * wy * wz).ravel()

    quad_points = (grid_points[:, None, :] + cell_offsets[None, :, :]).reshape(-1, 3)
    quad_weights = np.tile(cell_weights, len(grid_points))
    closest = _chunked_closest(surface, quad_points)
    return BandSet(surface, spec, grid_points, dists, quad_points,
                   quad_weights, closest)


_CLOSEST_CHUNK = 262144    # points per surface.closest call


def _chunked_closest(surface, points):
    out = np.empty_like(points)
    for lo in range(0, len(points), _CLOSEST_CHUNK):
        hi = min(lo + _CLOSEST_CHUNK, len(points))
        out[lo:hi] = surface.closest(points[lo:hi])
    return out


# ---------------------------------------------------------------------------
# Surface diffusion
# ---------------------------------------------------------------------------

class SurfaceDiffuser:
    """Spectral heat step on a band: filtered lattice spread -> gather.

    Precomputes the affine map into [-pi, pi)^3, the mode lattice, the
    closest points' GridderPlan, the per-axis heat multiplier mu, the band's
    LatticeSpreader filtered by mu, and a scalar normalization fixing the
    constant field (almost) exactly.  mu folds both ES deconvolutions, the
    damping exp(-m^2 h^2 tau), the constant and the FFT normalisations into
    one even factor per axis on the half spectrum, weighted 1 below M, 1/2 at
    M and 0 above: the step kernel is the tensor product of the real 1D
    expansions over -M..M-1 (the lone -M mode split evenly between +-M).
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
        self.modes = spectral_grid(self.tau_scaled, eps, np.pi)

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

        # calibrate the residual scalar on the constant field
        self._kappa = 1.0 / float(self._apply(np.ones((band.n_q, 1))).max())

    def _apply(self, values: np.ndarray) -> np.ndarray:
        """Raw pipeline on (n_q, C) real values, before kappa."""
        grid = self._spreader.spread(self.band.quad_weights[:, None] * values)
        return self._tgt_plan.gather(grid)

    def diffuse_values(self, values: np.ndarray) -> np.ndarray:
        """Diffuse per-point scalar columns (n_q, C) for time tau."""
        return self._apply(values) * self._kappa

    def diffuse(self, f: MatrixField) -> MatrixField:
        if f.is_grid or f.points is None or len(f.points) != self.band.n_q:
            raise ValueError("field does not live on this band's closest points")
        if not np.array_equal(f.points, self.band.closest_points):
            raise ValueError("field points differ from the band's closest points")
        flat = f.flat().reshape(self.band.n_q, f.n * f.n)
        out = self.diffuse_values(flat)
        return f.copy_with(out.reshape(self.band.n_q, f.n, f.n))

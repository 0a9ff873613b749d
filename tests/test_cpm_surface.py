"""Band construction, spectral parameters, and surface diffusion oracles.

Heavy checks run on a coarse sphere band (dx = 0.2); the acceptance
suite repeats the headline oracle at the production scale (dx = 0.05).
"""
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoflow import cpm_surface
from orthoflow.cpm_surface import (BandSpec, Sphere, SurfaceDiffuser, SurfaceOfRevolution,
                                    band_width, build_band, peanut_surface, spectral_grid,
                                    tail_T)
from orthoflow.errors import ConfigurationError
from orthoflow.field import MatrixField, plus_volume
from orthoflow.nufft import GridderPlan, LatticeSpreader
from orthoflow.scenarios import surface_initial
from revolution_oracle import mode_errors, revolution_modes

TAU, EPS = 0.05, 1e-6


@pytest.fixture(scope="module")
def sphere_band():
    wb = band_width(TAU, EPS)
    return build_band(Sphere(1.0), BandSpec(dx=0.2, w_b=wb, eps=EPS))


@pytest.fixture(scope="module")
def sphere_diffuser(sphere_band):
    return SurfaceDiffuser(sphere_band, TAU, EPS)


@pytest.fixture(scope="module")
def peanut_desk():
    """The benchmark's desk peanut band (dx = 0.3, tau = 0.1) and its diffuser."""
    band = build_band(peanut_surface(), BandSpec(dx=0.3, w_b=band_width(0.1, EPS), eps=EPS))
    return band, SurfaceDiffuser(band, 0.1, EPS)


@pytest.fixture(scope="module", params=["sphere", "peanut"])
def desk(request, sphere_band, sphere_diffuser, peanut_desk):
    """Both desk bands: the sphere fixture is the benchmark's desk sphere."""
    return (sphere_band, sphere_diffuser) if request.param == "sphere" else peanut_desk


class TestTailT:
    def test_at_zero(self):
        assert tail_T(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_limit(self):
        assert tail_T(8.0) < 1e-20

    def test_monotone(self):
        xs = np.linspace(0, 6, 50)
        vals = [tail_T(x) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_reference_band_point(self):
        # the tabulated w_b for (tau=1e-2, eps=1e-6) leaves a full tail of
        # ~1e-6 (within 5%)
        assert tail_T(0.7823 / (2 * 0.1)) == pytest.approx(1e-6, rel=0.05)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tail_T(-0.1)


class TestBandWidth:
    @pytest.mark.parametrize("tau,eps,want", [
        (1e-2, 1e-6, 0.7823),
        (1e-1, 1e-3, 1.796),
        (1e-4, 1e-9, 0.09465),
        (1e-1, 1e-12, 3.432),
    ])
    def test_reference_values(self, tau, eps, want):
        got = band_width(tau, eps)
        ulp4 = 10.0 ** (np.floor(np.log10(want)) - 3)
        assert abs(got - want) <= ulp4

    def test_scaling_law(self):
        a = band_width(1e-2, 1e-6)
        b = band_width(1e-4, 1e-6)
        assert abs(b - a / 10) <= 1e-10 * a

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            band_width(-1.0, 1e-6)
        with pytest.raises(ValueError):
            band_width(0.01, 0.7)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-12.0, -2.0), st.floats(-4.0, 0.0))
    def test_full_tail_within_ten_percent_above_eps(self, log_eps, log_tau):
        # the one dominant-term solve over the whole accepted eps domain: the
        # full tail T at the returned width lies in [eps, 1.1 eps]
        eps, tau = 10.0**log_eps, 10.0**log_tau
        tail = tail_T(band_width(tau, eps) / (2.0 * np.sqrt(tau)))
        assert eps <= tail <= 1.1 * eps


class TestSpectralGrid:
    @pytest.mark.parametrize("tau,eps,want", [
        (1e-2, 1e-6, 34),
        (1e-3, 1e-9, 130),
        (1e-1, 1e-12, 17),
        (1e-4, 1e-3, 136),
    ])
    def test_mode_counts(self, tau, eps, want):
        assert spectral_grid(tau, eps).m_half == want

    @staticmethod
    def _kernel_error(tau, eps):
        modes = spectral_grid(tau, eps)
        h, m = modes.h, modes.m_half
        xs = np.linspace(-np.pi, np.pi, 1000)
        ms = np.arange(-m, m)
        series = (h / (2 * np.pi)) * np.sum(
            np.exp(-ms[None, :] ** 2 * h**2 * tau + 1j * ms[None, :] * h * xs[:, None]),
            axis=1)
        exact = np.exp(-xs**2 / (4 * tau)) / np.sqrt(4 * np.pi * tau)
        bound = 4 * eps / np.sqrt(4 * np.pi * tau)
        return np.abs(series - exact).max(), bound

    @pytest.mark.parametrize("tau", [1e-1, 1e-2])
    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_kernel_expansion_error_bound(self, tau, eps):
        # |G_tau(x) - (h/2pi) sum exp(-m^2 h^2 tau + i m h x)| <= 4 eps / sqrt(4 pi tau)
        # in the diffusion regime (the solver's scaled times land here)
        err, bound = self._kernel_error(tau, eps)
        assert err <= bound

    @pytest.mark.parametrize("tau", [1e-3, 1e-4])
    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_kernel_expansion_small_tau_sanity(self, tau, eps):
        # the tabulated mode counts under-resolve the strict bound for small
        # tau (up to ~12x at the worst corner); pin that factor so the
        # behavior cannot silently regress
        err, bound = self._kernel_error(tau, eps)
        assert err <= 15 * bound

    def test_out_of_range(self):
        for bad in [(0.0, 1e-6), (1e-2, 0.9)]:
            with pytest.raises(ValueError):
                spectral_grid(*bad)


@pytest.mark.parametrize("eps", [0.7, 0.5, 0.49, 0.0100001, 1e-13, 0.0, -1.0, np.nan, np.inf])
def test_eps_outside_range_one_message(eps):
    # band_width, spectral_grid and BandSpec share the plans' range check and its message
    want = f"eps must lie in [1e-12, 0.01], got {eps!r}"
    for call in (lambda: band_width(0.05, eps), lambda: spectral_grid(0.05, eps),
                 lambda: BandSpec(dx=0.2, w_b=0.6, eps=eps)):
        with pytest.raises(ConfigurationError) as info:
            call()
        assert str(info.value) == want


def closest(surface, x):
    """Closest point on the surface to one 3D point."""
    return surface.closest(np.array([x], dtype=float))[0]


class TestClosestPoint:
    def test_sphere_outside(self):
        assert np.allclose(closest(Sphere(1.0), (2.0, 0.0, 0.0)),
                           (1.0, 0.0, 0.0))

    def test_sphere_center_tie_break(self):
        assert np.allclose(closest(Sphere(1.0), (0.0, 0.0, 0.0)),
                           (1.0, 0.0, 0.0))

    def test_peanut_waist_idempotent(self):
        pea = peanut_surface()
        cp = closest(pea, (0.0, 0.0, 0.0))
        cp2 = closest(pea, cp)
        assert np.linalg.norm(cp2 - cp) <= 1e-10

    def test_idempotence_random(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, (500, 3))
        for surf in (Sphere(1.0), peanut_surface()):
            cp = surf.closest(pts)
            assert np.abs(surf.closest(cp) - cp).max() <= 1e-10

    def test_peanut_profile_values(self):
        pea = peanut_surface()
        assert pea.axial(0.0) == 0.0
        assert pea.radial(0.0) == pytest.approx(1.0)      # waist 0.5*sqrt(1*4)
        assert pea.axial(1.0) == pytest.approx(2.0)
        assert pea.radial(1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_peanut_radial_exact_near_tips(self, sign):
        # rho^2 = (1 + x^2)(4 - x^2)/4 evaluated in exact rationals at the
        # same float t; 4 - x^2 cancels at the tips unless it is factored
        radial = peanut_surface().radial
        for k in range(3, 16):
            t = sign * (1.0 - 10.0**-k)
            x = 3 * Fraction(t) - Fraction(t) ** 3
            exact = (1 + x * x) * (4 - x * x) / 4
            got = Fraction(float(radial(np.array([t]))[0])) ** 2
            assert abs(got - exact) <= Fraction(1, 10**14) * exact, k

    def test_sphere_point_on_surface(self):
        cp = closest(Sphere(1.0), (0.0, 0.0, 1.0))
        assert np.linalg.norm(cp) == pytest.approx(1.0, abs=1e-14)


class TestSurfaceOfRevolution:
    def test_unit_sphere_matches_analytic_closest_points(self):
        # the unit sphere as a profile (cos t, sin t), t in [0, pi]
        rev = SurfaceOfRevolution(np.cos, np.sin, t_range=(0.0, np.pi))
        pts = np.random.default_rng(0).uniform(-2, 2, (20000, 3))
        got, want = rev.closest(pts), Sphere(1.0).closest(pts)
        assert np.abs(got - want).max() <= 1e-7
        dist_got = np.linalg.norm(pts - got, axis=1)
        dist_want = np.linalg.norm(pts - want, axis=1)
        assert np.abs(dist_got - dist_want).max() <= 1e-13

    def test_seed_equals_dense_scan(self):
        pea = peanut_surface()
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3, 3, (5000, 3))
        px, ps = pts[:, 0], np.hypot(pts[:, 1], pts[:, 2])
        # the x = 0 plane (mirror-image samples tie) and the axis
        lattice = np.arange(-60, 61) * 0.05
        gx, gs = np.meshgrid(lattice, np.abs(lattice))
        px = np.concatenate([px, np.zeros(2000), px[:2000], gx.ravel()])
        ps = np.concatenate([ps, ps[:2000], np.zeros(2000), gs.ravel()])
        # full scan: the first index attains the minimum
        d2 = (pea._prof_x[None, :] - px[:, None]) ** 2 \
            + (pea._prof_r[None, :] - ps[:, None]) ** 2
        np.testing.assert_array_equal(pea._seed(px, ps)[0], np.argmin(d2, axis=1))
        d2.sort(axis=1)
        assert np.count_nonzero(d2[:, 0] == d2[:, 1]) > 1000   # exact ties occur

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(0, 3)),
                    min_size=1, max_size=50))
    def test_refinement_never_worse_than_seed(self, pairs):
        pea = peanut_surface()
        px, ps = (np.array(c, dtype=float) for c in zip(*pairs))
        j, _ = pea._seed(px, ps)
        seed = (pea._prof_x[j] - px) ** 2 + (pea._prof_r[j] - ps) ** 2
        t = pea._closest_param(px, ps)
        refined = (pea.axial(t) - px) ** 2 + (pea.radial(t) - ps) ** 2
        assert np.all(refined <= seed * (1.0 + 1e-12))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_profile_sample_rejected(self, bad):
        def radial(t):
            return np.where(t > 0.5, bad, 1.0 - t * t)

        with pytest.raises(ValueError, match="finite"):
            SurfaceOfRevolution(lambda t: t, radial)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, axis, bad):
        pts = np.zeros((3, 3))
        pts[1, axis] = bad
        with pytest.raises(ValueError, match="finite") as info:
            peanut_surface().closest(pts)
        assert "\n" not in str(info.value)


class TestBandSpec:
    @pytest.mark.parametrize("name", ["dx", "w_b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    def test_non_positive_or_non_finite_rejected(self, name, bad):
        kwargs = {"dx": 0.2, "w_b": 0.6, "eps": 1e-6, name: bad}
        with pytest.raises(ConfigurationError, match=f"^{name} must be"):
            BandSpec(**kwargs)

    @pytest.mark.parametrize("eps", [0.1, 1e-13, 0.0, np.nan])
    def test_eps_outside_plan_range_rejected(self, eps):
        with pytest.raises(ConfigurationError, match=r"^eps must lie in \[1e-12, 0.01\], got "):
            BandSpec(dx=0.2, w_b=0.6, eps=eps)

    @pytest.mark.parametrize("eps", [1e-12, 1e-2])
    def test_eps_range_ends_accepted(self, eps):
        assert BandSpec(dx=0.2, w_b=0.6, eps=eps).eps == eps


class TestBuildBand:
    def test_cell_count_near_reference(self):
        # dx=0.05, w_b=0.5532: retained cells track the reported size
        band = build_band(Sphere(1.0), BandSpec(dx=0.05, w_b=0.5532, eps=1e-6))
        assert abs(band.n_q - 136114) <= 0.25 * 136114
        assert band.quad_weights.shape == (band.n_q,) and band.closest_points.shape == (band.n_q, 3)

    def test_one_point_per_cell_at_its_centre(self, sphere_band):
        # the midpoint rule: distinct cell centres k dx + dx/2 with weight dx^3
        dx = sphere_band.spec.dx
        k = sphere_band.quad_points / dx - 0.5
        assert np.abs(k - np.rint(k)).max() <= 1e-9
        assert len(np.unique(np.rint(k), axis=0)) == sphere_band.n_q
        assert np.all(sphere_band.quad_weights == dx * dx * dx)

    @pytest.mark.parametrize("available, what", [
        (2.0**20, "bounding-box mesh of 9261 points needs at least 0.0011 GiB, "
                  "more than the 0.000977 GiB available")])
    def test_arrays_beyond_available_memory_refused(self, monkeypatch, available, what):
        # the 21^3 mesh points need 1.19 MB
        monkeypatch.setattr(cpm_surface, "_available_memory", lambda: available)
        spec = BandSpec(dx=0.25, w_b=band_width(0.01, 1e-6), eps=1e-6)
        with pytest.raises(MemoryError, match=what) as info:
            build_band(Sphere(1.0), spec)
        assert "\n" not in str(info.value)

    def test_distances_below_band_width(self, sphere_band):
        pts = sphere_band.quad_points
        dists = np.linalg.norm(pts - sphere_band.surface.closest(pts), axis=1)
        assert dists.max() < sphere_band.spec.w_b

    def test_quadrature_within_band_width_on_desk_bands(self, desk):
        # each centre is kept by its own distance, and its closest point is reused
        band, _ = desk
        closest = band.surface.closest(band.quad_points)
        assert np.array_equal(band.closest_points, closest)
        assert np.linalg.norm(band.quad_points - closest, axis=1).max() < band.spec.w_b

    def test_desk_sphere_band_mirror_symmetric(self, sphere_band):
        # cell k mirrors to cell -1 - k on each axis
        k = np.rint(sphere_band.quad_points / sphere_band.spec.dx - 0.5).astype(int)
        cells = set(map(tuple, k))
        for axis in range(3):
            mirrored = k.copy()
            mirrored[:, axis] = -1 - mirrored[:, axis]
            assert set(map(tuple, mirrored)) == cells

    def test_sphere_volume_initial_plus_volume_is_an_octant(self, sphere_band):
        # the desk sphere_volume config's band: its plus octant has area pi/2
        f = surface_initial("sphere_volume", sphere_band)
        assert plus_volume(f) == pytest.approx(np.pi / 2, rel=1e-3)

    def test_one_closest_point_pass(self, monkeypatch):
        # every bounding-box mesh point goes to surface.closest exactly once,
        # also across chunks
        sphere, seen = Sphere(1.0), []

        class Wrapping:
            def closest(self, points):
                seen.append(points.copy())
                return sphere.closest(points)

            def bounding_box(self):
                return sphere.bounding_box()

            def area(self):
                return sphere.area()

        monkeypatch.setattr(cpm_surface, "_CLOSEST_CHUNK", 1000)
        band = build_band(Wrapping(), BandSpec(dx=0.25, w_b=band_width(0.01, 1e-6), eps=1e-6))
        pts = np.concatenate(seen)
        assert len(seen) == 10 and len(pts) == 21**3
        assert len(np.unique(pts, axis=0)) == len(pts)
        assert all(len(np.unique(pts[:, a])) == 21 for a in range(3))
        assert 0 < band.n_q < len(pts)

    def test_degenerate_band_rejected(self):
        with pytest.raises(ConfigurationError):
            BandSpec(dx=0.2, w_b=0.1, eps=1e-6)

    def test_surface_weights_sum_to_area(self, sphere_band):
        total = sphere_band.surface_weights().sum()
        assert total == pytest.approx(4 * np.pi, rel=1e-6)

    def test_surface_weights_fixed_at_build(self, peanut_desk, monkeypatch):
        # the peanut's area integrates its profile: no call after the build
        band, _ = peanut_desk
        calls = []
        monkeypatch.setattr(band.surface, "area", lambda: calls.append(1) or 1.0)
        first, second = band.surface_weights(), band.surface_weights()
        assert calls == [] and first is second and not first.flags.writeable


class TestDiffuseSurface:
    def test_constant_invariant(self, sphere_diffuser, sphere_band):
        out = sphere_diffuser.diffuse_values(np.ones((sphere_band.n_q, 1)))[:, 0]
        assert np.abs(out - 1.0).max() <= 1e-5

    def test_constant_invariant_peanut(self, peanut_desk):
        band, dif = peanut_desk
        out = dif.diffuse_values(np.ones((band.n_q, 1)))[:, 0]
        assert np.abs(out - 1.0).max() <= 10 * EPS

    def test_sphere_eigenfunctions(self, sphere_diffuser, sphere_band):
        # l = 1 and l = 2 harmonics decay by exp(-l(l+1) tau) within 1-2%
        z = sphere_band.closest_points[:, 2]
        out1 = sphere_diffuser.diffuse_values(z[:, None])[:, 0]
        m1 = np.abs(z) > 0.5
        assert np.abs(out1[m1] / z[m1] / np.exp(-2 * TAU) - 1).max() <= 0.02

        u2 = z**2 - 1.0 / 3.0
        out2 = sphere_diffuser.diffuse_values(u2[:, None])[:, 0]
        m2 = np.abs(u2) > 0.15
        assert np.abs(out2[m2] / u2[m2] / np.exp(-6 * TAU) - 1).max() <= 0.02

    def test_linearity(self, sphere_diffuser, sphere_band):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(sphere_band.n_q)
        b = rng.standard_normal(sphere_band.n_q)
        lhs = sphere_diffuser.diffuse_values((1.5 * a + b)[:, None])
        rhs = 1.5 * sphere_diffuser.diffuse_values(a[:, None]) \
            + sphere_diffuser.diffuse_values(b[:, None])
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_wider_band_changes_little(self, sphere_band, sphere_diffuser):
        wide = build_band(Sphere(1.0), BandSpec(dx=0.2, w_b=1.3 * sphere_band.spec.w_b, eps=EPS))
        dif_w = SurfaceDiffuser(wide, TAU, EPS)
        # constant-field responses agree with the exact value 1 within 10 eps
        c_n = sphere_diffuser.diffuse_values(np.ones((sphere_band.n_q, 1)))[:, 0]
        c_w = dif_w.diffuse_values(np.ones((wide.n_q, 1)))[:, 0]
        assert np.abs(c_n - 1).max() <= 10 * EPS
        assert np.abs(c_w - 1).max() <= 10 * EPS
        # deviation of the z-harmonic from its exact image is band-independent
        def max_dev(dif, band):
            z = band.closest_points[:, 2]
            out = dif.diffuse_values(z[:, None])[:, 0]
            return np.abs(out - np.exp(-2 * TAU) * z).max()
        assert abs(max_dev(sphere_diffuser, sphere_band)
                   - max_dev(dif_w, wide)) <= 10 * EPS

    def test_band_too_narrow_for_tau(self, sphere_band):
        with pytest.raises(ConfigurationError):
            SurfaceDiffuser(sphere_band, tau=10.0 * TAU)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_band_width_is_the_narrowest_accepted(self, eps):
        # desk sphere, dx = 0.3: band_width's own width passes, one ulp less fails
        w = band_width(TAU, eps)
        SurfaceDiffuser(build_band(Sphere(1.0), BandSpec(dx=0.3, w_b=w, eps=eps)), TAU)
        narrow = build_band(Sphere(1.0), BandSpec(dx=0.3, w_b=np.nextafter(w, 0), eps=eps))
        with pytest.raises(ConfigurationError, match="band too narrow"):
            SurfaceDiffuser(narrow, TAU)

    @pytest.mark.parametrize("eps", [1e-3, 1e-9, 0.7, np.nan])
    def test_eps_other_than_the_band_s_rejected(self, sphere_band, eps):
        # the diffuser's eps is its band's (the sphere_diffuser fixture passes it)
        with pytest.raises(ConfigurationError, match="is not the band's eps 1e-06$"):
            SurfaceDiffuser(sphere_band, TAU, eps)

    def test_field_point_mismatch(self, sphere_diffuser, sphere_band):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((10, 3))
        f = MatrixField.cloud_field(pts, np.ones(10), np.zeros((10, 2, 2)))
        with pytest.raises(ValueError):
            sphere_diffuser.diffuse(f)


class TestOperatorGates:
    """Measured gates of the surface operator D on both desk bands: the
    maximum principle |Du|_inf <= (1 + eps) |u|_inf and <u, Du>_w >= 0 in
    the surface-weighted inner product, on 20 uniform-random and 20
    plane-sign columns."""

    @pytest.fixture(scope="class")
    def responses(self, desk):
        band, dif = desk
        rng = np.random.default_rng(12)
        normals = rng.standard_normal((3, 20))
        offsets = rng.uniform(-0.5, 0.5, 20)
        u = np.hstack([rng.uniform(-1.0, 1.0, (band.n_q, 20)),
                       np.where(band.closest_points @ normals > offsets, 1.0, -1.0)])
        return band, u, dif.diffuse_values(u)

    def test_maximum_principle(self, responses):
        band, u, du = responses
        assert np.all(np.abs(du).max(axis=0) <= (1.0 + band.spec.eps) * np.abs(u).max(axis=0))

    def test_weighted_inner_product_non_negative(self, responses):
        band, u, du = responses
        assert np.all(np.einsum("i,ic,ic->c", band.surface_weights(), u, du) >= 0.0)


def test_callable_surface_matches_sphere(sphere_band, sphere_diffuser):
    # any object with closest, bounding_box and area is a surface: the sphere's
    # closest-point map through one gives the same band, and the diffusion
    # depends only on the band
    sphere = Sphere(1.0)

    class ClosestPointMap:
        closest = staticmethod(sphere.closest)

        def bounding_box(self):
            return sphere.bounding_box()

        def area(self):
            return 4.0 * np.pi

    band = build_band(ClosestPointMap(), sphere_band.spec)
    for name in ("quad_points", "quad_weights", "closest_points"):
        assert np.array_equal(getattr(band, name), getattr(sphere_band, name)), name
    data = np.random.default_rng(13).standard_normal((band.n_q, 3, 3))
    got = SurfaceDiffuser(band, TAU, EPS).diffuse(band.field(data))
    want = sphere_diffuser.diffuse(sphere_band.field(data))
    assert np.array_equal(got.data, want.data)


class TestRevolutionOracle:
    """One heat step against exp(-lam tau) on the two lowest non-constant
    Laplace-Beltrami modes for each m = 0..3 (revolution_oracle)."""

    @staticmethod
    def sphere_profile():
        return (lambda t: np.sin(np.pi * t / 2.0)), (lambda t: np.cos(np.pi * t / 2.0))

    def test_sphere_profile_eigenvalues_are_l_l_plus_1(self):
        # m = 0, 1: l = 1, 2; m = 2: l = 2, 3; m = 3: l = 3, 4
        modes = revolution_modes(*self.sphere_profile(), elements=8000)
        assert [mode.m for mode in modes] == [0, 0, 1, 1, 2, 2, 3, 3]
        want = [l * (l + 1) for l in (1, 2, 1, 2, 2, 3, 3, 4)]
        assert np.allclose([mode.lam for mode in modes], want, rtol=1e-6, atol=0)

    def test_desk_sphere_m3_l4_mode(self, sphere_diffuser):
        # measured 2.64 %
        axial, radial = self.sphere_profile()
        modes = revolution_modes(axial, radial, ms=[3])
        assert mode_errors(sphere_diffuser, modes, axial)[1] <= 0.03

    def test_desk_peanut_worst_mode(self, peanut_desk):
        # measured 6.74 %, at the first m = 2 mode
        _, dif = peanut_desk
        surface = dif.band.surface
        errors = mode_errors(dif, revolution_modes(surface.axial, surface.radial), surface.axial)
        assert errors.max() <= 0.07


class TestFusedHeatStep:
    """The FFT-free step: the heat multiplier folded into the lattice spread."""

    @staticmethod
    def complex_reference(dif, values):
        """type-1 -> damp -> type-2 -> real part, times the quadrature constant,
        averaged over the flips p -> p * s of both point sets for s in (1, 1, 1),
        (-1, 1, 1), (1, -1, 1) and (1, 1, -1).  Per axis, the complex 1D sum is
        C + iS with C even and S odd in the point difference; a flip negates
        that axis's S, so the average keeps C_x C_y C_z, the tensor product of
        the real 1D expansions, and drops the terms with two S factors."""
        v = dif.modes.mode_values() ** 2
        damp = np.exp(-(v[:, None, None] + v[None, :, None] + v[None, None, :])
                      * dif.tau_scaled)
        src = (dif.band.quad_points - dif.center) * dif.scale
        tgt = (dif.band.closest_points - dif.center) * dif.scale
        out = 0.0
        for s in ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)):
            spec = GridderPlan(src * s, dif.modes, dif.eps).type1(
                dif.band.quad_weights[:, None] * values)
            out = out + GridderPlan(tgt * s, dif.modes, dif.eps).type2(
                spec * damp[..., None]).real / 4.0
        return out * dif.band.n_q * (dif.modes.h / (2.0 * np.pi)) ** 3

    def test_apply_matches_complex_reference(self, desk):
        band, dif = desk
        values = np.random.default_rng(3).standard_normal((band.n_q, 9))
        ref = self.complex_reference(dif, values) * dif._kappa
        got = dif.diffuse_values(values)
        assert got.dtype == np.float64
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_kappa_matches_complex_reference(self, desk):
        band, dif = desk
        ref = 1.0 / self.complex_reference(dif, np.ones((band.n_q, 1))).max()
        assert abs(dif._kappa - ref) <= 1e-14 * ref

    def test_kappa_is_the_jacobian_times_a_calibration_near_one(self, desk):
        # the kernel runs in scaled coordinates on physical weights: kappa is
        # scale^3 times a calibration within 1e-5 of 1 (-1.3e-7 on the
        # sphere, -2.9e-7 on the peanut)
        _, dif = desk
        assert abs(dif._kappa / dif.scale**3 - 1.0) <= 1e-5

    def test_axis_multiplier_cut_to_kept_modes(self, desk):
        # mu lives on the half spectrum k = 0..n_over/2 and is cut after k = M,
        # where the +-M pair shares the lone -M mode's weight
        _, dif = desk
        n, m = dif._tgt_plan.n_over, dif.modes.m_half
        assert dif._mu.shape == (n // 2 + 1,) and dif._mu.dtype == np.float64
        assert np.all(dif._mu[:m + 1] > 0.0) and np.all(dif._mu[m + 1:] == 0.0)
        assert all(s.dtype == np.float64 for s in dif._spreader._axes)

    def test_no_fft_one_lattice_spread_and_one_block_set(
            self, sphere_diffuser, sphere_band, monkeypatch):
        calls = {}

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        for module in (scipy.fft, np.fft):
            for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
                count(module, name, f"{module.__name__}.{name}")
        count(GridderPlan, "_blocks", "blocks")
        count(LatticeSpreader, "spread", "lattice")
        field = sphere_band.field(np.broadcast_to(np.eye(3), (sphere_band.n_q, 3, 3)))
        sphere_diffuser.diffuse(field)            # C = 9 columns
        assert calls == {"blocks": 1, "lattice": 1}


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_non_finite_tau_rejected(sphere_band, tau):
    with pytest.raises(ValueError, match="finite"):
        band_width(tau, EPS)
    with pytest.raises(ValueError, match="finite"):
        spectral_grid(tau, EPS)
    with pytest.raises(ValueError, match="finite"):
        SurfaceDiffuser(sphere_band, tau, EPS)

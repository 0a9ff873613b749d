"""Initial-condition generators: orthogonality, regions, determinism."""
import numpy as np
import pytest

from orthoflow.cpm_surface import BandSpec, Sphere, band_width, build_band
from orthoflow.errors import ConfigurationError
from orthoflow.field import GridSpec, field_report
from orthoflow.scenarios import (PATCH_MINUS, PATCH_PLUS, SCENARIO_NAMES, SURFACE_SCENARIOS,
                                 TORUS_SCENARIOS, surface_initial, torus_initial)


@pytest.fixture(scope="module")
def grid():
    return GridSpec((64, 64))


@pytest.fixture(scope="module")
def sphere_band():
    return build_band(Sphere(1.0),
                      BandSpec(dx=0.25, w_b=band_width(0.08, 1e-6), eps=1e-6))


def make(name, grid, band, **kw):
    if name in TORUS_SCENARIOS:
        return torus_initial(name, grid, **kw)
    return surface_initial(name, band)


class TestAllScenarios:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_orthogonal_and_deterministic(self, name, grid, sphere_band):
        band = sphere_band
        f1 = make(name, grid, band)
        f2 = make(name, grid, band)
        assert f1.orthogonality_defect() <= 1e-10
        np.testing.assert_array_equal(f1.data, f2.data)


class TestTorusRegions:
    def test_star_center_is_rotation(self, grid):
        f = make("torus_star_defect", grid, None)
        center = tuple(s // 2 for s in grid.sizes)
        assert np.linalg.det(f.data[center]) == pytest.approx(1.0, abs=1e-12)

    def test_star_region_inequality_exact(self, grid):
        f = make("torus_star_defect", grid, None)
        x, y = grid.meshgrid()
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        inside = r < 0.3 + 0.06 * np.sin(6 * theta)
        np.testing.assert_array_equal(f.dets() > 0, inside)

    def test_winding_axis_row_is_reflection(self, grid):
        f = make("torus_winding", grid, None)
        j0 = grid.sizes[1] // 2          # y = 0 row: alpha = 0
        i_mid = grid.sizes[0] // 2       # x = 0: inside the middle band
        mat = f.data[i_mid, j0]
        np.testing.assert_allclose(mat, np.diag([1.0, -1.0]), atol=1e-14)
        assert np.linalg.det(mat) == pytest.approx(-1.0, abs=1e-14)

    def test_winding_pair_of_initial_field(self):
        g = GridSpec((128, 128))
        f = torus_initial("torus_winding", g)
        assert field_report(f).winding == (0, 1)

    def test_parallel_angle_field(self, grid):
        f = make("torus_parallel_defects", grid, None)
        x, y = grid.meshgrid()
        # first column is (cos a, sin a) on both branches
        alpha = np.pi * np.sin(2 * np.pi * y)
        np.testing.assert_allclose(f.data[..., 0, 0], np.cos(alpha), atol=1e-14)
        np.testing.assert_allclose(f.data[..., 1, 0], np.sin(alpha), atol=1e-14)

    def test_disk_n1(self, grid):
        f = make("torus_disk_n1", grid, None, disk_radius=0.2)
        x, y = grid.meshgrid()
        np.testing.assert_array_equal(f.data[..., 0, 0] > 0, x**2 + y**2 < 0.04)


class TestSurfacePatches:
    def test_patch_determinants_exact(self):
        assert np.linalg.det(PATCH_PLUS) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(PATCH_MINUS) == pytest.approx(-1.0, abs=1e-12)
        for m in (PATCH_PLUS, PATCH_MINUS):
            assert np.abs(m.T @ m - np.eye(3)).max() <= 1e-12

    def test_sphere_two_values_and_octant(self, sphere_band):
        f = make("sphere_two_patches", None, sphere_band)
        pts = sphere_band.closest_points
        plus = (pts[:, 0] < 0) & (pts[:, 1] < 0) & (pts[:, 2] > 0)
        np.testing.assert_array_equal(f.dets() > 0, plus)
        uniq = np.unique(f.data.reshape(len(pts), -1), axis=0)
        assert len(uniq) == 2

    def test_peanut_region(self, sphere_band):
        f = make("peanut_two_patches", None, sphere_band)
        pts = sphere_band.closest_points
        rhs = np.sqrt((pts[:, 1]**2 + pts[:, 2]**2) * (pts[:, 1]**2 + 0.1) / 1.5)
        np.testing.assert_array_equal(f.dets() > 0, pts[:, 0] > rhs)


class TestBuiltinSurface:
    # the surfaces of the scenario table
    def test_sphere(self):
        for name in ("sphere_two_patches", "sphere_volume"):
            s = SURFACE_SCENARIOS[name]()
            assert np.linalg.norm(s.closest(np.array([[0.0, 0.0, 2.0]]))[0]) == \
                pytest.approx(1.0, abs=1e-14)

    def test_peanut_profile(self):
        p = SURFACE_SCENARIOS["peanut_two_patches"]()
        assert p.radial(0.0) == pytest.approx(1.0)
        assert p.axial(1.0) == pytest.approx(2.0)
        assert p.radial(1.0) == pytest.approx(0.0, abs=1e-12)
        assert p.radial(-1.0) == pytest.approx(0.0, abs=1e-12)


class TestValidation:
    def test_unknown_scenario(self, grid, sphere_band):
        with pytest.raises(ConfigurationError):
            torus_initial("torus_moebius", grid)
        with pytest.raises(ConfigurationError):
            surface_initial("sphere_moebius", sphere_band)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -1.0, 0.0])
    def test_disk_radius_positive_and_finite(self, grid, radius):
        with pytest.raises(ConfigurationError, match="disk_radius must be positive and finite"):
            torus_initial("torus_disk_n1", grid, disk_radius=radius)

    def test_torus_scenarios_are_2d(self):
        with pytest.raises(ConfigurationError, match="torus scenarios are 2D"):
            torus_initial("torus_star_defect", GridSpec((8, 8, 8)))

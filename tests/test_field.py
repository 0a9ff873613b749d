"""Field diagnostics (plus volume, winding, interface) and the snapshot format."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoflow.errors import SnapshotFormatError, UnderResolvedError
from orthoflow.field import (EnergyLog, GridSpec, MatrixField, interface_cells,
                             plus_region_stats, plus_volume, read_snapshot,
                             winding_pair, write_snapshot)
from orthoflow.scenarios import reflection_branch, rotation_branch


def torus_grid(size=128):
    return GridSpec((size, size))


def rotation_field(grid, alpha_fn):
    x, y = grid.meshgrid()
    return MatrixField.grid_field(grid, rotation_branch(alpha_fn(x, y)))


def split_field(grid, plus_mask_fn):
    x, y = grid.meshgrid()
    mask = plus_mask_fn(x, y)
    data = np.where(mask[..., None, None], rotation_branch(np.zeros_like(x)),
                    reflection_branch(np.zeros_like(x)))
    return MatrixField.grid_field(grid, data)


class TestGridSpec:
    def test_spacing_exact(self):
        g = GridSpec((256, 256))
        assert g.dx == 1.0 / 256
        assert g.cell_weight == g.dx * g.dx

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            GridSpec((4, 4))

    @pytest.mark.parametrize("extent", [(np.nan, 1.0), (1.0, np.inf), (0.0, 1.0), (1.0, -2.0)])
    def test_non_finite_or_non_positive_extent_rejected(self, extent):
        with pytest.raises(ValueError, match="extents must be finite and positive"):
            GridSpec((8, 8), extent)

    def test_coords_centered(self):
        g = GridSpec((16, 16))
        c = g.axis_coords(0)
        assert c[0] == -0.5 and c[8] == 0.0


class TestPlusVolume:
    def test_constant_rotation_full_measure(self):
        f = rotation_field(torus_grid(64), lambda x, y: np.zeros_like(x))
        assert plus_volume(f) == pytest.approx(1.0, abs=1e-12)

    def test_constant_reflection_zero(self):
        g = torus_grid(64)
        x, _ = g.meshgrid()
        f = MatrixField.grid_field(g, reflection_branch(np.zeros_like(x)))
        assert plus_volume(f) == 0.0

    def test_half_plane(self):
        g = torus_grid(256)
        f = split_field(g, lambda x, y: x < 0)
        assert abs(plus_volume(f) - 0.5) <= g.dx

    def test_partition(self):
        g = torus_grid(128)
        f = split_field(g, lambda x, y: x**2 + y**2 < 0.09)
        d = f.dets().reshape(-1)
        minus = float(np.sum(f.weights[d <= 0]))
        assert plus_volume(f) + minus == pytest.approx(f.total_measure, abs=1e-12)

    def test_non_orthogonal_rejected(self):
        g = torus_grid(64)
        f = MatrixField.grid_field(g, np.full((64, 64, 2, 2), 0.5))
        with pytest.raises(ValueError):
            plus_volume(f)


class TestWinding:
    def test_constant(self):
        f = rotation_field(torus_grid(64), lambda x, y: np.zeros_like(x))
        assert winding_pair(f) == (0, 0)

    def test_winds_once_in_y(self):
        f = rotation_field(torus_grid(64), lambda x, y: 2 * np.pi * y)
        assert winding_pair(f) == (0, 1)

    def test_periodic_sine_has_no_net_winding(self):
        f = rotation_field(torus_grid(64),
                           lambda x, y: (np.pi / 2) * np.sin(2 * np.pi * (x + y)))
        assert winding_pair(f) == (0, 0)

    def test_left_rotation_invariance(self):
        g = torus_grid(64)
        f = rotation_field(g, lambda x, y: 2 * np.pi * y)
        r = rotation_branch(np.array(0.7))
        g2 = MatrixField.grid_field(g, np.einsum("ij,...jk->...ik", r, f.data))
        assert winding_pair(g2) == winding_pair(f)

    def test_under_resolved(self):
        # two turns across 8 samples: step angle pi/2 exactly
        f = rotation_field(torus_grid(8), lambda x, y: 4 * np.pi * y)
        with pytest.raises(UnderResolvedError):
            winding_pair(f)


class TestInterfaceCells:
    def test_constant_empty(self):
        f = rotation_field(torus_grid(64), lambda x, y: np.zeros_like(x))
        assert len(interface_cells(f)) == 0

    def test_half_plane_band_width_one(self):
        g = torus_grid(128)
        f = split_field(g, lambda x, y: x < 0)
        cells = interface_cells(f)
        # two split lines (interior and wrap), one cell column each
        assert len(cells) == 2 * 128
        assert len(np.unique(cells[:, 0])) == 2

    def test_disk_count_tracks_perimeter(self):
        g = torus_grid(256)
        f = split_field(g, lambda x, y: x**2 + y**2 < 0.09)
        target = 2 * np.pi * 0.3 / g.dx
        assert abs(len(interface_cells(f)) - target) <= 0.15 * target

    def test_empty_iff_constant_sign(self):
        g = torus_grid(64)
        f = split_field(g, lambda x, y: x**2 + y**2 < 0.04)
        assert len(interface_cells(f)) > 0


class TestPlusRegionStats:
    def test_disk_ratio_near_one(self):
        # Crofton-count perimeter: digital circles score ~1.0 (oracle-measured
        # 0.99..1.01 over radii/offsets); bracket with margin
        g = torus_grid(256)
        f = split_field(g, lambda x, y: x**2 + y**2 < 0.09)
        stats = plus_region_stats(f)
        assert stats.area == pytest.approx(np.pi * 0.09, rel=0.02)
        assert 0.9 <= stats.isoperimetric_ratio <= 1.1

    def test_full_region_signalled(self):
        f = rotation_field(torus_grid(64), lambda x, y: np.zeros_like(x))
        stats = plus_region_stats(f)
        assert stats.perimeter_estimate == 0.0
        assert stats.isoperimetric_ratio is None

    def test_square_area(self):
        g = torus_grid(256)
        f = split_field(g, lambda x, y: (np.abs(x) < 0.2) & (np.abs(y) < 0.2))
        stats = plus_region_stats(f)
        assert abs(stats.area - 0.16) <= 2 * g.dx


class TestEnergyLog:
    def test_round_trip(self, tmp_path):
        log = EnergyLog()
        log.append(1, 3.5, 0.25, 1.0, 4)
        log.append(2, 3.25, 0.24, 0.5, 0)
        path = tmp_path / "log.csv"
        log.write_csv(path)
        back = EnergyLog.from_csv(path)
        assert back.rows == log.rows
        assert path.read_text().startswith("iter,energy,plus_volume,max_change,sign_flips\n")

    def test_strictly_increasing_iterations(self):
        log = EnergyLog()
        log.append(1, 1.0, 0.5, 1.0, 0)
        with pytest.raises(ValueError):
            log.append(1, 0.5, 0.5, 1.0, 0)


class TestSnapshots:
    def test_grid_round_trip_bit_exact(self, tmp_path):
        g = torus_grid(32)
        f = rotation_field(g, lambda x, y: np.sin(2 * np.pi * (x + 2 * y)))
        path = tmp_path / "f.mbof"
        write_snapshot(f, path)
        back = read_snapshot(path)
        assert back.is_grid and back.grid == f.grid and back.n == 2
        np.testing.assert_array_equal(back.data, f.data)

    def test_cloud_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((17, 3))
        w = rng.uniform(0.5, 1.5, 17)
        data = rng.standard_normal((17, 3, 3))
        f = MatrixField.cloud_field(pts, w, data)
        path = tmp_path / "c.mbof"
        write_snapshot(f, path)
        back = read_snapshot(path)
        np.testing.assert_array_equal(back.points, pts)
        np.testing.assert_array_equal(back.weights, w)
        np.testing.assert_array_equal(back.data, data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mbof"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_truncated(self, tmp_path):
        g = torus_grid(32)
        f = rotation_field(g, lambda x, y: np.zeros_like(x))
        path = tmp_path / "t.mbof"
        write_snapshot(f, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)


def grid_header(n=2, sizes=(8, 8), extent=(1.0, 1.0)):
    d = len(sizes)
    return (b"MBOF" + struct.pack("<IIB", 1, n, 0) + struct.pack("<I", d)
            + struct.pack(f"<{d}Q", *sizes) + struct.pack(f"<{d}d", *extent))


def cloud_bytes(points, weights, data):
    n = data.shape[-1]
    pw = np.concatenate([points, weights[:, None]], axis=1)
    return (b"MBOF" + struct.pack("<IIB", 1, n, 1) + struct.pack("<Q", len(points))
            + pw.astype("<f8").tobytes() + data.astype("<f8").tobytes())


def small_cloud(count=5, n=2):
    rng = np.random.default_rng(7)
    return (rng.standard_normal((count, 3)), rng.uniform(0.5, 1.5, count),
            np.tile(np.eye(n), (count, 1, 1)))


class TestHostileSnapshots:
    def expect_rejected(self, tmp_path, blob, match=None):
        path = tmp_path / "h.mbof"
        path.write_bytes(blob)
        with pytest.raises(SnapshotFormatError, match=match):
            read_snapshot(path)

    def test_huge_grid_header(self, tmp_path):
        self.expect_rejected(tmp_path, grid_header(sizes=(2**31, 2**31)) + b"\0" * 64,
                             match="truncated")

    def test_huge_dimension_and_point_count(self, tmp_path):
        blob = b"MBOF" + struct.pack("<IIB", 1, 2, 0) + struct.pack("<I", 2**32 - 1)
        self.expect_rejected(tmp_path, blob + b"\0" * 64, match="truncated")
        blob = b"MBOF" + struct.pack("<IIB", 1, 2**32 - 1, 1) + struct.pack("<Q", 2**64 - 1)
        self.expect_rejected(tmp_path, blob + b"\0" * 64, match="truncated")

    def test_n_zero(self, tmp_path):
        self.expect_rejected(tmp_path, grid_header(n=0), match="n = 0")
        pts, w, _ = small_cloud()
        self.expect_rejected(tmp_path, cloud_bytes(pts, w, np.zeros((5, 0, 0))),
                             match="n = 0")

    def test_d_zero(self, tmp_path):
        self.expect_rejected(tmp_path, grid_header(sizes=(), extent=()), match="d = 0")

    def test_trailing_bytes(self, tmp_path):
        f = MatrixField.grid_field(torus_grid(8), np.tile(np.eye(2), (8, 8, 1, 1)))
        path = tmp_path / "ok.mbof"
        write_snapshot(f, path)
        self.expect_rejected(tmp_path, path.read_bytes() + b"\0", match="trailing")

    @pytest.mark.parametrize("where", ["point", "weight"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cloud_geometry(self, tmp_path, where, value):
        pts, w, data = small_cloud()
        if where == "point":
            pts[2, 1] = value
        else:
            w[3] = value
        self.expect_rejected(tmp_path, cloud_bytes(pts, w, data), match="non-finite")

    @pytest.mark.parametrize("extent", [(np.nan, 1.0), (1.0, np.inf), (-1.0, 1.0)])
    def test_bad_grid_extent(self, tmp_path, extent):
        blob = grid_header(extent=extent) + np.zeros(64 * 4).tobytes()
        self.expect_rejected(tmp_path, blob, match="extent")

    def test_invalid_contents_become_format_errors(self, tmp_path):
        # a 4 x 4 grid and a non-positive weight fail MatrixField's own checks
        self.expect_rejected(tmp_path, grid_header(sizes=(4, 4)) + np.zeros(16 * 4).tobytes())
        pts, w, data = small_cloud()
        w[0] = 0.0
        self.expect_rejected(tmp_path, cloud_bytes(pts, w, data))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzz_reads_back_or_raises_format_error(self, tmp_path_factory, data):
        pts, w, mats = small_cloud(count=3)
        valid = [grid_header(sizes=(8, 8)) + np.tile(np.eye(2), (64, 1, 1)).tobytes(),
                 cloud_bytes(pts, w, mats)]
        blob = bytearray(data.draw(st.sampled_from(valid)))
        for _ in range(data.draw(st.integers(0, 4))):
            pos = data.draw(st.integers(0, 40))       # inside the headers
            blob[pos:pos + 1] = data.draw(st.binary(min_size=1, max_size=1))
        cut = data.draw(st.integers(0, len(blob) + 1))
        blob = bytes(blob[:cut]) + data.draw(st.binary(max_size=16))
        if data.draw(st.booleans()):
            blob = b"MBOF" + data.draw(st.binary(max_size=96))
        path = tmp_path_factory.mktemp("fuzz") / "f.mbof"
        path.write_bytes(blob)
        try:
            f = read_snapshot(path)
        except SnapshotFormatError:
            return
        assert f.n >= 1 and f.npoints >= 1
        assert np.all(f.weights > 0) and np.all(np.isfinite(f.weights))
        out = path.with_suffix(".out")
        write_snapshot(f, out)
        assert out.read_bytes() == blob


class TestOrthogonalityDefect:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_gram_oracle(self, n):
        rng = np.random.default_rng(n)
        pts = rng.standard_normal((50, 3))
        data = rng.standard_normal((50, n, n))
        f = MatrixField.cloud_field(pts, np.ones(50), data)
        gram = np.einsum("pki,pkj->pij", data, data) - np.eye(n)
        want = np.sqrt(np.sum(gram**2, axis=(1, 2))).max()
        assert f.orthogonality_defect() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_batched_gram_for_larger_n(self, n):
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((20, n, n)))
        data = q + 1e-3 * rng.standard_normal(q.shape)
        f = MatrixField.cloud_field(rng.standard_normal((20, 3)), np.ones(20), data)
        gram = np.swapaxes(data, -1, -2) @ data - np.eye(n)
        want = np.sqrt(np.sum(gram**2, axis=(1, 2))).max()
        assert f.orthogonality_defect() == pytest.approx(want, abs=1e-14)
        data[7, 2, 3] = np.nan
        assert np.isnan(f.orthogonality_defect())

    def test_nan_field_is_not_orthogonal(self):
        g = torus_grid(8)
        data = np.tile(np.eye(2), (8, 8, 1, 1))
        data[3, 4, 0, 1] = np.nan
        with pytest.raises(ValueError, match="not orthogonal"):
            MatrixField.grid_field(g, data).require_orthogonal()

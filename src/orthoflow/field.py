"""Matrix-valued fields over periodic grids and surface point clouds.

A field stores one n x n matrix per sample point.  Grid-backed fields live on
a uniform periodic lattice (flat torus, cell weight dx^d); cloud-backed fields
live on a list of 3D points with per-point surface-measure weights.

Also here: the determinant-sign diagnostics (plus volume, interface cells,
winding indices), the iteration log, and the binary snapshot format.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import SnapshotFormatError, UnderResolvedError
from .matgeom import determinants

__all__ = [
    "GridSpec",
    "MatrixField",
    "EnergyLog",
    "EnergyRow",
    "PlusRegionStats",
    "plus_volume",
    "winding_pair",
    "interface_cells",
    "plus_region_stats",
    "write_snapshot",
    "read_snapshot",
]

ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: sizes per axis, extent per axis, spacing derived.

    Sample points along axis a sit at -extent/2 + i*dx, i = 0..size-1, so the
    default extent (1, 1) is the flat torus [-1/2, 1/2)^2.
    """

    sizes: tuple[int, ...]
    extent: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.extent:
            object.__setattr__(self, "extent", (1.0,) * len(self.sizes))
        if len(self.extent) != len(self.sizes):
            raise ValueError("sizes and extent must have equal length")
        if not all(0 < e < np.inf for e in self.extent):
            raise ValueError("grid extents must be finite and positive")
        if any(s < 8 for s in self.sizes):
            raise ValueError("grid sizes must be >= 8 per axis")

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / s for e, s in zip(self.extent, self.sizes))

    @property
    def dx(self) -> float:
        sp = self.spacing
        if any(abs(s - sp[0]) > 1e-15 for s in sp):
            raise ValueError("dx is only defined for isotropic grids")
        return sp[0]

    @property
    def cell_weight(self) -> float:
        w = 1.0
        for s in self.spacing:
            w *= s
        return w

    def axis_coords(self, axis: int) -> np.ndarray:
        e, s = self.extent[axis], self.sizes[axis]
        return -e / 2 + (e / s) * np.arange(s)

    def meshgrid(self):
        return np.meshgrid(*(self.axis_coords(a) for a in range(self.d)), indexing="ij")


class MatrixField:
    """One n x n matrix per point, grid- or cloud-backed.

    data shape is (*grid.sizes, n, n) for grids and (npoints, n, n) for
    clouds.  Cloud fields carry points (npoints, 3) and weights (npoints,).
    """

    def __init__(self, n, data, grid=None, points=None, weights=None):
        self.n = int(n)
        self.data = np.asarray(data, dtype=float)
        self.grid = grid
        self.points = None if points is None else np.asarray(points, dtype=float)
        self._weights = None if weights is None else np.asarray(weights, dtype=float)
        if self.data.shape[-2:] != (self.n, self.n):
            raise ValueError("data must end in (n, n) axes")
        if grid is not None:
            if self.data.shape[:-2] != grid.sizes:
                raise ValueError("grid data shape does not match grid sizes")
        else:
            if self.points is None or self._weights is None:
                raise ValueError("cloud fields need points and weights")
            if self.data.ndim != 3 or len(self.points) != self.data.shape[0]:
                raise ValueError("cloud data must be (npoints, n, n)")
            if np.any(self._weights <= 0):
                raise ValueError("cloud weights must be positive")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def grid_field(cls, grid: GridSpec, data) -> "MatrixField":
        data = np.asarray(data, dtype=float)
        return cls(n=data.shape[-1], data=data, grid=grid)

    @classmethod
    def cloud_field(cls, points, weights, data) -> "MatrixField":
        data = np.asarray(data, dtype=float)
        return cls(n=data.shape[-1], data=data, points=points, weights=weights)

    # -- basic queries ---------------------------------------------------------

    @property
    def is_grid(self) -> bool:
        return self.grid is not None

    @property
    def npoints(self) -> int:
        return int(np.prod(self.data.shape[:-2]))

    @property
    def weights(self) -> np.ndarray:
        """Per-point integration weights, flattened to (npoints,)."""
        if self.is_grid:
            return np.full(self.npoints, self.grid.cell_weight)
        return self._weights

    @property
    def total_measure(self) -> float:
        if self.is_grid:
            m = 1.0
            for e in self.grid.extent:
                m *= e
            return m
        return float(np.sum(self._weights))

    def flat(self) -> np.ndarray:
        """View of the data as (npoints, n, n)."""
        return self.data.reshape(-1, self.n, self.n)

    def copy_with(self, data) -> "MatrixField":
        return MatrixField(self.n, data, grid=self.grid, points=self.points,
                           weights=self._weights)

    def dets(self) -> np.ndarray:
        return determinants(self.data)

    def orthogonality_defect(self) -> float:
        """max_x || A^t A - I ||_F over the field (nan if any entry is nan).

        Loops over the Gram entries for n <= 3, one batched product for n > 3.
        """
        a = self.flat()
        n = self.n
        if n > 3:
            g = np.swapaxes(a, -1, -2) @ a - np.eye(n)
            return float(np.sqrt(np.einsum("pij,pij->p", g, g).max()))
        sq = np.zeros(self.npoints)
        for i in range(n):
            for j in range(i, n):
                g = a[:, 0, i] * a[:, 0, j]
                for k in range(1, n):
                    g += a[:, k, i] * a[:, k, j]
                if i == j:
                    g -= 1.0
                    sq += g * g
                else:
                    sq += 2.0 * g * g
        return float(np.sqrt(sq.max()))

    def require_orthogonal(self) -> float:
        """Raise ValueError unless defect <= ORTHOGONALITY_TOL; return the defect."""
        defect = self.orthogonality_defect()
        if not defect <= ORTHOGONALITY_TOL:
            raise ValueError(f"field is not orthogonal: defect {defect:.3e} "
                             f"> {ORTHOGONALITY_TOL:g}")
        return defect

    def max_deviation_from_mean(self) -> float:
        mean = self.flat().mean(axis=0)
        return float(np.abs(self.data - mean).max())


# ---------------------------------------------------------------------------
# Determinant-sign diagnostics
#
# Each public function checks that its field is orthogonal and computes the
# determinants; the private cores take determinants already computed from a
# checked field, so a caller that reports several diagnostics does both once.
# ---------------------------------------------------------------------------

def plus_volume(f: MatrixField) -> float:
    """Measure of the region where det A > 0 (weights of plus points)."""
    f.require_orthogonal()
    return _plus_volume(f, f.dets())


def _plus_volume(f: MatrixField, det: np.ndarray) -> float:
    return float(np.sum(f.weights[det.reshape(-1) > 0]))


def winding_pair(f: MatrixField) -> tuple[int, int]:
    """Winding indices of the first column vector along the two center loops.

    i_x follows the grid row y = 0, i_y the column x = 0 (the loops through
    the domain center), accumulating principal-branch angle increments of
    v = (A_00, A_10).  Every single step must turn by less than pi/2,
    otherwise the field is declared under-resolved.
    """
    if not f.is_grid or f.grid.d != 2 or f.n != 2:
        raise ValueError("winding_pair needs a 2x2 field on a 2D grid")
    f.require_orthogonal()
    return _winding_pair(f)


def _winding_pair(f: MatrixField) -> tuple[int, int]:
    center = tuple(s // 2 for s in f.grid.sizes)
    out = []
    for axis in range(2):
        if axis == 0:
            v = f.data[:, center[1], :, 0]
        else:
            v = f.data[center[0], :, :, 0]
        theta = np.arctan2(v[:, 1], v[:, 0])
        d = np.diff(np.concatenate([theta, theta[:1]]))
        d = (d + np.pi) % (2.0 * np.pi) - np.pi
        step = float(np.abs(d).max())
        if step >= np.pi / 2:
            raise UnderResolvedError(
                f"angle step {step:.3f} >= pi/2 along axis {axis}")
        out.append(int(round(d.sum() / (2.0 * np.pi))))
    return out[0], out[1]


def _sign_changes(det: np.ndarray):
    """Boolean masks of +axis sign changes (periodic wrap), one per axis."""
    s = det > 0
    return [s != np.roll(s, -1, axis=a) for a in range(det.ndim)]


def interface_cells(f: MatrixField) -> np.ndarray:
    """Grid cells where det changes sign across any +axis neighbor.

    Returns an (ncells, d) integer array of cell indices.  Empty iff the
    determinant has constant sign.
    """
    if not f.is_grid:
        raise ValueError("interface_cells needs a grid field")
    f.require_orthogonal()
    return _interface_cells(f.dets())


def _interface_cells(det: np.ndarray) -> np.ndarray:
    changed = np.zeros(det.shape, dtype=bool)
    for mask in _sign_changes(det):
        changed |= mask
    return np.argwhere(changed)


@dataclass(frozen=True)
class PlusRegionStats:
    area: float
    perimeter_estimate: float
    isoperimetric_ratio: float | None  # None when area or perimeter vanish


def plus_region_stats(f: MatrixField) -> PlusRegionStats:
    """Area, perimeter estimate, and isoperimetric ratio of the plus region.

    The perimeter uses the Cauchy-Crofton line-intercept count
    (pi/4) (N_0 h_1 + N_1 h_0), where N_a counts the +axis sign-change
    crossings along axis a and each crossing is weighted by the spacing h of
    the other axis.  First-order, no sub-cell reconstruction; calibrated so
    digital circles score ratio ~= 1.
    An empty or full plus region has no interface and the ratio is signalled
    as None.
    """
    if not f.is_grid or f.grid.d != 2:
        raise ValueError("plus_region_stats needs a 2D grid field")
    f.require_orthogonal()
    return _plus_region_stats(f, f.dets())


def _plus_region_stats(f: MatrixField, det: np.ndarray) -> PlusRegionStats:
    area = _plus_volume(f, det)
    n0, n1 = (int(np.count_nonzero(m)) for m in _sign_changes(det))
    h0, h1 = f.grid.spacing
    perimeter = (np.pi / 4.0) * (n0 * h1 + n1 * h0)
    if area <= 0.0 or perimeter <= 0.0:
        return PlusRegionStats(area, perimeter, None)
    ratio = perimeter**2 / (4.0 * np.pi * area)
    return PlusRegionStats(area, perimeter, float(ratio))


# ---------------------------------------------------------------------------
# Energy log
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyRow:
    iteration: int
    energy: float
    plus_volume: float
    max_change: float
    sign_flips: int


@dataclass
class EnergyLog:
    rows: list = dataclass_field(default_factory=list)

    CSV_HEADER = "iter,energy,plus_volume,max_change,sign_flips"

    def append(self, iteration, energy, plus_vol, max_change, sign_flips):
        if self.rows and iteration <= self.rows[-1].iteration:
            raise ValueError("iteration indices must be strictly increasing")
        self.rows.append(EnergyRow(iteration, energy, plus_vol, max_change, sign_flips))

    def energies(self) -> np.ndarray:
        return np.array([r.energy for r in self.rows])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(self.CSV_HEADER + "\n")
        w = csv.writer(buf, lineterminator="\n")
        for r in self.rows:
            w.writerow([r.iteration, repr(r.energy), repr(r.plus_volume),
                        repr(r.max_change), r.sign_flips])
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, path) -> "EnergyLog":
        log = cls()
        with open(path) as fh:
            header = fh.readline().strip()
            if header != cls.CSV_HEADER:
                raise ValueError(f"unexpected energy log header: {header!r}")
            for row in csv.reader(fh):
                if not row:
                    continue
                log.append(int(row[0]), float(row[1]), float(row[2]),
                           float(row[3]), int(row[4]))
        return log


# ---------------------------------------------------------------------------
# Snapshot format (MBOF)
# ---------------------------------------------------------------------------
#
# magic "MBOF", u32 version=1, u32 n, u8 flavor (0 grid / 1 cloud)
# grid:  u32 d, d x u64 sizes, d x f64 extents
# cloud: u64 npoints, then per point 3 x f64 position + f64 weight
# then per point n^2 f64 matrix entries, row-major, little-endian throughout.

_MAGIC = b"MBOF"
_VERSION = 1


def write_snapshot(f: MatrixField, path):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIB", _VERSION, f.n, 0 if f.is_grid else 1))
        if f.is_grid:
            g = f.grid
            fh.write(struct.pack("<I", g.d))
            fh.write(struct.pack(f"<{g.d}Q", *g.sizes))
            fh.write(struct.pack(f"<{g.d}d", *g.extent))
        else:
            fh.write(struct.pack("<Q", f.npoints))
            pw = np.concatenate([f.points, f._weights[:, None]], axis=1)
            fh.write(pw.astype("<f8").tobytes())
        fh.write(f.flat().astype("<f8").tobytes())


def _read_exact(fh, count, what, size):
    """Read count bytes, refusing any count beyond the file's remaining bytes."""
    if count > size - fh.tell():
        raise SnapshotFormatError(f"truncated snapshot while reading {what}")
    return fh.read(count)


def read_snapshot(path) -> MatrixField:
    """Read an MBOF file; every malformation raises SnapshotFormatError.

    Each header size is checked against the bytes left in the file before
    anything is read, so a hostile header cannot trigger a huge allocation.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            return _parse_snapshot(fh, size)
        except SnapshotFormatError:
            raise
        except ValueError as exc:          # GridSpec / MatrixField validation
            raise SnapshotFormatError(f"invalid snapshot contents: {exc}") from exc


def _parse_snapshot(fh, size) -> MatrixField:
    def take(count, what):
        return _read_exact(fh, count, what, size)

    def rest_is_empty():
        if fh.tell() != size:
            raise SnapshotFormatError(f"{size - fh.tell()} trailing bytes after the data")

    if take(4, "magic") != _MAGIC:
        raise SnapshotFormatError("bad magic bytes (not an MBOF snapshot)")
    version, n, flavor = struct.unpack("<IIB", take(9, "header"))
    if version != _VERSION:
        raise SnapshotFormatError(f"unsupported snapshot version {version}")
    if n == 0:
        raise SnapshotFormatError("matrix size n = 0")
    if flavor == 0:
        (d,) = struct.unpack("<I", take(4, "dimension"))
        if d == 0:
            raise SnapshotFormatError("grid dimension d = 0")
        sizes = struct.unpack(f"<{d}Q", take(8 * d, "sizes"))
        extent = struct.unpack(f"<{d}d", take(8 * d, "extents"))
        npts = math.prod(sizes)
        data = np.frombuffer(take(npts * n * n * 8, "matrix data"), dtype="<f8")
        rest_is_empty()
        return MatrixField.grid_field(GridSpec(sizes=sizes, extent=extent),
                                      data.reshape(*sizes, n, n).copy())
    if flavor == 1:
        (npts,) = struct.unpack("<Q", take(8, "point count"))
        if npts == 0:
            raise SnapshotFormatError("cloud with no points")
        pw = np.frombuffer(take(npts * 4 * 8, "points"), dtype="<f8").reshape(npts, 4)
        if not np.all(np.isfinite(pw)):
            raise SnapshotFormatError("non-finite cloud points or weights")
        data = np.frombuffer(take(npts * n * n * 8, "matrix data"), dtype="<f8")
        rest_is_empty()
        return MatrixField.cloud_field(
            pw[:, :3].copy(), pw[:, 3].copy(), data.reshape(npts, n, n).copy())
    raise SnapshotFormatError(f"unknown flavor byte {flavor}")

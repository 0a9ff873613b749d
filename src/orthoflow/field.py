"""Matrix-valued fields over periodic grids and surface point clouds.

A field stores one n x n matrix per sample point.  Grid-backed fields live on
a uniform periodic lattice (flat torus, cell weight dx^d); cloud-backed fields
live on a list of 3D points with per-point surface-measure weights.

Also here: the determinant-sign diagnostics (plus_volume alone, or every one
from a single check and determinant pass in field_report: plus volume,
interface cells, perimeter, isoperimetric ratio, winding pair), the iteration
log, and the binary snapshot format.
"""

from __future__ import annotations

import copy
import csv
import io
import math
import os
import struct
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import SnapshotFormatError
from .matgeom import determinants

__all__ = [
    "GridSpec",
    "MatrixField",
    "EnergyLog",
    "EnergyRow",
    "FieldReport",
    "field_report",
    "plus_volume",
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
        if not self.sizes:
            raise ValueError("grid dimension d = 0: a grid needs at least one axis")
        if not self.extent:
            object.__setattr__(self, "extent", (1.0,) * len(self.sizes))
        if len(self.extent) != len(self.sizes):
            raise ValueError("sizes and extent must have equal length")
        if not all(0 < e < np.inf for e in self.extent):
            raise ValueError("grid extents must be finite and positive")
        if any(s < 8 for s in self.sizes):
            raise ValueError("grid sizes must be >= 8 per axis")
        if not 0 < self.cell_weight < np.inf:
            raise ValueError(f"grid cell weight {self.cell_weight!r} must be finite and positive")

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
        return math.prod(self.spacing)

    def axis_coords(self, axis: int) -> np.ndarray:
        e, s = self.extent[axis], self.sizes[axis]
        return -e / 2 + (e / s) * np.arange(s)

    def meshgrid(self):
        return np.meshgrid(*(self.axis_coords(a) for a in range(self.d)), indexing="ij")


class MatrixField:
    """One n x n matrix per point, grid- or cloud-backed, n = data.shape[-1].

    data shape is (*grid.sizes, n, n) for grids and (npoints, n, n) for
    clouds.  weights is the one per-point integration weight array,
    (npoints,): a read-only broadcast of the cell weight on a grid, the given
    positive finite weights of a cloud, whose points are finite (npoints, 3).
    The layout (n >= 1, npoints >= 1) is checked once here; copy_with reuses it.
    """

    def __init__(self, data, grid=None, points=None, weights=None):
        self.data = np.asarray(data, dtype=float)
        self.n = self.data.shape[-1] if self.data.ndim >= 2 else 0
        self.grid = grid
        if self.n == 0 or self.data.shape[-2:] != (self.n, self.n):
            raise ValueError("data must end in (n, n) axes with n >= 1")
        lead = self.data.shape[:-2]
        if grid is not None:
            if lead != grid.sizes:
                raise ValueError("grid data shape does not match grid sizes")
            self.points = None
            self.weights = np.broadcast_to(np.float64(grid.cell_weight), (self.npoints,))
            return
        if points is None or weights is None:
            raise ValueError("cloud fields need points and weights")
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if (len(lead) != 1 or lead == (0,) or self.points.shape != lead + (3,)
                or self.weights.shape != lead):
            raise ValueError("cloud data must be (npoints, n, n) with (npoints, 3) "
                             "points and (npoints,) weights, npoints >= 1")
        if not (np.isfinite(self.points).all() and np.isfinite(self.weights).all()):
            raise ValueError("non-finite cloud points or weights")
        if np.any(self.weights <= 0):
            raise ValueError("cloud weights must be positive")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def grid_field(cls, grid: GridSpec, data) -> "MatrixField":
        return cls(data, grid=grid)

    @classmethod
    def cloud_field(cls, points, weights, data) -> "MatrixField":
        return cls(data, points=points, weights=weights)

    # -- basic queries ---------------------------------------------------------

    @property
    def is_grid(self) -> bool:
        return self.grid is not None

    @property
    def npoints(self) -> int:
        return int(np.prod(self.data.shape[:-2]))

    @property
    def total_measure(self) -> float:
        """Sum of the weights: the measure select_threshold's target lies in."""
        return float(np.sum(self.weights))

    def flat(self) -> np.ndarray:
        """View of the data as (npoints, n, n)."""
        return self.data.reshape(-1, self.n, self.n)

    def copy_with(self, data) -> "MatrixField":
        """The same layout (grid or points and weights) with new data of the same shape."""
        data = np.asarray(data, dtype=float)
        if data.shape != self.data.shape:
            raise ValueError(f"copy_with data shape {data.shape} != {self.data.shape}")
        new = copy.copy(self)
        new.data = data
        return new

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
# ---------------------------------------------------------------------------

def plus_volume(f: MatrixField) -> float:
    """Measure of the region where det A > 0 (weights of plus points)."""
    f.require_orthogonal()
    return float(np.sum(f.weights[f.dets().reshape(-1) > 0]))


@dataclass(frozen=True)
class FieldReport:
    """Every determinant-sign diagnostic of one checked field.

    interface_cells, perimeter and isoperimetric_ratio are None off 2-D
    grids; winding is None off 2-D grids with n = 2.
    """

    defect: float
    det_min: float
    det_max: float
    plus_volume: float
    total_measure: float
    interface_cells: np.ndarray | None = None   # (ncells, 2) cell indices
    perimeter: float | None = None
    isoperimetric_ratio: float | None = None    # also None when area or perimeter vanish
    winding: tuple[int, int] | str | None = None   # the pair, or why it is under-resolved


def field_report(f: MatrixField) -> FieldReport:
    """Check f once (ValueError unless orthogonal), take its determinants once,
    and report every diagnostic.

    On a 2-D grid the interface cells are the cells whose det changes sign
    across a +axis neighbor (periodic wrap); the list is empty iff det has one
    sign.  The perimeter is the Cauchy-Crofton line-intercept count
    (pi/4) (N_0 h_1 + N_1 h_0), where N_a counts the sign changes along axis a
    and each is weighted by the spacing h of the other axis: first-order, no
    sub-cell reconstruction, calibrated so digital circles score ratio ~= 1.

    With n = 2 the winding pair (i_x, i_y) follows the first column
    v = (A_00, A_10) along the grid row y = 0 and the column x = 0 (the loops
    through the domain center), accumulating principal-branch angle
    increments.  A step of pi/2 or more leaves the loop under-resolved, and
    winding then holds the reason instead of the pair.
    """
    defect = f.require_orthogonal()
    det = f.dets()
    plus = float(np.sum(f.weights[det.reshape(-1) > 0]))
    common = dict(defect=defect, det_min=float(det.min()), det_max=float(det.max()),
                  plus_volume=plus, total_measure=f.total_measure)
    if not f.is_grid or f.grid.d != 2:
        return FieldReport(**common)
    s = det > 0
    changes = [s != np.roll(s, -1, axis=a) for a in range(2)]
    n0, n1 = (int(np.count_nonzero(m)) for m in changes)
    h0, h1 = f.grid.spacing
    perimeter = (np.pi / 4.0) * (n0 * h1 + n1 * h0)
    ratio = (None if plus <= 0.0 or perimeter <= 0.0
             else float(perimeter**2 / (4.0 * np.pi * plus)))
    winding = None
    if f.n == 2:
        c0, c1 = (size // 2 for size in f.grid.sizes)
        pair = []
        for axis, v in enumerate((f.data[:, c1, :, 0], f.data[c0, :, :, 0])):
            theta = np.arctan2(v[:, 1], v[:, 0])
            d = np.diff(theta, append=theta[:1])
            d = (d + np.pi) % (2.0 * np.pi) - np.pi
            step = float(np.abs(d).max())
            if step >= np.pi / 2:
                winding = f"angle step {step:.3f} >= pi/2 along axis {axis}"
                break
            pair.append(int(round(d.sum() / (2.0 * np.pi))))
        else:
            winding = (pair[0], pair[1])
    return FieldReport(**common, interface_cells=np.argwhere(changes[0] | changes[1]),
                       perimeter=perimeter, isoperimetric_ratio=ratio, winding=winding)


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
            pw = np.concatenate([f.points, f.weights[:, None]], axis=1)
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
        data = np.frombuffer(take(npts * n * n * 8, "matrix data"), dtype="<f8")
        rest_is_empty()
        return MatrixField.cloud_field(
            pw[:, :3].copy(), pw[:, 3].copy(), data.reshape(npts, n, n).copy())
    raise SnapshotFormatError(f"unknown flavor byte {flavor}")

"""Seeded inputs and the set-up / solve / output stages of each workload.

Everything goes through orthoflow's public API: GridSpec, MatrixField,
TorusDiffuser, build_band, SurfaceDiffuser, MboConfig, mbo_run,
write_snapshot and read_snapshot.  Library names are looked up on their
modules at call time, so a traced run sees every call the benchmark makes.

Each purpose draws from its own random stream, np.random.default_rng([seed,
purpose]), so adding a draw to one never shifts another.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from orthoflow import cpm_surface, field, mbo, nufft, torus_heat

FIELD_STREAM, PROBE_STREAM, NUFFT_STREAM = 0, 1, 2

STOP_TOL = 1e-8
SURFACE_EPS = 1e-6
TORUS_SIZE = 128
TORUS_MAX_ITERS = 500
ISLANDS = 5
ISLAND_R0 = (0.08, 0.12)        # base radius range
ISLAND_ARM = (0.1, 0.25)        # arm amplitude as a share of the base radius
ISLAND_GAP = 0.04               # clearance between the outermost arm tips
ISLAND_R_MAX = ISLAND_R0[1] * (1.0 + ISLAND_ARM[1])
PLANE_OFFSET = 0.3              # |offset| of the two-patch plane from the origin
NUFFT_CHECK_POINTS = 256


def cpu_clock() -> float:
    """CPU seconds of this process, the clock of every benchmark time.

    On a shared virtual machine the hypervisor steals CPU in bursts that
    stretch wall time by up to 2x; process CPU time leaves those out.  The
    solver is single-threaded, so on an idle machine the two agree.
    """
    return time.process_time()


class StepClock:
    """Pass-through diffusion backend that timestamps every diffuse call.

    mbo_run calls backend.diffuse exactly once per iteration, so the gaps
    between consecutive starts are the per-step times.
    """

    def __init__(self, backend):
        self.backend = backend
        self.starts: list[float] = []

    @property
    def tau(self) -> float:
        return self.backend.tau

    def diffuse(self, f):
        self.starts.append(cpu_clock())
        return self.backend.diffuse(f)


@dataclass
class State:
    """What set-up hands to the solve: the initial field and the run config."""

    initial: object
    cfg: object
    diffuser: object
    band: object = None


@dataclass
class Solve:
    result: object
    seconds: float                  # CPU
    wall_seconds: float
    steps: np.ndarray               # CPU seconds per iteration


def random_rotation(rng, det_sign: float = 1.0) -> np.ndarray:
    """Haar-random 3x3 orthogonal matrix with the given determinant sign."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.sign(np.linalg.det(q)) != det_sign:
        q[:, 2] = -q[:, 2]
    return q


# ---------------------------------------------------------------------------
# Torus workloads
# ---------------------------------------------------------------------------

def _periodic(d):
    return d - np.round(d)


def place_islands(rng) -> list[tuple]:
    """ISLANDS star islands (cx, cy, r0, arm, k, phase), disjoint on the torus.

    Every island lies within ISLAND_R_MAX < 1/2 of its centre, and any two
    centres are at least 2 ISLAND_R_MAX + ISLAND_GAP apart in the periodic
    metric, so no island touches another or wraps around the torus.
    """
    min_sep = 2.0 * ISLAND_R_MAX + ISLAND_GAP
    islands = []
    for _ in range(10_000):
        cx, cy = rng.uniform(-0.5, 0.5, 2)
        if all(np.hypot(_periodic(cx - i[0]), _periodic(cy - i[1])) >= min_sep
               for i in islands):
            r0 = rng.uniform(*ISLAND_R0)
            arm = rng.uniform(*ISLAND_ARM) * r0
            islands.append((cx, cy, r0, arm, int(rng.integers(3, 7)),
                            rng.uniform(0.0, 2.0 * np.pi)))
            if len(islands) == ISLANDS:
                return islands
    raise RuntimeError("could not place the islands")


def torus_field(seed: int, size: int = TORUS_SIZE):
    """Seeded O(2) field: rotation islands in a reflection background.

    A shared smooth periodic angle field alpha sets both branches.  It always
    holds both |k| = 1 modes, whose decay sets the iterations to converge,
    plus one random higher mode.
    """
    rng = np.random.default_rng([seed, FIELD_STREAM])
    grid = field.GridSpec((size, size))
    x, y = grid.meshgrid()
    higher = [(1, 1), (1, -1), (2, 1), (1, 2)][rng.integers(4)]
    alpha = np.zeros_like(x)
    for (kx, ky), amp in zip([(1, 0), (0, 1), higher], [(0.3, 0.45), (0.3, 0.45), (0.1, 0.3)]):
        alpha += rng.uniform(*amp) * np.sin(2.0 * np.pi * (kx * x + ky * y)
                                            + rng.uniform(0.0, 2.0 * np.pi))
    inside = np.zeros(x.shape, dtype=bool)
    for cx, cy, r0, arm, k, phase in place_islands(rng):
        dx, dy = _periodic(x - cx), _periodic(y - cy)
        inside |= np.hypot(dx, dy) < r0 + arm * np.sin(k * np.arctan2(dy, dx) + phase)
    c, s = np.cos(alpha), np.sin(alpha)
    rotation = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    reflection = np.stack([np.stack([c, s], -1), np.stack([s, -c], -1)], -2)
    data = np.where(inside[..., None, None], rotation, reflection)
    return field.MatrixField.grid_field(grid, data)


@dataclass(frozen=True)
class TorusWorkload:
    name: str
    why: str
    volume: bool
    snapshot_every: int
    converges = True

    def inputs(self, seed: int):
        return torus_field(seed)

    def setup(self, initial) -> State:
        grid = initial.grid
        diffuser = torus_heat.TorusDiffuser(grid, 2.0 * grid.dx)
        target = field.plus_volume(initial) if self.volume else None
        cfg = mbo.MboConfig(backend=StepClock(diffuser), max_iters=TORUS_MAX_ITERS,
                            stop_tol=STOP_TOL, volume_target=target,
                            snapshot_every=self.snapshot_every)
        return State(initial, cfg, diffuser)


# ---------------------------------------------------------------------------
# Surface workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceInputs:
    normal: np.ndarray
    offset: float
    plus: np.ndarray                # SO(3)
    minus: np.ndarray               # SO-(3)


def surface_inputs(seed: int) -> SurfaceInputs:
    """Seeded plane split and SO/SO- pair for a two-patch O(3) field."""
    rng = np.random.default_rng([seed, FIELD_STREAM])
    normal = rng.standard_normal(3)
    normal /= np.linalg.norm(normal)
    offset = rng.uniform(-PLANE_OFFSET, PLANE_OFFSET)
    return SurfaceInputs(normal, float(offset), random_rotation(rng, 1.0),
                         random_rotation(rng, -1.0))


def two_patch_field(band, inputs: SurfaceInputs):
    """The plane split of the band's closest points, one matrix per side.

    Both built-in surfaces keep every surface point at least 0.9 from the
    origin, so a plane at distance <= PLANE_OFFSET cuts each into two
    non-empty patches.
    """
    pts = band.closest_points
    plus = pts @ inputs.normal > inputs.offset
    data = np.where(plus[:, None, None], inputs.plus, inputs.minus)
    return field.MatrixField.cloud_field(pts, band.surface_weights(), data)


def desk_band(surface_name: str, dx: float, tau: float):
    surface = (cpm_surface.Sphere(1.0) if surface_name == "sphere"
               else cpm_surface.peanut_surface())
    spec = cpm_surface.BandSpec(dx=dx, w_b=cpm_surface.band_width(tau, SURFACE_EPS),
                                p=1, eps=SURFACE_EPS)
    return cpm_surface.build_band(surface, spec)


@dataclass(frozen=True)
class SurfaceWorkload:
    name: str
    why: str
    surface: str
    dx: float
    tau: float
    steps: int
    volume: bool
    converges = False

    def inputs(self, seed: int):
        return surface_inputs(seed)

    def setup(self, inputs: SurfaceInputs) -> State:
        band = desk_band(self.surface, self.dx, self.tau)
        diffuser = cpm_surface.SurfaceDiffuser(band, self.tau, SURFACE_EPS)
        initial = two_patch_field(band, inputs)
        target = field.plus_volume(initial) if self.volume else None
        cfg = mbo.MboConfig(backend=StepClock(diffuser), max_iters=self.steps,
                            stop_tol=STOP_TOL, volume_target=target)
        return State(initial, cfg, diffuser, band)


WORKLOADS = {w.name: w for w in (
    TorusWorkload(
        "torus-coarsen",
        "128^2 O(2) islands, plain MBO to convergence: no NUFFT, the step is "
        "mostly the batched SVD projection and the orthogonality checks",
        volume=False, snapshot_every=0),
    TorusWorkload(
        "torus-volume",
        "same generator, volume-preserving to convergence: both SO/SO- branches, "
        "the threshold argsort and a snapshot every 10 steps",
        volume=True, snapshot_every=10),
    SurfaceWorkload(
        "sphere-volume-o3",
        "desk sphere band, volume-preserving O(3), 2 steps: NUFFT spreading is "
        "over 95% of a step; analytic closest points; accuracy oracle",
        surface="sphere", dx=0.2, tau=0.05, steps=2, volume=True),
    SurfaceWorkload(
        "peanut-o3",
        "desk peanut band, plain O(3), 2 steps: the only heavy band build "
        "(numerical closest points) and the plain n = 3 projection",
        surface="peanut", dx=0.3, tau=0.1, steps=2, volume=False),
)}

SPHERE_ORACLE = WORKLOADS["sphere-volume-o3"]


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def solve(state: State) -> Solve:
    clock = state.cfg.backend
    clock.starts.clear()
    w0, t0 = time.perf_counter(), cpu_clock()
    result = mbo.mbo_run(state.initial, state.cfg)
    t1, w1 = cpu_clock(), time.perf_counter()
    steps = np.diff(np.array(clock.starts + [t1]))
    return Solve(result, t1 - t0, w1 - w0, steps)


def write_outputs(result, out_dir: Path):
    """What `orthoflow run` writes and `orthoflow check` reads back."""
    result.log.write_csv(out_dir / "energy_log.csv")
    for iteration, snap in result.snapshots:
        field.write_snapshot(snap, out_dir / f"snapshot_{iteration:06d}.mbof")
    final_path = out_dir / "final.mbof"
    field.write_snapshot(result.final, final_path)
    back = field.read_snapshot(final_path)
    back.require_orthogonal()
    return back


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def surface_rel_err(seed: int, diffuser=None) -> float:
    """Max relative error of the heat step on sphere harmonics.

    Diffuses the l = 1 harmonics x, y, z and the l = 2 harmonics xy, yz, in
    a seeded rotated frame, on the desk sphere band, and compares each with
    its exact decay exp(-l(l+1) tau) in the sup norm.
    """
    if diffuser is None:
        o = SPHERE_ORACLE
        band = desk_band(o.surface, o.dx, o.tau)
        diffuser = cpm_surface.SurfaceDiffuser(band, o.tau, SURFACE_EPS)
    rotation = random_rotation(np.random.default_rng([seed, PROBE_STREAM]))
    x, y, z = (diffuser.band.closest_points @ rotation.T).T
    harmonics = np.stack([x, y, z, x * y, y * z], axis=1)
    degree = np.array([1, 1, 1, 2, 2])
    exact = harmonics * np.exp(-degree * (degree + 1) * diffuser.tau)
    got = diffuser.diffuse_values(harmonics)
    return float((np.abs(got - exact).max(axis=0) / np.abs(exact).max(axis=0)).max())


def nufft_errors(seed: int, diffuser) -> tuple[float, float]:
    """Type-1 and type-2 errors against direct sums on a seeded point subset.

    Uses the diffuser's own scaled source points, mode lattice and tolerance;
    the subset is small enough for the direct sums' size guard.
    """
    rng = np.random.default_rng([seed, NUFFT_STREAM])
    modes = diffuser.modes
    count = min(NUFFT_CHECK_POINTS, nufft.DIRECT_GUARD // modes.n_modes**3)
    band = diffuser.band
    idx = rng.choice(band.n_q, count, replace=False)
    pts = (band.quad_points[idx] - diffuser.center) * diffuser.scale
    coeffs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    ref1 = nufft.direct_type1(pts, coeffs, modes)
    got1 = nufft.nufft_type1(pts, coeffs, modes, diffuser.eps)
    shape = (modes.n_modes,) * 3
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref2 = nufft.direct_type2(spec, pts, modes)
    got2 = nufft.nufft_type2(spec, pts, modes, diffuser.eps)
    err1 = float(np.abs(got1 - ref1).max() / np.abs(ref1).max())
    err2 = float(np.abs(got2 - ref2).max() / np.abs(ref2).max())
    return err1, err2

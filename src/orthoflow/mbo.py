"""The generalized MBO iteration and its volume-constrained variant.

One step, mbo_step, diffuses the field for time tau and sends every point to
T+ or T-, the nearest elements of SO(n) and SO-(n) to the diffused A~(x):
T+ where det A~ >= 0 (plain variant), or where the reassignment gain

    g(x) = < T+(A~(x)) - T-(A~(x)), A~(x) >_F = 2 sigma_min sign(det A~)

clears a threshold that gives the plus region a prescribed measure V
(volume-preserving variant).  The step runs matgeom's factor pass on A~,
chooses the mask from det or the gain, and assembles only the chosen
projection per point.  select_threshold sorts only the candidates for the
prefix, O(N + K log K), and falls back to the full sort when they do not
suffice.  The iteration monitor is the interpolated
Dirichlet energy

    E_tau(A) = (1/tau) sum_i w_i ( n - <A_i, (e^{tau L} A)_i>_F ),

computed with the same diffusion backend as the step; it is non-increasing
along both iterations, which the run loop records and the tests assert.  On
surfaces that monotonicity is measured, not proven: the closest-point heat
step maps quadrature points to closest points and is not symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Protocol

import numpy as np

from .errors import NumericalHealthError
from .field import EnergyLog, MatrixField
from .matgeom import projection_factors

__all__ = [
    "Diffuser",
    "MboConfig",
    "StepStats",
    "ThresholdResult",
    "RunResult",
    "lyapunov_energy",
    "mbo_step",
    "select_threshold",
    "mbo_run",
]


class Diffuser(Protocol):
    """A heat step of fixed length tau: TorusDiffuser, SurfaceDiffuser, or
    anything else with the same two members.

    The step and the Lyapunov energy both use it, so the energy a run logs is
    measured with the diffusion that moved the field.
    """

    @property
    def tau(self) -> float: ...

    def diffuse(self, f: MatrixField) -> MatrixField: ...


@dataclass
class MboConfig:
    """Stopping rules and optional volume constraint for a run."""

    backend: Diffuser
    max_iters: int = 10_000
    stop_tol: float = 1e-8
    volume_target: float | None = None
    snapshot_every: int = 0

    def __post_init__(self):
        if not 0 <= self.stop_tol < np.inf:
            raise ValueError("stop_tol must be finite and >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0 (0 writes no snapshots)")

    @property
    def tau(self) -> float:
        return self.backend.tau


@dataclass(frozen=True)
class StepStats:
    energy: float            # Lyapunov energy of the field entering the step
    max_change: float
    sign_flips: int
    singular_count: int
    max_frobenius: float     # of the diffused field, for the maximum principle
    max_abs_det: float
    # flattened SO(n) mask of the new field: the plus region, and the "old"
    # signs the next step compares against
    plus: np.ndarray = dataclass_field(repr=False, compare=False)


@dataclass(frozen=True)
class ThresholdResult:
    lam: float
    plus_indices: np.ndarray


@dataclass
class RunResult:
    final: MatrixField
    log: EnergyLog
    snapshots: list
    converged: bool
    iterations: int
    max_frobenius: float
    max_abs_det: float
    singular_total: int


def _energy(f: MatrixField, diffused: MatrixField, tau: float) -> float:
    inner = np.einsum("...ij,...ij->...", f.data, diffused.data).reshape(-1)
    return float(np.sum(f.weights * (f.n - inner)) / tau)


def lyapunov_energy(f: MatrixField, diffuser: Diffuser) -> float:
    """Interpolated Dirichlet energy of an orthogonal field.

    Zero for constant fields; non-negative up to roundoff; non-increasing
    along MBO iterations run with the same diffuser.
    """
    f.require_orthogonal()
    return _energy(f, diffuser.diffuse(f), diffuser.tau)


def _max_frobenius(data: np.ndarray) -> float:
    """Largest pointwise Frobenius norm of a (..., n, n) array."""
    flat = data.reshape(-1, data.shape[-1] * data.shape[-2])
    return float(np.sqrt(np.einsum("ij,ij->i", flat, flat).max()))


def mbo_step(f: MatrixField, cfg: MboConfig, plus: np.ndarray | None = None):
    """Diffuse, then send every point to T+ (SO(n)) or T- (SO-(n)).

    A point takes T+ where det A~ >= 0 when cfg.volume_target is None, and
    otherwise where select_threshold puts it in the prefix of largest gain.
    One projection_factors pass gives det and the gain; one assembly then
    writes the chosen T+ or T- of every point.

    plus is f's flattened SO(n) mask when the caller has it from the step
    that made (and checked) f, as mbo_run does; without it f is checked
    here and its mask is read off its determinants.
    """
    if plus is None:
        f.require_orthogonal()
        plus = f.dets().reshape(-1) > 0
    diffused = cfg.backend.diffuse(f)
    frob = _max_frobenius(diffused.data)
    if not np.isfinite(frob):
        raise NumericalHealthError("non-finite diffusion result")
    energy = _energy(f, diffused, cfg.tau)
    proj = projection_factors(diffused.flat())
    if cfg.volume_target is None:
        new_plus = proj.det >= 0.0
    else:
        thr = select_threshold(proj.gain, f.weights, cfg.volume_target)
        new_plus = np.zeros(f.npoints, dtype=bool)
        new_plus[thr.plus_indices] = True
    new = f.copy_with(proj.assemble(new_plus).reshape(f.data.shape))
    try:
        new.require_orthogonal()
    except ValueError as exc:
        raise NumericalHealthError(f"projection output: {exc}") from exc
    flips = int(np.count_nonzero(new_plus != plus))
    return new, StepStats(energy, _max_frobenius(new.data - f.data), flips,
                          int(np.count_nonzero(proj.singular)), frob,
                          float(np.abs(proj.det).max()), new_plus)


def select_threshold(values, weights, target: float) -> ThresholdResult:
    """Pick the descending-order prefix of values whose weight reaches target.

    lam is the midpoint of the last included and first excluded value; when
    every point is included it falls back to min(values) - 1 (and
    symmetrically max(values) + 1 for an empty prefix, which the volume
    precondition rules out).  Ties keep ascending point-index order.  When
    the running sum of the whole order ends below target (it is sequential,
    the total check is pairwise, so they can differ by roundoff) every point
    is included.

    With positive weights the prefix holds at most ceil(target / min w)
    points, so only the K = ceil(target / min w) + 2 largest values (the
    prefix, the first excluded point and one for roundoff), with every tie
    of the K-th, are stably sorted: O(N + K log K).  Their running sum is
    the start of the full one, bit for bit.  The full stable sort runs when
    K >= N, or when the candidates hold no point that reaches target or no
    first excluded point.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    total = float(weights.sum())
    if not 0.0 < target < total:
        raise ValueError(f"volume target {target:g} outside (0, {total:g})")
    n = len(values)
    wmin = float(weights.min())
    if wmin > 0.0 and target < n * wmin:
        kth = int(np.ceil(target / wmin)) + 2
        if kth < n:
            pivot = np.partition(values, n - kth)[n - kth]
            cand = np.flatnonzero(values >= pivot)
            found = _prefix(values, weights, target, cand)
            if found is not None:
                return found
    return _prefix(values, weights, target, np.arange(n))


def _prefix(values, weights, target, cand):
    """select_threshold over the stable descending order of values[cand].

    cand is ascending.  Unless it is every point, None when it holds no
    point that reaches target or no first excluded point.
    """
    order = cand[np.argsort(-values[cand], kind="stable")]
    reached = np.cumsum(weights[order]) >= target
    every = len(order) == len(values)
    if reached.any():
        k = int(np.argmax(reached))             # first index reaching target
    elif every:
        k = len(order) - 1
    else:
        return None
    if k + 1 < len(order):
        lam = 0.5 * (values[order[k]] + values[order[k + 1]])
    elif every:
        lam = float(values.min()) - 1.0
    else:
        return None
    return ThresholdResult(float(lam), order[:k + 1])


def mbo_run(initial: MatrixField, cfg: MboConfig) -> RunResult:
    """Iterate mbo_step until the field stops changing.

    Per iteration the log records the pre-step energy, which the step takes
    from its own diffusion (so the energy column is the Lyapunov sequence and
    each iteration diffuses once), the post-step plus volume, the max pointwise
    Frobenius change, and the determinant sign-flip count.  The first step
    checks the initial field; every step checks its own projection output
    and hands its plus mask to the next, so each field is checked once.
    """
    f = initial
    plus = None
    weights = initial.weights
    log = EnergyLog()
    snapshots = []
    converged = False
    max_frob = 0.0
    max_absdet = 0.0
    singular_total = 0
    iteration = 0
    for iteration in range(1, cfg.max_iters + 1):
        f, stats = mbo_step(f, cfg, plus=plus)
        plus = stats.plus
        log.append(iteration, stats.energy, float(np.sum(weights[plus])),
                   stats.max_change, stats.sign_flips)
        max_frob = max(max_frob, stats.max_frobenius)
        max_absdet = max(max_absdet, stats.max_abs_det)
        singular_total += stats.singular_count
        if cfg.snapshot_every and iteration % cfg.snapshot_every == 0:
            snapshots.append((iteration, f))
        if stats.max_change <= cfg.stop_tol:
            converged = True
            break
    return RunResult(f, log, snapshots, converged, iteration,
                     max_frob, max_absdet, singular_total)

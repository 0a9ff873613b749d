"""Correctness checks applied to every benchmark run.

Each check returns a list of failure messages; an empty list means it passed.
A run counts as failed when any check on it fails.  The tolerances are the
ones the acceptance criteria of the test suite use.
"""

from __future__ import annotations

import numpy as np

ORTHOGONALITY_TOL = 1e-10
MAX_PRINCIPLE_SLACK = 1e-6
SURFACE_REL_ERR_TOL = 0.01          # criterion c09


def energy_slack(n: int, measure: float, tau: float) -> float:
    """Roundoff slack on an energy increase (criterion c04)."""
    return 1e-9 * n * measure / tau


def check_energy(energies, n: int, measure: float, tau: float) -> list[str]:
    energies = np.asarray(energies, dtype=float)
    if len(energies) < 2:
        return []
    worst = float(np.diff(energies).max())
    slack = energy_slack(n, measure, tau)
    if worst > slack:
        return [f"energy rose by {worst:.3e} > slack {slack:.3e}"]
    return []


def check_orthogonal(f) -> list[str]:
    defect = f.orthogonality_defect()
    if not defect <= ORTHOGONALITY_TOL:
        return [f"final orthogonality defect {defect:.3e} > {ORTHOGONALITY_TOL:g}"]
    return []


def check_max_principle(max_frobenius: float, max_abs_det: float, n: int) -> list[str]:
    out = []
    if not max_frobenius <= np.sqrt(n) + MAX_PRINCIPLE_SLACK:
        out.append(f"max Frobenius norm {max_frobenius:.12f} > sqrt({n}) + slack")
    if not max_abs_det <= 1.0 + MAX_PRINCIPLE_SLACK:
        out.append(f"max |det| {max_abs_det:.12f} > 1 + slack")
    return out


def check_volume(plus_volumes, target: float, point_weight: float) -> list[str]:
    pv = np.asarray(plus_volumes, dtype=float)
    worst = float(np.abs(pv - target).max())
    if not worst <= point_weight * (1.0 + 1e-12):
        return [f"plus measure off target by {worst:.3e} > one point weight "
                f"{point_weight:.3e}"]
    return []


def check_converged(converged: bool, iterations: int) -> list[str]:
    if not converged:
        return [f"did not converge in {iterations} iterations"]
    return []


def check_roundtrip(written, read) -> list[str]:
    """The snapshot read back must be bit-identical to the field written."""
    same = (written.n == read.n and written.grid == read.grid
            and written.data.shape == read.data.shape
            and written.data.tobytes() == read.data.tobytes())
    if same and not written.is_grid:
        same = (written.points.tobytes() == read.points.tobytes()
                and written.weights.tobytes() == read.weights.tobytes())
    return [] if same else ["snapshot read back differs from the field written"]


def check_surface_error(rel_err: float) -> list[str]:
    if not rel_err <= SURFACE_REL_ERR_TOL:
        return [f"surface diffusion error {rel_err:.3e} > {SURFACE_REL_ERR_TOL:g}"]
    return []


def check_nufft(type1_err: float, type2_err: float, tol: float) -> list[str]:
    out = []
    for kind, err in (("type-1", type1_err), ("type-2", type2_err)):
        if not err <= tol:
            out.append(f"NUFFT {kind} error {err:.3e} > plan tolerance {tol:g}")
    return out


def check_same_digest(digests) -> list[str]:
    if len(set(digests)) > 1:
        return [f"final snapshots differ between passes: {sorted(set(digests))}"]
    return []

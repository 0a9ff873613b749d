"""Long Lyapunov run on the desk surface bands.

Runs plain MBO for at least 200 steps (stop_tol = 0) on the desk sphere
(dx 0.2, tau 0.05) and the desk peanut (dx 0.3, tau 0.1), each from a seeded
random O(3) field, and checks that no logged energy rises by more than the
acceptance slack 1e-9 * n * measure / tau.  Prints one line per band and
exits 1 if any band breaks the bound.  About 0.15 s of CPU per step (one BLAS thread):

    PYTHONPATH=src python scripts/long_surface_run.py [--steps 200] [--seed 0]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from orthoflow import MboConfig, mbo_run
from orthoflow.cpm_surface import (BandSpec, Sphere, SurfaceDiffuser, band_width,
                                    build_band, peanut_surface)

EPS = 1e-6
BANDS = {
    "sphere": (Sphere(1.0), 0.2, 0.05),
    "peanut": (peanut_surface(), 0.3, 0.1),
}


def random_o3(count: int, rng) -> np.ndarray:
    """count matrices drawn from the Haar measure on O(3)."""
    q, r = np.linalg.qr(rng.standard_normal((count, 3, 3)))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def run_band(name: str, steps: int, seed: int) -> bool:
    surface, dx, tau = BANDS[name]
    band = build_band(surface, BandSpec(dx=dx, w_b=band_width(tau, EPS), eps=EPS))
    rng = np.random.default_rng([seed, len(name)])
    initial = band.field(random_o3(band.n_q, rng))
    cfg = MboConfig(backend=SurfaceDiffuser(band, tau), max_iters=steps, stop_tol=0.0)
    t0 = time.process_time()
    result = mbo_run(initial, cfg)
    cpu = time.process_time() - t0
    energies = result.log.energies()
    rise = float(np.diff(energies).max()) if len(energies) > 1 else 0.0
    slack = 1e-9 * initial.n * initial.total_measure / tau
    ok = rise <= slack
    print(f"{name}: n_q={band.n_q} steps={result.iterations} "
          f"energy {energies[0]:.6e} -> {energies[-1]:.6e} "
          f"largest_rise={rise:.3e} slack={slack:.3e} "
          f"cpu_per_step={cpu / result.iterations:.3f}s {'ok' if ok else 'RISE'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    results = [run_band(name, args.steps, args.seed) for name in BANDS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

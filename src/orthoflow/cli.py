"""Command-line front end: run scenarios, print parameter tables, check snapshots.

Subcommands:

    orthoflow [--threads N] run --config PATH [--out DIR] [--snapshot-every K]
    orthoflow tables
    orthoflow check SNAPSHOT

Configs are flat key = value text (# comments); see the README for the
schema.  run prints a one-line summary whose final_energy is the Lyapunov
energy of the final field: it costs one more diffusion after the loop.
Exit codes:

    run     0 converged, 2 stopped at max_iters, 1 bad config (including a
            key outside the schema or one the chosen scenario does not read,
            a repeated key, a non-finite tau, stop_tol or surface.dx and a
            volume target outside (0, total measure)), an overflow in set-up,
            set-up arrays beyond memory or an unwritable output file, 4
            numerical failure during the run (NumericalHealthError); errors
            print one line on stderr
    tables  0 all entries match, 3 mismatches
    check   0 valid, 1 malformed or non-orthogonal snapshot
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .cpm_surface import BandSpec, SurfaceDiffuser, band_width, build_band, spectral_grid
from .errors import ConfigurationError, NumericalHealthError, SnapshotFormatError
from .field import GridSpec, field_report, plus_volume, read_snapshot, write_snapshot
from .mbo import MboConfig, lyapunov_energy, mbo_run
from .scenarios import (SCENARIO_NAMES, SURFACE_SCENARIOS, TORUS_SCENARIOS, surface_initial,
                        torus_initial)
from .torus_heat import TorusDiffuser

__all__ = ["main", "cmd_run", "cmd_tables", "cmd_check", "EXIT_NUMERICAL",
           "REFERENCE_BAND_WIDTHS", "REFERENCE_MODE_COUNTS",
           "TABLE_TAUS", "TABLE_EPSS"]

EXIT_NUMERICAL = 4      # run: a numerical-health failure while iterating

TABLE_TAUS = (1e-1, 1e-2, 1e-3, 1e-4)
TABLE_EPSS = (1e-3, 1e-6, 1e-9, 1e-12)

# reference values: band widths to 4 significant digits, mode counts exact
REFERENCE_BAND_WIDTHS = (
    (1.796, 0.5683, 0.1796, 0.05683),
    (2.474, 0.7823, 0.2474, 0.07823),
    (2.993, 0.9465, 0.2993, 0.09465),
    (3.432, 1.085, 0.3432, 0.1085),
)
REFERENCE_MODE_COUNTS = (
    (8, 21, 55, 136),
    (11, 34, 100, 296),
    (14, 43, 130, 396),
    (17, 50, 154, 475),
)

# the keys each scenario reads, the README schema's scenarios column; a schema
# key the chosen scenario does not read is an error, not a silently ignored value
_COMMON_KEYS = ("scenario.name run.tau run.max_iters run.stop_tol run.volume_target "
                "output.snapshot_every output.dir")
_TORUS_ONLY_KEYS = {"torus_disk_n1": "scenario.disk_radius",
                    "torus_winding": "scenario.winding_index"}
SCENARIO_KEYS = {
    **{name: frozenset(f"{_COMMON_KEYS} grid.size {_TORUS_ONLY_KEYS.get(name, '')}".split())
       for name in TORUS_SCENARIOS},
    **{name: frozenset(f"{_COMMON_KEYS} surface.dx surface.eps".split())
       for name in SURFACE_SCENARIOS},
}
# the README's config schema; any other key is an error, not a silent default
CONFIG_KEYS = frozenset().union(*SCENARIO_KEYS.values())


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def parse_config(path) -> dict:
    """Flat key = value file with # comments and dotted section keys.

    A key may appear once; a repeat is an error naming both lines.
    """
    out = {}
    first_line = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ConfigurationError(f"{path}:{lineno}: empty key or value")
            if key in out:
                raise ConfigurationError(
                    f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
            out[key] = value
            first_line[key] = lineno
    return out


def _get(cfg, key, cast, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigurationError(f"missing config key {key!r}")
        return default
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key!r}: {cfg[key]!r}") from exc


def _build_run(cfg: dict):
    """Construct (initial field, MboConfig) from a parsed config."""
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ConfigurationError("unknown config key " + ", ".join(map(repr, unknown)))
    name = _get(cfg, "scenario.name", str, required=True)
    if name not in SCENARIO_NAMES:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}")
    foreign = sorted(set(cfg) - SCENARIO_KEYS[name])
    if foreign:
        raise ConfigurationError(f"config key {', '.join(map(repr, foreign))} "
                                 f"does not apply to scenario {name!r}")
    max_iters = _get(cfg, "run.max_iters", int, 10_000)
    stop_tol = _get(cfg, "run.stop_tol", float, 1e-8)
    snapshot_every = _get(cfg, "output.snapshot_every", int, 10)

    if name in TORUS_SCENARIOS:
        size = _get(cfg, "grid.size", int, 256)
        grid = GridSpec((size, size))
        tau = _get(cfg, "run.tau", float, 8.0 * grid.dx)
        backend = TorusDiffuser(grid, tau)
        initial = torus_initial(name, grid, _get(cfg, "scenario.disk_radius", float, 0.3),
                                _get(cfg, "scenario.winding_index", int, 1))
    else:
        tau = _get(cfg, "run.tau", float, 0.01)
        dx = _get(cfg, "surface.dx", float, 0.05)
        eps = _get(cfg, "surface.eps", float, 1e-6)
        band = build_band(SURFACE_SCENARIOS[name](),
                          BandSpec(dx=dx, w_b=band_width(tau, eps), eps=eps))
        backend = SurfaceDiffuser(band, tau)
        initial = surface_initial(name, band)

    volume_target = None
    raw_v = cfg.get("run.volume_target")
    if raw_v is not None:
        volume_target = (plus_volume(initial) if raw_v.strip() == "initial"
                         else _get(cfg, "run.volume_target", float))
        total = initial.total_measure
        if not 0.0 < volume_target < total:
            raise ConfigurationError(
                f"run.volume_target {volume_target!r} outside (0, {total!r}), "
                f"the total measure of the domain")
    mbo_cfg = MboConfig(backend=backend, max_iters=max_iters, stop_tol=stop_tol,
                        volume_target=volume_target, snapshot_every=snapshot_every)
    return initial, mbo_cfg


def cmd_run(config_path, out_dir=None, snapshot_every=None) -> int:
    try:
        cfg = parse_config(config_path)
        if out_dir is not None:
            cfg["output.dir"] = str(out_dir)
        if snapshot_every is not None:
            cfg["output.snapshot_every"] = str(snapshot_every)
        initial, mbo_cfg = _build_run(cfg)
        out = Path(cfg.get("output.dir", "."))
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigurationError, OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        result = mbo_run(initial, mbo_cfg)
    except NumericalHealthError as exc:
        print(f"error: numerical failure during the run: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        result.log.write_csv(out / "energy_log.csv")
        for iteration, snap in result.snapshots:
            write_snapshot(snap, out / f"snapshot_{iteration:06d}.mbof")
        write_snapshot(result.final, out / "final.mbof")
    except OSError as exc:
        print(f"error: cannot write the run's output: {exc}", file=sys.stderr)
        return 1

    final_energy = lyapunov_energy(result.final, mbo_cfg.backend)
    final_pv = result.log.rows[-1].plus_volume
    dev = result.final.max_deviation_from_mean()
    status = "converged" if result.converged else "max_iters"
    print(f"{status} iterations={result.iterations} "
          f"final_energy={final_energy:.6e} final_plus_volume={final_pv:.6f} "
          f"max_dev_from_mean={dev:.3e} "
          f"max_frobenius={result.max_frobenius:.12f} "
          f"max_abs_det={result.max_abs_det:.12f} "
          f"singular_points={result.singular_total}")
    return 0 if result.converged else 2


# ---------------------------------------------------------------------------
# Parameter tables
# ---------------------------------------------------------------------------

def _fourth_digit_unit(value: float) -> float:
    """One unit in the fourth significant digit of value."""
    return 10.0 ** (np.floor(np.log10(abs(value))) - 3)


def cmd_tables(out=None) -> int:
    out = out or sys.stdout
    mismatches = []

    print("Band widths w_b (rows eps, cols tau):", file=out)
    header = "  eps \\ tau " + "".join(f"{t:>12.0e}" for t in TABLE_TAUS)
    print(header, file=out)
    for i, eps in enumerate(TABLE_EPSS):
        row = []
        for j, tau in enumerate(TABLE_TAUS):
            got = band_width(tau, eps)
            want = REFERENCE_BAND_WIDTHS[i][j]
            if abs(got - want) > _fourth_digit_unit(want):
                mismatches.append(
                    f"band_width(tau={tau:g}, eps={eps:g}) = {got:.6g}, want {want:g}")
            row.append(got)
        print(f"  {eps:>9.0e} " + "".join(f"{v:>12.4g}" for v in row), file=out)

    print("Fourier mode counts M (rows eps, cols tau, R = pi):", file=out)
    print(header, file=out)
    for i, eps in enumerate(TABLE_EPSS):
        row = []
        for j, tau in enumerate(TABLE_TAUS):
            got = spectral_grid(tau, eps).m_half
            want = REFERENCE_MODE_COUNTS[i][j]
            if got != want:
                mismatches.append(
                    f"mode_count(tau={tau:g}, eps={eps:g}) = {got}, want {want}")
            row.append(got)
        print(f"  {eps:>9.0e} " + "".join(f"{v:>12d}" for v in row), file=out)

    if mismatches:
        print("mismatched entries:", file=out)
        for m in mismatches:
            print(f"  {m}", file=out)
        return 3
    print("all 32 entries match the reference values", file=out)
    return 0


# ---------------------------------------------------------------------------
# Snapshot check
# ---------------------------------------------------------------------------

def cmd_check(snapshot_path, out=None) -> int:
    out = out or sys.stdout
    try:
        f = read_snapshot(snapshot_path)
        r = field_report(f)
    except (SnapshotFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"flavor={'grid' if f.is_grid else 'cloud'} n={f.n} points={f.npoints}", file=out)
    print(f"orthogonality_defect={r.defect:.3e} "
          f"det_min={r.det_min:.12f} det_max={r.det_max:.12f}", file=out)
    print(f"plus_volume={r.plus_volume:.6f} of total {r.total_measure:.6f}", file=out)
    if r.interface_cells is not None:
        ratio = ("undefined" if r.isoperimetric_ratio is None
                 else f"{r.isoperimetric_ratio:.4f}")
        print(f"interface_cells={len(r.interface_cells)}", file=out)
        print(f"area={r.plus_volume:.6f} perimeter={r.perimeter:.6f} "
              f"isoperimetric_ratio={ratio}", file=out)
    if isinstance(r.winding, tuple):
        print(f"winding=({r.winding[0]},{r.winding[1]})", file=out)
    elif r.winding is not None:
        print(f"winding=under-resolved ({r.winding})", file=out)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orthoflow",
        description="MBO-type diffusion-generated motion for orthogonal "
                    "matrix-valued fields")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="ignored: the solver is single-threaded; accepted for "
             "interface compatibility")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("--config", required=True, help="path to key=value config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--snapshot-every", type=int, default=None,
                       help="snapshot cadence override")

    sub.add_parser("tables", help="print and verify the parameter tables")

    p_check = sub.add_parser("check", help="validate a snapshot file")
    p_check.add_argument("snapshot", help="path to an .mbof snapshot")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.snapshot_every)
    if args.command == "tables":
        return cmd_tables()
    if args.command == "check":
        return cmd_check(args.snapshot)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())

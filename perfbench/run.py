"""Benchmark one orthoflow workload from a seed, or all of them.

    python3 perfbench/run.py --workload torus-coarsen --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from its
src/ directory.  One closed-loop client in one process: one solve at a time.
A run repeats whole passes (set-up, solve, output) until --seconds have
passed, at least one.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it patches the public calls of every orthoflow module (spans.py)
and reports per-layer metrics per pass instead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A result
file with the environment, every sample and every check is written under
.perfbench/results/.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# untraced runs add set-ups before the passes until, counting one per pass,
# there are this many samples and seconds: a steady median even when one
# set-up takes milliseconds
SETUP_MIN_SAMPLES = 3
SETUP_MIN_SECONDS = 1.0
# no pass starts that would end after this many seconds of passes
PASS_WINDOW_S = 100.0

END_TO_END = [
    ("setup_s", "s"), ("solve_s", "s"), ("step_s.p50", "s"), ("step_s.p80", "s"),
    ("wall_s", "s"), ("peak_rss_mb", "MB"), ("surface_rel_err", "1"),
]
TRACE_EXTRA = [
    ("cpm_surface.n_q", "count"), ("cpm_surface.modes", "count"),
    ("nufft.type1_rel_err", "1"), ("nufft.type2_rel_err", "1"), ("trace.solve_s", "s"),
]
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "MBO_THREADS")


def environment() -> dict:
    import numpy
    import scipy
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.TimeoutExpired):
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = got.stdout.strip() if got.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
    }


def os_threads() -> int | None:
    with contextlib.suppress(OSError):
        return len(os.listdir("/proc/self/task"))
    return None


def run_pass(w, inputs, tracer, out_dir: Path):
    """One set-up, solve and output, then the checks on its results.

    Returns the pass record and the set-up state, which the accuracy probes
    reuse after the last pass.
    """
    import checks
    from workloads import cpu_clock, file_digest, solve, write_outputs

    def phase(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    out_dir.mkdir(parents=True, exist_ok=True)
    w0, t0 = time.perf_counter(), cpu_clock()
    with phase("setup"):
        state = w.setup(inputs)
    t1 = cpu_clock()
    with phase("solve"):
        sol = solve(state)
    t2 = cpu_clock()
    with phase("output"):
        back = write_outputs(sol.result, out_dir)
    t3, w3 = cpu_clock(), time.perf_counter()

    res, initial, cfg = sol.result, state.initial, state.cfg
    failures = (
        checks.check_energy(res.log.energies(), initial.n, initial.total_measure, cfg.tau)
        + checks.check_orthogonal(res.final)
        + checks.check_max_principle(res.max_frobenius, res.max_abs_det, initial.n)
        + checks.check_roundtrip(res.final, back))
    if cfg.volume_target is not None:
        failures += checks.check_volume([r.plus_volume for r in res.log.rows],
                                        cfg.volume_target, float(initial.weights.max()))
    if w.converges:
        failures += checks.check_converged(res.converged, res.iterations)
    digest = file_digest(out_dir / "final.mbof")
    shutil.rmtree(out_dir)
    record = {"setup_s": t1 - t0, "solve_s": sol.seconds, "output_s": t3 - t2,
              "wall_s": t3 - t0, "steps": sol.steps.tolist(),
              "wallclock_solve_s": sol.wall_seconds, "wallclock_pass_s": w3 - w0,
              "iterations": res.iterations, "converged": res.converged,
              "digest": digest, "failures": failures}
    return record, state


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import checks
    from spans import HOOKS, LAYER_METRICS, Tracer, layer_metrics
    from workloads import SPHERE_ORACLE, WORKLOADS, cpu_clock, nufft_errors, surface_rel_err

    w = WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    env = environment()
    inputs = w.inputs(seed)

    setup_samples = []
    while not trace and (len(setup_samples) < SETUP_MIN_SAMPLES - 1
                         or sum(setup_samples) < SETUP_MIN_SECONDS):
        t0 = cpu_clock()
        w.setup(inputs)
        setup_samples.append(cpu_clock() - t0)

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(HOOKS)
        for target in tracer.missing:
            print(f"TRACE WARNING: hook target {target} no longer exists; "
                  f"metrics fed by it read 0", file=sys.stderr)
    passes = []
    t_start = time.perf_counter()
    try:
        while True:
            state = None            # free the last pass, so peak RSS is one pass
            record, state = run_pass(w, inputs, tracer, OUT / "work" / tag)
            passes.append(record)
            elapsed = time.perf_counter() - t_start
            if elapsed >= seconds or elapsed + passes[-1]["wallclock_pass_s"] > PASS_WINDOW_S:
                break
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    threads = os_threads()

    digests = [p["digest"] for p in passes]
    passes[-1]["failures"] += checks.check_same_digest(digests)

    # the accuracy probes run after the timed passes and the RSS reading
    rel_err = surface_rel_err(seed, state.diffuser if w is SPHERE_ORACLE else None)
    operations = [p["failures"] for p in passes] + [checks.check_surface_error(rel_err)]
    nufft_err = (0.0, 0.0)
    if state.band is not None:
        nufft_err = nufft_errors(seed, state.diffuser)
        operations.append(checks.check_nufft(*nufft_err, state.diffuser.eps))
    failed = sum(1 for op in operations if op)

    solves = [p["solve_s"] for p in passes]
    if trace:
        values = layer_metrics(tracer.spans, len(passes))
        values.update({
            "cpm_surface.n_q": state.band.n_q if state.band is not None else 0,
            "cpm_surface.modes": state.diffuser.modes.m_half if state.band is not None else 0,
            "nufft.type1_rel_err": nufft_err[0],
            "nufft.type2_rel_err": nufft_err[1],
            "trace.solve_s": statistics.median(solves),
        })
        units = {m: u for m, u, *_ in LAYER_METRICS} | dict(TRACE_EXTRA)
        samples = dict.fromkeys(values, len(passes))
    else:
        setup_samples += [p["setup_s"] for p in passes]
        steps = [s for p in passes for s in p["steps"]]
        values = {
            "setup_s": statistics.median(setup_samples),
            "solve_s": statistics.median(solves),
            "step_s.p50": float(np.percentile(steps, 50)),
            "step_s.p80": float(np.percentile(steps, 80)),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "surface_rel_err": rel_err,
        }
        units = dict(END_TO_END)
        samples = {"setup_s": len(setup_samples), "solve_s": len(passes),
                   "step_s.p50": len(steps), "step_s.p80": len(steps),
                   "wall_s": len(passes), "peak_rss_mb": 1, "surface_rel_err": 1}

    overhead = None
    if trace:
        untraced = OUT / "results" / f"{name}-seed{seed}-trace0.json"
        with contextlib.suppress(OSError, KeyError, ValueError):
            base = json.loads(untraced.read_text())["metrics"]["solve_s"]["value"]
            overhead = values["trace.solve_s"] - base

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "os_threads_at_end": threads,
        "correct": failed == 0, "attempted": len(operations), "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m], "samples": samples[m]}
                    for m in values},
        "tracing_overhead_s": overhead,
        "missing_hooks": tracer.missing if tracer else [],
        "final_digests": digests,
        "failures": [f for op in operations for f in op],
        "surface_rel_err": rel_err,
        "nufft_rel_err": list(nufft_err),
        "setup_samples": setup_samples,
        "passes": passes,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=1))
    if tracer:
        tracer.write(results_dir / f"{tag}-spans.json")
    return result


def print_result(r: dict):
    print(f"workload {r['workload']} seed {r['seed']} trace {r['trace']}: "
          f"{len(r['passes'])} pass(es), "
          f"{r['passes'][0]['iterations']} iterations per pass, "
          f"final.mbof sha256 {r['final_digests'][0][:16]}")
    for m, v in r["metrics"].items():
        print(f"  {m:30s} {v['value']:>14.6g} {v['unit']:6s} (n={v['samples']})")
    if r["trace"]:
        oh = r["tracing_overhead_s"]
        print("  tracing overhead: " + ("unknown (no untraced result for this seed)"
                                         if oh is None else f"{oh:+.4f} s on solve_s"))
        for target in r["missing_hooks"]:
            print(f"  MISSING HOOK: {target}")
    walls = [(p["wallclock_solve_s"], p["wallclock_pass_s"]) for p in r["passes"]]
    print("  wall clock per pass (not a metric; includes time the host steals): "
          + ", ".join(f"solve {a:.3f} s / pass {b:.3f} s" for a, b in walls))
    print(f"  checks: {r['attempted'] - r['failed']}/{r['attempted']} operations passed"
          + "".join(f"\n  FAILED: {f}" for f in r["failures"]))


def summary_line(r: dict) -> str:
    return json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                       "failed": r["failed"],
                       "metrics": {m: {"value": v["value"], "unit": v["unit"]}
                                   for m, v in r["metrics"].items()}})


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        got = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = got.stdout.strip().splitlines()
        sys.stderr.write(got.stderr)
        if got.returncode != 0 or not lines:
            print(f"workload {name} exited with code {got.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        combined["metrics"].update({f"{name}/{m}": v for m, v in one["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the load comes from one thread; set before numpy loads its BLAS pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (SRC / "orthoflow" / "__init__.py").is_file():
        print(f"error: no orthoflow sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import orthoflow
    if Path(orthoflow.__file__).resolve().parent != (SRC / "orthoflow").resolve():
        print(f"error: imported orthoflow from {orthoflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 2
    r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(r)
    print(summary_line(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())

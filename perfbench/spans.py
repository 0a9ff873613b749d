"""In-memory spans around the calls into each orthoflow module.

A traced run patches the public functions and methods of every layer at the
name its caller looks up (for example ``orthoflow.mbo.project_orthogonal_stack``
for the projection called from the MBO step, or the ``MatrixField.dets`` class
attribute for a method).  Each wrapper records one span (name, start, end,
parent) and may attach counts to it.  Spans stay in memory and are written
out when the run ends.  A layer's self time is its span duration minus the
part of that interval its child spans cover.

Names that no longer exist are collected in ``Tracer.missing`` and reported
by the caller, never dropped silently.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "counts": self.counts}


class Tracer:
    """Collects nested spans from the single thread that runs the solver."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, bool, object]] = []

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, self.clock(), float("nan"), parent)
        self.spans.append(s)
        self._stack.append(s)
        return s

    def close(self, s: Span):
        s.end = self.clock()
        popped = self._stack.pop()
        if popped is not s:
            raise RuntimeError(f"span {s.name!r} closed out of order")

    def count(self, key: str, value):
        """Add value to a count on the innermost open span, if any."""
        if self._stack:
            counts = self._stack[-1].counts
            counts[key] = counts.get(key, 0) + value

    # -- patching --------------------------------------------------------------

    def install(self, hooks):
        """Patch every hook; a hook is (target, span name or None, counter).

        target is "module:attr" or "module:Class.attr".  With a span name the
        wrapper records a span and calls counter(span, args, kwargs, result);
        with None it records no span and calls counter(None, ...) so counts
        land on the enclosing span.
        """
        for target, name, counter in hooks:
            owner, attr = _resolve(target)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(target)
                continue
            own = vars(owner)
            self._patched.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, counter))

    def uninstall(self):
        while self._patched:
            owner, attr, had_own, original = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(None, args, kwargs, result, tracer)
                return result
            s = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            if counter is not None:
                counter(s, args, kwargs, result, tracer)
            return result

        return wrapper

    # -- output ------------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"missing_hooks": self.missing,
                       "spans": [s.as_dict() for s in self.spans]}, fh)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, path
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children[s.id], s.start, s.end)
            for s in spans}


def phases(spans) -> dict[int, str]:
    """Span id -> name of its root span (the benchmark phase it ran in)."""
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        root = s
        while root.parent is not None:
            root = by_id[root.parent]
        out[s.id] = root.name
    return out


# ---------------------------------------------------------------------------
# The orthoflow layers
# ---------------------------------------------------------------------------

def _count_matrices(key_singular):
    def counter(span, args, kwargs, result, tracer):
        mats = args[0]
        span.counts["matrices"] = int(mats.size // (mats.shape[-1] * mats.shape[-2]))
        span.counts["singular"] = key_singular(result)
    return counter


def _count_spread(components):
    def counter(span, args, kwargs, result, tracer):
        plan = args[0]
        span.counts["spread_entries"] = int(plan.npts * plan.kdim**3 * components(args))
    return counter


def _type1_components(args):
    coeffs = args[1]
    return 1 if coeffs.ndim == 1 else coeffs.shape[1]


def _type2_components(args):
    spectral = args[1]
    return 1 if spectral.ndim == 3 else spectral.shape[3]


def _count_plan(span, args, kwargs, result, tracer):
    span.counts["grid_points"] = int(args[0].n_over ** 3)


def _count_points(span, args, kwargs, result, tracer):
    span.counts["points"] = int(len(args[1]))


def _count_iterations(span, args, kwargs, result, tracer):
    span.counts["iterations"] = int(result.iterations)


def _count_snapshot_bytes(span, args, kwargs, result, tracer):
    span.counts["bytes"] = int(os.path.getsize(args[1]))


def _count_fft_bytes(span, args, kwargs, result, tracer):
    # computed from array sizes: input plus output of each transform
    tracer.count("fft_bytes", int(args[0].nbytes + result.nbytes))


_FFTS = ("fftn", "ifftn", "rfftn", "irfftn")

HOOKS = [
    ("orthoflow.torus_heat:TorusDiffuser.__init__", "torus_heat.TorusDiffuser", None),
    ("orthoflow.torus_heat:TorusDiffuser.diffuse", "torus_heat.diffuse", None),
    *((f"numpy.fft:{fn}", None, _count_fft_bytes) for fn in _FFTS),
    *((f"scipy.fft:{fn}", None, _count_fft_bytes) for fn in _FFTS),
    ("orthoflow.mbo:project_orthogonal_stack", "matgeom.project_orthogonal_stack",
     _count_matrices(lambda r: int(r[1]))),
    ("orthoflow.mbo:orthogonal_projections", "matgeom.orthogonal_projections",
     _count_matrices(lambda r: int(r[3].sum()))),
    ("orthoflow.field:MatrixField.require_orthogonal", "field.require_orthogonal", None),
    ("orthoflow.field:MatrixField.dets", "field.dets", None),
    ("orthoflow.mbo:plus_volume", "field.plus_volume", None),
    ("orthoflow.field:plus_volume", "field.plus_volume", None),
    ("orthoflow.field:write_snapshot", "field.write_snapshot", _count_snapshot_bytes),
    ("orthoflow.field:read_snapshot", "field.read_snapshot", None),
    ("orthoflow.mbo:mbo_run", "mbo.mbo_run", _count_iterations),
    ("orthoflow.mbo:lyapunov_energy", "mbo.lyapunov_energy", None),
    ("orthoflow.mbo:mbo_step", "mbo.mbo_step", None),
    ("orthoflow.mbo:volume_mbo_step", "mbo.volume_mbo_step", None),
    ("orthoflow.mbo:select_threshold", "mbo.select_threshold", None),
    ("orthoflow.nufft:GridderPlan.__init__", "nufft.plan", _count_plan),
    ("orthoflow.nufft:GridderPlan.type1", "nufft.type1", _count_spread(_type1_components)),
    ("orthoflow.nufft:GridderPlan.type2", "nufft.type2", _count_spread(_type2_components)),
    ("orthoflow.cpm_surface:build_band", "cpm_surface.build_band", None),
    ("orthoflow.cpm_surface:Sphere.closest", "cpm_surface.closest", _count_points),
    ("orthoflow.cpm_surface:SurfaceOfRevolution.closest", "cpm_surface.closest",
     _count_points),
    ("orthoflow.cpm_surface:SurfaceDiffuser.__init__", "cpm_surface.SurfaceDiffuser", None),
    ("orthoflow.cpm_surface:SurfaceDiffuser.diffuse", "cpm_surface.diffuse", None),
]

# (metric, unit, phase, span names, what): what is "self" or "total" seconds,
# "calls", a count key summed over the spans, or "max:<key>" for a size.
LAYER_METRICS = [
    ("torus_heat.diffuser_build_s", "s", "setup", ("torus_heat.TorusDiffuser",), "total"),
    ("torus_heat.diffuse_s", "s", "solve", ("torus_heat.diffuse",), "self"),
    ("torus_heat.diffuse_calls", "count", "solve", ("torus_heat.diffuse",), "calls"),
    ("torus_heat.fft_bytes", "B", "solve", ("torus_heat.diffuse",), "fft_bytes"),
    ("matgeom.project_s", "s", "solve", ("matgeom.project_orthogonal_stack",), "self"),
    ("matgeom.projections_s", "s", "solve", ("matgeom.orthogonal_projections",), "self"),
    ("matgeom.matrices", "count", "solve",
     ("matgeom.project_orthogonal_stack", "matgeom.orthogonal_projections"), "matrices"),
    ("matgeom.singular", "count", "solve",
     ("matgeom.project_orthogonal_stack", "matgeom.orthogonal_projections"), "singular"),
    ("field.orth_check_s", "s", "solve", ("field.require_orthogonal",), "self"),
    ("field.orth_check_calls", "count", "solve", ("field.require_orthogonal",), "calls"),
    ("field.dets_s", "s", "solve", ("field.dets",), "self"),
    ("field.dets_calls", "count", "solve", ("field.dets",), "calls"),
    ("field.plus_volume_s", "s", "solve", ("field.plus_volume",), "self"),
    ("field.snapshot_write_s", "s", "output", ("field.write_snapshot",), "total"),
    ("field.snapshot_read_s", "s", "output", ("field.read_snapshot",), "total"),
    ("field.snapshot_bytes", "B", "output", ("field.write_snapshot",), "bytes"),
    ("mbo.energy_s", "s", "solve", ("mbo.lyapunov_energy",), "self"),
    ("mbo.step_self_s", "s", "solve", ("mbo.mbo_step", "mbo.volume_mbo_step"), "self"),
    ("mbo.threshold_s", "s", "solve", ("mbo.select_threshold",), "self"),
    ("mbo.loop_self_s", "s", "solve", ("mbo.mbo_run",), "self"),
    ("mbo.iterations", "count", "solve", ("mbo.mbo_run",), "iterations"),
    ("nufft.type1_s", "s", "solve", ("nufft.type1",), "self"),
    ("nufft.type2_s", "s", "solve", ("nufft.type2",), "self"),
    ("nufft.type1_calls", "count", "solve", ("nufft.type1",), "calls"),
    ("nufft.type2_calls", "count", "solve", ("nufft.type2",), "calls"),
    ("nufft.spread_entries", "count", "solve", ("nufft.type1", "nufft.type2"),
     "spread_entries"),
    ("nufft.grid_points", "count", "setup", ("nufft.plan",), "max:grid_points"),
    ("nufft.plan_build_s", "s", "setup", ("nufft.plan",), "total"),
    ("nufft.plans", "count", "setup", ("nufft.plan",), "calls"),
    ("cpm_surface.band_build_s", "s", "setup", ("cpm_surface.build_band",), "total"),
    ("cpm_surface.closest_s", "s", "setup", ("cpm_surface.closest",), "self"),
    ("cpm_surface.closest_points", "count", "setup", ("cpm_surface.closest",), "points"),
    ("cpm_surface.diffuser_build_s", "s", "setup", ("cpm_surface.SurfaceDiffuser",), "total"),
    ("cpm_surface.diffuse_s", "s", "solve", ("cpm_surface.diffuse",), "self"),
]


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-pass layer totals from the spans of `passes` identical passes.

    Sizes (max:<key>) are not divided; every other value is the sum over the
    run divided by the number of passes.
    """
    selfs = self_times(spans)
    phase_of = phases(spans)
    out = {}
    for metric, _unit, phase, names, what in LAYER_METRICS:
        chosen = [s for s in spans if s.name in names and phase_of[s.id] == phase]
        if what == "self":
            value = sum(selfs[s.id] for s in chosen) / passes
        elif what == "total":
            value = sum(s.end - s.start for s in chosen) / passes
        elif what == "calls":
            value = len(chosen) / passes
        elif what.startswith("max:"):
            key = what[4:]
            value = max((s.counts.get(key, 0) for s in chosen), default=0)
        else:
            value = sum(s.counts.get(what, 0) for s in chosen) / passes
        out[metric] = value
    return out

"""Tests of the benchmark itself: generators, span arithmetic and checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from orthoflow import field  # noqa: E402
from spans import LAYER_METRICS, Span, Tracer, covered, layer_metrics, self_times  # noqa: E402

SEEDS = range(8)


# -- generators --------------------------------------------------------------

def test_torus_field_repeats_per_seed_and_differs_across_seeds():
    fields = {s: workloads.torus_field(s, size=64).data.tobytes() for s in SEEDS}
    assert workloads.torus_field(3, size=64).data.tobytes() == fields[3]
    assert len(set(fields.values())) == len(fields)


@pytest.mark.parametrize("seed", SEEDS)
def test_islands_are_disjoint_and_do_not_wrap(seed):
    islands = workloads.place_islands(np.random.default_rng([seed, 0]))
    assert len(islands) == workloads.ISLANDS
    assert workloads.ISLAND_R_MAX < 0.25
    min_sep = 2 * workloads.ISLAND_R_MAX + workloads.ISLAND_GAP
    for i, a in enumerate(islands):
        assert a[2] + a[3] <= workloads.ISLAND_R_MAX
        for b in islands[i + 1:]:
            d = np.hypot(*(workloads._periodic(np.subtract(a[:2], b[:2]))))
            assert d >= min_sep


@pytest.mark.parametrize("seed", SEEDS)
def test_torus_field_is_orthogonal_with_volume_target_inside(seed):
    f = workloads.torus_field(seed, size=128)
    assert f.orthogonality_defect() <= checks.ORTHOGONALITY_TOL
    target = field.plus_volume(f)
    assert 0.0 < target < f.total_measure


@pytest.fixture(scope="module")
def bands():
    return {"sphere": workloads.desk_band("sphere", 0.4, 0.05),
            "peanut": workloads.desk_band("peanut", 0.6, 0.1)}


@pytest.mark.parametrize("surface", ["sphere", "peanut"])
def test_two_patch_field_repeats_and_splits_the_surface(bands, surface):
    band = bands[surface]
    made = {}
    for seed in SEEDS:
        inputs = workloads.surface_inputs(seed)
        assert np.linalg.det(inputs.plus) > 0 > np.linalg.det(inputs.minus)
        f = workloads.two_patch_field(band, inputs)
        assert f.orthogonality_defect() <= checks.ORTHOGONALITY_TOL
        assert 0.0 < field.plus_volume(f) < f.total_measure
        made[seed] = f.data.tobytes()
    again = workloads.two_patch_field(band, workloads.surface_inputs(5))
    assert again.data.tobytes() == made[5]
    assert len(set(made.values())) == len(made)


# -- spans ---------------------------------------------------------------------

def _span(i, name, start, end, parent=None, **counts):
    return Span(i, name, start, end, parent, dict(counts))


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_subtracts_child_coverage_only():
    spans = [_span(0, "solve", 0.0, 10.0),
             _span(1, "a", 1.0, 4.0, 0),
             _span(2, "a.child", 2.0, 3.0, 1),
             _span(3, "b", 5.0, 6.5, 0)]
    got = self_times(spans)
    assert got == pytest.approx({0: 10.0 - 4.5, 1: 2.0, 2: 1.0, 3: 1.5})


def test_layer_metrics_per_pass_and_by_phase():
    spans = [_span(0, "setup", 0.0, 2.0),
             _span(1, "nufft.plan", 0.5, 1.5, 0, grid_points=8),
             _span(2, "solve", 2.0, 10.0),
             _span(3, "nufft.type1", 2.0, 5.0, 2, spread_entries=100),
             _span(4, "nufft.type1", 5.0, 6.0, 2, spread_entries=100),
             _span(5, "matgeom.project_orthogonal_stack", 6.0, 8.0, 2,
                   matrices=7, singular=1),
             _span(6, "field.dets", 7.0, 7.5, 5)]
    got = layer_metrics(spans, passes=2)
    assert got["nufft.type1_s"] == pytest.approx(2.0)
    assert got["nufft.type1_calls"] == 1.0
    assert got["nufft.spread_entries"] == 100.0
    assert got["nufft.plans"] == 0.5
    assert got["nufft.grid_points"] == 8
    assert got["matgeom.project_s"] == pytest.approx(0.75)
    assert got["matgeom.singular"] == 0.5
    assert got["field.dets_s"] == pytest.approx(0.25)
    assert got["torus_heat.diffuse_s"] == 0.0
    assert set(got) == {m for m, *_ in LAYER_METRICS}


def test_tracer_patches_counts_restores_and_reports_missing(monkeypatch):
    ticks = iter(range(100))
    mod = types.ModuleType("fake_layer")

    class Thing:
        def work(self, x):
            return x + 1

    def outer(x):
        return mod.Thing().work(x) * 2

    mod.Thing, mod.outer = Thing, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    original_work = Thing.work

    def count_x(span, args, kwargs, result, tracer):
        span.counts["x"] = args[0]

    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install([("fake_layer:outer", "outer", count_x),
                    ("fake_layer:Thing.work", "work", None),
                    ("fake_layer:gone", "gone", None)])
    with tracer.span("solve"):
        assert mod.outer(3) == 8
    tracer.uninstall()

    assert tracer.missing == ["fake_layer:gone"]
    assert mod.outer is outer and Thing.work is original_work
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("solve", None), ("outer", 0), ("work", 1)]
    assert tracer.spans[1].counts == {"x": 3}
    assert self_times(tracer.spans) == {0: 2.0, 1: 2.0, 2: 1.0}


# -- checks --------------------------------------------------------------------

def test_energy_check_rejects_a_rise_beyond_the_slack():
    slack = checks.energy_slack(2, 1.0, 0.01)
    assert checks.check_energy([3.0, 2.0, 2.0 + 0.5 * slack, 1.0], 2, 1.0, 0.01) == []
    assert checks.check_energy([3.0, 2.0, 2.5], 2, 1.0, 0.01)


def test_orthogonality_check_rejects_a_non_orthogonal_field():
    f = workloads.torus_field(0, size=16)
    assert checks.check_orthogonal(f) == []
    bad = f.data.copy()
    bad[3, 4] *= 1.001
    assert checks.check_orthogonal(f.copy_with(bad))


def test_max_principle_volume_and_nufft_checks_reject_violations():
    assert checks.check_max_principle(np.sqrt(2), 1.0, 2) == []
    assert checks.check_max_principle(np.sqrt(2) + 1e-3, 1.0, 2)
    assert checks.check_max_principle(1.0, 1.01, 2)
    assert checks.check_volume([0.5, 0.5 + 1e-4], 0.5, 1e-3) == []
    assert checks.check_volume([0.5, 0.51], 0.5, 1e-3)
    assert checks.check_nufft(1e-7, 1e-7, 1e-6) == []
    assert checks.check_nufft(1e-7, 2e-6, 1e-6)
    assert checks.check_surface_error(0.02)
    assert checks.check_same_digest(["a", "b"])


def test_roundtrip_check_rejects_any_changed_bit(tmp_path):
    f = workloads.torus_field(1, size=16)
    path = tmp_path / "f.mbof"
    field.write_snapshot(f, path)
    assert checks.check_roundtrip(f, field.read_snapshot(path)) == []
    bad = f.data.copy()
    bad.flat[0] = np.nextafter(bad.flat[0], 2.0)
    assert checks.check_roundtrip(f, f.copy_with(bad))

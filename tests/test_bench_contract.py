"""The benchmark's contract with the library: one pass of every workload.

perfbench drives orthoflow through its public API (perfbench/README.md).  A
change that renames or moves what it uses, or breaks a check it applies to a
run, fails here instead of only when the benchmark runs.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_passes_every_check(name, tmp_path):
    w = workloads.WORKLOADS[name]
    record, state = run.run_pass(w, w.inputs(SEED), None, tmp_path / name)
    assert record["failures"] == []
    if w is workloads.SPHERE_ORACLE:
        diffuser = state.diffuser
        assert workloads.surface_rel_err(SEED, diffuser) <= 0.01
        err1, err2 = workloads.nufft_errors(SEED, diffuser)
        assert err1 <= diffuser.eps and err2 <= diffuser.eps


@pytest.mark.parametrize("seed", range(1, 41))
def test_torus_volume_pass_has_no_failures(seed, tmp_path):
    # the volume-preserving torus run is the one a changed threshold or
    # projection can break on some seeds only
    w = workloads.WORKLOADS["torus-volume"]
    record, _ = run.run_pass(w, w.inputs(seed), None, tmp_path)
    assert record["failures"] == []

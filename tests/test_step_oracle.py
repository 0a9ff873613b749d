"""The one-branch MBO step against the two-branch step it replaced.

The oracle builds both projection stacks with the two-branch kernel kept
here, picks between them with np.where, and thresholds with a full stable
argsort.  The step under test runs the factor pass, a partial selection and
one assembly; both must give the same bits.
"""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orthoflow.cli import _build_run, parse_config
from orthoflow.field import MatrixField
from orthoflow.matgeom import _matrix2, _unit, determinants, projection_factors
from orthoflow.mbo import (MboConfig, StepStats, _energy, _max_frobenius, mbo_step,
                           select_threshold)
from orthoflow.scenarios import _MINUS_SEED, _PLUS_SEED, PATCH_MINUS, PATCH_PLUS
from projection_helper import both_projections
from test_mbo import FixedDiffuser

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def reference_select_threshold(values, weights, target):
    """(lam, plus_indices) from a full stable argsort of -values."""
    values = np.asarray(values, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    order = np.argsort(-values, kind="stable")
    reached = np.cumsum(weights[order]) >= target
    k = int(np.argmax(reached)) if reached.any() else len(values) - 1
    if k + 1 < len(values):
        lam = 0.5 * (values[order[k]] + values[order[k + 1]])
    else:
        lam = float(values.min()) - 1.0
    return float(lam), order[:k + 1]


def reference_projections(mats):
    """(plus, minus, gain, singular, det): both stacks built in full."""
    n = mats.shape[-1]
    det = determinants(mats)
    singular = det == 0.0
    if n == 1:
        ones = np.ones_like(mats)
        return ones, -ones, 2.0 * mats[..., 0, 0], singular, det
    if n == 2:
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, d = mats[..., 1, 0], mats[..., 1, 1]
        px, py = a + d, c - b
        mx, my = a - d, b + c
        rp, rm = np.hypot(px, py), np.hypot(mx, my)
        gain = np.where(singular, 0.0, rp - rm)
        px, py = _unit(px, py, rp)
        mx, my = _unit(mx, my, rm)
        return (_matrix2(px, -py, py, px), _matrix2(mx, my, my, -mx), gain,
                singular, det)
    u, s, vh = np.linalg.svd(mats)
    uv = u @ vh
    u[..., :, -1] = -u[..., :, -1]
    uvd = u @ vh
    so = (determinants(uv) > 0)[..., None, None]
    gain = 2.0 * s[..., -1] * np.sign(det)
    return np.where(so, uv, uvd), np.where(so, uvd, uv), gain, singular, det


def reference_step(f, cfg, plus):
    """The two-branch step: both stacks, then np.where on the chosen mask."""
    diffused = cfg.backend.diffuse(f)
    frob = _max_frobenius(diffused.data)
    energy = _energy(f, diffused, cfg.tau)
    proj_plus, proj_minus, gain, singular, det = reference_projections(diffused.flat())
    if cfg.volume_target is None:
        new_plus = det >= 0.0
    else:
        _, idx = reference_select_threshold(gain, f.weights, cfg.volume_target)
        new_plus = np.zeros(f.npoints, dtype=bool)
        new_plus[idx] = True
    new_data = np.where(new_plus[:, None, None], proj_plus, proj_minus)
    new = f.copy_with(new_data.reshape(f.data.shape))
    return new, StepStats(energy, _max_frobenius(new.data - f.data),
                          int(np.count_nonzero(new_plus != plus)),
                          int(np.count_nonzero(singular)), frob,
                          float(np.abs(det).max()), new_plus)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_step(got, want):
    (new, stats), (ref, ref_stats) = got, want
    assert same_bits(new.data, ref.data)
    assert stats == ref_stats
    assert same_bits(stats.energy, ref_stats.energy)
    np.testing.assert_array_equal(stats.plus, ref_stats.plus)


def awkward_stack(rng, n, count):
    """Gaussian matrices with zero, rank-deficient, subnormal and tied rows."""
    mats = rng.standard_normal((count, n, n))
    mats[0] = 0.0
    mats[1] = np.outer(rng.standard_normal(n), rng.standard_normal(n))
    mats[2] = rng.standard_normal((n, n)) * 5e-320
    mats[3] = np.eye(n) * 3e-322
    mats[4] = mats[5]                       # equal gains
    mats[6] = -mats[7]
    mats[8, :, -1] = 0.0                    # zero column
    return mats


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("volume", [False, True])
def test_step_matches_two_branch_oracle(n, volume):
    rng = np.random.default_rng(40 + n)
    count = 60
    q, _ = np.linalg.qr(rng.standard_normal((count, n, n)))
    weights = rng.uniform(0.5, 2.0, count)
    f = MatrixField.cloud_field(rng.standard_normal((count, 3)), weights, q)
    target = 0.45 * weights.sum() if volume else None
    cfg = MboConfig(backend=FixedDiffuser(awkward_stack(rng, n, count)),
                    volume_target=target)
    plus = f.dets() > 0
    assert_same_step(mbo_step(f, cfg), reference_step(f, cfg, plus))


def test_torus_star_volume_steps_match_oracle():
    # the initial star has 8 points whose gains tie to roundoff, so the
    # volume step depends on the ascending-index tie order
    initial, cfg = _build_run(parse_config(CONFIGS / "torus_star_volume.txt"))
    f = ref = initial
    plus = f.dets().reshape(-1) > 0
    for _ in range(3):
        got = mbo_step(f, cfg, plus=plus)
        want = reference_step(ref, cfg, plus)
        assert_same_step(got, want)
        (f, stats), (ref, _) = got, want
        plus = stats.plus


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_assembly_equals_where_of_both_stacks(n):
    rng = np.random.default_rng(n)
    mats = awkward_stack(rng, n, 40).reshape(5, 8, n, n)
    plus, minus, _, _, _ = reference_projections(mats)
    factors = projection_factors(mats)
    for _ in range(4):
        mask = rng.random((5, 8)) < 0.5
        want = np.where(mask[..., None, None], plus, minus)
        assert same_bits(factors.assemble(mask), want)
    for got, want in zip(both_projections(mats), reference_projections(mats)):
        assert same_bits(got, want)


@pytest.mark.parametrize("n", [3, 4])
def test_assemble_leaves_its_factors_unwritten(n):
    # with U and V^t read-only, every assembly still gives the oracle's bits
    rng = np.random.default_rng(50 + n)
    mats = awkward_stack(rng, n, 40)
    factors = projection_factors(mats)
    u, vh, _ = factors._parts
    before = u.copy(), vh.copy()
    u.setflags(write=False)
    vh.setflags(write=False)
    plus, minus, _, _, _ = reference_projections(mats)
    for mask in (True, False, rng.random(40) < 0.5):
        want = np.where(np.broadcast_to(mask, (40,))[:, None, None], plus, minus)
        assert same_bits(factors.assemble(mask), want)
    assert same_bits(u, before[0]) and same_bits(vh, before[1])


def test_surface_patches_match_the_two_branch_oracle():
    assert same_bits(PATCH_PLUS, reference_projections(_PLUS_SEED)[0])
    assert same_bits(PATCH_MINUS, reference_projections(_MINUS_SEED)[1])


# -- the partial select against the full sort ----------------------------------

TIED = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0])


@st.composite
def threshold_cases(draw):
    """Values with many ties and signed zeros, or spread floats; uniform,
    non-uniform or widely ranging weights (min w small enough that the
    candidate bound exceeds N and the full sort runs); targets just above 0,
    just below the total, exactly at a running sum, or anywhere between."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.choice(TIED, n)
    else:
        values = rng.uniform(-1e3, 1e3, n)
    weights = draw(st.sampled_from([
        lambda: np.full(n, rng.uniform(0.1, 10.0)),
        lambda: rng.uniform(0.1, 10.0, n),
        lambda: rng.choice([1e-6, 1.0, 1e3], n),
    ]))()
    total = float(weights.sum())
    kind = draw(st.sampled_from(["low", "high", "cumsum", "fraction"]))
    if kind == "low":
        target = np.nextafter(0.0, 1.0) if draw(st.booleans()) else 1e-3 * weights.min()
    elif kind == "high":
        target = np.nextafter(total, 0.0)
    elif kind == "cumsum":
        cum = np.cumsum(weights[np.argsort(-values, kind="stable")])
        target = cum[draw(st.integers(0, n - 1))]
    else:
        target = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * total
    target = float(target)
    assume(0.0 < target < total)
    return values, weights, target


@settings(max_examples=400, deadline=None)
@given(threshold_cases())
def test_partial_select_equals_full_sort(case):
    values, weights, target = case
    got = select_threshold(values, weights, target)
    lam, idx = reference_select_threshold(values, weights, target)
    np.testing.assert_array_equal(got.plus_indices, idx)
    assert same_bits(got.lam, lam)

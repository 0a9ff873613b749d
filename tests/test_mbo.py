"""MBO iteration: energy monotonicity, projections, thresholding, convergence."""
import numpy as np
import pytest

from orthoflow.errors import NumericalHealthError
from orthoflow.field import GridSpec, MatrixField, plus_volume
from orthoflow.matgeom import ProjectionFactors, projection_factors
from orthoflow.mbo import MboConfig, lyapunov_energy, mbo_run, mbo_step, select_threshold
from orthoflow.scenarios import (reflection_branch, rotation_branch, surface_initial,
                                 torus_initial)
from orthoflow.torus_heat import TorusDiffuser
from projection_helper import both_projections


def constant_rotation_field(grid, angle=0.3):
    x, _ = grid.meshgrid()
    return MatrixField.grid_field(grid, rotation_branch(np.full_like(x, angle)))


def torus_cfg(grid, tau, **kw):
    return MboConfig(backend=TorusDiffuser(grid, tau), **kw)


def smooth_random(rng, x, y, modes=3):
    """Random sum of low periodic modes on the unit torus; never constant."""
    out = np.zeros_like(x)
    for _ in range(modes):
        kx, ky = rng.integers(1, 4), rng.integers(-3, 4)
        out += rng.standard_normal() * np.cos(
            2 * np.pi * (kx * x + ky * y) + rng.uniform(0, 2 * np.pi))
    return out


class FixedDiffuser:
    """Diffuser whose result is a fixed stack, so a step projects chosen matrices."""

    tau = 1.0

    def __init__(self, mats):
        self.mats = mats

    def diffuse(self, f):
        return f.copy_with(self.mats)


class TestLyapunovEnergy:
    def test_constant_field_zero(self):
        g = GridSpec((64, 64))
        f = constant_rotation_field(g)
        d = TorusDiffuser(g, 0.01)
        assert abs(lyapunov_energy(f, d)) <= 1e-10

    def test_nonnegative_on_orthogonal_fields(self):
        g = GridSpec((32, 32))
        rng = np.random.default_rng(0)
        d = TorusDiffuser(g, 0.02)
        for _ in range(5):
            alpha = rng.uniform(-np.pi, np.pi, (32, 32))
            mask = rng.random((32, 32)) < 0.5
            data = np.where(mask[..., None, None], rotation_branch(alpha),
                            reflection_branch(alpha))
            f = MatrixField.grid_field(g, data)
            assert lyapunov_energy(f, d) >= -1e-10

    def test_grows_as_tau_shrinks(self):
        # interface energy scales like length/sqrt(tau) for a split field
        g = GridSpec((128, 128))
        x, y = g.meshgrid()
        data = np.where((x < 0)[..., None, None],
                        rotation_branch(np.zeros_like(x)),
                        reflection_branch(np.zeros_like(x)))
        f = MatrixField.grid_field(g, data)
        taus = [0.02, 0.01, 0.005, 0.0025]
        energies = [lyapunov_energy(f, TorusDiffuser(g, t)) for t in taus]
        assert all(b > a for a, b in zip(energies, energies[1:]))


class TestMboStep:
    def test_constant_fixed_point(self):
        g = GridSpec((32, 32))
        f = constant_rotation_field(g)
        new, stats = mbo_step(f, torus_cfg(g, 0.01))
        assert stats.max_change <= 1e-13
        assert stats.sign_flips == 0

    def test_so2_equivalence_with_complex_oracle(self):
        # rotation-valued fields evolve exactly like the normalized complex
        # heat flow of the first column
        size = 128
        g = GridSpec((size, size))
        x, y = g.meshgrid()
        alpha = (np.pi / 2) * np.sin(2 * np.pi * (x + y))
        f = MatrixField.grid_field(g, rotation_branch(alpha))
        tau = 8 * g.dx
        new, _ = mbo_step(f, torus_cfg(g, tau))

        k = np.fft.fftfreq(size, d=g.dx)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        mult = np.exp(-4 * np.pi**2 * tau * (kx**2 + ky**2))
        w = np.exp(1j * alpha)
        wd = np.fft.ifft2(np.fft.fft2(w) * mult)
        wn = wd / np.abs(wd)
        oracle = rotation_branch(np.angle(wn))
        assert np.abs(new.data - oracle).max() <= 1e-12

    def test_disk_shrinks_by_curvature_rate(self):
        # one n=1 step removes 2 pi tau of area (ideal curvature flow rate);
        # tau = 2dx keeps the kernel width well under the disk radius, where
        # the rate is quantitative (at 8dx the one-step drop overshoots ~33%)
        g = GridSpec((256, 256))
        f = torus_initial("torus_disk_n1", g, disk_radius=0.3)
        tau = 2 * g.dx
        a0 = plus_volume(f)
        new, _ = mbo_step(f, torus_cfg(g, tau))
        drop = a0 - plus_volume(new)
        assert drop == pytest.approx(2 * np.pi * tau, rel=0.20)

    def test_singular_diffused_matrices_go_to_so(self):
        mats = np.stack([np.diag([1.0, 0.0]), np.diag([2.0, 0.5]),
                         np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([-1.0, 0.5])])
        k = len(mats)
        f = MatrixField.cloud_field(np.zeros((k, 3)), np.ones(k),
                                    np.tile(np.eye(2), (k, 1, 1)))
        new, stats = mbo_step(f, MboConfig(backend=FixedDiffuser(mats)))
        assert stats.singular_count == 2
        np.testing.assert_array_equal(stats.plus, [True, True, True, False])
        np.testing.assert_allclose(np.linalg.det(new.data), [1.0, 1.0, 1.0, -1.0],
                                   atol=1e-12)


def gain(f):
    """The stacked reassignment gain <T+ - T-, A>_F of every point of f."""
    return projection_factors(f.flat()).gain


class TestDeltaE:
    def test_identity(self):
        g = GridSpec((8, 8))
        f = constant_rotation_field(g, angle=0.0)
        assert np.allclose(gain(f), 2.0)

    def test_reflection(self):
        g = GridSpec((8, 8))
        x, _ = g.meshgrid()
        f = MatrixField.grid_field(g, reflection_branch(np.zeros_like(x)))
        assert np.allclose(gain(f), -2.0)

    def test_random_vs_projection_oracle(self):
        rng = np.random.default_rng(1)
        mats = rng.standard_normal((30, 2, 2))
        g = GridSpec((8, 8))
        data = np.tile(np.eye(2), (8, 8, 1, 1))
        f = MatrixField.grid_field(g, data)
        f.data.reshape(-1, 2, 2)[:30] = mats
        gains = gain(f)[:30]
        for i, m in enumerate(mats):
            plus, minus, _, _, _ = both_projections(m)
            expected = np.sum((plus - minus) * m)
            assert gains[i] == pytest.approx(expected, abs=1e-10)
            s = np.linalg.svd(m, compute_uv=False)
            assert abs(gains[i]) == pytest.approx(2 * s[-1], abs=1e-10)


class TestSelectThreshold:
    def test_hand_traced(self):
        res = select_threshold([3.0, 2.0, 1.0], [1.0, 1.0, 1.0], 2.0)
        assert res.lam == 1.5
        assert sorted(res.plus_indices.tolist()) == [0, 1]

    def test_all_included_boundary(self):
        vals = [3.0, 2.0, 1.0]
        res = select_threshold(vals, [1.0, 1.0, 1.0], 2.75)
        assert sorted(res.plus_indices.tolist()) == [0, 1, 2]
        assert res.lam == 0.0          # min value - 1

    def test_uniform_half(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal(101)
        res = select_threshold(vals, np.ones(101), 50.5)
        assert abs(len(res.plus_indices) - 50.5) <= 1

    def test_tie_break_stable(self):
        res = select_threshold([1.0, 1.0, 1.0, 1.0], [1.0] * 4, 2.0)
        assert res.plus_indices.tolist() == [0, 1]

    def test_invariant_removing_last_drops_below(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(40)
        w = rng.uniform(0.5, 2.0, 40)
        target = 0.4 * w.sum()
        res = select_threshold(vals, w, target)
        inc = w[res.plus_indices].sum()
        assert inc >= target
        assert inc - w[res.plus_indices[-1]] < target

    def test_running_sum_short_of_target_by_roundoff_takes_every_point(self):
        # the range check uses the pairwise total; the sequential running sum
        # of these weights ends just below it
        w = np.full(1000, 0.1 + 1e-3 * np.pi)
        target = np.nextafter(w.sum(), 0.0)
        assert np.cumsum(w)[-1] < target
        vals = np.random.default_rng(4).standard_normal(1000)
        res = select_threshold(vals, w, target)
        assert sorted(res.plus_indices.tolist()) == list(range(1000))
        assert res.lam == vals.min() - 1.0

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            select_threshold([1.0, 2.0], [1.0, 1.0], 2.5)


class TestVolumeStep:
    def test_preserves_volume_to_one_cell(self):
        g = GridSpec((64, 64))
        f = torus_initial("torus_volume_star", g)
        target = plus_volume(f)
        cfg = torus_cfg(g, 2 * g.dx, volume_target=target)
        new, _ = mbo_step(f, cfg)
        assert abs(plus_volume(new) - target) <= g.cell_weight

    def test_six_point_enumeration_optimality(self):
        # brute force over all sign patterns meeting the quota: the
        # thresholded reassignment maximizes sum_i w <B_i, A~_i>
        rng = np.random.default_rng(4)
        mats = rng.standard_normal((6, 2, 2))
        weights = np.ones(6)
        target = 3.0
        plus, minus, gains, _, _ = both_projections(mats)
        res = select_threshold(gains, weights, target)
        chosen = np.zeros(6, dtype=bool)
        chosen[res.plus_indices] = True

        def score(mask):
            b = np.where(mask[:, None, None], plus, minus)
            return np.sum(b * mats)

        best = -np.inf
        for bits in range(64):
            mask = np.array([(bits >> i) & 1 for i in range(6)], dtype=bool)
            w_plus = weights[mask].sum()
            if w_plus < target:
                continue
            if mask.any() and w_plus - weights[mask][-1] >= target:
                continue       # does not meet the quota minimally
            best = max(best, score(mask))
        assert score(chosen) >= best - 1e-12

    @pytest.mark.parametrize("seed", range(32))
    def test_random_two_branch_fields(self, seed):
        # the volume path on seeded fields: no raise, the quota held to one
        # cell at every step, and the energy non-increasing
        g = GridSpec((48, 48))
        x, y = g.meshgrid()
        rng = np.random.default_rng(seed)
        alpha = smooth_random(rng, x, y)
        phi = smooth_random(rng, x, y)
        inside = phi > np.quantile(phi, rng.uniform(0.2, 0.8))
        f = MatrixField.grid_field(g, np.where(inside[..., None, None],
                                               rotation_branch(alpha),
                                               reflection_branch(alpha)))
        target = plus_volume(f)
        cfg = torus_cfg(g, 2 * g.dx, max_iters=80, volume_target=target)
        res = mbo_run(f, cfg)
        pv = np.array([r.plus_volume for r in res.log.rows])
        assert np.abs(pv - target).max() <= g.cell_weight
        slack = 1e-9 * f.n * f.total_measure / cfg.tau
        assert np.all(np.diff(res.log.energies()) <= slack)

    def test_volume_run_monotone_and_constrained(self):
        g = GridSpec((128, 128))
        f = torus_initial("torus_volume_star", g)
        target = plus_volume(f)
        cfg = torus_cfg(g, 2 * g.dx, max_iters=40, volume_target=target)
        res = mbo_run(f, cfg)
        pv = np.array([r.plus_volume for r in res.log.rows])
        assert np.abs(pv - target).max() <= g.cell_weight
        es = res.log.energies()
        slack = 1e-9 * 2 * 1.0 / cfg.tau
        assert np.all(np.diff(es) <= slack)


class TestMboRun:
    def test_constant_terminates_immediately(self):
        g = GridSpec((32, 32))
        f = constant_rotation_field(g)
        res = mbo_run(f, torus_cfg(g, 0.01))
        assert res.converged and res.iterations == 1
        assert len(res.log.rows) == 1
        assert res.log.rows[0].energy == pytest.approx(0.0, abs=1e-10)

    def test_converged_field_is_fixed_point(self):
        g = GridSpec((64, 64))
        f = torus_initial("torus_star_defect", g)
        cfg = torus_cfg(g, 2 * g.dx, max_iters=500)
        res = mbo_run(f, cfg)
        assert res.converged
        _, stats = mbo_step(res.final, cfg)
        assert stats.max_change <= cfg.stop_tol

    def test_energy_monotone_star(self):
        g = GridSpec((128, 128))
        f = torus_initial("torus_star_defect", g)
        cfg = torus_cfg(g, 2 * g.dx, max_iters=200)
        res = mbo_run(f, cfg)
        es = res.log.energies()
        slack = 1e-9 * 2 * 1.0 / cfg.tau
        assert np.all(np.diff(es) <= slack)

    def test_so2_closure_along_run(self):
        g = GridSpec((64, 64))
        x, y = g.meshgrid()
        f = MatrixField.grid_field(
            g, rotation_branch((np.pi / 2) * np.sin(2 * np.pi * (x + y))))
        cfg = torus_cfg(g, 4 * g.dx, max_iters=10, stop_tol=0.0)
        cur = f
        for _ in range(5):
            cur, _ = mbo_step(cur, cfg)
            d = cur.data
            # rotation form: equal diagonal, opposite off-diagonal
            assert np.abs(d[..., 0, 0] - d[..., 1, 1]).max() <= 1e-10
            assert np.abs(d[..., 0, 1] + d[..., 1, 0]).max() <= 1e-10
            assert np.all(cur.dets() > 0)

    def test_n1_reaches_exact_fixed_point(self):
        g = GridSpec((32, 32))
        rng = np.random.default_rng(5)
        for _ in range(5):
            data = rng.choice([-1.0, 1.0], size=(32, 32))[..., None, None]
            f = MatrixField.grid_field(g, data)
            cfg = torus_cfg(g, 2 * g.dx, max_iters=500, stop_tol=0.0)
            res = mbo_run(f, cfg)
            assert res.converged and res.iterations <= 500
            assert res.log.rows[-1].max_change == 0.0
            assert res.log.rows[-1].sign_flips == 0

    def test_max_principle_diagnostics_recorded(self):
        g = GridSpec((128, 128))
        f = torus_initial("torus_star_defect", g)
        res = mbo_run(f, torus_cfg(g, 2 * g.dx, max_iters=30, stop_tol=0.0))
        assert res.max_frobenius <= np.sqrt(2) + 1e-9
        assert res.max_abs_det <= 1.0 + 1e-9

    def test_snapshot_cadence(self):
        g = GridSpec((64, 64))
        f = torus_initial("torus_star_defect", g)
        res = mbo_run(f, torus_cfg(g, 2 * g.dx, max_iters=7, stop_tol=0.0,
                                   snapshot_every=3))
        assert [it for it, _ in res.snapshots] == [3, 6]


class TestSurfaceBackendRun:
    def test_sphere_run_monotone_and_bounded(self):
        from orthoflow.cpm_surface import (BandSpec, Sphere, SurfaceDiffuser,
                                           band_width, build_band)
        tau, eps = 0.08, 1e-6
        band = build_band(Sphere(1.0),
                          BandSpec(dx=0.25, w_b=band_width(tau, eps), eps=eps))
        f = surface_initial("sphere_two_patches", band)
        dif = SurfaceDiffuser(band, tau, eps)
        cfg = MboConfig(backend=dif, max_iters=5, stop_tol=1e-8)
        res = mbo_run(f, cfg)
        es = res.log.energies()
        slack = 1e-9 * 3 * f.total_measure / tau
        assert np.all(np.diff(es) <= slack)
        assert res.max_frobenius <= np.sqrt(3) + 1e-6
        assert res.max_abs_det <= 1.0 + 1e-6


class TestSinglePassStep:
    """mbo_run checks each field once and carries the plus mask between steps."""

    def count_calls(self, monkeypatch, name):
        calls = []
        original = getattr(MatrixField, name)

        def counted(self, *args, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(MatrixField, name, counted)
        return calls

    @pytest.mark.parametrize("volume", [False, True])
    def test_one_check_per_field_and_one_determinant_pass(self, monkeypatch, volume):
        g = GridSpec((64, 64))
        f = torus_initial("torus_volume_star", g)
        target = plus_volume(f) if volume else None
        cfg = torus_cfg(g, 2 * g.dx, max_iters=8, stop_tol=0.0, volume_target=target)
        checks = self.count_calls(monkeypatch, "require_orthogonal")
        dets = self.count_calls(monkeypatch, "dets")
        res = mbo_run(f, cfg)
        assert res.iterations == 8
        assert len(checks) == res.iterations + 1
        assert len(dets) == 1

    @pytest.mark.parametrize("volume", [False, True])
    def test_carried_mask_matches_determinants(self, volume):
        g = GridSpec((64, 64))
        f = torus_initial("torus_volume_star", g)
        target = plus_volume(f) if volume else None
        cfg = torus_cfg(g, 2 * g.dx, max_iters=6, stop_tol=0.0, volume_target=target,
                        snapshot_every=1)
        res = mbo_run(f, cfg)
        prev = f
        for (it, snap), row in zip(res.snapshots, res.log.rows):
            assert row.plus_volume == plus_volume(snap)
            flips = np.count_nonzero((snap.dets() > 0) != (prev.dets() > 0))
            assert row.sign_flips == flips
            prev = snap

    @pytest.mark.parametrize("volume", [False, True])
    def test_carried_mask_equals_fresh_check(self, volume):
        g = GridSpec((64, 64))
        f = torus_initial("torus_volume_star", g)
        cfg = torus_cfg(g, 2 * g.dx, volume_target=plus_volume(f) if volume else None)
        new_a, stats_a = mbo_step(f, cfg)
        new_b, stats_b = mbo_step(f, cfg, plus=f.dets().reshape(-1) > 0)
        np.testing.assert_array_equal(new_a.data, new_b.data)
        assert stats_a == stats_b
        np.testing.assert_array_equal(stats_a.plus, new_a.dets().reshape(-1) > 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_finite_diffusion_is_a_health_error(self, n):
        g = GridSpec((8, 8))
        f = MatrixField.grid_field(g, np.tile(np.eye(n), (8, 8, 1, 1)))

        class NanDiffuser:
            tau = 0.01

            def diffuse(self, field):
                data = field.data.copy()
                data[2, 3, 0, 0] = np.nan
                return field.copy_with(data)

        with pytest.raises(NumericalHealthError, match="non-finite diffusion"):
            mbo_run(f, MboConfig(backend=NanDiffuser()))

    def test_non_orthogonal_projection_output_is_a_health_error(self, monkeypatch):
        assemble = ProjectionFactors.assemble
        monkeypatch.setattr(ProjectionFactors, "assemble",
                            lambda self, plus: 2.0 * assemble(self, plus))
        g = GridSpec((32, 32))
        with pytest.raises(NumericalHealthError, match="projection output"):
            mbo_run(constant_rotation_field(g), torus_cfg(g, 0.01))


class CountingDiffuser:
    """Pass-through Diffuser that counts diffuse calls."""

    def __init__(self, backend):
        self.backend = backend
        self.calls = 0

    @property
    def tau(self) -> float:
        return self.backend.tau

    def diffuse(self, f):
        self.calls += 1
        return self.backend.diffuse(f)


class TestDiffuserContract:
    """The step owns its diffusion: one diffuse per iteration, and the logged
    energy is the Lyapunov energy of the field entering the step."""

    @pytest.mark.parametrize("volume", [False, True])
    def test_one_diffuse_per_iteration_and_logged_energy(self, volume):
        g = GridSpec((64, 64))
        f = torus_initial("torus_volume_star", g)
        target = plus_volume(f) if volume else None
        inner = TorusDiffuser(g, 2 * g.dx)
        counting = CountingDiffuser(inner)
        cfg = MboConfig(backend=counting, max_iters=6, stop_tol=0.0,
                        volume_target=target, snapshot_every=1)
        res = mbo_run(f, cfg)
        assert res.iterations == 6
        assert counting.calls == res.iterations
        entering = [f] + [snap for _, snap in res.snapshots[:-1]]
        assert len(entering) == len(res.log.rows)
        for field_in, row in zip(entering, res.log.rows):
            assert row.energy == lyapunov_energy(field_in, inner)

    @pytest.mark.parametrize("volume", [False, True])
    def test_step_reports_pre_step_energy(self, volume):
        g = GridSpec((64, 64))
        f = torus_initial("torus_volume_star", g)
        counting = CountingDiffuser(TorusDiffuser(g, 2 * g.dx))
        target = plus_volume(f) if volume else None
        _, stats = mbo_step(f, MboConfig(backend=counting, volume_target=target))
        assert counting.calls == 1
        assert stats.energy == lyapunov_energy(f, counting.backend)

    @pytest.mark.parametrize("stop_tol", [np.nan, np.inf, -1.0])
    def test_stop_tol_must_be_finite_and_non_negative(self, stop_tol):
        g = GridSpec((8, 8))
        with pytest.raises(ValueError, match="stop_tol"):
            torus_cfg(g, 0.01, stop_tol=stop_tol)

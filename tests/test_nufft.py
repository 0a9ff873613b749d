"""NUFFT accuracy against direct summation, plus structural identities."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoflow.cpm_surface import (BandSpec, Sphere, SurfaceDiffuser, band_width,
                                    build_band, peanut_surface)
from orthoflow import nufft
from orthoflow.errors import ConfigurationError
from orthoflow.nufft import (GridderPlan, LatticeSpreader, ModeGrid, direct_type1,
                             direct_type2, es_width, nufft_type1, nufft_type2)


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(42)
    modes = ModeGrid(h=1.0, m_half=16)
    pts = rng.uniform(-np.pi, np.pi, (500, 3))
    coeffs = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    return modes, pts, coeffs


def rel_max_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestType1:
    def test_single_point_at_origin(self):
        modes = ModeGrid(h=1.0, m_half=4)
        out = nufft_type1(np.zeros((1, 3)), np.ones(1), modes, 1e-8)
        assert np.abs(out - 1.0).max() <= 1e-8

    def test_antipodal_cancellation(self):
        modes = ModeGrid(h=1.0, m_half=4)
        pts = np.array([[0.5, 0.2, -0.3], [-0.5, -0.2, 0.3]])
        out = nufft_type1(pts, np.array([1.0, -1.0]), modes, 1e-9)
        assert abs(out[4, 4, 4]) <= 1e-9     # zero mode vanishes

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_accuracy_vs_direct(self, case, tol):
        modes, pts, coeffs = case
        ref = direct_type1(pts, coeffs, modes)
        got = nufft_type1(pts, coeffs, modes, tol)
        assert rel_max_err(got, ref) <= tol

    def test_linearity(self, case):
        modes, pts, coeffs = case
        rng = np.random.default_rng(1)
        other = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        lhs = nufft_type1(pts, 2.5 * coeffs + other, modes, 1e-9)
        rhs = 2.5 * nufft_type1(pts, coeffs, modes, 1e-9) \
            + nufft_type1(pts, other, modes, 1e-9)
        assert rel_max_err(lhs, rhs) <= 1e-12

    def test_scaled_mode_lattice(self):
        rng = np.random.default_rng(2)
        modes = ModeGrid(h=0.75, m_half=6)
        pts = rng.uniform(-np.pi, np.pi, (40, 3))
        coeffs = rng.standard_normal(40) + 0j
        got = nufft_type1(pts, coeffs, modes, 1e-9)
        ref = direct_type1(pts, coeffs, modes)
        assert rel_max_err(got, ref) <= 1e-9


class TestType2:
    def test_zero_mode_constant(self, case):
        modes, pts, _ = case
        spec = np.zeros((32, 32, 32), dtype=complex)
        spec[16, 16, 16] = 1.0
        out = nufft_type2(spec, pts, modes, 1e-8)
        assert np.abs(out - 1.0).max() <= 1e-8

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_accuracy_vs_direct(self, case, tol):
        modes, pts, _ = case
        rng = np.random.default_rng(3)
        spec = rng.standard_normal((32, 32, 32)) + 1j * rng.standard_normal((32, 32, 32))
        ref = direct_type2(spec, pts, modes)
        got = nufft_type2(spec, pts, modes, tol)
        assert rel_max_err(got, ref) <= tol

    def test_uniform_points_match_inverse_dft(self):
        # targets on the regular 2M-point grid: the sum is a padded inverse DFT
        m = 6
        n = 2 * m
        modes = ModeGrid(h=1.0, m_half=m)
        coords = -np.pi + 2 * np.pi * np.arange(n) / n
        xs, ys, zs = np.meshgrid(coords, coords, coords, indexing="ij")
        pts = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
        rng = np.random.default_rng(4)
        spec = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        # oracle: F(x_j) = sum_m f(m) e^{i m (-pi + 2 pi j / n)} via ifftn
        k = np.arange(-m, m)
        phase = np.exp(-1j * np.pi * k)
        g = spec * phase[:, None, None] * phase[None, :, None] * phase[None, None, :]
        embedded = np.zeros((n, n, n), dtype=complex)
        embedded[np.ix_(k % n, k % n, k % n)] = g
        oracle = (n**3) * np.fft.ifftn(embedded).ravel()
        got = nufft_type2(spec, pts, modes, 1e-9)
        assert np.abs(got - oracle).max() / np.abs(oracle).max() <= 1e-9


class TestAdjointAndOracles:
    def test_adjoint_identity(self, case):
        modes, pts, coeffs = case
        rng = np.random.default_rng(5)
        g = rng.standard_normal((32, 32, 32)) + 1j * rng.standard_normal((32, 32, 32))
        lhs = np.sum(nufft_type1(pts, coeffs, modes, 1e-9) * np.conj(g))
        rhs = np.sum(coeffs * np.conj(nufft_type2(g, pts, modes, 1e-9))) / len(pts)
        assert abs(lhs - rhs) / abs(lhs) <= 1e-6

    def test_direct_single_point_matches_fast(self):
        modes = ModeGrid(h=1.0, m_half=3)
        pts = np.array([[0.3, -0.7, 1.1]])
        c = np.array([1.5 - 0.5j])
        fast = nufft_type1(pts, c, modes, 1e-12)
        ref = direct_type1(pts, c, modes)
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max() + 1e-14

    def test_direct_zero_coeffs(self):
        modes = ModeGrid(h=1.0, m_half=3)
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        out = direct_type1(pts, np.zeros(2), modes)
        assert np.all(out == 0)

    def test_direct_guard(self):
        modes = ModeGrid(h=1.0, m_half=32)
        pts = np.zeros((500, 3))
        with pytest.raises(ValueError):
            direct_type1(pts, np.ones(500), modes)


class TestValidation:
    def test_points_outside_box(self):
        modes = ModeGrid(h=1.0, m_half=4)
        with pytest.raises(ValueError):
            nufft_type1(np.array([[np.pi, 0.0, 0.0]]), np.ones(1), modes, 1e-6)

    def test_tol_out_of_range(self):
        modes = ModeGrid(h=1.0, m_half=4)
        pts = np.zeros((1, 3))
        for tol in (1e-13, 0.5):
            with pytest.raises(ValueError):
                nufft_type1(pts, np.ones(1), modes, tol)

    @pytest.mark.parametrize("plan", [GridderPlan, LatticeSpreader])
    @pytest.mark.parametrize("tol", [0.7, 0.5, 0.0100001, 1e-13, 0.0, -1.0, np.nan, np.inf])
    def test_tol_outside_range_one_message(self, plan, tol):
        # the plans share one range check with every eps: ConfigurationError, one message
        with pytest.raises(ConfigurationError) as info:
            plan(np.zeros((1, 3)), ModeGrid(h=1.0, m_half=4), tol)
        assert str(info.value) == f"tol must lie in [1e-12, 0.01], got {tol!r}"

    @pytest.mark.parametrize("plan", [GridderPlan, LatticeSpreader])
    @pytest.mark.parametrize("tol", [1e-12, 1e-2])
    def test_tol_range_ends_accepted(self, plan, tol):
        plan(np.zeros((1, 3)), ModeGrid(h=1.0, m_half=4), tol)

    def test_mode_grid_validation(self):
        with pytest.raises(ValueError):
            ModeGrid(h=-1.0, m_half=4)
        with pytest.raises(ValueError):
            ModeGrid(h=1.0, m_half=0)


class TestMultiColumn:
    """A plan applied to C columns at once equals C single-column calls."""

    NCOMP = 4

    @pytest.fixture(scope="class")
    def plan(self, case):
        modes, pts, _ = case
        return GridderPlan(pts, modes, 1e-9)

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_type1_columns(self, plan, is_complex):
        rng = np.random.default_rng(6)
        coeffs = rng.standard_normal((plan.npts, self.NCOMP))
        if is_complex:
            coeffs = coeffs + 1j * rng.standard_normal(coeffs.shape)
        multi = plan.type1(coeffs)
        assert multi.shape == (32, 32, 32, self.NCOMP)
        for c in range(self.NCOMP):
            assert rel_max_err(multi[..., c], plan.type1(coeffs[:, c])) <= 1e-14

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_type2_columns(self, plan, is_complex):
        rng = np.random.default_rng(7)
        spec = rng.standard_normal((32, 32, 32, self.NCOMP))
        if is_complex:
            spec = spec + 1j * rng.standard_normal(spec.shape)
        multi = plan.type2(spec)
        assert multi.shape == (plan.npts, self.NCOMP)
        for c in range(self.NCOMP):
            assert rel_max_err(multi[:, c], plan.type2(spec[..., c])) <= 1e-14

    def test_spread_gather_match_type1_type2(self, plan):
        # the complex transforms are the real-column core plus fftn / ifftn
        rng = np.random.default_rng(8)
        n, m = plan.n_over, plan.modes.m_half
        kept = np.ix_(*(np.mod(np.arange(-m, m), n),) * 3)
        g = plan.axis_deconv
        deconv = g[:, None, None] * g[None, :, None] * g[None, None, :]
        coeffs = rng.standard_normal((plan.npts, 3))
        grid = plan.spread(coeffs)
        assert grid.shape == (n, n, n, 3) and grid.dtype == np.float64
        spec = rng.standard_normal((32, 32, 32, 3)) + 1j * rng.standard_normal((32, 32, 32, 3))
        for c in range(3):
            via_spread = np.fft.fftn(grid[..., c])[kept] * deconv / (n**3 * plan.npts)
            assert rel_max_err(via_spread, plan.type1(coeffs[:, c])) <= 1e-14
            embedded = np.zeros((n, n, n), dtype=complex)
            embedded[kept] = spec[..., c] * deconv
            back = np.fft.ifftn(embedded)
            cols = plan.gather(np.stack([back.real, back.imag], axis=-1))
            assert cols.shape == (plan.npts, 2)
            assert rel_max_err(cols[:, 0] + 1j * cols[:, 1], plan.type2(spec[..., c])) <= 1e-14

    def test_spread_gather_reject_mismatched_shapes(self, plan):
        with pytest.raises(ValueError, match="plan points"):
            plan.spread(np.ones((plan.npts + 1, 2)))
        with pytest.raises(ValueError, match="oversampled grid"):
            plan.gather(np.ones((plan.n_over - 1,) * 3 + (2,)))

    def test_repeat_calls_bit_identical(self, plan):
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal((plan.npts, 3)) + 1j * rng.standard_normal((plan.npts, 3))
        spec = rng.standard_normal((32, 32, 32, 3)) + 0j
        assert np.array_equal(plan.type1(coeffs), plan.type1(coeffs))
        assert np.array_equal(plan.type2(spec), plan.type2(spec))
        grid = plan.spread(coeffs.real)
        assert np.array_equal(grid, plan.spread(coeffs.real))
        assert np.array_equal(plan.gather(grid), plan.gather(grid))


def dense_spread_matrix(plan, pts):
    """The (points, n^3) spreading matrix summed entry by entry over each
    point's kdim^3 stencil from the per-axis nodes and the plan's weights."""
    n, w = plan.n_over, plan.kdim
    nodes, _ = nufft._stencil(pts, plan.modes.h, n, w)
    flat = (nodes[:, 0, :, None, None] * n * n + nodes[:, 1, None, :, None] * n
            + nodes[:, 2, None, None, :])
    vals = (plan._kx[:, :, None, None] * plan._ky[:, None, :, None]
            * plan._kz[:, None, None, :])
    dense = np.zeros((len(pts), n**3))
    rows = np.broadcast_to(np.arange(len(pts))[:, None, None, None], flat.shape)
    np.add.at(dense, (rows, flat), vals)        # wide stencils wrap onto a node twice
    return dense


class TestPencilCore:
    """spread and gather are one explicit w^3-stencil matrix and its transpose."""

    # m_half 2 at tol 1e-12: w = 15 > n = 8, so the z pad wraps twice
    @pytest.fixture(params=[(2, 1e-12), (4, 1e-6)], ids=["m2-tol1e-12", "m4-tol1e-6"])
    def plan_and_points(self, request):
        m_half, tol = request.param
        rng = np.random.default_rng(m_half)
        pts = rng.uniform(-np.pi, np.pi, (60, 3))
        pts[0] = -np.pi
        pts[1] = np.nextafter(np.pi, 0.0)
        pts[2] = [-np.pi, np.nextafter(np.pi, 0.0), 0.0]
        return GridderPlan(pts, ModeGrid(h=1.0, m_half=m_half), tol), pts

    @pytest.mark.parametrize("ncols", [1, 9])
    @pytest.mark.parametrize("chunk", [None, 81 * 7])
    def test_spread_gather_equal_dense_reference(self, plan_and_points, ncols, chunk,
                                                 monkeypatch):
        plan, pts = plan_and_points
        if chunk is not None:
            # several point chunks, the last one partial
            monkeypatch.setattr(nufft, "SPREAD_CHUNK", chunk)
        n = plan.n_over
        dense = dense_spread_matrix(plan, pts)
        rng = np.random.default_rng(ncols)
        grid = rng.standard_normal((n, n, n, ncols))
        cols = rng.standard_normal((len(pts), ncols))
        want_gather = dense @ grid.reshape(n**3, ncols)
        want_spread = (dense.T @ cols).reshape(n, n, n, ncols)
        assert rel_max_err(plan.gather(grid), want_gather) <= 1e-14
        assert rel_max_err(plan.spread(cols), want_spread) <= 1e-14

    def test_adjoint(self, plan_and_points):
        plan, pts = plan_and_points
        n = plan.n_over
        rng = np.random.default_rng(11)
        grid = rng.standard_normal((n, n, n, 3))
        cols = rng.standard_normal((len(pts), 3))
        lhs = np.sum(plan.gather(grid) * cols)
        rhs = np.sum(grid * plan.spread(cols))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    def test_int32_guard_covers_the_padded_grid(self):
        # n = 1288 fits n^3 in int32 but not n^2 (n + w - 1); a single point
        # keeps a broken guard from allocating anything large before it
        m_half, tol = 322, 1e-6
        n, w = 4 * m_half, es_width(tol)
        assert n**3 <= np.iinfo(np.int32).max < n * n * (n + w - 1)
        with pytest.raises(ValueError, match="exceeds 2\\^31") as info:
            GridderPlan(np.zeros((1, 3)), ModeGrid(h=1.0, m_half=m_half), tol)
        assert "\n" not in str(info.value)


class TestWidthRule:
    @pytest.mark.parametrize("tol,width", [(1e-2, 5), (1e-3, 6), (1e-6, 9),
                                           (1e-9, 12), (1e-12, 15)])
    def test_width(self, tol, width):
        assert es_width(tol) == width

    def test_plan_stencil_width(self, case):
        modes, pts, _ = case
        assert GridderPlan(pts, modes, 1e-6).kdim == 9


@st.composite
def nufft_cases(draw):
    """Small point sets mixing random points with the hard cases: the
    origin, the corner -pi and exact nodes of the oversampled grid."""
    m_half = draw(st.integers(2, 8))
    tol = 10.0 ** draw(st.floats(-12.0, -2.0))     # the plans' whole accepted range
    n_over = 4 * m_half
    node = st.integers(0, n_over - 1).map(lambda j: -np.pi + 2 * np.pi * j / n_over)
    coord = st.one_of(node, st.floats(-np.pi, np.pi, exclude_max=True))
    special = [[0.0, 0.0, 0.0], [-np.pi] * 3]
    pts = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=12))
    seed = draw(st.integers(0, 2**32 - 1))
    return ModeGrid(h=1.0, m_half=m_half), tol, np.array(special + pts), seed


class TestAccuracyProperty:
    """The width rule holds against direct sums over the whole accepted tol
    range, hard points included."""

    @settings(max_examples=60, deadline=None)
    @given(nufft_cases())
    def test_type1_and_type2_within_tol(self, case):
        modes, tol, pts, seed = case
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
        shape = (modes.n_modes,) * 3
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        plan = GridderPlan(pts, modes, tol)
        assert rel_max_err(plan.type1(coeffs), direct_type1(pts, coeffs, modes)) <= tol
        assert rel_max_err(plan.type2(spec), direct_type2(spec, pts, modes)) <= tol


@pytest.fixture(scope="module", params=["sphere", "peanut"])
def desk_quad(request):
    """The desk bands' quadrature points in the surface diffuser's [-pi, pi)^3."""
    surface, dx, tau = ((Sphere(1.0), 0.2, 0.05) if request.param == "sphere"
                        else (peanut_surface(), 0.3, 0.1))
    band = build_band(surface, BandSpec(dx=dx, w_b=band_width(tau, 1e-6), eps=1e-6))
    dif = SurfaceDiffuser(band, tau, 1e-6)
    return (band.quad_points - dif.center) * dif.scale, dif.modes, dif.eps


def assert_lattice_matches_gridder(pts, modes, tol, ncols, seed=0):
    cols = np.random.default_rng(seed).standard_normal((len(pts), ncols))
    want = GridderPlan(pts, modes, tol).spread(cols)
    got = LatticeSpreader(pts, modes, tol).spread(cols)
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def wrapping_lattice():
    """A 4^3 lattice whose stencils wrap, with point 5 three times."""
    axis = np.array([-np.pi, -1.0, 0.25, np.nextafter(np.pi, 0.0)])
    pts = np.stack(np.meshgrid(axis, axis[::-1], axis, indexing="ij"), -1).reshape(-1, 3)
    return np.concatenate([pts, pts[[5, 5, 17]]])


def assert_filtered_matches_fft(pts, modes, tol, ncols, half=None, seed=1):
    """filtered(half) against the FFT of the spread with the even multiplier
    mu(k) = half[|k|]; by default half is 1 below M, 1/2 at M and 0 above,
    shaped by a non-monotone factor.  The error is bounded relative to the
    unfiltered spread times the multiplier's largest modulus, a scale the
    multiplier cannot cancel as it can the filtered grid's."""
    n, m = 4 * modes.m_half, modes.m_half
    if half is None:
        k = np.arange(n // 2 + 1)
        half = (np.exp(-0.02 * k * k) * (1.0 + 0.5 * np.sin(k))
                * np.where(k < m, 1.0, 0.5 * (k == m)))
    mu = half[np.abs(np.fft.fftfreq(n, 1.0 / n)).astype(int)]
    cols = np.random.default_rng(seed).standard_normal((len(pts), ncols))
    lattice = LatticeSpreader(pts, modes, tol)
    mult = (mu[:, None, None] * mu[None, :, None] * mu[None, None, :])[..., None]
    spread = lattice.spread(cols)
    want = np.fft.ifftn(mult * np.fft.fftn(spread, axes=(0, 1, 2)), axes=(0, 1, 2)).real
    got = lattice.filtered(half).spread(cols)
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-14 * np.abs(spread).max() * np.abs(mult).max()


class TestLatticeSpreader:
    """The separable lattice spread equals the sparse-block spread."""

    @pytest.mark.parametrize("ncols", [1, 9])
    def test_matches_gridder_on_desk_bands(self, desk_quad, ncols):
        pts, modes, tol = desk_quad
        # the sphere's lattice is 27^3, the peanut's 29 x 25 x 25 (not cubic)
        assert LatticeSpreader(pts, modes, tol).shape in {(27, 27, 27), (29, 25, 25)}
        assert_lattice_matches_gridder(pts, modes, tol, ncols)

    def test_wrapping_stencils_and_coincident_points(self):
        pts = wrapping_lattice()
        for ncols in (1, 9):
            assert_lattice_matches_gridder(pts, ModeGrid(h=1.0, m_half=6), 1e-9, ncols)

    @pytest.mark.parametrize("ncols", [1, 9])
    def test_filtered_matches_fft_on_desk_bands(self, desk_quad, ncols):
        pts, modes, tol = desk_quad
        assert_filtered_matches_fft(pts, modes, tol, ncols)

    @pytest.mark.parametrize("ncols", [1, 9])
    def test_filtered_wrapping_stencils_and_coincident_points(self, ncols):
        assert_filtered_matches_fft(wrapping_lattice(), ModeGrid(h=1.0, m_half=6), 1e-9, ncols)

    def test_axis_matrices_hold_the_plan_weights(self, case):
        # one stencil helper: each axis matrix column is the plan's stencil
        modes, pts, _ = case
        axis = np.unique(pts[:40, 0])
        grid = np.stack([axis, np.zeros_like(axis), np.zeros_like(axis)], axis=1)
        plan, lattice = GridderPlan(grid, modes, 1e-6), LatticeSpreader(grid, modes, 1e-6)
        nodes = plan._ix // (plan.n_over * (plan.n_over + plan.kdim - 1))
        picked = lattice._axes[0][nodes, np.arange(len(axis))[:, None]]
        assert np.array_equal(picked, plan._kx)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_random_small_lattices(self, data):
        coord = st.floats(-np.pi, np.pi, exclude_max=True)
        axes = [np.unique(data.draw(st.lists(coord, min_size=1, max_size=5)))
                for _ in range(3)]
        sites = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
        # a random occupied subset, coincident points included, filling at
        # least the eighth of the lattice the spreader requires
        keep = data.draw(st.lists(st.integers(0, len(sites) - 1),
                                  min_size=-(-len(sites) // 8), max_size=2 * len(sites)))
        modes = ModeGrid(h=1.0, m_half=data.draw(st.integers(2, 8)))
        tol = 10.0 ** data.draw(st.floats(-9.0, -3.0))
        ncols, seed = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2**32 - 1))
        assert_lattice_matches_gridder(sites[keep], modes, tol, ncols, seed=seed)
        half = np.random.default_rng(seed).uniform(-1.0, 1.0, 2 * modes.m_half + 1)
        assert_filtered_matches_fft(sites[keep], modes, tol, ncols, half=half, seed=seed)

    def test_filtered_multiplier_cancelling_the_grid(self):
        # a drawn example of the property below: the multiplier cancels the
        # filtered grid to 9.4e-4 of max|spread| max|mult|, and the error,
        # 2.0e-18, exceeds 1e-14 max|filtered grid|
        modes, seed = ModeGrid(h=1.0, m_half=2), 1523
        half = np.random.default_rng(seed).uniform(-1.0, 1.0, 2 * modes.m_half + 1)
        assert_filtered_matches_fft(np.array([[0.0, 0.0, 1.0]]), modes, 1e-8, 1,
                                    half=half, seed=seed)

    def test_scattered_cloud_rejected(self, case):
        modes, pts, _ = case
        with pytest.raises(ValueError, match="exceeds 8 sites per point") as info:
            LatticeSpreader(pts, modes, 1e-6)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("length", [8, 10, 16])
    def test_multiplier_off_the_half_spectrum_rejected(self, length):
        lattice = LatticeSpreader(np.zeros((2, 3)), ModeGrid(h=1.0, m_half=4), 1e-6)
        with pytest.raises(ValueError, match="n_over/2 \\+ 1 = 9") as info:
            lattice.filtered(np.ones(length))
        assert "\n" not in str(info.value)

    def test_column_count_mismatch_rejected(self):
        lattice = LatticeSpreader(np.zeros((2, 3)), ModeGrid(h=1.0, m_half=4), 1e-6)
        with pytest.raises(ValueError, match="plan points"):
            lattice.spread(np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.pi, -4.0])
    def test_non_finite_or_out_of_range_points_rejected(self, bad):
        pts = np.zeros((3, 3))
        pts[1, 2] = bad
        with pytest.raises(ValueError, match=r"\[-pi, pi\)\^3") as info:
            LatticeSpreader(pts, ModeGrid(h=1.0, m_half=4), 1e-6)
        assert "\n" not in str(info.value)

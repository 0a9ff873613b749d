"""Projection geometry: the stacked O(n)/SO(n)/SO-(n) projections.

Ground truths: LAPACK's SVD, closed-form distances, and brute-force sampling
over the orthogonal group.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orthoflow.field import GridSpec, MatrixField
from orthoflow.matgeom import determinants
from projection_helper import both_projections


def random_orthogonal(rng, n, count, det_sign=None):
    """Sample orthogonal matrices via QR of Gaussian matrices."""
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    # make the factorization unique (positive diagonal of r)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    if det_sign is not None:
        d = np.linalg.det(q)
        flip = np.sign(d) != det_sign
        q[flip, :, -1] = -q[flip, :, -1]
    return q


def nearest(a):
    """(nearest in O(n), nearest in the opposite component) of one matrix.

    The nearest element of O(n) takes the det-sign branch (SO at det 0); the
    opposite one takes the other branch.
    """
    plus, minus, _, _, det = (x[0] for x in both_projections(a[None]))
    return (plus, minus) if det >= 0 else (minus, plus)


class TestNearestOrthogonal:
    def test_identity(self):
        q, _ = nearest(np.eye(3))
        np.testing.assert_allclose(q, np.eye(3), atol=1e-14)
        assert np.sum((q - np.eye(3)) ** 2) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        a = np.diag([2.0, 0.5])
        q, _ = nearest(a)
        np.testing.assert_allclose(q, np.eye(2), atol=1e-12)
        assert np.sum((q - a) ** 2) == pytest.approx(1.25, abs=1e-12)

    def test_det_sign_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.standard_normal((3, 3))
            if abs(np.linalg.det(a)) < 1e-6:
                continue
            q, _ = nearest(a)
            assert np.sign(np.linalg.det(q)) == np.sign(np.linalg.det(a))

    def test_beats_sampling(self):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            samples = random_orthogonal(rng, n, 20_000)
            half = len(samples) // 2
            samples[:half, :, -1] = -samples[:half, :, -1]  # mix in SO-
            for _ in range(50):
                a = rng.standard_normal((n, n))
                q, _ = nearest(a)
                dist_sq = np.sum((q - a) ** 2)
                assert dist_sq == pytest.approx(
                    np.sum((np.linalg.svd(a)[1] - 1.0) ** 2), abs=1e-10)
                best = np.min(np.sum((samples - a) ** 2, axis=(1, 2)))
                assert dist_sq <= best + 1e-9


class TestNearestOpposite:
    def test_diagonal(self):
        a = np.diag([2.0, 0.5])
        _, c = nearest(a)
        np.testing.assert_allclose(c, np.diag([1.0, -1.0]), atol=1e-12)
        assert np.sum((c - a) ** 2) == pytest.approx(3.25, abs=1e-12)

    def test_identity_component_gap(self):
        # dist(SO, SO-) = 2, attained against the identity
        _, c = nearest(np.eye(2))
        assert np.sum((c - np.eye(2)) ** 2) == pytest.approx(4.0, abs=1e-12)

    def test_beats_sampling_opposite_component(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = rng.standard_normal((3, 3))
            det = np.linalg.det(a)
            if abs(det) < 1e-6:
                continue
            _, c = nearest(a)
            dist_sq = np.sum((c - a) ** 2)
            assert np.sign(np.linalg.det(c)) == -np.sign(det)
            samples = random_orthogonal(rng, 3, 20_000, det_sign=-np.sign(det))
            best = np.min(np.sum((samples - a) ** 2, axis=(1, 2)))
            assert dist_sq <= best + 1e-9
            s = np.linalg.svd(a)[1]
            assert dist_sq == pytest.approx(np.sum((s - 1) ** 2) + 4 * s[-1],
                                            abs=1e-10)


class TestTplusTminus:
    def test_definition_positive_det(self):
        # for det > 0, T+ is the nearest element of O(n) and T- the nearest
        # of the opposite component: their distances are the closed forms
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        if np.linalg.det(a) < 0:
            a[:, 0] = -a[:, 0]
        plus, minus, _, _, _ = both_projections(a)
        s = np.linalg.svd(a)[1]
        assert np.sum((plus - a) ** 2) == pytest.approx(np.sum((s - 1) ** 2), abs=1e-10)
        assert np.sum((minus - a) ** 2) == pytest.approx(
            np.sum((s - 1) ** 2) + 4 * s[-1], abs=1e-10)

    def test_det_signs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.standard_normal((3, 3))
            if abs(np.linalg.det(a)) < 1e-6:
                continue
            plus, minus, _, _, _ = both_projections(a)
            assert np.linalg.det(plus) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.det(minus) == pytest.approx(-1.0, abs=1e-10)


class TestComponentGap:
    def test_exact_pair_attains_two(self):
        p = np.eye(3)
        q = np.diag([1.0, 1.0, -1.0])
        assert np.linalg.norm(p - q) == 2.0

    def test_sampled_gap(self):
        rng = np.random.default_rng(10)
        p = random_orthogonal(rng, 3, 10_000, det_sign=1.0)
        q = random_orthogonal(rng, 3, 10_000, det_sign=-1.0)
        dists = np.linalg.norm(p - q, axis=(1, 2))
        assert dists.min() >= 2.0 - 1e-3


class TestStacked:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_single_matrix_ops(self, n):
        # every row of the stacked call against the LAPACK SVD of that matrix
        rng = np.random.default_rng(11)
        mats = rng.standard_normal((40, n, n))
        plus, minus, gain, singular, _ = both_projections(mats)
        assert not singular.any()
        for i in range(len(mats)):
            want_plus, want_minus, _ = svd_oracle(mats[i])
            np.testing.assert_allclose(plus[i], want_plus, atol=1e-12)
            np.testing.assert_allclose(minus[i], want_minus, atol=1e-12)
            expected = np.sum((plus[i] - minus[i]) * mats[i])
            assert gain[i] == pytest.approx(expected, abs=1e-10)

    def test_projection_stack_singular_goes_plus(self):
        mats = np.stack([np.diag([1.0, 0.0]), np.diag([2.0, 0.5]),
                         np.array([[0.0, 1.0], [0.0, 0.0]])])
        plus, _, gain, singular, det = both_projections(mats)
        np.testing.assert_array_equal(singular, [True, False, True])
        np.testing.assert_array_equal(det == 0.0, singular)
        assert gain[0] == 0.0 and gain[2] == 0.0
        # the nearest orthogonal matrix is plus where det >= 0: singular -> SO
        dets = np.linalg.det(plus)
        assert dets[0] == pytest.approx(1.0, abs=1e-12)
        assert dets[2] == pytest.approx(1.0, abs=1e-12)
        ortho = plus @ np.swapaxes(plus, -1, -2)
        np.testing.assert_allclose(ortho, np.broadcast_to(np.eye(2), ortho.shape),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# The stacked kernel against an independent SVD oracle
# ---------------------------------------------------------------------------

def svd_oracle(a):
    """(T+, T-, sigma) from LAPACK: U V^t and U D_n V^t sorted by det sign."""
    u, s, vh = np.linalg.svd(a)
    uv = u @ vh
    ud = u.copy()
    ud[:, -1] = -ud[:, -1]
    uvd = ud @ vh
    if np.linalg.det(uv) > 0:
        return uv, uvd, s
    return uvd, uv, s


def square_matrices(max_abs=1e3):
    """(n, n) float matrices for n in 1..3, entries from subnormal to max_abs.

    A common scale factor pushes whole matrices into the tiny range too.
    """
    entry = st.floats(-max_abs, max_abs, allow_nan=False, allow_infinity=False)
    scale = st.sampled_from([1.0, 1.0, 1e-150, 1e-310])
    return st.tuples(st.integers(1, 3), scale).flatmap(
        lambda ns: st.lists(entry, min_size=ns[0] ** 2, max_size=ns[0] ** 2).map(
            lambda v: ns[1] * np.array(v).reshape(ns[0], ns[0])))


class TestKernelProperties:
    @settings(max_examples=400, deadline=None)
    @given(square_matrices())
    def test_against_svd_oracle(self, a):
        n = len(a)
        plus, minus, gain, singular, det = (
            x[0] for x in both_projections(a[None]))
        want_plus, want_minus, s = svd_oracle(a)
        scale = 1.0 + np.linalg.norm(a)

        # T+ in SO(n), T- in SO-(n), both orthogonal
        for t, sign in ((plus, 1.0), (minus, -1.0)):
            np.testing.assert_allclose(t.T @ t, np.eye(n), atol=1e-12)
            assert np.linalg.det(t) == pytest.approx(sign, abs=1e-12)
        # optimal within each component, whatever the conditioning
        for t, want in ((plus, want_plus), (minus, want_minus)):
            assert np.sum((t - a) ** 2) <= np.sum((want - a) ** 2) + 1e-12 * scale**2
        # gain = <T+ - T-, A> = 2 sigma_min sign(det A); det matches LAPACK
        assert gain == pytest.approx(np.sum((plus - minus) * a), abs=1e-12 * scale)
        with np.errstate(divide="ignore"):    # LAPACK LU on subnormal input
            lapack_det = np.linalg.det(a)
        assert det == pytest.approx(lapack_det, abs=1e-12 * scale**n)
        assert gain == pytest.approx(2 * s[-1] * np.sign(lapack_det), abs=1e-12 * scale)
        assert singular == (det == 0.0)

        # where the projections are unique and well conditioned, they equal
        # the oracle's
        gaps = np.append(-np.diff(s), s[-1])
        assume(n == 1 or gaps.min() >= 0.05 * s[0])
        np.testing.assert_allclose(plus, want_plus, atol=1e-12)
        np.testing.assert_allclose(minus, want_minus, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 5])
    def test_gaussian_stack_against_svd_oracle(self, n):
        # n >= 4 sorts the SVD branch with LAPACK determinants
        mats = np.random.default_rng(15 + n).standard_normal((200, n, n))
        plus, minus, gain, singular, det = both_projections(mats)
        for i, a in enumerate(mats):
            want_plus, want_minus, s = svd_oracle(a)
            scale = 1.0 + np.linalg.norm(a)
            for t, sign in ((plus[i], 1.0), (minus[i], -1.0)):
                np.testing.assert_allclose(t.T @ t, np.eye(n), atol=1e-12)
                assert np.linalg.det(t) == pytest.approx(sign, abs=1e-12)
            for t, want in ((plus[i], want_plus), (minus[i], want_minus)):
                assert np.sum((t - a) ** 2) <= np.sum((want - a) ** 2) + 1e-12 * scale**2
            assert gain[i] == pytest.approx(2 * s[-1] * np.sign(np.linalg.det(a)),
                                            abs=1e-12 * scale)
        np.testing.assert_array_equal(singular, det == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-20, 20), min_size=n, max_size=n),
        st.lists(st.integers(-20, 20), min_size=n, max_size=n))))
    def test_rank_one_integer_input_goes_to_so(self, uv):
        u, v = (np.array(x, dtype=float) for x in uv)
        a = np.outer(u, v)
        assume(len(u) > 1 or not a.any())    # n = 1 is singular only at 0
        self.assert_singular_goes_plus(a)

    @pytest.mark.parametrize("a", [
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.zeros((1, 1)), np.zeros((2, 2)), np.zeros((3, 3)),
        np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 4.0]),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
    ], ids=["ones2", "zero1", "zero2", "zero3", "rank1_3", "nilpotent2"])
    def test_singular_examples_go_to_so(self, a):
        self.assert_singular_goes_plus(a)

    @staticmethod
    def assert_singular_goes_plus(a):
        n = len(a)
        plus, minus, gain, singular, det = both_projections(a[None])
        assert det[0] == 0.0 and singular[0]
        assert gain[0] == 0.0
        assert np.linalg.det(plus[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(minus[0]) == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(plus[0].T @ plus[0], np.eye(n), atol=1e-12)

    def test_subnormal_input_stays_orthogonal(self):
        a = np.array([[3e-323, -5e-324], [5e-324, 3e-323]])
        plus, minus, _, _, _ = both_projections(a[None])
        for t in (plus[0], minus[0]):
            np.testing.assert_allclose(t @ t.T, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(plus[0], [[6 / 37**0.5, -1 / 37**0.5],
                                             [1 / 37**0.5, 6 / 37**0.5]], atol=1e-15)

    def test_stack_shape_and_rows_independent(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            mats = rng.standard_normal((4, 5, n, n))
            whole = both_projections(mats)
            assert [x.shape for x in whole] == [mats.shape] * 2 + [(4, 5)] * 3
            for idx in np.ndindex(4, 5):
                for got, one in zip(whole, both_projections(mats[idx])):
                    np.testing.assert_array_equal(one, got[idx])


class TestDeterminants:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_lapack(self, n):
        mats = np.random.default_rng(13).standard_normal((3, 50, n, n))
        got = determinants(mats)
        assert got.shape == (3, 50)
        np.testing.assert_allclose(got, np.linalg.det(mats), rtol=1e-12, atol=1e-12)

    def test_field_dets_use_it(self):
        data = np.random.default_rng(14).standard_normal((8, 8, 3, 3))
        f = MatrixField.grid_field(GridSpec((8, 8)), data)
        np.testing.assert_array_equal(f.dets(), determinants(data))

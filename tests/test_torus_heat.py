"""Torus diffusion: Fourier symbol, semigroup, conservation, maximum principle.

Independent oracle for the symbol: FFT of the lattice-summed Gaussian kernel
sampled on the grid.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoflow.field import GridSpec, MatrixField
from orthoflow.scenarios import rotation_branch
from orthoflow.torus_heat import TorusDiffuser, heat_multiplier


def sampled_kernel_multipliers(size, tau, images=4):
    """FFT of the lattice-summed Gaussian, the route the symbol replaces."""
    dx = 1.0 / size
    coords = -0.5 + dx * np.arange(size)
    x, y = np.meshgrid(coords, coords, indexing="ij")
    g = np.zeros_like(x)
    for ax in range(-images, images + 1):
        for ay in range(-images, images + 1):
            g += np.exp(-((x - ax) ** 2 + (y - ay) ** 2) / (4 * tau))
    g /= 4 * np.pi * tau
    return np.real(np.fft.fft2(np.fft.ifftshift(g))) * dx * dx


class TestHeatMultiplier:
    def test_zero_mode(self):
        assert heat_multiplier((0, 0), 0.5, (1.0, 1.0)) == 1.0

    def test_unit_exponent(self):
        tau = 1.0 / (4 * np.pi**2)
        assert heat_multiplier((1, 0), tau, (1.0, 1.0)) == pytest.approx(np.exp(-1))

    def test_against_sampled_kernel_fft(self):
        size, tau = 256, 0.0078125
        oracle = sampled_kernel_multipliers(size, tau)
        d = TorusDiffuser(GridSpec((size, size)), tau)
        # the diffuser keeps the rfftn half spectrum
        assert np.abs(d.multipliers - oracle[..., :size // 2 + 1]).max() <= 1e-8

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            heat_multiplier((1, 1), 0.0, (1.0, 1.0))


def diffuse(f, tau):
    """One heat step of length tau on a grid-backed field."""
    return TorusDiffuser(f.grid, tau).diffuse(f)


class TestDiffuse:
    def grid(self, size=64):
        return GridSpec((size, size))

    def test_constant_preserved(self):
        g = self.grid()
        x, _ = g.meshgrid()
        f = MatrixField.grid_field(g, rotation_branch(np.full_like(x, 0.3)))
        out = diffuse(f, 0.01)
        assert np.abs(out.data - f.data).max() <= 1e-13

    def test_eigenfunction_decay(self):
        g = self.grid(128)
        x, _ = g.meshgrid()
        data = np.zeros((128, 128, 1, 1))
        data[..., 0, 0] = np.sin(2 * np.pi * x)
        f = MatrixField.grid_field(g, data)
        out = diffuse(f, 0.01)
        expected = np.exp(-4 * np.pi**2 * 0.01)
        mask = np.abs(data[..., 0, 0]) > 0.1
        ratio = out.data[..., 0, 0][mask] / data[..., 0, 0][mask]
        np.testing.assert_allclose(ratio, expected, atol=1e-12)

    def test_semigroup(self):
        g = self.grid()
        rng = np.random.default_rng(0)
        f = MatrixField.grid_field(g, rng.standard_normal((64, 64, 2, 2)))
        one = diffuse(diffuse(f, 0.003), 0.007)
        two = diffuse(f, 0.010)
        assert np.abs(one.data - two.data).max() <= 1e-10

    def test_mass_conserved(self):
        g = self.grid()
        rng = np.random.default_rng(1)
        f = MatrixField.grid_field(g, rng.standard_normal((64, 64, 2, 2)))
        out = diffuse(f, 0.05)
        np.testing.assert_allclose(out.data.mean(axis=(0, 1)),
                                   f.data.mean(axis=(0, 1)), atol=1e-12)

    def test_linearity(self):
        g = self.grid()
        rng = np.random.default_rng(2)
        a = MatrixField.grid_field(g, rng.standard_normal((64, 64, 2, 2)))
        b = MatrixField.grid_field(g, rng.standard_normal((64, 64, 2, 2)))
        lhs = diffuse(a.copy_with(2.5 * a.data + b.data), 0.01)
        rhs = 2.5 * diffuse(a, 0.01).data + diffuse(b, 0.01).data
        assert np.abs(lhs.data - rhs).max() <= 1e-12

    def test_max_principle_unit_norm_field(self):
        g = self.grid(128)
        x, y = g.meshgrid()
        data = rotation_branch((np.pi / 2) * np.sin(2 * np.pi * (x + y)))
        data = data / np.sqrt(2.0)       # unit Frobenius norm pointwise
        f = MatrixField.grid_field(g, data)
        out = diffuse(f, 0.01)
        norms = np.sqrt(np.sum(out.data**2, axis=(-2, -1)))
        assert norms.max() <= 1.0 + 1e-9

    def test_max_principle_determinant(self):
        g = self.grid(128)
        x, y = g.meshgrid()
        mask = x**2 + y**2 < 0.09
        from orthoflow.scenarios import reflection_branch
        alpha = (np.pi / 2) * np.sin(2 * np.pi * (x + y))
        data = np.where(mask[..., None, None], rotation_branch(alpha),
                        reflection_branch(alpha))
        out = diffuse(MatrixField.grid_field(g, data), 0.005)
        assert np.abs(out.dets()).max() <= 1.0 + 1e-9

    def test_determinism(self):
        g = self.grid()
        rng = np.random.default_rng(3)
        f = MatrixField.grid_field(g, rng.standard_normal((64, 64, 2, 2)))
        a = diffuse(f, 0.01)
        b = diffuse(f, 0.01)
        np.testing.assert_array_equal(a.data, b.data)

    def test_rejects_bad_tau_and_layout(self):
        g = self.grid()
        x, _ = g.meshgrid()
        f = MatrixField.grid_field(g, rotation_branch(np.zeros_like(x)))
        with pytest.raises(ValueError):
            diffuse(f, -1.0)
        other = TorusDiffuser(GridSpec((32, 32)), 0.01)
        with pytest.raises(ValueError):
            other.diffuse(f)


class TestHeatSymbolOnce:
    """heat_multiplier is the one symbol formula; the diffuser evaluates it."""

    def test_per_axis_vectors_broadcast(self):
        k0 = np.arange(-3, 4).reshape(-1, 1)
        k1 = np.arange(0, 5).reshape(1, -1)
        tau, extent = 0.01, (1.0, 2.0)
        table = heat_multiplier((k0, k1), tau, extent)
        assert table.shape == (7, 5)
        for i, a in enumerate(k0[:, 0]):
            for j, b in enumerate(k1[0]):
                want = np.exp(-4 * np.pi**2 * tau * ((a / 1.0) ** 2 + (b / 2.0) ** 2))
                assert table[i, j] == pytest.approx(want, rel=1e-14)
                assert heat_multiplier((a, b), tau, extent) == pytest.approx(want, rel=1e-14)

    def test_diffuser_multipliers_are_the_symbol(self):
        g = GridSpec((8, 10), extent=(1.0, 2.0))
        tau = 0.003
        d = TorusDiffuser(g, tau)
        k0 = np.fft.fftfreq(8) * 8
        k1 = np.fft.rfftfreq(10) * 10
        assert d.multipliers.shape == (8, 6)
        np.testing.assert_array_equal(
            d.multipliers, heat_multiplier((k0[:, None], k1[None, :]), tau, g.extent))

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="finite"):
            heat_multiplier((1, 1), tau, (1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            TorusDiffuser(GridSpec((8, 8)), tau)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), sizes=st.tuples(st.integers(8, 20), st.integers(8, 20)),
       extent=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
       tau=st.floats(1e-4, 0.1), seed=st.integers(0, 2**32 - 1))
def test_operator_self_adjoint_and_positive_semidefinite(n, sizes, extent, tau, seed):
    # <u, Dv> = <Du, v> and <u, Du> >= 0 on random real fields: the symbol is
    # real, even and positive
    grid = GridSpec(sizes, extent)
    diffuser = TorusDiffuser(grid, tau)
    rng = np.random.default_rng(seed)
    u, v = (rng.standard_normal(sizes + (n, n)) for _ in range(2))
    du, dv = (diffuser.diffuse(MatrixField.grid_field(grid, w)).data for w in (u, v))
    norm_u, norm_v = np.linalg.norm(u), np.linalg.norm(v)
    assert abs(np.sum(u * dv) - np.sum(du * v)) <= 1e-12 * norm_u * norm_v
    assert np.sum(u * du) >= -1e-12 * norm_u**2

"""Heat-step oracle on surfaces of revolution, for tests of the surface step.

The Laplace-Beltrami eigenfunctions of the surface swept by the profile
(axial(t), radial(t)) about the x-axis separate as v(t) cos(m phi).  For
each m, v solves the 1-D generalised eigenproblem

    int rho v' w' / s' dt + m^2 int v w s' / rho dt = lam int rho v w s' dt

in the profile parameter t, with rho = radial and s' = |(axial', radial')|.
It is solved with linear finite elements on a uniform t grid (two Gauss
points per element, s' by central differences of the profile callables),
with v = 0 at both tips for m >= 1, by scipy's eigsh in shift-invert.
"""
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh


@dataclass(frozen=True)
class Mode:
    m: int
    lam: float
    ts: np.ndarray      # the element nodes
    v: np.ndarray       # the profile factor at ts


def revolution_modes(axial, radial, t_range=(-1.0, 1.0), ms=range(4), count=2,
                     elements=4000):
    """The `count` lowest non-constant modes for each m in ms, in that order."""
    t0, t1 = t_range
    ts = np.linspace(t0, t1, elements + 1)
    h = ts[1] - ts[0]
    # two Gauss points per element, at xi in (0, 1)
    xi = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
    tg = ts[:-1, None] + h * xi[None, :]
    d = 1e-6 * (t1 - t0)
    sd = np.hypot(axial(tg + d) - axial(tg - d), radial(tg + d) - radial(tg - d)) / (2.0 * d)
    rho = radial(tg)
    phi = np.stack([1.0 - xi, xi])                 # basis a at Gauss point g: phi[a, g]
    dphi = np.array([-1.0, 1.0]) / h
    rows = np.arange(elements)[:, None] + np.array([0, 1])
    ii = np.repeat(rows, 2, axis=1).ravel()
    jj = np.tile(rows, 2).ravel()

    def assemble(local):                           # local: (elements, 2, 2)
        return sp.csr_matrix((local.ravel(), (ii, jj)), shape=(elements + 1,) * 2)

    stiff = assemble(0.5 * h * np.einsum("eg,a,b->eab", rho / sd, dphi, dphi))
    mass = assemble(0.5 * h * np.einsum("eg,ag,bg->eab", rho * sd, phi, phi))
    modes = []
    for m in ms:
        if m == 0:
            k, keep = stiff, slice(None)
        else:
            # the tips are interior to no element's Gauss points: sd / rho is finite there
            ring = 0.5 * h * m * m * np.einsum("eg,ag,bg->eab", sd / rho, phi, phi)
            k, keep = stiff + assemble(ring), slice(1, -1)
        lam, vecs = eigsh(k[keep, keep], count + (m == 0), mass[keep, keep], sigma=-1.0)
        order = np.argsort(lam)[int(m == 0):]      # m = 0: skip the constant
        for j in order:
            v = np.zeros(elements + 1)
            v[keep] = vecs[:, j]
            modes.append(Mode(m, float(lam[j]), ts, v))
    return modes


def mode_errors(diffuser, modes, axial):
    """Sup-norm relative error of one heat step on each mode, against exp(-lam tau).

    The modes are sampled at the band's closest points: t from the axial
    coordinate x (axial must increase on the profile), phi from (y, z).
    """
    x, y, z = diffuser.band.closest_points.T
    ts = modes[0].ts
    t = np.interp(x, axial(ts), ts)
    phi = np.arctan2(z, y)
    values = np.stack([np.interp(t, mode.ts, mode.v) * np.cos(mode.m * phi)
                       for mode in modes], axis=1)
    exact = values * np.exp(-np.array([mode.lam for mode in modes]) * diffuser.tau)
    got = diffuser.diffuse_values(values)
    return np.abs(got - exact).max(axis=0) / np.abs(exact).max(axis=0)

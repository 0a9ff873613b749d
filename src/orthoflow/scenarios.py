"""Named initial conditions for the torus and surface experiments.

torus_initial builds the TORUS_SCENARIOS on a grid and surface_initial the
SURFACE_SCENARIOS on a band; each refuses a name of the other family.
SURFACE_SCENARIOS maps each surface scenario to its surface's constructor.

Torus fields (n = 2) pick between a rotation branch and a reflection branch
of O(2) according to a region indicator, with a shared angle field alpha:

    rotation(a)  = [[cos a, -sin a], [sin a, cos a]]     (det +1)
    reflection(a) = [[cos a,  sin a], [sin a, -cos a]]    (det -1)

torus_disk_n1 is the scalar (n = 1) indicator of a disk instead.

Surface fields (n = 3) take exactly two fixed values, one per region.  The
seed entries for those two matrices are not orthogonal as given, so they are
projected at import time onto the nearest rotation / nearest reflection; the
projected matrices have determinants exactly +1 and -1.

Every builder is deterministic: rebuilding a field is bit-identical.
"""

from __future__ import annotations

import numpy as np

from .cpm_surface import BandSet, Sphere, peanut_surface
from .errors import ConfigurationError
from .field import GridSpec, MatrixField
from .matgeom import projection_factors

__all__ = [
    "TORUS_SCENARIOS",
    "SURFACE_SCENARIOS",
    "SCENARIO_NAMES",
    "torus_initial",
    "surface_initial",
    "rotation_branch",
    "reflection_branch",
    "PATCH_PLUS",
    "PATCH_MINUS",
]

TORUS_SCENARIOS = (
    "torus_star_defect",
    "torus_parallel_defects",
    "torus_winding",
    "torus_disk_n1",
    "torus_volume_star",
)
SURFACE_SCENARIOS = {
    "sphere_two_patches": Sphere,
    "sphere_volume": Sphere,
    "peanut_two_patches": peanut_surface,
}
SCENARIO_NAMES = TORUS_SCENARIOS + tuple(SURFACE_SCENARIOS)

# seed values for the two-patch surface fields; projected below
_PLUS_SEED = np.array([
    [0.392227, 0.706046, 0.046171],
    [0.655478, 0.031833, 0.097132],
    [0.171187, 0.276923, 0.82346],
])
_MINUS_SEED = np.array([
    [0.699077, 0.547216, 0.257508],
    [0.890903, 0.138624, 0.840717],
    [0.959291, 0.149294, 0.254282],
])

PATCH_PLUS = projection_factors(_PLUS_SEED).assemble(True)      # det +1 exactly
PATCH_MINUS = projection_factors(_MINUS_SEED).assemble(False)   # det -1 exactly


def rotation_branch(alpha: np.ndarray) -> np.ndarray:
    """Rotation-by-alpha matrices, shape alpha.shape + (2, 2)."""
    c, s = np.cos(alpha), np.sin(alpha)
    return np.stack([np.stack([c, -s], axis=-1),
                     np.stack([s, c], axis=-1)], axis=-2)


def reflection_branch(alpha: np.ndarray) -> np.ndarray:
    """Reflection matrices with mirror angle alpha/2, same layout."""
    c, s = np.cos(alpha), np.sin(alpha)
    return np.stack([np.stack([c, s], axis=-1),
                     np.stack([s, -c], axis=-1)], axis=-2)


def torus_initial(name: str, grid: GridSpec, disk_radius: float = 0.3,
                  winding_index: int = 1) -> MatrixField:
    """The named torus scenario's initial field on a 2-D grid.

    disk_radius feeds torus_disk_n1 and winding_index feeds torus_winding.
    """
    if name not in TORUS_SCENARIOS:
        raise ConfigurationError(f"{name!r} is not a torus scenario")
    if grid.d != 2:
        raise ConfigurationError("torus scenarios are 2D")
    if not 0 < disk_radius < np.inf:
        raise ConfigurationError(
            f"disk_radius must be positive and finite, got {disk_radius!r}")
    x, y = grid.meshgrid()

    if name == "torus_disk_n1":
        inside = x**2 + y**2 < disk_radius**2
        return MatrixField.grid_field(grid, np.where(inside, 1.0, -1.0)[..., None, None])

    if name in ("torus_star_defect", "torus_volume_star"):
        alpha = (np.pi / 2.0) * np.sin(2.0 * np.pi * (x + y))
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        so = r < 0.3 + 0.06 * np.sin(6.0 * theta)
    else:
        # reflections in the wavy band |x| <= bound, rotations outside it
        alpha = (np.pi * np.sin(2.0 * np.pi * y) if name == "torus_parallel_defects"
                 else 2.0 * np.pi * winding_index * y)
        bound = 0.25 * np.abs(np.sin(2.5 * np.pi * y)) + 0.2
        so = (x > bound) | (x < -bound)
    return MatrixField.grid_field(
        grid, np.where(so[..., None, None], rotation_branch(alpha), reflection_branch(alpha)))


def surface_initial(name: str, band: BandSet) -> MatrixField:
    """The named surface scenario's two-patch field on the band's closest points."""
    if name not in SURFACE_SCENARIOS:
        raise ConfigurationError(f"{name!r} is not a surface scenario")
    x, y, z = band.closest_points.T
    if name == "peanut_two_patches":
        plus = x > np.sqrt((y**2 + z**2) * (y**2 + 0.1) / 1.5)
    else:
        plus = (x < 0) & (y < 0) & (z > 0)
    return band.field(np.where(plus[:, None, None], PATCH_PLUS, PATCH_MINUS))

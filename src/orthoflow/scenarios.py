"""Named initial conditions for the torus and surface experiments.

Torus fields (n = 2) pick between a rotation branch and a reflection branch
of O(2) according to a region indicator, with a shared angle field alpha:

    rotation(a)  = [[cos a, -sin a], [sin a, cos a]]     (det +1)
    reflection(a) = [[cos a,  sin a], [sin a, -cos a]]    (det -1)

Surface fields (n = 3) take exactly two fixed values, one per region.  The
seed entries for those two matrices are not orthogonal as given, so they are
projected at import time onto the nearest rotation / nearest reflection; the
projected matrices have determinants exactly +1 and -1.

Every generator is deterministic: rebuilding a spec is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpm_surface import BandSet, Sphere, Surface, peanut_surface
from .errors import ConfigurationError
from .field import GridSpec, MatrixField
from .matgeom import projection_factors

__all__ = [
    "ScenarioSpec",
    "SCENARIO_NAMES",
    "build_initial",
    "builtin_surface",
    "rotation_branch",
    "reflection_branch",
    "PATCH_PLUS",
    "PATCH_MINUS",
]

SCENARIO_NAMES = (
    "torus_star_defect",
    "torus_parallel_defects",
    "torus_winding",
    "torus_disk_n1",
    "torus_volume_star",
    "sphere_two_patches",
    "sphere_volume",
    "peanut_two_patches",
)

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


@dataclass(frozen=True)
class ScenarioSpec:
    """A named initial condition plus the layout it lives on.

    Torus scenarios need grid; surface scenarios need band.  disk_radius
    feeds torus_disk_n1; winding_index feeds torus_winding.
    """

    name: str
    grid: GridSpec | None = None
    band: BandSet | None = None
    disk_radius: float = 0.3
    winding_index: int = 1

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ConfigurationError(f"unknown scenario {self.name!r}")
        if not 0 < self.disk_radius < np.inf:
            raise ConfigurationError(
                f"disk_radius must be positive and finite, got {self.disk_radius!r}")


def _torus_mesh(grid: GridSpec):
    if grid is None:
        raise ConfigurationError("torus scenario needs a grid")
    if grid.d != 2:
        raise ConfigurationError("torus scenarios are 2D")
    return grid.meshgrid()


def _parallel_region(x, y):
    bound = 0.25 * np.abs(np.sin(2.5 * np.pi * y)) + 0.2
    return (x > bound) | (x < -bound)


def build_initial(spec: ScenarioSpec) -> MatrixField:
    """Generate the named initial field on the spec's grid or band."""
    name = spec.name

    if name in ("torus_star_defect", "torus_volume_star"):
        x, y = _torus_mesh(spec.grid)
        alpha = (np.pi / 2.0) * np.sin(2.0 * np.pi * (x + y))
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        inside = r < 0.3 + 0.06 * np.sin(6.0 * theta)
        data = np.where(inside[..., None, None],
                        rotation_branch(alpha), reflection_branch(alpha))
        return MatrixField.grid_field(spec.grid, data)

    if name == "torus_parallel_defects":
        x, y = _torus_mesh(spec.grid)
        alpha = np.pi * np.sin(2.0 * np.pi * y)
        so = _parallel_region(x, y)
        data = np.where(so[..., None, None],
                        rotation_branch(alpha), reflection_branch(alpha))
        return MatrixField.grid_field(spec.grid, data)

    if name == "torus_winding":
        x, y = _torus_mesh(spec.grid)
        alpha = 2.0 * np.pi * spec.winding_index * y
        so = _parallel_region(x, y)
        data = np.where(so[..., None, None],
                        rotation_branch(alpha), reflection_branch(alpha))
        return MatrixField.grid_field(spec.grid, data)

    if name == "torus_disk_n1":
        x, y = _torus_mesh(spec.grid)
        inside = x**2 + y**2 < spec.disk_radius**2
        data = np.where(inside, 1.0, -1.0)[..., None, None]
        return MatrixField.grid_field(spec.grid, data)

    if name in ("sphere_two_patches", "sphere_volume"):
        pts = _band_points(spec)
        plus = (pts[:, 0] < 0) & (pts[:, 1] < 0) & (pts[:, 2] > 0)
        return _two_patch_field(spec.band, plus)

    if name == "peanut_two_patches":
        pts = _band_points(spec)
        y2z2 = pts[:, 1] ** 2 + pts[:, 2] ** 2
        plus = pts[:, 0] > np.sqrt(y2z2 * (pts[:, 1] ** 2 + 0.1) / 1.5)
        return _two_patch_field(spec.band, plus)

    raise ConfigurationError(f"unknown scenario {name!r}")


def _band_points(spec: ScenarioSpec) -> np.ndarray:
    if spec.band is None:
        raise ConfigurationError(f"scenario {spec.name!r} needs a band")
    return spec.band.closest_points


def _two_patch_field(band: BandSet, plus_mask: np.ndarray) -> MatrixField:
    data = np.where(plus_mask[:, None, None], PATCH_PLUS, PATCH_MINUS)
    return MatrixField.cloud_field(band.closest_points, band.surface_weights(),
                                   data)


def builtin_surface(name: str) -> Surface:
    """The two built-in closed surfaces."""
    if name == "sphere":
        return Sphere(1.0)
    if name == "peanut":
        return peanut_surface()
    raise ConfigurationError(f"unknown surface {name!r}")

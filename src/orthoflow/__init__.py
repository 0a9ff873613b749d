"""Diffusion-generated (MBO) motion for orthogonal matrix-valued fields.

Solvers for the two-step iteration (heat diffusion, then pointwise
projection onto the orthogonal group) on flat tori and on closed surfaces
represented by their closest-point maps, with a volume-constrained variant
and a built-in Lyapunov-energy monitor.
"""

from .cpm_surface import (BandSet, BandSpec, CallableSurface, Sphere, Surface,
                          SurfaceDiffuser, SurfaceOfRevolution, band_width,
                          build_band, peanut_surface, spectral_grid, tail_T)
from .errors import ConfigurationError, SnapshotFormatError, UnderResolvedError
from .field import (EnergyLog, GridSpec, MatrixField, interface_cells,
                    plus_region_stats, plus_volume, read_snapshot,
                    winding_pair, write_snapshot)
from .matgeom import determinants, projection_factors
from .mbo import (Diffuser, MboConfig, RunResult, lyapunov_energy, mbo_run,
                  mbo_step, select_threshold)
from .nufft import ModeGrid, direct_type1, direct_type2, nufft_type1, nufft_type2
from .scenarios import SCENARIO_NAMES, ScenarioSpec, build_initial, builtin_surface
from .torus_heat import TorusDiffuser, heat_multiplier

__version__ = "0.1.0"

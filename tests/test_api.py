"""Public API drift: every exported name exists and the README example runs."""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import orthoflow
from orthoflow import (BandSpec, GridSpec, MatrixField, Sphere, SurfaceDiffuser,
                       SurfaceOfRevolution, band_width, build_band)
from orthoflow.cli import cmd_run

README = Path(__file__).resolve().parents[1] / "README.md"
CLI = Path(orthoflow.__file__).with_name("cli.py")
MODULES = sorted(m.name for m in pkgutil.iter_modules(orthoflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"orthoflow.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"orthoflow.{name}.__all__ names missing attributes: {missing}"
    exec(f"from orthoflow.{name} import *", {})


def test_readme_library_example_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md (Library)", "exec"), {})
    iterations, volume = capsys.readouterr().out.split()
    assert int(iterations) >= 1 and float(volume) >= 0.0


def test_field_report_replaces_the_diagnostic_pairs():
    # field_report is the one checked pass behind every diagnostic but plus_volume
    for name in ("FieldReport", "field_report", "plus_volume"):
        assert name in orthoflow.field.__all__ and hasattr(orthoflow, name)
    for name in ("interface_cells", "plus_region_stats", "winding_pair", "PlusRegionStats",
                 "_plus_volume", "_interface_cells", "_plus_region_stats", "_winding_pair"):
        assert not hasattr(orthoflow.field, name) and not hasattr(orthoflow, name)
    assert not hasattr(orthoflow.errors, "UnderResolvedError")


def test_cli_imports_no_private_name():
    # the CLI reads the library through its public names only
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse(CLI.read_text()))
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"cli.py imports private names: {private}"


def test_one_surface_field_constructor_and_no_unused_knobs():
    # BandSet.field is the one surface field constructor; the adapter class,
    # the stored grid distances, the CSV reader and two constructor knobs are gone
    assert not hasattr(orthoflow, "CallableSurface")
    assert not hasattr(orthoflow.cpm_surface, "CallableSurface")
    assert "CallableSurface" not in orthoflow.cpm_surface.__all__
    assert not hasattr(orthoflow.BandSet, "constant_field")
    assert not hasattr(orthoflow.EnergyLog, "from_csv")
    assert not hasattr(orthoflow.scenarios, "_two_patch_field")
    with pytest.raises(TypeError):
        Sphere(1.0, center=(0.0, 0.0, 0.0))
    with pytest.raises(TypeError):
        SurfaceOfRevolution(np.cos, np.sin, t_range=(0.0, np.pi), samples=1024)
    assert orthoflow.cpm_surface.PROFILE_SAMPLES == 1024


def test_two_scenario_builders_and_one_scenario_table(tmp_path, capsys):
    # the scenario table decides the family and the surface; the spec wrapper,
    # its builder, the surface lookup, the surface base class and the two
    # config keys they served are gone
    for name in ("ScenarioSpec", "build_initial", "builtin_surface"):
        assert not hasattr(orthoflow, name) and not hasattr(orthoflow.scenarios, name)
        assert name not in orthoflow.scenarios.__all__
    assert not hasattr(orthoflow, "Surface") and not hasattr(orthoflow.cpm_surface, "Surface")
    assert "Surface" not in orthoflow.cpm_surface.__all__
    scenarios = orthoflow.scenarios
    assert scenarios.SCENARIO_NAMES == (scenarios.TORUS_SCENARIOS
                                        + tuple(scenarios.SURFACE_SCENARIOS))

    for key in ("surface.name = sphere", "surface.w_b = 2.0"):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"scenario.name = sphere_two_patches\n{key}\n")
        assert cmd_run(str(cfg), out_dir=tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: unknown config key {key.split()[0]!r}\n"

    grid = GridSpec((8, 8))
    band = build_band(Sphere(), BandSpec(dx=0.5, w_b=band_width(0.05, 1e-6), eps=1e-6))
    for name in scenarios.SURFACE_SCENARIOS:
        with pytest.raises(orthoflow.ConfigurationError) as info:
            scenarios.torus_initial(name, grid)
        assert str(info.value) == f"{name!r} is not a torus scenario"
    for name in scenarios.TORUS_SCENARIOS:
        with pytest.raises(orthoflow.ConfigurationError) as info:
            scenarios.surface_initial(name, band)
        assert str(info.value) == f"{name!r} is not a surface scenario"


def test_one_point_per_band_cell(tmp_path, capsys):
    # the Gauss-Chebyshev cell rule and the surface.p key are gone; BandSpec.p
    # accepts only the one point per cell
    assert not hasattr(orthoflow.cpm_surface, "_gc_nodes_weights")
    assert BandSpec(dx=0.5, w_b=1.0).p == 1
    with pytest.raises(orthoflow.ConfigurationError) as info:
        BandSpec(dx=0.5, w_b=1.0, p=3)
    assert str(info.value) == "p must be 1, one point per band cell, got 3"
    cfg = tmp_path / "c.txt"
    cfg.write_text("scenario.name = sphere_two_patches\nsurface.p = 1\n")
    assert cmd_run(str(cfg), out_dir=tmp_path / "o") == 1
    assert capsys.readouterr().err == "error: unknown config key 'surface.p'\n"


def test_surface_diffuser_takes_its_band_s_fields_only():
    tau, eps = 0.05, 1e-6
    spec = BandSpec(dx=0.5, w_b=band_width(tau, eps), eps=eps)
    band = build_band(Sphere(1.0), spec)
    assert not hasattr(band, "grid_distances")
    data = np.broadcast_to(np.eye(2), (band.n_q, 2, 2))
    f = band.field(data)
    assert f.points is band.closest_points and f.weights is band.surface_weights()
    diffuser = SurfaceDiffuser(band, tau)
    assert diffuser.diffuse(f).data.shape == (band.n_q, 2, 2)

    # a grid field, a field of another band, the same points reordered
    other = build_band(Sphere(1.0), BandSpec(dx=0.45, w_b=spec.w_b, eps=eps))
    order = np.random.default_rng(0).permutation(band.n_q)
    refused = [MatrixField.grid_field(GridSpec((8, 8)), np.broadcast_to(np.eye(2), (8, 8, 2, 2))),
               other.field(np.broadcast_to(np.eye(2), (other.n_q, 2, 2))),
               MatrixField.cloud_field(band.closest_points[order],
                                       band.surface_weights()[order], data)]
    for g in refused:
        with pytest.raises(ValueError) as info:
            diffuser.diffuse(g)
        assert str(info.value) == "field does not live on this band's closest points"

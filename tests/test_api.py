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


def test_surface_diffuser_takes_its_band_s_fields_only():
    tau, eps = 0.05, 1e-6
    spec = BandSpec(dx=0.5, w_b=band_width(tau, eps), p=1, eps=eps)
    band = build_band(Sphere(1.0), spec)
    assert not hasattr(band, "grid_distances")
    data = np.broadcast_to(np.eye(2), (band.n_q, 2, 2))
    f = band.field(data)
    assert f.points is band.closest_points and f.weights is band.surface_weights()
    diffuser = SurfaceDiffuser(band, tau)
    assert diffuser.diffuse(f).data.shape == (band.n_q, 2, 2)

    # a grid field, a field of another band, the same points reordered
    other = build_band(Sphere(1.0), BandSpec(dx=0.45, w_b=spec.w_b, p=1, eps=eps))
    order = np.random.default_rng(0).permutation(band.n_q)
    refused = [MatrixField.grid_field(GridSpec((8, 8)), np.broadcast_to(np.eye(2), (8, 8, 2, 2))),
               other.field(np.broadcast_to(np.eye(2), (other.n_q, 2, 2))),
               MatrixField.cloud_field(band.closest_points[order],
                                       band.surface_weights()[order], data)]
    for g in refused:
        with pytest.raises(ValueError) as info:
            diffuser.diffuse(g)
        assert str(info.value) == "field does not live on this band's closest points"

"""Public API drift: every exported name exists and the README example runs."""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import orthoflow

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

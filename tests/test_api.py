"""Public API drift: every exported name exists and the README example runs."""
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import orthoflow

README = Path(__file__).resolve().parents[1] / "README.md"
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

import importlib
import pkgutil
from pathlib import Path

import pytest

import unitalforge

tomllib = pytest.importorskip("tomllib")       # Python >= 3.11


def test_one_version_and_exports_that_resolve():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == unitalforge.__version__
    modules = [unitalforge] + [importlib.import_module(f"unitalforge.{m.name}")
                               for m in pkgutil.iter_modules(unitalforge.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)

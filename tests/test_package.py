import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import unitalforge


def test_one_version():
    tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == unitalforge.__version__


def test_exports_that_resolve():
    modules = [unitalforge] + [importlib.import_module(f"unitalforge.{m.name}")
                               for m in pkgutil.iter_modules(unitalforge.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_certification_does_not_import_numpy_ma():
    # a plain np.unique(x) imports numpy.ma for np.ma.is_masked, 9-16 ms
    # inside the first operation of a fresh process
    script = """
import sys
from unitalforge import gf, planar, unital as un
from unitalforge.plane import ShiftPlane
plane = ShiftPlane(planar.square(gf.split_new(gf.field_new(3, 2), 1)))
assert plane.verify_projective_plane("exhaustive").passed
u = un.build_parabolic_unital(plane, plane.split.choose_theta())
assert un.verify_unital_embedded(u, mode="sampled", trials=500).passed
print("numpy.ma" in sys.modules)
"""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def test_only_gf_reads_the_split_addition_tables():
    # every other module adds through FieldCtx's methods, so the layout of
    # the addition tables can change in gf alone
    src = Path(unitalforge.__file__).resolve().parent
    layout = re.compile(r"split_base|add_lo|add_hi")
    readers = sorted(path.name for path in src.glob("*.py")
                     if layout.search(path.read_text(encoding="utf-8")))
    assert readers == ["gf.py"]


def test_every_error_type_is_raised():
    # an error type that nothing raises is dead: code removed from src/
    # must take its error types along
    from unitalforge import errors

    src = Path(unitalforge.__file__).resolve().parent
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    types = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.UnitalForgeError)}
    assert sorted(types - raised - {"UnitalForgeError", "UsageError"}) == []

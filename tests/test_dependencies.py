import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Imports every submodule and runs the kernel engine and the grid estimator in
# a fresh interpreter, so that nothing else the test run imported counts.
_PROBE = """
import importlib, pkgutil, sys
import numpy as np
import straightflow
for info in pkgutil.iter_modules(straightflow.__path__):
    importlib.import_module("straightflow." + info.name)
from straightflow import calculus, estimate
rng = np.random.default_rng(0)
X = rng.standard_normal((500, 2))
estimate.nw_regress(X, X, X[:50], 0.3)
grid = calculus.make_spatial_grid([(-1.0, 1.0), (-1.0, 1.0)], 5)
estimate.fields_on_grid(X, X, X, grid, estimate.KernelConfig())
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_scipy_at_runtime():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


def test_declared_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = sorted(re.split(r"[<>=!~ ;\[]", dep)[0] for dep in project["dependencies"])
    assert names == ["jsonschema", "numpy"]


def test_exports_resolve_and_are_public():
    import straightflow

    for name in straightflow._SUBMODULES:
        module = importlib.import_module(f"straightflow.{name}")
        for export in getattr(module, "__all__", ()):
            assert not export.startswith("_"), f"{name}.{export} is private"
            assert hasattr(module, export), f"{name}.__all__ names missing {export}"

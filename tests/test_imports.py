"""Import hygiene: every top-level import is read (an import left behind by a
deletion fails here), and importing the package loads no quadrature module."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "drivenfluct").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unread_imports(path: Path) -> list[str]:
    """Names bound by the module's top-level imports that it never reads.

    Exempt: ``from __future__``, the package root's relative re-exports, and
    names listed in the module's ``__all__``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (path.name == "__init__.py" and node.level):
                continue
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read and name not in exported]


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    unread = unread_imports(path)
    assert not unread, f"{path.name} imports names it never reads: {unread}"


def test_package_import_leaves_quadrature_unloaded():
    """``import drivenfluct`` loads no ``scipy.integrate``, nor the ``scipy.optimize``
    it pulls in; the first Gaussian kernel average loads it and integrates."""
    probe = (
        "import sys\n"
        "import drivenfluct, drivenfluct.cli\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))\n"
        "from drivenfluct import nonequil_observables as no\n"
        "print(repr(no.smeared_planck(1.0, no.GaussianKernel(2.0, 0.1))), 'scipy.integrate' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded, smeared = done.stdout.splitlines()
    assert loaded == "[]"
    value, integrate_loaded = smeared.split()
    assert integrate_loaded == "True"
    # independent route: 40-point Gauss-Hermite rule over the normal weight
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    expected = weights @ (1.0 / np.expm1(1.0 / (2.0 + 0.1 * nodes))) / math.sqrt(2.0 * math.pi)
    assert float(value) == pytest.approx(expected, rel=1e-9)

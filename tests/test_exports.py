"""Every exported name resolves: a deletion that leaves its export behind fails here."""

import importlib
import pkgutil

import pytest

import drivenfluct

MODULES = sorted(
    f"{drivenfluct.__name__}.{info.name}" for info in pkgutil.iter_modules(drivenfluct.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"


def test_star_import():
    namespace: dict = {}
    exec("from drivenfluct import *", namespace)
    assert "analytic_sigma" in namespace
    for name in MODULES:
        namespace = {}
        exec(f"from {name} import *", namespace)

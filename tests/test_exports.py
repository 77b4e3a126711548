"""Every exported name resolves, and every exported exception is raised: a
deletion that leaves its export, or a refusal type its last ``raise``, behind
fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def raised_names() -> set[str]:
    """The name of every class that a ``raise`` statement in ``src/`` raises,
    called or not, however qualified (``raise xl.SizeLimitError(...)``)."""
    names = set()
    for path in Path(drivenfluct.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, (ast.Name, ast.Attribute)):
                    names.add(target.id if isinstance(target, ast.Name) else target.attr)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_exported_exceptions_are_raised(name):
    module = importlib.import_module(name)
    exported = [getattr(module, attr) for attr in getattr(module, "__all__", ())]
    classes = [obj for obj in exported if isinstance(obj, type) and issubclass(obj, BaseException)]
    raised = raised_names()
    unraised = [cls.__name__ for cls in classes if cls.__name__ not in raised]
    assert not unraised, f"{name}.__all__ exports exceptions that src/ never raises: {unraised}"

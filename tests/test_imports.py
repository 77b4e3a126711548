"""Every top-level import is read: an import left behind by a deletion fails here."""

import ast
from pathlib import Path

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

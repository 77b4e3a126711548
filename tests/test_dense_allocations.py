"""Where ``src/`` may build dense 2^N x 2^N arrays: a sparse operator is made
dense only in ``MatrixOperator.matrix``, and the dense-memory guard is
called only from there and from ``propagator``, the two dense routes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "drivenfluct"


def calls_by_function(name: str) -> set[str]:
    """``file:qualname`` of every function in ``src/`` that calls ``name``,
    as a method (``x.name(...)``) or a plain function (``name(...)``)."""
    found = set()

    def visit(node, where, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, where, [*scope, child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name:
                    found.add(f"{where}:{'.'.join(scope) or '<module>'}")
            visit(child, where, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, [])
    return found


def test_toarray_only_in_matrix():
    assert calls_by_function("toarray") == {"exact_lattice.py:MatrixOperator.matrix"}


def test_dense_memory_guard_only_on_the_dense_routes():
    assert calls_by_function("_require_dense_memory") == {
        "exact_lattice.py:MatrixOperator.matrix",
        "exact_lattice.py:propagator",
    }

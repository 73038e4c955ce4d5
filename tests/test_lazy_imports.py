"""numpy and cmath load only with the float work that reads them.

Every module of the package imports them inside the functions that use
them (eigenvalues, the quadrature rule of a density, the split Cauchy
transform, the slope fit), never at module level, so a process that runs
only the exact lane loads neither.  The check reads the source, so it
holds whatever other test modules have already imported.
"""

import ast
from pathlib import Path

import cauchybop

PACKAGE = Path(cauchybop.__file__).resolve().parent
LAZY = {"numpy", "cmath"}


def imports_on_load(tree) -> set:
    """Top-level names of the modules an import of this module runs: every
    import statement outside a function body."""
    names, todo = set(), [tree]
    while todo:
        for child in ast.iter_child_nodes(todo.pop()):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names.update(alias.name.split(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names.add(child.module.split(".")[0])
            todo.append(child)
    return names


def test_imports_on_load_skips_function_bodies_only():
    tree = ast.parse("import numpy.linalg\n"
                     "class C:\n    from cmath import pi\n"
                     "def f():\n    import json\n"
                     "from . import bundle\n")
    assert imports_on_load(tree) == {"numpy", "cmath"}


def test_no_module_imports_numpy_or_cmath_at_module_level():
    eager = {path.name: sorted(imports_on_load(ast.parse(path.read_text()))
                               & LAZY)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: mods for name, mods in eager.items() if mods} == {}

"""Every tuple the package builds is allocated at its final size.

CPython builds ``tuple(it)`` from an iterator that has no length (a
generator expression, ``map``, ``zip``, ``filter``, ``enumerate``, an
``itertools`` function) in a 10-slot block and shrinks it once ``it`` is
spent.  The shrunk tuple is freed onto the free list of its final size,
which the same construction never takes from, so each such call leaves
one more cached tuple behind: a long loop of jobs raises the process's
memory high-water mark job by job.  The argument tuple of ``f(*it)`` is
built the same way.  A list comprehension, a list, a tuple or a range has
a length, and the tuple is allocated once at that size.
"""

import ast
import gc
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

import cauchybop
from cauchybop.cli import main

from .test_cli import SIX_ATOM

PACKAGE = Path(cauchybop.__file__).resolve().parent
ITERATOR_BUILTINS = {"map", "zip", "filter", "enumerate"}
FREE_TUPLES = re.compile(r"(\d+) free (\d+)-sized PyTupleObject")


def _is_iterator(node, from_itertools) -> bool:
    """node is a generator expression, or a call of an iterator builtin or
    of an itertools function (by attribute or by imported name)."""
    if isinstance(node, ast.GeneratorExp):
        return True
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Name):
        return f.id in ITERATOR_BUILTINS or f.id in from_itertools
    return (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
            and f.value.id == "itertools")


def tuples_built_from_iterators():
    """file:line of every ``tuple(it)`` and ``f(*it)`` in the package whose
    one argument is an iterator without a length."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        from_itertools = {alias.asname or alias.name
                          for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom)
                          and node.module == "itertools"
                          for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or len(node.args) != 1:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Starred):
                arg = arg.value
            elif not (isinstance(node.func, ast.Name)
                      and node.func.id == "tuple" and not node.keywords):
                continue
            if _is_iterator(arg, from_itertools):
                sites.append(f"{path.name}:{node.lineno}")
    return sites


def test_no_tuple_is_built_from_an_iterator_without_a_length():
    assert tuples_built_from_iterators() == []


def free_tuples() -> dict:
    """Free-list length by tuple size, from CPython's allocator report,
    which ``sys._debugmallocstats`` writes to file descriptor 2."""
    with tempfile.TemporaryFile() as report:
        saved = os.dup(2)
        os.dup2(report.fileno(), 2)
        try:
            sys._debugmallocstats()
        finally:
            os.dup2(saved, 2)
            os.close(saved)
        report.seek(0)
        text = report.read().decode()
    return {int(size): int(count)
            for count, size in FREE_TUPLES.findall(text)}


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="the tuple free lists are a CPython detail")
def test_repeated_verify_does_not_grow_the_tuple_free_lists(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SIX_ATOM))
    argv = ["verify", str(spec), "-N", "5", "--suite", "all"]
    assert main(argv) == 0      # the first call builds what later calls reuse
    enabled = gc.isenabled()
    # a full collection empties the free lists: one now, so that none is
    # already at its cap, and none while they are read
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        before = free_tuples()
        for _ in range(3):
            assert main(argv) == 0
        after = free_tuples()
    finally:
        if enabled:
            gc.enable()
    if not before:
        pytest.skip("this interpreter reports no tuple free lists")
    grown = {size: after[size] - before[size] for size in after
             if after[size] > before.get(size, 0)}
    assert grown == {}

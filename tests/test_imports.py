"""equiops depends on the standard library alone (pyproject declares no
dependencies): every absolute import in src/equiops, at module level or
inside a function, names a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "equiops").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_are_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    foreign = sorted({name for name in absolute_imports(path)
                      if name.split(".")[0] not in sys.stdlib_module_names})
    assert not foreign, "%s imports %s" % (path.name, ", ".join(foreign))

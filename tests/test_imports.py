"""equiops depends on the standard library alone (pyproject declares no
dependencies): every absolute import in src/equiops, at module level or
inside a function, names a standard-library module.  Every module but
`__init__.py` reads each name it imports at module level.  The one
immutability guard of the value types, `cyclotomic._Immutable`, is the only
definition of `__setattr__` or `__delattr__`.  The operator protocol of the
six ring types is defined once, beside the guard, and only the hashable
types define `__hash__`.  So is each way into an exact value: the one
conversion to `RatFn`, the one scalar entry and the one conductor lift of
the coefficient store, and its one normaliser."""

import ast
import sys
from functools import cache
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "equiops").glob("*.py"))


@cache
def parsed(path):
    return ast.parse(path.read_text(), str(path))


def absolute_imports(path):
    for node in ast.walk(parsed(path)):
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


def module_level_imports(tree):
    """(bound name, line) of every import statement in the module body,
    `from __future__` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_level_imports_are_read(path):
    # __init__.py imports to re-export; every other module reads what it imports
    tree = parsed(path)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = ["%s (line %d)" % (name, line) for name, line in module_level_imports(tree)
              if name not in read]
    assert not unread, "%s never reads %s" % (path.name, ", ".join(unread))


GUARD = {"__setattr__", "__delattr__"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cyclotomic.py"],
                         ids=lambda p: p.name)
def test_only_the_guard_defines_setattr(path):
    # a def, or a name bound by assignment, in any class or at module level
    tree = parsed(path)
    found = sorted({node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                    and node.name in GUARD}
                   | {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                      for t in node.targets if isinstance(t, ast.Name) and t.id in GUARD})
    assert not found, "%s defines %s; inherit cyclotomic._Immutable" % (path.name, ", ".join(found))


def classes():
    """{name: (base names, names bound in the body)} of every class in src/equiops."""
    out = {}
    for path in SOURCES:
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.ClassDef):
                bound = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                bound |= {t.id for n in node.body if isinstance(n, ast.Assign)
                          for t in n.targets if isinstance(t, ast.Name)}
                out[node.name] = ([b.id for b in node.bases if isinstance(b, ast.Name)], bound)
    return out


def ancestors(name, table):
    bases = table[name][0] if name in table else []
    return set(bases).union(*[ancestors(b, table) for b in bases])


# cyclotomic._Ring and _Field; each ring type inherits all of its protocol
# but the overrides named here (Cyclo's - without a negated temporary, RatFn's
# ** by num and den)
PROTOCOL = {"_Ring": {"__sub__", "__rsub__", "__bool__"}, "_Field": {"__rtruediv__", "__pow__"}}
RINGS = {"Cyclo": "_Field", "Poly": "_Ring", "RatFn": "_Field", "QSeries": "_Field",
         "NCPoly": "_Ring", "MatFn": "_Ring"}
OVERRIDES = {"Cyclo": {"__sub__"}, "RatFn": {"__pow__"}}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_ring_types_inherit_the_protocol(name):
    table = classes()
    above = ancestors(name, table)
    assert RINGS[name] in above, "%s does not inherit cyclotomic.%s" % (name, RINGS[name])
    protocol = set().union(*[PROTOCOL[b] for b in above if b in PROTOCOL])
    copied = sorted(table[name][1] & protocol - OVERRIDES.get(name, set()))
    assert not copied, "%s defines %s; inherit it" % (name, ", ".join(copied))


def test_only_the_hashable_types_define_hash():
    # a class that defines __eq__ alone is unhashable already
    hashed = {name for name, (_, bound) in classes().items() if "__hash__" in bound}
    assert hashed == {"Cyclo", "Poly", "RatFn", "Moebius"}


# ratfn._ratfn_of and _as_ratfn, poly._entered, _lifted and _store
ONE_WAY_IN = ("_ratfn_of", "_as_ratfn", "_entered", "_lifted", "_store")


@pytest.mark.parametrize("name", ONE_WAY_IN)
def test_each_way_into_a_value_is_defined_once(name):
    # a def of that name anywhere, a method included
    found = ["%s:%d" % (path.name, node.lineno) for path in SOURCES
             for node in ast.walk(parsed(path))
             if isinstance(node, ast.FunctionDef) and node.name == name]
    assert len(found) == 1, "%s is defined at %s" % (name, ", ".join(found) or "no line")

"""No module of the package reads another module's or object's private names.

A leading underscore marks a name as internal to the module or class that
defines it.  This guard parses every module under ``src/netpass`` and fails
on ``from .module import _name`` and on ``<expr>._name`` unless ``<expr>``
is ``self`` or ``cls``.  Dunder names such as ``__setattr__`` are protocol
names, not private ones, and are allowed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netpass"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_name_uses(source, filename):
    """``file:line: description`` for every foreign private name in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{filename}:{node.lineno}: imports "
                                 f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                found.append(f"{filename}:{node.lineno}: reads "
                             f"{ast.unparse(owner)}.{node.attr}")
    return found


def test_guard_flags_foreign_private_names():
    source = ("from .harness import _round_floats, verify\n"
              "x = system.controllers._w\n"
              "y = self._cache + cls._registry + obj.__class__\n")
    assert private_name_uses(source, "m.py") == [
        "m.py:1: imports harness._round_floats",
        "m.py:2: reads system.controllers._w",
    ]


def test_package_reads_no_foreign_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        found += private_name_uses(path.read_text(), path.name)
    assert found == []

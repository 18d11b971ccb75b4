"""No module of the package imports a name it never reads.

No linter runs on the package, so this guard does the check an unused-import
lint would: it parses every module under ``src/netpass`` but ``__init__.py``
(whose imports are the public surface it re-exports) and fails on an
imported name the module never loads.  A name listed in the module's
``__all__`` counts as read.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netpass"


def unused_imports(source, filename):
    """``file:line: name`` for every imported name ``source`` never reads."""
    tree = ast.parse(source, filename)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{filename}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in read]


def test_guard_flags_names_never_read():
    source = ("import numpy as np\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "from .errors import DimensionMismatchError, as_vector\n"
              "__all__ = ['as_vector']\n"
              "@dataclass\n"
              "class Loop:\n"
              "    def rate(self):\n"
              "        return np.zeros(os.path.sep)\n")
    assert unused_imports(source, "m.py") == [
        "m.py:3: field",
        "m.py:4: DimensionMismatchError",
    ]


def test_package_imports_no_unused_names():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = []
    for path in modules:
        found += unused_imports(path.read_text(), path.name)
    assert found == []

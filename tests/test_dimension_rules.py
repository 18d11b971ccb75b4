"""Each dimension and label rule is written once, in ``errors.py``.

``as_vector`` refuses a vector without one finite entry per vertex, edge or
agent, and ``check_counts`` refuses banks without one agent per vertex and
one controller per edge, an empty agent bank included; every entry point
calls them.  ``is_integer`` is the one test of a vertex label, count or
seed.  These guards parse every module under ``src/netpass`` but
``errors.py``: one fails on any ``raise DimensionMismatchError``, the other
on any ``isinstance(..., bool)`` but ``harness._number``'s, whose rule is a
number's, not an integer's.  The controller count is refused by
``ClosedLoopSystem`` and ``build_problem`` alike.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from netpass import (
    AgentBank,
    ClosedLoopSystem,
    ControllerBank,
    DimensionMismatchError,
    IntegratorAgent,
    NetworkGraph,
    TanhIntegratorController,
    build_problem,
    zero_design,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netpass"

OWN_RAISES = []
OWN_BOOL_TESTS = [("harness.py", "_number")]


def scoped_matches(source, filename, matches):
    """(file, qualified name of the enclosing function or ``<module>``) per node ``matches``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if matches(child):
                found.append((filename, ".".join(scope) or "<module>"))
            visit(child, scope)

    visit(ast.parse(source, filename), ())
    return found


def raises_dimension_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return ast.unparse(exc).split(".")[-1] == "DimensionMismatchError"


def is_bool_test(node):
    """An ``isinstance`` call whose classes name ``bool``."""
    return (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
            and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1])))


def dimension_raises(source, filename):
    return scoped_matches(source, filename, raises_dimension_error)


def bool_tests(source, filename):
    return scoped_matches(source, filename, is_bool_test)


def test_guard_finds_raises_by_enclosing_function():
    source = ("class Bank:\n"
              "    def check(self, y):\n"
              "        if y is None:\n"
              "            raise DimensionMismatchError('y')\n"
              "def counts(n):\n"
              "    raise errors.DimensionMismatchError\n"
              "def other():\n"
              "    raise ValueError('x')\n")
    assert dimension_raises(source, "m.py") == [("m.py", "Bank.check"), ("m.py", "counts")]


def test_guard_finds_bool_tests_by_enclosing_function():
    source = ("def label(v):\n"
              "    return isinstance(v, int) and not isinstance(v, bool)\n"
              "class Reader:\n"
              "    def read(self, v):\n"
              "        return isinstance(v, (float, bool))\n"
              "def other(t):\n"
              "    return issubclass(t, bool) or isinstance(t, int)\n")
    assert bool_tests(source, "m.py") == [("m.py", "label"), ("m.py", "Reader.read")]


def package_matches(find):
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py")
    assert modules
    return [r for path in modules for r in find(path.read_text(), path.name)]


def test_only_errors_writes_the_dimension_rules():
    assert package_matches(dimension_raises) == OWN_RAISES


def test_only_errors_writes_the_integer_rule():
    assert package_matches(bool_tests) == OWN_BOOL_TESTS


@pytest.mark.parametrize("count", [2, 4])
def test_a_controller_count_off_by_one_is_refused(count):
    graph = NetworkGraph.complete(3)
    agents = AgentBank([IntegratorAgent()] * 3)
    controllers = ControllerBank([TanhIntegratorController()] * count)
    message = f"{count} controllers for 3 edges"
    with pytest.raises(DimensionMismatchError, match=message):
        ClosedLoopSystem(graph, agents, controllers, zero_design(np.ones(3), graph))
    with pytest.raises(DimensionMismatchError, match=message):
        build_problem(graph, agents, controllers)

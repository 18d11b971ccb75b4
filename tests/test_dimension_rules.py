"""Each dimension rule is written once, in ``errors.py``.

``as_vector`` refuses a vector without one entry per vertex, edge or agent,
and ``check_counts`` refuses banks without one agent per vertex and one
controller per edge; every entry point calls them.  This guard parses every
module under ``src/netpass`` but ``errors.py`` and fails on any other
``raise DimensionMismatchError`` than the agent bank's refusal of an empty
bank, which no length rule covers.  The controller count is refused by
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

OWN_RAISES = [("agents.py", "AgentBank.__init__")]


def dimension_raises(source, filename):
    """(file, qualified name of the enclosing function or ``<module>``) per raise."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if ast.unparse(exc).split(".")[-1] == "DimensionMismatchError":
                    found.append((filename, ".".join(scope) or "<module>"))
            visit(child, scope)

    visit(ast.parse(source, filename), ())
    return found


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


def test_only_errors_writes_the_dimension_rules():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py")
    assert modules
    assert [r for path in modules for r in dimension_raises(path.read_text(), path.name)] \
        == OWN_RAISES


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

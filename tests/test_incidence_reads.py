"""The package applies the incidence from the edge list, not by dense products.

``NetworkGraph`` neither stores nor forms an incidence matrix.  It writes
E^T y as ``y[heads] - y[tails]``, E v as ``scatter`` and E diag(w) E^T as
``weighted_laplacian``.  The closed loop writes its ``[A | B]`` by index,
its all-deep RK4 map gathers rows by edge end, and the default step takes
its norms from n x n Laplacians, and the stationarity residual solves a
total-variation prox on the free edges' own graph.  No dense incidence
operator is left.  This guard parses every module under ``src/netpass``
and fails on any read of an ``.incidence`` attribute: the allow-list is
empty.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netpass"


def incidence_reads(source, filename):
    """(file, qualified name of the enclosing function or ``<module>``, line) per read."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "incidence":
                found.append((filename, ".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(ast.parse(source, filename), ())
    return found


def test_guard_finds_reads_by_enclosing_function():
    source = ("E = graph.incidence\n"
              "class Loop:\n"
              "    def build(self):\n"
              "        return self.graph.incidence[:, 0]\n"
              "def gather(graph, y):\n"
              "    return graph.incidence.T @ y + graph.heads\n")
    assert incidence_reads(source, "m.py") == [
        ("m.py", "<module>", 1), ("m.py", "Loop.build", 4), ("m.py", "gather", 6)]


def test_only_dense_operator_builders_read_the_incidence():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [read for path in modules for read in incidence_reads(path.read_text(), path.name)] == []

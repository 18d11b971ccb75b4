"""The package applies the incidence from the edge list, not by dense products.

``NetworkGraph`` stores no incidence matrix.  It writes E^T y as
``y[heads] - y[tails]``, E v as ``scatter`` and E diag(w) E^T as
``weighted_laplacian``.  Its ``incidence(mask)``, which forms the dense
columns of the edges a mask selects, is called elsewhere only by the two
functions that need a dense operator from them: the default step, which
takes the 2-norm of the tanh edges' columns ``E_sat`` and drops them, and
the stationarity fit's least-squares matrix.  The closed loop writes its
``[A | B]`` by index and its all-deep RK4 map gathers rows by edge end, so
neither holds ``E_sat``.  This guard parses every module under
``src/netpass`` but ``graph.py`` and fails on any other read of
``.incidence``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netpass"

DENSE_OPERATOR_BUILDERS = {
    ("sim.py", "_default_step"),
    ("netopt.py", "stationarity_residual"),
}


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
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "graph.py")
    assert modules
    reads = [read for path in modules for read in incidence_reads(path.read_text(), path.name)]
    assert [r for r in reads if r[:2] not in DENSE_OPERATOR_BUILDERS] == []
    # every named builder still reads it, so a stale entry cannot hide a new reader
    assert {r[:2] for r in reads} == DENSE_OPERATOR_BUILDERS

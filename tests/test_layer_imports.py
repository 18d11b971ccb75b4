"""The simulator and the optimizer import nothing from each other.

``verify`` means something only because it computes two answers apart and
then compares them: the closed loop's steady state (``sim``) and the
regularized problem's minimizer (``netopt``).  The check that measures a
simulated endpoint against the problem, ``steady_state_residual``, lives in
``netopt`` and reads the loop's parts.  This guard parses both modules and
fails on any import of the other, relative or absolute.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netpass"


def package_imports(source, filename):
    """The ``netpass`` modules a module's source imports, by their short names."""
    found = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("netpass." if node.level else "") + (node.module or "")
            names = [f"{module.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("netpass."))
    return found


def test_guard_finds_relative_and_absolute_imports():
    source = ("import numpy as np\n"
              "from .errors import as_vector\n"
              "from . import netopt\n"
              "import netpass.graph\n"
              "from netpass.agents import AgentBank\n")
    assert package_imports(source, "m.py") == {"errors", "netopt", "graph", "agents"}


def test_simulator_and_optimizer_import_nothing_from_each_other():
    assert "netopt" not in package_imports((PACKAGE / "sim.py").read_text(), "sim.py")
    assert "sim" not in package_imports((PACKAGE / "netopt.py").read_text(), "netopt.py")


def test_simulator_imports_nothing_from_the_harness():
    # A trajectory CSV streams through a recorder the harness hands in, so
    # the simulator needs neither the writer nor its module.
    assert "harness" not in package_imports((PACKAGE / "sim.py").read_text(), "sim.py")

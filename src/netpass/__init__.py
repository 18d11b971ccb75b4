"""Passivation and steady-state analysis of diffusively coupled networks.

The package splits into graph structure (``graph``), vertex dynamics
(``agents``), edge controllers (``controllers``), gain synthesis with
certificates (``passivation``), closed-loop integration (``sim``), the
regularized steady-state optimization (``netopt``), and the end-to-end
verification harness plus CLI (``harness``, ``cli``).  Each module's
``__all__`` lists the names the package exports from it.
"""

from . import agents, controllers, errors, graph, harness, netopt, passivation, sim
from .errors import *
from .graph import *
from .agents import *
from .controllers import *
from .passivation import *
from .netopt import *
from .sim import *
from .harness import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, graph, agents, controllers, passivation, netopt, sim,
                               harness) for name in module.__all__]

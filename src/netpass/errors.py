"""Exception types shared across the package, and its input rules.

Entry points check a per-vertex or per-edge vector with ``as_vector``: one
finite entry each, so a length-1 one cannot broadcast and no NaN or inf passes.
``check_counts`` is the only roster-size rule, ``is_integer`` the one label test.
"""

import numpy as np

__all__ = [
    "NetpassError", "SelfLoopError", "DuplicateEdgeError", "VertexIndexError",
    "DisconnectedGraphError", "DimensionMismatchError", "NotPassivizableError",
    "NumericalBlowupError", "ParameterError", "ConfigError", "ConfigParseError",
    "ConfigSchemaError",
]


class NetpassError(Exception):
    """Base class for all package-specific errors."""


class SelfLoopError(NetpassError):
    """An edge connects a vertex to itself."""


class DuplicateEdgeError(NetpassError):
    """The same undirected edge appears more than once."""


class VertexIndexError(NetpassError):
    """A vertex count or an edge's vertex label is not an integer in range."""


class DisconnectedGraphError(NetpassError):
    """An operation that needs a connected graph was given a disconnected one."""


class DimensionMismatchError(NetpassError):
    """Vector or component counts do not agree with the graph."""


def is_integer(value):
    """An int or numpy integer, which a bool is not: a vertex label, count or seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_vector(values, length, name):
    """``values`` as a float vector, refused unless it has ``length`` finite entries."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (length,):
        raise DimensionMismatchError(f"{name} has shape {arr.shape}, expected ({length},)")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def check_counts(graph, agents, controllers):
    """Refuse banks without one agent per vertex and one controller per edge."""
    if len(agents) != graph.n_vertices:
        raise DimensionMismatchError(f"{len(agents)} agents for {graph.n_vertices} vertices")
    if len(controllers) != graph.n_edges:
        raise DimensionMismatchError(f"{len(controllers)} controllers for {graph.n_edges} edges")


class NotPassivizableError(NetpassError):
    """No certified gain design exists: a non-positive index sum, or a failed certificate."""


class NumericalBlowupError(NetpassError):
    """A simulated state left the trusted numerical range."""


class ParameterError(NetpassError, ValueError):
    """A model parameter breaks its model's rule; ``field`` names it, ``index`` the model."""

    def __init__(self, field, message, index=0):
        self.field, self.index = field, index
        super().__init__(message)


class ConfigError(NetpassError):
    """Base class for scenario-configuration errors."""


class ConfigParseError(ConfigError):
    """The configuration file is not valid JSON."""


class ConfigSchemaError(ConfigError):
    """The configuration is valid JSON but violates the schema.

    Carries the dotted path of the offending field in ``field_path``.
    """

    def __init__(self, field_path, message):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")

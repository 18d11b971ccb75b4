"""Exception types shared across the package."""


class NetpassError(Exception):
    """Base class for all package-specific errors."""


class SelfLoopError(NetpassError):
    """An edge connects a vertex to itself."""


class DuplicateEdgeError(NetpassError):
    """The same undirected edge appears more than once."""


class VertexIndexError(NetpassError):
    """An edge references a vertex outside 0..n-1."""


class DisconnectedGraphError(NetpassError):
    """An operation that needs a connected graph was given a disconnected one."""


class DimensionMismatchError(NetpassError):
    """Vector or component counts do not agree with the graph."""


class NotPassivizableError(NetpassError):
    """No network-only gain can render the interconnection passive."""


class CertificateError(NetpassError):
    """A synthesized gain failed its own positive-definiteness check."""


class EmptySelfRegulatingSetError(NetpassError):
    """Hybrid synthesis needs at least one vertex allowed to self-regulate."""


class NumericalBlowupError(NetpassError):
    """A simulated state left the trusted numerical range."""


class ParameterError(NetpassError, ValueError):
    """A model parameter breaks the model's own rule; ``field`` names it."""

    def __init__(self, field, message):
        self.field = field
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

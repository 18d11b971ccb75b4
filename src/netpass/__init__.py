"""Passivation and steady-state analysis of diffusively coupled networks.

The package splits into graph structure (``graph``), vertex dynamics
(``agents``), edge controllers (``controllers``), gain synthesis with
certificates (``passivation``), closed-loop integration (``sim``), the
regularized steady-state optimization (``netopt``), and the end-to-end
verification harness plus CLI (``harness``, ``cli``).
"""

from .errors import (
    CertificateError,
    ConfigError,
    ConfigParseError,
    ConfigSchemaError,
    DimensionMismatchError,
    DisconnectedGraphError,
    DuplicateEdgeError,
    EmptySelfRegulatingSetError,
    NetpassError,
    NotPassivizableError,
    NumericalBlowupError,
    ParameterError,
    SelfLoopError,
    VertexIndexError,
)
from .graph import NetworkGraph
from .agents import AgentBank, IntegratorAgent, StaticAffineAgent, TrafficAgent
from .controllers import (
    ControllerBank,
    StaticGainController,
    TanhIntegratorController,
)
from .passivation import (
    Certificate,
    GainDesign,
    check_design,
    component_sums,
    coupling_matrix,
    edge_gain_threshold,
    hybrid_gain,
    uniform_network_gain,
    zero_design,
)
from .netopt import (
    Minimizer,
    RegularizedProblem,
    SolveStatus,
    build_problem,
    solve,
    stationarity_residual,
)
from .sim import ClosedLoopSystem, Trajectory, simulate, steady_state_residual
from .harness import (
    ScenarioConfig,
    VerifyReport,
    cluster_count,
    config_from_dict,
    emit_report,
    generate_case_study,
    load_config,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "NetpassError", "SelfLoopError", "DuplicateEdgeError", "VertexIndexError",
    "DisconnectedGraphError", "DimensionMismatchError", "NotPassivizableError",
    "CertificateError", "EmptySelfRegulatingSetError",
    "NumericalBlowupError", "ParameterError",
    "ConfigError", "ConfigParseError", "ConfigSchemaError",
    "NetworkGraph",
    "TrafficAgent", "IntegratorAgent", "StaticAffineAgent", "AgentBank",
    "TanhIntegratorController", "StaticGainController", "ControllerBank",
    "GainDesign", "Certificate", "coupling_matrix",
    "edge_gain_threshold", "uniform_network_gain", "hybrid_gain",
    "check_design", "zero_design", "component_sums",
    "RegularizedProblem", "Minimizer", "SolveStatus", "build_problem",
    "solve", "stationarity_residual",
    "ClosedLoopSystem", "Trajectory", "simulate", "steady_state_residual",
    "ScenarioConfig", "VerifyReport", "load_config", "config_from_dict",
    "generate_case_study", "verify", "emit_report", "cluster_count",
]

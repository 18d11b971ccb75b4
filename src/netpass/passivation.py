"""Synthesis of network-level feedback gains that passivate short agents.

The closed loop applies, on top of the diffusive coupling, an edge-wise
relative-output feedback with gains ``beta`` and an optional vertex-wise
output feedback with gains ``alpha``.  One gain quadratic carries them,

    Q(c) = diag(c + alpha) + E diag(beta) E^T,

with ``E`` the oriented incidence matrix.  On the agents' passivity indices
``rho`` it is the certificate X = Q(rho): the interconnection is passivating
exactly when X is positive definite.  On the agents' steady-state slopes it
is the Hessian of the regularized steady-state problem (``netopt``).  Because
the incidence rows sum to zero, ``1^T X 1 = sum(rho + alpha)`` regardless of
``beta``: edge gains alone can never rescue a vertex set whose indices sum
non-positive, which is what makes the positive-sum condition both necessary
and sufficient.  Index sums are exactly rounded (``math.fsum``), so an exact
zero never passes as a rounding residue.  The hybrid design lifts one
vertex's index until the sum is positive and runs the network-only synthesis
on the lifted indices.

The edge-gain threshold is computed in vertex space: the Laplacian
L = V diag(lam) V^T gives E = V diag(sqrt(lam)) W^T, so the m x m E^T M E and
the (n-1) x (n-1) U^T M U, U = V[:, 1:] sqrt(lam[1:]), share nonzero eigenvalues.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CertificateError,
    DimensionMismatchError,
    DisconnectedGraphError,
    EmptySelfRegulatingSetError,
    NotPassivizableError,
    VertexIndexError,
)
from .graph import NetworkGraph

__all__ = [
    "GainDesign",
    "Certificate",
    "coupling_matrix",
    "component_sums",
    "edge_gain_threshold",
    "uniform_network_gain",
    "hybrid_gain",
    "check_design",
    "zero_design",
]


@dataclass(frozen=True)
class GainDesign:
    """A synthesized feedback gain with its positive-definiteness certificate.

    Attributes
    ----------
    alpha : ndarray, shape (n,)
        Vertex output-feedback gains (zero for network-only designs).
    beta : ndarray, shape (m,)
        Edge relative-output gains.
    epsilon : float
        Margin added above the synthesis threshold.
    threshold : float
        The threshold the edge gains exceed (max over components).
    certificate : Certificate
        ``check_design``'s verdict on X = Q(rho) for this design, taken
        once when the design is synthesized.
    """

    alpha: np.ndarray
    beta: np.ndarray
    epsilon: float
    threshold: float
    certificate: "Certificate"

    def __post_init__(self):
        for name in ("alpha", "beta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Certificate:
    """Result of checking a candidate design."""

    min_eig: float
    tol: float
    positive_definite: bool


def _as_vector(values, length, name):
    arr = np.asarray(values, dtype=float)
    if arr.shape != (length,):
        raise DimensionMismatchError(
            f"{name} has shape {arr.shape}, expected ({length},)"
        )
    return arr


def coupling_matrix(c, alpha, beta, graph: NetworkGraph):
    """The gain quadratic Q(c) = diag(c + alpha) + E diag(beta) E^T.

    With ``c = rho`` it is the certificate X; with ``c`` the agents'
    steady-state slopes it is the regularized problem's Hessian.
    """
    c = _as_vector(c, graph.n_vertices, "c")
    alpha = _as_vector(alpha, graph.n_vertices, "alpha")
    beta = _as_vector(beta, graph.n_edges, "beta")
    E = graph.incidence
    return np.diag(c + alpha) + (E * beta) @ E.T


def component_sums(rho, graph: NetworkGraph):
    """(vertices, exactly rounded index sum) of each connected component."""
    rho = _as_vector(rho, graph.n_vertices, "rho")
    return [(comp, math.fsum(rho[comp])) for comp in graph.connected_components()]


def _short_component(rho, graph):
    """(vertices, exact index sum) of the first component whose sum is not positive."""
    return next(((c, s) for c, s in component_sums(rho, graph) if s <= 0.0), None)


def edge_gain_threshold(rho, graph: NetworkGraph):
    """Uniform edge gain above which the coupling matrix is positive definite.

    Valid on connected graphs with a positive index sum.  The bound is
    max(0, lambda_max(U^T M U)) / lambda_2**2 with M = (n / sum(rho)) R^2 - R,
    R = diag(rho) and U, lambda_2 from the Laplacian (module docstring).  The
    exactly rounded sum makes M = 0, and the bound exactly 0, for equal
    indices.  Any uniform edge gain strictly above the bound certifies.
    """
    rho = _as_vector(rho, graph.n_vertices, "rho")
    if not graph.is_connected():
        raise DisconnectedGraphError("edge gain threshold needs a connected graph")
    total = math.fsum(rho)
    if total <= 0.0:
        raise NotPassivizableError(
            f"index sum {total} is not positive; no edge gain can passivate"
        )
    if graph.n_edges == 0:
        return 0.0
    lam, V = np.linalg.eigh(graph.laplacian())
    U = V[:, 1:] * np.sqrt(lam[1:])
    M = rho * (graph.n_vertices * rho - total) / total
    top = float(np.linalg.eigvalsh((U.T * M) @ U)[-1])
    return max(0.0, top / lam[1] ** 2)


def uniform_network_gain(rho, graph: NetworkGraph, epsilon=None):
    """Network-only design: zero vertex gains, uniform edge gains per component.

    Each connected component gets its own threshold; every edge receives its
    component's threshold plus ``epsilon`` (default 0.1 * max(1, threshold)).

    Raises
    ------
    NotPassivizableError
        If some component's index sum is not positive.
    CertificateError
        If the synthesized design unexpectedly fails its own check.
    """
    rho = _as_vector(rho, graph.n_vertices, "rho")
    if epsilon is not None and epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    short = _short_component(rho, graph)
    if short is not None:
        raise NotPassivizableError(
            f"component {short[0]} has index sum {short[1]}; "
            "edge gains cannot passivate it"
        )
    per_edge_threshold = np.zeros(graph.n_edges)
    for comp in graph.connected_components():
        sub, edge_ids = graph.subgraph(comp)
        per_edge_threshold[edge_ids] = edge_gain_threshold(rho[comp], sub)
    threshold = float(per_edge_threshold.max(initial=0.0))
    if epsilon is None:
        epsilon = 0.1 * max(1.0, threshold)
    beta = per_edge_threshold + epsilon
    alpha = np.zeros(graph.n_vertices)
    certificate = check_design(rho, alpha, beta, graph)
    if not certificate.positive_definite:
        raise CertificateError(
            f"synthesized design is not positive definite (min eig {certificate.min_eig})"
        )
    return GainDesign(alpha, beta, float(epsilon), threshold, certificate)


def hybrid_gain(rho, graph: NetworkGraph, self_regulating, epsilon=None):
    """Sparse vertex gain on one self-regulating vertex, then edge gains.

    When the index sum is already positive no vertex gain is needed and the
    design reduces to the network-only one.  Otherwise the lowest-index
    vertex allowed to self-regulate receives ``1 - sum(rho)``, lifting the
    corrected index sum to 1, after which ``uniform_network_gain`` on the
    corrected indices picks, and certifies, the edge gains; its certificate
    is the design's, since diag((rho + alpha) + 0) = diag(rho + alpha).

    Raises
    ------
    EmptySelfRegulatingSetError
        If the index sum is not positive and no vertex may self-regulate.
    """
    rho = _as_vector(rho, graph.n_vertices, "rho")
    if not graph.is_connected():
        raise DisconnectedGraphError("hybrid synthesis needs a connected graph")
    self_regulating = sorted(int(i) for i in self_regulating)
    for i in self_regulating:
        if not 0 <= i < graph.n_vertices:
            raise VertexIndexError(f"self-regulating vertex {i} outside 0..{graph.n_vertices - 1}")
    alpha = np.zeros(graph.n_vertices)
    short = _short_component(rho, graph)
    if short is not None:
        if not self_regulating:
            raise EmptySelfRegulatingSetError(
                "index sum is not positive and no vertex may self-regulate"
            )
        alpha[self_regulating[0]] = 1.0 - short[1]
    return replace(uniform_network_gain(rho + alpha, graph, epsilon), alpha=alpha)


def check_design(rho, alpha, beta, graph: NetworkGraph):
    """Smallest eigenvalue of the coupling matrix and a scale-aware verdict."""
    X = coupling_matrix(rho, alpha, beta, graph)
    min_eig = float(np.linalg.eigvalsh(X)[0])
    tol = 1e-9 * (1.0 + float(np.linalg.norm(X, np.inf))) if X.size else 1e-9
    return Certificate(min_eig, tol, bool(min_eig > tol))


def zero_design(rho, graph: NetworkGraph):
    """The do-nothing design (alpha = beta = 0); certifies only if all indices are positive."""
    alpha = np.zeros(graph.n_vertices)
    beta = np.zeros(graph.n_edges)
    return GainDesign(alpha, beta, 0.0, 0.0, check_design(rho, alpha, beta, graph))

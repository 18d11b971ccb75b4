"""Synthesis of network-level feedback gains that passivate short agents.

The closed loop applies, on top of the diffusive coupling, an edge-wise
relative-output feedback with gains ``beta`` and an optional vertex-wise
output feedback with gains ``alpha``.  One gain quadratic carries them,

    Q(c) = diag(c + alpha) + E diag(beta) E^T,

with ``E`` the oriented incidence matrix.  On the agents' passivity indices
``rho`` it is the certificate X = Q(rho): the interconnection is passivating
exactly when X is positive definite.  On the agents' steady-state slopes it
is the Hessian of the regularized steady-state problem (``netopt``); for
every supported model the slope is also a valid index, so ``harness`` passes
the slopes, less a probe floor, as ``rho``.  Because
the incidence rows sum to zero, ``1^T X 1 = sum(rho + alpha)`` regardless of
``beta``: edge gains alone can never rescue a vertex set whose indices sum
non-positive, which is what makes the positive-sum condition both necessary
and sufficient.  Index sums are exactly rounded (``math.fsum``), so an exact
zero never passes as a rounding residue.  The hybrid design lifts one
vertex's index until the sum is positive and runs the network-only synthesis
on the lifted indices.

The edge-gain threshold is exact.  On the Laplacian's modes L = V diag(lam) V^T,
with V1, lam1 the non-zero ones, diag(rho) + beta L is positive definite
exactly when beta exceeds the largest eigenvalue of the Schur complement on
the consensus direction, lam1^{-1/2} (b b^T / sum(rho) - V1^T diag(rho) V1)
lam1^{-1/2} with b = V1^T rho: one n x n and one (n-1) x (n-1) eigensolve.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DisconnectedGraphError, NotPassivizableError, VertexIndexError, as_vector
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
            arr = np.array(getattr(self, name), dtype=float)  # the design's own copy
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Certificate:
    """Result of checking a candidate design."""

    min_eig: float
    tol: float
    positive_definite: bool


def coupling_matrix(c, alpha, beta, graph: NetworkGraph):
    """The gain quadratic Q(c) = diag(c + alpha) + E diag(beta) E^T.

    With ``c = rho`` it is the certificate X; with ``c`` the agents'
    steady-state slopes it is the regularized problem's Hessian.
    """
    c = as_vector(c, graph.n_vertices, "c")
    alpha = as_vector(alpha, graph.n_vertices, "alpha")
    beta = as_vector(beta, graph.n_edges, "beta")
    Q = graph.weighted_laplacian(beta)
    Q[np.diag_indices(graph.n_vertices)] += c + alpha  # onto the finished edge sums
    return Q


def component_sums(rho, graph: NetworkGraph):
    """(vertices, exactly rounded index sum) of each connected component."""
    rho = as_vector(rho, graph.n_vertices, "rho")
    return [(comp, math.fsum(rho[comp])) for comp in graph.connected_components()]


def edge_gain_threshold(rho, graph: NetworkGraph):
    """Uniform edge gain above which the coupling matrix is positive definite.

    Valid on connected graphs with a positive index sum.  The threshold is
    the exact one of the module docstring, max(0, lambda_max) of the Schur
    complement on the consensus direction; every uniform edge gain strictly
    above it certifies, and no gain at or below a positive threshold does.
    """
    rho = as_vector(rho, graph.n_vertices, "rho")
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
    W = V[:, 1:] / np.sqrt(lam[1:])
    b = rho @ W
    top = float(np.linalg.eigvalsh(np.outer(b, b) / total - (W.T * rho) @ W)[-1])
    return max(0.0, top)


def uniform_network_gain(rho, graph: NetworkGraph, epsilon=None):
    """Network-only design: zero vertex gains, uniform edge gains per component.

    Each connected component gets its own threshold; every edge receives its
    component's threshold plus ``epsilon`` (default 0.1 * max(1, threshold)).

    Raises
    ------
    NotPassivizableError
        If some component's index sum is not positive, or if the synthesized
        design fails its own check (a margin too small or too large for the
        certificate's tolerance): either way there is no certified design.
    """
    rho = as_vector(rho, graph.n_vertices, "rho")
    if epsilon is not None and not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    per_edge_threshold = np.zeros(graph.n_edges)
    for comp, total in component_sums(rho, graph):
        if total <= 0.0:
            raise NotPassivizableError(
                f"component {comp} has index sum {total}; edge gains cannot passivate it")
        sub, edge_ids = graph.subgraph(comp)
        per_edge_threshold[edge_ids] = edge_gain_threshold(rho[comp], sub)
    threshold = float(per_edge_threshold.max(initial=0.0))
    if epsilon is None:
        epsilon = 0.1 * max(1.0, threshold)
    beta = per_edge_threshold + epsilon
    alpha = np.zeros(graph.n_vertices)
    certificate = check_design(rho, alpha, beta, graph)
    if not certificate.positive_definite:
        raise NotPassivizableError(
            f"synthesized design is not positive definite (min eig {certificate.min_eig})")
    return GainDesign(alpha, beta, float(epsilon), threshold, certificate)


def hybrid_gain(rho, graph: NetworkGraph, self_regulating, epsilon=None):
    """Sparse vertex gain on one self-regulating vertex, then edge gains.

    When the index sum is already positive no vertex gain is needed and the
    design reduces to the network-only one.  Otherwise the lowest-index
    vertex allowed to self-regulate receives ``1 - sum(rho)``, lifting the
    corrected index sum to 1.  ``uniform_network_gain`` on the corrected
    indices then picks, and certifies, the edge gains, or raises
    NotPassivizableError when no vertex was lifted; its certificate is the
    design's, since diag((rho + alpha) + 0) = diag(rho + alpha).  A vertex
    label is an integer (a bool is not one) in 0..n-1, as an edge's is.
    """
    rho = as_vector(rho, graph.n_vertices, "rho")
    if not graph.is_connected():
        raise DisconnectedGraphError("hybrid synthesis needs a connected graph")
    for i in self_regulating:
        if (isinstance(i, bool) or not isinstance(i, (int, np.integer))
                or not 0 <= i < graph.n_vertices):
            raise VertexIndexError(
                f"self-regulating vertex {i!r} is not an integer in 0..{graph.n_vertices - 1}")
    alpha = np.zeros(graph.n_vertices)
    total = math.fsum(rho)
    if total <= 0.0 and len(self_regulating) > 0:
        alpha[min(self_regulating)] = 1.0 - total
    return replace(uniform_network_gain(rho + alpha, graph, epsilon), alpha=alpha)


def check_design(rho, alpha, beta, graph: NetworkGraph):
    """Smallest eigenvalue of the coupling matrix and a scale-aware verdict.

    The tolerance n * eps * ||X||_inf is the scale of ``eigvalsh``'s error.
    """
    X = coupling_matrix(rho, alpha, beta, graph)
    min_eig = float(np.linalg.eigvalsh(X)[0])
    tol = X.shape[0] * np.finfo(float).eps * float(np.linalg.norm(X, np.inf))
    return Certificate(min_eig, tol, bool(min_eig > tol))


def zero_design(rho, graph: NetworkGraph):
    """The do-nothing design (alpha = beta = 0); certifies only if all indices are positive."""
    alpha, beta = np.zeros(graph.n_vertices), np.zeros(graph.n_edges)
    return GainDesign(alpha, beta, 0.0, 0.0, check_design(rho, alpha, beta, graph))

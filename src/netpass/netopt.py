"""Steady-state network optimization: regularized problems and solvers.

The vertex-side problem minimized here is

    sum_i potential_i(y_i) + sum_e edge_potential_e(zeta_e)
        + 1/2 zeta^T diag(beta) zeta + 1/2 y^T diag(alpha) y
    subject to   zeta = E^T y

whose minimizers are exactly the closed-loop steady-state outputs of the
gain-augmented network.  With alpha = beta = 0 it reduces to the plain
steady-state coupling problem; the quadratic terms are what the feedback
gains contribute, and for short agents they are what makes the problem
convex in the first place.  The smooth part's Hessian is the gain quadratic
Q(slope) of ``passivation.coupling_matrix``, the certificate's matrix with
the agents' steady-state slopes in place of their indices.

``solve`` is an alternating-direction splitting with the vertex block kept
smooth (all supported agents have quadratic potentials, so that update is a
linear solve) and the edge block handled by the controllers' closed-form
proximal maps.  The vertex system H + t L changes only when the penalty t
does, so it is inverted once per penalty, from its Cholesky factor (or as a
pseudoinverse when it is only semidefinite).  An iteration is then one
scatter ``E v``, one n x n product, one gather ``E^T y`` and the prox, all
O(m) but the product, and the dual residual is formed only where it is read
(see ``solve``).  ``stationarity_residual`` measures how far a point is from
the first-order conditions, and ``flow_objective`` evaluates the input-side
(dual) objective.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .agents import AgentBank
from .controllers import ControllerBank
from .errors import DimensionMismatchError
from .graph import NetworkGraph
from .passivation import GainDesign, coupling_matrix

__all__ = [
    "RegularizedProblem",
    "Minimizer",
    "SolveStatus",
    "build_problem",
    "solve",
    "flow_objective",
    "stationarity_residual",
]

# Sampled curvature below this is treated as genuine nonconvexity.
_CURVATURE_TOL = -1e-9
# A Cholesky pivot whose square is at most this share of the largest diagonal
# entry marks the vertex system as singular.  Exactly singular Laplacians
# (complete and path graphs, n <= 100, t in 1e-8..1e8) leave pivots up to
# 1.8e-14; the definite systems of the bench scenarios keep 8.5e-11 at t = 1e8.
_PIVOT_TOL = 1e-12

# ``solve``'s defaults: initial penalty, iteration budget, residual tolerance.
SOLVER_STEP, SOLVER_MAX_ITER, SOLVER_TOL = 1.0, 100000, 1e-8


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    NONCONVEX_DETECTED = "nonconvex_detected"


@dataclass(frozen=True)
class Minimizer:
    """Solver output: candidate minimizer plus convergence diagnostics."""

    y_star: np.ndarray
    zeta_star: np.ndarray
    objective_value: float
    primal_residual: float
    dual_residual: float
    iterations: int
    status: SolveStatus


class RegularizedProblem:
    """Vertex/edge potentials plus quadratic gain regularization on a graph."""

    def __init__(self, graph: NetworkGraph, agents: AgentBank,
                 controllers: ControllerBank, alpha, beta):
        if len(agents) != graph.n_vertices:
            raise DimensionMismatchError(
                f"{len(agents)} agents for {graph.n_vertices} vertices"
            )
        if len(controllers) != graph.n_edges:
            raise DimensionMismatchError(
                f"{len(controllers)} controllers for {graph.n_edges} edges"
            )
        self.graph = graph
        self.agents = agents
        self.controllers = controllers
        self.alpha = np.array(alpha, dtype=float)
        self.beta = np.array(beta, dtype=float)
        self._hessian = coupling_matrix(agents.slope, self.alpha, self.beta, graph)
        self._probe = None
        for fixed in (self.alpha, self.beta, self._hessian):
            fixed.setflags(write=False)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def objective(self, y):
        """Full (nonsmooth) objective at the output vector y."""
        y = np.asarray(y, dtype=float)
        zeta = self.graph.incidence.T @ y
        value = self.agents.potential_total(y)
        value += self.controllers.potential_total(zeta)
        value += 0.5 * float(self.beta @ zeta**2)
        value += 0.5 * float(self.alpha @ y**2)
        return value

    def smooth_gradient(self, y):
        """Gradient of the smooth part (everything except the edge potentials)."""
        y = np.asarray(y, dtype=float)
        E = self.graph.incidence
        return self.agents.steady_input(y) + self.alpha * y + E @ (self.beta * (E.T @ y))

    def smooth_hessian(self):
        """Hessian of the smooth part; constant for the supported agent models."""
        return self._hessian

    def convexity_probe(self):
        """Minimum curvature of the smooth part: its smallest Hessian eigenvalue.

        The Hessian is constant for the supported agent models, so one
        eigensolve, on the first call, gives the minimum over every output.
        """
        if self._probe is None:
            self._probe = float(np.linalg.eigvalsh(self.smooth_hessian())[0])
        return self._probe


def build_problem(graph, agents, controllers, gain: GainDesign = None):
    """Assemble a regularized problem; a missing gain means no regularization."""
    if gain is None:
        alpha = np.zeros(graph.n_vertices)
        beta = np.zeros(graph.n_edges)
    else:
        alpha, beta = gain.alpha, gain.beta
    return RegularizedProblem(graph, agents, controllers, alpha, beta)


# ----------------------------------------------------------------------
# splitting solver
# ----------------------------------------------------------------------


class _VertexSolver:
    """Solves (H + t * L) y = rhs by one product, tolerating a consensus null space."""

    def __init__(self, hessian, laplacian):
        self._H = hessian
        self._L = laplacian
        self._inverse = None

    def factor(self, t):
        """Cache the inverse of H + t * L; False (the cache kept) if it is indefinite."""
        A = self._H + t * self._L
        try:
            C = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            C = None
        if C is not None and np.min(np.diag(C))**2 > _PIVOT_TOL * np.max(np.diag(A)):
            Ci = np.linalg.inv(C)
            self._inverse = Ci.T @ Ci
            return True
        # Semidefinite but consistent systems (e.g. all-integrator networks)
        # fall back to the pseudoinverse, picking the minimum-norm solution.
        # So does a factor with a rounding-level pivot: inverting it would
        # lose the solution's range part to its huge null-space part.
        eigenvalues = np.linalg.eigvalsh(A)
        if eigenvalues[0] < -1e-10 * max(1.0, abs(eigenvalues[-1])):
            return False
        self._inverse = np.linalg.pinv(A, hermitian=True)
        return True

    def solve(self, rhs):
        return self._inverse @ rhs


def solve(problem: RegularizedProblem, step=SOLVER_STEP, max_iter=SOLVER_MAX_ITER,
          tol=SOLVER_TOL):
    """Minimize the regularized problem by alternating-direction splitting.

    Parameters
    ----------
    step : float
        Initial penalty on the vertex/edge consistency constraint; adapted
        by residual balancing (doubled or halved when one residual exceeds
        ten times the other).
    max_iter : int
        Iteration cap; hitting it yields status ``MAX_ITER``.
    tol : float
        Convergence threshold on both primal and dual residual norms.

    Each iteration costs one scatter ``E (zeta - w)`` (``bincount`` over the
    edges' heads minus their tails), one product with the cached n x n
    inverse, one gather ``E^T y = y[heads] - y[tails]`` and the controllers'
    prox; the dense incidence is never read.  The dual residual
    ``t |E (zeta - zeta_prev)|`` costs a second scatter, so it is formed only
    when the primal residual is below ``tol``, on every 50th iteration
    (where the penalty is balanced) and on the last; the returned residuals
    are always those of the returned iterate.

    A failed convexity probe downgrades the status to ``NONCONVEX_DETECTED``
    and the returned point is best-effort only.

    The vertex update carries the whole smooth quadratic (vertex curvatures,
    vertex gains, and the edge-gain quadratic mapped through the incidence),
    so it stays convex whenever the overall objective is, even when a vertex
    curvature alone is negative; the edge update then reduces to the plain
    controller prox.
    """
    nonconvex = problem.convexity_probe() < _CURVATURE_TOL
    heads, tails = problem.graph.heads, problem.graph.tails
    n = problem.graph.n_vertices
    L = problem.graph.laplacian()
    lin = problem.agents.steady_input(np.zeros(len(problem.agents)))

    def scatter(v):
        """``E @ v`` without the product: v added at each edge's head, taken at its tail."""
        return np.bincount(heads, v, n) - np.bincount(tails, v, n)

    def best_effort(y, zeta, r_p, r_d, iterations, status):
        return Minimizer(
            y_star=y,
            zeta_star=zeta,
            objective_value=problem.objective(y),
            primal_residual=r_p,
            dual_residual=r_d,
            iterations=iterations,
            status=status,
        )

    y = problem.agents.anchors.astype(float).copy()
    zeta = y[heads] - y[tails]
    w = np.zeros(problem.graph.n_edges)

    vertex = _VertexSolver(problem.smooth_hessian(), L)
    t = float(step)
    while not vertex.factor(t):
        t *= 2.0
        if t > 1e12:
            status = SolveStatus.NONCONVEX_DETECTED if nonconvex else SolveStatus.MAX_ITER
            return best_effort(y, zeta, np.inf, np.inf, 0, status)

    r_p = r_d = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        rhs = t * scatter(zeta - w) - lin
        y = vertex.solve(rhs)
        Ety = y[heads] - y[tails]
        zeta_prev = zeta
        zeta = problem.controllers.prox(Ety + w, 1.0 / t)
        w = w + Ety - zeta
        r = Ety - zeta
        r_p = math.sqrt(r @ r)
        balance = iterations % 50 == 0
        # Only the stop test, the balancing and the last iterate read r_d.
        if r_p < tol or balance or iterations == max_iter:
            d = t * scatter(zeta - zeta_prev)
            r_d = math.sqrt(d @ d)
            if r_p < tol and r_d < tol:
                break
        if balance:
            if r_p > 10.0 * r_d and t < 1e8:
                if vertex.factor(2.0 * t):
                    t *= 2.0
                    w = w / 2.0
            elif r_d > 10.0 * r_p and t > 1e-8:
                if vertex.factor(t / 2.0):
                    t /= 2.0
                    w = w * 2.0

    if nonconvex:
        status = SolveStatus.NONCONVEX_DETECTED
    elif r_p < tol and r_d < tol:
        status = SolveStatus.OPTIMAL
    else:
        status = SolveStatus.MAX_ITER
    return best_effort(y, zeta, r_p, r_d, iterations, status)


# ----------------------------------------------------------------------
# input-side (flow) objective and stationarity residual
# ----------------------------------------------------------------------


def flow_objective(agents: AgentBank, controllers: ControllerBank, u, mu):
    """Input-side dual objective: conjugate agent costs plus conjugate edge costs.

    Evaluates to ``+inf`` whenever an effort leaves its controller's dual
    domain or an input is infeasible for its agent.
    """
    u = np.asarray(u, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return agents.conjugate_total(u) + controllers.conjugate_total(mu)


def stationarity_residual(problem: RegularizedProblem, y, zero_tol=1e-6):
    """Distance of y from satisfying the problem's first-order conditions.

    Minimizes ``|| smooth_gradient(y) + E s ||`` over per-edge effort
    selections ``s`` compatible with the steady-state relations at
    ``zeta = E^T y`` (an interval for saturated controllers at zero relative
    output, a point otherwise).  Returns the minimal norm and the selection.
    """
    y = np.asarray(y, dtype=float)
    E = problem.graph.incidence
    zeta = E.T @ y
    gradient = problem.smooth_gradient(y)
    lower, upper = problem.controllers.effort_bounds(zeta, zero_tol)
    selection = 0.5 * (lower + upper)
    fixed = upper - lower <= 1e-15
    residual_base = gradient + E[:, fixed] @ selection[fixed]
    free = ~fixed
    if not np.any(free):
        return float(np.linalg.norm(residual_base)), selection
    # Imported here, not at module level: no CLI command reaches this fit,
    # so the CLI starts without loading scipy.
    from scipy.optimize import lsq_linear

    result = lsq_linear(
        E[:, free], -residual_base, bounds=(lower[free], upper[free]), method="bvls"
    )
    selection[free] = result.x
    residual = residual_base + E[:, free] @ result.x
    return float(np.linalg.norm(residual)), selection

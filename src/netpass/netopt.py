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

``solve`` finds a strictly convex problem's minimizer by a primal-dual
active-set iteration over the tanh edges' sign patterns (a semismooth Newton
method), each step one pattern's exact cluster point, the last certified by
KKT.  Other problems, and any the iteration cannot finish, go to an
alternating-direction splitting: the vertex update is one product with the
inverse of H + t L, formed once per penalty t from its Cholesky factor (a
pseudoinverse when it is only semidefinite), the edge update the
controllers' closed-form prox.  ``stationarity_residual`` measures how far a
point is from the first-order conditions, freeing a tanh edge within
``effort_bounds``' default tolerance, and ``steady_state_residual`` the same
of a closed loop's output.  The free edges' best efforts are the dual of a
graph total-variation prox, a problem of this module's own kind that the
active set solves exactly; E is never formed.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .agents import AgentBank, StaticAffineAgent
from .controllers import ControllerBank, TanhIntegratorController
from .errors import as_vector, check_counts
from .graph import NetworkGraph, cluster_labels
from .passivation import GainDesign, coupling_matrix

__all__ = [
    "RegularizedProblem",
    "Minimizer",
    "SolveStatus",
    "build_problem",
    "solve",
    "stationarity_residual",
    "steady_state_residual",
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
    """Solver output: candidate minimizer plus convergence diagnostics.

    ``polished_at`` is the active-set pattern whose exact point was
    certified, the last of ``iterations`` (see ``solve``), or None when the
    splitting loop's iterate is returned.
    """

    y_star: np.ndarray
    zeta_star: np.ndarray
    objective_value: float
    primal_residual: float
    dual_residual: float
    iterations: int
    status: SolveStatus
    polished_at: int = None


class RegularizedProblem:
    """Vertex/edge potentials plus quadratic gain regularization on a graph."""

    def __init__(self, graph: NetworkGraph, agents: AgentBank,
                 controllers: ControllerBank, alpha, beta):
        check_counts(graph, agents, controllers)
        self.graph, self.agents, self.controllers = graph, agents, controllers
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
        y = as_vector(y, self.graph.n_vertices, "y")
        zeta = y[self.graph.heads] - y[self.graph.tails]
        value = self.agents.potential_total(y)
        value += self.controllers.potential_total(zeta)
        value += 0.5 * float(self.beta @ zeta**2)
        value += 0.5 * float(self.alpha @ y**2)
        return value

    def smooth_gradient(self, y):
        """Gradient of the smooth part (everything except the edge potentials): H y + intercept."""
        return self._hessian @ as_vector(y, self.graph.n_vertices, "y") + self.agents.intercept

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
# solvers: active set and splitting
# ----------------------------------------------------------------------


def _cholesky(A):
    """The Cholesky factor of A, or None if A is indefinite or has a rounding-level pivot."""
    try:
        C = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    return C if np.min(np.diag(C))**2 > _PIVOT_TOL * np.max(np.diag(A)) else None


class _VertexSolver:
    """Solves (H + t * L) y = rhs by one product, tolerating a consensus null space."""

    def __init__(self, hessian, laplacian):
        self._H, self._L, self._inverse = hessian, laplacian, None

    def factor(self, t):
        """Cache the inverse of H + t * L; False (the cache kept) if it is indefinite."""
        A = self._H + t * self._L
        C = _cholesky(A)
        if C is not None:
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


class _Pattern:
    """One active-set step: a sign pattern's exact point, its certificate and its correction.

    The pattern s gives each tanh edge a sign: +-1 saturated, 0 interior.
    Its minimizer is constant on each cluster (component of the interior
    edges): with C the n x k cluster indicator, H the smooth Hessian plus
    the static edges' Laplacian and b = -(intercept + E s), it is
    y = C (C^T H C)^{-1} C^T b, and the interior efforts mu are the starting
    effort, clipped to [-1, 1], projected onto {E_I mu = b - H y}.  The point
    is certified when C^T H C passes ``_cholesky``, every saturated edge
    keeps its sign (s_e (E^T y)_e >= 0), |mu| <= 1 and
    ||H y - b + E_I mu|| < tol; y then meets the first-order conditions to
    that norm, so it is within tol / probe of the unique minimizer.  A step
    sums C^T H C over the cluster labels (no indicator product) and solves
    one k x k system and one over the vertices interior edges touch.
    """

    def __init__(self, problem):
        self._problem = problem
        w = problem.controllers.w
        self._H = problem.smooth_hessian()
        if w.any():
            self._H = self._H + problem.graph.weighted_laplacian(w)

    def step(self, sign, effort):
        """(y, KKT norm, next sign, next effort) for the pattern ``sign``, or None if C^T H C does not factor.

        The next pattern is ``sign`` itself exactly when no sign is violated:
        a saturated edge whose (E^T y)_e has the wrong sign becomes interior,
        an interior edge whose mu leaves [-1, 1] saturates with sign(mu).
        The next effort is this point's: mu on the interior edges, s on the
        saturated ones.  With no violation and a KKT norm below tol the
        point is certified.
        """
        problem, H = self._problem, self._H
        graph = problem.graph
        interior = problem.controllers.saturated & (sign == 0.0)
        b = -(problem.agents.intercept + graph.scatter(sign))
        labels, k = cluster_labels(graph.n_vertices, graph.heads[interior], graph.tails[interior])
        quotient = np.bincount((labels[:, None] * k + labels).ravel(), H.ravel(),
                               k * k).reshape(k, k)
        if _cholesky(quotient) is None:
            return None
        y = np.linalg.solve(quotient, np.bincount(labels, b, k))[labels]
        residual = b - H @ y
        mu = np.zeros(graph.n_edges)
        if interior.any():
            # Project the clipped effort onto {E_I mu = residual}: add E_I^T lam
            # with L_I lam = residual - E_I mu, whose right-hand side sums to 0
            # on every cluster, over the vertices interior edges touch (lam is
            # 0 elsewhere).  Adding 1 between every two vertices of a cluster
            # lifts L_I's null space (each cluster's constant direction) to
            # the cluster's size, so the system is definite, as well
            # conditioned as L_I's range (K_n's becomes n I), and still has
            # L_I's minimum-norm lam as its solution.  An interior edge's entry
            # is 1 - 1 = 0 and each diagonal its vertex's degree + 1.
            mu[interior] = np.clip(effort[interior], -1.0, 1.0)
            inside = np.bincount(labels)[labels] > 1
            row = np.cumsum(inside) - 1
            heads, tails = row[graph.heads[interior]], row[graph.tails[interior]]
            lifted = np.diag(np.bincount(np.r_[heads, tails], None, row[-1] + 1).astype(float))
            lifted += labels[inside, None] == labels[inside]
            lifted[heads, tails] = lifted[tails, heads] = 0.0
            lam = np.zeros(graph.n_vertices)
            lam[inside] = np.linalg.solve(lifted, (residual - graph.scatter(mu))[inside])
            mu[interior] += (lam[graph.heads] - lam[graph.tails])[interior]
        gap = residual - graph.scatter(mu)
        wrong = sign * (y[graph.heads] - y[graph.tails]) < 0.0
        out = np.abs(mu) > 1.0
        corrected = np.where(wrong, 0.0, np.where(out, np.sign(mu), sign))
        return y, math.sqrt(gap @ gap), corrected, mu + sign


def _active_set(problem, max_iter, tol):
    """Step ``_Pattern`` from all tanh edges interior: last step, certified or not, patterns tried.

    Uncertified (a quotient did not factor, which leaves no last step, a
    pattern came back, or ``max_iter`` ran out), ``solve`` goes on by splitting.
    """
    pattern = _Pattern(problem)
    sign = effort = np.zeros(problem.graph.n_edges)  # every tanh edge interior
    seen = {sign.tobytes()}
    for tried in range(1, max_iter + 1):
        step = pattern.step(sign, effort)
        if step is None:
            return None, False, tried
        _, kkt, corrected, effort = step
        if kkt < tol and np.array_equal(corrected, sign):
            return step, True, tried
        sign = corrected
        if sign.tobytes() in seen:
            return step, False, tried
        seen.add(sign.tobytes())
    return step, False, max_iter


def solve(problem: RegularizedProblem, step=SOLVER_STEP, max_iter=SOLVER_MAX_ITER,
          tol=SOLVER_TOL):
    """Minimize the regularized problem: by active sets under a positive probe, else by splitting.

    Parameters
    ----------
    step : float
        The splitting loop's initial penalty on the vertex/edge consistency
        constraint; adapted by residual balancing (doubled or halved when
        one residual exceeds ten times the other).  The active set has none.
    max_iter : int
        Cap on the patterns tried plus the splitting iterations run; hitting
        it yields status ``MAX_ITER``.
    tol : float
        The certificate's bound on the KKT norm, and the splitting loop's
        convergence threshold on both primal and dual residual norms.

    With a positive convexity probe the minimizer is unique, and
    ``_active_set`` looks for its sign pattern.  A certified pattern ends
    the run ``OPTIMAL``: ``iterations`` counts the patterns tried and
    ``polished_at`` names the last, ``zeta_star = E^T y_star`` is exactly 0
    on interior edges, ``primal_residual`` is 0 and ``dual_residual`` the
    certificate's first-order residual.  Otherwise the splitting loop runs
    on what is left of ``max_iter``, ``iterations`` counts both and
    ``polished_at`` is None.  Its iteration is one scatter ``E (zeta - w)``,
    one product with the cached n x n inverse, one gather
    ``E^T y = y[heads] - y[tails]`` and the prox.  The dual residual
    ``t |E (zeta - zeta_prev)|`` costs a second scatter, so it is formed only
    when the primal residual is below ``tol``, on every 50th iteration
    (where the penalty is balanced) and on the last; the returned residuals
    are always those of the returned iterate, and ``OPTIMAL`` means both
    fell below ``tol``.

    A failed convexity probe downgrades the status to ``NONCONVEX_DETECTED``
    and the returned point is best-effort only.

    The vertex update carries the whole smooth quadratic (vertex curvatures,
    vertex gains, and the edge-gain quadratic mapped through the incidence),
    so it stays convex whenever the overall objective is, even when a vertex
    curvature alone is negative; the edge update then reduces to the plain
    controller prox.
    """
    nonconvex = problem.convexity_probe() < _CURVATURE_TOL
    graph = problem.graph
    heads, tails, scatter = graph.heads, graph.tails, graph.scatter
    lin = problem.agents.intercept

    def result(y, zeta, r_p, r_d, iterations, status, polished_at=None):  # Minimizer's field order
        return Minimizer(y, zeta, problem.objective(y), r_p, r_d, iterations, status, polished_at)

    patterns = 0
    if problem.convexity_probe() > 0.0:
        last, certified, patterns = _active_set(problem, max_iter, tol)
        if certified:
            y, kkt = last[:2]
            return result(y, y[heads] - y[tails], 0.0, kkt, patterns,
                          SolveStatus.OPTIMAL, patterns)

    y = problem.agents.anchors.astype(float).copy()
    zeta = y[heads] - y[tails]
    w = np.zeros(graph.n_edges)

    vertex = _VertexSolver(problem.smooth_hessian(), graph.laplacian())
    t = float(step)
    while not vertex.factor(t):
        t *= 2.0
        if t > 1e12:
            status = SolveStatus.NONCONVEX_DETECTED if nonconvex else SolveStatus.MAX_ITER
            return result(y, zeta, np.inf, np.inf, patterns, status)

    r_p = r_d = np.inf
    iterations, budget = 0, max_iter - patterns
    # Iterates that leave the float range (a penalty far from the problem's
    # scale can do that) give inf or NaN residuals and end at MAX_ITER.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, budget + 1):
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
            if r_p < tol or balance or iterations == budget:
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
    return result(y, zeta, r_p, r_d, patterns + iterations, status)


# ----------------------------------------------------------------------
# stationarity residual
# ----------------------------------------------------------------------


def stationarity_residual(problem: RegularizedProblem, y):
    """Distance of y from satisfying the problem's first-order conditions.

    Minimizes ``|| smooth_gradient(y) + E s ||`` over per-edge effort
    selections ``s`` compatible with the steady-state relations at
    ``zeta = E^T y`` (an interval for saturated controllers at zero relative
    output, a point otherwise).  Returns the minimal norm and the selection.

    With g the fixed part (the gradient plus the fixed edges' efforts) and F
    the free edges, the minimum over s_F in [-1, 1]^F of ||g + E_F s_F|| is
    ||r*||, r* = argmin_r 1/2 ||r - g||^2 + sum_{e in F} |r_head - r_tail|,
    and s_F = -nu for that graph total-variation prox's tanh efforts nu
    (r* = g - E_F nu).  The prox is the problem of agents y = u + g_i (H = I)
    on F's tanh edges, solved exactly by ``_active_set``.  The norm is the
    one the selection attains: the minimum once certified, as on every
    problem measured, else an upper bound from the last efforts, clipped.
    """
    graph = problem.graph
    y = as_vector(y, graph.n_vertices, "y")
    gradient = problem.smooth_gradient(y)
    zeta = y[graph.heads] - y[graph.tails]
    lower, upper = problem.controllers.effort_bounds(zeta)
    selection = 0.5 * (lower + upper)
    free = upper - lower > 1e-15
    if np.any(free):
        fixed_part = gradient + graph.scatter(selection)  # a free edge's selection is 0 so far
        tv = NetworkGraph(graph.n_vertices, zip(graph.heads[free].tolist(),
                                                graph.tails[free].tolist()))
        prox = build_problem(tv, AgentBank([StaticAffineAgent(1.0, c) for c in fixed_part]),
                             ControllerBank([TanhIntegratorController()] * tv.n_edges))
        efforts = _active_set(prox, SOLVER_MAX_ITER, SOLVER_TOL)[0][3]
        selection[free] = -np.clip(efforts, -1.0, 1.0)
    return float(np.linalg.norm(gradient + graph.scatter(selection))), selection


def steady_state_residual(system, y):
    """First-order mismatch of y as a steady output of the closed loop ``system``.

    ``stationarity_residual`` on the regularized problem of its parts and gain.
    """
    problem = build_problem(system.graph, system.agents, system.controllers, system.gain)
    return stationarity_residual(problem, y)[0]

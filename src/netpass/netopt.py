"""Steady-state network optimization: the regularized problem and its solver.

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

``solve`` minimizes by a primal-dual active-set iteration over the tanh
edges' sign patterns (a semismooth Newton method), each step one pattern's
exact cluster point (``_Pattern``), the last certified by KKT, in one
proximal-point loop of passes on the problem plus rho/2 |y - y_k|^2.  A
strictly convex problem takes one pass, at rho = 0; a merely convex one (a
semidefinite Hessian, as with integrator agents and no gain), or a pass that
does not certify, goes on at rho > 0.  ``stationarity_residual`` measures
how far a point is from the first-order conditions, freeing a tanh edge
within ``effort_bounds``' default tolerance, and ``steady_state_residual``
the same of a closed loop's output.  The free edges' best efforts are the
dual of a graph total-variation prox, one ``_Pattern`` on the problem's own
graph that the active set solves exactly; E is never formed.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .agents import AgentBank
from .controllers import ControllerBank
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
# entry marks a pattern's quotient, C^T H C or the proximal loop's
# C^T (H + rho I) C, as singular.  No quotient measured comes near it: the
# smallest share is 4.4e-4 on the bench's optimize scenarios (seeds 0 and 3),
# 1.7e-3 (rho = 0) and 3.9e-3 (rho > 0) on the test suite's problems, and
# 1.5e-5 = 4^-8 (rho eight shrinks down on a cluster H leaves singular) on
# 3,866 random semidefinite problems.
_PIVOT_TOL = 1e-12
# The proximal loop's weight shrinks by this factor per pass.
_PROX_SHRINK = 0.25

# ``solve``'s defaults: the step it ignores, pattern budget, KKT tolerance.
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
    dual_residual: float
    iterations: int
    status: SolveStatus


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
# the active-set solver
# ----------------------------------------------------------------------


def _cholesky(A):
    """The Cholesky factor of A, or None if A is indefinite or has a rounding-level pivot."""
    try:
        C = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    return C if np.min(np.diag(C))**2 > _PIVOT_TOL * np.max(np.diag(A)) else None


class _Pattern:
    """One active-set step: a sign pattern's exact point, its certificate and its correction.

    It steps F(y) = 1/2 y^T H y + intercept^T y on a graph whose masked
    ``tanh`` edges carry the efforts (the others none).  The pattern s gives
    each tanh edge a sign: +-1 saturated, 0 interior.  Its minimizer is
    constant on each cluster (component of the interior edges): with C the
    n x k cluster indicator and b = -(intercept + E s), it is
    y = C (C^T H C)^{-1} C^T b, and the interior efforts mu are the starting
    effort, clipped to [-1, 1], projected onto {E_I mu = b - H y}.  The point
    is certified when C^T H C passes ``_cholesky``, every saturated edge
    keeps its sign (s_e (E^T y)_e >= 0), |mu| <= 1 and
    ||H y - b + E_I mu|| < tol; y then meets the first-order conditions to
    that norm, so it is within tol / probe of the unique minimizer.  A step
    sums C^T H C over the cluster labels (no indicator product) and solves
    one k x k system and one over the vertices interior edges touch.
    """

    def __init__(self, graph, tanh, hessian, intercept):
        self._graph, self.tanh, self.hessian, self.intercept = graph, tanh, hessian, intercept

    def kkt(self, y, effort):
        """The first-order residual |H y + intercept + E effort| of y under the edge efforts ``effort``."""
        gap = self.hessian @ y + self.intercept + self._graph.scatter(effort)
        return math.sqrt(gap @ gap)

    def step(self, sign, effort):
        """(y, KKT norm, next sign, next effort) for the pattern ``sign``, or None if C^T H C does not factor.

        The next pattern is ``sign`` itself exactly when no sign is violated:
        a saturated edge whose (E^T y)_e has the wrong sign becomes interior,
        an interior edge whose mu leaves [-1, 1] saturates with sign(mu).
        The next effort is this point's: mu on the interior edges, s on the
        saturated ones.  With no violation and a KKT norm below tol the
        point is certified.
        """
        graph, H = self._graph, self.hessian
        interior = self.tanh & (sign == 0.0)
        b = -(self.intercept + graph.scatter(sign))
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


def _active_set(pattern, sign, effort, max_iter, tol):
    """Step ``pattern`` from ``sign`` and ``effort``: last step, certified or not, patterns tried.

    Uncertified, a quotient did not factor (which leaves no last step), a
    pattern came back, or ``max_iter`` ran out.
    """
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
    """Minimize the regularized problem by active sets, ending on a KKT certificate.

    Parameters
    ----------
    step : float
        Accepted and ignored: the active set takes no step size.  It stays
        for callers written for the splitting solver it replaced.
    max_iter : int
        Cap on the patterns tried over all passes; hitting it yields status
        ``MAX_ITER``.
    tol : float
        The certificate's bound on the KKT norm.

    One loop of ``_active_set`` passes on H = the smooth Hessian plus the
    static edges' Laplacian L_w, formed once: a proximal-point loop
    (Rockafellar 1976) from y_0 = the agents' anchors, where pass k
    minimizes F(y) + rho/2 |y - y_k|^2 (H + rho I, intercept - rho y_k),
    warm-started from pass k - 1's pattern and efforts, and its certified
    point is y_{k+1}.  The first rho is 0 under a positive convexity probe
    (the minimizer is unique, and the pass, from every tanh edge interior,
    looks for its sign pattern) and max(1, max diag(H)) under a probe in
    [``_CURVATURE_TOL``, 0].  rho shrinks by ``_PROX_SHRINK`` per pass; a
    pass that does not certify runs again from every tanh edge interior
    with rho grown back by that factor, or from 0 to the first positive rho.
    The loop ends when y_{k+1} meets the problem's own first-order
    conditions to ``tol``: with the pass's efforts, |H y + intercept +
    E effort|, the pass's KKT norm less rho (y_{k+1} - y_k).

    A certified point ends the run ``OPTIMAL``: ``iterations`` counts the
    patterns tried over all passes, the last of them the certified one,
    ``zeta_star = E^T y_star`` is exactly 0 on interior edges, and
    ``dual_residual`` is the KKT norm.  The cap ends it ``MAX_ITER`` at the
    last y_k and its KKT norm; before any y_k that is the anchors, with the
    residual inf.  A probe below ``_CURVATURE_TOL`` returns
    ``NONCONVEX_DETECTED`` at once, at the anchors, with 0 iterations and
    the residual inf: a KKT point need not be a minimizer there.
    """
    graph = problem.graph

    def result(y, kkt, iterations, status):  # Minimizer's field order
        return Minimizer(y, y[graph.heads] - y[graph.tails], problem.objective(y), kkt,
                         iterations, status)

    y, kkt, patterns = problem.agents.anchors.astype(float), math.inf, 0
    if problem.convexity_probe() < _CURVATURE_TOL:
        return result(y, kkt, 0, SolveStatus.NONCONVEX_DETECTED)
    hessian, w = problem.smooth_hessian(), problem.controllers.w
    if w.any():
        hessian = hessian + graph.weighted_laplacian(w)
    exact = _Pattern(graph, problem.controllers.saturated, hessian, problem.agents.intercept)
    top = max(1.0, float(hessian.diagonal().max()))
    rho, sign = (0.0 if problem.convexity_probe() > 0.0 else top), np.zeros(graph.n_edges)
    effort = interior = sign
    while patterns < max_iter:
        pattern = exact if not rho else _Pattern(graph, exact.tanh, hessian + rho * np.eye(y.size),
                                                 exact.intercept - rho * y)
        last, certified, tried = _active_set(pattern, sign, effort, max_iter - patterns, tol)
        patterns += tried
        if not certified:
            rho, sign, effort = rho / _PROX_SHRINK or top, interior, interior
            continue
        y, kkt, sign, effort = last
        if rho:
            kkt = exact.kkt(y, effort)
        if kkt < tol:
            return result(y, kkt, patterns, SolveStatus.OPTIMAL)
        rho *= _PROX_SHRINK
    return result(y, kkt, patterns, SolveStatus.MAX_ITER)


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
    (r* = g - E_F nu): a ``_Pattern`` with H = I and intercept -g on the
    problem's own graph, F its tanh edges, that ``_active_set`` solves
    exactly.  The norm is the one the selection attains: the minimum once
    certified, as on every problem measured, else an upper bound from the
    last efforts, clipped.
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
        prox = _Pattern(graph, free, np.eye(graph.n_vertices), -fixed_part)
        interior = np.zeros(graph.n_edges)
        efforts = _active_set(prox, interior, interior, SOLVER_MAX_ITER, SOLVER_TOL)[0][3]
        selection[free] = -np.clip(efforts[free], -1.0, 1.0)
    return float(np.linalg.norm(gradient + graph.scatter(selection))), selection


def steady_state_residual(system, y):
    """First-order mismatch of y as a steady output of the closed loop ``system``.

    ``stationarity_residual`` on the regularized problem of its parts and gain.
    """
    problem = build_problem(system.graph, system.agents, system.controllers, system.gain)
    return stationarity_residual(problem, y)[0]

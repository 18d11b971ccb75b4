"""Steady-state optimization tests: objective, gradient, solver, oracles.

Frozen values derived by hand:
- Two traffic agents (index +1, targets 10 and 10.5, slope 0.8) on the
  2-path with a saturating edge and no gains: the stationarity conditions
  are (1/0.8)(c - 10) + s = 0 and (1/0.8)(c - 10.5) - s = 0 with |s| <= 1;
  adding them gives the consensus value c = 10.25, subtracting gives the
  edge effort s = -0.3125, and the objective is 2 * (0.25^2 / 1.6) =
  0.078125.  The input-side value at the reconstructed dual pair is the
  exact negative, -0.078125.
- Quadratic-only instances (static-gain edges) reduce to a linear solve
  (diag(curvature + alpha) + E diag(w + beta) E^T) y = diag(curvature) @
  anchors, which this file computes independently with numpy.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from netpass import (
    AgentBank,
    ControllerBank,
    DimensionMismatchError,
    GainDesign,
    IntegratorAgent,
    NetworkGraph,
    SolveStatus,
    StaticAffineAgent,
    StaticGainController,
    TanhIntegratorController,
    TrafficAgent,
    build_problem,
    edge_gain_threshold,
    flow_objective,
    solve,
    stationarity_residual,
)
from netpass.harness import build_system_parts, generate_case_study, synthesis_stage
from netpass.netopt import _VertexSolver
from oracles import DimensionTooLargeError, brute_force, objective_batch

P2 = NetworkGraph.path(2)
K3 = NetworkGraph.complete(3)


def consensus_problem():
    agents = AgentBank([TrafficAgent(1, 10.0, 0.8), TrafficAgent(1, 10.5, 0.8)])
    controllers = ControllerBank([TanhIntegratorController()])
    return build_problem(P2, agents, controllers)


def mixed_sign_problem(beta=2.5):
    """Triangle with one negative-slope agent, convexified by the edge gain."""
    agents = AgentBank([
        TrafficAgent(1, 20.0, 0.8),
        TrafficAgent(1, 25.0, 0.8),
        TrafficAgent(-1, 18.0, -0.8),
    ])
    controllers = ControllerBank([TanhIntegratorController()] * 3)
    gain = GainDesign(alpha=np.zeros(3), beta=np.full(3, beta),
                      epsilon=0.0, threshold=0.0, certificate=1.0)
    return build_problem(K3, agents, controllers, gain)


def quadratic_problem():
    """All potentials quadratic: closed-form minimizer available."""
    graph = NetworkGraph.path(3)
    agents = AgentBank([
        TrafficAgent(1, 5.0, 1.0),
        TrafficAgent(1, 9.0, 2.0),
        TrafficAgent(1, 1.0, 0.5),
    ])
    controllers = ControllerBank([StaticGainController(0.7), StaticGainController(1.3)])
    alpha = np.array([0.2, 0.0, 0.1])
    beta = np.array([0.4, 0.9])
    gain = GainDesign(alpha=alpha, beta=beta, epsilon=0.0, threshold=0.0,
                      certificate=1.0)
    problem = build_problem(graph, agents, controllers, gain)
    curvature = np.array([1.0, 0.5, 2.0])
    weights = np.array([0.7, 1.3]) + beta
    E = graph.incidence
    H = np.diag(curvature + alpha) + (E * weights) @ E.T
    y_exact = np.linalg.solve(H, curvature * np.array([5.0, 9.0, 1.0]))
    return problem, y_exact


# ----------------------------------------------------------------------
# objective and gradient
# ----------------------------------------------------------------------


def test_objective_consensus_frozen():
    problem = consensus_problem()
    assert problem.objective([10.25, 10.25]) == pytest.approx(0.078125, abs=1e-12)
    # away from consensus the edge potential contributes |zeta|
    assert problem.objective([11.0, 10.0]) == pytest.approx(
        0.625 + 0.15625 + 1.0, abs=1e-12)


def test_objective_batch_matches_scalar():
    problem, _ = quadratic_problem()
    rng = np.random.default_rng(3)
    Y = rng.uniform(-5.0, 15.0, (40, 3))
    batch = objective_batch(problem, Y)
    singles = np.array([problem.objective(row) for row in Y])
    np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-12)


def test_smooth_gradient_matches_finite_differences():
    problem = mixed_sign_problem()

    def smooth_value(y):
        zeta = problem.graph.incidence.T @ y
        return (problem.agents.potential_total(y)
                + 0.5 * float(problem.beta @ zeta**2)
                + 0.5 * float(problem.alpha @ y**2))

    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        y = rng.uniform(10.0, 30.0, 3)
        grad = problem.smooth_gradient(y)
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            fd = (smooth_value(y + step) - smooth_value(y - step)) / (2.0 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_smooth_gradient_vanishes_at_anchors_without_gains():
    agents = AgentBank([TrafficAgent(1, 20.0, 0.8), TrafficAgent(1, 30.0, 0.8)])
    problem = build_problem(P2, agents, ControllerBank([TanhIntegratorController()]))
    np.testing.assert_allclose(
        problem.smooth_gradient(np.array([20.0, 30.0])), 0.0, atol=1e-12)


def test_smooth_gradient_consensus_kills_edge_term():
    # constant vectors lie in the kernel of E^T, so beta contributes nothing
    problem = mixed_sign_problem(beta=7.0)
    y = np.full(3, 4.2)
    expected = problem.agents.steady_input(y)
    np.testing.assert_allclose(problem.smooth_gradient(y), expected, atol=1e-12)


def test_smooth_hessian_matches_gradient_differences():
    problem, _ = quadratic_problem()
    H = problem.smooth_hessian()
    rng = np.random.default_rng(5)
    y = rng.uniform(0.0, 10.0, 3)
    h = 1e-6
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        column = (problem.smooth_gradient(y + step)
                  - problem.smooth_gradient(y - step)) / (2.0 * h)
        np.testing.assert_allclose(H[:, i], column, rtol=1e-6, atol=1e-6)


def test_convexity_probe_frozen_values():
    assert consensus_problem().convexity_probe() == pytest.approx(1.25, abs=1e-9)
    # bare mixed-sign instance: one slope of -0.8 gives curvature -1.25
    agents = AgentBank([TrafficAgent(1, 20.0, 0.8), TrafficAgent(-1, 25.0, -0.8)])
    bare = build_problem(P2, agents, ControllerBank([TanhIntegratorController()]))
    assert bare.convexity_probe() == pytest.approx(-1.25, abs=1e-9)
    assert mixed_sign_problem().convexity_probe() > 0.0


@st.composite
def gained_problems(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    chords = [(i, j) for i in range(n) for j in range(i + 2, n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += draw(st.lists(st.sampled_from(chords), unique=True)) if chords else []
    graph = NetworkGraph(n, tuple(edges))
    agents = []
    for _ in range(n):
        sign = draw(st.sampled_from((-1.0, 1.0)))
        agents.append(TrafficAgent(sign, 20.0, sign * draw(st.floats(0.1, 5.0))))
    gains = st.floats(min_value=0.0, max_value=1e4)
    gain = GainDesign(alpha=draw(st.lists(gains, min_size=n, max_size=n)),
                      beta=draw(st.lists(gains, min_size=len(edges), max_size=len(edges))),
                      epsilon=0.0, threshold=0.0, certificate=1.0)
    controllers = ControllerBank([TanhIntegratorController()] * len(edges))
    return build_problem(graph, AgentBank(agents), controllers, gain)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gained_problems())
def test_convexity_probe_bounded_by_mean_curvature_for_any_edge_gain(problem):
    # Rayleigh quotient on the consensus direction: E^T 1 = 0, so beta drops
    # out and no edge gain can lift the probe above sum(slope + alpha) / n
    n = problem.graph.n_vertices
    bound = (problem.agents.slope + problem.alpha).sum() / n
    scale = 1.0 + np.linalg.norm(problem.smooth_hessian(), np.inf)
    assert problem.convexity_probe() <= bound + 1e-12 * scale


def test_regularization_never_lowers_objective():
    plain = mixed_sign_problem(beta=0.0)
    gained = mixed_sign_problem(beta=3.0)
    rng = np.random.default_rng(7)
    for _ in range(25):
        y = rng.uniform(0.0, 40.0, 3)
        assert gained.objective(y) >= plain.objective(y) - 1e-12
    # equality exactly when the regularizer vanishes (consensus, alpha = 0)
    y = np.full(3, 17.0)
    assert gained.objective(y) == pytest.approx(plain.objective(y), abs=1e-12)


# ----------------------------------------------------------------------
# solver
# ----------------------------------------------------------------------


def test_solve_consensus_pair_frozen():
    minimizer = solve(consensus_problem())
    assert minimizer.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(minimizer.y_star, [10.25, 10.25], atol=1e-6)
    np.testing.assert_allclose(minimizer.zeta_star, [0.0], atol=1e-6)
    assert minimizer.objective_value == pytest.approx(0.078125, abs=1e-6)


def test_solve_single_agent_no_edges():
    graph = NetworkGraph(1, ())
    problem = build_problem(graph, AgentBank([TrafficAgent(1, 7.5, 0.8)]),
                            ControllerBank([]))
    minimizer = solve(problem)
    assert minimizer.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(minimizer.y_star, [7.5], atol=1e-8)
    assert minimizer.zeta_star.shape == (0,)


def test_solve_symmetric_pair_stays_at_anchor():
    agents = AgentBank([TrafficAgent(1, 15.0, 0.8), TrafficAgent(1, 15.0, 0.8)])
    problem = build_problem(P2, agents, ControllerBank([TanhIntegratorController()]))
    minimizer = solve(problem)
    np.testing.assert_allclose(minimizer.y_star, [15.0, 15.0], atol=1e-7)
    np.testing.assert_allclose(minimizer.zeta_star, [0.0], atol=1e-7)


def test_solve_constraint_consistency_at_optimal():
    for problem in (consensus_problem(), mixed_sign_problem(), quadratic_problem()[0]):
        minimizer = solve(problem)
        assert minimizer.status is SolveStatus.OPTIMAL
        gap = minimizer.zeta_star - problem.graph.incidence.T @ minimizer.y_star
        assert np.abs(gap).max() <= 1e-8


def test_solve_quadratic_matches_closed_form():
    problem, y_exact = quadratic_problem()
    minimizer = solve(problem)
    assert minimizer.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(minimizer.y_star, y_exact, atol=1e-7)


def test_solve_integrator_network_reaches_consensus():
    # singular vertex block: exercises the minimum-norm fallback
    agents = AgentBank([IntegratorAgent()] * 3)
    problem = build_problem(K3, agents, ControllerBank([TanhIntegratorController()] * 3))
    minimizer = solve(problem)
    assert minimizer.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(K3.incidence.T @ minimizer.y_star, 0.0, atol=1e-7)
    assert minimizer.objective_value == pytest.approx(0.0, abs=1e-9)


def test_solve_mixed_bank_frozen():
    graph = NetworkGraph.path(3)
    agents = AgentBank([TrafficAgent(1, 12.0, 0.8), IntegratorAgent(),
                        StaticAffineAgent(2.0, 3.0)])
    controllers = ControllerBank([TanhIntegratorController(), StaticGainController(1.0)])
    problem = build_problem(graph, agents, controllers)
    minimizer = solve(problem)
    assert minimizer.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(minimizer.y_star, [11.2, 6.0, 5.0], atol=1e-6)
    assert minimizer.objective_value == pytest.approx(4.85, abs=1e-7)
    oracle = brute_force(problem, box=(-10.0, 30.0), spacing=1e-3)
    assert abs(minimizer.objective_value - oracle.objective_value) <= 1e-6
    assert np.abs(minimizer.y_star - oracle.y_star).max() <= 2e-3


def test_solve_nonconvex_detected():
    agents = AgentBank([TrafficAgent(1, 20.0, 0.8), TrafficAgent(-1, 25.0, -0.8)])
    problem = build_problem(P2, agents, ControllerBank([TanhIntegratorController()]))
    minimizer = solve(problem)
    assert minimizer.status is SolveStatus.NONCONVEX_DETECTED


def test_solve_max_iter_status():
    problem, _ = quadratic_problem()
    minimizer = solve(problem, max_iter=3)
    assert minimizer.status is SolveStatus.MAX_ITER
    assert minimizer.iterations == 3


@settings(max_examples=20, deadline=None)
@given(
    anchors=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=4),
    slopes=st.lists(st.floats(0.3, 3.0), min_size=4, max_size=4),
    weight=st.floats(0.1, 2.0),
)
def test_solve_random_quadratic_instances(anchors, slopes, weight):
    n = len(anchors)
    graph = NetworkGraph.path(n)
    agents = AgentBank([TrafficAgent(1, v0, s) for v0, s in zip(anchors, slopes[:n])])
    controllers = ControllerBank([StaticGainController(weight)] * (n - 1))
    problem = build_problem(graph, agents, controllers)
    minimizer = solve(problem)
    assert minimizer.status is SolveStatus.OPTIMAL
    curvature = 1.0 / np.array(slopes[:n])
    E = graph.incidence
    H = np.diag(curvature) + (E * weight) @ E.T
    y_exact = np.linalg.solve(H, curvature * np.array(anchors))
    np.testing.assert_allclose(minimizer.y_star, y_exact, atol=1e-6)


# The vertex update applies a cached inverse; its relative backward error
# ||A x - b|| / (||A|| ||x||) measured at most 3.2e-14 on these systems
# (4e-16 for the Cholesky solve it replaced).
VERTEX_BACKWARD_TOL = 1e-12
PENALTIES = (1e-8, 1.0, 1e4, 1e8)


def _backward_errors(H, L, t, rhs):
    vertex = _VertexSolver(H, L)
    assert vertex.factor(t)
    A = H + t * L
    x = np.column_stack([vertex.solve(b) for b in rhs.T])
    errors = np.linalg.norm(A @ x - rhs, axis=0) / (
        np.linalg.norm(A, 2) * np.linalg.norm(x, axis=0))
    return x, errors


@pytest.mark.parametrize("t", PENALTIES)
@pytest.mark.parametrize("n,seed", [(4, 6), (10, 1), (40, 7)])
def test_vertex_solve_backward_error_on_case_study_hessians(n, seed, t):
    config = generate_case_study(n, seed)
    graph, agents, controllers = build_system_parts(config)
    _, problem, _, _ = synthesis_stage(config, graph, agents, controllers)
    rhs = np.random.default_rng(seed).standard_normal((n, 8))
    _, errors = _backward_errors(problem.smooth_hessian(), graph.laplacian(), t, rhs)
    assert errors.max() <= VERTEX_BACKWARD_TOL


@pytest.mark.parametrize("t", PENALTIES)
@pytest.mark.parametrize("n", [3, 4, 5, 10])
def test_vertex_solve_on_an_integrator_network_is_the_minimum_norm_solution(n, t):
    # H = 0, so the system t L is singular; a Cholesky factor can still
    # succeed on rounding (K4, K5 and K10 at t = 1, K5 at t = 1e4), and its
    # inverse would return a point far off the system.
    graph = NetworkGraph.complete(n)
    problem = build_problem(graph, AgentBank([IntegratorAgent()] * n),
                            ControllerBank([TanhIntegratorController()] * graph.n_edges))
    L = graph.laplacian()
    rhs = L @ np.random.default_rng(n).standard_normal((n, 8))  # consistent
    x, errors = _backward_errors(problem.smooth_hessian(), L, t, rhs)
    assert errors.max() <= VERTEX_BACKWARD_TOL
    np.testing.assert_allclose(x.sum(axis=0), 0.0, atol=1e-12 * np.abs(x).max())


# ----------------------------------------------------------------------
# plain-loop ADMM oracle
# ----------------------------------------------------------------------


def plain_admm(problem, step=1.0, max_iter=100000, tol=1e-8):
    """The plain splitting loop that ``solve`` trims, kept as a reference.

    Both incidence products are dense, both residuals are formed on every
    iteration, the prox evaluates both controller branches, and a failed
    halving re-forms the current vertex inverse.  ``solve`` must take the
    same iterations to the same status; its sums run in another order, so
    the values agree to rounding only.
    """
    nonconvex = problem.convexity_probe() < -1e-9
    E = problem.graph.incidence
    sat, gain = problem.controllers.saturated, problem.controllers.w
    lin = problem.agents.steady_input(np.zeros(len(problem.agents)))

    def prox(v, s):
        shrunk = np.sign(v) * np.maximum(np.abs(v) - s, 0.0)
        return np.where(sat, shrunk, v / (1.0 + s * gain))

    y = problem.agents.anchors.astype(float).copy()
    zeta = E.T @ y
    w = np.zeros(problem.graph.n_edges)
    vertex = _VertexSolver(problem.smooth_hessian(), problem.graph.laplacian())
    t = float(step)
    while not vertex.factor(t):
        t *= 2.0
        if t > 1e12:
            status = SolveStatus.NONCONVEX_DETECTED if nonconvex else SolveStatus.MAX_ITER
            return y, zeta, np.inf, np.inf, 0, status, t
    r_p = r_d = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = vertex.solve(t * (E @ (zeta - w)) - lin)
        Ety = E.T @ y
        zeta_prev = zeta
        zeta = prox(Ety + w, 1.0 / t)
        w = w + Ety - zeta
        r_p = float(np.linalg.norm(Ety - zeta))
        r_d = float(np.linalg.norm(t * (E @ (zeta - zeta_prev))))
        if r_p < tol and r_d < tol:
            break
        if iterations % 50 == 0:
            if r_p > 10.0 * r_d and t < 1e8:
                if vertex.factor(2.0 * t):
                    t *= 2.0
                    w = w / 2.0
            elif r_d > 10.0 * r_p and t > 1e-8:
                if vertex.factor(t / 2.0):
                    t /= 2.0
                    w = w * 2.0
                else:
                    vertex.factor(t)
    if nonconvex:
        status = SolveStatus.NONCONVEX_DETECTED
    elif r_p < tol and r_d < tol:
        status = SolveStatus.OPTIMAL
    else:
        status = SolveStatus.MAX_ITER
    return y, zeta, r_p, r_d, iterations, status, t


# y* and zeta* agree with the oracle's within this share of max |y*|.  Each
# residual agrees within this share of the oracle's, plus what moving the
# iterates by the point tolerance can change it by: near the stop test a
# residual is a difference of nearly equal iterates, which rounding alone
# moves in its sixth digit.
ORACLE_POINT_TOL = 1e-12
ORACLE_RESIDUAL_TOL = 1e-9


def assert_matches_plain_admm(problem, max_iter):
    kwargs = {} if max_iter is None else {"max_iter": max_iter}
    got = solve(problem, **kwargs)
    y, zeta, r_p, r_d, iterations, status, t = plain_admm(problem, **kwargs)
    assert (got.iterations, got.status) == (iterations, status)
    point = ORACLE_POINT_TOL * max(np.abs(y).max(), 1e-300)
    assert np.abs(got.y_star - y).max() <= point
    assert np.abs(got.zeta_star - zeta).max(initial=0.0) <= point
    # r_p = |E^T y - zeta| and r_d = t |E (zeta - zeta_prev)|, with |E| <= sqrt(2 n)
    n, m = problem.graph.n_vertices, problem.graph.n_edges
    norm_E = np.sqrt(2.0 * n)
    slack_p = (norm_E * np.sqrt(n) + np.sqrt(m)) * point
    slack_d = t * norm_E * 2.0 * np.sqrt(m) * point
    for value, expected, slack in ((got.primal_residual, r_p, slack_p),
                                   (got.dual_residual, r_d, slack_d)):
        assert value == pytest.approx(expected, rel=ORACLE_RESIDUAL_TOL, abs=slack)
    return got


@st.composite
def admm_problems(draw):
    """Convex problems on small random graphs with tanh, static or mixed banks."""
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    edges = tuple((j, i) if draw(st.booleans()) else (i, j) for i, j in chosen)
    bank = draw(st.sampled_from(("tanh", "static", "mixed")))
    controllers = []
    for _ in edges:
        if bank == "tanh" or (bank == "mixed" and draw(st.booleans())):
            controllers.append(TanhIntegratorController())
        else:
            controllers.append(StaticGainController(draw(st.floats(0.1, 3.0))))
    agents = []
    for _ in range(n):
        sign = draw(st.sampled_from((-1.0, 1.0, 1.0, 1.0)))
        agents.append(TrafficAgent(sign, draw(st.floats(0.0, 40.0)),
                                   sign * draw(st.floats(0.2, 5.0))))
    gains = st.floats(min_value=0.0, max_value=10.0)
    gain = GainDesign(alpha=draw(st.lists(gains, min_size=n, max_size=n)),
                      beta=draw(st.lists(gains, min_size=len(edges), max_size=len(edges))),
                      epsilon=0.0, threshold=0.0, certificate=1.0)
    problem = build_problem(NetworkGraph(n, edges), AgentBank(agents),
                            ControllerBank(controllers), gain)
    # Iterates on a nonconvex problem can grow until their norms overflow.
    assume(problem.convexity_probe() > 0.0)
    return problem


@settings(max_examples=150, deadline=None, derandomize=True)
@given(admm_problems(), st.sampled_from((1, 3, 49, 50, 51, 200, None)))
def test_solve_matches_the_plain_admm_loop(problem, max_iter):
    assert_matches_plain_admm(problem, max_iter)


def test_solve_matches_the_plain_admm_loop_on_every_exit_path():
    config = generate_case_study(5, 1)  # 156 iterations, balanced at 50, 100, 150
    problem = synthesis_stage(config, *build_system_parts(config))[1]
    # the tolerance exit
    got = assert_matches_plain_admm(problem, None)
    assert (got.iterations, got.status) == (156, SolveStatus.OPTIMAL)
    # a max_iter exit on and off a multiple of 50, before and after balancing
    for max_iter in (1, 3, 49, 50, 51, 100, 137):
        got = assert_matches_plain_admm(problem, max_iter)
        assert (got.iterations, got.status) == (max_iter, SolveStatus.MAX_ITER)
    # a factor that fails at the start: a lone negative-curvature vertex, so
    # H + t L = H is negative at every penalty
    problem = build_problem(NetworkGraph(1, ()),
                            AgentBank([TrafficAgent(-1, 25.0, -0.5)]), ControllerBank([]))
    got = assert_matches_plain_admm(problem, None)
    assert got.iterations == 0 and got.status is SolveStatus.NONCONVEX_DETECTED
    assert got.primal_residual == got.dual_residual == np.inf


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------


def test_brute_force_quadratic_matches_closed_form():
    problem, y_exact = quadratic_problem()
    oracle = brute_force(problem, spacing=1e-4)
    np.testing.assert_allclose(oracle.y_star, y_exact, atol=2e-4)


def test_brute_force_agrees_with_solver_on_mixed_instance():
    problem = mixed_sign_problem()
    minimizer = solve(problem)
    oracle = brute_force(problem, box=(0.0, 50.0), spacing=1e-3)
    assert abs(minimizer.objective_value - oracle.objective_value) <= 1e-6
    assert np.abs(minimizer.y_star - oracle.y_star).max() <= 2e-3


def test_brute_force_dimension_cap():
    graph = NetworkGraph.path(5)
    agents = AgentBank([TrafficAgent(1, 0.0, 1.0)] * 5)
    controllers = ControllerBank([TanhIntegratorController()] * 4)
    problem = build_problem(graph, agents, controllers)
    with pytest.raises(DimensionTooLargeError):
        brute_force(problem)


# ----------------------------------------------------------------------
# stationarity and the input-side objective
# ----------------------------------------------------------------------


def test_stationarity_residual_small_at_minimizer():
    problem = consensus_problem()
    minimizer = solve(problem)
    residual, selection = stationarity_residual(problem, minimizer.y_star)
    assert residual <= 1e-7
    assert selection[0] == pytest.approx(-0.3125, abs=1e-6)


def test_stationarity_residual_positive_far_away():
    problem = consensus_problem()
    residual, _ = stationarity_residual(problem, np.array([0.0, 50.0]))
    assert residual > 1.0


def test_stationarity_residual_zero_at_balanced_consensus():
    # equal anchors: zeta = 0 and the saturated effort interval absorbs 0
    agents = AgentBank([TrafficAgent(1, 15.0, 0.8), TrafficAgent(1, 15.0, 0.8)])
    problem = build_problem(P2, agents, ControllerBank([TanhIntegratorController()]))
    residual, _ = stationarity_residual(problem, np.array([15.0, 15.0]))
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_flow_objective_zero_at_origin():
    agents = AgentBank([TrafficAgent(1, 10.0, 0.8), TrafficAgent(1, 10.5, 0.8)])
    controllers = ControllerBank([TanhIntegratorController()])
    assert flow_objective(agents, controllers, np.zeros(2), np.zeros(1)) == 0.0


def test_flow_objective_infinite_outside_effort_box():
    agents = AgentBank([TrafficAgent(1, 10.0, 0.8), TrafficAgent(1, 10.5, 0.8)])
    controllers = ControllerBank([TanhIntegratorController()])
    assert flow_objective(agents, controllers, np.zeros(2), np.array([2.0])) == np.inf


def test_duality_gap_vanishes_at_consensus_optimum():
    problem = consensus_problem()
    minimizer = solve(problem)
    _, selection = stationarity_residual(problem, minimizer.y_star)
    u_star = -problem.graph.incidence @ selection
    dual = flow_objective(problem.agents, problem.controllers, u_star, selection)
    assert dual == pytest.approx(-0.078125, abs=1e-6)
    assert abs(minimizer.objective_value + dual) <= 1e-6


# ----------------------------------------------------------------------
# construction guards
# ----------------------------------------------------------------------


def test_build_problem_without_gain_uses_zeros():
    problem = consensus_problem()
    np.testing.assert_allclose(problem.alpha, 0.0)
    np.testing.assert_allclose(problem.beta, 0.0)


def test_build_problem_copies_gain_vectors():
    problem = mixed_sign_problem(beta=2.5)
    np.testing.assert_allclose(problem.beta, 2.5)
    np.testing.assert_allclose(problem.alpha, 0.0)


def test_problem_rejects_mismatched_dimensions():
    agents = AgentBank([TrafficAgent(1, 10.0, 0.8)])
    controllers = ControllerBank([TanhIntegratorController()])
    with pytest.raises(DimensionMismatchError):
        build_problem(P2, agents, controllers)
    three = AgentBank([TrafficAgent(1, 10.0, 0.8)] * 2)
    with pytest.raises(DimensionMismatchError):
        from netpass import RegularizedProblem
        RegularizedProblem(P2, three, controllers, np.zeros(3), np.zeros(1))


def test_convexified_threshold_certifies_probe():
    # uniform edge gain above the threshold for the true curvatures makes
    # the smooth Hessian positive definite
    curvature = np.array([1.25, 1.25, -1.25])
    threshold = edge_gain_threshold(curvature, K3)
    problem = mixed_sign_problem(beta=threshold + 0.1)
    assert problem.convexity_probe() > 0.0

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

import contextlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import netpass
from netpass import (
    AgentBank,
    ClosedLoopSystem,
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
    solve,
    stationarity_residual,
    steady_state_residual,
)
from netpass.harness import generate_case_study, synthesis_stage
import netpass.netopt as netopt
from netpass.netopt import _CURVATURE_TOL, SOLVER_TOL, _Pattern
from oracles import (
    DimensionTooLargeError,
    brute_force,
    bvls_residual,
    flow_objective,
    incidence,
    objective_batch,
)

P2 = NetworkGraph.path(2)
K3 = NetworkGraph.complete(3)


CONSENSUS_AGENTS = (TrafficAgent(1, 10.0, 0.8), TrafficAgent(1, 10.5, 0.8))
CONSENSUS_CONTROLLERS = (TanhIntegratorController(),)


def consensus_problem():
    return build_problem(P2, AgentBank(CONSENSUS_AGENTS), ControllerBank(CONSENSUS_CONTROLLERS))


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
    E = incidence(graph)
    H = np.diag(curvature + alpha) + (E * weights) @ E.T
    y_exact = np.linalg.solve(H, curvature * np.array([5.0, 9.0, 1.0]))
    return problem, y_exact


def mixed_bank_problem():
    """Traffic, integrator and static-affine agents on the 3-path: an integrator makes the probe 0."""
    graph = NetworkGraph.path(3)
    agents = AgentBank([TrafficAgent(1, 12.0, 0.8), IntegratorAgent(),
                        StaticAffineAgent(2.0, 3.0)])
    controllers = ControllerBank([TanhIntegratorController(), StaticGainController(1.0)])
    return build_problem(graph, agents, controllers)



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
        zeta = incidence(problem.graph).T @ y
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gained_problems(), st.data())
def test_objective_gathers_the_incidence_product_bit_for_bit(problem, data):
    n = problem.graph.n_vertices
    y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    zeta = incidence(problem.graph).T @ y
    np.testing.assert_array_equal(y[problem.graph.heads] - y[problem.graph.tails], zeta)
    # the objective's own sum, in its order, on the product's zeta
    expected = problem.agents.potential_total(y) + problem.controllers.potential_total(zeta)
    expected += 0.5 * float(problem.beta @ zeta**2)
    expected += 0.5 * float(problem.alpha @ y**2)
    assert problem.objective(y) == expected


@pytest.mark.parametrize("length", [1, 4])
def test_outputs_of_the_wrong_length_are_refused(length):
    # three agents: a length-1 y would broadcast over all of them, a longer one be cut
    problem = mixed_sign_problem()
    gain = GainDesign(problem.alpha, problem.beta, 0.0, 0.0, 1.0)
    system = ClosedLoopSystem(problem.graph, problem.agents, problem.controllers, gain)
    y = np.full(length, 20.0)
    for evaluate in (problem.objective, problem.smooth_gradient, problem.agents.steady_input,
                     lambda v: stationarity_residual(problem, v),
                     lambda v: steady_state_residual(system, v)):
        with pytest.raises(DimensionMismatchError):
            evaluate(y)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_outputs_are_refused(bad):
    problem = mixed_sign_problem()
    y = np.array([20.0, bad, 20.0])
    for evaluate in (problem.objective, lambda v: stationarity_residual(problem, v)):
        with pytest.raises(ValueError, match="^y must be finite$"):
            evaluate(y)


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
        gap = minimizer.zeta_star - incidence(problem.graph).T @ minimizer.y_star
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
    np.testing.assert_allclose(incidence(K3).T @ minimizer.y_star, 0.0, atol=1e-7)
    assert minimizer.objective_value == pytest.approx(0.0, abs=1e-9)


def test_solve_mixed_bank_frozen():
    problem = mixed_bank_problem()
    minimizer = solve(problem)
    assert minimizer.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(minimizer.y_star, [11.2, 6.0, 5.0], atol=1e-6)
    assert minimizer.objective_value == pytest.approx(4.85, abs=1e-7)
    oracle = brute_force(problem, box=(-10.0, 30.0), spacing=1e-3)
    assert abs(minimizer.objective_value - oracle.objective_value) <= 1e-6
    assert np.abs(minimizer.y_star - oracle.y_star).max() <= 2e-3


def test_solve_nonconvex_detected():
    # the probe alone gives the verdict: no pattern is tried, and y* is the anchors
    agents = AgentBank([TrafficAgent(1, 20.0, 0.8), TrafficAgent(-1, 25.0, -0.8)])
    problem = build_problem(P2, agents, ControllerBank([TanhIntegratorController()]))
    minimizer = solve(problem)
    assert minimizer.status is SolveStatus.NONCONVEX_DETECTED
    assert minimizer.iterations == 0
    np.testing.assert_array_equal(minimizer.y_star, [20.0, 25.0])
    np.testing.assert_array_equal(minimizer.zeta_star, [-5.0])
    assert minimizer.objective_value == problem.objective([20.0, 25.0])
    assert minimizer.dual_residual == np.inf


def test_solve_max_iter_status():
    # the cap counts the patterns of every pass.  One pass: the active set
    # needs two patterns here, so one is not enough.
    minimizer = solve(mixed_sign_problem(), max_iter=1)
    assert minimizer.status is SolveStatus.MAX_ITER
    assert minimizer.iterations == 1
    # The proximal loop: the mixed bank's probe is 0, and its passes certify
    # the minimizer at pattern 8.  A cap inside any of them ends at MAX_ITER
    # at the last pass's point, or the anchors before the first.
    problem = mixed_bank_problem()
    assert problem.convexity_probe() == 0.0
    full = solve(problem)
    assert (full.iterations, full.status) == (8, SolveStatus.OPTIMAL)
    for max_iter in range(1, 8):
        got = solve(problem, max_iter=max_iter)
        assert (got.iterations, got.status) == (max_iter, SolveStatus.MAX_ITER)
        assert got.dual_residual >= SOLVER_TOL
    got = solve(problem, max_iter=8)
    assert (got.iterations, got.status) == (8, SolveStatus.OPTIMAL)
    np.testing.assert_array_equal(got.y_star, full.y_star)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
def test_solve_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    # a NaN, zero or negative bound spent the whole pattern budget; inf certified anything
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve(consensus_problem(), tol=tol)


def test_an_unfactorable_quotient_ends_the_active_set_without_a_step():
    # no interior edge: every vertex is its own cluster, so C^T H C is H, indefinite here
    pattern = _Pattern(P2, np.array([False]), np.diag([1.0, -1.0]), np.zeros(2))
    assert pattern.step(np.zeros(1), np.zeros(1)) is None
    assert netopt._active_set(pattern, np.zeros(1), np.zeros(1), 10, SOLVER_TOL) \
        == (None, False, 1)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the absolute KKT tolerance is below the rounding level of H y")
def test_solve_certifies_a_badly_scaled_three_vertex_problem():
    # Today the second pattern's point, (950009.36, 950009.36, -39.0), keeps
    # every sign, but its KKT norm is 2.1e-4, the rounding level of H y here
    # (||H||_inf ||y||_inf eps ~ 4.2e-4), far above the tolerance 1e-8; so no
    # pass certifies and the proximal loop cycles until the budget runs out.
    graph = NetworkGraph(3, ((0, 1), (1, 2)))
    agents = AgentBank([StaticAffineAgent(a=1e5, c=1e6, rho=1e-5)] * 2
                       + [StaticAffineAgent(a=1.0, c=-40.0, rho=1.0)])
    controllers = ControllerBank([StaticGainController(1e6), TanhIntegratorController()])
    minimizer = solve(build_problem(graph, agents, controllers), max_iter=200)
    assert minimizer.status is SolveStatus.OPTIMAL, (minimizer.status, minimizer.dual_residual)


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
    E = incidence(graph)
    H = np.diag(curvature) + (E * weight) @ E.T
    y_exact = np.linalg.solve(H, curvature * np.array(anchors))
    np.testing.assert_allclose(minimizer.y_star, y_exact, atol=1e-6)


# A pattern step solves for the vertices.  With every tanh edge saturated
# each vertex is its own cluster, so the quotient is the proximal loop's
# H + rho I itself (H with the static edges' Laplacian).  Its relative
# backward error ||A y - b|| / (||A|| ||y||) measured at most 4.4e-16 on
# these systems.
VERTEX_BACKWARD_TOL = 1e-12
PENALTIES = (1e-8, 1.0, 1e4, 1e8)


def pattern_of(problem, rho=0.0, center=0.0):
    """``solve``'s pattern step on ``problem`` plus rho/2 |y - center|^2: H + L_w + rho I."""
    graph = problem.graph
    hessian = problem.smooth_hessian() + graph.weighted_laplacian(problem.controllers.w)
    return _Pattern(graph, problem.controllers.saturated, hessian + rho * np.eye(graph.n_vertices),
                    problem.agents.intercept - rho * center)


@pytest.mark.parametrize("t", PENALTIES)
@pytest.mark.parametrize("n,seed", [(4, 6), (10, 1), (40, 7)])
def test_vertex_solve_backward_error_on_case_study_hessians(n, seed, t):
    _, problem, _, _ = synthesis_stage(generate_case_study(n, seed))
    saturated = problem.controllers.saturated
    sign = np.where(saturated, 1.0, 0.0)
    E = incidence(problem.graph)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        pattern = pattern_of(problem, t, rng.standard_normal(n))
        A, b = pattern.hessian, -(pattern.intercept + E @ sign)
        y, _, _, effort = pattern.step(sign, np.zeros_like(sign))
        error = np.linalg.norm(A @ y - b) / (np.linalg.norm(A, 2) * np.linalg.norm(y))
        assert error <= VERTEX_BACKWARD_TOL
        np.testing.assert_array_equal(effort, sign)


@pytest.mark.parametrize("t", PENALTIES)
@pytest.mark.parametrize("n", [3, 4, 5, 10])
def test_vertex_solve_on_an_integrator_network_is_the_minimum_norm_solution(n, t):
    # H = 0, so the all-interior quotient (K_n is one cluster) is singular
    # without the proximal term.  With it, y is constant and the interior
    # efforts add to the clipped ones the least-norm correction d with
    # E d = r - E clip(effort), r the residual b - (H + t I) y: the lifted
    # vertex system returns the Laplacian system's minimum-norm solution.
    graph = NetworkGraph.complete(n)
    problem = build_problem(graph, AgentBank([IntegratorAgent()] * n),
                            ControllerBank([TanhIntegratorController()] * graph.n_edges))
    interior = np.zeros(graph.n_edges)
    assert pattern_of(problem).step(interior, interior) is None
    E = incidence(graph)
    rng = np.random.default_rng(n)
    for _ in range(8):
        pattern = pattern_of(problem, t, rng.standard_normal(n))
        effort = 2.0 * rng.standard_normal(graph.n_edges)
        y, kkt, _, mu = pattern.step(interior, effort)
        np.testing.assert_allclose(y, -pattern.intercept.sum() / (n * t), rtol=1e-12)
        residual = -pattern.intercept - pattern.hessian @ y
        clipped = np.clip(effort, -1.0, 1.0)
        least = np.linalg.pinv(E) @ (residual - E @ clipped)
        scale = np.abs(residual).max() + 1.0
        assert np.abs(mu - clipped - least).max() <= VERTEX_BACKWARD_TOL * scale
        assert kkt <= VERTEX_BACKWARD_TOL * scale


@contextlib.contextmanager
def handed_over():
    """In the block, the first step on a pattern with a saturated edge corrects it back to all interior.

    Once: a run that gets there meets its first pattern again, and later
    steps are the true ones.
    """
    step, fired = _Pattern.step, []

    def repeating(self, sign, effort):
        point = step(self, sign, effort)
        if point is None or fired or not sign.any():
            return point
        fired.append(sign)
        y, kkt, _, effort = point
        return y, kkt, np.zeros_like(sign), effort

    with mock.patch.object(_Pattern, "step", repeating):
        yield


@st.composite
def strictly_convex_problems(draw):
    """Problems with a positive probe on small random graphs with tanh, static or mixed banks."""
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
    assume(problem.convexity_probe() > 0.0)
    return problem


@st.composite
def semidefinite_problems(draw):
    """Problems with no gain on integrator and traffic agents (40% integrators), 70% tanh edges.

    An integrator's curvature is 0 and a traffic agent's positive, so the
    probe is 0 once there is an integrator.
    """
    n = draw(st.integers(min_value=2, max_value=7))
    chords = [(i, j) for i in range(n) for j in range(i + 2, n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    if chords:
        pairs += draw(st.lists(st.sampled_from(chords), unique=True))
    edges = tuple((j, i) if draw(st.booleans()) else (i, j) for i, j in pairs)
    controllers = [TanhIntegratorController() if draw(st.integers(0, 9)) < 7
                   else StaticGainController(draw(st.floats(0.1, 3.0))) for _ in edges]
    agents = [IntegratorAgent() if draw(st.integers(0, 9)) < 4
              else TrafficAgent(1, draw(st.floats(0.0, 40.0)), draw(st.floats(0.2, 5.0)))
              for _ in range(n)]
    problem = build_problem(NetworkGraph(n, edges), AgentBank(agents),
                            ControllerBank(controllers))
    assume(problem.convexity_probe() <= 0.0)
    return problem


@settings(max_examples=150, deadline=None, derandomize=True)
@given(semidefinite_problems())
def test_solve_certifies_every_semidefinite_problem_through_the_proximal_loop(problem):
    assert _CURVATURE_TOL <= problem.convexity_probe() <= 0.0
    got = solve(problem)
    assert got.status is SolveStatus.OPTIMAL
    assert got.iterations >= 1
    y = got.y_star
    assert bvls_residual(problem, y)[0] <= 1e-7
    if problem.graph.n_vertices <= 3:
        anchors = problem.agents.anchors
        box = (min(anchors.min(), y.min()) - 1.0, max(anchors.max(), y.max()) + 1.0)
        oracle = brute_force(problem, box=box, spacing=0.05)
        assert got.objective_value <= oracle.objective_value + 1e-12


def test_a_repeated_pattern_hands_the_problem_to_the_proximal_loop():
    problem = synthesis_stage(generate_case_study(5, 1))[1]
    certified = solve(problem)
    assert (certified.iterations, certified.status) == (3, SolveStatus.OPTIMAL)
    with handed_over():
        got = solve(problem)
    assert_certified(problem, got)
    assert got.iterations > 2
    # both name the unique minimizer: by strong convexity each lies within
    # its KKT norm over the probe of it
    distance = np.linalg.norm(got.y_star - certified.y_star)
    assert distance <= (SOLVER_TOL + certified.dual_residual) / problem.convexity_probe()


# ----------------------------------------------------------------------
# the active set and its certificate
# ----------------------------------------------------------------------


def assert_certified(problem, got, tol=SOLVER_TOL):
    """A run the active set ended: its last pattern certified, and that pattern's exact point.

    zeta* = E^T y* bit for bit, the certificate's KKT norm below ``tol``, and
    y* stationary by the independent residual.  On three vertices or fewer,
    y* also lies within the grid oracle's objective gap of the oracle's
    point, by strong convexity: F(y_grid) - F(y*) >= probe / 2
    |y_grid - y*|^2.  A narrow valley can leave the zooming grid far off
    along it, but never y* below the grid.
    """
    assert got.status is SolveStatus.OPTIMAL
    assert got.iterations >= 1
    assert got.dual_residual < tol
    y, graph = got.y_star, problem.graph
    np.testing.assert_array_equal(got.zeta_star, y[graph.heads] - y[graph.tails])
    assert stationarity_residual(problem, y)[0] <= 1e-7
    if graph.n_vertices <= 3:
        anchors = problem.agents.anchors
        box = (min(anchors.min(), y.min()) - 1.0, max(anchors.max(), y.max()) + 1.0)
        oracle = brute_force(problem, box=box, spacing=0.05)
        gap = oracle.objective_value - problem.objective(y)
        assert gap >= -1e-12
        assert 0.5 * problem.convexity_probe() * np.sum((oracle.y_star - y)**2) <= gap + 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(strictly_convex_problems())
def test_solve_certifies_every_strictly_convex_problem_through_the_active_set(problem):
    assert_certified(problem, solve(problem))


@st.composite
def polish_scenarios(draw):
    """Scenarios on two or three vertices with mixed edges, under either synthesized gain."""
    # The grid oracle's cost grows 33-fold per vertex: about 1 s a call at
    # its cap of four, 20 ms at three.
    n = draw(st.sampled_from((2, 3, 3)))
    chords = [(i, j) for i in range(n) for j in range(i + 2, n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    if chords:
        pairs += draw(st.lists(st.sampled_from(chords), unique=True))
    edges = [[j, i] if draw(st.booleans()) else [i, j] for i, j in pairs]
    controllers = [{"kind": "tanh_integrator"} if draw(st.booleans())
                   else {"kind": "static_gain", "w": draw(st.floats(0.2, 3.0))} for _ in edges]
    controllers[0] = {"kind": "tanh_integrator"}
    agents = []
    for _ in range(n):
        kappa = draw(st.sampled_from((-1.0, 1.0, 1.0)))
        agents.append({"kind": "traffic", "kappa": kappa, "v0": draw(st.floats(0.0, 6.0)),
                       "v1": kappa * draw(st.floats(0.3, 2.0))})
    mode = draw(st.sampled_from(("network_only", "hybrid")))
    data = {"graph": {"n": n, "edges": edges}, "agents": agents,
            "controllers": controllers, "gain_mode": mode}
    if mode == "hybrid":
        data["self_regulating"] = [0]
    try:
        problem = synthesis_stage(netpass.config_from_dict(data))[1]
    except netpass.NotPassivizableError:
        assume(False)
    assume(problem.convexity_probe() > 0.0)
    return problem


def _certifies(pattern, sign, effort):
    point = pattern.step(sign, effort)
    return point is not None and point[1] < SOLVER_TOL and np.array_equal(point[2], sign)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(polish_scenarios())
def test_a_polished_point_is_the_minimizer_and_a_wrong_pattern_is_refused(problem):
    got = solve(problem)
    assert_certified(problem, got)
    _, effort = stationarity_residual(problem, got.y_star)
    # Mutations of the certified pattern.  Each of these edges has
    # |zeta*| far above what the certificate allows (tol / probe), so a point
    # that keeps it at 0 or turns its sign cannot be certified.
    pattern = pattern_of(problem)
    zeta = got.zeta_star
    saturated = problem.controllers.saturated
    sign = np.where(saturated, np.sign(zeta), 0.0)
    far = saturated & (np.abs(zeta) > 1e3 * SOLVER_TOL / problem.convexity_probe())
    for e in np.flatnonzero(far):
        flipped = sign.copy()
        flipped[e] = -flipped[e]
        assert not _certifies(pattern, flipped, effort)
        held = sign.copy()
        held[e] = 0.0
        assert not _certifies(pattern, held, effort)
    # the certified pattern itself is accepted again from the fitted efforts
    assert _certifies(pattern, sign, effort)


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


def test_stationarity_residual_builds_no_model_objects():
    # The free edges' prox is a pattern on the problem's own graph, with no
    # graph, bank or problem built for it.
    _, problem, _, _ = synthesis_stage(generate_case_study(40, 7))
    graph, y = problem.graph, solve(problem).y_star
    lower, upper = problem.controllers.effort_bounds(y[graph.heads] - y[graph.tails])
    assert np.any(lower < upper)  # free edges, so the prox runs
    built = []

    def counted(cls):
        init = cls.__init__

        def counting(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)
        return mock.patch.object(cls, "__init__", counting)

    with counted(NetworkGraph), counted(AgentBank), counted(ControllerBank), \
            counted(netpass.RegularizedProblem):
        residual, _ = stationarity_residual(problem, y)
        far, _ = stationarity_residual(problem, y + 1e-3)
    assert built == []
    assert residual <= 1e-6 and far > residual


@st.composite
def cyclic_problems(draw):
    """Problems on a cycle through every vertex (n <= 8) plus random chords, mostly tanh edges."""
    n = draw(st.integers(min_value=3, max_value=8))
    order = draw(st.permutations(range(n)))
    pairs = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    chords = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
    if chords:
        pairs.update(draw(st.lists(st.sampled_from(chords), unique=True)))
    edges = tuple((j, i) if draw(st.booleans()) else (i, j) for i, j in sorted(pairs))
    controllers = [StaticGainController(draw(st.floats(0.1, 3.0)))
                   if draw(st.integers(0, 4)) == 0 else TanhIntegratorController()
                   for _ in edges]
    agents = []
    for _ in range(n):
        sign = draw(st.sampled_from((-1.0, 1.0)))
        agents.append(TrafficAgent(sign, draw(st.floats(-40.0, 40.0)),
                                   sign * draw(st.floats(0.2, 5.0))))
    gains = st.floats(min_value=0.0, max_value=10.0)
    gain = GainDesign(alpha=draw(st.lists(gains, min_size=n, max_size=n)),
                      beta=draw(st.lists(gains, min_size=len(edges), max_size=len(edges))),
                      epsilon=0.0, threshold=0.0, certificate=1.0)
    return build_problem(NetworkGraph(n, edges), AgentBank(agents),
                         ControllerBank(controllers), gain)


@st.composite
def leveled(draw, problems):
    """A problem and an output on at most three levels.

    Many tanh edges then sit at zeta = 0 and are free, and levels far apart
    push the free edges' unbounded least-squares fit out of [-1, 1]: it left
    them on 304 of the 400 examples below, and 17 more had a free edge.
    """
    problem = draw(problems)
    levels = draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=3))
    return problem, np.array([draw(st.sampled_from(levels))
                              for _ in range(problem.graph.n_vertices)])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(leveled(strictly_convex_problems()), leveled(cyclic_problems())))
def test_stationarity_residual_matches_the_bvls_oracle(point):
    # The norm is BVLS's, and the selection lies in the effort bounds and attains it.
    problem, y = point
    graph = problem.graph
    residual, selection = stationarity_residual(problem, y)
    gradient = problem.smooth_gradient(y)
    lower, upper = problem.controllers.effort_bounds(y[graph.heads] - y[graph.tails])
    fixed_part = gradient + graph.scatter(0.5 * (lower + upper))  # a free edge's midpoint is 0
    expected, _ = bvls_residual(problem, y)
    assert abs(residual - expected) <= 1e-10 * max(1.0, np.linalg.norm(fixed_part))
    assert np.all((lower <= selection) & (selection <= upper))
    assert residual == float(np.linalg.norm(gradient + graph.scatter(selection)))


_FIT_LOADS = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import numpy as np
from netpass import (AgentBank, ClosedLoopSystem, ControllerBank, GainDesign, NetworkGraph,
                     TanhIntegratorController, TrafficAgent, steady_state_residual)

def residual(anchor):
    agents = AgentBank([TrafficAgent(1, 10.0, 0.8), TrafficAgent(1, anchor, 0.8)])
    system = ClosedLoopSystem(NetworkGraph.path(2), agents,
                              ControllerBank([TanhIntegratorController()]),
                              GainDesign(np.zeros(2), np.zeros(1), 0.0, 0.0, 1.0))
    return steady_state_residual(system, np.array([12.0, 12.0])), "scipy.optimize" in sys.modules

print(*residual(10.5), *residual(20.0))
"""


def test_an_in_bounds_fit_leaves_scipy_unloaded():
    # The free edge's unbounded fit is -(anchor - 10) / 1.6: -0.3125 lies in
    # [-1, 1], leaving |(2.5, 1.875) + 0.3125 (-1, 1)|; -6.25 does not, and
    # the best effort -1 leaves |(2.5, -10) + (-1, 1)|.  Neither loads scipy,
    # and both run where importing it fails.
    src = str(Path(netpass.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for mode in ("plain", "blocked"):
        done = subprocess.run([sys.executable, "-c", _FIT_LOADS, mode], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        inside, inside_loads, outside, outside_loads = done.stdout.split()
        assert (inside_loads, outside_loads) == ("False", "False")
        assert float(inside) == pytest.approx(2.1875 * np.sqrt(2.0), rel=1e-12)
        assert float(outside) == pytest.approx(np.sqrt(83.25), rel=1e-12)


def test_flow_objective_zero_at_origin():
    agents = [TrafficAgent(1, 10.0, 0.8), TrafficAgent(1, 10.5, 0.8)]
    controllers = [TanhIntegratorController()]
    assert flow_objective(agents, controllers, np.zeros(2), np.zeros(1)) == 0.0


def test_flow_objective_infinite_outside_effort_box():
    agents = [TrafficAgent(1, 10.0, 0.8), TrafficAgent(1, 10.5, 0.8)]
    controllers = [TanhIntegratorController()]
    assert flow_objective(agents, controllers, np.zeros(2), np.array([2.0])) == np.inf


def test_duality_gap_vanishes_at_consensus_optimum():
    problem = consensus_problem()
    minimizer = solve(problem)
    _, selection = stationarity_residual(problem, minimizer.y_star)
    u_star = -incidence(problem.graph) @ selection
    dual = flow_objective(CONSENSUS_AGENTS, CONSENSUS_CONTROLLERS, u_star, selection)
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

"""Closed-loop simulation tests: equilibria, convergence, blowup, dissipation.

Frozen values derived by hand:
- Consensus pair (targets 10 and 10.5, slope 0.8, saturating edge, no
  gains): the steady state is x = (10.25, 10.25) with edge effort
  mu = -0.3125, so the controller state is atanh(-0.3125) and both vector
  fields vanish there exactly.
- All-negative triangle (three index -1 agents): vertex gain (4, 0, 0)
  restores a positive index sum, and a uniform edge gain of 40 makes
  diag(curvature + alpha) + beta * L positive definite (smallest eigenvalue
  0.054, computed below), so the loop must settle on the optimizer.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netpass import (
    AgentBank,
    ClosedLoopSystem,
    ControllerBank,
    DimensionMismatchError,
    GainDesign,
    IntegratorAgent,
    NetworkGraph,
    NumericalBlowupError,
    SolveStatus,
    StaticAffineAgent,
    StaticGainController,
    TanhIntegratorController,
    TrafficAgent,
    build_problem,
    generate_case_study,
    load_config,
    simulate,
    solve,
    steady_state_residual,
    uniform_network_gain,
    zero_design,
)
from netpass.harness import build_system_parts, synthesis_stage

GOLDEN = Path(__file__).resolve().parent / "golden"
WINDOW = 100  # the steady window the residual tests pass to simulate

P2 = NetworkGraph.path(2)
K3 = NetworkGraph.complete(3)


def consensus_system():
    agents = AgentBank([TrafficAgent(1, 10.0, 0.8), TrafficAgent(1, 10.5, 0.8)])
    controllers = ControllerBank([TanhIntegratorController()])
    return ClosedLoopSystem(P2, agents, controllers,
                            zero_design(np.array([1.0, 1.0]), P2))


def certified_triangle():
    """All agents passivity-short; certified by vertex gain 4 plus edge gain 40."""
    agents = AgentBank([TrafficAgent(-1, 20.0, -0.8)] * 3)
    controllers = ControllerBank([TanhIntegratorController()] * 3)
    alpha = np.array([4.0, 0.0, 0.0])
    beta = np.full(3, 40.0)
    M = np.diag(agents.slope + alpha) + 40.0 * K3.laplacian()
    certificate = float(np.linalg.eigvalsh(M)[0])
    assert certificate > 0.0
    gain = GainDesign(alpha=alpha, beta=beta, epsilon=0.0, threshold=0.0,
                      certificate=certificate)
    return ClosedLoopSystem(K3, agents, controllers, gain)


# ----------------------------------------------------------------------
# vector field
# ----------------------------------------------------------------------


def test_derivative_zero_at_uniform_anchor_consensus():
    agents = AgentBank([TrafficAgent(1, 20.0, 0.8)] * 3)
    controllers = ControllerBank([TanhIntegratorController()] * 3)
    system = ClosedLoopSystem(K3, agents, controllers,
                              zero_design(np.ones(3), K3))
    x_dot, eta_dot = system.derivative(np.full(3, 20.0), np.zeros(3))
    np.testing.assert_allclose(x_dot, 0.0, atol=1e-14)
    np.testing.assert_allclose(eta_dot, 0.0, atol=1e-14)


def test_derivative_zero_at_lifted_minimizer():
    system = consensus_system()
    x = np.array([10.25, 10.25])
    eta = np.array([math.atanh(-0.3125)])
    x_dot, eta_dot = system.derivative(x, eta)
    np.testing.assert_allclose(x_dot, 0.0, atol=1e-12)
    np.testing.assert_allclose(eta_dot, 0.0, atol=1e-12)


def test_disagreement_drives_edge_toward_agreement():
    system = consensus_system()
    _, eta_dot = system.derivative(np.array([12.0, 9.0]), np.zeros(1))
    # relative output is positive, so the integrating edge state rises
    assert eta_dot[0] == pytest.approx(3.0, abs=1e-12)


def test_control_signals_frozen():
    agents = AgentBank([TrafficAgent(1, 10.0, 0.8), TrafficAgent(1, 10.5, 0.8)])
    controllers = ControllerBank([TanhIntegratorController()])
    gain = GainDesign(alpha=np.array([0.1, 0.2]), beta=np.array([2.0]),
                      epsilon=0.0, threshold=0.0, certificate=1.0)
    system = ClosedLoopSystem(P2, agents, controllers, gain)
    y, zeta, mu, u = system.control(np.array([2.0, 1.0]), np.array([0.5]))
    np.testing.assert_allclose(y, [2.0, 1.0])
    assert zeta[0] == pytest.approx(1.0, abs=1e-14)
    assert mu[0] == pytest.approx(math.tanh(0.5), abs=1e-14)
    assert u[0] == pytest.approx(-(math.tanh(0.5) + 2.0) - 0.1 * 2.0, abs=1e-13)
    assert u[1] == pytest.approx((math.tanh(0.5) + 2.0) - 0.2 * 1.0, abs=1e-13)


@st.composite
def random_loops(draw):
    """A connected graph on 2..8 vertices with mixed agents, edges and gains."""
    n = draw(st.integers(2, 8))
    vertex = st.integers(0, n - 1)
    pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]  # spanning tree
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    edges, seen = [], set()
    for h, t in pairs:
        if h != t and frozenset((h, t)) not in seen:
            seen.add(frozenset((h, t)))
            edges.append((t, h) if draw(st.booleans()) else (h, t))
    agents = []
    for kind in draw(st.lists(st.sampled_from("tis"), min_size=n, max_size=n)):
        if kind == "t":
            kappa = draw(st.sampled_from([-1.5, -1.0, 0.5, 1.0, 2.0]))
            agents.append(TrafficAgent(kappa, draw(st.floats(-50, 50)),
                                       math.copysign(draw(st.floats(0.2, 3.0)), kappa)))
        elif kind == "i":
            agents.append(IntegratorAgent())
        else:
            agents.append(StaticAffineAgent(draw(st.floats(0.2, 3.0)), draw(st.floats(-20, 20)),
                                            draw(st.floats(0.1, 5.0))))
    controllers = [StaticGainController(draw(st.floats(0.1, 5.0))) if static
                   else TanhIntegratorController()
                   for static in draw(st.lists(st.booleans(), min_size=len(edges),
                                               max_size=len(edges)))]
    floats = lambda lo, hi, size: np.array(draw(st.lists(st.floats(lo, hi), min_size=size,
                                                         max_size=size)))
    graph = NetworkGraph(n, tuple(edges))
    gain = GainDesign(alpha=floats(0, 50, n), beta=floats(0, 50, len(edges)),
                      epsilon=0.0, threshold=0.0, certificate=1.0)
    system = ClosedLoopSystem(graph, AgentBank(agents), ControllerBank(controllers), gain)
    return system, floats(-100, 100, n), floats(-30, 30, len(edges))


@settings(derandomize=True, deadline=None)
@given(random_loops())
def test_fused_field_matches_signal_composition(case):
    system, x, eta = case
    E, agents = system.graph.incidence, system.agents
    _, _, mu, u = system.control(x, eta)
    x_ref = agents.drift(x, u)
    eta_ref = system.controllers.drift(eta, E.T @ x)
    x_dot, eta_dot = system.derivative(x, eta)
    # Largest term either evaluation order sums: each entry with all its
    # products taken in absolute value.
    edge_weight = system.gain.beta + system.controllers.w
    terms = (np.abs(agents.p * x) + np.abs(agents.g) + np.abs(agents.q) * (
        np.abs(E) @ (np.abs(mu) + edge_weight * (np.abs(E).T @ np.abs(x)))
        + system.gain.alpha * np.abs(x)))
    assert np.abs(x_dot - x_ref).max() <= 1e-12 * terms.max()
    np.testing.assert_array_equal(eta_dot, eta_ref)


def default_step(system):
    """The step ``simulate`` picks: with any rate counted steady, it stops after one."""
    trajectory = simulate(system, x0=np.zeros(system.graph.n_vertices),
                          steady_tol=np.inf, window=2)
    assert trajectory.times.size == 2
    return trajectory.times[1]


@settings(derandomize=True, deadline=None)
@given(random_loops(), st.integers(0, 2**32 - 1))
def test_default_step_keeps_every_saturation_pattern_in_the_rk4_disk(case, seed):
    system, _, _ = case
    n, m = system.graph.n_vertices, system.graph.n_edges
    agents, gain, E = system.agents, system.gain, system.graph.incidence
    sat = system.controllers.saturated
    K = np.diag(gain.alpha) + (E * (gain.beta + system.controllers.w)) @ E.T
    A = np.diag(agents.p) - agents.q[:, None] * K
    B, cols = -agents.q[:, None] * E[:, sat], n + np.flatnonzero(sat)
    dt = default_step(system)
    rng = np.random.default_rng(seed)
    for D in (np.zeros(sat.sum()), rng.uniform(0.0, 1.0, sat.sum()), np.ones(sat.sum())):
        # Jacobian of [x, eta]: x' reads tanh(eta_sat), whose slope is D;
        # eta_sat' = E_sat^T x; a static edge's eta never moves.
        J = np.zeros((n + m, n + m))
        J[:n, :n] = A
        J[:n, cols] = B * D
        J[cols, :n] = E[:, sat].T
        assert dt * np.abs(np.linalg.eigvals(J)).max() <= 2.5 * (1.0 + 1e-9)
    # ||J(1)|| is at least each of ||A||, ||B||, ||E_sat||, so at least half
    # the bound the step is taken from: below the cap, the step is not wasted.
    assert dt == 0.25 or dt * np.linalg.norm(J, 2) >= 1.25 * (1.0 - 1e-9)


def test_rk4_is_stable_on_the_closed_left_half_disk_of_radius_2_5():
    radius, angle = np.meshgrid(np.linspace(0.0, 2.5, 251),
                                np.linspace(np.pi / 2, 3 * np.pi / 2, 721))
    z = radius * np.exp(1j * angle)
    amplification = np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
    assert amplification.max() <= 1.0 + 1e-12


def test_system_rejects_mismatched_dimensions():
    agents = AgentBank([TrafficAgent(1, 10.0, 0.8)])
    controllers = ControllerBank([TanhIntegratorController()])
    with pytest.raises(DimensionMismatchError):
        ClosedLoopSystem(P2, agents, controllers, zero_design(np.ones(2), P2))
    two = AgentBank([TrafficAgent(1, 10.0, 0.8)] * 2)
    bad_gain = GainDesign(alpha=np.zeros(3), beta=np.zeros(1), epsilon=0.0,
                          threshold=0.0, certificate=1.0)
    with pytest.raises(DimensionMismatchError):
        ClosedLoopSystem(P2, two, controllers, bad_gain)
    # a length-1 beta must not broadcast over the triangle's three edges
    three = AgentBank([TrafficAgent(1, 10.0, 0.8)] * 3)
    one_beta = GainDesign(alpha=np.zeros(3), beta=np.ones(1), epsilon=0.0,
                          threshold=0.0, certificate=1.0)
    with pytest.raises(DimensionMismatchError):
        ClosedLoopSystem(K3, three, ControllerBank([TanhIntegratorController()] * 3),
                         one_beta)


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------


def test_simulate_consensus_pair_converges_to_frozen_point():
    trajectory = simulate(consensus_system(), x0=[5.0, 18.0], dt=0.02)
    assert trajectory.converged
    assert trajectory.residual <= 1e-8
    np.testing.assert_allclose(trajectory.y_ss, [10.25, 10.25], atol=1e-8)
    np.testing.assert_allclose(trajectory.y_ss, trajectory.x_states[:, -1])


def test_simulate_halving_step_leaves_steady_state():
    system = consensus_system()
    coarse = simulate(system, x0=[5.0, 18.0], dt=0.02)
    fine = simulate(system, x0=[5.0, 18.0], dt=0.01)
    assert coarse.converged and fine.converged
    assert np.abs(coarse.y_ss - fine.y_ss).max() <= 1e-6


def test_default_step_settles_the_n40_case_study_in_few_steps():
    config = generate_case_study(40, 7)
    parts = build_system_parts(config)
    system = ClosedLoopSystem(*parts, synthesis_stage(config, *parts)[0])
    trajectory = simulate(system, seed=config.seed)
    assert trajectory.converged
    assert trajectory.times.size - 1 < 16000
    assert steady_state_residual(system, trajectory.y_ss) <= 1e-8


def test_simulate_times_uniform_and_outputs_alias_states():
    trajectory = simulate(consensus_system(), x0=[5.0, 18.0], dt=0.02)
    steps = np.diff(trajectory.times)
    np.testing.assert_allclose(steps, 0.02, atol=1e-12)
    np.testing.assert_allclose(trajectory.y_outputs, trajectory.x_states)
    assert trajectory.x_states.shape[0] == 2
    assert trajectory.eta_states.shape[0] == 1
    assert trajectory.x_states.shape[1] == trajectory.times.size


def test_simulate_short_horizon_reports_not_converged():
    trajectory = simulate(consensus_system(), x0=[5.0, 18.0], dt=0.01, t_max=0.5)
    assert not trajectory.converged
    assert trajectory.y_ss is None


def test_simulate_seeded_default_start_is_deterministic():
    system = consensus_system()
    one = simulate(system, seed=42)
    two = simulate(system, seed=42)
    np.testing.assert_array_equal(one.x_states, two.x_states)
    other = simulate(system, seed=43)
    assert not np.array_equal(one.x_states[:, 0], other.x_states[:, 0])


def test_simulate_unstable_short_agent_blows_up():
    agents = AgentBank([TrafficAgent(1, 10.0, 0.8), TrafficAgent(-1, 10.0, -0.8)])
    controllers = ControllerBank([TanhIntegratorController()])
    system = ClosedLoopSystem(P2, agents, controllers,
                              zero_design(np.array([1.0, -1.0]), P2))
    with pytest.raises(NumericalBlowupError):
        simulate(system, x0=[10.0, 30.0])


def test_simulate_rejects_bad_shapes_and_steps():
    system = consensus_system()
    with pytest.raises(DimensionMismatchError):
        simulate(system, x0=[1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        simulate(system, eta0=[1.0, 2.0])
    with pytest.raises(ValueError):
        simulate(system, dt=-0.1)
    with pytest.raises(ValueError):
        simulate(system, dt=0.1, t_max=0.0)
    with pytest.raises(ValueError):
        simulate(system, dt=0.1, window=0)


def mixed4_run():
    """The mixed4 golden scenario: capped horizon, static and saturated edges."""
    config = load_config(GOLDEN / "mixed4.json")
    parts = build_system_parts(config)
    system = ClosedLoopSystem(*parts, synthesis_stage(config, *parts)[0])
    return system, simulate(system, x0=config.x0, dt=config.dt, t_max=config.t_max,
                            steady_tol=config.steady_tol, seed=config.seed, window=WINDOW)


@pytest.mark.parametrize("run", ["consensus", "mixed4"])
def test_residual_is_worst_rate_over_last_window(run):
    if run == "consensus":
        system = consensus_system()
        trajectory = simulate(system, x0=[5.0, 18.0], dt=0.02, window=WINDOW)
    else:
        system, trajectory = mixed4_run()
        assert not trajectory.converged
    E = system.graph.incidence
    worst = 0.0
    for j in range(trajectory.times.size - WINDOW, trajectory.times.size):
        x, eta = trajectory.x_states[:, j], trajectory.eta_states[:, j]
        x_dot, _ = system.derivative(x, eta)
        mu_dot = system.controllers.output_rate(eta, E.T @ x, E.T @ x_dot)
        worst = max(worst, np.abs(x_dot).max(), np.abs(mu_dot).max())
    assert trajectory.residual == pytest.approx(worst, rel=1e-9)


_MEMORY_PROBE = """
import json, resource
from netpass import ClosedLoopSystem, generate_case_study, simulate
from netpass.harness import build_system_parts, synthesis_stage
config = generate_case_study(20, 1)
parts = build_system_parts(config)
system = ClosedLoopSystem(*parts, synthesis_stage(config, *parts)[0])
simulate(system, seed=1, t_max=1.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
trajectory = simulate(system, seed=1, dt=0.01, t_max=300.0, steady_tol=0.0)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"samples": trajectory.times.size, "growth": (after - before) * 1024,
                  "states": trajectory.x_states.nbytes + trajectory.eta_states.nbytes}))
"""


def test_trajectory_memory_stays_near_its_own_size():
    # A fresh process, so the peak resident size is this run's own.  The
    # recorder's doubling buffer may overshoot the trajectory; copying the
    # state histories out of it would double it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _MEMORY_PROBE], check=True,
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=300)
    result = json.loads(out.stdout)
    assert result["samples"] == 30001
    assert result["growth"] <= 1.6 * result["states"]


def test_simulate_certified_short_network_settles_on_optimizer():
    system = certified_triangle()
    trajectory = simulate(system, x0=[-450.0, -465.0, -465.0])
    assert trajectory.converged
    problem = build_problem(K3, system.agents, system.controllers, system.gain)
    minimizer = solve(problem)
    assert minimizer.status is SolveStatus.OPTIMAL
    assert np.abs(trajectory.y_ss - minimizer.y_star).max() <= 1e-6


def test_steady_state_residual_small_at_optimizer_large_away():
    system = consensus_system()
    assert steady_state_residual(system, np.array([10.25, 10.25])) <= 1e-6
    assert steady_state_residual(system, np.array([0.0, 40.0])) > 1.0


# ----------------------------------------------------------------------
# dissipation along trajectories
# ----------------------------------------------------------------------


def test_declared_index_dissipation_along_surplus_run():
    # For positive-index agents the storage rate obeys
    #   dS/dt <= (u - u_ss)(y - y_ss) - rho (y - y_ss)^2
    # at every sample, with slack (curvature - rho)(y - y_ss)^2 >= 0.
    agents = AgentBank([TrafficAgent(1, 20.0, 0.8), TrafficAgent(1, 30.0, 0.8),
                        TrafficAgent(1, 24.0, 0.8)])
    controllers = ControllerBank([TanhIntegratorController()] * 3)
    gain = uniform_network_gain(np.ones(3), K3)
    system = ClosedLoopSystem(K3, agents, controllers, gain)
    trajectory = simulate(system, seed=5)
    assert trajectory.converged
    y_ss = trajectory.y_ss
    u_ss = agents.steady_input(y_ss)
    rho = agents.rho_vector
    worst = -np.inf
    for j in range(trajectory.times.size):
        x = trajectory.x_states[:, j]
        eta = trajectory.eta_states[:, j]
        y, _, _, u = system.control(x, eta)
        x_dot = agents.drift(x, u)
        storage_rate = float(np.sum((x - y_ss) / 0.8 * x_dot))
        bound = float((u - u_ss) @ (y - y_ss) - rho @ (y - y_ss) ** 2)
        worst = max(worst, storage_rate - bound)
    assert worst <= 1e-8

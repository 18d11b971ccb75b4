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
from collections import deque
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
    Trajectory,
    build_problem,
    generate_case_study,
    load_config,
    simulate,
    solve,
    steady_state_residual,
    uniform_network_gain,
    zero_design,
)
from netpass.harness import build_system_parts, config_from_dict, synthesis_stage
from netpass.sim import _BLOCK, _DEEP
from oracles import (
    agent_bank_drift,
    control,
    controller_bank_drift,
    controller_bank_output_rate,
    derivative,
)

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
    x_dot, eta_dot = derivative(system, np.full(3, 20.0), np.zeros(3))
    np.testing.assert_allclose(x_dot, 0.0, atol=1e-14)
    np.testing.assert_allclose(eta_dot, 0.0, atol=1e-14)


def test_derivative_zero_at_lifted_minimizer():
    system = consensus_system()
    x = np.array([10.25, 10.25])
    eta = np.array([math.atanh(-0.3125)])
    x_dot, eta_dot = derivative(system, x, eta)
    np.testing.assert_allclose(x_dot, 0.0, atol=1e-12)
    np.testing.assert_allclose(eta_dot, 0.0, atol=1e-12)


def test_disagreement_drives_edge_toward_agreement():
    system = consensus_system()
    _, eta_dot = derivative(system, np.array([12.0, 9.0]), np.zeros(1))
    # relative output is positive, so the integrating edge state rises
    assert eta_dot[0] == pytest.approx(3.0, abs=1e-12)


def test_control_signals_frozen():
    agents = AgentBank([TrafficAgent(1, 10.0, 0.8), TrafficAgent(1, 10.5, 0.8)])
    controllers = ControllerBank([TanhIntegratorController()])
    gain = GainDesign(alpha=np.array([0.1, 0.2]), beta=np.array([2.0]),
                      epsilon=0.0, threshold=0.0, certificate=1.0)
    system = ClosedLoopSystem(P2, agents, controllers, gain)
    y, zeta, mu, u = control(system, np.array([2.0, 1.0]), np.array([0.5]))
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
    _, _, mu, u = control(system, x, eta)
    x_ref = agent_bank_drift(agents, x, u)
    eta_ref = controller_bank_drift(system.controllers, eta, E.T @ x)
    x_dot, eta_dot = derivative(system, x, eta)
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


def test_simulate_times_uniform_and_state_shapes():
    trajectory = simulate(consensus_system(), x0=[5.0, 18.0], dt=0.02)
    steps = np.diff(trajectory.times)
    np.testing.assert_allclose(steps, 0.02, atol=1e-12)
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
        x_dot, _ = derivative(system, x, eta)
        mu_dot = controller_bank_output_rate(system.controllers, eta, E.T @ x, E.T @ x_dot)
        worst = max(worst, np.abs(x_dot).max(), np.abs(mu_dot).max())
    assert trajectory.residual == pytest.approx(worst, rel=1e-9)


# ----------------------------------------------------------------------
# the buffered step and the exact affine tail against the plain loop
# ----------------------------------------------------------------------

# Bound on |simulate - plain loop| after the first affine block, relative to
# the run's largest |x| (for x) and largest |eta| (for eta).  The worst
# measured on the eight n=10 bench case studies is 7.8e-14 (n10-s2, in x).
AFFINE_RTOL = 1e-12
# The steady metric of a row the affine map produced differs from RK4's by
# rounding, so the first sample of a full steady window may move; on n10-s2
# it moves by two.
MAX_STOP_SHIFT = 4


def reference_simulate(system, x0, eta0, dt, t_max, steady_tol=1e-8, window=WINDOW):
    """The plain RK4 loop that ``simulate`` buffers, kept as a bitwise oracle.

    A fresh array per stage, a blowup check after every step and the steady
    metric of every sample: ``simulate`` must do the same floating-point
    operations in the same order and stop at the same sample.
    """
    n, m = system.graph.n_vertices, system.graph.n_edges
    sat = system.controllers.saturated
    heads, tails = np.array(system.graph.edges, dtype=np.intp).reshape(-1, 2).T
    cols = slice(n, None) if sat.all() else n + np.flatnonzero(sat)
    static, w = n + np.flatnonzero(~sat), system.controllers.w[~sat]

    def rate(z):
        x = z[:n]
        mu_sat = np.tanh(z[cols])
        z_dot = np.zeros(z.size)
        z_dot[:n] = system.operator @ np.concatenate((x, mu_sat)) + system.agents.g
        z_dot[cols] = x[heads[sat]] - x[tails[sat]]
        return z_dot, mu_sat

    def steady_rate(z_dot, mu_sat):
        rates = z_dot.copy()
        rates[cols] *= 1.0 - mu_sat * mu_sat
        if w.size:
            rates[static] = w * (z_dot[heads[~sat]] - z_dot[tails[~sat]])
        return float(np.abs(rates).max())

    z = np.concatenate((np.array(x0, dtype=float), np.array(eta0, dtype=float)))
    z_dot, mu_sat = rate(z)
    table = np.empty((4096, n + m))
    table[0] = z
    count = 1
    metrics = deque([steady_rate(z_dot, mu_sat)], maxlen=window)

    steps_total = int(np.floor(t_max / dt + 1e-9))
    steady_run = 1 if metrics[0] < steady_tol else 0
    converged = steady_run >= window
    half = dt / 2.0

    for _ in range(steps_total):
        if converged:
            break
        k2, _ = rate(z + half * z_dot)
        k3, _ = rate(z + half * k2)
        k4, _ = rate(z + dt * k3)
        z = z + (dt / 6.0) * (z_dot + 2.0 * k2 + 2.0 * k3 + k4)
        if not (np.abs(z) <= 1e12).all():
            raise NumericalBlowupError(f"state magnitude exceeded {1e12:g} "
                                       f"at t = {count * dt:.6g}")
        z_dot, mu_sat = rate(z)
        if count == table.shape[0]:
            grown = np.empty((2 * count, n + m))
            grown[:count] = table
            table = grown
        table[count] = z
        count += 1
        metrics.append(steady_rate(z_dot, mu_sat))
        steady_run = steady_run + 1 if metrics[-1] < steady_tol else 0
        converged = steady_run >= window

    table = table[:count]
    x_states, eta_states = table[:, :n].T, table[:, n:].T
    residual = float(np.max(metrics))
    y_ss = x_states[:, -1].copy() if converged else None
    return Trajectory(np.arange(count) * dt, x_states, eta_states, converged, y_ss, residual)


def first_deep_sample(system, trajectory):
    """First sample whose tanh edges all have |eta| >= the deep threshold."""
    sat = system.controllers.saturated
    deep = (np.abs(trajectory.eta_states[sat]) >= _DEEP).all(axis=0)
    return int(deep.argmax()) if deep.any() else trajectory.times.size


def run_or_message(function, system, **kwargs):
    try:
        return function(system, **kwargs)
    except NumericalBlowupError as exc:
        return str(exc)


def assert_bitwise(got, want, name):
    np.testing.assert_array_equal(np.asarray(got, dtype=float).view(np.int64),
                                  np.asarray(want, dtype=float).view(np.int64), err_msg=name)


def assert_same_run(system, x0, eta0=None, **kwargs):
    """``simulate`` and the plain loop agree; returns the run.

    Bit for bit when no block took the affine map.  Otherwise bit for bit up
    to the plain loop's first all-deep sample, which no affine block precedes,
    and within ``AFFINE_RTOL`` after it, where the stop may move by up to
    ``MAX_STOP_SHIFT`` samples.
    """
    if eta0 is None:
        eta0 = np.zeros(system.graph.n_edges)
    expected = run_or_message(reference_simulate, system, x0=x0, eta0=eta0, **kwargs)
    actual = run_or_message(simulate, system, x0=x0, eta0=eta0, **kwargs)
    if isinstance(expected, str):
        assert actual == expected
        return actual
    assert not isinstance(actual, str), actual
    assert actual.converged == expected.converged
    if not actual.affine_samples:
        for name in ("times", "x_states", "eta_states", "y_ss", "residual"):
            want, got = getattr(expected, name), getattr(actual, name)
            if want is None:
                assert got is None, name
            else:
                assert_bitwise(got, want, name)
        return actual

    exact = first_deep_sample(system, expected) + 1
    assert exact <= expected.times.size
    shift = actual.times.size - expected.times.size
    assert abs(shift) <= (MAX_STOP_SHIFT if expected.converged else 0)
    common = min(actual.times.size, expected.times.size)
    assert_bitwise(actual.times[:common], expected.times[:common], "times")
    for name in ("x_states", "eta_states"):
        want, got = getattr(expected, name), getattr(actual, name)
        assert_bitwise(got[:, :exact], want[:, :exact], name)
        scale = np.abs(want).max()
        assert np.abs(got[:, :common] - want[:, :common]).max() <= AFFINE_RTOL * scale, name
    if expected.converged:
        # Every rate of a full steady window is below steady_tol, so each
        # sample the stop moves by moves y_ss by about dt * steady_tol.
        drift = abs(shift) * kwargs["dt"] * kwargs.get("steady_tol", 1e-8)
        bound = AFFINE_RTOL * np.abs(expected.x_states).max() + 2.0 * drift
        assert np.abs(actual.y_ss - expected.y_ss).max() <= bound
        assert actual.residual < kwargs.get("steady_tol", 1e-8)
    else:
        assert actual.y_ss is None
        # the bound of test_residual_is_worst_rate_over_last_window
        assert actual.residual == pytest.approx(expected.residual, rel=1e-9)
    return actual


def drawn_start(system, seed):
    """The initial agent states ``simulate`` draws when ``x0`` is missing."""
    anchors = system.agents.anchors
    return np.random.default_rng(seed).uniform(anchors.min() - 10.0, anchors.max() + 10.0,
                                               system.graph.n_vertices)


@pytest.mark.parametrize("seed", [0, 1])
def test_buffered_step_matches_plain_loop_on_the_n10_case_study(seed):
    config = generate_case_study(10, seed)
    parts = build_system_parts(config)
    system = ClosedLoopSystem(*parts, synthesis_stage(config, *parts)[0])
    run = assert_same_run(system, drawn_start(system, seed), dt=default_step(system),
                          t_max=5000.0)
    assert run.converged


def test_buffered_step_matches_plain_loop_on_gathered_mixed_columns():
    system, _ = mixed4_run()
    sat = system.controllers.saturated
    assert sat.any() and not sat.all()
    config = load_config(GOLDEN / "mixed4.json")
    assert config.dt is None
    run = assert_same_run(system, drawn_start(system, config.seed), dt=default_step(system),
                          t_max=config.t_max, steady_tol=config.steady_tol)
    assert not run.converged


def test_buffered_step_matches_plain_loop_on_an_all_static_graph():
    agents = AgentBank([TrafficAgent(1, 20.0, 0.8), TrafficAgent(1, 30.0, 0.8),
                        TrafficAgent(-1, 24.0, -0.8)])
    controllers = ControllerBank([StaticGainController(w) for w in (1.0, 2.0, 0.5)])
    system = ClosedLoopSystem(K3, agents, controllers, uniform_network_gain(
        np.array([1.0, 1.0, -1.0]), K3))
    assert not system.controllers.saturated.any()
    run = assert_same_run(system, [5.0, 40.0, 12.0], dt=default_step(system), t_max=500.0)
    assert run.converged


def test_buffered_step_converges_at_sample_zero_with_a_one_sample_window():
    run = assert_same_run(consensus_system(), [10.25, 10.25], [math.atanh(-0.3125)],
                          dt=0.02, t_max=10.0, window=1)
    assert run.converged and run.times.size == 1


@pytest.mark.parametrize("samples", [32, 33, 34, 4096, 4097])
def test_buffered_step_stops_where_the_plain_loop_does(samples):
    # Every rate counts as steady, so the run stops on its window-th sample:
    # around the end of the first block, and around the first table growth.
    run = assert_same_run(consensus_system(), [5.0, 18.0], dt=0.02, t_max=1000.0,
                          steady_tol=np.inf, window=samples)
    assert run.converged and run.times.size == samples


@pytest.mark.parametrize("steps", [31, 32, 33])
def test_buffered_step_matches_plain_loop_when_cut_by_the_horizon(steps):
    run = assert_same_run(consensus_system(), [5.0, 18.0], dt=0.01, t_max=steps * 0.01)
    assert not run.converged and run.times.size == steps + 1


def test_buffered_step_reports_the_plain_loop_blowup():
    config = load_config(GOLDEN / "none_blowup.json")
    parts = build_system_parts(config)
    system = ClosedLoopSystem(*parts, synthesis_stage(config, *parts)[0])
    message = assert_same_run(system, drawn_start(system, config.seed),
                              dt=default_step(system), t_max=5000.0)
    assert message.startswith("state magnitude exceeded 1e+12 at t = ")
    with pytest.raises(NumericalBlowupError, match="exceeded 1e"):
        simulate(system, seed=config.seed)


@pytest.mark.parametrize("offset, t_blowup", [(1e3, "1"), (1e-3, "2")])
def test_buffered_step_drops_the_steps_past_a_blowup_silently(offset, t_blowup):
    # dt * p = 1000 multiplies the unstable mode by about 4e10 per step, so
    # the steps a block takes past the blowup overflow: they must neither
    # warn nor count, whether the blowup is a block's first row or a later one.
    agents = AgentBank([TrafficAgent(1, 10.0, 0.8), TrafficAgent(-1000, 10.0, -0.8)])
    system = ClosedLoopSystem(P2, agents, ControllerBank([TanhIntegratorController()]),
                              zero_design(np.array([1.0, -1.0]), P2))
    message = assert_same_run(system, [10.0, 10.0 + offset], dt=1.0, t_max=100.0)
    assert message == f"state magnitude exceeded 1e+12 at t = {t_blowup}"


def test_a_non_finite_state_is_a_blowup():
    # With dt = 1e200 the first step's state is NaN; it fails every magnitude
    # comparison, so only a bound written to fail on NaN stops the run there.
    with np.errstate(all="ignore"):
        message = assert_same_run(consensus_system(), [5.0, 18.0], dt=1e200, t_max=1e203)
    assert message == "state magnitude exceeded 1e+12 at t = 1e+200"


@settings(derandomize=True, deadline=None)
@given(random_loops(), st.sampled_from([0.01, 0.05, 0.2]), st.integers(1, 300),
       st.integers(1, 120), st.sampled_from([1e-8, 1e-3, 1.0]))
def test_buffered_step_matches_plain_loop_on_random_loops(case, dt, steps, window, tol):
    system, x, eta = case
    assert_same_run(system, x, eta, dt=dt, t_max=steps * dt, steady_tol=tol, window=window)


def test_tanh_is_exactly_one_from_the_deep_threshold_on():
    # The affine map replaces tanh(eta) by sign(eta) from |eta| = _DEEP on.
    eta = np.array([_DEEP, np.nextafter(_DEEP, np.inf), 25.0, 1e3, 1e300])
    assert (np.tanh(eta) == 1.0).all()
    assert (np.tanh(-eta) == -1.0).all()


def test_affine_block_falls_back_to_rk4_where_a_wrong_sign_edge_leaves_the_deep_region():
    # eta starts at -25 against a relative output that turns positive, so the
    # edge unwinds out of the deep region inside a block: that block must be
    # discarded and stepped by RK4, and the run still match the plain loop.
    system = consensus_system()
    run = assert_same_run(system, [5.0, 18.0], [-25.0], dt=0.02, t_max=1000.0)
    assert run.converged
    exit_sample = int(np.argmax(run.eta_states[0] > -_DEEP))
    assert run.affine_samples % _BLOCK == 0
    assert run.affine_samples + 1 < exit_sample < run.affine_samples + _BLOCK


@pytest.mark.parametrize("case", ["unstable equilibrium", "step outside the rk4 region"])
def test_affine_map_is_not_used_where_rk4_on_the_deep_loop_is_unstable(case):
    # RK4 holds an unstable mode at exactly zero here; the affine map would
    # amplify its own rounding in it.  With no tanh edge every sample is deep,
    # and this start is an equilibrium in binary-exact numbers, where the map
    # grows by about 4.6e10 per step: it would report a blowup.  With a tanh
    # edge at dt = 0.3, x_0 - x_1 stays exactly 2 under RK4, whose step is
    # outside its stability region for that mode (dt * lambda = -3).
    if case == "unstable equilibrium":
        agents = AgentBank([TrafficAgent(1, 10.0, 0.5), TrafficAgent(-1024, 10.0, -0.5)])
        controllers, gain = ControllerBank([StaticGainController(0.5)]), zero_design(
            np.array([1.0, -1.0]), P2)
        x0, eta0, dt = [10.0, 10.0], [0.0], 1.0
    else:
        agents = AgentBank([TrafficAgent(2, 3.0, 0.5), TrafficAgent(2, -8.0, 0.5)])
        controllers = ControllerBank([TanhIntegratorController()])
        gain = GainDesign(alpha=np.zeros(2), beta=np.array([4.0]), epsilon=0.0, threshold=0.0,
                          certificate=1.0)
        x0, eta0, dt = [10.0, 8.0], [20.5], 0.3
    run = assert_same_run(ClosedLoopSystem(P2, agents, controllers, gain), x0, eta0,
                          dt=dt, t_max=64 * dt)
    assert run.affine_samples == 0


def test_affine_map_steps_most_of_the_slow_hybrid_case_study():
    # n=10, seed 2 has a negative rate sum; the benchmark rescues it in hybrid
    # mode.  Its slow tail is all-deep: 29,189 of its 31,654 samples.
    data = generate_case_study(10, 2).to_dict()
    data.update(gain_mode="hybrid", self_regulating=[0])
    config = config_from_dict(data)
    parts = build_system_parts(config)
    system = ClosedLoopSystem(*parts, synthesis_stage(config, *parts)[0])
    trajectory = simulate(system, seed=config.seed)
    assert trajectory.converged
    assert trajectory.affine_samples > 0.9 * trajectory.times.size


def test_a_non_finite_state_is_a_blowup():
    # With dt = 1e200 the first step's state is NaN; it fails every magnitude
    # comparison, so only a bound written to fail on NaN stops the run there.
    with np.errstate(all="ignore"):
        message = assert_same_run(consensus_system(), [5.0, 18.0], dt=1e200, t_max=1e203)
    assert message == "state magnitude exceeded 1e+12 at t = 1e+200"


@settings(derandomize=True, deadline=None)
@given(random_loops(), st.sampled_from([0.01, 0.05, 0.2]), st.integers(1, 300),
       st.integers(1, 120), st.sampled_from([1e-8, 1e-3, 1.0]))
def test_affine_tail_matches_plain_loop_on_random_deep_starts(case, dt, steps, window, tol):
    # Every tanh edge starts deep, with either sign: wrong-sign edges unwind
    # out of the deep region, so blocks are both kept and discarded.
    system, x, eta = case
    deep = np.where(eta < 0.0, eta - _DEEP, eta + _DEEP)
    assert_same_run(system, x, deep, dt=dt, t_max=steps * dt, steady_tol=tol, window=window)


def test_simulate_rejects_non_finite_initial_states():
    system = consensus_system()
    with pytest.raises(ValueError, match="x0"):
        simulate(system, x0=[np.nan, 10.0], t_max=200.0)
    with pytest.raises(ValueError, match="eta0"):
        simulate(system, x0=[5.0, 18.0], eta0=[np.inf])


def test_given_step_skips_the_default_step_norms(monkeypatch):
    def no_norms(*args, **kwargs):
        raise AssertionError("the default step was computed")

    system = consensus_system()
    monkeypatch.setattr(np.linalg, "norm", no_norms)
    assert simulate(system, x0=[5.0, 18.0], dt=0.02).converged
    with pytest.raises(AssertionError, match="default step"):
        simulate(system, x0=[5.0, 18.0])


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
        y, _, _, u = control(system, x, eta)
        x_dot = agent_bank_drift(agents, x, u)
        storage_rate = float(np.sum((x - y_ss) / 0.8 * x_dot))
        bound = float((u - u_ss) @ (y - y_ss) - rho @ (y - y_ss) ** 2)
        worst = max(worst, storage_rate - bound)
    assert worst <= 1e-8

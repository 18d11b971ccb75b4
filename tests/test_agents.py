"""Agent model tests: coefficients, steady maps, potentials, conjugates, storage rates.

The scalar drift, steady map, potential, conjugate potential and storage of
each model are the reference evaluations of ``oracles``; the bank supplies the
coefficients checked against them, a model's own as its one-agent bank holds them.  The central facts checked here:
- potential' = steady-state input map (finite differences);
- Fenchel-Young equality K(y) + K*(u) = u*y at u = steady_input(y);
- the storage functions satisfy the dissipation identity
      dS/dt = (u - u_ss)(y - y_ss) - c (y - y_ss)^2
  with equality, where c is the curvature of the steady map (1/v1, 0, 1/a);
  the identity is algebraic, so the tolerance is rounding-level.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netpass import (
    AgentBank,
    ClosedLoopSystem,
    ControllerBank,
    DimensionMismatchError,
    IntegratorAgent,
    NetworkGraph,
    StaticAffineAgent,
    TrafficAgent,
    build_problem,
    zero_design,
)
from oracles import (
    NonConvexDualError,
    agent_bank_drift,
    agent_bank_potential_batch,
    agent_conjugate_potential,
    agent_conjugate_total,
    agent_drift,
    agent_potential,
    agent_steady_input,
    agent_storage,
)

EXACT_TOL = 1e-9
FD_TOL = 1e-5


def central_difference(f, y, h=1e-6):
    return (f(y + h) - f(y - h)) / (2.0 * h)


def coefficients(agent):
    """(rho, p, q, g, slope, intercept, const, anchor) of one agent, from its one-agent bank."""
    bank = AgentBank([agent])
    return tuple(float(getattr(bank, name)[0]) for name, _ in AgentBank.COEFFICIENTS)


# ----------------------------------------------------------------------
# traffic agent
# ----------------------------------------------------------------------


def test_traffic_frozen_values():
    a = TrafficAgent(1.0, 10.0, 0.8)
    assert agent_potential(a, 11.0) == pytest.approx(0.625, abs=EXACT_TOL)
    assert agent_steady_input(a, 11.0) == pytest.approx(1.25, abs=EXACT_TOL)
    assert agent_conjugate_potential(a, 1.25) == pytest.approx(13.125, abs=EXACT_TOL)
    # Fenchel-Young with equality at the matched pair
    assert agent_potential(a, 11.0) + agent_conjugate_potential(a, 1.25) == pytest.approx(
        11.0 * 1.25, abs=EXACT_TOL)


def test_traffic_drift_and_steady_consistency():
    a = TrafficAgent(-1.0, 50.0, -0.8)
    y = 37.5
    assert agent_drift(a, y, agent_steady_input(a, y)) == pytest.approx(0.0, abs=EXACT_TOL)
    p, q, g = coefficients(a)[1:4]
    x, u = 12.0, -3.0
    assert p * x + q * u + g == pytest.approx(agent_drift(a, x, u), abs=EXACT_TOL)


def test_traffic_constructor_guards():
    with pytest.raises(ValueError):
        TrafficAgent(1.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        TrafficAgent(1.0, 10.0, -0.8)
    with pytest.raises(ValueError):
        TrafficAgent(-1.0, 10.0, 0.8)


def test_traffic_conjugate_rejects_concave_potential():
    short = TrafficAgent(-1.0, 20.0, -0.8)
    with pytest.raises(NonConvexDualError):
        agent_conjugate_potential(short, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=-50.0, max_value=150.0),
    st.floats(min_value=-40.0, max_value=40.0),
)
def test_traffic_fenchel_young_equality(v1, v0, y):
    a = TrafficAgent(1.0, v0, v1)
    u = agent_steady_input(a, y)
    assert agent_potential(a, y) + agent_conjugate_potential(a, u) == pytest.approx(
        u * y, abs=1e-7 * (1 + abs(u * y)))


def test_traffic_potential_gradient_is_steady_map():
    a = TrafficAgent(1.0, 30.0, 1.7)
    for y in (-5.0, 0.0, 12.0, 31.4):
        assert central_difference(functools.partial(agent_potential, a), y) == pytest.approx(
            agent_steady_input(a, y), abs=FD_TOL)


def dissipation_gap(agent, curvature, x, u, y_ss, h=1e-3):
    """dS/dt - (u - u_ss)(y - y_ss) + curvature * (y - y_ss)^2 at y = x.

    The flow and the steady map are built from the model's own coefficients.
    The storages are quadratic, so the central difference of S along the
    flow is exact for any h; a moderate h avoids rounding cancellation.
    """
    _, p, q, g, slope, intercept, _, _ = coefficients(agent)
    u_ss = slope * y_ss + intercept
    x_dot = p * x + q * u + g
    s_dot = (agent_storage(agent, x + h * x_dot, y_ss)
             - agent_storage(agent, x - h * x_dot, y_ss)) / (2 * h)
    return s_dot - (u - u_ss) * (x - y_ss) + curvature * (x - y_ss) ** 2


@pytest.mark.parametrize("kappa,v1", [(1.0, 0.8), (-1.0, -0.8), (1.0, 2.5)])
def test_traffic_dissipation_identity_is_tight(kappa, v1):
    # the tight index is the steady map curvature 1/v1, not kappa
    a = TrafficAgent(kappa, 25.0, v1)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, u, y_ss = rng.uniform(-30, 60, 3)
        gap = dissipation_gap(a, 1.0 / v1, x, u, y_ss)
        assert gap == pytest.approx(0.0, abs=1e-8)


def test_traffic_storage_positive_definite():
    for a in (TrafficAgent(1.0, 0.0, 0.8), TrafficAgent(-1.0, 0.0, -0.8)):
        assert agent_storage(a, 3.0, 1.0) > 0.0
        assert agent_storage(a, 1.0, 1.0) == 0.0


# ----------------------------------------------------------------------
# integrator agent
# ----------------------------------------------------------------------


def test_integrator_basics():
    a = IntegratorAgent()
    assert coefficients(a)[0] == 0.0
    assert agent_drift(a, 5.0, 2.5) == 2.5
    assert agent_steady_input(a, 123.0) == 0.0
    assert agent_potential(a, 123.0) == 0.0
    assert coefficients(a)[7] == 0.0


def test_integrator_conjugate_is_indicator_of_zero():
    a = IntegratorAgent()
    assert agent_conjugate_potential(a, 0.0) == 0.0
    assert agent_conjugate_potential(a, 5e-10) == 0.0
    assert agent_conjugate_potential(a, 0.5) == math.inf
    assert agent_conjugate_potential(a, -1e-6) == math.inf


def test_integrator_dissipation_identity():
    a = IntegratorAgent()
    rng = np.random.default_rng(6)
    for _ in range(20):
        x, u, y_ss = rng.uniform(-10, 10, 3)
        assert dissipation_gap(a, 0.0, x, u, y_ss) == pytest.approx(0.0, abs=1e-8)


# ----------------------------------------------------------------------
# static affine agent
# ----------------------------------------------------------------------


def test_static_affine_frozen_values():
    a = StaticAffineAgent(2.0, 3.0)
    assert agent_steady_input(a, 7.0) == pytest.approx(2.0, abs=EXACT_TOL)
    assert agent_potential(a, 7.0) == pytest.approx((24.5 - 21.0) / 2.0, abs=EXACT_TOL)
    assert agent_conjugate_potential(a, 2.0) == pytest.approx(6.0 + 4.0 + 2.25, abs=EXACT_TOL)
    assert agent_potential(a, 7.0) + agent_conjugate_potential(a, 2.0) == pytest.approx(
        14.0, abs=EXACT_TOL)


def test_static_affine_guards():
    with pytest.raises(ValueError):
        StaticAffineAgent(0.0, 1.0)
    with pytest.raises(ValueError):
        StaticAffineAgent(1.0, 1.0, tau=0.0)
    with pytest.raises(NonConvexDualError):
        agent_conjugate_potential(StaticAffineAgent(-1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        agent_storage(StaticAffineAgent(-1.0, 1.0), 2.0, 0.0)


def test_static_affine_dissipation_identity():
    a = StaticAffineAgent(1.5, -2.0, tau=0.7)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, u, y_ss = rng.uniform(-10, 10, 3)
        assert dissipation_gap(a, 1.0 / 1.5, x, u, y_ss) == pytest.approx(0.0, abs=1e-8)


def test_static_affine_explicit_index_is_reported():
    assert StaticAffineAgent(1.0, 0.0, rho=-0.4).rho == -0.4
    assert StaticAffineAgent(1.0, 0.0).rho == 0.0


# ----------------------------------------------------------------------
# agent bank
# ----------------------------------------------------------------------


def make_agents():
    return [
        TrafficAgent(1.0, 10.0, 0.8),
        IntegratorAgent(),
        StaticAffineAgent(2.0, 3.0, tau=0.5, rho=0.25),
    ]


def make_bank():
    return AgentBank(make_agents())


def test_bank_rho_vector_and_anchors():
    bank = make_bank()
    np.testing.assert_allclose(bank.rho_vector, [1.0, 0.0, 0.25])
    np.testing.assert_allclose(bank.anchors, [10.0, 0.0, 3.0])
    np.testing.assert_allclose(bank.slope, [1.25, 0.0, 0.5])


def test_bank_drift_matches_per_agent():
    bank = make_bank()
    x = np.array([1.0, 2.0, 3.0])
    u = np.array([0.5, -1.0, 2.0])
    expected = [agent_drift(a, xi, ui) for a, xi, ui in zip(make_agents(), x, u)]
    np.testing.assert_allclose(agent_bank_drift(bank, x, u), expected, atol=EXACT_TOL)


def test_bank_steady_input_matches_per_agent():
    bank = make_bank()
    y = np.array([11.0, 4.0, 7.0])
    expected = [agent_steady_input(a, yi) for a, yi in zip(make_agents(), y)]
    np.testing.assert_allclose(bank.steady_input(y), expected, atol=EXACT_TOL)


def test_bank_potential_total_matches_per_agent_sum():
    bank = make_bank()
    y = np.array([11.0, 4.0, 7.0])
    expected = sum(agent_potential(a, yi) for a, yi in zip(make_agents(), y))
    assert bank.potential_total(y) == pytest.approx(expected, abs=EXACT_TOL)


def test_bank_potential_batch_matches_loop():
    bank = make_bank()
    Y = np.array([[11.0, 4.0, 7.0], [9.0, -2.0, 3.0], [10.0, 0.0, 3.0]])
    expected = [bank.potential_total(row) for row in Y]
    np.testing.assert_allclose(agent_bank_potential_batch(bank, Y), expected, atol=EXACT_TOL)


def test_bank_conjugate_total():
    agents = make_agents()
    u = np.array([1.25, 0.0, 2.0])
    assert agent_conjugate_total(agents, u) == pytest.approx(
        13.125 + 0.0 + 12.25, abs=EXACT_TOL)
    assert agent_conjugate_total(agents, np.array([0.0, 0.3, 0.0])) == math.inf


def test_an_empty_bank_is_refused_by_every_use():
    # the roster size is check_counts' rule alone: both constructors build the same empty bank
    built, filled = AgentBank([]), AgentBank.from_columns(0, {})
    assert len(built) == len(filled) == 0
    for name, _ in AgentBank.COEFFICIENTS:
        np.testing.assert_array_equal(getattr(built, name), getattr(filled, name))
    graph = NetworkGraph(1, [])
    for bank in (built, filled):
        with pytest.raises(DimensionMismatchError, match="0 agents for 1 vertices"):
            ClosedLoopSystem(graph, bank, ControllerBank([]), zero_design(np.ones(1), graph))
        with pytest.raises(DimensionMismatchError, match="0 agents for 1 vertices"):
            build_problem(graph, bank, ControllerBank([]))


@pytest.mark.parametrize("length", [1, 4])
def test_bank_totals_reject_a_wrong_length(length):
    # a length-1 vector would broadcast over every agent; it is refused
    bank = make_bank()
    for call in (bank.potential_total, bank.steady_input):
        for vec in (np.full(length, 5.0), [5.0] * length):
            with pytest.raises(DimensionMismatchError):
                call(vec)
    # a plain list of the right length is read like the array
    y = [11.0, 4.0, 7.0]
    assert bank.potential_total(y) == bank.potential_total(np.array(y))
    np.testing.assert_array_equal(bank.steady_input(y), bank.steady_input(np.array(y)))

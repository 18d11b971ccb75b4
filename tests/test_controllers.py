"""Edge controller tests: dynamics, potentials, effort intervals.

The scalar models' dynamics, potentials, conjugate potentials and effort
intervals are the reference evaluations of ``oracles``; the bank's
vectorized potential and effort bounds are checked against them edge by
edge.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netpass import (
    ControllerBank,
    DimensionMismatchError,
    StaticGainController,
    TanhIntegratorController,
)
from oracles import (
    controller_bank_drift,
    controller_bank_output,
    controller_bank_output_rate,
    controller_bank_potential_batch,
    controller_conjugate_potential,
    controller_conjugate_total,
    controller_drift,
    controller_output,
    controller_potential,
    effort_interval,
)

EXACT_TOL = 1e-9
CONVEXITY_TOL = 1e-12


# ----------------------------------------------------------------------
# saturated integrating controller
# ----------------------------------------------------------------------


def test_tanh_dynamics_and_output():
    c = TanhIntegratorController()
    assert controller_drift(c, 0.3, 1.7) == 1.7
    assert controller_output(c, 0.5, 99.0) == pytest.approx(math.tanh(0.5), abs=EXACT_TOL)
    assert controller_potential(c, -2.5) == 2.5


def test_tanh_conjugate_is_box_indicator():
    c = TanhIntegratorController()
    assert controller_conjugate_potential(c, 0.0) == 0.0
    assert controller_conjugate_potential(c, 1.0) == 0.0
    assert controller_conjugate_potential(c, -1.0) == 0.0
    assert controller_conjugate_potential(c, 1.0 + 5e-10) == 0.0
    assert controller_conjugate_potential(c, 1.2) == math.inf
    assert controller_conjugate_potential(c, -1.01) == math.inf


def test_tanh_effort_interval():
    c = TanhIntegratorController()
    assert effort_interval(c, 0.0, 1e-6) == (-1.0, 1.0)
    assert effort_interval(c, 5e-7, 1e-6) == (-1.0, 1.0)
    assert effort_interval(c, 0.2, 1e-6) == (1.0, 1.0)
    assert effort_interval(c, -3.0, 1e-6) == (-1.0, -1.0)


def test_tanh_potential_is_convex_on_midpoints():
    c = TanhIntegratorController()
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b = rng.uniform(-10, 10, 2)
        mid = controller_potential(c, 0.5 * (a + b))
        ends = 0.5 * (controller_potential(c, a) + controller_potential(c, b))
        assert mid <= ends + CONVEXITY_TOL


# ----------------------------------------------------------------------
# static gain controller
# ----------------------------------------------------------------------


def test_static_gain_dynamics_and_output():
    c = StaticGainController(2.0)
    assert controller_drift(c, 0.3, 1.7) == 0.0
    assert controller_output(c, 99.0, 1.5) == 3.0
    assert controller_potential(c, 3.0) == 9.0
    assert controller_conjugate_potential(c, 4.0) == pytest.approx(4.0, abs=EXACT_TOL)


def test_static_gain_requires_positive_gain():
    with pytest.raises(ValueError):
        StaticGainController(0.0)
    with pytest.raises(ValueError):
        StaticGainController(-1.0)


def test_static_gain_conjugate_fenchel_young():
    c = StaticGainController(1.7)
    for zeta in (-2.0, 0.0, 0.5, 3.0):
        mu = controller_output(c, 0.0, zeta)
        fenchel_young = controller_potential(c, zeta) + controller_conjugate_potential(c, mu)
        assert fenchel_young == pytest.approx(mu * zeta, abs=EXACT_TOL)


def test_static_gain_effort_interval_is_a_point():
    c = StaticGainController(2.0)
    assert effort_interval(c, 1.5, 1e-6) == (3.0, 3.0)
    assert effort_interval(c, 0.0, 1e-6) == (0.0, 0.0)


# ----------------------------------------------------------------------
# controller bank
# ----------------------------------------------------------------------


def make_controllers():
    return [
        TanhIntegratorController(),
        StaticGainController(2.0),
        TanhIntegratorController(),
    ]


def make_bank():
    return ControllerBank(make_controllers())


def test_bank_drift_and_output():
    bank = make_bank()
    eta = np.array([0.5, 7.0, -0.2])
    zeta = np.array([1.0, 1.5, -2.0])
    np.testing.assert_allclose(controller_bank_drift(bank, eta, zeta), [1.0, 0.0, -2.0])
    np.testing.assert_allclose(
        controller_bank_output(bank, eta, zeta),
        [math.tanh(0.5), 3.0, math.tanh(-0.2)],
        atol=EXACT_TOL,
    )


def test_bank_output_rate_matches_finite_difference():
    bank = make_bank()
    rng = np.random.default_rng(14)
    eta = rng.uniform(-2, 2, 3)
    zeta = rng.uniform(-2, 2, 3)
    zeta_dot = rng.uniform(-2, 2, 3)
    h = 1e-6
    eta_next = eta + h * controller_bank_drift(bank, eta, zeta)
    mu_now = controller_bank_output(bank, eta, zeta)
    mu_next = controller_bank_output(bank, eta_next, zeta + h * zeta_dot)
    fd = (mu_next - mu_now) / h
    np.testing.assert_allclose(controller_bank_output_rate(bank, eta, zeta, zeta_dot), fd,
                               atol=1e-4)


def test_bank_potentials():
    bank = make_bank()
    zeta = np.array([1.0, 1.5, -2.0])
    assert bank.potential_total(zeta) == pytest.approx(1.0 + 2.25 + 2.0, abs=EXACT_TOL)
    Z = np.array([[1.0, 1.5, -2.0], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(controller_bank_potential_batch(bank, Z), [5.25, 0.0],
                               atol=EXACT_TOL)


def test_bank_effort_bounds():
    bank = make_bank()
    zeta = np.array([0.0, 1.5, -2.0])
    lower, upper = bank.effort_bounds(zeta)
    np.testing.assert_allclose(lower, [-1.0, 3.0, -1.0])
    np.testing.assert_allclose(upper, [1.0, 3.0, -1.0])


@pytest.mark.parametrize("length", [1, 4])
def test_bank_totals_reject_a_wrong_length(length):
    # a length-1 vector would broadcast over every edge; it is refused
    bank = make_bank()
    calls = (bank.potential_total, bank.effort_bounds)
    for call in calls:
        for vec in (np.full(length, 0.5), [0.5] * length):
            with pytest.raises(DimensionMismatchError):
                call(vec)
    # a plain list of the right length is read like the array
    zeta = [0.5, -0.5, 0.0]
    for call in calls:
        np.testing.assert_array_equal(call(zeta), call(np.array(zeta)))


@st.composite
def banks_with_relative_outputs(draw):
    """A mixed bank, its records, a zero tolerance, and relative outputs on and around it."""
    zero_tol = draw(st.sampled_from([0.0, 1e-6, 0.5]))
    zeta = st.one_of(
        st.sampled_from([0.0, -0.0, zero_tol, -zero_tol,
                         np.nextafter(zero_tol, 1.0), -np.nextafter(zero_tol, 1.0)]),
        st.floats(-1e3, 1e3))
    edges = draw(st.lists(st.tuples(st.one_of(st.none(), st.floats(0.1, 5.0)), zeta),
                          min_size=1, max_size=12))
    controllers = [TanhIntegratorController() if w is None else StaticGainController(w)
                   for w, _ in edges]
    return ControllerBank(controllers), controllers, np.array([z for _, z in edges]), zero_tol


@settings(max_examples=200, deadline=None)
@given(banks_with_relative_outputs())
def test_bank_effort_bounds_equal_the_per_edge_intervals(case):
    bank, controllers, zeta, zero_tol = case
    lower, upper = bank.effort_bounds(zeta, zero_tol)
    expected = np.array([effort_interval(c, z, zero_tol)
                         for c, z in zip(controllers, zeta)]).reshape(-1, 2)
    for got, want in ((lower, expected[:, 0]), (upper, expected[:, 1])):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_bank_conjugate_total():
    controllers = make_controllers()
    assert controller_conjugate_total(controllers, np.array([0.5, 4.0, -1.0])) == pytest.approx(
        4.0, abs=EXACT_TOL)
    assert controller_conjugate_total(controllers, np.array([1.5, 0.0, 0.0])) == math.inf

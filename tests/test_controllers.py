"""Edge controller tests: dynamics, potentials, proxes, effort intervals.

The scalar models' dynamics, potentials, proxes and effort intervals are the
reference evaluations of ``oracles``; the bank's vectorized prox, potential
and effort bounds are checked against them edge by edge.  The prox closed
forms are cross-checked against an independent zooming grid minimizer of
potential(z) + (z - v)^2 / (2 step).
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netpass import (
    ControllerBank,
    StaticGainController,
    TanhIntegratorController,
)
from oracles import (
    controller_bank_drift,
    controller_bank_output,
    controller_bank_output_rate,
    controller_bank_potential_batch,
    controller_drift,
    controller_output,
    controller_potential,
    controller_prox,
    effort_interval,
)

EXACT_TOL = 1e-9
PROX_REL_TOL = 1e-5
CONVEXITY_TOL = 1e-12


def grid_prox(potential, v, step, span=None, points=2001, rounds=6):
    """Independent prox oracle: zooming grid over the scalar objective."""
    if span is None:
        span = max(1.0, 2.0 * abs(v))
    lo, hi = v - span, v + span
    best = v
    for _ in range(rounds):
        z = np.linspace(lo, hi, points)
        vals = np.array([potential(zi) for zi in z]) + (z - v) ** 2 / (2.0 * step)
        best = z[int(np.argmin(vals))]
        h = (hi - lo) / (points - 1)
        lo, hi = best - 2 * h, best + 2 * h
    return best


# ----------------------------------------------------------------------
# saturated integrating controller
# ----------------------------------------------------------------------


def test_tanh_dynamics_and_output():
    c = TanhIntegratorController()
    assert controller_drift(c, 0.3, 1.7) == 1.7
    assert controller_output(c, 0.5, 99.0) == pytest.approx(math.tanh(0.5), abs=EXACT_TOL)
    assert controller_potential(c, -2.5) == 2.5


def test_tanh_prox_frozen_values():
    c = TanhIntegratorController()
    assert controller_prox(c, 3.0, 1.0) == pytest.approx(2.0, abs=EXACT_TOL)
    assert controller_prox(c, 3.0, 2.0) == pytest.approx(1.0, abs=EXACT_TOL)
    assert controller_prox(c, 0.5, 1.0) == 0.0
    assert controller_prox(c, -3.0, 1.0) == pytest.approx(-2.0, abs=EXACT_TOL)


def test_tanh_prox_matches_grid_oracle():
    c = TanhIntegratorController()
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = rng.uniform(-8.0, 8.0)
        step = rng.uniform(0.05, 3.0)
        closed = controller_prox(c, v, step)
        grid = grid_prox(abs, v, step)
        assert closed == pytest.approx(grid, abs=PROX_REL_TOL * (1 + abs(grid)))


def test_tanh_prox_guards():
    c = TanhIntegratorController()
    with pytest.raises(ValueError):
        controller_prox(c, 1.0, 0.0)
    with pytest.raises(ValueError):
        controller_prox(c, 1.0, -0.5)


def test_tanh_conjugate_is_box_indicator():
    c = TanhIntegratorController()
    assert c.conjugate_potential(0.0) == 0.0
    assert c.conjugate_potential(1.0) == 0.0
    assert c.conjugate_potential(-1.0) == 0.0
    assert c.conjugate_potential(1.0 + 5e-10) == 0.0
    assert c.conjugate_potential(1.2) == math.inf
    assert c.conjugate_potential(-1.01) == math.inf


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
    assert c.conjugate_potential(4.0) == pytest.approx(4.0, abs=EXACT_TOL)


def test_static_gain_requires_positive_gain():
    with pytest.raises(ValueError):
        StaticGainController(0.0)
    with pytest.raises(ValueError):
        StaticGainController(-1.0)


def test_static_gain_prox_frozen_value():
    c = StaticGainController(2.0)
    # argmin w z^2/2 + (z-v)^2/(2t) = v / (1 + t w)
    assert controller_prox(c, 6.0, 1.0) == pytest.approx(2.0, abs=EXACT_TOL)


def test_static_gain_prox_matches_grid_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        w = rng.uniform(0.1, 4.0)
        c = StaticGainController(w)
        v = rng.uniform(-8.0, 8.0)
        step = rng.uniform(0.05, 3.0)
        closed = controller_prox(c, v, step)
        grid = grid_prox(functools.partial(controller_potential, c), v, step)
        assert closed == pytest.approx(grid, abs=PROX_REL_TOL * (1 + abs(grid)))


def test_static_gain_prox_guard():
    c = StaticGainController(0.5)
    with pytest.raises(ValueError):
        controller_prox(c, 1.0, 0.0)
    with pytest.raises(ValueError):
        controller_prox(c, 1.0, -0.6)


def test_static_gain_conjugate_fenchel_young():
    c = StaticGainController(1.7)
    for zeta in (-2.0, 0.0, 0.5, 3.0):
        mu = controller_output(c, 0.0, zeta)
        assert controller_potential(c, zeta) + c.conjugate_potential(mu) == pytest.approx(
            mu * zeta, abs=EXACT_TOL)


def test_static_gain_effort_interval_is_a_point():
    c = StaticGainController(2.0)
    assert effort_interval(c, 1.5, 1e-6) == (3.0, 3.0)
    assert effort_interval(c, 0.0, 1e-6) == (0.0, 0.0)


# ----------------------------------------------------------------------
# controller bank
# ----------------------------------------------------------------------


def make_bank():
    return ControllerBank([
        TanhIntegratorController(),
        StaticGainController(2.0),
        TanhIntegratorController(),
    ])


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


def test_bank_prox_matches_per_edge():
    bank = make_bank()
    v = np.array([3.0, 8.0, -0.4])
    expected = [controller_prox(c, vi, 1.0) for c, vi in zip(bank.controllers, v)]
    np.testing.assert_allclose(bank.prox(v, 1.0), expected, atol=EXACT_TOL)


@pytest.mark.parametrize("kinds", ["tanh", "static", "mixed"])
@pytest.mark.parametrize("step", [1e-8, 0.3, 1.0, 1e4])
def test_bank_prox_equals_the_scalar_prox_element_by_element(kinds, step):
    # v at 0, at and just inside +-step, and far from both; 13 values, so the
    # repeat puts each of them on a tanh and on a static edge of the mixed bank.
    factors = [0.0, 1.0, -1.0, 0.5, -0.5, 1.5, -1.5, 1e6, -1e6]
    v = np.array([f * step for f in factors] + [7.25, -7.25, 1e9, -1e9])
    v = np.concatenate([v, v])
    makers = {
        "tanh": lambda k: TanhIntegratorController(),
        "static": lambda k: StaticGainController(0.5 + k % 3),
        "mixed": lambda k: (TanhIntegratorController() if k % 2
                            else StaticGainController(0.5 + k % 3)),
    }
    bank = ControllerBank([makers[kinds](k) for k in range(len(v))])
    got = bank.prox(v, step)
    expected = np.array([controller_prox(c, vi, step) for c, vi in zip(bank.controllers, v)])
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


def test_bank_effort_bounds():
    bank = make_bank()
    zeta = np.array([0.0, 1.5, -2.0])
    lower, upper = bank.effort_bounds(zeta)
    np.testing.assert_allclose(lower, [-1.0, 3.0, -1.0])
    np.testing.assert_allclose(upper, [1.0, 3.0, -1.0])


@st.composite
def banks_with_relative_outputs(draw):
    """A mixed bank, a zero tolerance, and relative outputs on and around it."""
    zero_tol = draw(st.sampled_from([0.0, 1e-6, 0.5]))
    zeta = st.one_of(
        st.sampled_from([0.0, -0.0, zero_tol, -zero_tol,
                         np.nextafter(zero_tol, 1.0), -np.nextafter(zero_tol, 1.0)]),
        st.floats(-1e3, 1e3))
    edges = draw(st.lists(st.tuples(st.one_of(st.none(), st.floats(0.1, 5.0)), zeta),
                          min_size=1, max_size=12))
    bank = ControllerBank([TanhIntegratorController() if w is None else StaticGainController(w)
                           for w, _ in edges])
    return bank, np.array([z for _, z in edges]), zero_tol


@settings(max_examples=200, deadline=None)
@given(banks_with_relative_outputs())
def test_bank_effort_bounds_equal_the_per_edge_intervals(case):
    bank, zeta, zero_tol = case
    lower, upper = bank.effort_bounds(zeta, zero_tol)
    expected = np.array([effort_interval(c, z, zero_tol)
                         for c, z in zip(bank.controllers, zeta)]).reshape(-1, 2)
    for got, want in ((lower, expected[:, 0]), (upper, expected[:, 1])):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_bank_conjugate_total():
    bank = make_bank()
    assert bank.conjugate_total(np.array([0.5, 4.0, -1.0])) == pytest.approx(
        4.0, abs=EXACT_TOL)
    assert bank.conjugate_total(np.array([1.5, 0.0, 0.0])) == math.inf

"""Single-input single-output agent models placed on network vertices.

Every agent here is equilibrium-independent passive up to a scalar shortage
or surplus: along any trajectory there is a storage function S with

    dS/dt <= (u - u_ss) * (y - y_ss) - rho * (y - y_ss)**2

for every constant steady-state pair (u_ss, y_ss).  A negative ``rho`` means
the agent is passivity-short and needs network help.

All supported models have affine dynamics and affine steady-state maps, so a
model is a parameter record that reports its coefficients: drift
``p*x + q*u + g`` (``drift_coeffs``), steady-state input map
``slope*y + intercept`` whose integral, the agent's potential, is anchored by
a constant (``steady_coeffs``), the output where that potential is stationary
(``anchor``), and the passivity index ``rho``.  Each model also gives the
convex conjugate of its potential for input-side (flow) problems.
``AgentBank`` holds the coefficients as arrays and evaluates the steady-state
map and the potentials vectorized over all agents.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonConvexDualError, ParameterError

__all__ = ["TrafficAgent", "IntegratorAgent", "StaticAffineAgent", "AgentBank"]

# Width of the numerical spike treated as "input is exactly zero" when
# evaluating the integrator's conjugate potential (an indicator of {0}).
_INDICATOR_TOL = 1e-9


@dataclass(frozen=True)
class TrafficAgent:
    """First-order velocity-tracking vehicle model.

    dx/dt = kappa * (-x + v0 + v1 * u),   y = x

    ``v0`` is the free-flow velocity and ``v1`` scales the neighbor feedback.
    The model is equilibrium-independent passive (short for kappa < 0) with
    index ``rho = kappa``; construction requires ``v1 * kappa > 0`` so that a
    positive-definite quadratic storage exists.
    """

    kappa: float
    v0: float
    v1: float

    def __post_init__(self):
        if self.v1 == 0.0:
            raise ParameterError("v1", "traffic agent needs v1 != 0")
        if self.v1 * self.kappa <= 0.0:
            raise ParameterError(
                "v1", f"traffic agent needs v1 * kappa > 0, got {self.v1 * self.kappa}")

    @property
    def rho(self):
        return self.kappa

    def drift_coeffs(self):
        return (-self.kappa, self.kappa * self.v1, self.kappa * self.v0)

    def steady_coeffs(self):
        """(slope, intercept, constant): the potential is (y - v0)**2 / (2 v1)."""
        return (1.0 / self.v1, -self.v0 / self.v1, self.v0**2 / (2.0 * self.v1))

    def conjugate_potential(self, u):
        """Convex conjugate of the potential; input-side cost."""
        if self.v1 < 0.0:
            raise NonConvexDualError(
                "input-side cost undefined for v1 < 0 (potential is concave)"
            )
        return self.v0 * u + 0.5 * self.v1 * u**2

    def anchor(self):
        """Output at which the potential is stationary."""
        return self.v0


@dataclass(frozen=True)
class IntegratorAgent:
    """Pure integrator: dx/dt = u, y = x.  Lossless, index rho = 0."""

    @property
    def rho(self):
        return 0.0

    def drift_coeffs(self):
        return (0.0, 1.0, 0.0)

    def steady_coeffs(self):
        # Any output is an equilibrium under zero input.
        return (0.0, 0.0, 0.0)

    def conjugate_potential(self, u):
        """Indicator of {0}: only zero input admits a steady state."""
        return 0.0 if abs(u) <= _INDICATOR_TOL else math.inf

    def anchor(self):
        return 0.0


@dataclass(frozen=True)
class StaticAffineAgent:
    """First-order lag realizing the affine steady-state map y = a*u + c.

    dx/dt = tau * (-x + a * u + c),   y = x

    The passivity index is supplied explicitly by the caller rather than
    derived from (a, tau); tests pick values consistent with the dynamics.
    """

    a: float
    c: float
    tau: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        if self.a == 0.0:
            raise ParameterError("a", "static affine agent needs a != 0")
        if self.tau <= 0.0:
            raise ParameterError("tau", f"static affine agent needs tau > 0, got {self.tau}")

    def drift_coeffs(self):
        return (-self.tau, self.tau * self.a, self.tau * self.c)

    def steady_coeffs(self):
        """The potential is (y**2 / 2 - c y) / a, zero at y = 0."""
        return (1.0 / self.a, -self.c / self.a, 0.0)

    def conjugate_potential(self, u):
        if self.a < 0.0:
            raise NonConvexDualError(
                "input-side cost undefined for a < 0 (potential is concave)"
            )
        return self.c * u + 0.5 * self.a * u**2 + self.c**2 / (2.0 * self.a)

    def anchor(self):
        return self.c


class AgentBank:
    """Ordered collection of agents with their coefficients as arrays."""

    def __init__(self, agents):
        self.agents = tuple(agents)
        n = len(self.agents)
        if n == 0:
            raise DimensionMismatchError("agent bank cannot be empty")
        self.rho_vector = np.array([a.rho for a in self.agents])
        # Read-only coefficient arrays: drift p*x + q*u + g, steady-state
        # input map slope*y + intercept, potential anchored by const.
        self.p, self.q, self.g = np.array([a.drift_coeffs() for a in self.agents]).T.copy()
        self.slope, self.intercept, self.const = np.array(
            [a.steady_coeffs() for a in self.agents]).T.copy()
        self.anchors = np.array([a.anchor() for a in self.agents])
        for arr in (self.rho_vector, self.p, self.q, self.g, self.slope,
                    self.intercept, self.const, self.anchors):
            arr.setflags(write=False)

    def __len__(self):
        return len(self.agents)

    def _check(self, vec, name):
        if np.shape(vec) != (len(self.agents),):
            raise DimensionMismatchError(
                f"{name} has shape {np.shape(vec)}, expected ({len(self.agents)},)"
            )

    def steady_input(self, y):
        """Per-agent steady-state input map, vectorized over outputs."""
        return self.slope * y + self.intercept

    def potential_total(self, y):
        """Sum of agent potentials at the output vector y."""
        self._check(y, "y")
        return float(np.sum(0.5 * self.slope * y**2 + self.intercept * y + self.const))

    def conjugate_total(self, u):
        """Sum of per-agent conjugate potentials at the input vector u."""
        self._check(u, "u")
        return float(sum(a.conjugate_potential(ui) for a, ui in zip(self.agents, u)))

"""Single-input single-output agent models placed on network vertices.

Every agent here is equilibrium-independent passive up to a scalar shortage
or surplus: along any trajectory there is a storage function S with

    dS/dt <= (u - u_ss) * (y - y_ss) - rho * (y - y_ss)**2

for every constant steady-state pair (u_ss, y_ss).  A negative ``rho`` means
the agent is passivity-short and needs network help.  Each model exposes its
steady-state input map (output -> the unique input holding it there), the
scalar potential obtained by integrating that map, and the convex conjugate
of the potential for input-side (flow) problems.

All supported models have affine dynamics and affine steady-state maps, which
downstream code exploits: drift is ``p*x + q*u + g`` and the steady-state
input map is ``slope*y + intercept``.
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

    def drift(self, x, u):
        return self.kappa * (-x + self.v0 + self.v1 * u)

    def drift_coeffs(self):
        return (-self.kappa, self.kappa * self.v1, self.kappa * self.v0)

    def steady_input(self, y):
        """Input that holds output y at rest."""
        return (y - self.v0) / self.v1

    def steady_coeffs(self):
        """(slope, intercept, constant): steady map and potential anchor."""
        return (1.0 / self.v1, -self.v0 / self.v1, self.v0**2 / (2.0 * self.v1))

    def potential(self, y):
        """Integral of the steady-state input map, zero at y = v0."""
        return (y - self.v0) ** 2 / (2.0 * self.v1)

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

    def storage(self, x, y_ss):
        """Quadratic storage certifying the passivity index, zero at y_ss."""
        return (x - y_ss) ** 2 / (2.0 * self.v1 * self.kappa)


@dataclass(frozen=True)
class IntegratorAgent:
    """Pure integrator: dx/dt = u, y = x.  Lossless, index rho = 0."""

    @property
    def rho(self):
        return 0.0

    def drift(self, x, u):
        return u

    def drift_coeffs(self):
        return (0.0, 1.0, 0.0)

    def steady_input(self, y):
        # Any output is an equilibrium under zero input.
        return 0.0

    def steady_coeffs(self):
        return (0.0, 0.0, 0.0)

    def potential(self, y):
        return 0.0

    def conjugate_potential(self, u):
        """Indicator of {0}: only zero input admits a steady state."""
        return 0.0 if abs(u) <= _INDICATOR_TOL else math.inf

    def anchor(self):
        return 0.0

    def storage(self, x, y_ss):
        return 0.5 * (x - y_ss) ** 2


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

    def drift(self, x, u):
        return self.tau * (-x + self.a * u + self.c)

    def drift_coeffs(self):
        return (-self.tau, self.tau * self.a, self.tau * self.c)

    def steady_input(self, y):
        return (y - self.c) / self.a

    def steady_coeffs(self):
        return (1.0 / self.a, -self.c / self.a, 0.0)

    def potential(self, y):
        """Integral of the steady-state input map, zero at y = 0."""
        return (0.5 * y**2 - self.c * y) / self.a

    def conjugate_potential(self, u):
        if self.a < 0.0:
            raise NonConvexDualError(
                "input-side cost undefined for a < 0 (potential is concave)"
            )
        return self.c * u + 0.5 * self.a * u**2 + self.c**2 / (2.0 * self.a)

    def anchor(self):
        return self.c

    def storage(self, x, y_ss):
        if self.a * self.tau <= 0.0:
            raise ValueError("no positive-definite quadratic storage for a * tau <= 0")
        return (x - y_ss) ** 2 / (2.0 * self.a * self.tau)


class AgentBank:
    """Ordered collection of agents with vectorized dynamics and potentials."""

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

    def drift(self, x, u):
        """Vector field of all agents at states x under inputs u."""
        return self.p * x + self.q * u + self.g

    def steady_input(self, y):
        """Per-agent steady-state input map, vectorized over outputs."""
        return self.slope * y + self.intercept

    def potential_total(self, y):
        """Sum of agent potentials at the output vector y."""
        return float(np.sum(0.5 * self.slope * y**2 + self.intercept * y + self.const))

    def potential_batch(self, Y):
        """Summed potentials for a batch of output vectors, shape (P, n) -> (P,)."""
        return (0.5 * self.slope * Y**2 + self.intercept * Y + self.const).sum(axis=1)

    def conjugate_total(self, u):
        """Sum of per-agent conjugate potentials at the input vector u."""
        return float(sum(a.conjugate_potential(ui) for a, ui in zip(self.agents, u)))

"""Edge controllers: parameter records and their vectorized bank.

Controllers live on edges and map relative outputs (differences across an
edge) to coupling efforts.  Each model is maximal equilibrium-independent
passive; its steady-state relation is the subdifferential of a convex
potential.  A model is a parameter record: the saturated integrator
(d(eta)/dt = zeta, mu = tanh(eta), potential |zeta|) has none, the static
gain (mu = w * zeta, potential w zeta**2 / 2) has its gain ``w``.  Each also
gives the convex conjugate of its potential for input-side (flow) problems.

``ControllerBank`` holds the saturated-edge mask and the static gains as
arrays and evaluates, over all edges at once, the summed potential, the
steady-state effort bounds, and the proximal map

    argmin_z  potential(z) + 1/(2*step) * (z - v)**2

in closed form, which is the edge-separable inner step of the
operator-splitting solver (the edge gains' quadratic lives in its vertex
step).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ParameterError

__all__ = ["TanhIntegratorController", "StaticGainController", "ControllerBank"]

# Slack allowed beyond the unit interval when evaluating the saturated
# controller's conjugate potential (an indicator of [-1, 1]).
_INDICATOR_TOL = 1e-9


@dataclass(frozen=True)
class TanhIntegratorController:
    """Saturated integrating controller: d(eta)/dt = zeta, mu = tanh(eta).

    Its steady-state relation is the sign relation (any effort in [-1, 1]
    at zero relative output, else the saturation value), so the associated
    potential is the absolute value and its conjugate is the indicator of
    the unit interval.
    """

    def conjugate_potential(self, mu):
        return 0.0 if abs(mu) <= 1.0 + _INDICATOR_TOL else math.inf


@dataclass(frozen=True)
class StaticGainController:
    """Memoryless proportional coupling mu = w * zeta with w > 0."""

    w: float

    def __post_init__(self):
        if self.w <= 0.0:
            raise ParameterError("w", f"static gain needs w > 0, got {self.w}")

    def conjugate_potential(self, mu):
        return mu**2 / (2.0 * self.w)


class ControllerBank:
    """Ordered collection of edge controllers with vectorized operations."""

    def __init__(self, controllers):
        self.controllers = tuple(controllers)
        # Read-only per-edge saturated-integrator mask and static gain w (0 if saturated).
        self.saturated = np.array(
            [isinstance(c, TanhIntegratorController) for c in self.controllers],
            dtype=bool,
        )
        self.w = np.array(
            [c.w if isinstance(c, StaticGainController) else 0.0 for c in self.controllers],
            dtype=float,
        )
        for arr in (self.saturated, self.w):
            arr.setflags(write=False)
        self._no_static = bool(self.saturated.all())

    def __len__(self):
        return len(self.controllers)

    def _check(self, vec, name):
        if np.shape(vec) != (len(self.controllers),):
            raise DimensionMismatchError(
                f"{name} has shape {np.shape(vec)}, expected ({len(self.controllers)},)"
            )

    def potential_total(self, zeta):
        self._check(zeta, "zeta")
        vals = np.where(self.saturated, np.abs(zeta), 0.5 * self.w * zeta**2)
        return float(vals.sum())

    def prox(self, v, step):
        """Vectorized prox across all edges."""
        self._check(v, "v")
        if step <= 0.0:
            raise ValueError(f"prox step must be positive, got {step}")
        shrunk = np.sign(v) * np.maximum(np.abs(v) - step, 0.0)
        if self._no_static:
            return shrunk
        return np.where(self.saturated, shrunk, v / (1.0 + step * self.w))

    def conjugate_total(self, mu):
        self._check(mu, "mu")
        return float(sum(c.conjugate_potential(m) for c, m in zip(self.controllers, mu)))

    def effort_bounds(self, zeta, zero_tol=1e-6):
        """Per-edge bounds on steady-state effort selections at ``zeta``.

        A saturated edge admits any effort in [-1, 1] where |zeta| <= zero_tol
        and sign(zeta) elsewhere; a static edge admits only w * zeta.
        """
        self._check(zeta, "zeta")
        zeta = np.asarray(zeta, dtype=float)
        free = np.abs(zeta) <= zero_tol
        sign = np.copysign(1.0, zeta)
        mu = self.w * zeta
        lower = np.where(self.saturated, np.where(free, -1.0, sign), mu)
        upper = np.where(self.saturated, np.where(free, 1.0, sign), mu)
        return lower, upper

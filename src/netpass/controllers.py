"""Edge controllers: parameter records and their vectorized bank.

Controllers live on edges and map relative outputs (differences across an
edge) to coupling efforts.  Each model is maximal equilibrium-independent
passive; its steady-state relation is the subdifferential of a convex
potential.  A model is a parameter record: the saturated integrator
(d(eta)/dt = zeta, mu = tanh(eta), potential |zeta|) has none, the static
gain (mu = w * zeta, potential w zeta**2 / 2) has its gain ``w``.

``ControllerBank`` holds the saturated-edge mask and the static gains as
arrays and evaluates, over all edges at once, the summed potential and the
steady-state effort bounds.
"""

from dataclasses import dataclass

import numpy as np

from .agents import ModelBank, ModelRecord
from .errors import as_vector

__all__ = ["TanhIntegratorController", "StaticGainController", "ControllerBank"]


@dataclass(frozen=True)
class TanhIntegratorController(ModelRecord):
    """Saturated integrating controller: d(eta)/dt = zeta, mu = tanh(eta).

    Its steady-state relation is the sign relation (any effort in [-1, 1]
    at zero relative output, else the saturation value), so the associated
    potential is the absolute value.
    """

    @staticmethod
    def coeffs():
        return True, 0.0


@dataclass(frozen=True)
class StaticGainController(ModelRecord):
    """Memoryless proportional coupling mu = w * zeta with w > 0."""

    w: float

    @staticmethod
    def rules(w):
        return (("w", w <= 0.0, "static gain needs w > 0, got {}", w),)

    @staticmethod
    def coeffs(w):
        return False, w


class ControllerBank(ModelBank):
    """Ordered collection of edge controllers with vectorized operations."""

    # The per-edge saturated-integrator mask and static gain w (0 if saturated).
    COEFFICIENTS = (("saturated", bool), ("w", float))

    def potential_total(self, zeta):
        zeta = as_vector(zeta, len(self), "zeta")
        vals = np.where(self.saturated, np.abs(zeta), 0.5 * self.w * zeta**2)
        return float(vals.sum())

    def effort_bounds(self, zeta, zero_tol=1e-6):
        """Per-edge bounds on steady-state effort selections at ``zeta``.

        A saturated edge admits any effort in [-1, 1] where |zeta| <= zero_tol
        and sign(zeta) elsewhere; a static edge admits only w * zeta.
        """
        zeta = as_vector(zeta, len(self), "zeta")
        free = np.abs(zeta) <= zero_tol
        sign = np.copysign(1.0, zeta)
        mu = self.w * zeta
        lower = np.where(self.saturated, np.where(free, -1.0, sign), mu)
        upper = np.where(self.saturated, np.where(free, 1.0, sign), mu)
        return lower, upper

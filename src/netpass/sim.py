"""Closed-loop simulation of the gain-augmented diffusively-coupled network.

The loop couples vertex agents through edge controllers over the graph's
incidence matrix and applies the synthesized passivating feedback:

    zeta = E^T y,      u = -E mu - E diag(beta) zeta - diag(alpha) y

Integration is classic fixed-step fourth-order Runge-Kutta.  A run counts as
steady when the agent state rates and the controller output rates stay below
a tolerance over a sustained window; the integrator controller's internal
state is allowed to keep ramping (its output saturates, so the loop still
settles), which is exactly what happens on edges that hold a nonzero
relative output at steady state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .agents import AgentBank
from .controllers import ControllerBank
from .errors import DimensionMismatchError, NumericalBlowupError
from .graph import NetworkGraph
from .netopt import build_problem, stationarity_residual
from .passivation import GainDesign

__all__ = ["ClosedLoopSystem", "Trajectory", "simulate", "steady_state_residual"]

_BLOWUP_LIMIT = 1e12
_STEADY_WINDOW = 100


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Agents on vertices, controllers on edges, and a feedback gain design."""

    graph: NetworkGraph
    agents: AgentBank
    controllers: ControllerBank
    gain: GainDesign

    def __post_init__(self):
        if len(self.agents) != self.graph.n_vertices:
            raise DimensionMismatchError(
                f"{len(self.agents)} agents for {self.graph.n_vertices} vertices"
            )
        if len(self.controllers) != self.graph.n_edges:
            raise DimensionMismatchError(
                f"{len(self.controllers)} controllers for {self.graph.n_edges} edges"
            )
        if self.gain.alpha.shape != (self.graph.n_vertices,):
            raise DimensionMismatchError(f"alpha has shape {self.gain.alpha.shape}")
        if self.gain.beta.shape != (self.graph.n_edges,):
            raise DimensionMismatchError(f"beta has shape {self.gain.beta.shape}")

    def control(self, x, eta):
        """Signals around the loop at state (x, eta): (y, zeta, mu, u)."""
        y = np.asarray(x, dtype=float)
        zeta = self.graph.incidence.T @ y
        mu = self.controllers.output(eta, zeta)
        u = -self.graph.incidence @ (mu + self.gain.beta * zeta) - self.gain.alpha * y
        return y, zeta, mu, u

    def derivative(self, x, eta):
        """Closed-loop vector field at state (x, eta)."""
        y, zeta, mu, u = self.control(x, eta)
        return self.agents.drift(x, u), self.controllers.drift(eta, zeta)


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run on a uniform time grid."""

    times: np.ndarray
    x_states: np.ndarray
    eta_states: np.ndarray
    converged: bool
    y_ss: np.ndarray  # None unless converged
    residual: float

    @property
    def y_outputs(self):
        # every supported agent outputs its state directly
        return self.x_states


def _default_steps(system):
    """Default step from a norm bound on the closed-loop Jacobian.

    Steady states are exact fixed points of the RK4 map, so a large step
    only costs transient accuracy; the step just has to stay well inside
    the stability region.  The bound adds the agents' own rates, the
    feedback routed through the coupling (Laplacian spectrum times the edge
    weights), and the cross terms between agent and controller states.
    """
    graph = system.graph
    p_max = float(np.max(np.abs(system.agents.p)))
    q_max = float(np.max(np.abs(system.agents.q)))
    if graph.n_edges:
        lam_max = float(np.linalg.eigvalsh(graph.laplacian())[-1])
        beta_max = float(np.max(system.gain.beta))
        slope_max = float(np.max(system.controllers.w))
    else:
        lam_max = beta_max = slope_max = 0.0
    alpha_max = float(np.max(system.gain.alpha)) if system.gain.alpha.size else 0.0
    rate = (
        p_max
        + q_max * (lam_max * (beta_max + slope_max) + alpha_max)
        + (1.0 + q_max) * math.sqrt(lam_max)
    )
    dt = min(0.05, max(1e-4, 1.0 / max(rate, 1e-12)))
    return dt, 5000.0


class _Recorder:
    """Row buffer that doubles capacity as the run grows."""

    def __init__(self, width, capacity=4096):
        self._buf = np.empty((capacity, width))
        self.size = 0

    def append(self, row):
        if self.size == self._buf.shape[0]:
            grown = np.empty((2 * self._buf.shape[0], self._buf.shape[1]))
            grown[: self.size] = self._buf
            self._buf = grown
        self._buf[self.size] = row
        self.size += 1

    def view(self):
        return self._buf[: self.size]


def simulate(system: ClosedLoopSystem, x0=None, eta0=None, dt=None, t_max=None,
             steady_tol=1e-8, window=_STEADY_WINDOW, seed=0):
    """Integrate the closed loop until steady, blown up, or out of time.

    Parameters
    ----------
    x0, eta0 : array or None
        Initial conditions.  Missing agent states are drawn uniformly from
        [min anchor - 10, max anchor + 10] with the given seed; missing
        controller states start at zero.
    dt, t_max : float or None
        Step size and horizon.  The default step comes from a closed-loop
        rate bound (capped at 0.05, floored at 1e-4); the default horizon
        is 5000 time units with early exit once steady.
    steady_tol : float
        Threshold on the worst state/output rate for steadiness.
    window : int
        Number of consecutive steady samples required before stopping.

    Raises
    ------
    NumericalBlowupError
        If any state magnitude exceeds 1e12.
    """
    n = system.graph.n_vertices
    m = system.graph.n_edges
    default_dt, default_t_max = _default_steps(system)
    if dt is None:
        dt = default_dt
    if t_max is None:
        t_max = default_t_max
    if dt <= 0.0 or t_max <= 0.0:
        raise ValueError("dt and t_max must be positive")
    if x0 is None:
        rng = np.random.default_rng(seed)
        anchors = system.agents.anchors
        x = rng.uniform(anchors.min() - 10.0, anchors.max() + 10.0, n)
    else:
        x = np.array(x0, dtype=float)
        if x.shape != (n,):
            raise DimensionMismatchError(f"x0 has shape {x.shape}, expected ({n},)")
    eta = np.zeros(m) if eta0 is None else np.array(eta0, dtype=float)
    if eta.shape != (m,):
        raise DimensionMismatchError(f"eta0 has shape {eta.shape}, expected ({m},)")

    E = system.graph.incidence
    states = _Recorder(n + m)
    metrics = []

    def rate_metric(x_now, eta_now, x_dot):
        zeta = E.T @ x_now
        mu_dot = system.controllers.output_rate(eta_now, zeta, E.T @ x_dot)
        worst = float(np.abs(x_dot).max()) if n else 0.0
        if m:
            worst = max(worst, float(np.abs(mu_dot).max()))
        return worst

    x_dot, eta_dot = system.derivative(x, eta)
    states.append(np.concatenate([x, eta]))
    metrics.append(rate_metric(x, eta, x_dot))

    steps_total = int(np.floor(t_max / dt + 1e-9))
    steady_run = 1 if metrics[0] < steady_tol else 0
    converged = steady_run >= window
    half = dt / 2.0

    for _ in range(steps_total):
        if converged:
            break
        k1x, k1e = x_dot, eta_dot
        k2x, k2e = system.derivative(x + half * k1x, eta + half * k1e)
        k3x, k3e = system.derivative(x + half * k2x, eta + half * k2e)
        k4x, k4e = system.derivative(x + dt * k3x, eta + dt * k3e)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        eta = eta + (dt / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)

        if (np.abs(x) > _BLOWUP_LIMIT).any() or (m and (np.abs(eta) > _BLOWUP_LIMIT).any()):
            raise NumericalBlowupError(
                f"state magnitude exceeded {_BLOWUP_LIMIT:g} at t = {states.size * dt:.6g}"
            )

        x_dot, eta_dot = system.derivative(x, eta)
        states.append(np.concatenate([x, eta]))
        metric = rate_metric(x, eta, x_dot)
        metrics.append(metric)
        steady_run = steady_run + 1 if metric < steady_tol else 0
        converged = steady_run >= window

    count = states.size
    table = states.view()
    times = np.arange(count) * dt
    x_states = table[:, :n].T.copy()
    eta_states = table[:, n:].T.copy()
    tail = np.asarray(metrics[-min(window, count):])
    residual = float(tail.max())
    y_ss = x_states[:, -1].copy() if converged else None
    return Trajectory(
        times=times,
        x_states=x_states,
        eta_states=eta_states,
        converged=converged,
        y_ss=y_ss,
        residual=residual,
    )


def steady_state_residual(system: ClosedLoopSystem, y, zero_tol=1e-6):
    """First-order mismatch of y as a steady output of the regularized loop.

    Builds the matching regularized steady-state problem and returns the
    minimal norm of its gradient inclusion over admissible edge efforts.
    """
    problem = build_problem(system.graph, system.agents, system.controllers, system.gain)
    residual, _ = stationarity_residual(problem, y, zero_tol)
    return residual

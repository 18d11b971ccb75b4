"""Closed-loop simulation of the gain-augmented diffusively-coupled network.

The loop couples vertex agents through edge controllers over the graph's
incidence matrix E and applies the synthesized passivating feedback:

    zeta = E^T y,      u = -E mu - E diag(beta) zeta - diag(alpha) y

Agents are affine (x' = p x + q u + g, y = x) and static edges linear, so with
K = Q(0) = diag(alpha) + E diag(beta + w) E^T (``passivation.coupling_matrix``)
the field is built once, with [A | B] held as one matrix acting on
[x, tanh(eta_sat)]:

    x' = A x + B tanh(eta_sat) + g,   A = diag(p) - diag(q) K,  B = -diag(q) E_sat,
    eta_sat' = E_sat^T x,             and a static edge's eta never moves.

``simulate`` integrates the stacked state z = [x, eta] by classic fixed-step
fourth-order Runge-Kutta into a row-per-sample buffer and returns the state
histories as read-only transposed views of it.  The default step is
2.5 / (||A|| + max(||B||, ||E_sat||)); that sum bounds the loop Jacobian's
2-norm at every saturation pattern, so each stable mode stays inside RK4's
stability region, which holds the closed left half-disk of radius 2.61.  A run
counts as steady when the agent state rates and the controller output rates
stay below a tolerance over a sustained window; the integrator controller's
internal state may keep ramping (its output saturates, so the loop still
settles), which is exactly what happens on edges that hold a nonzero relative
output at steady state.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .agents import AgentBank
from .controllers import ControllerBank
from .errors import DimensionMismatchError, NumericalBlowupError
from .graph import NetworkGraph
from .netopt import build_problem, stationarity_residual
from .passivation import GainDesign, coupling_matrix

__all__ = ["ClosedLoopSystem", "Trajectory", "simulate", "steady_state_residual"]

_BLOWUP_LIMIT = 1e12
_STEADY_WINDOW = 100
STEADY_TOL = 1e-8  # default threshold on the worst state/output rate


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Agents, controllers, a gain design, and the loop's ``[A | B]`` operator."""

    graph: NetworkGraph
    agents: AgentBank
    controllers: ControllerBank
    gain: GainDesign
    operator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.graph.n_vertices
        if len(self.agents) != n:
            raise DimensionMismatchError(f"{len(self.agents)} agents for {n} vertices")
        if len(self.controllers) != self.graph.n_edges:
            raise DimensionMismatchError(
                f"{len(self.controllers)} controllers for {self.graph.n_edges} edges"
            )
        # coupling_matrix checks alpha and the summed edge gains, but beta + w
        # would broadcast a length-1 beta over every edge.
        if self.gain.beta.shape != (self.graph.n_edges,):
            raise DimensionMismatchError(f"beta has shape {self.gain.beta.shape}")
        E, sat, q = self.graph.incidence, self.controllers.saturated, self.agents.q[:, None]
        K = coupling_matrix(np.zeros(n), self.gain.alpha,
                            self.gain.beta + self.controllers.w, self.graph)
        operator = np.column_stack((np.diag(self.agents.p) - q * K, -q * E[:, sat]))
        operator.setflags(write=False)
        heads, tails = np.array(self.graph.edges, dtype=np.intp).reshape(-1, 2).T
        # An all-tanh network reads its edge states as a slice of z, not a gather.
        cols = slice(n, None) if sat.all() else n + np.flatnonzero(sat)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "_sat", (cols, heads[sat], tails[sat]))
        object.__setattr__(self, "_static", (n + np.flatnonzero(~sat), self.controllers.w[~sat],
                                             heads[~sat], tails[~sat]))

    def control(self, x, eta):
        """Signals around the loop at state (x, eta): (y, zeta, mu, u)."""
        y = np.asarray(x, dtype=float)
        zeta = self.graph.incidence.T @ y
        mu = self.controllers.output(eta, zeta)
        u = -self.graph.incidence @ (mu + self.gain.beta * zeta) - self.gain.alpha * y
        return y, zeta, mu, u

    def rate(self, z):
        """Rate of the stacked state ``z = [x, eta]``, and the ``tanh(eta_sat)`` it used."""
        cols, heads, tails = self._sat
        x = z[: self.graph.n_vertices]
        mu_sat = np.tanh(z[cols])
        z_dot = np.zeros(z.size)
        z_dot[: x.size] = self.operator @ np.concatenate((x, mu_sat)) + self.agents.g
        z_dot[cols] = x[heads] - x[tails]
        return z_dot, mu_sat

    def steady_rate(self, z_dot, mu_sat):
        """Worst agent state rate and controller output rate, from ``rate``'s result."""
        rates = z_dot.copy()  # the saturated edges' entries are their zeta
        rates[self._sat[0]] *= 1.0 - mu_sat * mu_sat
        cols, w, heads, tails = self._static
        if w.size:
            rates[cols] = w * (z_dot[heads] - z_dot[tails])
        return float(np.abs(rates).max())

    def derivative(self, x, eta):
        """Closed-loop vector field at state (x, eta): (x_dot, eta_dot)."""
        z_dot, _ = self.rate(np.concatenate((np.asarray(x, float), np.asarray(eta, float))))
        return z_dot[: self.graph.n_vertices], z_dot[self.graph.n_vertices:]


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run on a uniform time grid; its state arrays are read-only."""

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
    """Default step inside RK4's stability region at every saturation pattern.

    The Jacobian is J(D) = diag(A, 0) + [[0, B D], [E_sat^T, 0]] with
    D = diag(1 - tanh(eta_sat)^2) in [0, 1] (a static edge's eta never moves).
    The second term's 2-norm is max(||B D||, ||E_sat||), so
    r = ||A|| + max(||B||, ||E_sat||) >= ||J(D)|| >= rho(J(D)) for every D, and
    dt = 2.5 / r keeps every dt * lambda within 2.5 of 0.  Steady states are
    exact fixed points of the RK4 map, so a large step only costs transient
    accuracy.  The cap covers r = 0 (edgeless integrators).
    """
    n = system.graph.n_vertices
    E_sat = system.graph.incidence[:, system.controllers.saturated]
    r = np.linalg.norm(system.operator[:, :n], 2) + max(
        np.linalg.norm(system.operator[:, n:], 2), np.linalg.norm(E_sat, 2))
    dt = min(0.25, max(1e-4, 2.5 / max(r, 1e-12)))
    return dt, 5000.0


def simulate(system: ClosedLoopSystem, x0=None, eta0=None, dt=None, t_max=None,
             steady_tol=STEADY_TOL, window=_STEADY_WINDOW, seed=0):
    """Integrate the closed loop until steady, blown up, or out of time.

    Parameters
    ----------
    x0, eta0 : array or None
        Initial conditions.  Missing agent states are drawn uniformly from
        [min anchor - 10, max anchor + 10] with the given seed; missing
        controller states start at zero.
    dt, t_max : float or None
        Step size and horizon.  The default step is 2.5 / r, clamped to
        [1e-4, 0.25], with r = ||A||_2 + max(||B||_2, ||E_sat||_2) >= ||J||_2
        at every saturation pattern, so RK4 is stable on every stable mode;
        the default horizon is 5000 time units with early exit once steady.
    steady_tol : float
        Threshold on the worst state/output rate for steadiness.
    window : int
        Number of consecutive steady samples required before stopping.

    Raises
    ------
    NumericalBlowupError
        If any state magnitude exceeds 1e12.
    """
    n, m = system.graph.n_vertices, system.graph.n_edges
    default_dt, default_t_max = _default_steps(system)
    if dt is None:
        dt = default_dt
    if t_max is None:
        t_max = default_t_max
    if dt <= 0.0 or t_max <= 0.0 or window < 1:
        raise ValueError("dt, t_max and window must be positive")
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

    z = np.concatenate((x, eta))
    z_dot, mu_sat = system.rate(z)
    table = np.empty((4096, n + m))  # one row per sample, doubled when full
    table[0] = z
    count = 1
    metrics = deque([system.steady_rate(z_dot, mu_sat)], maxlen=window)

    steps_total = int(np.floor(t_max / dt + 1e-9))
    steady_run = 1 if metrics[0] < steady_tol else 0
    converged = steady_run >= window
    half = dt / 2.0

    for _ in range(steps_total):
        if converged:
            break
        k2, _ = system.rate(z + half * z_dot)
        k3, _ = system.rate(z + half * k2)
        k4, _ = system.rate(z + dt * k3)
        z = z + (dt / 6.0) * (z_dot + 2.0 * k2 + 2.0 * k3 + k4)
        if (np.abs(z) > _BLOWUP_LIMIT).any():
            raise NumericalBlowupError(f"state magnitude exceeded {_BLOWUP_LIMIT:g} "
                                       f"at t = {count * dt:.6g}")
        z_dot, mu_sat = system.rate(z)
        if count == table.shape[0]:
            grown = np.empty((2 * count, n + m))
            grown[:count] = table
            table = grown
        table[count] = z
        count += 1
        metrics.append(system.steady_rate(z_dot, mu_sat))
        steady_run = steady_run + 1 if metrics[-1] < steady_tol else 0
        converged = steady_run >= window

    table = table[:count]
    table.setflags(write=False)
    x_states, eta_states = table[:, :n].T, table[:, n:].T
    residual = float(np.max(metrics))
    y_ss = x_states[:, -1].copy() if converged else None
    return Trajectory(np.arange(count) * dt, x_states, eta_states, converged, y_ss, residual)


def steady_state_residual(system: ClosedLoopSystem, y, zero_tol=1e-6):
    """First-order mismatch of y as a steady output of the regularized loop.

    Builds the matching regularized steady-state problem and returns the
    minimal norm of its gradient inclusion over admissible edge efforts.
    """
    problem = build_problem(system.graph, system.agents, system.controllers, system.gain)
    residual, _ = stationarity_residual(problem, y, zero_tol)
    return residual

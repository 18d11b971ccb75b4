"""Independent reference evaluations that the tests check the package against.

The package's models are parameter records that report coefficients, and
its banks, problem and closed loop evaluate those coefficients vectorized.
The functions here evaluate the same quantities a second way, from the
models' own parameters or one edge at a time, so that a test can compare the
two:

- agents: scalar drift, steady-state input, potential and storage of each
  model, and the agent bank's drift and batched potential;
- controllers: scalar drift, output, potential, prox and steady-state effort
  interval of each model, and the controller bank's drift, output, output
  rate and batched potential;
- the regularized problem's batched objective and ``brute_force``, a zooming
  exhaustive grid search for its minimizer on at most 4 vertices;
- the closed loop's signals ``control`` and vector field ``derivative``.

The module has no ``test_`` prefix, so pytest imports it only from the test
modules that use it.
"""

import math

import numpy as np

from netpass import (
    IntegratorAgent,
    Minimizer,
    NetpassError,
    SolveStatus,
    StaticAffineAgent,
    StaticGainController,
    TanhIntegratorController,
    TrafficAgent,
)

BRUTE_FORCE_MAX_N = 4
BRUTE_FORCE_POINTS = 33


class DimensionTooLargeError(NetpassError):
    """Exhaustive search was requested for a dimension it cannot handle."""


def _unsupported(model):
    return TypeError(f"no reference evaluation for {type(model).__name__}")


# ----------------------------------------------------------------------
# agents
# ----------------------------------------------------------------------


def agent_drift(agent, x, u):
    """dx/dt of one agent at state x under input u."""
    if isinstance(agent, TrafficAgent):
        return agent.kappa * (-x + agent.v0 + agent.v1 * u)
    if isinstance(agent, IntegratorAgent):
        return u
    if isinstance(agent, StaticAffineAgent):
        return agent.tau * (-x + agent.a * u + agent.c)
    raise _unsupported(agent)


def agent_steady_input(agent, y):
    """Input that holds output y at rest."""
    if isinstance(agent, TrafficAgent):
        return (y - agent.v0) / agent.v1
    if isinstance(agent, IntegratorAgent):
        return 0.0  # any output is an equilibrium under zero input
    if isinstance(agent, StaticAffineAgent):
        return (y - agent.c) / agent.a
    raise _unsupported(agent)


def agent_potential(agent, y):
    """Integral of the steady-state input map; a traffic agent's is zero at v0."""
    if isinstance(agent, TrafficAgent):
        return (y - agent.v0) ** 2 / (2.0 * agent.v1)
    if isinstance(agent, IntegratorAgent):
        return 0.0
    if isinstance(agent, StaticAffineAgent):
        return (0.5 * y**2 - agent.c * y) / agent.a
    raise _unsupported(agent)


def agent_storage(agent, x, y_ss):
    """Quadratic storage certifying the agent's passivity, zero at y_ss."""
    if isinstance(agent, TrafficAgent):
        return (x - y_ss) ** 2 / (2.0 * agent.v1 * agent.kappa)
    if isinstance(agent, IntegratorAgent):
        return 0.5 * (x - y_ss) ** 2
    if isinstance(agent, StaticAffineAgent):
        if agent.a * agent.tau <= 0.0:
            raise ValueError("no positive-definite quadratic storage for a * tau <= 0")
        return (x - y_ss) ** 2 / (2.0 * agent.a * agent.tau)
    raise _unsupported(agent)


def agent_bank_drift(bank, x, u):
    """Vector field of all agents at states x under inputs u, from the bank's coefficients."""
    return bank.p * x + bank.q * u + bank.g


def agent_bank_potential_batch(bank, Y):
    """Summed agent potentials for a batch of output vectors, shape (P, n) -> (P,)."""
    return (0.5 * bank.slope * Y**2 + bank.intercept * Y + bank.const).sum(axis=1)


# ----------------------------------------------------------------------
# controllers
# ----------------------------------------------------------------------


def controller_drift(controller, eta, zeta):
    """d(eta)/dt of one edge: the saturated integrator integrates, a static gain holds."""
    if isinstance(controller, TanhIntegratorController):
        return zeta
    if isinstance(controller, StaticGainController):
        return 0.0
    raise _unsupported(controller)


def controller_output(controller, eta, zeta):
    """Coupling effort of one edge."""
    if isinstance(controller, TanhIntegratorController):
        return math.tanh(eta)
    if isinstance(controller, StaticGainController):
        return controller.w * zeta
    raise _unsupported(controller)


def controller_potential(controller, zeta):
    """Edge potential, whose subdifferential is the steady-state relation."""
    if isinstance(controller, TanhIntegratorController):
        return abs(zeta)
    if isinstance(controller, StaticGainController):
        return 0.5 * controller.w * zeta**2
    raise _unsupported(controller)


def controller_prox(controller, v, step):
    """Closed-form argmin_z potential(z) + (z - v)**2 / (2 step)."""
    if step <= 0.0:
        raise ValueError(f"prox step must be positive, got {step}")
    if isinstance(controller, TanhIntegratorController):
        return math.copysign(max(abs(v) - step, 0.0), v)
    if isinstance(controller, StaticGainController):
        return v / (1.0 + step * controller.w)
    raise _unsupported(controller)


def effort_interval(controller, zeta, zero_tol):
    """Steady-state effort selections compatible with relative output zeta."""
    if isinstance(controller, TanhIntegratorController):
        if abs(zeta) <= zero_tol:
            return (-1.0, 1.0)
        s = math.copysign(1.0, zeta)
        return (s, s)
    if isinstance(controller, StaticGainController):
        mu = controller.w * zeta
        return (mu, mu)
    raise _unsupported(controller)


def controller_bank_drift(bank, eta, zeta):
    return np.where(bank.saturated, zeta, 0.0)


def controller_bank_output(bank, eta, zeta):
    return np.where(bank.saturated, np.tanh(eta), bank.w * zeta)


def controller_bank_output_rate(bank, eta, zeta, zeta_dot):
    """Time derivative of the controller outputs along a trajectory."""
    sat = 1.0 - np.tanh(eta) ** 2
    return np.where(bank.saturated, sat * zeta, bank.w * zeta_dot)


def controller_bank_potential_batch(bank, Z):
    """Summed edge potentials for a batch of edge vectors, (P, m) -> (P,)."""
    return np.where(bank.saturated, np.abs(Z), 0.5 * bank.w * Z**2).sum(axis=1)


# ----------------------------------------------------------------------
# the regularized problem
# ----------------------------------------------------------------------


def objective_batch(problem, Y):
    """The problem's objective for each row of Y, shape (P, n) -> (P,)."""
    Y = np.asarray(Y, dtype=float)
    Z = Y @ problem.graph.incidence
    vals = agent_bank_potential_batch(problem.agents, Y)
    vals = vals + controller_bank_potential_batch(problem.controllers, Z)
    vals = vals + 0.5 * (Z**2 @ problem.beta)
    vals = vals + 0.5 * (Y**2 @ problem.alpha)
    return vals


def brute_force(problem, box=None, spacing=1e-3):
    """Zooming exhaustive grid minimization, independent of the splitting solver.

    Evaluates the objective on a uniform grid over ``box`` (a (lo, hi) pair
    applied to every coordinate), then repeatedly re-grids around the best
    point until the grid spacing drops below ``spacing``.  Only intended for
    cross-checking on instances with at most 4 vertices.
    """
    n = problem.graph.n_vertices
    if n > BRUTE_FORCE_MAX_N:
        raise DimensionTooLargeError(f"grid search supports n <= {BRUTE_FORCE_MAX_N}, got {n}")
    if box is None:
        anchors = problem.agents.anchors
        box = (float(anchors.min()) - 5.0, float(anchors.max()) + 5.0)
    lo = np.full(n, float(box[0]))
    hi = np.full(n, float(box[1]))
    npts = BRUTE_FORCE_POINTS
    levels = 0
    while True:
        axes = [np.linspace(lo[i], hi[i], npts) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        Y = np.stack([m.ravel() for m in mesh], axis=1)
        values = objective_batch(problem, Y)
        best = int(np.argmin(values))
        y_best = Y[best]
        value_best = float(values[best])
        h = float(np.max((hi - lo) / (npts - 1)))
        levels += 1
        if h <= spacing:
            break
        lo = y_best - 2.0 * h
        hi = y_best + 2.0 * h
    zeta = problem.graph.incidence.T @ y_best
    return Minimizer(
        y_star=y_best,
        zeta_star=zeta,
        objective_value=value_best,
        primal_residual=0.0,
        dual_residual=0.0,
        iterations=levels,
        status=SolveStatus.OPTIMAL,
    )


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


def control(system, x, eta):
    """Signals around the loop at state (x, eta): (y, zeta, mu, u)."""
    y = np.asarray(x, dtype=float)
    zeta = system.graph.incidence.T @ y
    mu = controller_bank_output(system.controllers, eta, zeta)
    u = -system.graph.incidence @ (mu + system.gain.beta * zeta) - system.gain.alpha * y
    return y, zeta, mu, u


def derivative(system, x, eta):
    """Closed-loop vector field at state (x, eta) from ``system.rate``: (x_dot, eta_dot)."""
    z = np.concatenate((np.asarray(x, float), np.asarray(eta, float)))
    z_dot = np.zeros(z.size)
    system.rate(z, z_dot, np.empty(system.operator.shape[1]))
    return z_dot[: system.graph.n_vertices], z_dot[system.graph.n_vertices:]

"""Independent reference evaluations that the tests check the package against.

The package's models are parameter records that report coefficients, and
its banks, problem and closed loop evaluate those coefficients vectorized.
The functions here evaluate the same quantities a second way, from the
models' own parameters or one edge at a time, so that a test can compare the
two:

- the graph: the dense incidence matrix, entry by entry from the edge list;
- gain synthesis: the paper's sufficient edge-gain bound, which the exact
  threshold of ``edge_gain_threshold`` replaced;
- agents: scalar drift, steady-state input, potential and storage of each
  model, and the agent bank's drift and batched potential;
- controllers: scalar drift, output, potential and steady-state effort
  interval of each model, and the controller bank's drift, output, output
  rate and batched potential;
- the input-side (flow) dual: each model's conjugate potential, the
  conjugate totals of lists of records and ``flow_objective``, which the
  package does not evaluate at all;
- scenario model specs: ``check_specs``, the schema's one-spec-at-a-time
  checker with the records' scalar parameter rules, which the package
  replaced by one pass and array predicates over each kind's columns;
  ``spec_coefficients``, each coefficient's scalar formula; and
  ``spec_records``, the records a roster of specs describes;
- the regularized problem's batched objective and ``brute_force``, a zooming
  exhaustive grid search for its minimizer on at most 4 vertices;
- the stationarity residual ``bvls_residual``: scipy's bounded-variable least
  squares on the free edges' dense incidence columns, which the package
  computes as a graph total-variation prox instead;
- the closed loop's signals ``control`` and vector field ``derivative``;
- a run's samples: ``Samples``, a list-collecting ``simulate`` recorder, and
  ``trajectory_csv``, the trajectory CSV formatted one value at a time.

The module has no ``test_`` prefix, so pytest imports it only from the test
modules that use it.
"""

import dataclasses
import math

import numpy as np
from scipy.optimize import lsq_linear

from netpass import (
    ConfigSchemaError,
    IntegratorAgent,
    Minimizer,
    NetpassError,
    SolveStatus,
    StaticAffineAgent,
    StaticGainController,
    TanhIntegratorController,
    TrafficAgent,
    simulate,
)

BRUTE_FORCE_MAX_N = 4
BRUTE_FORCE_POINTS = 33

# Width of the numerical spike treated as "input is exactly zero" when
# evaluating the integrator's conjugate potential (an indicator of {0}).
_ZERO_INPUT_TOL = 1e-9
# Slack allowed beyond the unit interval when evaluating the saturated
# controller's conjugate potential (an indicator of [-1, 1]).
_UNIT_BOX_TOL = 1e-9


class DimensionTooLargeError(NetpassError):
    """Exhaustive search was requested for a dimension it cannot handle."""


class NonConvexDualError(NetpassError):
    """The requested dual (input-side) cost is not convex for these parameters."""


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
# the input-side (flow) dual
# ----------------------------------------------------------------------


def agent_conjugate_potential(agent, u):
    """Convex conjugate of the agent's potential: its input-side cost."""
    if isinstance(agent, TrafficAgent):
        if agent.v1 < 0.0:
            raise NonConvexDualError("input-side cost undefined for v1 < 0 (potential is concave)")
        return agent.v0 * u + 0.5 * agent.v1 * u**2
    if isinstance(agent, IntegratorAgent):
        # Indicator of {0}: only zero input admits a steady state.
        return 0.0 if abs(u) <= _ZERO_INPUT_TOL else math.inf
    if isinstance(agent, StaticAffineAgent):
        if agent.a < 0.0:
            raise NonConvexDualError("input-side cost undefined for a < 0 (potential is concave)")
        return agent.c * u + 0.5 * agent.a * u**2 + agent.c**2 / (2.0 * agent.a)
    raise _unsupported(agent)


def controller_conjugate_potential(controller, mu):
    """Convex conjugate of the edge potential: the indicator of [-1, 1] or mu^2 / (2 w)."""
    if isinstance(controller, TanhIntegratorController):
        return 0.0 if abs(mu) <= 1.0 + _UNIT_BOX_TOL else math.inf
    if isinstance(controller, StaticGainController):
        return mu**2 / (2.0 * controller.w)
    raise _unsupported(controller)


def agent_conjugate_total(agents, u):
    """Sum of the agent records' conjugate potentials at the input vector u."""
    return float(sum(agent_conjugate_potential(a, ui)
                     for a, ui in zip(agents, u, strict=True)))


def controller_conjugate_total(controllers, mu):
    """Sum of the controller records' conjugate potentials at the effort vector mu."""
    return float(sum(controller_conjugate_potential(c, m)
                     for c, m in zip(controllers, mu, strict=True)))


def flow_objective(agents, controllers, u, mu):
    """Input-side dual objective: conjugate agent costs plus conjugate edge costs.

    ``agents`` and ``controllers`` are lists of records.  Evaluates to
    ``+inf`` whenever an effort leaves its controller's dual domain or an
    input is infeasible for its agent.
    """
    return agent_conjugate_total(agents, u) + controller_conjugate_total(controllers, mu)


# ----------------------------------------------------------------------
# scenario model specs
# ----------------------------------------------------------------------

# kind -> (record class, required parameters, optional parameters), as the schema reads them
SPEC_KINDS = {
    "traffic": (TrafficAgent, ("kappa", "v0", "v1"), ()),
    "integrator": (IntegratorAgent, (), ()),
    "static_affine": (StaticAffineAgent, ("a", "c", "rho"), ("tau",)),
    "tanh_integrator": (TanhIntegratorController, (), ()),
    "static_gain": (StaticGainController, ("w",), ()),
}
AGENT_KINDS = ("traffic", "integrator", "static_affine")
CONTROLLER_KINDS = ("tanh_integrator", "static_gain")


def _spec_number(value, path):
    """A finite float; a bool, a non-number or an integer beyond the float range fails."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigSchemaError(path, f"must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigSchemaError(path, "must be finite")
    return number


def _broken_rule(kind, params):
    """(field, message) of the first parameter rule one model breaks, or None."""
    if kind == "traffic":
        kappa, v1 = params["kappa"], params["v1"]
        if v1 == 0.0:
            return "v1", "traffic agent needs v1 != 0"
        if v1 * kappa <= 0.0:
            return "v1", f"traffic agent needs v1 * kappa > 0, got {v1 * kappa}"
    elif kind == "static_affine":
        tau = params.get("tau", 1.0)
        if params["a"] == 0.0:
            return "a", "static affine agent needs a != 0"
        if tau <= 0.0:
            return "tau", f"static affine agent needs tau > 0, got {tau}"
    elif kind == "static_gain" and params["w"] <= 0.0:
        return "w", f"static gain needs w > 0, got {params['w']}"
    return None


def check_specs(specs, path, kinds):
    """A roster's specs with their nulls dropped, checked one spec at a time.

    Raises the ConfigSchemaError of the first faulty spec, named by the first
    check it fails: an object, a known kind among ``kinds``, known keys, the
    required keys present and not null, numbers in the spec's key order,
    then the model's rules.
    """
    out = []
    for k, spec in enumerate(specs):
        spec_path = f"{path}[{k}]"
        if not isinstance(spec, dict):
            raise ConfigSchemaError(spec_path, "must be an object")
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigSchemaError(f"{spec_path}.kind", f"unknown kind {kind!r}")
        _, required, optional = SPEC_KINDS[kind]
        for key in spec:
            if key not in ("kind",) + required + optional:
                raise ConfigSchemaError(f"{spec_path}.{key}", "unknown field")
        spec = {key: v for key, v in spec.items() if v is not None}
        for key in required:
            if key not in spec:
                raise ConfigSchemaError(f"{spec_path}.{key}", "missing required field")
        params = {key: _spec_number(v, f"{spec_path}.{key}")
                  for key, v in spec.items() if key != "kind"}
        broken = _broken_rule(kind, params)
        if broken is not None:
            raise ConfigSchemaError(f"{spec_path}.{broken[0]}", broken[1])
        out.append(spec)
    return out


def spec_coefficients(spec):
    """A valid null-free spec's coefficients, one Python float operation at a time.

    An agent's are (rho, p, q, g, slope, intercept, const, anchor); a
    controller's (saturated, w).
    """
    kind = spec["kind"]
    params = {key: float(v) for key, v in spec.items() if key != "kind"}
    if kind == "traffic":
        kappa, v0, v1 = params["kappa"], params["v0"], params["v1"]
        return (kappa, -kappa, kappa * v1, kappa * v0,
                1.0 / v1, -v0 / v1, v0**2 / (2.0 * v1), v0)
    if kind == "integrator":
        return (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    if kind == "static_affine":
        a, c, tau, rho = params["a"], params["c"], params.get("tau", 1.0), params["rho"]
        return (rho, -tau, tau * a, tau * c, 1.0 / a, -c / a, 0.0, c)
    if kind == "tanh_integrator":
        return (True, 0.0)
    if kind == "static_gain":
        return (False, params["w"])
    raise TypeError(f"no reference coefficients for kind {kind!r}")


def spec_records(specs):
    """The records that valid null-free specs describe, their numbers as floats."""
    return [SPEC_KINDS[spec["kind"]][0](**{key: float(v) for key, v in spec.items()
                                          if key != "kind"})
            for spec in specs]


# ----------------------------------------------------------------------
# the graph
# ----------------------------------------------------------------------


def incidence(graph):
    """The graph's n x m incidence matrix: +1 at each edge's head, -1 at its tail."""
    E = np.zeros((graph.n_vertices, graph.n_edges))
    for k, (head, tail) in enumerate(graph.edges):
        E[head, k], E[tail, k] = 1.0, -1.0
    return E


def paper_edge_gain_bound(rho, graph):
    """The paper's sufficient uniform edge gain, in its m x m form.

    max(0, lambda_max(E^T M E)) / lambda_2**2 with M = (n / sum(rho)) R^2 - R
    and R = diag(rho); any uniform gain above it certifies, and it is never
    below the exact threshold ``edge_gain_threshold``.
    """
    rho = np.asarray(rho, dtype=float)
    E = incidence(graph)
    quad = (graph.n_vertices / math.fsum(rho)) * (E.T * rho**2) @ E - (E.T * rho) @ E
    top = float(np.linalg.eigvalsh(quad)[-1])
    return max(0.0, top / np.linalg.eigvalsh(graph.laplacian())[1] ** 2)


# ----------------------------------------------------------------------
# the regularized problem
# ----------------------------------------------------------------------


def objective_batch(problem, Y):
    """The problem's objective for each row of Y, shape (P, n) -> (P,)."""
    Y = np.asarray(Y, dtype=float)
    Z = Y @ incidence(problem.graph)
    vals = agent_bank_potential_batch(problem.agents, Y)
    vals = vals + controller_bank_potential_batch(problem.controllers, Z)
    vals = vals + 0.5 * (Z**2 @ problem.beta)
    vals = vals + 0.5 * (Y**2 @ problem.alpha)
    return vals


def bvls_residual(problem, y):
    """Stationarity residual of y and an optimal effort selection, by BVLS.

    The selection is the effort bounds' midpoint on the fixed edges; on the
    free ones (a nonempty interval) it minimizes ``||smooth_gradient(y) +
    E s||`` by bounded-variable least squares (Stark & Parker, Comput. Stat.
    1995) on their dense incidence columns, column-major.
    """
    graph = problem.graph
    y = np.asarray(y, dtype=float)
    gradient = problem.smooth_gradient(y)
    lower, upper = problem.controllers.effort_bounds(y[graph.heads] - y[graph.tails])
    selection = 0.5 * (lower + upper)
    free = upper - lower > 1e-15
    if free.any():
        columns = np.asfortranarray(incidence(graph)[:, free])
        fit = lsq_linear(columns, -(gradient + graph.scatter(selection)),
                         bounds=(lower[free], upper[free]), method="bvls")
        selection[free] = fit.x
    return float(np.linalg.norm(gradient + graph.scatter(selection))), selection


def brute_force(problem, box=None, spacing=1e-3):
    """Zooming exhaustive grid minimization, independent of the active-set solver.

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
    zeta = incidence(problem.graph).T @ y_best
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
    y, E = np.asarray(x, dtype=float), incidence(system.graph)
    zeta = E.T @ y
    mu = controller_bank_output(system.controllers, eta, zeta)
    u = -E @ (mu + system.gain.beta * zeta) - system.gain.alpha * y
    return y, zeta, mu, u


def derivative(system, x, eta):
    """Closed-loop vector field at state (x, eta) from ``system.rate``: (x_dot, eta_dot).

    ``rate`` maps the stepped state [x, eta_sat]; a static edge's eta_dot is zero.
    """
    n, sat = system.graph.n_vertices, system.controllers.saturated
    z = np.concatenate((np.asarray(x, float), np.asarray(eta, float)[sat]))
    z_dot = np.empty(z.size)
    system.rate(z, z_dot, np.empty(z.size))
    eta_dot = np.zeros(sat.size)
    eta_dot[sat] = z_dot[n:]
    return z_dot[:n], eta_dot


# ----------------------------------------------------------------------
# a run's samples
# ----------------------------------------------------------------------


class Samples:
    """A ``simulate`` recorder that keeps a copy of every sample it is handed."""

    def __init__(self):
        self.times, self.rows = [], []

    def __call__(self, times, rows):
        self.times.append(times.copy())
        self.rows.append(rows.copy())

    def states(self, n, saturated, eta0=None):
        """The kept samples' (times, x_states, eta_states), one column per sample.

        The rows hold [x, eta_sat]; a static edge's eta is never stepped, so it
        is ``eta0``'s (0 when None) at every sample.
        """
        rows = np.concatenate(self.rows)
        eta = np.zeros(saturated.size) if eta0 is None else np.asarray(eta0, dtype=float)
        eta_states = np.repeat(eta[:, None], len(rows), axis=1)
        eta_states[saturated] = rows[:, n:].T
        return np.concatenate(self.times), rows[:, :n].T, eta_states


def simulate_recorded(system, **kwargs):
    """``simulate`` through a ``Samples`` recorder: its run, every sample in the state arrays."""
    samples = Samples()
    run = simulate(system, record=samples, **kwargs)
    times, x_states, eta_states = samples.states(system.graph.n_vertices,
                                                 system.controllers.saturated, kwargs.get("eta0"))
    return dataclasses.replace(run, times=times, x_states=x_states, eta_states=eta_states)


def trajectory_csv(times, x_states, eta_states, saturated):
    """The trajectory CSV's text: a header, then t, x and eta, each value as ``%.12g``.

    A static edge's eta is written "0" in every row: every controller state starts at 0.
    """
    n, m = x_states.shape[0], eta_states.shape[0]
    lines = [",".join(["t"] + [f"x_{i}" for i in range(n)] + [f"eta_{e}" for e in range(m)])]
    for j, t in enumerate(times):
        cells = ["%.12g" % v for v in (t, *x_states[:, j])]
        cells += ["%.12g" % eta if sat else "0" for eta, sat in zip(eta_states[:, j], saturated)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"

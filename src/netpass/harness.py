"""Scenario configuration, end-to-end verification, and report emission.

A scenario bundles a graph, agent and controller rosters, a gain mode, and
simulation/solver settings.  ``verify`` runs the whole pipeline: synthesize
a gain, certify it, simulate the closed loop, solve the matching steady-state
optimization, and compare the two answers.  The stage functions
``synthesis_stage``, ``simulation_stage`` and ``optimization_stage`` each
return their result and report payload; CLI commands run a prefix of them.
``verify`` only reports a pass when the certificate is positive definite
(``check`` and ``synthesize`` read the same answer), the simulation settled,
the solver finished clean, and the two outputs agree within tolerance.

When the certified gain still leaves the optimization probe below its floor
(the certificate is stated in terms of the declared indices, which for some
agent models undershoot the curvature that actually enters the objective),
verify deterministically escalates the synthesis margin epsilon by doubling
until the probe clears, and records how many doublings it took.  Edge gains
drop out on each component's indicator vector, so the probe never exceeds
the smallest component mean of curvature plus vertex gain: when that bound is
at or below the floor the rounds only make the probe non-negative, and when
it is not positive none runs.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .agents import AgentBank, IntegratorAgent, StaticAffineAgent, TrafficAgent
from .controllers import ControllerBank, StaticGainController, TanhIntegratorController
from .errors import (
    ConfigParseError,
    ConfigSchemaError,
    NetpassError,
    NotPassivizableError,
    NumericalBlowupError,
)
from .graph import NetworkGraph
from .netopt import SolveStatus, build_problem, solve
from .passivation import hybrid_gain, uniform_network_gain, zero_design
from .sim import ClosedLoopSystem, simulate

__all__ = [
    "ScenarioConfig",
    "VerifyReport",
    "load_config",
    "config_from_dict",
    "generate_case_study",
    "build_system_parts",
    "synthesize_certified",
    "synthesis_stage",
    "simulation_stage",
    "optimization_stage",
    "verify",
    "json_text",
    "round_floats",
    "write_trajectory_csv",
    "emit_report",
    "cluster_count",
]

_GAIN_MODES = ("none", "network_only", "hybrid")
_AGENT_KINDS = {"traffic": TrafficAgent, "integrator": IntegratorAgent,
                "static_affine": StaticAffineAgent}
_CONTROLLER_KINDS = {"tanh_integrator": TanhIntegratorController,
                     "static_gain": StaticGainController}
# The escalation loop doubles the synthesis margin until the objective's
# worst-case curvature clears this floor; a healthy floor also bounds how
# long the closed loop takes to settle.
_PROBE_MIN = 1e-2
_MAX_ESCALATIONS = 12
_CLUSTER_GAP = 1.0
# Samples the trajectory CSV writer formats at once; bounds its Python floats.
_CSV_BLOCK = 256


# ----------------------------------------------------------------------
# configuration schema
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description, storable as JSON."""

    graph: dict
    agents: tuple
    controllers: tuple
    gain_mode: str = "network_only"
    self_regulating: tuple = ()
    epsilon: float = None
    dt: float = None
    t_max: float = None
    steady_tol: float = 1e-8
    x0: tuple = None
    seed: int = 0
    solver_step: float = 1.0
    solver_max_iter: int = 100000
    solver_tol: float = 1e-8
    mismatch_tol: float = 1e-2

    def to_dict(self):
        return {
            "graph": {"n": self.graph["n"],
                      "edges": [list(e) for e in self.graph["edges"]]},
            "agents": [dict(a) for a in self.agents],
            "controllers": [dict(c) for c in self.controllers],
            "gain_mode": self.gain_mode,
            "self_regulating": list(self.self_regulating),
            "epsilon": self.epsilon,
            "sim": {
                "dt": self.dt,
                "t_max": self.t_max,
                "steady_tol": self.steady_tol,
                "x0": None if self.x0 is None else list(self.x0),
                "seed": self.seed,
            },
            "solver": {
                "step": self.solver_step,
                "max_iter": self.solver_max_iter,
                "tol": self.solver_tol,
            },
            "mismatch_tol": self.mismatch_tol,
        }


def _fail(path, message):
    raise ConfigSchemaError(path, message)


def _get_number(d, key, path, default=None, required=False, positive=False,
                allow_none=False):
    if key not in d or d[key] is None:
        if required and key not in d:
            _fail(f"{path}.{key}", "missing required field")
        if key in d and d[key] is None and not allow_none:
            _fail(f"{path}.{key}", "must be a number")
        return default
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", f"must be a number, got {type(value).__name__}")
    if not math.isfinite(value):
        _fail(f"{path}.{key}", "must be finite")
    if positive and value <= 0:
        _fail(f"{path}.{key}", f"must be positive, got {value}")
    return float(value)


def _get_int(d, key, path, default=None, required=False, minimum=None):
    if key not in d or d[key] is None:
        if required:
            _fail(f"{path}.{key}", "missing required field")
        return default
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}.{key}", f"must be an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(f"{path}.{key}", f"must be at least {minimum}, got {value}")
    return value


def _check_keys(d, allowed, path):
    for key in d:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown field")


def _validate_agent(spec, path):
    if not isinstance(spec, dict):
        _fail(path, "must be an object")
    kind = spec.get("kind")
    if kind == "traffic":
        _check_keys(spec, {"kind", "kappa", "v0", "v1"}, path)
        kappa = _get_number(spec, "kappa", path, required=True)
        _get_number(spec, "v0", path, required=True)
        v1 = _get_number(spec, "v1", path, required=True)
        if v1 == 0.0:
            _fail(f"{path}.v1", "must be nonzero")
        if v1 * kappa <= 0.0:
            _fail(f"{path}.v1", "must have the same sign as kappa")
    elif kind == "integrator":
        _check_keys(spec, {"kind"}, path)
    elif kind == "static_affine":
        _check_keys(spec, {"kind", "a", "c", "tau", "rho"}, path)
        a = _get_number(spec, "a", path, required=True)
        _get_number(spec, "c", path, required=True)
        _get_number(spec, "tau", path, positive=True)
        _get_number(spec, "rho", path, required=True)
        if a == 0.0:
            _fail(f"{path}.a", "must be nonzero")
    else:
        _fail(f"{path}.kind", f"unknown agent kind {kind!r}")


def _validate_controller(spec, path):
    if not isinstance(spec, dict):
        _fail(path, "must be an object")
    kind = spec.get("kind")
    if kind == "tanh_integrator":
        _check_keys(spec, {"kind"}, path)
    elif kind == "static_gain":
        _check_keys(spec, {"kind", "w"}, path)
        w = _get_number(spec, "w", path, required=True)
        if w <= 0.0:
            _fail(f"{path}.w", f"must be positive, got {w}")
    else:
        _fail(f"{path}.kind", f"unknown controller kind {kind!r}")


def config_from_dict(data):
    """Validate a raw dictionary into a ScenarioConfig.

    Raises ConfigSchemaError carrying the dotted path of the first offending
    field.
    """
    if not isinstance(data, dict):
        _fail("$", "top level must be an object")
    _check_keys(data, {"graph", "agents", "controllers", "gain_mode",
                       "self_regulating", "epsilon", "sim", "solver",
                       "mismatch_tol"}, "$")

    graph_spec = data.get("graph")
    if not isinstance(graph_spec, dict):
        _fail("$.graph", "missing or not an object")
    _check_keys(graph_spec, {"n", "edges"}, "$.graph")
    n = _get_int(graph_spec, "n", "$.graph", required=True, minimum=1)
    edges_raw = graph_spec.get("edges")
    if not isinstance(edges_raw, list):
        _fail("$.graph.edges", "must be a list of [head, tail] pairs")
    edges = []
    for k, e in enumerate(edges_raw):
        if (not isinstance(e, list)) or len(e) != 2 \
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in e):
            _fail(f"$.graph.edges[{k}]", "must be a pair of integers")
        edges.append((e[0], e[1]))
    try:
        graph = NetworkGraph(n, tuple(edges))
    except NetpassError as exc:
        _fail("$.graph.edges", str(exc))

    agents_raw = data.get("agents")
    if not isinstance(agents_raw, list):
        _fail("$.agents", "must be a list")
    if len(agents_raw) != n:
        _fail("$.agents", f"expected {n} agents, got {len(agents_raw)}")
    for k, spec in enumerate(agents_raw):
        _validate_agent(spec, f"$.agents[{k}]")

    controllers_raw = data.get("controllers")
    if not isinstance(controllers_raw, list):
        _fail("$.controllers", "must be a list")
    if len(controllers_raw) != graph.n_edges:
        _fail("$.controllers",
              f"expected {graph.n_edges} controllers, got {len(controllers_raw)}")
    for k, spec in enumerate(controllers_raw):
        _validate_controller(spec, f"$.controllers[{k}]")

    gain_mode = data.get("gain_mode", "network_only")
    if gain_mode not in _GAIN_MODES:
        _fail("$.gain_mode", f"must be one of {_GAIN_MODES}, got {gain_mode!r}")

    vsr_raw = data.get("self_regulating", [])
    if not isinstance(vsr_raw, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in vsr_raw):
        _fail("$.self_regulating", "must be a list of integers")
    for k, v in enumerate(vsr_raw):
        if not 0 <= v < n:
            _fail(f"$.self_regulating[{k}]", f"vertex {v} outside 0..{n - 1}")
    if gain_mode == "hybrid" and not vsr_raw:
        _fail("$.self_regulating", "hybrid mode needs at least one vertex")
    if gain_mode == "hybrid" and not graph.is_connected():
        _fail("$.gain_mode", "hybrid mode needs a connected graph")

    epsilon = _get_number(data, "epsilon", "$", allow_none=True, positive=True)

    sim_spec = {} if data.get("sim") is None else data["sim"]
    if not isinstance(sim_spec, dict):
        _fail("$.sim", "must be an object")
    _check_keys(sim_spec, {"dt", "t_max", "steady_tol", "x0", "seed"}, "$.sim")
    dt = _get_number(sim_spec, "dt", "$.sim", allow_none=True, positive=True)
    t_max = _get_number(sim_spec, "t_max", "$.sim", allow_none=True, positive=True)
    steady_tol = _get_number(sim_spec, "steady_tol", "$.sim", default=1e-8,
                             positive=True)
    x0_raw = sim_spec.get("x0")
    if x0_raw is not None:
        if not isinstance(x0_raw, list) or len(x0_raw) != n or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) for v in x0_raw):
            _fail("$.sim.x0", f"must be a list of {n} finite numbers")
        x0_raw = tuple(float(v) for v in x0_raw)
    seed = _get_int(sim_spec, "seed", "$.sim", default=0)

    solver_spec = {} if data.get("solver") is None else data["solver"]
    if not isinstance(solver_spec, dict):
        _fail("$.solver", "must be an object")
    _check_keys(solver_spec, {"step", "max_iter", "tol"}, "$.solver")
    step = _get_number(solver_spec, "step", "$.solver", default=1.0, positive=True)
    max_iter = _get_int(solver_spec, "max_iter", "$.solver", default=100000,
                        minimum=1)
    tol = _get_number(solver_spec, "tol", "$.solver", default=1e-8, positive=True)

    mismatch_tol = _get_number(data, "mismatch_tol", "$", default=1e-2,
                               positive=True)

    return ScenarioConfig(
        graph={"n": n, "edges": [list(e) for e in edges]},
        agents=tuple(dict(a) for a in agents_raw),
        controllers=tuple(dict(c) for c in controllers_raw),
        gain_mode=gain_mode,
        self_regulating=tuple(vsr_raw),
        epsilon=epsilon,
        dt=dt,
        t_max=t_max,
        steady_tol=steady_tol,
        x0=x0_raw,
        seed=seed,
        solver_step=step,
        solver_max_iter=max_iter,
        solver_tol=tol,
        mismatch_tol=mismatch_tol,
    )


def load_config(path):
    """Read and validate a JSON scenario file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}: invalid JSON ({exc})")
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: not UTF-8 ({exc})")
    return config_from_dict(data)


def _model(classes, spec):
    """The model a validated spec describes, its parameters as floats."""
    return classes[spec["kind"]](**{k: float(v) for k, v in spec.items() if k != "kind"})


def build_system_parts(config: ScenarioConfig):
    """Materialize (graph, agent bank, controller bank) from a validated config."""
    graph = NetworkGraph.from_dict(config.graph)
    agents = AgentBank([_model(_AGENT_KINDS, spec) for spec in config.agents])
    controllers = ControllerBank([_model(_CONTROLLER_KINDS, spec)
                                  for spec in config.controllers])
    return graph, agents, controllers


# ----------------------------------------------------------------------
# case-study generation
# ----------------------------------------------------------------------


def generate_case_study(n, seed):
    """Deterministic traffic scenario on the complete graph with n vehicles.

    Each agent's rate kappa is -1 with probability 1/3 and +1 otherwise; the
    free-flow velocity is drawn from an even two-component Gaussian mixture
    with means 20 and 120 and standard deviation 15; the input gain is 0.8
    times the rate, and every edge carries a saturated integrating
    controller.
    """
    if n < 2:
        raise ValueError("case study needs at least 2 agents")
    rng = np.random.default_rng(seed)
    kappa = np.where(rng.random(n) < 1.0 / 3.0, -1.0, 1.0)
    mix = rng.random(n) < 0.5
    v0 = np.where(mix, 20.0, 120.0) + 15.0 * rng.standard_normal(n)
    graph = NetworkGraph.complete(n)
    agents = [{"kind": "traffic", "kappa": float(k), "v0": float(v), "v1": float(0.8 * k)}
              for k, v in zip(kappa, v0)]
    controllers = [{"kind": "tanh_integrator"} for _ in range(graph.n_edges)]
    return config_from_dict({
        "graph": graph.to_dict(),
        "agents": agents,
        "controllers": controllers,
        "gain_mode": "network_only",
        "sim": {"seed": int(seed)},
    })


# ----------------------------------------------------------------------
# verification pipeline
# ----------------------------------------------------------------------


@dataclass
class VerifyReport:
    """Outcome of the full synthesize/simulate/optimize comparison."""

    config: dict
    feasible: bool
    verdict: str
    passed: bool
    gain: dict = None
    convexity_probe: float = None
    sim: dict = None
    opt: dict = None
    mismatch: float = None
    clusters: int = None
    trajectory: object = field(default=None, repr=False, compare=False)

    def to_dict(self):
        return round_floats({
            "config": self.config,
            "feasible": self.feasible,
            "verdict": self.verdict,
            "passed": self.passed,
            "gain": self.gain,
            "convexity_probe": self.convexity_probe,
            "sim": self.sim,
            "opt": self.opt,
            "mismatch": self.mismatch,
            "clusters": self.clusters,
        })


def round_floats(obj, digits=12):
    """Round every float to the given number of significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, digits) for v in obj]
    return obj


def cluster_count(y, gap=_CLUSTER_GAP):
    """Number of output clusters after sorting, split at gaps above ``gap``."""
    y = np.sort(np.asarray(y, dtype=float))
    if y.size == 0:
        return 0
    return int(1 + np.count_nonzero(np.diff(y) > gap))


def _synthesize(config, rho, graph, epsilon):
    if config.gain_mode == "network_only":
        return uniform_network_gain(rho, graph, epsilon)
    if config.gain_mode == "hybrid":
        return hybrid_gain(rho, graph, config.self_regulating, epsilon)
    return zero_design(rho, graph)


def synthesize_certified(config, graph, agents, controllers):
    """Synthesize a gain, doubling the margin until the curvature probe clears.

    Returns (design, problem, probe value, escalation count).  Each retry
    doubles the plain synthesis's margin, up to a fixed cap.  The probe's bound
    is the smallest component mean of slope + alpha; the floor is 0 when the
    bound lies under it, and no round runs when the bound is not positive.
    """
    rho = agents.rho_vector
    design = _synthesize(config, rho, graph, config.epsilon)
    problem = build_problem(graph, agents, controllers, design)
    probe = problem.convexity_probe()
    escalations = 0
    curvature = agents.slope + design.alpha
    bound = min(np.mean(curvature[comp]) for comp in graph.connected_components())
    floor = _PROBE_MIN if bound > _PROBE_MIN else 0.0
    if config.gain_mode != "none" and bound > 0.0:
        base_eps = design.epsilon
        while probe < floor and escalations < _MAX_ESCALATIONS:
            escalations += 1
            design = _synthesize(config, rho, graph, base_eps * 2.0**escalations)
            problem = build_problem(graph, agents, controllers, design)
            probe = problem.convexity_probe()
    return design, problem, probe, escalations


def synthesis_stage(config, graph, agents, controllers):
    """First stage: a certified gain, escalated until the probe clears.

    Returns (design, problem, probe value, the report's ``gain`` payload).
    Raises NotPassivizableError when no network-only gain exists.
    """
    design, problem, probe, escalations = synthesize_certified(
        config, graph, agents, controllers)
    certificate = design.certificate
    gain = {
        "mode": config.gain_mode,
        "threshold": design.threshold,
        "epsilon": design.epsilon,
        "escalations": escalations,
        "alpha": design.alpha.tolist(),
        "beta": design.beta.tolist(),
        "certificate": certificate.min_eig,
        "certificate_tol": certificate.tol,
        "positive_definite": certificate.positive_definite,
    }
    return design, problem, probe, gain


def simulation_stage(config, graph, agents, controllers, design):
    """Second stage: the closed-loop run and the report's ``sim`` payload.

    Returns (trajectory, sim payload); after a numerical blowup the
    trajectory is None and the payload carries the error.
    """
    system = ClosedLoopSystem(graph, agents, controllers, design)
    try:
        trajectory = simulate(
            system,
            x0=config.x0,
            dt=config.dt,
            t_max=config.t_max,
            steady_tol=config.steady_tol,
            seed=config.seed,
        )
    except NumericalBlowupError as exc:
        return None, {"converged": False, "error": str(exc)}
    return trajectory, {
        "converged": trajectory.converged,
        "residual": trajectory.residual,
        "t_end": float(trajectory.times[-1]),
        "y_ss": None if trajectory.y_ss is None else trajectory.y_ss.tolist(),
    }


def optimization_stage(config, problem):
    """Third stage: the regularized problem's minimizer and the ``opt`` payload."""
    minimizer = solve(problem, step=config.solver_step,
                      max_iter=config.solver_max_iter, tol=config.solver_tol)
    return minimizer, {
        "status": minimizer.status.value,
        "iterations": minimizer.iterations,
        "objective": minimizer.objective_value,
        "primal_residual": minimizer.primal_residual,
        "dual_residual": minimizer.dual_residual,
        "y_star": minimizer.y_star.tolist(),
        "zeta_star": minimizer.zeta_star.tolist(),
    }


def verify(config: ScenarioConfig):
    """Run the three stages and compare simulated and optimized steady states."""
    parts = build_system_parts(config)
    report = VerifyReport(config=config.to_dict(), feasible=False,
                          verdict="infeasible", passed=False)
    try:
        design, problem, probe, gain = synthesis_stage(config, *parts)
    except NotPassivizableError:
        return report
    if not gain["positive_definite"]:
        return report
    report.feasible = True
    report.gain = gain
    report.convexity_probe = probe

    trajectory, report.sim = simulation_stage(config, *parts, design)
    if trajectory is None:
        report.verdict = "blowup"
        return report
    report.trajectory = trajectory

    minimizer, report.opt = optimization_stage(config, problem)

    if trajectory.converged:
        report.mismatch = float(np.max(np.abs(trajectory.y_ss - minimizer.y_star)))
        report.clusters = cluster_count(trajectory.y_ss)

    report.passed = bool(
        trajectory.converged
        and minimizer.status is SolveStatus.OPTIMAL
        and report.mismatch is not None
        and report.mismatch <= config.mismatch_tol
    )
    if report.passed:
        report.verdict = "pass"
    elif minimizer.status is SolveStatus.NONCONVEX_DETECTED:
        report.verdict = "nonconvex"
    elif not trajectory.converged:
        report.verdict = "not_converged"
    elif minimizer.status is not SolveStatus.OPTIMAL:
        report.verdict = "solver_stalled"
    else:
        report.verdict = "mismatch"
    return report


# ----------------------------------------------------------------------
# report emission
# ----------------------------------------------------------------------


def json_text(payload):
    """The JSON text every payload, report and scenario file is written as."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_trajectory_csv(trajectory, path):
    """Write columns t, x_0.., eta_0.., one row per sample, each value as ``%.12g``."""
    n = trajectory.x_states.shape[0]
    m = trajectory.eta_states.shape[0]
    line = ",".join(["%.12g"] * (1 + n + m)) + "\n"
    with open(path, "w") as fh:
        header = ["t"] + [f"x_{i}" for i in range(n)] + [f"eta_{e}" for e in range(m)]
        fh.write(",".join(header) + "\n")
        for start in range(0, trajectory.times.size, _CSV_BLOCK):
            cols = slice(start, start + _CSV_BLOCK)
            block = np.vstack((trajectory.times[cols], trajectory.x_states[:, cols],
                               trajectory.eta_states[:, cols]))
            fh.writelines(line % tuple(row) for row in block.T.tolist())


def emit_report(report: VerifyReport, json_path=None, trajectory_csv=None,
                pairs_csv=None):
    """Write the JSON report and optional CSV companions.

    The trajectory CSV has columns t, x_0.., eta_0..; the pairs CSV lists
    per-vertex simulated and optimized steady outputs.  All floats are
    written with 12 significant digits so identical runs produce identical
    bytes.
    """
    if json_path is not None:
        with open(json_path, "w") as fh:
            fh.write(json_text(report.to_dict()))
    if trajectory_csv is not None and report.trajectory is not None:
        write_trajectory_csv(report.trajectory, trajectory_csv)
    if pairs_csv is not None and report.opt:
        # An opt payload exists only after a run, so sim holds y_ss.
        y_ss = report.sim["y_ss"]
        with open(pairs_csv, "w") as fh:
            fh.write("vertex,y_ss,y_star\n")
            if y_ss is not None:
                for i, (a, b) in enumerate(zip(y_ss, report.opt["y_star"])):
                    fh.write("%d,%.12g,%.12g\n" % (i, a, b))

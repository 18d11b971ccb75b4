"""Scenario configuration, end-to-end verification, and report emission.

A scenario bundles a graph, agent and controller rosters, a gain mode, and
simulation/solver settings.  The file format is described once: each
``ScenarioConfig`` field carries its section, key, default and rule, and
``_AGENT_KINDS``/``_CONTROLLER_KINDS`` give each model kind its class and
optional parameters.  The banks evaluate the classes' parameter rules and
coefficient formulas over each kind's columns: validation builds no record.

``verify`` runs the whole pipeline: synthesize a gain, certify it, simulate
the closed loop, solve the matching steady-state optimization, and compare
the two answers.  The stage functions ``synthesis_stage``,
``simulation_stage`` and ``optimization_stage`` each return their result and
report payload; CLI commands run a prefix of them.  ``verify`` only reports
a pass when the certificate is positive definite (``check`` and
``synthesize`` read the same answer), the simulation settled, the solver
finished clean, and the two outputs agree within tolerance.

Gains are synthesized once, on the agents' steady-state slopes, which are
the curvatures that enter the objective, less a probe floor: a
positive-definite certificate then means the objective's convexity probe
clears that floor (``synthesize_gain``).
"""

import contextlib
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .agents import AgentBank, IntegratorAgent, StaticAffineAgent, TrafficAgent
from .controllers import ControllerBank, StaticGainController, TanhIntegratorController
from .errors import (
    ConfigError,
    ConfigParseError,
    ConfigSchemaError,
    NetpassError,
    NotPassivizableError,
    NumericalBlowupError,
    ParameterError,
)
from .graph import NetworkGraph, cluster_labels
from .netopt import SOLVER_MAX_ITER, SOLVER_STEP, SOLVER_TOL, SolveStatus, build_problem, solve
from .passivation import component_sums, hybrid_gain, uniform_network_gain, zero_design
from .sim import HORIZON, MIN_STEP, STEADY_TOL, ClosedLoopSystem, simulate

__all__ = [
    "ScenarioConfig", "VerifyReport", "load_config", "config_from_dict",
    "generate_case_study", "verify", "emit_report",
]

_GAIN_MODES = ("none", "network_only", "hybrid")
_REQUIRED = object()  # the default of a setting that the file must give
# Gains are synthesized on the agents' slopes less this floor, so a certified
# design's convexity probe clears it; a healthy floor also bounds how long the
# closed loop takes to settle.
_PROBE_MIN = 1e-2


# ----------------------------------------------------------------------
# configuration schema
# ----------------------------------------------------------------------


def _fail(path, message):
    raise ConfigSchemaError(path, message)


def _check_keys(d, allowed, path):
    for key in d:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown field")


def _number(value, path):
    """The one number reader: a finite float; bools and overflowing integers fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        _fail(path, "must be finite")
    return number


def _positive(value, path, settings):
    number = _number(value, path)
    if number <= 0.0:
        _fail(path, f"must be positive, got {number}")
    return number


def _integer(value, path, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"must be an integer, got {type(value).__name__}")
    if value < minimum:
        _fail(path, f"must be at least {minimum}, got {value}")
    return value


def _graph(spec, path, settings):
    if not isinstance(spec, dict):
        _fail(path, "must be an object")
    _check_keys(spec, {"n", "edges"}, path)
    if spec.get("n") is None:
        _fail(f"{path}.n", "missing required field")
    n = _integer(spec["n"], f"{path}.n", 1)
    edges = spec.get("edges")
    if not isinstance(edges, list):
        _fail(f"{path}.edges", "must be a list of [head, tail] pairs")
    return {"n": n, "edges": edges}  # ``_build`` checks the edges and stores the graph's own


def _count(specs, path, count):
    if not isinstance(specs, list):
        _fail(path, "must be a list")
    if len(specs) != count:
        _fail(path, f"expected {count} entries, got {len(specs)}")
    return specs


def _gain_mode(value, path, settings):
    if value not in _GAIN_MODES:
        _fail(path, f"must be one of {_GAIN_MODES}, got {value!r}")
    return value


def _vertices(value, path, settings):
    n = settings["graph"]["n"]
    if not isinstance(value, list):
        _fail(path, "must be a list of integers")
    for k, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, int):
            _fail(f"{path}[{k}]", f"must be an integer, got {type(v).__name__}")
        if not 0 <= v < n:
            _fail(f"{path}[{k}]", f"vertex {v} outside 0..{n - 1}")
    return tuple(value)


def _outputs(value, path, settings):
    n = settings["graph"]["n"]
    if not isinstance(value, list) or len(value) != n:
        _fail(path, f"must be a list of {n} finite numbers")
    return tuple(_number(v, f"{path}[{k}]") for k, v in enumerate(value))


def _setting(section, key, default, rule):
    """A ScenarioConfig field's schema: where the file holds it, its default and rule."""
    return field(metadata={"schema": (section, key, default, rule)})


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description, storable as JSON; each field declares its schema.

    A field's ``_setting`` gives its file section (None at top level), key,
    default and rule, which maps (value, path, the settings read so far) to the
    stored value; an absent or null key takes the default, a _REQUIRED one fails.
    The graph and model rules check only shapes and counts, so a wrong count
    fails before ``_build`` builds anything n-sized.  ``parts`` holds the (graph,
    agent bank, controller bank) that validation built, outside the description.
    """

    graph: dict = _setting(None, "graph", _REQUIRED, _graph)
    agents: tuple = _setting(None, "agents", _REQUIRED,
                             lambda v, path, s: _count(v, path, s["graph"]["n"]))
    controllers: tuple = _setting(None, "controllers", _REQUIRED,
                                  lambda v, path, s: _count(v, path, len(s["graph"]["edges"])))
    gain_mode: str = _setting(None, "gain_mode", "network_only", _gain_mode)
    self_regulating: tuple = _setting(None, "self_regulating", (), _vertices)
    epsilon: float = _setting(None, "epsilon", None, _positive)
    dt: float = _setting("sim", "dt", None, _positive)
    t_max: float = _setting("sim", "t_max", None, _positive)
    steady_tol: float = _setting("sim", "steady_tol", STEADY_TOL, _positive)
    x0: tuple = _setting("sim", "x0", None, _outputs)
    seed: int = _setting("sim", "seed", 0, lambda v, path, _: _integer(v, path, 0))
    solver_step: float = _setting("solver", "step", SOLVER_STEP, _positive)
    solver_max_iter: int = _setting("solver", "max_iter", SOLVER_MAX_ITER,
                                    lambda v, path, _: _integer(v, path, 1))
    solver_tol: float = _setting("solver", "tol", SOLVER_TOL, _positive)
    mismatch_tol: float = _setting(None, "mismatch_tol", 1e-2, _positive)
    parts: tuple = field(repr=False, compare=False)

    def to_dict(self):
        """The stored description in fresh JSON containers, copied to the schema's shapes."""
        data = {section: {} for section in _SECTION_KEYS if section is not None}
        for name, (section, key, _, _) in _SETTINGS.items():
            value = getattr(self, name)
            if name == "graph":
                value = {"n": value["n"], "edges": list(map(list, value["edges"]))}
            elif isinstance(value, tuple):  # flat spec dicts, or numbers
                value = list(map(dict, value)) if name in ("agents", "controllers") else list(value)
            (data if section is None else data[section])[key] = value
        return data


# ScenarioConfig attribute -> (section, key, default, rule), in field order.
_SETTINGS = {f.name: f.metadata["schema"] for f in fields(ScenarioConfig) if f.metadata}
# section -> the keys it may hold; the top level also holds the sections.
_SECTION_KEYS = {section: {k for s, k, _, _ in _SETTINGS.values() if s == section}
                 for section, _, _, _ in _SETTINGS.values()}
_SECTION_KEYS[None] |= _SECTION_KEYS.keys() - {None}


def _specs(specs, path, kinds, bank):
    """Model specs with their nulls dropped, and the ``bank`` built from their columns.

    One pass checks shapes and numbers, and the bank the model rules, naming the
    first faulty spec by its first failing check.  A roster of nothing but a
    parameterless kind's one spec is compared in C and shares one dict.
    """
    for kind, (cls, _) in kinds.items():
        shared = {"kind": kind}
        if not cls.__match_args__ and specs.count(shared) == len(specs):
            every = range(len(specs))
            return (shared,) * len(specs), bank.from_columns(len(specs), {cls: (every, [])})
    out = []
    columns = {cls: ([], [[] for _ in cls.__match_args__]) for cls, _ in kinds.values()}
    try:
        for k, spec in enumerate(specs):
            if not isinstance(spec, dict):
                _fail(f"{path}[{k}]", "must be an object")
            kind = spec.get("kind")
            if not isinstance(kind, str) or kind not in kinds:
                _fail(f"{path}[{k}].kind", f"unknown kind {kind!r}")
            cls, optional = kinds[kind]
            _check_keys(spec, ("kind",) + cls.__match_args__, f"{path}[{k}]")
            spec = {key: v for key, v in spec.items() if v is not None}
            for key in cls.__match_args__:
                if key not in spec and key not in optional:
                    _fail(f"{path}[{k}].{key}", "missing required field")
            numbers = {key: _number(v, f"{path}[{k}].{key}")
                       for key, v in spec.items() if key != "kind"}
            positions, params = columns[cls]
            for name, column in zip(cls.__match_args__, params, strict=True):
                column.append(numbers[name] if name in numbers else getattr(cls, name))
            out.append(spec)
            positions.append(k)
    finally:  # a rule broken before a spec that failed the pass is named instead
        try:
            built = bank.from_columns(len(out), columns)
        except ParameterError as exc:
            _fail(f"{path}[{exc.index}].{exc.field}", str(exc))
    return tuple(out), built


def _build(settings):
    """The (graph, agent bank, controller bank); stores the graph's edges and null-free specs."""
    try:
        graph = NetworkGraph(settings["graph"]["n"], settings["graph"]["edges"])
    except NetpassError as exc:
        _fail("$.graph.edges", str(exc))
    settings["graph"]["edges"] = np.column_stack((graph.heads, graph.tails)).tolist()
    settings["agents"], agents = _specs(settings["agents"], "$.agents", _AGENT_KINDS, AgentBank)
    settings["controllers"], controllers = _specs(
        settings["controllers"], "$.controllers", _CONTROLLER_KINDS, ControllerBank)
    return graph, agents, controllers


# kind -> (model class, its optional parameters).  The class's fields name the
# parameters and an optional one's default, and its rules check them; the rest
# are required, so a missing static-affine index never silently becomes 0.
_AGENT_KINDS = {
    "traffic": (TrafficAgent, ()),
    "integrator": (IntegratorAgent, ()),
    "static_affine": (StaticAffineAgent, ("tau",)),
}
_CONTROLLER_KINDS = {
    "tanh_integrator": (TanhIntegratorController, ()),
    "static_gain": (StaticGainController, ()),
}


def config_from_dict(data):
    """Validate a raw dictionary into a ScenarioConfig.

    Raises ConfigSchemaError carrying the dotted path of the first offending
    field.  The graph and the two banks are built once, here.
    """
    if not isinstance(data, dict):
        _fail("$", "top level must be an object")
    sections = {}
    for section, keys in _SECTION_KEYS.items():
        path = "$" if section is None else f"$.{section}"
        spec = data if section is None else data.get(section)
        spec = {} if spec is None else spec
        if not isinstance(spec, dict):
            _fail(path, "must be an object")
        _check_keys(spec, keys, path)
        sections[section] = spec
    settings = {}
    for name, (section, key, default, rule) in _SETTINGS.items():
        path = f"$.{key}" if section is None else f"$.{section}.{key}"
        value = sections[section].get(key)
        if value is not None:
            settings[name] = rule(value, path, settings)
        elif default is _REQUIRED:
            _fail(path, "missing required field")
        else:
            settings[name] = default
        if name == "controllers":
            parts = _build(settings)
    dt, t_max = settings["dt"], HORIZON if settings["t_max"] is None else settings["t_max"]
    if dt is not None and not math.isfinite(t_max / dt):
        _fail("$.sim.dt", f"{dt:g} gives an unbounded step count over t_max = {t_max:g}")
    if dt is None and not math.isfinite(t_max / MIN_STEP):
        _fail("$.sim.t_max", f"{t_max:g} gives an unbounded step count "
                             f"at the default step's floor {MIN_STEP:g}")
    if settings["gain_mode"] == "hybrid":
        if not settings["self_regulating"]:
            _fail("$.self_regulating", "hybrid mode needs at least one vertex")
        if not parts[0].is_connected():
            _fail("$.gain_mode", "hybrid mode needs a connected graph")
    return ScenarioConfig(**settings, parts=parts)


def read_scenario(path):
    """The raw JSON value of a scenario file, before validation."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}: invalid JSON ({exc})")
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: not UTF-8 ({exc})")


def load_config(path):
    """Read and validate a JSON scenario file."""
    return config_from_dict(read_scenario(path))


def build_system_parts(config: ScenarioConfig):
    """The (graph, agent bank, controller bank) that validating the config built."""
    return config.parts


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
    # The complete graph's edges, oriented low index -> high as in NetworkGraph.complete.
    edges = np.column_stack(np.triu_indices(n, 1)).tolist()
    agents = [{"kind": "traffic", "kappa": float(k), "v0": float(v), "v1": float(0.8 * k)}
              for k, v in zip(kappa, v0)]
    controllers = [{"kind": "tanh_integrator"}] * len(edges)
    return config_from_dict({
        "graph": {"n": n, "edges": edges},
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

    def to_dict(self):
        """Every field, floats rounded to 12 digits."""
        return round_floats({f.name: getattr(self, f.name) for f in fields(self)})


def round_floats(obj):
    """Round every float to 12 significant digits, as ``%.12g``; a non-finite one is None."""
    if isinstance(obj, float):
        return float("%.12g" % obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def synthesize_gain(config, graph, agents):
    """The scenario's one design, synthesized on the agents' slopes less the probe floor.

    ``hybrid`` always shifts the slopes by ``_PROBE_MIN``; ``network_only``
    does when every component's shifted sum stays positive and certifies the
    plain slopes otherwise; ``none`` checks the plain slopes.
    """
    if config.gain_mode == "none":
        return zero_design(agents.slope, graph)
    c = agents.slope - _PROBE_MIN
    if config.gain_mode == "hybrid":
        return hybrid_gain(c, graph, config.self_regulating, config.epsilon)
    if any(total <= 0.0 for _, total in component_sums(c, graph)):
        c = agents.slope
    return uniform_network_gain(c, graph, config.epsilon)


def synthesize_certified(config, graph, agents, controllers):
    """The scenario's design, its regularized problem and the problem's convexity probe.

    Returns (design, problem, probe value, 0); the trailing 0 keeps the
    four-value form callers unpack.  A positive-definite certificate makes
    the probe exceed the floor the design was synthesized with.
    """
    design = synthesize_gain(config, graph, agents)
    problem = build_problem(graph, agents, controllers, design)
    return design, problem, problem.convexity_probe(), 0


def synthesis_stage(config):
    """First stage: the certified gain and its regularized problem.

    Returns (design, problem, probe value, the report's ``gain`` payload).
    Raises NotPassivizableError when no network-only gain exists.
    """
    design, problem, probe, _ = synthesize_certified(config, *config.parts)
    certificate = design.certificate
    gain = {
        "mode": config.gain_mode,
        "threshold": design.threshold,
        "epsilon": design.epsilon,
        "alpha": design.alpha.tolist(),
        "beta": design.beta.tolist(),
        "certificate": certificate.min_eig,
        "certificate_tol": certificate.tol,
        "positive_definite": certificate.positive_definite,
    }
    return design, problem, probe, gain


def simulation_stage(config, design, record=None):
    """Second stage: the closed-loop run and the report's ``sim`` payload.

    Returns (trajectory, sim payload); after a numerical blowup the
    trajectory is None and the payload carries the error.  ``record`` is a
    path, a ``simulate`` recorder or None.  A path streams the trajectory CSV
    there as the run steps, to a file that replaces any at that path and
    that a blowup removes; a recorder is passed through.  The payload is the
    same either way.
    """
    system = ClosedLoopSystem(*config.parts, design)
    stream = isinstance(record, (str, os.PathLike))
    try:
        with open(record, "w") if stream else contextlib.nullcontext() as fh:
            if stream:
                record = _csv_rows(fh, system.graph.n_vertices, system.controllers.saturated)
            trajectory = simulate(system, x0=config.x0, dt=config.dt, t_max=config.t_max,
                                  steady_tol=config.steady_tol, seed=config.seed, record=record)
    except NumericalBlowupError as exc:
        if stream:
            os.remove(fh.name)
        return None, {"converged": False, "error": str(exc)}
    return trajectory, {
        "converged": trajectory.converged,
        "certified_at": trajectory.certified_at,
        "residual": trajectory.residual,
        "t_end": float(trajectory.times[-1]),
        "y_ss": None if trajectory.y_ss is None else trajectory.y_ss.tolist(),
    }


def optimization_stage(config, problem):
    """Third stage: the regularized problem's minimizer and the ``opt`` payload."""
    minimizer = solve(problem, max_iter=config.solver_max_iter, tol=config.solver_tol)
    return minimizer, {
        "status": minimizer.status.value,
        "iterations": minimizer.iterations,
        "objective": minimizer.objective_value,
        "dual_residual": minimizer.dual_residual,
        "y_star": minimizer.y_star.tolist(),
        "zeta_star": minimizer.zeta_star.tolist(),
    }


def verify(config: ScenarioConfig, record=None):
    """Run the three stages and compare simulated and optimized steady states.

    ``record`` is ``simulation_stage``'s: a path streams the trajectory CSV
    there and a recorder gets every sample; an infeasible design runs
    neither.  The payloads do not depend on it.
    """
    report = VerifyReport(config=config.to_dict(), feasible=False,
                          verdict="infeasible", passed=False)
    try:
        design, problem, probe, gain = synthesis_stage(config)
    except NotPassivizableError:
        return report
    if not gain["positive_definite"]:
        return report
    report.feasible = True
    report.gain = gain
    report.convexity_probe = probe

    trajectory, report.sim = simulation_stage(config, design, record)
    if trajectory is None:
        report.verdict = "blowup"
        return report

    minimizer, report.opt = optimization_stage(config, problem)

    if trajectory.converged:
        report.mismatch = float(np.max(np.abs(trajectory.y_ss - minimizer.y_star)))
        if minimizer.status is SolveStatus.OPTIMAL:  # the components of the edges at zeta* = 0
            graph, level = problem.graph, minimizer.zeta_star == 0.0
            report.clusters = cluster_labels(graph.n_vertices, graph.heads[level],
                                             graph.tails[level])[1]

    if not trajectory.converged:
        report.verdict = "not_converged"
    elif minimizer.status is not SolveStatus.OPTIMAL:
        report.verdict = "solver_stalled"
    elif not report.mismatch <= config.mismatch_tol:  # a NaN mismatch fails too
        report.verdict = "mismatch"
    else:
        report.verdict = "pass"
    report.passed = report.verdict == "pass"
    return report


# ----------------------------------------------------------------------
# report emission
# ----------------------------------------------------------------------


def json_text(payload):
    """The JSON text every payload, report and scenario file is written as; strict JSON."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_rows(fh, n, saturated):
    """Write the header of a CSV of t, x_0.., eta_0.. to ``fh``; return a row writer.

    ``write(times, rows)``, a ``simulate`` recorder, formats each value as
    ``%.12g``; a row holds x, then the eta of each edge that ``saturated``
    marks.  Every controller state starts at 0, so every other eta is "0".
    """
    etas = ["%.12g" if sat else "0" for sat in saturated.tolist()]
    line = ",".join(["%.12g"] * (1 + n) + etas) + "\n"
    header = ["t"] + [f"x_{i}" for i in range(n)] + [f"eta_{e}" for e in range(len(etas))]
    fh.write(",".join(header) + "\n")

    def write(times, rows):
        fh.writelines(line % (t, *row.tolist()) for t, row in zip(times.tolist(), rows))

    return write


def emit_report(report: VerifyReport, json_path=None, pairs_csv=None):
    """Write the JSON report and the optional pairs CSV; return the report's JSON text.

    The pairs CSV lists per-vertex simulated and optimized steady outputs.
    The trajectory CSV is not written here: ``verify`` streams it from the
    run.  All floats are written with 12 significant digits so identical
    runs produce identical bytes.
    """
    text = json_text(report.to_dict())
    if json_path is not None:
        with open(json_path, "w") as fh:
            fh.write(text)
    if pairs_csv is not None and report.opt:
        # An opt payload exists only after a run, so sim holds y_ss.
        y_ss = report.sim["y_ss"]
        with open(pairs_csv, "w") as fh:
            fh.write("vertex,y_ss,y_star\n")
            if y_ss is not None:
                for i, (a, b) in enumerate(zip(y_ss, report.opt["y_star"])):
                    fh.write("%d,%.12g,%.12g\n" % (i, a, b))
    return text

"""Configuration, pipeline, report, and CLI tests.

The canonical scenario in this file is the consensus pair: two velocity
tracking agents with targets 10 and 10.5, slope 0.8, one saturating edge.
Its simulated and optimized steady states are both (10.25, 10.25), so the
full pipeline must report a pass with a tiny mismatch.
"""

import importlib
import inspect
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netpass import (
    AgentBank,
    ConfigParseError,
    ConfigSchemaError,
    ControllerBank,
    NetworkGraph,
    ParameterError,
    ScenarioConfig,
    SolveStatus,
    config_from_dict,
    emit_report,
    generate_case_study,
    load_config,
    simulate,
    solve,
    verify,
)
import netpass.graph as graph_module
import netpass.harness as harness
import netpass.netopt as netopt
import netpass.passivation as passivation
from netpass.agents import ModelRecord, TrafficAgent
from netpass.cli import main
from netpass.harness import (
    build_system_parts,
    json_text,
    optimization_stage,
    synthesis_stage,
    synthesize_certified,
)
from oracles import (
    AGENT_KINDS,
    CONTROLLER_KINDS,
    SPEC_KINDS,
    Samples,
    check_specs,
    spec_coefficients,
    spec_records,
    trajectory_csv,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def consensus_dict(**overrides):
    data = {
        "graph": {"n": 2, "edges": [[0, 1]]},
        "agents": [
            {"kind": "traffic", "kappa": 1.0, "v0": 10.0, "v1": 0.8},
            {"kind": "traffic", "kappa": 1.0, "v0": 10.5, "v1": 0.8},
        ],
        "controllers": [{"kind": "tanh_integrator"}],
    }
    data.update(overrides)
    return data


def mixed_pair_dict(**overrides):
    data = {
        "graph": {"n": 2, "edges": [[0, 1]]},
        "agents": [
            {"kind": "traffic", "kappa": 1.0, "v0": 10.0, "v1": 0.8},
            {"kind": "traffic", "kappa": -1.0, "v0": 12.0, "v1": -0.8},
        ],
        "controllers": [{"kind": "tanh_integrator"}],
    }
    data.update(overrides)
    return data


def counted(fn, calls):
    """``fn``, appending its name to ``calls`` on every call."""
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapper


def schema_error_path(data):
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_dict(data)
    return excinfo.value.field_path


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------


def test_minimal_config_fills_defaults():
    config = config_from_dict(consensus_dict())
    assert config.gain_mode == "network_only"
    assert config.self_regulating == ()
    assert config.epsilon is None
    assert config.dt is None and config.t_max is None
    assert config.steady_tol == 1e-8
    assert config.seed == 0
    assert config.solver_step == 1.0
    assert config.solver_max_iter == 100000
    assert config.solver_tol == 1e-8
    assert config.mismatch_tol == 1e-2


def test_scenario_defaults_are_the_simulator_and_solver_defaults():
    config = config_from_dict(consensus_dict())
    for function, keywords in (
        (simulate, {"x0": "x0", "dt": "dt", "t_max": "t_max",
                    "steady_tol": "steady_tol", "seed": "seed"}),
        (solve, {"solver_step": "step", "solver_max_iter": "max_iter",
                 "solver_tol": "tol"}),
    ):
        parameters = inspect.signature(function).parameters
        for name, keyword in keywords.items():
            assert getattr(config, name) == parameters[keyword].default, name


def test_config_round_trips_through_dict():
    config = config_from_dict(consensus_dict(
        gain_mode="hybrid", self_regulating=[1], epsilon=0.5,
        sim={"dt": 0.01, "t_max": 50.0, "x0": [1.0, 2.0], "seed": 9},
        solver={"step": 2.0, "max_iter": 500, "tol": 1e-6},
        mismatch_tol=0.1,
    ))
    assert config_from_dict(config.to_dict()) == config


def test_schema_rejects_zero_and_mismatched_slope():
    bad = consensus_dict()
    bad["agents"][0]["v1"] = 0.0
    assert schema_error_path(bad) == "$.agents[0].v1"
    bad = consensus_dict()
    bad["agents"][1]["v1"] = -0.8
    assert schema_error_path(bad) == "$.agents[1].v1"
    for field, value in (("a", 0.0), ("tau", 0.0), ("tau", -1.0)):
        bad = consensus_dict()
        bad["agents"][1] = {"kind": "static_affine", "a": 1.0, "c": 0.0, "rho": 1.0,
                            field: value}
        assert schema_error_path(bad) == f"$.agents[1].{field}"
    for w in (0.0, -0.5):
        bad = consensus_dict(controllers=[{"kind": "static_gain", "w": w}])
        assert schema_error_path(bad) == "$.controllers[0].w"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, field", [
    ({"kind": "traffic", "kappa": 1.0, "v0": 1e200, "v1": 0.5}, "v0"),
    ({"kind": "static_affine", "a": 1e-310, "c": 0.0, "rho": 0.0}, "a"),
], ids=["traffic-potential-constant", "static_affine-slope"])
def test_schema_and_records_refuse_parameters_whose_coefficients_overflow(spec, field):
    # v0**2 / (2 v1) and 1 / a leave the float range: a schema error naming
    # the parameter, with no numpy warning on the way
    bad = consensus_dict()
    bad["agents"][1] = spec
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_dict(bad)
    assert excinfo.value.field_path == f"$.agents[1].{field}"
    assert str(excinfo.value).endswith("gives a non-finite coefficient")
    with pytest.raises(ParameterError) as excinfo:
        spec_records([spec])
    assert excinfo.value.field == field


def test_schema_requires_the_declared_static_affine_index():
    bad = consensus_dict()
    bad["agents"][0] = {"kind": "static_affine", "a": 1.0, "c": 0.0}
    assert schema_error_path(bad) == "$.agents[0].rho"


def test_schema_rejects_integers_too_large_for_a_float(tmp_path, capsys):
    huge = 10**400
    bad = consensus_dict()
    bad["agents"][0]["v0"] = huge
    assert schema_error_path(bad) == "$.agents[0].v0"
    assert schema_error_path(consensus_dict(sim={"x0": [1.0, huge]})) == "$.sim.x0"
    for name, data in (("v0", bad), ("x0", consensus_dict(sim={"x0": [huge, 1.0]}))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 3
        assert "must be finite" in capsys.readouterr().err


def test_schema_rejects_a_negative_seed(tmp_path, capsys):
    data = consensus_dict(sim={"seed": -1})
    assert schema_error_path(data) == "$.sim.seed"
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 3
    assert "$.sim.seed" in capsys.readouterr().err


def test_null_means_the_default_for_every_optional_field():
    nulls = consensus_dict(gain_mode=None, self_regulating=None, epsilon=None,
                           mismatch_tol=None,
                           sim={key: None for key in ("dt", "t_max", "steady_tol",
                                                      "x0", "seed")},
                           solver={"step": None, "max_iter": None, "tol": None})
    assert config_from_dict(nulls) == config_from_dict(consensus_dict())
    agent = {"kind": "static_affine", "a": 1.0, "c": 0.0, "rho": 1.0}
    with_null = consensus_dict()
    with_null["agents"][0] = dict(agent, tau=None)
    without = consensus_dict()
    without["agents"][0] = agent
    assert config_from_dict(with_null) == config_from_dict(without)


def test_schema_rejects_hybrid_without_vertices():
    assert schema_error_path(
        consensus_dict(gain_mode="hybrid")) == "$.self_regulating"


def test_schema_rejects_hybrid_on_a_disconnected_graph():
    assert schema_error_path(consensus_dict(
        graph={"n": 2, "edges": []}, controllers=[], gain_mode="hybrid",
        self_regulating=[0])) == "$.gain_mode"


def test_schema_rejects_unknown_fields():
    assert schema_error_path(consensus_dict(extra=1)) == "$.extra"
    bad = consensus_dict()
    bad["agents"][0]["speed"] = 3.0
    assert schema_error_path(bad) == "$.agents[0].speed"
    assert schema_error_path(
        consensus_dict(sim={"warp": 2})) == "$.sim.warp"


def test_schema_rejects_unknown_kinds():
    bad = consensus_dict()
    bad["agents"][1] = {"kind": "hovercraft"}
    assert schema_error_path(bad) == "$.agents[1].kind"
    bad = consensus_dict()
    bad["controllers"][0] = {"kind": "pid"}
    assert schema_error_path(bad) == "$.controllers[0].kind"


def test_schema_rejects_count_mismatches():
    bad = consensus_dict()
    bad["agents"] = bad["agents"][:1]
    assert schema_error_path(bad) == "$.agents"
    bad = consensus_dict()
    bad["controllers"] = []
    assert schema_error_path(bad) == "$.controllers"


def test_schema_rejects_bad_graph():
    bad = consensus_dict(graph={"n": 2, "edges": [[0, 0]]})
    assert schema_error_path(bad) == "$.graph.edges"
    bad = consensus_dict(graph={"n": 2, "edges": [[0, 1.5]]})
    assert schema_error_path(bad) == "$.graph.edges"
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_dict(bad)
    assert "edge 0 = (0, 1.5)" in str(excinfo.value)
    assert schema_error_path(consensus_dict(graph=None)) == "$.graph"


def test_schema_counts_the_models_before_building_the_graph(tmp_path, capsys):
    # 10**12 vertices would need a 10**12-square Laplacian: the count fails first
    data = consensus_dict(graph={"n": 10**12, "edges": [[0, 1]]})
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_dict(data)
    message = "$.agents: expected 1000000000000 entries, got 2"
    assert str(excinfo.value) == message
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    # a bad edge is named after a bad count, and before a bad model spec
    assert schema_error_path(consensus_dict(
        graph={"n": 2, "edges": [[0, 0]]}, controllers=[])) == "$.controllers"
    bad = consensus_dict(graph={"n": 2, "edges": [[0, 0]]})
    bad["agents"][0]["kind"] = "hovercraft"
    assert schema_error_path(bad) == "$.graph.edges"


@pytest.mark.parametrize("overrides,path", [
    ({"graph": [2, [[0, 1]]]}, "$.graph"),
    ({"graph": {"edges": [[0, 1]]}}, "$.graph.n"),
    ({"graph": {"n": 2, "edges": 5}}, "$.graph.edges"),
    ({"graph": {"n": 2, "edges": [[0, 1, 2]]}}, "$.graph.edges"),
    ({"agents": {"kind": "integrator"}}, "$.agents"),
    ({"agents": [1, {"kind": "integrator"}]}, "$.agents[0]"),
    ({"self_regulating": [0.5]}, "$.self_regulating"),
    # t_max / dt overflows to inf: no step count exists, over a given or the default horizon
    ({"sim": {"dt": 1e-300, "t_max": 1e10}}, "$.sim.dt"),
    ({"sim": {"dt": 1e-306}}, "$.sim.dt"),
    # without a dt, the default step's floor bounds the step count
    ({"sim": {"t_max": 1e308}}, "$.sim.t_max"),
], ids=["graph-not-object", "graph-n-missing", "edges-not-list", "edge-not-a-pair",
        "agents-not-list", "agent-not-object", "vertices-not-integers", "steps-overflow", "steps-overflow-default",
        "steps-overflow-default-step"])
def test_schema_error_exits_3_naming_its_path(overrides, path, tmp_path, capsys):
    data = consensus_dict(**overrides)
    assert schema_error_path(data) == path
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(data))
    assert main(["verify", str(scenario)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_schema_rejects_bad_numbers_and_types():
    bad = consensus_dict()
    bad["agents"][0]["kappa"] = True
    assert schema_error_path(bad) == "$.agents[0].kappa"
    assert schema_error_path(consensus_dict(epsilon=-1.0)) == "$.epsilon"
    assert schema_error_path(
        consensus_dict(sim={"dt": 0.0})) == "$.sim.dt"
    assert schema_error_path(
        consensus_dict(sim={"seed": 1.5})) == "$.sim.seed"
    assert schema_error_path(
        consensus_dict(sim={"x0": [1.0]})) == "$.sim.x0"
    for x0 in ([float("nan"), 1.0], [1.0, float("inf")]):
        assert schema_error_path(consensus_dict(sim={"x0": x0})) == "$.sim.x0"
    for falsy in (False, 0, [], ""):
        assert schema_error_path(consensus_dict(sim=falsy)) == "$.sim"
        assert schema_error_path(consensus_dict(solver=falsy)) == "$.solver"
    assert config_from_dict(consensus_dict(sim=None, solver=None)) \
        == config_from_dict(consensus_dict())
    assert schema_error_path(
        consensus_dict(gain_mode="turbo")) == "$.gain_mode"
    assert schema_error_path(
        consensus_dict(self_regulating=[5])) == "$.self_regulating[0]"
    assert schema_error_path([1, 2]) == "$"


def test_load_config_reads_json_and_rejects_garbage(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(consensus_dict()))
    config = load_config(path)
    assert isinstance(config, ScenarioConfig)
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigParseError):
        load_config(bad)


def test_build_system_parts_materializes_banks():
    graph, agents, controllers = build_system_parts(
        config_from_dict(consensus_dict()))
    assert isinstance(graph, NetworkGraph)
    assert isinstance(agents, AgentBank)
    assert isinstance(controllers, ControllerBank)
    assert graph.n_vertices == 2 and graph.n_edges == 1
    np.testing.assert_allclose(agents.anchors, [10.0, 10.5])


def test_config_builds_its_graph_once_and_no_model_records(monkeypatch):
    graphs, records, columns = [], [], []

    class CountedGraph(NetworkGraph):
        def __init__(self, *args):
            graphs.append(self)
            super().__init__(*args)

    def coeffs(*params):
        columns.append(params)
        return coeffs.wrapped(*params)

    coeffs.wrapped = TrafficAgent.coeffs
    monkeypatch.setattr(harness, "NetworkGraph", CountedGraph)
    monkeypatch.setattr(ModelRecord, "__post_init__", records.append)
    monkeypatch.setattr(TrafficAgent, "coeffs", staticmethod(coeffs))
    # hybrid mode also checks that the graph is connected
    config = config_from_dict(mixed_pair_dict(gain_mode="hybrid", self_regulating=[0]))
    graph, agents, controllers = build_system_parts(config)
    assert graphs == [graph] and records == []
    # one evaluation of the kind's formulas covers both traffic agents
    assert [[list(column) for column in params] for params in columns] == [
        [[1.0, -1.0], [10.0, 12.0], [0.8, -0.8]]]
    assert len(agents) == 2 and len(controllers) == 1
    assert build_system_parts(config) == (graph, agents, controllers)
    assert len(graphs) == 1 and records == [] and len(columns) == 1


# ----------------------------------------------------------------------
# model specs: one pass and per-kind columns against the per-spec reference
# ----------------------------------------------------------------------

MAGNITUDES = st.integers(1, 5) | st.floats(0.05, 5.0)
# glibc's pow squares these two one bit away from a product; a traffic agent's
# potential constant squares by pow, as Python's ** does, in records and banks alike.
POW_SQUARES = [127.77255556642626, -87.47232913738864]
VALUES = st.integers(-150, 150) | st.floats(-150.0, 150.0) | st.sampled_from(POW_SQUARES)
BAD_NUMBERS = [True, False, "1.5", [1.0], float("nan"), float("inf"), float("-inf"),
               10**400, -10**400]


def shuffled(draw, spec):
    """``spec`` with its keys in a drawn order, which sets the order numbers are checked in."""
    return {key: spec[key] for key in draw(st.permutations(list(spec)))}


@st.composite
def agent_specs(draw):
    """A valid agent spec, integer-valued numbers included; a static-affine tau may be null or absent."""
    kind = draw(st.sampled_from(AGENT_KINDS))
    if kind == "traffic":
        sign = draw(st.sampled_from([-1, 1]))
        spec = {"kind": kind, "kappa": sign * draw(MAGNITUDES), "v0": draw(VALUES),
                "v1": sign * draw(MAGNITUDES)}
    elif kind == "static_affine":
        spec = {"kind": kind, "a": draw(st.sampled_from([-1, 1])) * draw(MAGNITUDES),
                "c": draw(VALUES), "rho": draw(VALUES)}
        tau = draw(st.sampled_from(["absent", None, "given"]))
        if tau != "absent":
            spec["tau"] = draw(MAGNITUDES) if tau == "given" else None
    else:
        spec = {"kind": kind}
    return shuffled(draw, spec)


@st.composite
def controller_specs(draw):
    if draw(st.booleans()):
        return {"kind": "tanh_integrator"}
    return {"kind": "static_gain", "w": draw(MAGNITUDES)}


# kind -> (field, bad value) pairs, each breaking one of the kind's rules
RULE_BREAKERS = {
    "traffic": [("v1", 0), ("v1", 0.0), ("v1", -0.0), ("kappa", 0.0), ("v1", "flip")],
    "static_affine": [("a", 0), ("a", -0.0), ("tau", 0.0), ("tau", -1.5)],
    "static_gain": [("w", 0), ("w", -0.0), ("w", -0.5)],
}


@st.composite
def faulty(draw, specs):
    """``specs`` with one drawn fault, in a spec it applies to, if any."""
    fault = draw(st.sampled_from(["rule", "number", "missing", "key", "kind", "object"]))
    applies = {
        "object": lambda spec: True,
        "missing": lambda spec: bool(SPEC_KINDS[spec["kind"]][1]),
        "number": lambda spec: len(spec) > 1,
        "rule": lambda spec: spec["kind"] in RULE_BREAKERS,
    }.get(fault, lambda spec: True)
    # a spec that an earlier fault left without a known kind takes only an "object" fault
    candidates = [k for k, spec in enumerate(specs) if fault == "object" or (
        isinstance(spec, dict) and spec.get("kind") in list(SPEC_KINDS) and applies(spec))]
    if not candidates:
        return specs
    specs = list(specs)
    k = draw(st.sampled_from(candidates))
    if fault == "object":
        specs[k] = draw(st.sampled_from([1, 2.5, "spec", [], None]))
        return specs
    spec = dict(specs[k])
    if fault == "kind":
        if draw(st.booleans()):
            del spec["kind"]
        else:
            spec["kind"] = draw(st.sampled_from(["hovercraft", 3, None, True, ["traffic"]]))
    elif fault == "key":
        spec[draw(st.sampled_from(["speed", "Kappa", "w2"]))] = draw(VALUES | st.none())
    elif fault == "missing":
        key = draw(st.sampled_from(SPEC_KINDS[spec["kind"]][1]))
        if draw(st.booleans()):
            spec.pop(key, None)
        else:
            spec[key] = None
    elif fault == "number":
        spec[draw(st.sampled_from([key for key in spec if key != "kind"]))] = draw(
            st.sampled_from(BAD_NUMBERS))
    else:
        key, value = draw(st.sampled_from(RULE_BREAKERS[spec["kind"]]))
        if value == "flip":
            value = -spec[key] if isinstance(spec.get(key), (int, float)) else 0
        spec[key] = value
    specs[k] = shuffled(draw, spec)
    return specs


@st.composite
def rosters(draw, max_faults=0):
    """Agent and controller specs for the complete graph's first edges, with faults drawn in."""
    agents = draw(st.lists(agent_specs(), min_size=1, max_size=6))
    n = len(agents)
    controllers = draw(st.lists(controller_specs(), max_size=n * (n - 1) // 2))
    for _ in range(draw(st.sampled_from(range(max_faults, -1, -1)))):  # many faults first
        if controllers and draw(st.booleans()):
            controllers = draw(faulty(controllers))
        else:
            agents = draw(faulty(agents))
    return agents, controllers


def roster_scenario(agents, controllers):
    edges = np.column_stack(np.triu_indices(len(agents), 1))[:len(controllers)].tolist()
    return {"graph": {"n": len(agents), "edges": edges},
            "agents": agents, "controllers": controllers}


@settings(max_examples=400, deadline=None)
@given(rosters(max_faults=3))
def test_schema_names_the_per_spec_checkers_first_fault(case):
    agents, controllers = case
    try:
        expected = (check_specs(agents, "$.agents", AGENT_KINDS),
                    check_specs(controllers, "$.controllers", CONTROLLER_KINDS))
    except ConfigSchemaError as exc:
        expected = (exc.field_path, str(exc))
    try:
        config = config_from_dict(roster_scenario(agents, controllers))
    except ConfigSchemaError as exc:
        assert (exc.field_path, str(exc)) == expected
    else:
        assert (list(config.agents), list(config.controllers)) == expected


@settings(max_examples=200, deadline=None)
@given(rosters())
def test_config_banks_equal_record_banks_and_scalar_formulas_bit_for_bit(case):
    config = config_from_dict(roster_scenario(*case))
    _, agents, controllers = config.parts
    for bank, specs in ((agents, config.agents), (controllers, config.controllers)):
        from_records = type(bank)(spec_records(specs))
        scalars = [spec_coefficients(spec) for spec in specs]
        assert len(bank) == len(from_records) == len(specs)
        for k, (name, dtype) in enumerate(type(bank).COEFFICIENTS):
            want = np.array([c[k] for c in scalars], dtype=dtype)
            for got in (getattr(bank, name), getattr(from_records, name)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def scribble(value):
    """Change every list and dict inside ``value``, innermost first."""
    if isinstance(value, dict):
        for item in value.values():
            scribble(item)
        value["scribbled"] = True
    elif isinstance(value, list):
        for item in value:
            scribble(item)
        value.append("scribbled")


def test_to_dict_copies_every_container_and_keeps_given_numbers():
    data = consensus_dict(self_regulating=[1], sim={"x0": [1.0, 2.5]})
    data["agents"][0]["kappa"] = 1
    data["agents"][1] = {"kind": "static_affine", "a": 2, "c": 0.5, "rho": 0.1, "tau": None}
    for config in (config_from_dict(data), generate_case_study(4, 0)):
        text = json_text(config.to_dict())
        scribble(config.to_dict())
        assert json_text(config.to_dict()) == text
        assert config_from_dict(config.to_dict()) == config
    text = json_text(config_from_dict(data).to_dict())
    assert '"kappa": 1,' in text and '"a": 2,' in text
    assert config_from_dict(data).to_dict()["agents"][1] == {
        "kind": "static_affine", "a": 2, "c": 0.5, "rho": 0.1}


# ----------------------------------------------------------------------
# case-study generation
# ----------------------------------------------------------------------


def test_case_study_is_deterministic():
    assert generate_case_study(10, 7) == generate_case_study(10, 7)
    assert generate_case_study(10, 7) != generate_case_study(10, 8)


def test_case_study_shape_and_parameter_coupling():
    config = generate_case_study(5, 2)
    assert config.graph["n"] == 5
    assert len(config.graph["edges"]) == 10  # complete graph
    assert config.seed == 2
    for spec in config.agents:
        assert spec["kind"] == "traffic"
        assert spec["v1"] == pytest.approx(0.8 * spec["kappa"])
        assert spec["kappa"] in (-1.0, 1.0)
    assert all(c == {"kind": "tanh_integrator"} for c in config.controllers)


def test_case_study_complete_graph_at_scale():
    config = generate_case_study(100, 0)
    assert len(config.graph["edges"]) == 100 * 99 // 2


def test_case_study_rate_frequency():
    negative = total = 0
    for seed in range(100):
        config = generate_case_study(100, seed)
        rates = [spec["kappa"] for spec in config.agents]
        negative += sum(1 for k in rates if k < 0)
        total += len(rates)
    assert abs(negative / total - 1.0 / 3.0) <= 0.02


def test_case_study_rejects_tiny_networks():
    with pytest.raises(ValueError):
        generate_case_study(1, 0)


# ----------------------------------------------------------------------
# verification pipeline
# ----------------------------------------------------------------------


def test_verify_consensus_pair_passes():
    report = verify(config_from_dict(consensus_dict()))
    assert report.passed and report.verdict == "pass"
    assert report.feasible
    assert report.gain["positive_definite"]
    assert "escalations" not in report.gain
    assert report.sim["converged"]
    assert report.opt["status"] == "optimal"
    assert report.mismatch <= 1e-6
    np.testing.assert_allclose(report.sim["y_ss"], [10.25, 10.25], atol=1e-6)
    np.testing.assert_allclose(report.opt["y_star"], [10.25, 10.25], atol=1e-6)
    assert report.clusters == 1


@pytest.mark.parametrize("n,seed", [(40, 7)] + [(10, s) for s in range(8)])
def test_clusters_are_the_distinct_optimal_outputs(n, seed):
    # The benchmark's dense scenario and its eight sweep ones: a short rate
    # sum is rescued in hybrid mode, as the benchmark does.
    data = generate_case_study(n, seed).to_dict()
    if sum(a["kappa"] for a in data["agents"]) <= 0.0:
        data.update(gain_mode="hybrid", self_regulating=[0])
    report = verify(config_from_dict(data))
    assert report.sim["converged"] and report.opt["status"] == "optimal"
    assert report.clusters == np.unique(report.opt["y_star"]).size


def test_verify_short_pair_infeasible_without_vertex_gains():
    report = verify(config_from_dict(mixed_pair_dict()))
    assert not report.feasible
    assert report.verdict == "infeasible"
    assert not report.passed
    assert report.gain is None and report.sim is None and report.opt is None


def test_verify_short_pair_passes_in_hybrid_mode():
    report = verify(config_from_dict(
        mixed_pair_dict(gain_mode="hybrid", self_regulating=[0])))
    assert report.passed and report.verdict == "pass"
    assert report.gain["mode"] == "hybrid"
    # the slopes (1.25, -1.25) less the floor sum to -0.02, and vertex 0
    # lifts that sum to 1, so the probe clears the floor
    assert report.gain["alpha"][0] == pytest.approx(1.02, rel=1e-12)
    assert report.convexity_probe > 1e-2


def test_verify_mode_none_runs_already_passive_networks():
    report = verify(config_from_dict(consensus_dict(gain_mode="none")))
    assert report.passed
    assert report.gain["alpha"] == [0.0, 0.0]
    assert report.gain["beta"] == [0.0]


def test_verify_mode_none_rejects_short_networks():
    report = verify(config_from_dict(mixed_pair_dict(gain_mode="none")))
    assert report.verdict == "infeasible"


def test_verify_reports_not_converged_on_short_horizon():
    report = verify(config_from_dict(
        consensus_dict(sim={"dt": 0.01, "t_max": 0.5})))
    assert not report.passed
    assert report.verdict == "not_converged"
    assert report.sim["y_ss"] is None


@pytest.mark.parametrize("data,verdict", [
    (consensus_dict(sim={"dt": 50.0}), "blowup"),
    # the first step's state is NaN, which no magnitude bound catches
    (consensus_dict(sim={"dt": 1e200, "t_max": 1e203}), "blowup"),
    # anchors 3 apart saturate the edge: the second pattern certifies, past the cap
    (consensus_dict(agents=[{"kind": "traffic", "kappa": 1.0, "v0": 10.0, "v1": 0.8},
                            {"kind": "traffic", "kappa": 1.0, "v0": 13.0, "v1": 0.8}],
                    solver={"max_iter": 1}), "solver_stalled"),
], ids=["blowup", "blowup-nan", "solver_stalled"])
def test_verify_names_each_run_failure(data, verdict, tmp_path, capsys):
    report = verify(config_from_dict(data))
    assert report.feasible and not report.passed
    assert report.verdict == verdict
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == verdict


def test_verify_certifies_the_slope_not_the_declared_index(tmp_path, capsys):
    # declared index 1 on both agents, but slope 1/a = -1: no edge gain makes
    # the steady-state problem convex, so the scenario is infeasible
    data = consensus_dict(
        agents=[{"kind": "static_affine", "a": -1.0, "c": 0.0, "rho": 1.0}] * 2)
    assert verify(config_from_dict(data)).verdict == "infeasible"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["rho"] == [1.0, 1.0]


def test_verify_certifies_the_probe_floor_on_the_slopes():
    # the declared indices (1, 1, -1) undershoot the slopes' shortage
    # (1.25, 1.25, -1.25); a certificate on the slopes less the 1e-2 floor
    # makes the probe exceed the certificate by exactly the floor
    data = {
        "graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
        "agents": [
            {"kind": "traffic", "kappa": 1.0, "v0": 20.0, "v1": 0.8},
            {"kind": "traffic", "kappa": 1.0, "v0": 25.0, "v1": 0.8},
            {"kind": "traffic", "kappa": -1.0, "v0": 18.0, "v1": -0.8},
        ],
        "controllers": [{"kind": "tanh_integrator"}] * 3,
    }
    report = verify(config_from_dict(data))
    assert report.passed
    assert report.gain["certificate"] > 0.0
    assert report.convexity_probe == pytest.approx(report.gain["certificate"] + 1e-2,
                                                   rel=1e-9)


def static_affine_k3_hybrid(a, rho):
    return config_from_dict({
        "graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
        "agents": [{"kind": "static_affine", "a": ai, "c": 0.0, "rho": ri}
                   for ai, ri in zip(a, rho)],
        "controllers": [{"kind": "tanh_integrator"}] * 3,
        "gain_mode": "hybrid",
        "self_regulating": [0],
    })


@pytest.mark.parametrize("a", [(-1.0 / 1.995, 200.0, 200.0), (-0.75, -0.75, -0.76)],
                         ids=["mean_under_the_floor", "all_short"])
def test_hybrid_synthesis_lifts_the_shifted_slopes_to_one(a):
    # hybrid mode always certifies the slopes less the 1e-2 floor: vertex 0
    # lifts their sum to 1, and the probe clears the floor in one synthesis
    config = static_affine_k3_hybrid(a, (0.0, -0.5, -0.5))
    parts = build_system_parts(config)
    design, problem, probe, escalations = synthesize_certified(config, *parts)
    assert escalations == 0 and design.certificate.positive_definite
    shifted = parts[1].slope - 1e-2
    assert design.alpha[0] == pytest.approx(1.0 - math.fsum(shifted), rel=1e-12)
    assert probe > 1e-2
    assert solve(problem).status is SolveStatus.OPTIMAL


def test_synthesis_bounds_the_probe_per_component():
    # two static-affine triangles: slope 1/200 on the first, 1 on the second;
    # the global mean 0.5025 clears the 1e-2 floor, but edge gains drop out
    # on the first triangle's indicator, so its mean 0.005 bounds the probe:
    # network-only synthesis then certifies the plain slopes
    edges = [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]
    agents = [{"kind": "static_affine", "a": a, "c": c, "rho": 1.0 / a}
              for a, c in ((200.0, 1.0), (200.0, 2.0), (200.0, 3.0),
                           (1.0, 0.0), (1.0, 1.0), (1.0, 2.0))]
    config = config_from_dict({
        "graph": {"n": 6, "edges": edges},
        "agents": agents,
        "controllers": [{"kind": "tanh_integrator"}] * len(edges),
    })
    parts = build_system_parts(config)
    design, problem, probe, escalations = synthesize_certified(config, *parts)
    assert escalations == 0
    assert probe == pytest.approx(0.005, rel=1e-9)
    assert design.certificate.min_eig == pytest.approx(probe, rel=1e-9)
    minimizer = solve(problem)
    assert minimizer.status is SolveStatus.OPTIMAL
    report = verify(config)
    assert report.passed, report.verdict


SYNTHESIS_SCENARIOS = [
    config_from_dict(consensus_dict()),
    static_affine_k3_hybrid((-0.75, -0.75, -0.76), (-1.0, -1.0, -1.0)),
]


@pytest.mark.parametrize("config", SYNTHESIS_SCENARIOS, ids=["network_only", "hybrid"])
def test_synthesis_stage_certifies_each_design_once(config, monkeypatch):
    calls = []
    check = counted(passivation.check_design, calls)
    monkeypatch.setattr(passivation, "check_design", check)
    monkeypatch.setattr(harness, "check_design", check, raising=False)
    design, _, _, gain = harness.synthesis_stage(config)
    assert len(calls) == 1
    assert gain["certificate"] == design.certificate.min_eig
    assert gain["positive_definite"] is design.certificate.positive_definite


@pytest.mark.parametrize("config", SYNTHESIS_SCENARIOS, ids=["network_only", "hybrid"])
def test_verify_certifies_and_probes_each_design_once(config, monkeypatch):
    checks, problems, eigensolves = [], [], []
    check = counted(passivation.check_design, checks)
    monkeypatch.setattr(passivation, "check_design", check)
    build = harness.build_problem
    monkeypatch.setattr(harness, "build_problem",
                        lambda *args: problems.append(build(*args)) or problems[-1])
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args: eigensolves.append(a) or eigvalsh(a, *args))
    report = verify(config)
    assert report.feasible
    assert len(checks) == 1 and len(problems) == 1
    hessian = problems[0].smooth_hessian()
    assert sum(matrix is hessian for matrix in eigensolves) == 1
    assert report.gain["certificate"] > 0.0
    assert report.convexity_probe == pytest.approx(report.gain["certificate"] + 1e-2,
                                                   rel=1e-9)


def test_solve_reuses_the_probe_taken_at_synthesis(monkeypatch):
    config = config_from_dict(consensus_dict())
    _, problem, probe, _ = synthesize_certified(config, *build_system_parts(config))
    eigensolves = []
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), eigensolves))
    assert solve(problem).status is SolveStatus.OPTIMAL
    assert problem.convexity_probe() == probe
    assert eigensolves == []
    with pytest.raises(ValueError):
        problem.beta[0] = 0.0


def test_verify_is_deterministic():
    one = verify(config_from_dict(consensus_dict()))
    two = verify(config_from_dict(consensus_dict()))
    assert one.to_dict() == two.to_dict()


# ----------------------------------------------------------------------
# report emission
# ----------------------------------------------------------------------


def test_emit_report_round_trips_json(tmp_path):
    report = verify(config_from_dict(consensus_dict()))
    path = tmp_path / "report.json"
    emit_report(report, json_path=path)
    assert json.loads(path.read_text()) == report.to_dict()


def test_emit_report_csv_shapes(tmp_path):
    traj_path = tmp_path / "trajectory.csv"
    pairs_path = tmp_path / "pairs.csv"
    report = verify(config_from_dict(consensus_dict()), record=traj_path)
    emit_report(report, pairs_csv=pairs_path)
    lines = traj_path.read_text().splitlines()
    assert lines[0] == "t,x_0,x_1,eta_0"
    assert lines[1].startswith("0,") and lines[-1].startswith("%.12g," % report.sim["t_end"])
    assert {line.count(",") for line in lines} == {3}
    pair_lines = pairs_path.read_text().splitlines()
    assert pair_lines[0] == "vertex,y_ss,y_star"
    assert len(pair_lines) == 3


def write_in_blocks(path, times, x_states, eta_sat, saturated, block=33):
    """Write a trajectory CSV through the streaming writer, ``block`` samples per call."""
    rows = np.vstack((x_states, eta_sat)).T
    with open(path, "w") as fh:
        write = harness._csv_rows(fh, x_states.shape[0], saturated)
        for start in range(0, times.size, block):
            write(times[start:start + block], rows[start:start + block])


def test_trajectory_csv_matches_per_value_format(tmp_path):
    # More samples than one writer block, with the values whose text is
    # easiest to get wrong: signed zero, infinities, nan and extreme exponents.
    specials = [-0.0, np.inf, -np.inf, np.nan, 1e-300, 1e300, 0.1, -123456789.0123]
    count = 700
    rng = np.random.default_rng(3)
    table = rng.choice(specials, size=(count, 4)) * rng.choice([1.0, -1.0], size=(count, 4))
    times, saturated = np.arange(count) * 0.05, np.ones(2, dtype=bool)
    path = tmp_path / "trajectory.csv"
    write_in_blocks(path, times, table[:, :2].T, table[:, 2:].T, saturated)
    assert path.read_text() == trajectory_csv(times, table[:, :2].T, table[:, 2:].T, saturated)


def test_trajectory_csv_formats_constant_eta_columns_as_each_value(tmp_path):
    # A tanh edge's eta is formatted per value even where it holds still:
    # constant columns print each value, and a column that changes only its
    # sign bit prints "0" then "-0".  A static edge's eta is "0" throughout.
    count = 300
    t = np.arange(count) * 0.1
    sign_flip = np.where(np.arange(count) < count // 2, 0.0, -0.0)
    x_states = np.vstack((np.sin(t), np.full(count, 2.5)))
    eta_states = np.vstack((np.full(count, 1.0 / 3.0), np.zeros(count), np.full(count, -0.0),
                            sign_flip, np.cos(t)))
    saturated = np.array([True, False, True, True, True])
    path = tmp_path / "trajectory.csv"
    write_in_blocks(path, t, x_states, eta_states[saturated], saturated)
    text = path.read_text()
    assert text == trajectory_csv(t, x_states, eta_states, saturated)
    assert ",0.333333333333,0,-0,0," in text and ",0.333333333333,0,-0,-0," in text


def hybrid_case_study_dict(n, seed):
    data = generate_case_study(n, seed).to_dict()
    data.update(gain_mode="hybrid", self_regulating=[0])
    return data


def long_pair_dict(samples):
    """The consensus pair stepped ``samples`` times: a steady_tol no rate falls under."""
    return consensus_dict(sim={"dt": 0.01, "t_max": samples * 0.01, "steady_tol": 5e-324})


def mixed4_dict(**sim):
    return dict(json.loads((GOLDEN / "mixed4.json").read_text()), sim=sim)


# Mixed agents with two static edges, cut by the horizon within a block; a
# certified stop; and a long run, handed out in 157 blocks.
@pytest.mark.parametrize("data,samples,certified_at", [
    (mixed4_dict(dt=0.01, t_max=3.0), 301, None),
    (hybrid_case_study_dict(10, 4), 97, 96),
    (long_pair_dict(5000), 5001, None),
], ids=["mixed4-static-edges", "n10-s4-hybrid-certified", "pair-5000-steps"])
def test_streamed_trajectory_csv_is_the_recorded_one_byte_for_byte(data, samples, certified_at,
                                                                   tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    streamed = tmp_path / "streamed.csv"
    main(["verify", str(scenario), "--out-trajectory", str(streamed)])
    config, recorder = load_config(scenario), Samples()
    recorded = verify(config, record=recorder)
    assert json.loads(capsys.readouterr().out) == recorded.to_dict()
    graph, _, controllers = config.parts
    times, x_states, eta_states = recorder.states(graph.n_vertices, controllers.saturated)
    expected = trajectory_csv(times, x_states, eta_states, controllers.saturated)
    assert streamed.read_bytes() == expected.encode()
    assert times.size == samples
    assert recorded.sim["certified_at"] == certified_at


def test_a_blown_up_simulate_leaves_no_trajectory_csv(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text((GOLDEN / "none_blowup.json").read_text())
    path = tmp_path / "trajectory.csv"
    path.write_text("an earlier run's file\n")
    assert main(["simulate", str(scenario), "--out-csv", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "converged": False, "error": "state magnitude exceeded 1e+12 at t = 50.5"}
    assert not path.exists()


def test_an_infeasible_run_never_opens_the_trajectory_path(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(mixed_pair_dict()))
    path = tmp_path / "trajectory.csv"
    path.write_text("an earlier run's file\n")
    assert main(["verify", str(scenario), "--out-trajectory", str(path)]) == 1
    assert main(["simulate", str(scenario), "--out-csv", str(path)]) == 1
    assert path.read_text() == "an earlier run's file\n"


def test_streaming_the_trajectory_csv_holds_no_whole_run_table(tmp_path, capsys):
    # Peak traced allocation of an in-process ``verify --out-trajectory``
    # on the 2-vertex pair at 5,000 and at 50,000 samples.  A whole-run
    # [x, eta] table of 3 columns grows by at least 45,000 * 24 bytes (2.1 MB
    # measured, doubling included); streamed, the two peaks measured within
    # 25 kB of each other.
    peaks = []
    for samples in (5000, 50000):
        scenario = tmp_path / f"pair-{samples}.json"
        scenario.write_text(json.dumps(long_pair_dict(samples)))
        argv = ["verify", str(scenario), "--out-trajectory", str(tmp_path / "t.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len((tmp_path / "t.csv").read_text().splitlines()) == samples + 2
    capsys.readouterr()
    assert peaks[1] - peaks[0] < 64 * 1024, peaks


def test_emit_report_skips_csvs_without_run_data(tmp_path):
    traj_path = tmp_path / "trajectory.csv"
    pairs_path = tmp_path / "pairs.csv"
    report = verify(config_from_dict(mixed_pair_dict()), record=traj_path)
    emit_report(report, json_path=tmp_path / "report.json", pairs_csv=pairs_path)
    assert not traj_path.exists()
    assert not pairs_path.exists()


# ----------------------------------------------------------------------
# command-line interface
# ----------------------------------------------------------------------


@pytest.fixture()
def consensus_file(tmp_path):
    path = tmp_path / "consensus.json"
    path.write_text(json.dumps(consensus_dict()))
    return str(path)


@pytest.fixture()
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(mixed_pair_dict()))
    return str(path)


def test_cli_check_exit_codes(consensus_file, mixed_file, capsys):
    assert main(["check", consensus_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert payload["component_shortage_sums"] == [2.0]
    assert main(["check", mixed_file]) == 1
    assert json.loads(capsys.readouterr().out)["feasible"] is False


def test_cli_check_and_synthesize_use_the_exact_index_sum(tmp_path, capsys):
    # the slopes, equal to the declared indices, sum to exactly 0; numpy's
    # sum gives -4.4e-16; 1 / (1 / r) == r for each of them
    rho = [-3.0, -2.9, 1.0, 2.1, 2.8]
    edges = [[i, j] for i in range(5) for j in range(i + 1, 5)]
    path = tmp_path / "k5.json"
    path.write_text(json.dumps({
        "graph": {"n": 5, "edges": edges},
        "agents": [{"kind": "static_affine", "a": 1.0 / r, "c": 0.0, "rho": r}
                   for r in rho],
        "controllers": [{"kind": "tanh_integrator"}] * len(edges),
    }))
    assert main(["check", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is False
    assert payload["component_shortage_sums"] == [0.0]
    assert main(["synthesize", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is False
    assert "index sum 0.0;" in payload["reason"]


def test_cli_check_synthesizes_once(tmp_path, monkeypatch, capsys):
    # check certifies the one design verify runs, and takes no probe
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(static_affine_k3_hybrid(
        (-0.75, -0.75, -0.76), (-1.0, -1.0, -1.0)).to_dict()))
    calls = []
    monkeypatch.setattr(passivation, "check_design",
                        counted(passivation.check_design, calls))
    monkeypatch.setattr(netopt.RegularizedProblem, "convexity_probe",
                        counted(netopt.RegularizedProblem.convexity_probe, calls))
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    assert calls == ["check_design"]


def test_cli_rejects_hybrid_on_a_disconnected_graph_as_bad_input(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_text(json.dumps(consensus_dict(
        graph={"n": 2, "edges": []}, controllers=[], gain_mode="hybrid",
        self_regulating=[0])))
    for command in ("check", "synthesize", "verify"):
        assert main([command, str(path)]) == 3
        assert "hybrid mode needs a connected graph" in capsys.readouterr().err


def test_cli_synthesize_reports_design(consensus_file, capsys):
    assert main(["synthesize", consensus_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert payload["positive_definite"] is True
    assert payload["mode"] == "network_only"
    assert payload["alpha"] == [0.0, 0.0]
    assert payload["convexity_probe"] > 0.0


def test_cli_synthesize_infeasible_and_hybrid_override(mixed_file, capsys):
    assert main(["synthesize", mixed_file]) == 1
    assert json.loads(capsys.readouterr().out)["feasible"] is False
    assert main(["synthesize", mixed_file, "--hybrid", "--vsr", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "hybrid"
    assert payload["alpha"][0] > 0.0


def test_cli_validates_an_overridden_scenario_once(monkeypatch, capsys):
    graphs = []
    monkeypatch.setattr(NetworkGraph, "__init__", counted(NetworkGraph.__init__, graphs))
    argv = ["synthesize", str(GOLDEN / "mixed_pair.json"), "--hybrid", "--vsr", "1",
            "--epsilon", "0.5"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "hybrid"
    # one graph from validation; synthesis does not copy its one component
    assert len(graphs) == 1


def test_synthesis_and_solve_derive_the_graph_structure_once(monkeypatch):
    # a connected graph's components are searched, and its Laplacian formed,
    # once, when it is built
    searches, laplacians = [], []
    monkeypatch.setattr(graph_module, "_components",
                        counted(graph_module._components, searches))
    laplacian = NetworkGraph.laplacian

    def recorded_laplacian(self):
        laplacians.append(laplacian(self))
        return laplacians[-1]

    monkeypatch.setattr(NetworkGraph, "laplacian", recorded_laplacian)
    config = generate_case_study(10, 1)
    parts = build_system_parts(config)
    _, problem, _, _ = synthesis_stage(config)
    optimization_stage(config, problem)
    assert len(searches) == 1
    assert laplacians and all(L is laplacian(parts[0]) for L in laplacians)


def test_cli_rejects_an_unparsable_vsr_as_bad_input(mixed_file, capsys):
    for command in ("synthesize", "simulate", "optimize"):
        assert main([command, mixed_file, "--hybrid", "--vsr", "0,a"]) == 3
        assert "--vsr must be a comma-separated list of integers, got '0,a'" \
            in capsys.readouterr().err
    assert main(["synthesize", mixed_file, "--hybrid", "--vsr", "2"]) == 3
    assert "$.self_regulating[0]" in capsys.readouterr().err


def test_cli_rejects_a_nonpositive_epsilon_at_its_schema_path(consensus_file, capsys):
    for value in ("0", "-1"):
        assert main(["synthesize", consensus_file, "--epsilon", value]) == 3
        assert "$.epsilon" in capsys.readouterr().err


def test_cli_simulate_writes_trajectory(consensus_file, tmp_path, capsys):
    csv_path = tmp_path / "run.csv"
    assert main(["simulate", consensus_file, "--out-csv", str(csv_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    np.testing.assert_allclose(payload["y_ss"], [10.25, 10.25], atol=1e-6)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x_0,x_1,eta_0"
    assert len(lines) > 100


def test_cli_optimize_reports_minimizer(consensus_file, capsys):
    assert main(["optimize", consensus_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "optimal"
    np.testing.assert_allclose(payload["y_star"], [10.25, 10.25], atol=1e-6)


@pytest.mark.parametrize("command,scenario,code", [
    ("simulate", mixed_pair_dict(), 1),
    ("optimize", mixed_pair_dict(), 1),
    ("simulate", mixed_pair_dict(
        gain_mode="none",
        agents=[{"kind": "traffic", "kappa": 1.0, "v0": 10.0, "v1": 0.8},
                {"kind": "traffic", "kappa": -0.5, "v0": 12.0, "v1": -0.4}]), 2),
], ids=["simulate-infeasible", "optimize-infeasible", "simulate-blowup"])
def test_cli_out_file_written_on_failure_paths(command, scenario, code,
                                               tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    out_path = tmp_path / "out.json"
    assert main([command, str(scenario_path), "--out", str(out_path)]) == code
    assert out_path.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["check", "{consensus}", "--out", "{bad}"],
    ["synthesize", "{consensus}", "--out", "{bad}"],
    ["synthesize", "{mixed}", "--out", "{bad}"],
    ["simulate", "{consensus}", "--out", "{bad}"],
    ["simulate", "{consensus}", "--out-csv", "{bad}"],
    ["optimize", "{consensus}", "--out", "{bad}"],
    ["verify", "{consensus}", "--out-json", "{bad}"],
    ["verify", "{consensus}", "--out-trajectory", "{bad}"],
    ["verify", "{consensus}", "--out-pairs", "{bad}"],
    ["casestudy", "--n", "4", "--seed", "6", "--config-out", "{bad}"],
], ids=["check-out", "synthesize-out", "synthesize-infeasible-out", "simulate-out",
        "simulate-out-csv", "optimize-out", "verify-out-json", "verify-out-trajectory",
        "verify-out-pairs", "casestudy-config-out"])
def test_cli_unwritable_output_exits_3(argv, consensus_file, mixed_file, tmp_path,
                                       capsys):
    bad = str(tmp_path / "missing" / "out")
    argv = [a.format(consensus=consensus_file, mixed=mixed_file, bad=bad) for a in argv]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")


def test_cli_prints_strict_json(tmp_path, capsys):
    # an edgeless, nonconvex scenario: the solver stops before any residual is finite
    path = tmp_path / "alone.json"
    path.write_text(json.dumps({
        "graph": {"n": 1, "edges": []},
        "agents": [{"kind": "traffic", "kappa": -1.0, "v0": 10.0, "v1": -0.8}],
        "controllers": [],
        "gain_mode": "none",
    }))
    assert main(["optimize", str(path)]) == 2

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert (payload["status"], payload["iterations"]) == ("nonconvex_detected", 0)
    assert payload["dual_residual"] is None
    assert harness.round_floats([math.inf, -math.inf, math.nan, 0.5]) == [None, None, None, 0.5]
    with pytest.raises(ValueError):
        harness.json_text({"x": math.inf})


def test_cli_verify_writes_report(consensus_file, tmp_path, capsys):
    json_path = tmp_path / "report.json"
    assert main(["verify", consensus_file, "--out-json", str(json_path)]) == 0
    stdout_payload = json.loads(capsys.readouterr().out)
    assert stdout_payload == json.loads(json_path.read_text())
    assert stdout_payload["verdict"] == "pass"


def test_cli_verify_infeasible_exit(mixed_file, capsys):
    assert main(["verify", mixed_file]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "infeasible"


def test_cli_bad_input_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["check", missing]) == 3
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["check", str(broken)]) == 3
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(consensus_dict(gain_mode="turbo")))
    assert main(["check", str(invalid)]) == 3
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(consensus_dict()).encode().replace(b"{", b"{\xe9", 1))
    for command in ("check", "verify"):
        assert main([command, str(latin1)]) == 3
        assert "not UTF-8" in capsys.readouterr().err
    assert main(["casestudy", "--n", "1", "--seed", "0"]) == 3
    assert "at least 2 agents" in capsys.readouterr().err


def test_cli_casestudy_runs_and_emits_config(tmp_path, capsys):
    config_path = tmp_path / "scenario.json"
    assert main(["casestudy", "--n", "4", "--seed", "6",
                 "--config-out", str(config_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    saved = json.loads(config_path.read_text())
    assert saved == generate_case_study(4, 6).to_dict()


def test_cli_console_script_casestudy_deterministic(tmp_path):
    runs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "netpass", "casestudy", "--n", "4",
             "--seed", "6"],
            capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stderr
        runs.append(result.stdout)
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["passed"] is True


def test_cli_module_entry_point_passes_exit_code_through(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    result = subprocess.run(
        [sys.executable, "-m", "netpass", "check", str(bad)],
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("error: ")


def test_console_script_maps_to_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["netpass"] == "netpass.cli:main"
    module_name, attr = scripts["netpass"].split(":")
    assert getattr(importlib.import_module(module_name), attr) is main

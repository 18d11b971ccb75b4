"""The paper's two theorems as properties of the whole pipeline.

A certified gain passivates the closed loop, and its steady states are then
the regularized problem's minimizers.  In hybrid mode any non-empty set of
self-regulating vertices gives a certified design, so on random small
networks of traffic and integrator agents ``verify`` must never end in a
blowup.  The agents' indices come from the models; static affine agents are
left out, because their index is declared by the caller.

The n=10 case study at seeds 0 and 7, run with the paper's edge-gain bound,
and the sparse ring2n(300) and a 5-vertex hybrid scenario under the
synthesized gain keep a known defect visible: the steady-state detector
stops on a wound-up saturated edge, whose output tanh(eta) is exactly +-1
while eta still moves.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netpass import (
    ClosedLoopSystem,
    GainDesign,
    build_problem,
    check_design,
    steady_state_residual,
)
from netpass.harness import (
    build_system_parts,
    config_from_dict,
    generate_case_study,
    optimization_stage,
    simulation_stage,
    synthesis_stage,
    verify,
)
from oracles import paper_edge_gain_bound


@st.composite
def hybrid_scenarios(draw):
    """A random tree plus each other pair with probability 0.4; vertex 0 self-regulates.

    Traffic agents have kappa = +-U[0.5, 2] and v1 = kappa U[0.5, 2]; one
    agent in five is an integrator.  Seven edges in ten carry a saturated
    integrator, the rest a static gain w ~ U[0.5, 2].
    """
    n = draw(st.integers(2, 6))
    edges = [[draw(st.integers(0, k - 1)), k] for k in range(1, n)]
    tree = {tuple(e) for e in edges}
    edges += [[i, j] for i in range(n) for j in range(i + 1, n)
              if (i, j) not in tree and draw(st.integers(0, 9)) < 4]
    agents = []
    for _ in range(n):
        if draw(st.integers(0, 4)) == 0:
            agents.append({"kind": "integrator"})
            continue
        kappa = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 2.0))
        agents.append({"kind": "traffic", "kappa": kappa, "v0": draw(st.floats(10.0, 30.0)),
                       "v1": kappa * draw(st.floats(0.5, 2.0))})
    controllers = [{"kind": "tanh_integrator"} if draw(st.integers(0, 9)) < 7
                   else {"kind": "static_gain", "w": draw(st.floats(0.5, 2.0))}
                   for _ in edges]
    return config_from_dict({
        "graph": {"n": n, "edges": edges},
        "agents": agents,
        "controllers": controllers,
        "gain_mode": "hybrid",
        "self_regulating": [0],
        "sim": {"t_max": 300.0},
    })


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hybrid_scenarios())
def test_a_certified_hybrid_design_never_blows_up(config):
    report = verify(config)
    assert report.feasible and report.gain["positive_definite"]
    # the design certifies the slopes less the 1e-2 probe floor
    assert report.convexity_probe > 1e-2
    assert report.verdict in ("pass", "not_converged"), report.verdict


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the steady-state detector stops on a wound-up saturated edge")
@pytest.mark.parametrize("seed", [0, 7])
def test_a_case_study_run_under_the_paper_bound_ends_at_the_minimizer(seed):
    # Today seed 0 stops at mismatch 0.438, and seed 7 at an endpoint whose
    # stationarity residual is 2.83 (mismatch 3.4e-3).
    config = generate_case_study(10, seed)
    graph, agents, controllers = build_system_parts(config)
    bound = paper_edge_gain_bound(agents.rho_vector, graph)
    epsilon = 0.1 * max(1.0, bound)
    alpha, beta = np.zeros(graph.n_vertices), np.full(graph.n_edges, bound + epsilon)
    design = GainDesign(alpha, beta, epsilon, bound,
                        check_design(agents.rho_vector, alpha, beta, graph))
    trajectory, _ = simulation_stage(config, design)
    minimizer, _ = optimization_stage(config, build_problem(graph, agents, controllers, design))
    mismatch = float(np.max(np.abs(trajectory.y_ss - minimizer.y_star)))
    residual = steady_state_residual(ClosedLoopSystem(graph, agents, controllers, design),
                                     trajectory.y_ss)
    assert mismatch <= config.mismatch_tol and residual <= 1e-5, (mismatch, residual)


def ring2n(n):
    """A ring on n vertices plus n random chords, with the case study's agents.

    Every edge is a tanh integrator, in ``network_only`` mode; the graph,
    the agents and the sim seed are drawn from seed 0.
    """
    rng = np.random.default_rng(0)
    kappa = np.where(rng.random(n) < 1 / 3, -1.0, 1.0)
    v0 = np.where(rng.random(n) < 0.5, 20.0, 120.0) + 15.0 * rng.standard_normal(n)
    edges = {(i, (i + 1) % n) for i in range(n)}
    while len(edges) < 2 * n:
        a, b = rng.integers(n, size=2)
        if a != b and (b, a) not in edges:
            edges.add((int(a), int(b)))
    edges = sorted(edges)
    return config_from_dict({
        "graph": {"n": n, "edges": [list(e) for e in edges]},
        "agents": [{"kind": "traffic", "kappa": float(k), "v0": float(v), "v1": 0.8 * float(k)}
                   for k, v in zip(kappa, v0)],
        "controllers": [{"kind": "tanh_integrator"}] * len(edges),
        "gain_mode": "network_only",
        "sim": {"seed": 0},
    })


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the steady-state detector stops on a wound-up saturated edge")
def test_the_sparse_ring2n_300_run_ends_at_the_minimizer():
    # Today verify stops at t = 683.7 with mismatch 0.058 and stationarity
    # residual 4.00: two edges are wound deep with the wrong sign.
    config = ring2n(300)
    report = verify(config)
    system = ClosedLoopSystem(*config.parts, synthesis_stage(config)[0])
    residual = steady_state_residual(system, np.asarray(report.sim["y_ss"]))
    assert report.mismatch <= config.mismatch_tol and residual <= 1e-5, (report.mismatch,
                                                                         residual)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the steady-state detector stops on a wound-up saturated edge")
def test_the_five_vertex_hybrid_run_ends_at_the_minimizer():
    # One of the hybrid property test's examples, run at the default horizon.
    # Today verify stops at t = 627.3 with mismatch 0.167: edges 0 and 3 end
    # wound at eta = -14.9 and +14.5 against their own zeta.
    config = config_from_dict({
        "graph": {"n": 5, "edges": [[0, 1], [0, 2], [0, 3], [1, 4], [0, 4], [2, 4]]},
        "agents": [
            {"kind": "integrator"},
            {"kind": "traffic", "kappa": 1.0, "v0": 15.408111683758403, "v1": 0.5},
            {"kind": "traffic", "kappa": -1.0, "v0": 15.0, "v1": -0.8913609069011372},
            {"kind": "traffic", "kappa": -1.8750383227890954, "v0": 17.133557146958218,
             "v1": -2.1416355470211927},
            {"kind": "integrator"},
        ],
        "controllers": [{"kind": "tanh_integrator"}] * 6,
        "gain_mode": "hybrid",
        "self_regulating": [0],
    })
    report = verify(config)
    assert report.verdict == "pass", (report.verdict, report.mismatch, report.sim["t_end"])


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the steady-state detector stops on a wound-up saturated edge")
def test_the_n10_seed_11_hybrid_case_study_ends_at_the_minimizer():
    # Vertex 0 lifts the shifted indices to a mean of 1.  Today verify stops
    # at t = 245.1 with mismatch 0.505: edge 41 ends wound at eta = -46.4
    # against its own zeta (+0.415), where zeta* = 0.  Continued with
    # steady_tol 0, the run reaches y* within 5e-13.
    data = generate_case_study(10, 11).to_dict()
    data.update(gain_mode="hybrid", self_regulating=[0])
    report = verify(config_from_dict(data))
    assert report.verdict == "pass", (report.verdict, report.mismatch, report.sim["t_end"])

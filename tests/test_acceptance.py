"""End-to-end acceptance gates for the netpass toolkit, one test per gate.

Each test exercises the public API the way a user would and asserts a hard
numeric threshold; run with ``pytest -v`` to get a one-line pass/fail
verdict per gate.  Every random draw is seeded so failures reproduce
deterministically, and each test prints the measured worst case for
inspection under ``pytest -s``.

Gate summary:
 1. 200 random connected networks with mixed self-regulation rates but a
    positive total always admit a certified uniform network gain, in <10 s.
 2. 200 random networks with a non-positive total rate: the consensus
    direction pins the coupling-matrix mass to the rate sum, so no network
    gain certifies.
 3. A balanced +1/-1 pair has coupling determinant exactly -1 for any edge
    gain.
 4. Uniform agents need no edge gain at all: the threshold is zero on
    complete and star networks for several rate levels.
 5. 20 randomized traffic scenarios with positive total rate pass the full
    synthesize/simulate/optimize pipeline with steady-state mismatch
    <= 1e-2, in <2 min.
 6. 10 scenarios with negative total rate are rescued by the hybrid
    vertex-lift design and still pass the pipeline.
 7. The solver agrees with an independent zooming grid search to
    1e-3 on ten small convexified networks.
 8. Analytic gradients of the smooth objective part match central
    differences to 1e-5 relative on three model classes, 100 points each.
 9. For all-passive networks the optimal potential objective and the flow
    objective at the reconstructed edge efforts cancel to 1e-6.
10. Along five certified closed-loop runs the discretized storage-rate
    inequality is never violated by more than 1e-8.
11. Two invocations of the case-study command line produce byte-identical
    reports.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np

from netpass import (
    AgentBank,
    ControllerBank,
    GainDesign,
    IntegratorAgent,
    NetworkGraph,
    StaticAffineAgent,
    StaticGainController,
    TanhIntegratorController,
    TrafficAgent,
    build_problem,
    check_design,
    coupling_matrix,
    edge_gain_threshold,
    solve,
    stationarity_residual,
    uniform_network_gain,
)
from netpass.harness import (
    build_system_parts,
    config_from_dict,
    generate_case_study,
    verify,
)
from oracles import (
    Samples,
    agent_drift,
    agent_storage,
    brute_force,
    flow_objective,
    incidence,
    spec_records,
)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def random_connected_graph(rng, n):
    """Random spanning tree plus each remaining edge with probability 0.3."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a, b = order[rng.integers(0, i)], order[i]
        edges.add((min(a, b), max(a, b)))
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges and rng.random() < 0.3:
                edges.add((a, b))
    return NetworkGraph(n, tuple(sorted(edges)))


def case_config(n, seed, mode="network_only", vsr=()):
    """Case-study scenario, optionally switched to the hybrid gain mode."""
    config = generate_case_study(n, seed)
    if mode == "network_only":
        return config
    data = config.to_dict()
    data["gain_mode"] = mode
    data["self_regulating"] = list(vsr)
    return config_from_dict(data)


def select_case_studies(sizes, accept_rate_sum, count, mode="network_only",
                        vsr=()):
    """Walk seeds 0,1,2,... cycling through sizes; keep accepted scenarios.

    The acceptance predicate sees the summed self-regulation rate of the
    generated scenario, so the sweep is fully deterministic.
    """
    chosen = []
    size_cycle = itertools.cycle(sizes)
    seed = 0
    while len(chosen) < count:
        n = next(size_cycle)
        config = generate_case_study(n, seed)
        rate_sum = sum(spec["kappa"] for spec in config.agents)
        if accept_rate_sum(rate_sum):
            chosen.append((n, seed, case_config(n, seed, mode, vsr)))
        seed += 1
    return chosen


def smooth_part(problem, y):
    """Everything in the objective except the edge potentials."""
    zeta = incidence(problem.graph).T @ y
    return (problem.agents.potential_total(y)
            + 0.5 * float(problem.beta @ zeta**2)
            + 0.5 * float(problem.alpha @ y**2))


def convexified_traffic_problem(seed):
    """Small mixed-rate traffic network with a uniform certifying edge gain.

    The edge gain is sized against the true input-side curvatures (1/v1),
    which exceed the declared rates for these agents, so the resulting
    problem is strictly convex even with a negative-rate agent present.
    """
    rng = np.random.default_rng(1000 + seed)
    n = 2 + seed % 2
    kappa = np.where(rng.random(n) < 1.0 / 3.0, -1.0, 1.0)
    while kappa.sum() <= 0.0:
        kappa = np.where(rng.random(n) < 1.0 / 3.0, -1.0, 1.0)
    v0 = rng.uniform(10.0, 30.0, n)
    graph = NetworkGraph.complete(n)
    agents = AgentBank([
        TrafficAgent(float(k), float(v), float(0.8 * k))
        for k, v in zip(kappa, v0)
    ])
    controllers = ControllerBank([TanhIntegratorController()] * graph.n_edges)
    beta = edge_gain_threshold(1.25 * kappa, graph) + 1.0
    design = GainDesign(alpha=np.zeros(n), beta=np.full(graph.n_edges, beta),
                        epsilon=0.0, threshold=0.0, certificate=1.0)
    return build_problem(graph, agents, controllers, design), v0


def all_passive_flow_instance(n, seed):
    """Complete traffic network with unit rates and mixed free-flow speeds: graph and records."""
    rng = np.random.default_rng(seed)
    mix = rng.random(n) < 0.5
    v0 = np.where(mix, 20.0, 120.0) + 15.0 * rng.standard_normal(n)
    graph = NetworkGraph.complete(n)
    agents = [TrafficAgent(1.0, float(v), 0.8) for v in v0]
    controllers = [TanhIntegratorController()] * graph.n_edges
    return graph, agents, controllers


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------


def test_criterion_01_random_networks_admit_certified_uniform_gain():
    t0 = time.monotonic()
    rng = np.random.default_rng(1234)
    successes = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        graph = random_connected_graph(rng, n)
        rho = rng.uniform(-2.0, 2.0, n)
        while rho.sum() <= 0.0:
            rho = rng.uniform(-2.0, 2.0, n)
        design = uniform_network_gain(rho, graph)
        certificate = check_design(rho, design.alpha, design.beta, graph)
        if design.certificate.min_eig > 0.0 and certificate.positive_definite:
            successes += 1
    elapsed = time.monotonic() - t0
    print(f"criterion 1: {successes}/200 certified designs in {elapsed:.2f}s")
    assert successes == 200
    assert elapsed < 10.0


def test_criterion_02_nonpositive_rate_sum_blocks_network_gains():
    rng = np.random.default_rng(4321)
    successes = 0
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        graph = random_connected_graph(rng, n)
        rho = rng.uniform(-2.0, 2.0, n)
        while rho.sum() > 0.0:
            rho = rng.uniform(-2.0, 2.0, n)
        beta = rng.uniform(0.0, 10.0, graph.n_edges)
        X = coupling_matrix(rho, np.zeros(n), beta, graph)
        gap = abs(float(np.ones(n) @ X @ np.ones(n)) - float(rho.sum()))
        worst_gap = max(worst_gap, gap)
        certificate = check_design(rho, np.zeros(n), beta, graph)
        if gap <= 1e-12 and not certificate.positive_definite:
            successes += 1
    print(f"criterion 2: {successes}/200 blocked, worst mass gap {worst_gap:.2e}")
    assert successes == 200


def test_criterion_03_balanced_pair_determinant_is_minus_one():
    graph = NetworkGraph.complete(2)
    rho = np.array([1.0, -1.0])
    rng = np.random.default_rng(99)
    successes = 0
    worst = 0.0
    for _ in range(50):
        beta = rng.uniform(0.0, 10.0, 1)
        X = coupling_matrix(rho, np.zeros(2), beta, graph)
        deviation = abs(float(np.linalg.det(X)) + 1.0)
        worst = max(worst, deviation)
        certificate = check_design(rho, np.zeros(2), beta, graph)
        if deviation <= 1e-12 and not certificate.positive_definite:
            successes += 1
    print(f"criterion 3: {successes}/50 determinants at -1, worst dev {worst:.2e}")
    assert successes == 50


def test_criterion_04_uniform_agents_need_no_edge_gain():
    star = NetworkGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
    worst = 0.0
    for graph in (NetworkGraph.complete(3), NetworkGraph.complete(5), star):
        for rate in (0.5, 1.0, 3.0):
            threshold = edge_gain_threshold(
                np.full(graph.n_vertices, rate), graph)
            worst = max(worst, threshold)
    print(f"criterion 4: worst uniform-rate threshold {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_05_network_gain_pipeline_matches_optimizer():
    t0 = time.monotonic()
    scenarios = select_case_studies(
        sizes=(4, 5, 6, 7, 8, 10),
        accept_rate_sum=lambda s: s > 0.0,
        count=20,
    )
    worst_mismatch = 0.0
    passes = 0
    for n, seed, config in scenarios:
        report = verify(config)
        assert report.verdict == "pass", (n, seed, report.verdict)
        assert report.mismatch <= 1e-2, (n, seed, report.mismatch)
        worst_mismatch = max(worst_mismatch, report.mismatch)
        passes += 1
    elapsed = time.monotonic() - t0
    print(f"criterion 5: {passes}/20 pipelines agree, worst mismatch "
          f"{worst_mismatch:.2e}, {elapsed:.1f}s")
    assert passes == 20
    assert elapsed < 120.0


def test_criterion_06_hybrid_gain_rescues_negative_rate_sum():
    scenarios = select_case_studies(
        sizes=(4, 5, 6, 7),
        accept_rate_sum=lambda s: -3.0 <= s < 0.0,
        count=10,
        mode="hybrid",
        vsr=(0,),
    )
    worst_mismatch = 0.0
    passes = 0
    for n, seed, config in scenarios:
        report = verify(config)
        assert report.verdict == "pass", (n, seed, report.verdict)
        assert report.gain["alpha"][0] > 0.0, (n, seed)
        assert report.gain["certificate"] > 0.0, (n, seed)
        assert report.mismatch <= 1e-2, (n, seed, report.mismatch)
        worst_mismatch = max(worst_mismatch, report.mismatch)
        passes += 1
    print(f"criterion 6: {passes}/10 hybrid rescues, worst mismatch "
          f"{worst_mismatch:.2e}")
    assert passes == 10


def test_criterion_07_solver_matches_grid_search_on_small_networks():
    worst = 0.0
    for seed in range(10):
        problem, v0 = convexified_traffic_problem(seed)
        assert problem.convexity_probe() > 0.0, seed
        minimizer = solve(problem)
        lo, hi = float(v0.min() - 80.0), float(v0.max() + 80.0)
        reference = brute_force(problem, box=(lo, hi), spacing=1e-3)
        assert np.all(reference.y_star > lo + 1.0), seed
        assert np.all(reference.y_star < hi - 1.0), seed
        diff = abs(minimizer.objective_value - reference.objective_value)
        worst = max(worst, diff)
        assert diff <= 1e-3, (seed, diff)
    print(f"criterion 7: 10/10 solver vs grid, worst objective gap {worst:.2e}")


def test_criterion_08_smooth_gradient_matches_central_differences():
    consensus_pair = build_problem(
        NetworkGraph.complete(2),
        AgentBank([TrafficAgent(1, 20.0, 0.8), TrafficAgent(1, 30.0, 0.8)]),
        ControllerBank([TanhIntegratorController()]),
    )

    triangle = NetworkGraph.complete(3)
    mixed_kappa = np.array([1.0, 1.0, -1.0])
    mixed_beta = edge_gain_threshold(1.25 * mixed_kappa, triangle) + 1.0
    gained_triangle = build_problem(
        triangle,
        AgentBank([TrafficAgent(k, v, 0.8 * k)
                   for k, v in zip(mixed_kappa, (20.0, 25.0, 18.0))]),
        ControllerBank([TanhIntegratorController()] * 3),
        GainDesign(alpha=np.zeros(3), beta=np.full(3, mixed_beta),
                   epsilon=0.0, threshold=0.0, certificate=1.0),
    )

    heterogeneous_path = build_problem(
        NetworkGraph(4, ((0, 1), (1, 2), (2, 3))),
        AgentBank([
            TrafficAgent(1.0, 20.0, 0.8),
            IntegratorAgent(),
            StaticAffineAgent(2.0, 5.0, tau=1.5, rho=0.5),
            TrafficAgent(0.5, 100.0, 0.4),
        ]),
        ControllerBank([TanhIntegratorController(), StaticGainController(0.7),
                        TanhIntegratorController()]),
        GainDesign(alpha=np.array([0.3, 0.0, 0.1, 0.2]),
                   beta=np.array([0.5, 1.5, 0.9]),
                   epsilon=0.0, threshold=0.0, certificate=1.0),
    )

    classes = [
        ("ungained pair", consensus_pair, np.array([20.0, 30.0]), 0),
        ("gained mixed triangle", gained_triangle,
         np.array([20.0, 25.0, 18.0]), 1),
        ("heterogeneous path", heterogeneous_path,
         np.array([20.0, 0.0, 2.5, 100.0]), 2),
    ]

    h = 1e-6
    for label, problem, center, seed in classes:
        rng = np.random.default_rng(seed)
        n = problem.graph.n_vertices
        worst = 0.0
        for _ in range(100):
            y = center + rng.uniform(-5.0, 5.0, n)
            grad = problem.smooth_gradient(y)
            fd = np.zeros(n)
            for i in range(n):
                step = np.zeros(n)
                step[i] = h
                fd[i] = (smooth_part(problem, y + step)
                         - smooth_part(problem, y - step)) / (2.0 * h)
            worst = max(worst, np.max(np.abs(grad - fd))
                        / max(1.0, np.max(np.abs(fd))))
        print(f"criterion 8 [{label}]: worst relative error {worst:.2e}")
        assert worst <= 1e-5, (label, worst)


def test_criterion_09_potential_and_flow_objectives_cancel():
    worst_gap = 0.0
    for n, seed in ((3, 0), (4, 1), (5, 2), (6, 3), (8, 4)):
        graph, agents, controllers = all_passive_flow_instance(n, seed)
        problem = build_problem(graph, AgentBank(agents), ControllerBank(controllers))
        minimizer = solve(problem)
        residual, efforts = stationarity_residual(problem, minimizer.y_star)
        flows = -incidence(graph) @ efforts
        dual_value = flow_objective(agents, controllers, flows, efforts)
        gap = abs(minimizer.objective_value + dual_value)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6, (n, seed, gap)
    print(f"criterion 9: 5/5 objective pairs cancel, worst gap {worst_gap:.2e}")


def test_criterion_10_certified_runs_never_violate_dissipation():
    runs = (
        (5, 1, "network_only"),
        (7, 3, "network_only"),
        (8, 4, "network_only"),
        (4, 0, "hybrid"),
        (7, 11, "hybrid"),
    )
    worst_violation = -np.inf
    total_samples = 0
    h = 1e-3
    for n, seed, mode in runs:
        # A fixed step finer than each run's default, so the number of
        # samples the gate checks does not fall when the default step grows.
        data = case_config(n, seed, mode, vsr=(0,)).to_dict()
        data["sim"]["dt"] = 0.02
        config = config_from_dict(data)
        samples = Samples()
        report = verify(config, record=samples)
        assert report.passed, (n, seed, mode, report.verdict)
        graph, agents, controllers = build_system_parts(config)
        records = spec_records(config.agents)
        _, X, eta_states = samples.states(graph.n_vertices, controllers.saturated)
        alpha = np.asarray(report.gain["alpha"])
        beta = np.asarray(report.gain["beta"])
        E = incidence(graph)

        y_ss = np.asarray(report.sim["y_ss"])
        u_ss = agents.steady_input(y_ss)
        regularizer = (E * beta) @ E.T + np.diag(alpha)
        v_ss = u_ss + regularizer @ y_ss

        efforts = np.tanh(eta_states)
        outer_input = -E @ efforts
        agent_input = outer_input - regularizer @ X
        x_rate = np.vstack([
            agent_drift(agent, X[i], agent_input[i])
            for i, agent in enumerate(records)
        ])

        gradients = np.empty_like(X)
        for i, agent in enumerate(records):
            gradients[i] = (agent_storage(agent, X[i] + h, y_ss[i])
                            - agent_storage(agent, X[i] - h, y_ss[i])) / (2.0 * h)
        storage_rate = np.sum(gradients * x_rate, axis=0)
        supply = np.sum((outer_input - v_ss[:, None]) * (X - y_ss[:, None]),
                        axis=0)
        violation = float(np.max(storage_rate - supply))
        worst_violation = max(worst_violation, violation)
        total_samples += X.shape[1]
        assert violation <= 1e-8, (n, seed, mode, violation)
    # Every sample of the five runs, which only a recorder sees: a run's
    # Trajectory holds its final sample alone.  A run that a certificate
    # ends has no samples of its linear all-deep tail.
    assert total_samples == 80476
    print(f"criterion 10: 5/5 certified runs dissipative over "
          f"{total_samples} samples, worst violation {worst_violation:.2e}")


def test_criterion_11_case_study_reports_are_reproducible(tmp_path):
    def run(tag):
        json_path = tmp_path / f"report_{tag}.json"
        csv_path = tmp_path / f"trajectory_{tag}.csv"
        result = subprocess.run(
            [sys.executable, "-m", "netpass", "casestudy", "--n", "10",
             "--seed", "7",
             "--out-json", str(json_path), "--out-trajectory", str(csv_path)],
            capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stderr
        return result.stdout, json_path.read_bytes(), csv_path.read_bytes()

    first = run("a")
    second = run("b")
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]
    payload = json.loads(first[1])
    assert payload["passed"] is True
    print("criterion 11: two case-study invocations byte-identical "
          f"({len(first[1])} JSON bytes, {len(first[2])} CSV bytes)")

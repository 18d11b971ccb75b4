"""Gain synthesis tests: thresholds, certificates, feasibility.

Frozen values derived by hand:
- rho = (3, -1) on the 2-path: det(diag(rho) + beta L) = 2 beta - 3, so the
  threshold is 3/2; with margin 0.1 the gain is 1.6.  At gain 2.1,
  X = [[5.1, -2.1], [-2.1, 1.1]] has det 1.2; at gain 1.0 det is exactly -1.
- rho = (3, -1) and (5, -1) on two 2-paths: det 4 beta - 5 on the second, so
  the component thresholds are 3/2 and 5/4.
- rho = (-1,-1,-1) on the triangle, hybrid: vertex 0 gets alpha = 4.  On the
  corrected indices (3,-1,-1) the Schur complement on the consensus
  direction is diag(9, 1) in the basis (2,-1,-1)/sqrt(6), (0,1,-1)/sqrt(2);
  with lambda = 3 on both, the threshold is 9/3 = 3 (the paper's bound is
  52/9).
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netpass import (
    DisconnectedGraphError,
    GainDesign,
    NetworkGraph,
    NotPassivizableError,
    VertexIndexError,
    check_design,
    component_sums,
    config_from_dict,
    coupling_matrix,
    edge_gain_threshold,
    generate_case_study,
    hybrid_gain,
    uniform_network_gain,
    zero_design,
)
from netpass.harness import build_system_parts
from oracles import paper_edge_gain_bound

EXACT_TOL = 1e-12
EIG_TOL = 1e-9

P2 = NetworkGraph.path(2)
K3 = NetworkGraph.complete(3)


def test_threshold_frozen_two_vertex():
    assert edge_gain_threshold(np.array([3.0, -1.0]), P2) == pytest.approx(1.5, abs=EXACT_TOL)


def test_threshold_zero_for_homogeneous_surplus():
    assert edge_gain_threshold(np.array([2.0, 2.0, 2.0]), K3) == pytest.approx(0.0, abs=EXACT_TOL)


def test_threshold_frozen_hybrid_corrected_indices():
    assert edge_gain_threshold(np.array([3.0, -1.0, -1.0]), K3) == pytest.approx(
        3.0, abs=1e-10)
    assert paper_edge_gain_bound(np.array([3.0, -1.0, -1.0]), K3) == pytest.approx(
        52.0 / 9.0, abs=1e-10)


@st.composite
def connected_graphs(draw):
    """Paths, stars, complete graphs and random trees with extra edges."""
    n = draw(st.integers(min_value=2, max_value=9))
    kind = draw(st.sampled_from(("path", "star", "complete", "tree_plus")))
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif kind == "complete":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        edges = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
        tree = {tuple(sorted(e)) for e in edges}
        extra = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
        edges += draw(st.lists(st.sampled_from(extra), unique=True)) if extra else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return NetworkGraph(n, tuple((t, h) if f else (h, t) for (h, t), f in zip(edges, flips)))


@st.composite
def threshold_cases(draw):
    graph = draw(connected_graphs())
    n = graph.n_vertices
    if draw(st.booleans()):
        rho = np.full(n, draw(st.floats(min_value=1e-3, max_value=1e3)))
    else:
        rho = np.array(draw(st.lists(st.floats(min_value=-5.0, max_value=5.0),
                                     min_size=n, max_size=n)))
        if rho.sum() <= 0.1:
            rho = rho + (0.1 - rho.sum()) / n + draw(st.floats(0.0, 2.0))
    return graph, rho


def bisected_threshold(rho, graph, steps=60):
    """The smallest uniform edge gain making diag(rho) + beta L positive definite, by bisection."""
    def definite(beta):
        return np.linalg.eigvalsh(coupling_matrix(rho, np.zeros(rho.size),
                                                  np.full(graph.n_edges, beta), graph))[0] > 0.0
    if definite(0.0):
        return 0.0
    low, high = 0.0, 1.0
    while not definite(high):
        low, high = high, 2.0 * high
    for _ in range(steps):
        middle = 0.5 * (low + high)
        low, high = (low, middle) if definite(middle) else (middle, high)
    return high


@settings(max_examples=300, deadline=None, derandomize=True)
@given(threshold_cases())
def test_threshold_is_exact(case):
    graph, rho = case
    got = edge_gain_threshold(rho, graph)
    if np.all(rho == rho[0]):
        assert got == 0.0
    # the exact threshold never exceeds the paper's sufficient bound
    bound = paper_edge_gain_bound(rho, graph)
    assert got <= bound * (1.0 + 1e-9) + 1e-12
    # positive definite just above it, and not just below a positive one
    step = 1e-6 * max(1.0, got)
    beta = np.full(graph.n_edges, got + step)
    assert np.linalg.eigvalsh(coupling_matrix(rho, np.zeros(rho.size), beta, graph))[0] > 0.0
    if got > step:
        beta = np.full(graph.n_edges, got - step)
        assert np.linalg.eigvalsh(coupling_matrix(rho, np.zeros(rho.size), beta, graph))[0] < 0.0
    assert got == pytest.approx(bisected_threshold(rho, graph), rel=1e-9, abs=1e-12)


def test_threshold_memory_stays_below_one_m_vector_per_vertex():
    # one m x m matrix at n = 60 is 23.9 MiB; n * m doubles are 0.81 MiB
    g = NetworkGraph.complete(60)
    rho = np.where(np.arange(60) % 3 == 0, -1.0, 1.0)
    edge_gain_threshold(rho, g)
    tracemalloc.start()
    try:
        edge_gain_threshold(rho, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n_vertices * g.n_edges * 8


def test_threshold_requires_connected_and_feasible():
    with pytest.raises(DisconnectedGraphError):
        edge_gain_threshold(np.array([1.0, 1.0]), NetworkGraph(2, ()))
    with pytest.raises(NotPassivizableError):
        edge_gain_threshold(np.array([1.0, -1.0]), P2)


def test_coupling_matrix_frozen():
    X = coupling_matrix(np.array([3.0, -1.0]), np.zeros(2), np.array([2.1]), P2)
    np.testing.assert_allclose(X, [[5.1, -2.1], [-2.1, 1.1]], atol=EXACT_TOL)
    assert np.linalg.det(X) == pytest.approx(1.2, abs=1e-10)


def test_coupling_matrix_det_below_threshold():
    X = coupling_matrix(np.array([3.0, -1.0]), np.zeros(2), np.array([1.0]), P2)
    assert np.linalg.det(X) == pytest.approx(-1.0, abs=EXACT_TOL)


def test_quadratic_form_along_ones_equals_index_sum():
    # E^T 1 = 0, so 1^T X 1 = sum(rho) regardless of the gains
    rng = np.random.default_rng(21)
    for _ in range(50):
        g = NetworkGraph.complete(int(rng.integers(2, 7)))
        rho = rng.normal(0.0, 3.0, g.n_vertices)
        beta = rng.uniform(0.0, 10.0, g.n_edges)
        alpha = np.zeros(g.n_vertices)
        ones = np.ones(g.n_vertices)
        X = coupling_matrix(rho, alpha, beta, g)
        assert ones @ X @ ones == pytest.approx(rho.sum(), abs=1e-12 * (1 + abs(rho.sum())))


def test_uniform_gain_frozen_design():
    d = uniform_network_gain(np.array([3.0, -1.0]), P2, epsilon=0.1)
    np.testing.assert_allclose(d.beta, [1.6], atol=EXACT_TOL)
    np.testing.assert_allclose(d.alpha, [0.0, 0.0], atol=EXACT_TOL)
    assert d.threshold == pytest.approx(1.5, abs=EXACT_TOL)
    assert d.certificate.min_eig > 0.0


def test_uniform_gain_default_epsilon():
    d = uniform_network_gain(np.array([3.0, -1.0]), P2)
    assert d.epsilon == pytest.approx(0.15, abs=EXACT_TOL)  # 0.1 * max(1, 1.5)
    d0 = uniform_network_gain(np.array([2.0, 2.0, 2.0]), K3)
    assert d0.epsilon == pytest.approx(0.1, abs=EXACT_TOL)
    assert d0.threshold == 0.0


def test_uniform_gain_per_component():
    g = NetworkGraph(4, ((0, 1), (2, 3)))
    d = uniform_network_gain(np.array([3.0, -1.0, 5.0, -1.0]), g)
    # component thresholds: 3/2 and 5/4
    assert d.threshold == pytest.approx(1.5, abs=EXACT_TOL)
    assert d.epsilon == pytest.approx(0.15, abs=EXACT_TOL)
    np.testing.assert_allclose(d.beta, [1.65, 1.4], atol=1e-12)
    assert d.certificate.min_eig > 0.0


def test_uniform_gain_rejects_infeasible_component():
    g = NetworkGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(NotPassivizableError):
        uniform_network_gain(np.array([3.0, -1.0, 1.0, -1.0]), g)


def test_uniform_gain_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        uniform_network_gain(np.array([3.0, -1.0]), P2, epsilon=0.0)
    # a non-finite margin is refused before any eigensolve sees it
    for epsilon in (np.nan, np.inf):
        for synthesize in (lambda: uniform_network_gain(np.ones(3), K3, epsilon),
                           lambda: hybrid_gain(np.ones(3), K3, [0], epsilon)):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                synthesize()


NON_FINITE_CALLS = {  # (vector named, call on the bad vector v and a fine alpha, beta)
    "edge_gain_threshold": ("rho", lambda v, a, b: edge_gain_threshold(v, P2)),
    "check_design": ("rho", lambda v, a, b: check_design(v, a, b, P2)),
    "zero_design": ("rho", lambda v, a, b: zero_design(v, P2)),
    "uniform_network_gain": ("rho", lambda v, a, b: uniform_network_gain(v, P2)),
    "hybrid_gain": ("rho", lambda v, a, b: hybrid_gain(v, P2, [0])),
    "component_sums": ("rho", lambda v, a, b: component_sums(v, P2)),
    "coupling_matrix-c": ("c", lambda v, a, b: coupling_matrix(v, a, b, P2)),
    "coupling_matrix-alpha": ("alpha", lambda v, a, b: coupling_matrix(a, v, b, P2)),
    "coupling_matrix-beta": ("beta", lambda v, a, b: coupling_matrix(a, a, v[:1], P2)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", NON_FINITE_CALLS)
def test_a_non_finite_index_or_gain_is_refused(call, bad):
    # a NaN fails every comparison: the threshold read indices (nan, 1) as "not short"
    name, run = NON_FINITE_CALLS[call]
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        run(np.array([bad, 1.0]), np.zeros(2), np.ones(1))


def test_hybrid_gain_frozen_design():
    d = hybrid_gain(np.array([-1.0, -1.0, -1.0]), K3, [0, 1, 2])
    np.testing.assert_allclose(d.alpha, [4.0, 0.0, 0.0], atol=EXACT_TOL)
    assert d.threshold == pytest.approx(3.0, abs=1e-10)
    assert d.certificate.min_eig > 0.0
    X = coupling_matrix(np.array([-1.0, -1.0, -1.0]), d.alpha, d.beta, K3)
    assert np.linalg.eigvalsh(X)[0] == pytest.approx(d.certificate.min_eig, abs=EIG_TOL)


def test_hybrid_gain_picks_smallest_allowed_vertex():
    d = hybrid_gain(np.array([-1.0, -1.0, -1.0]), K3, [2, 1])
    np.testing.assert_allclose(d.alpha, [0.0, 4.0, 0.0], atol=EXACT_TOL)


def test_hybrid_gain_skips_vertex_gain_when_feasible():
    d = hybrid_gain(np.array([3.0, -1.0, -1.0]), K3, [0])
    np.testing.assert_allclose(d.alpha, np.zeros(3), atol=EXACT_TOL)
    assert d.threshold == pytest.approx(3.0, abs=1e-10)


def test_hybrid_gain_guards():
    with pytest.raises(NotPassivizableError):  # nothing to lift: the network-only error
        hybrid_gain(np.array([-1.0, -1.0, -1.0]), K3, [])
    with pytest.raises(VertexIndexError):
        hybrid_gain(np.array([-1.0, -1.0, -1.0]), K3, [3])
    with pytest.raises(DisconnectedGraphError):
        hybrid_gain(np.array([1.0, 1.0]), NetworkGraph(2, ()), [0])


def test_hybrid_gain_refuses_a_label_that_is_not_an_integer():
    for label in (1.7, True):  # int() would read either one as vertex 1 and lift it
        with pytest.raises(VertexIndexError):
            hybrid_gain(np.array([-1.0, -1.0, -1.0]), K3, [label])
    d = hybrid_gain(np.array([-1.0, -1.0, -1.0]), K3, [np.int64(1)])
    np.testing.assert_allclose(d.alpha, [0.0, 4.0, 0.0], atol=EXACT_TOL)


def uncertifiable_scenarios():
    """(graph, indices, margin) whose network design fails its certificate.

    The consensus pair at margin 1e294 has min eig 0.0; the n=10 seed-1 case
    study at 1e-14 has min eig 1.5e-14, under the n * eps * ||X||_inf tolerance.
    """
    golden = json.loads((Path(__file__).parent / "golden" / "consensus.json").read_text())
    for config, epsilon in ((config_from_dict(golden), 1e294),
                            (generate_case_study(10, 1), 1e-14)):
        graph, agents, _ = config.parts
        yield graph, agents.slope, epsilon


def test_an_uncertifiable_design_is_not_passivizable():
    for graph, rho, epsilon in uncertifiable_scenarios():
        assert component_sums(rho, graph)[0][1] > 0.0
        for synthesize in (lambda: uniform_network_gain(rho, graph, epsilon),
                           lambda: hybrid_gain(rho, graph, [0], epsilon)):
            with pytest.raises(NotPassivizableError, match="not positive definite"):
                synthesize()


def test_gain_design_owns_its_gains():
    alpha, beta = np.zeros(2), np.ones(1)
    d = GainDesign(alpha, beta, 0.1, 0.0, check_design(np.ones(2), alpha, beta, P2))
    alpha[0] = beta[0] = 5.0  # the caller's arrays stay writable ...
    assert d.alpha.tolist() == [0.0, 0.0] and d.beta.tolist() == [1.0]
    for gains in (d.alpha, d.beta):  # ... and the design's stay read-only
        with pytest.raises(ValueError, match="read-only"):
            gains[0] = 2.0


def feasible(rho, graph):
    """Every connected component has a positive exact index sum."""
    return all(total > 0.0 for _, total in component_sums(rho, graph))


def test_feasibility_is_per_component_sum():
    assert feasible(np.array([3.0, -1.0]), P2)
    assert not feasible(np.array([1.0, -1.0]), P2)
    g = NetworkGraph(4, ((0, 1), (2, 3)))
    assert not feasible(np.array([5.0, 5.0, 1.0, -2.0]), g)
    assert feasible(np.array([1.0, 1.0, 1.0, -0.5]), g)


def test_component_sums_are_exactly_rounded():
    g = NetworkGraph(7, ((0, 1), (1, 2), (2, 3), (3, 4), (5, 6)))
    rho = np.array([0.4, 0.9, 0.9, -0.9, -1.3, 2.0, -0.5])
    assert float(np.sum(rho[:5])) != 0.0
    assert component_sums(rho, g) == [([0, 1, 2, 3, 4], 0.0), ([5, 6], 1.5)]
    assert not feasible(rho, g)


def test_orientation_invariance():
    rho = np.array([2.0, -1.0, 1.5, -0.5])
    forward = NetworkGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    flipped = NetworkGraph(4, ((1, 0), (1, 2), (3, 2), (3, 0)))
    assert edge_gain_threshold(rho, forward) == pytest.approx(
        edge_gain_threshold(rho, flipped), abs=1e-10)
    beta = np.full(4, 3.0)
    Xf = coupling_matrix(rho, np.zeros(4), beta, forward)
    Xr = coupling_matrix(rho, np.zeros(4), beta, flipped)
    np.testing.assert_allclose(Xf, Xr, atol=EXACT_TOL)


def test_min_eig_monotone_in_uniform_gain():
    rho = np.array([3.0, -1.0, -0.5])
    eigs = []
    for beta in (2.0, 4.0, 8.0, 16.0):
        X = coupling_matrix(rho, np.zeros(3), np.full(3, beta), K3)
        eigs.append(np.linalg.eigvalsh(X)[0])
    assert all(a <= b + EIG_TOL for a, b in zip(eigs, eigs[1:]))


def random_connected_graph(rng, n):
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.add((i, j))
    return NetworkGraph(n, tuple(sorted(edges)))


def test_synthesis_sufficiency_randomized():
    rng = np.random.default_rng(22)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        g = random_connected_graph(rng, n)
        rho = rng.normal(0.0, 2.0, n)
        if rho.sum() <= 0.5:
            rho = rho + (0.5 - rho.sum()) / n
        d = uniform_network_gain(rho, g)
        assert d.certificate.min_eig > 0.0
        cert = check_design(rho, d.alpha, d.beta, g)
        assert cert.positive_definite


def test_infeasible_sum_defeats_any_uniform_gain():
    # necessity: 1^T X 1 = sum(rho) <= 0 pins a nonpositive eigenvalue
    rng = np.random.default_rng(23)
    rho = np.array([1.0, -2.0, 0.5])
    for _ in range(40):
        beta = rng.uniform(0.0, 50.0, 3)
        X = coupling_matrix(rho, np.zeros(3), beta, K3)
        assert np.linalg.eigvalsh(X)[0] <= rho.sum() / 3.0 + EIG_TOL


def test_check_design_verdicts():
    good = check_design(np.array([3.0, -1.0]), np.zeros(2), np.array([2.1]), P2)
    assert good.positive_definite and good.min_eig > 0.0
    bad = check_design(np.array([3.0, -1.0]), np.zeros(2), np.array([1.0]), P2)
    assert not bad.positive_definite and bad.min_eig < 0.0


def test_a_large_margin_still_certifies():
    # The n=10 case study's design at epsilon = 1e9 is positive definite by
    # construction, with min eig 0.400; a tolerance of 1e-9 (1 + ||X||_inf)
    # would be 18, but n eps ||X||_inf, the scale of eigvalsh's error, is 4e-5.
    graph, agents, _ = build_system_parts(generate_case_study(10, 1))
    assert uniform_network_gain(agents.rho_vector, graph, 1e9).certificate.positive_definite


def test_zero_design():
    d = zero_design(np.array([0.5, 2.0]), P2)
    np.testing.assert_allclose(d.alpha, [0.0, 0.0])
    np.testing.assert_allclose(d.beta, [0.0])
    assert d.certificate.min_eig == pytest.approx(0.5, abs=EIG_TOL)
    short = zero_design(np.array([-0.5, 2.0]), P2)
    assert short.certificate.min_eig == pytest.approx(-0.5, abs=EIG_TOL)


def test_design_arrays_are_write_protected():
    d = uniform_network_gain(np.array([3.0, -1.0]), P2)
    with pytest.raises(ValueError):
        d.beta[0] = 99.0
    with pytest.raises(ValueError):
        d.alpha[0] = 99.0

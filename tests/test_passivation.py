"""Gain synthesis tests: thresholds, certificates, feasibility.

Frozen values derived by hand:
- rho = (3, -1) on the 2-path: quad term (2/2)(9+1) - (3-1) = 8, lambda_2 = 2,
  so the threshold is 8/4 = 2; with margin 0.1 the gain is 2.1 and
  X = [[5.1, -2.1], [-2.1, 1.1]], det 1.2; at gain 1.0 det is exactly -1.
- rho = (-1,-1,-1) on the triangle, hybrid: vertex 0 gets alpha = 4, the
  corrected indices (3,-1,-1) give quad max eigenvalue 52 (hand
  eigendecomposition), lambda_2 = 3, threshold 52/9.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netpass import (
    DisconnectedGraphError,
    EmptySelfRegulatingSetError,
    NetworkGraph,
    NotPassivizableError,
    VertexIndexError,
    check_design,
    component_sums,
    coupling_matrix,
    edge_gain_threshold,
    hybrid_gain,
    uniform_network_gain,
    zero_design,
)

EXACT_TOL = 1e-12
EIG_TOL = 1e-9

P2 = NetworkGraph.path(2)
K3 = NetworkGraph.complete(3)


def test_threshold_frozen_two_vertex():
    assert edge_gain_threshold(np.array([3.0, -1.0]), P2) == pytest.approx(2.0, abs=EXACT_TOL)


def test_threshold_zero_for_homogeneous_surplus():
    assert edge_gain_threshold(np.array([2.0, 2.0, 2.0]), K3) == pytest.approx(0.0, abs=EXACT_TOL)


def test_threshold_frozen_hybrid_corrected_indices():
    assert edge_gain_threshold(np.array([3.0, -1.0, -1.0]), K3) == pytest.approx(
        52.0 / 9.0, abs=1e-10)


def m_by_m_threshold(rho, graph):
    """Reference form: lambda_max of the m x m matrix E^T M E, M = (n/sum) R^2 - R."""
    E = graph.incidence
    quad = (graph.n_vertices / rho.sum()) * (E.T * rho**2) @ E - (E.T * rho) @ E
    top = float(np.linalg.eigvalsh(quad)[-1])
    return max(0.0, top / np.linalg.eigvalsh(graph.laplacian())[1] ** 2)


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(threshold_cases())
def test_threshold_matches_m_by_m_form(case):
    graph, rho = case
    got = edge_gain_threshold(rho, graph)
    if np.all(rho == rho[0]):
        assert got == 0.0
    # both forms cancel (n / sum) rho^2 against rho, so rounding scales with
    # the larger of the two, times lambda_max(L) / lambda_2^2
    terms = np.abs(np.concatenate([(graph.n_vertices / rho.sum()) * rho**2, rho]))
    lam = np.linalg.eigvalsh(graph.laplacian())
    scale = terms.max() * lam[-1] / lam[1] ** 2
    assert got == pytest.approx(m_by_m_threshold(rho, graph), rel=1e-9, abs=1e-12 * scale)


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
    np.testing.assert_allclose(d.beta, [2.1], atol=EXACT_TOL)
    np.testing.assert_allclose(d.alpha, [0.0, 0.0], atol=EXACT_TOL)
    assert d.threshold == pytest.approx(2.0, abs=EXACT_TOL)
    assert d.certificate.min_eig > 0.0


def test_uniform_gain_default_epsilon():
    d = uniform_network_gain(np.array([3.0, -1.0]), P2)
    assert d.epsilon == pytest.approx(0.2, abs=EXACT_TOL)  # 0.1 * max(1, 2)
    d0 = uniform_network_gain(np.array([2.0, 2.0, 2.0]), K3)
    assert d0.epsilon == pytest.approx(0.1, abs=EXACT_TOL)
    assert d0.threshold == 0.0


def test_uniform_gain_per_component():
    g = NetworkGraph(4, ((0, 1), (2, 3)))
    d = uniform_network_gain(np.array([3.0, -1.0, 5.0, -1.0]), g)
    # component thresholds: 2 and ((2/4)(25+1) - 4)/4 = 2.25
    assert d.threshold == pytest.approx(2.25, abs=EXACT_TOL)
    assert d.epsilon == pytest.approx(0.225, abs=EXACT_TOL)
    np.testing.assert_allclose(d.beta, [2.225, 2.475], atol=1e-12)
    assert d.certificate.min_eig > 0.0


def test_uniform_gain_rejects_infeasible_component():
    g = NetworkGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(NotPassivizableError):
        uniform_network_gain(np.array([3.0, -1.0, 1.0, -1.0]), g)


def test_uniform_gain_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        uniform_network_gain(np.array([3.0, -1.0]), P2, epsilon=0.0)


def test_hybrid_gain_frozen_design():
    d = hybrid_gain(np.array([-1.0, -1.0, -1.0]), K3, [0, 1, 2])
    np.testing.assert_allclose(d.alpha, [4.0, 0.0, 0.0], atol=EXACT_TOL)
    assert d.threshold == pytest.approx(52.0 / 9.0, abs=1e-10)
    assert d.certificate.min_eig > 0.0
    X = coupling_matrix(np.array([-1.0, -1.0, -1.0]), d.alpha, d.beta, K3)
    assert np.linalg.eigvalsh(X)[0] == pytest.approx(d.certificate.min_eig, abs=EIG_TOL)


def test_hybrid_gain_picks_smallest_allowed_vertex():
    d = hybrid_gain(np.array([-1.0, -1.0, -1.0]), K3, [2, 1])
    np.testing.assert_allclose(d.alpha, [0.0, 4.0, 0.0], atol=EXACT_TOL)


def test_hybrid_gain_skips_vertex_gain_when_feasible():
    d = hybrid_gain(np.array([3.0, -1.0, -1.0]), K3, [0])
    np.testing.assert_allclose(d.alpha, np.zeros(3), atol=EXACT_TOL)
    assert d.threshold == pytest.approx(52.0 / 9.0, abs=1e-10)


def test_hybrid_gain_guards():
    with pytest.raises(EmptySelfRegulatingSetError):
        hybrid_gain(np.array([-1.0, -1.0, -1.0]), K3, [])
    with pytest.raises(VertexIndexError):
        hybrid_gain(np.array([-1.0, -1.0, -1.0]), K3, [3])
    with pytest.raises(DisconnectedGraphError):
        hybrid_gain(np.array([1.0, 1.0]), NetworkGraph(2, ()), [0])


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

"""Graph structure tests: incidence algebra, spectra, components.

Eigenvalue facts are cross-checked against a symbolic characteristic
polynomial (sympy) so the test-side spectrum does not come from the same
LAPACK code the library uses.
"""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from netpass import (
    DuplicateEdgeError,
    NetworkGraph,
    SelfLoopError,
    VertexIndexError,
)

EIG_TOL = 1e-9


def algebraic_connectivity(g):
    """Second-smallest Laplacian eigenvalue; positive exactly on connected graphs."""
    return float(np.linalg.eigvalsh(g.laplacian())[1])


def symbolic_eigenvalues(matrix):
    """Real symmetric eigenvalues via sympy's exact characteristic polynomial."""
    M = sympy.Matrix(matrix.astype(int))
    lam = sympy.symbols("lam")
    poly = sympy.Poly((M - lam * sympy.eye(M.shape[0])).det(), lam)
    roots = []
    for root, multiplicity in sympy.roots(poly).items():
        roots.extend([complex(root.evalf(30)).real] * multiplicity)
    assert len(roots) == M.shape[0]
    return np.sort(np.array(roots))


def test_incidence_path_two():
    g = NetworkGraph.path(2)
    np.testing.assert_array_equal(g.incidence, [[1.0], [-1.0]])


def test_incidence_triangle():
    g = NetworkGraph.complete(3)
    expected = np.array([
        [1.0, 1.0, 0.0],
        [-1.0, 0.0, 1.0],
        [0.0, -1.0, -1.0],
    ])
    np.testing.assert_array_equal(g.incidence, expected)
    assert g.n_edges == 3


def test_incidence_columns_sum_to_zero():
    g = NetworkGraph(5, ((0, 3), (1, 2), (3, 4), (0, 4)))
    np.testing.assert_array_equal(g.incidence.sum(axis=0), np.zeros(4))


def test_incidence_is_write_protected():
    g = NetworkGraph.path(3)
    with pytest.raises(ValueError):
        g.incidence[0, 0] = 7.0


def test_laplacian_equals_incidence_product():
    g = NetworkGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5)))
    E = g.incidence
    np.testing.assert_allclose(g.laplacian(), E @ E.T)


def test_laplacian_triangle_values():
    L = NetworkGraph.complete(3).laplacian()
    np.testing.assert_array_equal(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        NetworkGraph(3, ((0, 0),))


def test_duplicate_edge_rejected_both_orientations():
    with pytest.raises(DuplicateEdgeError):
        NetworkGraph(3, ((0, 1), (0, 1)))
    with pytest.raises(DuplicateEdgeError):
        NetworkGraph(3, ((0, 1), (1, 0)))


def test_vertex_out_of_range_rejected():
    with pytest.raises(VertexIndexError):
        NetworkGraph(3, ((0, 3),))
    with pytest.raises(VertexIndexError):
        NetworkGraph(3, ((-1, 2),))


def test_connected_components_ordering():
    g = NetworkGraph(6, ((4, 5), (1, 2), (2, 0)))
    assert g.connected_components() == [[0, 1, 2], [3], [4, 5]]
    assert not g.is_connected()
    assert NetworkGraph.complete(4).is_connected()


def test_algebraic_connectivity_complete_graphs():
    # lambda_2(K_n) = n exactly
    for n in (2, 3, 4, 5, 8):
        assert algebraic_connectivity(NetworkGraph.complete(n)) == pytest.approx(
            n, abs=EIG_TOL)


def test_algebraic_connectivity_star():
    # star with center 0: lambda_2 = 1
    edges = tuple((0, k) for k in range(1, 5))
    g = NetworkGraph(5, edges)
    assert algebraic_connectivity(g) == pytest.approx(1.0, abs=EIG_TOL)


def test_algebraic_connectivity_path():
    # lambda_2(P_n) = 4 sin^2(pi / (2n))
    for n in (2, 3, 4, 6):
        expected = 4.0 * np.sin(np.pi / (2 * n)) ** 2
        assert algebraic_connectivity(NetworkGraph.path(n)) == pytest.approx(
            expected, abs=EIG_TOL)


def test_algebraic_connectivity_matches_symbolic_roots():
    graphs = [
        NetworkGraph.path(3),
        NetworkGraph.complete(4),
        NetworkGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0))),
    ]
    for g in graphs:
        exact = symbolic_eigenvalues(g.laplacian())
        assert algebraic_connectivity(g) == pytest.approx(exact[1], abs=EIG_TOL)


def test_laplacian_kernel_dimension_counts_components():
    g = NetworkGraph(7, ((0, 1), (1, 2), (3, 4), (5, 6)))
    eigenvalues = np.linalg.eigvalsh(g.laplacian())
    assert int(np.sum(np.abs(eigenvalues) < 1e-9)) == len(g.connected_components())


def test_edge_spaces_share_nonzero_spectrum():
    g = NetworkGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)))
    E = g.incidence
    vertex_side = np.linalg.eigvalsh(E @ E.T)
    edge_side = np.linalg.eigvalsh(E.T @ E)
    nz_vertex = np.sort(vertex_side[np.abs(vertex_side) > 1e-9])
    nz_edge = np.sort(edge_side[np.abs(edge_side) > 1e-9])
    np.testing.assert_allclose(nz_vertex, nz_edge, atol=1e-8)


def test_complete_graph_edge_order():
    g = NetworkGraph.complete(4)
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_subgraph_reindexes_and_reports_kept_edges():
    g = NetworkGraph(5, ((0, 1), (1, 4), (2, 3), (1, 2)))
    sub, kept = g.subgraph([1, 2, 3])
    assert sub.n_vertices == 3
    assert sub.edges == ((1, 2), (0, 1))
    assert kept == [2, 3]


def test_subgraph_on_every_vertex_in_order_is_the_graph_itself():
    g = NetworkGraph(3, ((0, 1), (2, 1)))
    sub, kept = g.subgraph([0, 1, 2])
    assert sub is g and kept == [0, 1]
    # the same vertices in another order still reindex
    sub, kept = g.subgraph([2, 1, 0])
    assert sub is not g
    assert sub.edges == ((2, 1), (0, 1)) and kept == [0, 1]


def test_components_and_laplacian_are_stored_read_only():
    g = NetworkGraph(4, ((0, 1), (2, 3)))
    assert g.laplacian() is g.laplacian()
    with pytest.raises(ValueError):
        g.laplacian()[0, 0] = 7.0
    components = g.connected_components()
    components[0].append(3)
    components.pop()
    assert g.connected_components() == [[0, 1], [2, 3]]


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return NetworkGraph(n, tuple(chosen))


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_random_graph_laplacian_properties(g):
    L = g.laplacian()
    # stored from the edge list, it is the incidence product bit for bit
    np.testing.assert_array_equal(L, g.incidence @ g.incidence.T)
    np.testing.assert_array_equal(np.signbit(L), np.signbit(g.incidence @ g.incidence.T))
    np.testing.assert_allclose(L, L.T)
    np.testing.assert_allclose(L.sum(axis=1), np.zeros(g.n_vertices), atol=1e-12)
    assert np.linalg.eigvalsh(L)[0] >= -1e-9
    if g.is_connected() and g.n_vertices > 1:
        assert algebraic_connectivity(g) > 0.0


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_random_graph_component_partition(g):
    comps = g.connected_components()
    flat = sorted(v for c in comps for v in c)
    assert flat == list(range(g.n_vertices))

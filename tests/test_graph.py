"""Graph structure tests: incidence algebra, spectra, components.

The reference incidence is ``oracles.incidence``, built entry by entry from
the edge list; a graph never forms dense columns of it.

Eigenvalue facts are cross-checked against a symbolic characteristic
polynomial (sympy) so the test-side spectrum does not come from the same
LAPACK code the library uses.
"""

import tracemalloc

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
from oracles import incidence

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


def test_incidence_triangle():
    g = NetworkGraph.complete(3)
    expected = np.array([
        [1.0, 1.0, 0.0],
        [-1.0, 0.0, 1.0],
        [0.0, -1.0, -1.0],
    ])
    np.testing.assert_array_equal(incidence(g), expected)
    assert g.n_edges == 3


def test_a_graph_holds_no_dense_incidence():
    # K_400 has 79,800 edges, whose dense incidence would take 255 MB
    tracemalloc.start()
    try:
        g = NetworkGraph.complete(400)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_edges == 79_800
    assert held < g.n_vertices * g.n_edges * 8 / 10
    # nor does it offer to form one
    assert not hasattr(g, "incidence")


def test_laplacian_equals_incidence_product():
    g = NetworkGraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5)))
    E = incidence(g)
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


@pytest.mark.parametrize("n,edges,message", [
    (3, ((0, 1), (0.9, 2.7)), "edge 1 = (0.9, 2.7) has a vertex label that is not an integer"),
    (3, ((True, 2),), "edge 0 = (True, 2) has a vertex label that is not an integer"),
    (True, (), "n_vertices must be a positive integer, got True"),
    (2.0, (), "n_vertices must be a positive integer, got 2.0"),
])
def test_non_integer_vertex_labels_rejected(n, edges, message):
    with pytest.raises(VertexIndexError) as excinfo:
        NetworkGraph(n, edges)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("vertices,message", [
    ([-1, 0], "subgraph entry 0 = -1: no new vertex in 0..2"),
    ([0, 0], "subgraph entry 1 = 0: no new vertex in 0..2"),
    ([True, 2], "subgraph entry 0 = True: no new vertex in 0..2"),
    ([5], "subgraph entry 0 = 5: no new vertex in 0..2"),
    ([0.0, 1], "subgraph entry 0 = 0.0: no new vertex in 0..2"),
])
def test_subgraph_refuses_a_vertex_list_it_cannot_index(vertices, message):
    with pytest.raises(VertexIndexError) as excinfo:
        NetworkGraph.complete(3).subgraph(vertices)
    assert str(excinfo.value) == message


def per_edge_verdict(n, edges):
    """The first offending edge's (error class, message), by a loop over the edges; or None.

    The reference for the array checks: per edge, in this order, an integer
    label, a label in 0..n-1, no self loop, no repeat of an earlier edge.
    """
    seen = set()
    for k, edge in enumerate(edges):
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            return VertexIndexError, f"edge {k} = {edge!r} is not a (head, tail) pair"
        head, tail = edge
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in (head, tail)):
            return VertexIndexError, (f"edge {k} = ({head!r}, {tail!r}) has a vertex label "
                                      f"that is not an integer")
        head, tail = int(head), int(tail)
        if not (0 <= head < n and 0 <= tail < n):
            return VertexIndexError, (f"edge {k} = ({head}, {tail}) references a vertex "
                                      f"outside 0..{n - 1}")
        if head == tail:
            return SelfLoopError, f"edge {k} is a self loop at vertex {head}"
        key = (min(head, tail), max(head, tail))
        if key in seen:
            return DuplicateEdgeError, f"edge {k} = ({head}, {tail}) repeats {key}"
        seen.add(key)
    return None


LABELS = st.one_of(st.integers(-2, 6), st.integers(-2, 6), st.integers(-2, 6),
                   st.sampled_from([True, 1.0, 2**70, -2**64, np.int32(1), np.uint8(2),
                                   np.uint64(2**63 + 5)]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.lists(st.tuples(LABELS, LABELS), max_size=12))
def test_edge_checks_name_the_first_offending_edge_as_a_per_edge_loop(n, edges):
    verdict = per_edge_verdict(n, edges)
    if verdict is None:
        g = NetworkGraph(n, edges)
        assert g.edges == tuple((int(h), int(t)) for h, t in edges)
        assert all(type(v) is int for edge in g.edges for v in edge)
        return
    error, message = verdict
    with pytest.raises(error) as excinfo:
        NetworkGraph(n, edges)
    assert type(excinfo.value) is error and str(excinfo.value) == message


EDGES = st.one_of(st.tuples(LABELS, LABELS), st.lists(LABELS, min_size=2, max_size=2),
                  st.lists(LABELS, max_size=3), LABELS)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.lists(EDGES, max_size=12))
def test_a_non_pair_edge_is_named_in_the_first_offending_edge_order(n, edges):
    # Edges of any length, or bare labels, mixed with pairs: the first
    # offending edge is named, and nothing but a netpass error escapes.
    verdict = per_edge_verdict(n, edges)
    if verdict is None:
        assert NetworkGraph(n, edges).edges == tuple((int(h), int(t)) for h, t in edges)
        return
    error, message = verdict
    with pytest.raises(error) as excinfo:
        NetworkGraph(n, edges)
    assert type(excinfo.value) is error and str(excinfo.value) == message


@pytest.mark.parametrize("edges,error,message", [
    (((0, 1), (1, 0), (2, 2)), DuplicateEdgeError, "edge 1 = (1, 0) repeats (0, 1)"),
    (((0, 1), (2, 2), (1, 0)), SelfLoopError, "edge 1 is a self loop at vertex 2"),
    (((0, 1), (0, 3), (0.5, 1)), VertexIndexError,
     "edge 1 = (0, 3) references a vertex outside 0..2"),
    (((0, 1), (0.5, 1), (0, 3)), VertexIndexError,
     "edge 1 = (0.5, 1) has a vertex label that is not an integer"),
    (((0, 2**70), (0, 0)), VertexIndexError,
     f"edge 0 = (0, {2**70}) references a vertex outside 0..2"),
    ([[0, 1, 2]], VertexIndexError, "edge 0 = [0, 1, 2] is not a (head, tail) pair"),
    ([5], VertexIndexError, "edge 0 = 5 is not a (head, tail) pair"),
    ([[0]], VertexIndexError, "edge 0 = [0] is not a (head, tail) pair"),
    ([[0, 1], [1, 2, 0], [0, 0]], VertexIndexError,
     "edge 1 = [1, 2, 0] is not a (head, tail) pair"),
    ([(0, 1), np.array([[1], [2]])], VertexIndexError,
     "edge 1 = array([[1],\n       [2]]) is not a (head, tail) pair"),
    (5, VertexIndexError, "edges must be a list of (head, tail) pairs, got 5"),
    (None, VertexIndexError, "edges must be a list of (head, tail) pairs, got None"),
    (2.5, VertexIndexError, "edges must be a list of (head, tail) pairs, got 2.5"),
])
def test_the_first_offending_edge_is_named_whatever_follows_it(edges, error, message):
    with pytest.raises(error) as excinfo:
        NetworkGraph(3, edges)
    assert str(excinfo.value) == message


def test_numpy_integer_labels_accepted():
    g = NetworkGraph(np.int64(3), ((np.int32(0), np.int64(2)),))
    assert g.n_vertices == 3 and g.edges == ((0, 2),)
    assert type(g.n_vertices) is int and type(g.edges[0][1]) is int
    # so are array rows, mixed with other pairs
    assert NetworkGraph(3, [np.array([0, 2]), (1, 2), [0, 1]]).edges == ((0, 2), (1, 2), (0, 1))


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
    E = incidence(g)
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
    E = incidence(g)
    np.testing.assert_array_equal(L, E @ E.T)
    np.testing.assert_array_equal(np.signbit(L), np.signbit(E @ E.T))
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


# ----------------------------------------------------------------------
# edge-list kernels
# ----------------------------------------------------------------------


@st.composite
def oriented_graphs(draw):
    """A random graph whose edges each point either way."""
    g = draw(random_graphs())
    flips = draw(st.lists(st.booleans(), min_size=g.n_edges, max_size=g.n_edges))
    return NetworkGraph(g.n_vertices, tuple((t, h) if flip else (h, t)
                                            for (h, t), flip in zip(g.edges, flips)))


def edge_vectors(g):
    return st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=g.n_edges,
                    max_size=g.n_edges).map(np.array)


def previous_laplacian(g):
    """The Laplacian as it was stored before ``weighted_laplacian``: degrees and -1s."""
    lap = np.zeros((g.n_vertices, g.n_vertices))
    lap[g.heads, g.tails] = lap[g.tails, g.heads] = -1.0
    lap[np.diag_indices(g.n_vertices)] = np.bincount(np.concatenate((g.heads, g.tails)),
                                                     minlength=g.n_vertices)
    return lap


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weighted_laplacian_is_the_weighted_incidence_product(data):
    g = data.draw(oriented_graphs())
    w = data.draw(edge_vectors(g))
    Q = g.weighted_laplacian(w)
    E = incidence(g)
    np.testing.assert_allclose(Q, (E * w) @ E.T, rtol=1e-12, atol=1e-10)
    np.testing.assert_array_equal(Q, Q.T)


@settings(max_examples=60, deadline=None)
@given(oriented_graphs())
def test_unit_weighted_laplacian_is_the_stored_laplacian_bit_for_bit(g):
    Q = g.weighted_laplacian(np.ones(g.n_edges))
    for L in (previous_laplacian(g), g.laplacian()):
        np.testing.assert_array_equal(Q, L)
        np.testing.assert_array_equal(np.signbit(Q), np.signbit(L))


def test_weighted_laplacian_returns_a_new_array():
    g = NetworkGraph.complete(3)
    # edges (0, 1), (0, 2), (1, 2) with weights 1, 2, 3
    Q = g.weighted_laplacian(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(Q, [[3, -1, -2], [-1, 4, -3], [-2, -3, 5]])
    unit = g.weighted_laplacian(np.ones(3))
    unit[0, 0] = 7.0  # a fresh, writable array: the stored Laplacian is untouched
    np.testing.assert_array_equal(g.laplacian(), previous_laplacian(g))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scatter_is_the_incidence_product(data):
    g = data.draw(oriented_graphs())
    v = data.draw(edge_vectors(g))
    np.testing.assert_allclose(g.scatter(v), incidence(g) @ v, rtol=1e-12, atol=1e-10)

"""Undirected graphs held as an oriented edge list, with Laplacian and components.

Vertices are numbered 0..n-1.  Every edge carries an arbitrary but fixed
orientation, recorded as a (head, tail) pair; the incidence matrix E has +1
at the head and -1 at the tail of each edge column.  The quantities derived
here (the Laplacian and the component structure) are independent of the
chosen orientation.  A graph stores its components and Laplacian once
built, so an impossible graph fails fast.  E itself is never formed: it is
applied from the edge list, ``E^T y`` as ``y[heads] - y[tails]``, ``E v`` as
``scatter`` and ``E diag(w) E^T`` as ``weighted_laplacian``, whose largest
eigenvalue gives the 2-norm of E diag(sqrt(w)) (the default step's ||E_sat||).
"""

from itertools import chain

import numpy as np

from .errors import DuplicateEdgeError, SelfLoopError, VertexIndexError

__all__ = ["NetworkGraph"]


def _is_label(value):
    """A vertex label or count is an integer, and a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_pair(edge):
    """An edge is a list, tuple or 1-d array of two items."""
    return (isinstance(edge, (list, tuple)) or np.ndim(edge) == 1) and len(edge) == 2


def _edge_pairs(n, edges):
    """The edges as an (m, 2) intp array, checked as whole arrays.

    The first edge that is not a pair, has a non-integer label or a label
    outside 0..n-1, or is a self loop or a repeat raises, named by the first
    of those checks it fails; so does an ``edges`` that is not iterable.
    """
    try:
        edges = list(edges.tolist() if isinstance(edges, np.ndarray) else edges)
    except TypeError:
        raise VertexIndexError(
            f"edges must be a list of (head, tail) pairs, got {edges!r}") from None
    labelled = len(edges)  # the edges before the first that is not a pair of integer labels
    # One type and one length per distinct value, not per edge.
    if not (set(map(type, edges)) <= {list, tuple} and set(map(len, edges)) <= {2} and all(
            issubclass(t, (int, np.integer)) and not issubclass(t, bool)
            for t in set(map(type, chain.from_iterable(edges))))):
        labelled = next((k for k, edge in enumerate(edges)
                         if not (_is_pair(edge) and all(map(_is_label, edge)))), labelled)
    pairs = np.array(edges[:labelled]).reshape(labelled, 2)  # of objects past int64
    a, b = np.clip(pairs, -1, n).astype(np.int64).T
    low, high = np.minimum(a, b), np.maximum(a, b)
    outside, loop = (low == -1) | (high == n), a == b
    # A repeat holds an earlier edge's key.  Clipping can give an edge outside
    # 0..n-1 another's key, but one of the two is then named by a check above.
    key, first, repeat = (low * n + high).tolist(), {}, np.zeros(labelled, dtype=bool)
    if len(set(key)) < labelled:
        repeat[:] = [first.setdefault(k, j) != j for j, k in enumerate(key)]
    for k in np.flatnonzero(outside | loop | repeat)[:1].tolist():
        head, tail = map(int, edges[k])
        name = f"edge {k} = ({head}, {tail})"
        if outside[k]:
            raise VertexIndexError(f"{name} references a vertex outside 0..{n - 1}")
        if loop[k]:
            raise SelfLoopError(f"edge {k} is a self loop at vertex {head}")
        raise DuplicateEdgeError(f"{name} repeats {min(head, tail), max(head, tail)}")
    if labelled < len(edges):
        edge = edges[labelled]
        if not _is_pair(edge):
            raise VertexIndexError(f"edge {labelled} = {edge!r} is not a (head, tail) pair")
        raise VertexIndexError(f"edge {labelled} = ({edge[0]!r}, {edge[1]!r}) has a vertex "
                               "label that is not an integer")
    return pairs.astype(np.intp)


class NetworkGraph:
    """Immutable undirected graph held as its oriented edge list.

    Parameters
    ----------
    n_vertices : int
        Number of vertices, at least 1.
    edges : sequence of (int, int)
        Oriented edge list.  Self loops and repeated undirected edges are
        rejected; vertex labels must be integers in ``0..n_vertices-1``.

    Attributes
    ----------
    heads, tails : ndarray of intp, shape (n_edges,)
        Each edge's head and tail vertex, so ``y[heads] - y[tails]`` is
        ``E^T y`` without the product.  Read-only.
    """

    def __init__(self, n_vertices, edges):
        if not _is_label(n_vertices) or n_vertices < 1:
            raise VertexIndexError(f"n_vertices must be a positive integer, got {n_vertices!r}")
        n = int(n_vertices)
        pairs = _edge_pairs(n, edges)
        self.n_vertices = n
        self.heads, self.tails = pairs.T.copy()
        self._laplacian = self.weighted_laplacian(np.ones(len(pairs)))
        for arr in (self.heads, self.tails, self._laplacian):
            arr.setflags(write=False)
        self._components = _components(n, self.heads, self.tails)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def complete(cls, n):
        """Complete graph on n vertices, edges oriented low index -> high."""
        return cls(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))

    @classmethod
    def path(cls, n):
        """Path graph 0-1-...-(n-1)."""
        return cls(n, tuple((i, i + 1) for i in range(n - 1)))

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    @property
    def edges(self):
        """The oriented edge list, as a tuple of (head, tail) pairs of ints."""
        return tuple(zip(self.heads.tolist(), self.tails.tolist()))

    @property
    def n_edges(self):
        return self.heads.size

    def laplacian(self):
        """Graph Laplacian, the Gram matrix of the incidence rows (read-only)."""
        return self._laplacian

    def weighted_laplacian(self, w):
        """E diag(w) E^T as a new array: -w_e off the diagonal, each vertex's weight sum on it."""
        n = self.n_vertices
        Q = np.zeros((n, n))
        Q[self.heads, self.tails] = Q[self.tails, self.heads] = -w
        Q[np.diag_indices(n)] = np.bincount(self.heads, w, n) + np.bincount(self.tails, w, n)
        return Q

    def scatter(self, v):
        """E v without the product: v_e added at edge e's head and taken at its tail."""
        n = self.n_vertices
        return np.bincount(self.heads, v, n) - np.bincount(self.tails, v, n)

    def connected_components(self):
        """Partition of the vertex set, each component sorted, ordered by minimum."""
        return [list(comp) for comp in self._components]

    def is_connected(self):
        return len(self._components) == 1

    def subgraph(self, vertices):
        """Induced subgraph on distinct ``vertices`` (reindexed 0..k-1) plus the kept edge ids."""
        vertices, n, first = list(vertices), self.n_vertices, {}
        for k, v in enumerate(vertices):
            if not (_is_label(v) and 0 <= v < n) or first.setdefault(v, k) != k:
                raise VertexIndexError(f"subgraph entry {k} = {v!r}: no new vertex in 0..{n - 1}")
        if vertices == list(range(n)):
            return self, list(range(self.n_edges))
        index = np.full(n, -1)
        index[vertices] = np.arange(len(vertices))
        pairs = np.column_stack((index[self.heads], index[self.tails]))
        kept = np.flatnonzero((pairs >= 0).all(axis=1))
        return NetworkGraph(len(vertices), pairs[kept]), kept.tolist()


def _components(n, heads, tails):
    """Connected components of a graph on 0..n-1, each a sorted tuple, ordered by minimum."""
    labels, k = cluster_labels(n, heads, tails)
    return tuple(tuple(np.flatnonzero(labels == c).tolist()) for c in range(k))


def cluster_labels(n, heads, tails):
    """Components of the graph on n vertices with these edges: labels 0..k-1, and k.

    A union-find by whole arrays: each round hooks the larger root of every
    edge between two roots under the smaller (one write wins where several
    compete), then jumps pointers until each vertex names its root.  Roots
    only ever point to smaller indices, so no cycle forms, and labels follow
    each component's least vertex.
    """
    root = np.arange(n)
    while True:
        a, b = root[heads], root[tails]
        split = a != b
        if not split.any():
            roots = np.flatnonzero(root == np.arange(n))
            label = np.zeros(n, dtype=np.intp)
            label[roots] = np.arange(roots.size)
            return label[root], roots.size
        root[np.maximum(a, b)[split]] = np.minimum(a, b)[split]
        while not np.array_equal(root[root], root):
            root = root[root]

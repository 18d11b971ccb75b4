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

import numpy as np

from .errors import DuplicateEdgeError, SelfLoopError, VertexIndexError

__all__ = ["NetworkGraph"]


def _is_label(value):
    """A vertex label or count is an integer, and a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        checked, seen = [], set()
        for k, (head, tail) in enumerate(edges):
            if not (_is_label(head) and _is_label(tail)):
                raise VertexIndexError(
                    f"edge {k} = ({head!r}, {tail!r}) has a vertex label that is not an integer")
            head, tail = int(head), int(tail)
            if not (0 <= head < n and 0 <= tail < n):
                raise VertexIndexError(
                    f"edge {k} = ({head}, {tail}) references a vertex outside 0..{n - 1}")
            if head == tail:
                raise SelfLoopError(f"edge {k} is a self loop at vertex {head}")
            key = (min(head, tail), max(head, tail))
            if key in seen:
                raise DuplicateEdgeError(f"edge {k} = ({head}, {tail}) repeats {key}")
            seen.add(key)
            checked.append((head, tail))

        self.n_vertices, self.edges = n, tuple(checked)
        self.heads, self.tails = np.array(checked, dtype=np.intp).reshape(-1, 2).T.copy()
        self._laplacian = self.weighted_laplacian(np.ones(len(checked)))
        for arr in (self.heads, self.tails, self._laplacian):
            arr.setflags(write=False)
        self._components = _components(n, checked)

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
    def n_edges(self):
        return len(self.edges)

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
        """Induced subgraph on ``vertices`` (reindexed 0..k-1) plus the kept edge ids."""
        if list(vertices) == list(range(self.n_vertices)):
            return self, list(range(self.n_edges))
        index = {v: i for i, v in enumerate(vertices)}
        kept_edges = []
        kept_ids = []
        for k, (head, tail) in enumerate(self.edges):
            if head in index and tail in index:
                kept_edges.append((index[head], index[tail]))
                kept_ids.append(k)
        return NetworkGraph(len(vertices), tuple(kept_edges)), kept_ids


def _components(n, edges):
    """Connected components of a graph on 0..n-1, each a sorted tuple, ordered by minimum."""
    adjacency = [[] for _ in range(n)]
    for head, tail in edges:
        adjacency[head].append(tail)
        adjacency[tail].append(head)
    seen, components = set(), []
    for start in range(n):
        if start not in seen:
            seen.add(start)
            comp = [start]
            for v in comp:  # breadth-first: comp grows while it is scanned
                for w in adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
            components.append(tuple(sorted(comp)))
    return tuple(components)

"""Undirected graphs with an oriented incidence matrix, Laplacian and components.

Vertices are numbered 0..n-1.  Every edge carries an arbitrary but fixed
orientation, recorded as a (head, tail) pair; the incidence matrix has +1 at
the head and -1 at the tail of each edge column.  The quantities derived
here (the Laplacian and the component structure) are independent of the
chosen orientation.  A graph stores its components and
Laplacian once built, after the incidence, so an impossible graph fails fast.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateEdgeError, SelfLoopError, VertexIndexError

__all__ = ["NetworkGraph"]


@dataclass(frozen=True)
class NetworkGraph:
    """Immutable undirected graph with oriented incidence matrix.

    Parameters
    ----------
    n_vertices : int
        Number of vertices, at least 1.
    edges : sequence of (int, int)
        Oriented edge list.  Self loops and repeated undirected edges are
        rejected; vertex indices must lie in ``0..n_vertices-1``.

    Attributes
    ----------
    incidence : ndarray, shape (n_vertices, n_edges)
        +1 at each edge's head row, -1 at its tail row.
    heads, tails : ndarray of intp, shape (n_edges,)
        Each edge's head and tail vertex, so ``y[heads] - y[tails]`` is
        ``incidence.T @ y`` without the product.
    """

    n_vertices: int
    edges: tuple
    incidence: np.ndarray = field(init=False, repr=False, compare=False)
    heads: np.ndarray = field(init=False, repr=False, compare=False)
    tails: np.ndarray = field(init=False, repr=False, compare=False)
    _components: tuple = field(init=False, repr=False, compare=False)
    _laplacian: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_vertices
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise VertexIndexError(f"n_vertices must be a positive integer, got {n!r}")
        object.__setattr__(self, "n_vertices", int(n))
        edges = tuple((int(h), int(t)) for h, t in self.edges)
        object.__setattr__(self, "edges", edges)

        seen = set()
        for k, (head, tail) in enumerate(edges):
            if not (0 <= head < n and 0 <= tail < n):
                raise VertexIndexError(
                    f"edge {k} = ({head}, {tail}) references a vertex outside 0..{n - 1}"
                )
            if head == tail:
                raise SelfLoopError(f"edge {k} is a self loop at vertex {head}")
            key = (min(head, tail), max(head, tail))
            if key in seen:
                raise DuplicateEdgeError(f"edge {k} = ({head}, {tail}) repeats {key}")
            seen.add(key)

        heads, tails = np.array(edges, dtype=np.intp).reshape(-1, 2).T.copy()
        inc = np.zeros((n, len(edges)))
        columns = np.arange(len(edges))
        inc[heads, columns] = 1.0
        inc[tails, columns] = -1.0
        # The Laplacian E E^T: degrees on the diagonal, -1 for each (unrepeated) edge.
        lap = np.zeros((n, n))
        lap[heads, tails] = lap[tails, heads] = -1.0
        lap[np.diag_indices(n)] = np.bincount(np.concatenate((heads, tails)), minlength=n)
        for name, value in (("incidence", inc), ("heads", heads), ("tails", tails),
                            ("_laplacian", lap)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_components", _components(n, edges))

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

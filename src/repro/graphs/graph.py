"""Core graph data structure.

:class:`Graph` is an undirected graph with

* integer-weighted edges (contraction merges parallel edges by summing
  weights — plain graphs just use weight 1), and
* integer vertex weights (a contracted vertex carries the total weight of
  the original vertices it represents; plain graphs use weight 1).

The representation is a dict-of-dicts adjacency map, the sweet spot for
pure-Python sparse graph algorithms: O(1) expected edge queries and O(deg)
neighbor iteration.

Self-loops are rejected: bisection treats a self-loop as uncuttable noise,
and the compaction code explicitly drops the loop created by contracting a
matched edge.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

__all__ = ["Graph", "graph_fingerprint", "vertex_token"]

Vertex = Hashable


def vertex_token(v: Vertex) -> str:
    """A stable string token for a vertex label.

    The type name is included so ``1`` and ``"1"`` stay distinct; tokens
    are what the execution engine stores in result payloads (cache files,
    cross-process job results) and maps back to vertices on load.
    """
    return f"{type(v).__name__}:{v}"


def graph_fingerprint(graph: "Graph") -> str:
    """Canonical content hash of a graph (labels, weights, and edges).

    The fingerprint is the SHA-256 of a canonical serialization: sorted
    ``v <token> <weight>`` vertex lines followed by sorted
    ``e <token> <token> <weight>`` edge lines (endpoints ordered within
    each edge).  Two graphs get the same fingerprint iff they have the
    same labelled vertex set, vertex weights, edge set, and edge weights —
    regardless of insertion order.  Used as the engine's cache key and
    shown by ``repro-bisect info``.

    >>> a = Graph.from_edges([(0, 1), (1, 2)])
    >>> b = Graph.from_edges([(1, 2), (0, 1)])
    >>> graph_fingerprint(a) == graph_fingerprint(b)
    True
    """
    cached = graph._derived.get("fingerprint")
    if cached is not None:
        return cached
    import hashlib  # here, not at module top: most runs never fingerprint

    digest = hashlib.sha256()
    vertex_lines = sorted(
        f"v {vertex_token(v)} {graph.vertex_weight(v)}" for v in graph.vertices()
    )
    edge_lines = sorted(
        "e {} {} {}".format(*sorted((vertex_token(u), vertex_token(v))), w)
        for u, v, w in graph.edges()
    )
    for line in vertex_lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    for line in edge_lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    fingerprint = digest.hexdigest()
    graph._derived["fingerprint"] = fingerprint
    return fingerprint


class Graph:
    """Undirected graph with integer edge and vertex weights.

    >>> g = Graph.from_edges([(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.has_edge(1, 0)
    True
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_adj", "_vertex_weight", "_num_edges", "_total_edge_weight", "_derived")

    def __init__(self) -> None:
        self._adj: dict[Vertex, dict[Vertex, int]] = {}
        self._vertex_weight: dict[Vertex, int] = {}
        self._num_edges = 0
        self._total_edge_weight = 0
        # Content-derived snapshots (canonical fingerprint, CSR view) keyed by
        # name; every mutation clears the dict, so an entry is always in sync
        # with the current vertex/edge set.
        self._derived: dict[str, object] = {}

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple],
        vertices: Iterable[Vertex] = (),
    ) -> "Graph":
        """Build a graph from ``(u, v)`` or ``(u, v, weight)`` tuples.

        ``vertices`` adds isolated vertices not covered by any edge.
        Duplicate edges accumulate weight.
        """
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w = 1
            else:
                u, v, w = edge
            g.add_edge(u, v, w, merge=True)
        return g

    def copy(self) -> "Graph":
        """Return an independent deep copy."""
        g = Graph()
        g._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        g._vertex_weight = dict(self._vertex_weight)
        g._num_edges = self._num_edges
        g._total_edge_weight = self._total_edge_weight
        # Derived snapshots are immutable and content-addressed, so the copy
        # can share them until its first mutation clears its own dict.
        g._derived = dict(self._derived)
        return g

    # -- mutation -----------------------------------------------------------------

    def add_vertex(self, v: Vertex, weight: int = 1) -> None:
        """Add vertex ``v`` (idempotent; re-adding updates the weight)."""
        if weight <= 0:
            raise ValueError(f"vertex weight must be positive, got {weight}")
        if v not in self._adj:
            self._adj[v] = {}
        self._vertex_weight[v] = weight
        if self._derived:
            self._derived.clear()

    def add_edge(self, u: Vertex, v: Vertex, weight: int = 1, *, merge: bool = False) -> None:
        """Add the undirected edge ``{u, v}``; endpoints are created as needed.

        With ``merge=True`` an existing edge gains ``weight``; otherwise
        adding a duplicate edge raises ``ValueError`` (simple-graph
        discipline, which the generators rely on).
        """
        if u == v:
            raise ValueError(f"self-loops are not allowed: ({u!r}, {v!r})")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        if u not in self._adj:
            self.add_vertex(u)
        if v not in self._adj:
            self.add_vertex(v)
        existing = self._adj[u].get(v)
        if existing is not None:
            if not merge:
                raise ValueError(f"edge ({u!r}, {v!r}) already exists")
            self._adj[u][v] = existing + weight
            self._adj[v][u] = existing + weight
            self._total_edge_weight += weight
        else:
            self._adj[u][v] = weight
            self._adj[v][u] = weight
            self._num_edges += 1
            self._total_edge_weight += weight
        if self._derived:
            self._derived.clear()

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``; raises ``KeyError`` if absent."""
        weight = self._adj[u].pop(v)
        del self._adj[v][u]
        self._num_edges -= 1
        self._total_edge_weight -= weight
        if self._derived:
            self._derived.clear()

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges; raises ``KeyError`` if absent."""
        for u in list(self._adj[v]):
            self.remove_edge(u, v)
        del self._adj[v]
        del self._vertex_weight[v]
        if self._derived:
            self._derived.clear()

    # -- queries ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def total_edge_weight(self) -> int:
        return self._total_edge_weight

    @property
    def total_vertex_weight(self) -> int:
        return sum(self._vertex_weight.values())

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over vertices (insertion order)."""
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[Vertex, Vertex, int]]:
        """Iterate over ``(u, v, weight)`` with each undirected edge once."""
        seen: set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if v not in seen:
                    yield u, v, w
            seen.add(u)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def edge_weight(self, u: Vertex, v: Vertex, default: int = 0) -> int:
        """Weight of edge ``{u, v}``, or ``default`` if absent."""
        nbrs = self._adj.get(u)
        if nbrs is None:
            return default
        return nbrs.get(v, default)

    def neighbors(self, v: Vertex) -> Iterator[Vertex]:
        return iter(self._adj[v])

    def neighbor_items(self, v: Vertex) -> Iterator[tuple[Vertex, int]]:
        """Iterate ``(neighbor, edge_weight)`` pairs of ``v``."""
        return iter(self._adj[v].items())

    def adjacency(self, v: Vertex) -> dict[Vertex, int]:
        """The internal ``neighbor -> weight`` map of ``v`` (do not mutate)."""
        return self._adj[v]

    def degree(self, v: Vertex) -> int:
        """Number of incident edges (unweighted)."""
        return len(self._adj[v])

    def weighted_degree(self, v: Vertex) -> int:
        """Sum of incident edge weights."""
        return sum(self._adj[v].values())

    def vertex_weight(self, v: Vertex) -> int:
        return self._vertex_weight[v]

    def average_degree(self) -> float:
        """Average unweighted degree, ``2|E| / |V|`` (0.0 for the empty graph)."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def is_uniform_vertex_weight(self) -> bool:
        """True when every vertex has weight 1 (i.e. not a contracted graph)."""
        return all(w == 1 for w in self._vertex_weight.values())

    # -- derived graphs -----------------------------------------------------------

    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        """Induced subgraph on ``keep`` (vertex weights preserved)."""
        keep_set = set(keep)
        g = Graph()
        for v in keep_set:
            if v not in self._adj:
                raise KeyError(f"vertex {v!r} not in graph")
            g.add_vertex(v, self._vertex_weight[v])
        for u, v, w in self.edges():
            if u in keep_set and v in keep_set:
                g.add_edge(u, v, w)
        return g

    def relabeled(self) -> tuple["Graph", dict[Vertex, int]]:
        """Return a copy with vertices renamed ``0 .. n-1`` plus the mapping."""
        mapping = {v: i for i, v in enumerate(self._adj)}
        g = Graph()
        for v, i in mapping.items():
            g.add_vertex(i, self._vertex_weight[v])
        for u, v, w in self.edges():
            g.add_edge(mapping[u], mapping[v], w)
        return g, mapping

    # -- misc ---------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Graph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"avg_deg={self.average_degree():.2f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj and self._vertex_weight == other._vertex_weight

    def __hash__(self):  # Graphs are mutable.
        raise TypeError("Graph objects are unhashable")

    def validate(self) -> None:
        """Check internal invariants (symmetry, counters); raises on violation.

        Intended for tests and debugging, not hot paths.
        """
        edge_count = 0
        weight_sum = 0
        for u, nbrs in self._adj.items():
            if u not in self._vertex_weight:
                raise AssertionError(f"vertex {u!r} missing weight")
            for v, w in nbrs.items():
                if u == v:
                    raise AssertionError(f"self-loop at {u!r}")
                if self._adj.get(v, {}).get(u) != w:
                    raise AssertionError(f"asymmetric edge ({u!r}, {v!r})")
                edge_count += 1
                weight_sum += w
        if edge_count != 2 * self._num_edges:
            raise AssertionError(f"edge counter {self._num_edges} != actual {edge_count // 2}")
        if weight_sum != 2 * self._total_edge_weight:
            raise AssertionError(
                f"edge weight counter {self._total_edge_weight} != actual {weight_sum // 2}"
            )

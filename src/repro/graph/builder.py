"""Mutable builder producing immutable :class:`repro.graph.graph.Graph`.

The builder is the single entry point for constructing graphs by hand, from
generators (:mod:`repro.datasets.synthetic`) or from DIMACS files
(:mod:`repro.graph.io`).  It normalises the edge set the way the paper's
model expects: positive weights, no self loops, and no parallel edges (the
cheapest copy of a parallel edge wins, which never changes any shortest
path or distance).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from .graph import Graph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulates nodes and directed edges, then :meth:`build`\\ s a graph.

    Example
    -------
    >>> b = GraphBuilder()
    >>> a = b.add_node(0.0, 0.0)
    >>> c = b.add_node(1.0, 0.0)
    >>> b.add_edge(a, c, 1.5)
    >>> g = b.build()
    >>> g.n, g.m
    (2, 1)
    """

    def __init__(self) -> None:
        self._xs: List[float] = []
        self._ys: List[float] = []
        self._edges: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, x: float, y: float) -> int:
        """Add a node at coordinate ``(x, y)`` and return its id."""
        self._xs.append(float(x))
        self._ys.append(float(y))
        return len(self._xs) - 1

    def add_nodes(self, coords) -> List[int]:
        """Add many nodes; ``coords`` yields ``(x, y)`` pairs."""
        return [self.add_node(x, y) for x, y in coords]

    @property
    def node_count(self) -> int:
        """Number of nodes added so far."""
        return len(self._xs)

    def coord(self, u: int) -> Tuple[float, float]:
        """Coordinate of an already-added node."""
        return self._xs[u], self._ys[u]

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add directed edge ``u -> v``.

        Self loops are rejected (they can never lie on a shortest path with
        positive weights).  A parallel edge replaces the stored one only if
        it is strictly cheaper.
        """
        if u == v:
            raise ValueError(f"self loop on node {u} is not allowed")
        if not (0 <= u < self.node_count and 0 <= v < self.node_count):
            raise ValueError(f"edge ({u}, {v}) references an unknown node")
        w = float(weight)
        if w <= 0:
            raise ValueError(f"edge ({u}, {v}) must have positive weight, got {w}")
        key = (u, v)
        old = self._edges.get(key)
        if old is None or w < old:
            self._edges[key] = w

    def add_bidirectional_edge(self, u: int, v: int, weight: float) -> None:
        """Add ``u -> v`` and ``v -> u`` with the same weight.

        Road networks in the paper's datasets are overwhelmingly
        bidirectional; Figure 1's example explicitly uses bidirectional
        edges.
        """
        self.add_edge(u, v, weight)
        self.add_edge(v, u, weight)

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if ``u -> v`` has been added."""
        return (u, v) in self._edges

    @property
    def edge_count(self) -> int:
        """Number of distinct directed edges added so far."""
        return len(self._edges)

    def iter_edges(self):
        """Iterate over ``((u, v), w)`` for every edge added so far."""
        return iter(self._edges.items())

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> Graph:
        """Freeze the accumulated nodes/edges into an immutable graph.

        Edges were validated on :meth:`add_edge`, so this packs them
        straight into the CSR columns — one sorted pass, no intermediate
        per-node lists — and hands the columns to :meth:`Graph.from_csr`.
        """
        n = self.node_count
        m = len(self._edges)
        head = array("q", bytes(8 * (n + 1)))
        dst = array("q", bytes(8 * m))
        wts = array("d", bytes(8 * m))
        for pos, ((u, v), w) in enumerate(sorted(self._edges.items())):
            head[u + 1] = pos + 1
            dst[pos] = v
            wts[pos] = w
        # Nodes with no outgoing edges inherit the previous head cursor.
        for u in range(n):
            if head[u + 1] < head[u]:
                head[u + 1] = head[u]
        return Graph.from_csr(list(self._xs), list(self._ys), head, dst, wts)

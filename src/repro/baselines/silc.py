"""SILC: Spatially Induced Linkage Cognizance (Samet et al., SIGMOD 2008).

Reference [21] of the paper — "one of the most advanced worst-case
efficient indices".  SILC precomputes, for every source node ``u``, the
*first move* (the neighbour of ``u`` that begins a shortest path) toward
every other node, and compresses that n-way colouring into a region
quadtree over the node coordinates: contiguous areas whose nodes share
the same first move collapse into single quadtree blocks.  Queries walk
from the source, looking up one quadtree block per path node — ``O(k log
n)`` for a ``k``-edge path — and a distance query simply accumulates the
weights along the walk, which is why the paper measures identical SILC
timings for distance and path queries (Section 6.3).

Faithfulness notes:

* preprocessing runs one full Dijkstra tree per node — Θ(n² log n) — and
  total quadtree size is empirically ≈ O(n^1.5); both match the paper's
  narrative that SILC is unusable beyond mid-size inputs (it is excluded
  from datasets over 500 k nodes in the paper; our harness excludes it
  beyond a few thousand).
* the optional distance-interval refinement of the original SILC (min /
  max network-to-Euclidean ratios per block) accelerates *approximate*
  distance browsing and is orthogonal to the exact queries benchmarked
  here; we implement the exact first-move core.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..graph.graph import Graph
from ..graph.path import Path
from ..graph.workspace import acquire, release
from ..spatial.geometry import bounding_square
from .base import QueryEngine

__all__ = ["SILCEngine"]

# A quadtree is either a uniform leaf ('c', color), a mixed fallback leaf
# ('m', {(x, y): color}), or an internal node ('i', [sw, se, nw, ne]).
_QuadTree = Tuple[str, object]

_MAX_DEPTH = 48


def _build_quadtree(
    points: List[Tuple[float, float, int]], depth: int = 0
) -> Optional[_QuadTree]:
    """Recursively collapse same-colour areas into blocks.

    ``points`` carry ``(x_rel, y_rel, colour)`` with coordinates already
    normalised to the current block's ``[0, 1)²``; children renormalise.
    """
    if not points:
        return None
    first = points[0][2]
    if all(p[2] == first for p in points):
        return ("c", first)
    if depth >= _MAX_DEPTH:
        return ("m", {(x, y): c for x, y, c in points})
    quadrants: List[List[Tuple[float, float, int]]] = [[], [], [], []]
    for x, y, c in points:
        qx = 1 if x >= 0.5 else 0
        qy = 1 if y >= 0.5 else 0
        quadrants[qy * 2 + qx].append(
            (x * 2 - qx, y * 2 - qy, c)
        )
    return ("i", [_build_quadtree(q, depth + 1) for q in quadrants])


def _lookup(tree: _QuadTree, x: float, y: float) -> int:
    """Colour of the block containing normalised point ``(x, y)``."""
    while True:
        kind, payload = tree
        if kind == "c":
            return payload  # type: ignore[return-value]
        if kind == "m":
            return payload[(x, y)]  # type: ignore[index]
        qx = 1 if x >= 0.5 else 0
        qy = 1 if y >= 0.5 else 0
        child = payload[qy * 2 + qx]  # type: ignore[index]
        if child is None:
            raise KeyError("lookup fell into an empty quadtree block")
        tree = child
        x = x * 2 - qx
        y = y * 2 - qy


def _count_blocks(tree: Optional[_QuadTree]) -> int:
    if tree is None:
        return 0
    kind, payload = tree
    if kind == "i":
        return 1 + sum(_count_blocks(c) for c in payload)  # type: ignore[arg-type]
    return 1


class SILCEngine(QueryEngine):
    """First-move quadtree index with path-following queries."""

    name = "SILC"

    #: Refuse to build beyond this size by default: preprocessing is
    #: quadratic, mirroring the paper's exclusion of SILC on large data.
    DEFAULT_MAX_NODES = 20_000

    def __init__(self, graph: Graph, max_nodes: Optional[int] = None) -> None:
        super().__init__(graph)
        limit = self.DEFAULT_MAX_NODES if max_nodes is None else max_nodes
        if graph.n > limit:
            raise ValueError(
                f"SILC preprocessing is quadratic; {graph.n} nodes exceeds the "
                f"limit of {limit} (pass max_nodes to override)"
            )
        ox, oy, side = bounding_square(zip(graph.xs, graph.ys))
        # Normalise all coordinates once; quadtrees work in [0, 1)².
        self._norm: List[Tuple[float, float]] = [
            (
                min((graph.xs[u] - ox) / side, 1.0 - 1e-12),
                min((graph.ys[u] - oy) / side, 1.0 - 1e-12),
            )
            for u in graph.nodes()
        ]
        self._trees: List[Optional[_QuadTree]] = []
        self._weights: Dict[Tuple[int, int], float] = graph._weight_map()
        for u in graph.nodes():
            self._trees.append(self._build_for(u))

    def _build_for(self, u: int) -> Optional[_QuadTree]:
        """One full Dijkstra from ``u`` propagating first moves inline.

        When a node settles, its final parent is settled already, so its
        first move is inherited on the spot — no second distance-sorted
        pass over the tree, and the n-per-node preprocessing loop runs
        entirely on the shared workspace arrays.  ``first_move`` entries
        are written at settle time only, which makes them valid exactly
        for settled nodes.
        """
        graph = self.graph
        adj = graph.out
        norm = self._norm
        ws = acquire(graph)
        try:
            c = ws.begin()
            dist = ws.dist
            visit = ws.visit
            parent = ws.parent
            first_move = [0] * graph.n
            dist[u] = 0.0
            visit[u] = c
            parent[u] = -1
            points: List[Tuple[float, float, int]] = []
            heap: List[Tuple[float, int]] = [(0.0, u)]
            while heap:
                d, x = heappop(heap)
                if d > dist[x]:
                    continue
                if x != u:
                    p = parent[x]
                    mv = x if p == u else first_move[p]
                    first_move[x] = mv
                    nx, ny = norm[x]
                    points.append((nx, ny, mv))
                for y, w in adj[x]:
                    nd = d + w
                    if visit[y] != c:
                        visit[y] = c
                        dist[y] = nd
                        parent[y] = x
                        heappush(heap, (nd, y))
                    elif nd < dist[y]:
                        dist[y] = nd
                        parent[y] = x
                        heappush(heap, (nd, y))
            return _build_quadtree(points)
        finally:
            release(graph, ws)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Total quadtree blocks across all sources (Figure 10a metric)."""
        return sum(_count_blocks(t) for t in self._trees)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _first_move(self, u: int, target: int) -> Optional[int]:
        tree = self._trees[u]
        if tree is None:
            return None
        x, y = self._norm[target]
        try:
            return _lookup(tree, x, y)
        except KeyError:
            return None

    def _follow(self, source: int, target: int) -> Optional[Tuple[List[int], float]]:
        source, target = self._check_pair(source, target)
        if source == target:
            return [source], 0.0
        nodes = [source]
        total = 0.0
        u = source
        weights = self._weights
        for _ in range(self.graph.n):
            nxt = self._first_move(u, target)
            if nxt is None:
                return None
            total += weights[(u, nxt)]
            nodes.append(nxt)
            if nxt == target:
                return nodes, total
            u = nxt
        raise RuntimeError("first-move walk did not terminate; index corrupt")

    def distance(self, source: int, target: int) -> float:
        """Distance by walking the first-move chain and summing weights."""
        res = self._follow(source, target)
        return res[1] if res is not None else float("inf")

    def shortest_path(self, source: int, target: int) -> Optional[Path]:
        """Shortest path by walking the first-move chain."""
        res = self._follow(source, target)
        if res is None:
            return None
        nodes, total = res
        return Path(tuple(nodes), total)

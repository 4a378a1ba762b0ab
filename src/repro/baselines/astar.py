"""A* with an admissible geometric heuristic.

On travel-time-weighted road networks the straight-line distance is not a
valid lower bound by itself; dividing it by the network's maximum speed
(max over edges of geometric length / weight) restores admissibility.
The engine derives that speed from the graph at construction time, so it
works for both travel-time and length weight models.

A* belongs to the goal-directed family the paper's related work surveys
(Goldberg & Harrelson [12]); it is included as a preprocessing-free
reference point between plain Dijkstra and the indexed methods.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

from ..graph.graph import Graph
from ..graph.path import Path
from ..graph.traversal import walk_parents
from ..graph.workspace import acquire, release
from ..spatial.geometry import euclidean_distance
from .base import QueryEngine

__all__ = ["AStarEngine", "max_speed"]

INF = float("inf")


def max_speed(graph: Graph) -> float:
    """Largest geometric-length / weight ratio over all edges.

    Any path's weight is at least its geometric length divided by this
    speed, which makes ``euclid(u, t) / max_speed`` an admissible and
    consistent A* heuristic.
    """
    best = 0.0
    xs, ys = graph.xs, graph.ys
    for u, v, w in graph.edges():
        length = euclidean_distance((xs[u], ys[u]), (xs[v], ys[v]))
        if length > 0:
            speed = length / w
            if speed > best:
                best = speed
    return best if best > 0 else 1.0


class AStarEngine(QueryEngine):
    """Goal-directed unidirectional A* search."""

    name = "A*"

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self._speed = max_speed(graph)

    def _heuristic(self, u: int, tx: float, ty: float) -> float:
        xs, ys = self.graph.xs, self.graph.ys
        return euclidean_distance((xs[u], ys[u]), (tx, ty)) / self._speed

    def _search(self, source: int, target: int) -> Tuple[float, Optional[List[int]]]:
        """Workspace-backed A*; returns (distance, path nodes).

        With a consistent heuristic a settled node's g-value is final, so
        the usual Dijkstra workspace discipline applies: ``visit`` tags
        label validity, ``parent`` is walked before the workspace goes
        back to the pool.  Stale heap entries are skipped via the
        ``settled`` set — the g-based lazy-deletion test the plain
        Dijkstra loops use does not transfer to A*, whose heap keys are
        f-values that the workspace does not store.
        """
        source, target = self._check_pair(source, target)
        graph = self.graph
        tx, ty = graph.coord(target)
        out = graph.out
        xs, ys = graph.xs, graph.ys
        speed = self._speed
        euclid = euclidean_distance
        ws = acquire(graph)
        try:
            c = ws.begin()
            dist = ws.dist
            visit = ws.visit
            parent = ws.parent
            dist[source] = 0.0
            visit[source] = c
            parent[source] = -1
            settled: set = set()
            heap: List[Tuple[float, int]] = [(self._heuristic(source, tx, ty), source)]
            while heap:
                _, u = heappop(heap)
                if u in settled:
                    continue
                settled.add(u)
                if u == target:
                    return dist[u], walk_parents(parent, source, target)
                du = dist[u]
                for v, w in out[u]:
                    nd = du + w
                    if visit[v] != c:
                        visit[v] = c
                        dist[v] = nd
                        parent[v] = u
                        heappush(
                            heap, (nd + euclid((xs[v], ys[v]), (tx, ty)) / speed, v)
                        )
                    elif nd < dist[v]:
                        dist[v] = nd
                        parent[v] = u
                        heappush(
                            heap, (nd + euclid((xs[v], ys[v]), (tx, ty)) / speed, v)
                        )
            return INF, None
        finally:
            release(graph, ws)

    def distance(self, source: int, target: int) -> float:
        """Distance by goal-directed search; inf when unreachable."""
        d, _ = self._search(source, target)
        return d

    def shortest_path(self, source: int, target: int) -> Optional[Path]:
        """Shortest path by goal-directed search with parent pointers."""
        d, nodes = self._search(source, target)
        if nodes is None:
            return None
        return Path(tuple(nodes), d)

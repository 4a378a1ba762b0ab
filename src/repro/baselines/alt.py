"""ALT: A*, Landmarks and the Triangle inequality (Goldberg-Harrelson).

The paper's related work (Section 5, reference [12]) describes ALT as the
canonical heuristic competitor: pick a small set of *landmarks*, store
every node's distance to and from each landmark, and use the triangle
inequality to derive goal-directed lower bounds

    d(v, t)  >=  max_L ( d(v, L) - d(t, L),  d(L, t) - d(L, v) ).

Preprocessing is ``2 * |landmarks|`` full Dijkstra trees; the per-query
bound costs O(|landmarks|) per relaxed node.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..graph.graph import Graph
from ..graph.path import Path
from ..graph.traversal import dijkstra_distances, walk_parents
from ..graph.workspace import acquire, release
from .base import QueryEngine

__all__ = ["ALTEngine", "select_landmarks_farthest"]

INF = float("inf")


def select_landmarks_farthest(graph: Graph, count: int, seed: int = 0) -> List[int]:
    """Farthest-point landmark selection.

    Starts from a random node, then repeatedly adds the node maximising
    the minimum network distance to the landmarks chosen so far — the
    standard selection heuristic from the ALT paper.
    """
    if count < 1:
        raise ValueError("need at least one landmark")
    rng = random.Random(seed)
    first = rng.randrange(graph.n)
    # Bootstrap: farthest node from a random seed becomes the first landmark.
    dist = dijkstra_distances(graph, first)
    landmarks = [max(dist.items(), key=lambda kv: kv[1])[0]]
    min_dist = dict(dijkstra_distances(graph, landmarks[0]))
    while len(landmarks) < count:
        candidate = max(min_dist.items(), key=lambda kv: kv[1])[0]
        if candidate in landmarks:
            break
        landmarks.append(candidate)
        for node, d in dijkstra_distances(graph, candidate).items():
            if d < min_dist.get(node, INF):
                min_dist[node] = d
    return landmarks


class ALTEngine(QueryEngine):
    """A* with landmark-based triangle-inequality lower bounds."""

    name = "ALT"

    def __init__(self, graph: Graph, n_landmarks: int = 8, seed: int = 0) -> None:
        super().__init__(graph)
        self.landmarks = select_landmarks_farthest(graph, n_landmarks, seed=seed)
        n = graph.n
        # to_lm[i][v] = d(v -> L_i);  from_lm[i][v] = d(L_i -> v)
        self._to_lm: List[List[float]] = []
        self._from_lm: List[List[float]] = []
        for lm in self.landmarks:
            frm = [INF] * n
            for node, d in dijkstra_distances(graph, lm).items():
                frm[node] = d
            self._from_lm.append(frm)
            to = [INF] * n
            for node, d in dijkstra_distances(graph, lm, reverse=True).items():
                to[node] = d
            self._to_lm.append(to)

    def index_size(self) -> int:
        """Stored entries: two distances per node per landmark."""
        return 2 * len(self.landmarks) * self.graph.n

    def _lower_bound(self, v: int, target: int) -> float:
        best = 0.0
        for to, frm in zip(self._to_lm, self._from_lm):
            d_v_l, d_t_l = to[v], to[target]
            if d_v_l < INF and d_t_l < INF:
                diff = d_v_l - d_t_l
                if diff > best:
                    best = diff
            d_l_t, d_l_v = frm[target], frm[v]
            if d_l_t < INF and d_l_v < INF:
                diff = d_l_t - d_l_v
                if diff > best:
                    best = diff
        return best

    def _search(self, source: int, target: int) -> Tuple[float, Optional[List[int]]]:
        """Workspace-backed landmark A*; returns (distance, path nodes)."""
        source, target = self._check_pair(source, target)
        graph = self.graph
        out = graph.out
        lower_bound = self._lower_bound
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
            heap: List[Tuple[float, int]] = [(lower_bound(source, target), source)]
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
                        heappush(heap, (nd + lower_bound(v, target), v))
                    elif nd < dist[v]:
                        dist[v] = nd
                        parent[v] = u
                        heappush(heap, (nd + lower_bound(v, target), v))
            return INF, None
        finally:
            release(graph, ws)

    def distance(self, source: int, target: int) -> float:
        """Distance with landmark-guided A*."""
        d, _ = self._search(source, target)
        return d

    def shortest_path(self, source: int, target: int) -> Optional[Path]:
        """Shortest path with landmark-guided A*."""
        d, nodes = self._search(source, target)
        if nodes is None:
            return None
        return Path(tuple(nodes), d)

"""FC — the first-cut index (Section 3).

FC demonstrates the paper's key idea in its simplest form:

* node levels come from the *exact* arterial-edge computation on the full
  graph (:func:`repro.core.hierarchy.exact_levels`);
* a shortcut ``u -> v`` is added whenever the shortest path from ``u`` to
  ``v`` passes only through nodes whose levels are lower than both
  endpoints', with length equal to that distance (§3.1);
* queries run two alternating constrained Dijkstra traversals over the
  hierarchy, subject to the **level constraint** (never descend) and the
  **proximity constraint** (at level ``i``, stay within the 3x3-cell
  regions of ``R_{i+1}`` around the query endpoint) (§3.2).

As the paper stresses, FC's preprocessing is prohibitive for large
networks — the constructor enforces a node cap so nobody builds it on a
continent by accident.  The shortcut chains are retained, so unlike the
paper's distance-only presentation, this implementation answers shortest
path queries too (each shortcut unpacks to its stored interior).
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..baselines.base import QueryEngine
from ..graph.graph import Graph
from ..graph.path import Path
from ..graph.workspace import acquire, release
from ..spatial.grid import GridPyramid, NodeGrid
from .hierarchy import LevelAssignment, exact_levels

__all__ = ["FCIndex"]

INF = float("inf")


class FCIndex(QueryEngine):
    """The first-cut index of Section 3.

    Parameters
    ----------
    graph:
        The road network; must have at most ``max_nodes`` nodes.
    pyramid:
        Optional pre-built grid pyramid.
    proximity:
        Enable the proximity constraint at query time.
    max_nodes:
        Safety cap on the input size (FC preprocessing is the paper's
        acknowledged bottleneck: per-region shortest paths over the full
        graph).
    """

    name = "FC"

    DEFAULT_MAX_NODES = 5_000

    def __init__(
        self,
        graph: Graph,
        pyramid: Optional[GridPyramid] = None,
        proximity: bool = True,
        max_nodes: Optional[int] = None,
    ) -> None:
        super().__init__(graph)
        limit = self.DEFAULT_MAX_NODES if max_nodes is None else max_nodes
        if graph.n > limit:
            raise ValueError(
                f"FC preprocessing is quadratic; {graph.n} nodes exceeds the "
                f"cap of {limit} (pass max_nodes to override, or use AHIndex)"
            )
        self.proximity = proximity
        self.build_times: Dict[str, float] = {}

        t0 = time.perf_counter()
        self.assignment: LevelAssignment = exact_levels(graph, pyramid)
        self.build_times["levels"] = time.perf_counter() - t0
        self.levels: List[int] = self.assignment.levels
        self.node_grid: NodeGrid = self.assignment.node_grid
        self.h: int = self.assignment.h

        t0 = time.perf_counter()
        # Hierarchy adjacency: original edges plus shortcuts, pre-filtered
        # by the level constraint (edges descending in level can never be
        # traversed, per §3.2's remark).
        self._out: List[List[Tuple[int, float]]] = [[] for _ in graph.nodes()]
        self._inn: List[List[Tuple[int, float]]] = [[] for _ in graph.nodes()]
        self._chains: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._edge_weight: Dict[Tuple[int, int], float] = {}
        for u, v, w in graph.edges():
            self._add_hierarchy_edge(u, v, w, None)
        self._build_shortcuts()
        self.build_times["shortcuts"] = time.perf_counter() - t0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add_hierarchy_edge(
        self, u: int, v: int, w: float, chain: Optional[Tuple[int, ...]]
    ) -> None:
        key = (u, v)
        old = self._edge_weight.get(key)
        if old is not None and old <= w:
            return
        self._edge_weight[key] = w
        if old is None:
            self._out[u].append((v, w))
            self._inn[v].append((u, w))
        else:
            self._out[u] = [(x, w if x == v else wx) for x, wx in self._out[u]]
            self._inn[v] = [(x, w if x == u else wx) for x, wx in self._inn[v]]
        if chain is not None:
            self._chains[key] = chain
        else:
            self._chains.pop(key, None)

    def _build_shortcuts(self) -> None:
        """Add a shortcut for every pair whose shortest path stays below
        both endpoints' levels (tracking interiors tie-robustly).

        The per-source Dijkstras share one workspace (``ws.parent`` holds
        the parent pointers); ``maxlev`` needs a second integer column and
        a tie-update rule the versioned arrays do not model, so it stays a
        per-source dict — it only holds the searched ball, not n entries.
        """
        graph = self.graph
        levels = self.levels
        adj = graph.out
        ws = acquire(graph)
        try:
            dist = ws.dist
            visit = ws.visit
            parent = ws.parent
            for u in graph.nodes():
                lu = levels[u]
                if lu == 0:
                    continue  # interiors must have level < 0: impossible
                # Dijkstra from u expanding only through nodes below lu.
                # maxlev[v] = smallest achievable "highest interior level"
                # over all tied shortest u->v paths (min over optimal
                # predecessors).
                c = ws.begin()
                dist[u] = 0.0
                visit[u] = c
                parent[u] = -1
                maxlev: Dict[int, int] = {u: -1}
                settled: List[int] = []
                heap: List[Tuple[float, int]] = [(0.0, u)]
                while heap:
                    d, x = heappop(heap)
                    if d > dist[x]:
                        continue
                    settled.append(x)
                    if x != u and levels[x] >= lu:
                        continue  # terminal: may end a shortcut, not extend
                    interior = maxlev[x] if x == u else max(maxlev[x], levels[x])
                    for y, w in adj[x]:
                        nd = d + w
                        if visit[y] != c:
                            visit[y] = c
                            dist[y] = nd
                            maxlev[y] = interior
                            parent[y] = x
                            heappush(heap, (nd, y))
                        elif nd < dist[y]:
                            dist[y] = nd
                            maxlev[y] = interior
                            parent[y] = x
                            heappush(heap, (nd, y))
                        elif nd == dist[y] and interior < maxlev[y]:
                            maxlev[y] = interior
                            parent[y] = x
                for v in settled:
                    if v == u:
                        continue
                    lv = levels[v]
                    # A multi-hop shortest path may undercut a direct edge;
                    # _add_hierarchy_edge keeps the cheaper of the two.
                    if maxlev[v] < min(lu, lv) and parent[v] != u:
                        chain = self._walk(parent, u, v)
                        self._add_hierarchy_edge(u, v, dist[v], chain)
        finally:
            release(graph, ws)

    @staticmethod
    def _walk(parent: List[int], source: int, target: int) -> Tuple[int, ...]:
        """Reconstruct ``source -> target`` from workspace parent pointers."""
        nodes = [target]
        x = target
        while x != source:
            x = parent[x]
            nodes.append(x)
        nodes.reverse()
        return tuple(nodes)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Hierarchy edges stored (original + shortcuts, one direction)."""
        return len(self._edge_weight)

    @property
    def shortcut_count(self) -> int:
        """Number of stored shortcut edges."""
        return len(self._chains)

    def build_time(self) -> float:
        """Total preprocessing seconds."""
        return sum(self.build_times.values())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        """Distance via level/proximity-constrained alternating search."""
        d, _ = self._query(source, target, want_parents=False)
        return d

    def shortest_path(self, source: int, target: int) -> Optional[Path]:
        """Shortest path: constrained search plus chain expansion."""
        d, meet = self._query(source, target, want_parents=True)
        if meet is None:
            return None
        node, chain_f, chain_b = meet
        packed: List[int] = [node]
        packed.extend(chain_f)
        packed.reverse()
        packed.extend(chain_b)
        nodes: List[int] = [packed[0]]
        for a, b in zip(packed, packed[1:]):
            chain = self._chains.get((a, b))
            if chain is None:
                nodes.append(b)
            else:
                nodes.extend(chain[1:])
        return Path(tuple(nodes), d)

    def _query(
        self, source: int, target: int, want_parents: bool
    ) -> Tuple[float, Optional[Tuple[int, List[int], List[int]]]]:
        """Alternating constrained search.

        Returns ``(distance, (meeting node, chain to source, chain to
        target))`` with both chains excluding the meeting node, or
        ``(inf, None)`` when unreachable.
        """
        source, target = self._check_pair(source, target)
        if source == target:
            return 0.0, (source, [], [])
        levels = self.levels
        h = self.h
        proximity = self.proximity
        cheb = self.node_grid.chebyshev_cells

        def allowed(anchor: int, v: int) -> bool:
            lv = levels[v]
            if lv >= h:
                return True
            return cheb(lv + 1, anchor, v) <= 2

        graph = self.graph
        ws_f = acquire(graph)
        ws_b = acquire(graph)
        try:
            cf = ws_f.begin()
            cb = ws_b.begin()
            dist_f = ws_f.dist
            dist_b = ws_b.dist
            visit_f = ws_f.visit
            visit_b = ws_b.visit
            parent_f = ws_f.parent
            parent_b = ws_b.parent
            dist_f[source] = 0.0
            visit_f[source] = cf
            dist_b[target] = 0.0
            visit_b[target] = cb
            heap_f: List[Tuple[float, int]] = [(0.0, source)]
            heap_b: List[Tuple[float, int]] = [(0.0, target)]
            best = INF
            best_node: Optional[int] = None
            out, inn = self._out, self._inn
            while heap_f or heap_b:
                top_f = heap_f[0][0] if heap_f else INF
                top_b = heap_b[0][0] if heap_b else INF
                if best <= min(top_f, top_b):
                    break
                if top_f <= top_b:
                    d, u = heappop(heap_f)
                    if d > dist_f[u]:
                        continue
                    if visit_b[u] == cb and d + dist_b[u] < best:
                        best = d + dist_b[u]
                        best_node = u
                    lu = levels[u]
                    for v, w in out[u]:
                        if levels[v] < lu:
                            continue  # level constraint
                        if proximity and not allowed(source, v):
                            continue
                        nd = d + w
                        if visit_f[v] != cf:
                            visit_f[v] = cf
                            dist_f[v] = nd
                            parent_f[v] = u
                            heappush(heap_f, (nd, v))
                        elif nd < dist_f[v]:
                            dist_f[v] = nd
                            parent_f[v] = u
                            heappush(heap_f, (nd, v))
                else:
                    d, u = heappop(heap_b)
                    if d > dist_b[u]:
                        continue
                    if visit_f[u] == cf and d + dist_f[u] < best:
                        best = d + dist_f[u]
                        best_node = u
                    lu = levels[u]
                    for v, w in inn[u]:
                        if levels[v] < lu:
                            continue
                        if proximity and not allowed(target, v):
                            continue
                        nd = d + w
                        if visit_b[v] != cb:
                            visit_b[v] = cb
                            dist_b[v] = nd
                            parent_b[v] = u
                            heappush(heap_b, (nd, v))
                        elif nd < dist_b[v]:
                            dist_b[v] = nd
                            parent_b[v] = u
                            heappush(heap_b, (nd, v))
            if best_node is None:
                return INF, None
            if not want_parents:
                return best, (best_node, [], [])
            # Materialise the two parent chains before the workspaces go
            # back to the pool.
            packed_f: List[int] = []
            x = best_node
            while x != source:
                x = parent_f[x]
                packed_f.append(x)
            packed_b: List[int] = []
            x = best_node
            while x != target:
                x = parent_b[x]
                packed_b.append(x)
            return best, (best_node, packed_f, packed_b)
        finally:
            release(graph, ws_b)
            release(graph, ws_f)

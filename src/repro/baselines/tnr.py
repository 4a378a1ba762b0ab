"""Transit Node Routing (Bast et al. [5, 6]) — the paper's closest kin.

Section 5 calls Bast et al.'s observation — a small set of *transit
nodes* covers all long shortest paths — the direct inspiration for the
arterial dimension, and notes (citing the experimental study [25]) that
the original TNR heuristic "is shown to be flawed in that it may return
incorrect query results".  This implementation reproduces both sides:

* **The machinery** — a CH-based TNR: the top-``k`` contraction-rank
  nodes form the transit set; each node stores its forward/backward
  *access nodes* (the first transit nodes on upward paths) with exact
  distances; an all-pairs table over transit nodes finishes the job, so
  a far query is ``min over (a, b) of d(s,a) + D(a,b) + d(b,t)`` — three
  table lookups per access pair, no graph search at all.
* **The flaw** — whether the table answer is exact depends on the
  *locality filter*: table answers are only guaranteed when the true
  shortest path climbs through a transit node, which short queries may
  not.  The filter is a heuristic grid-distance threshold
  (``locality_cells``); queries below it fall back to an exact CH
  search.  Setting the threshold too low reproduces the incorrectness
  the paper cites — ``tests/test_tnr.py`` demonstrates it — while the
  table answer is always an upper bound, never garbage.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..graph.graph import Graph
from ..graph.path import Path
from ..graph.workspace import acquire, release
from ..spatial.grid import GridPyramid, NodeGrid
from .base import QueryEngine
from .ch import CHEngine

__all__ = ["TNREngine"]

INF = float("inf")


class TNREngine(QueryEngine):
    """CH-based Transit Node Routing.

    Parameters
    ----------
    graph:
        The road network.
    transit_count:
        Size of the transit set (the top contraction ranks).
    locality_cells:
        Queries whose endpoints are at least this many finest-grid cells
        apart (Chebyshev) are answered from the table; closer ones fall
        back to the exact CH query.  Higher is safer and slower.
    """

    name = "TNR"

    def __init__(
        self,
        graph: Graph,
        transit_count: int = 24,
        locality_cells: int = 24,
    ) -> None:
        super().__init__(graph)
        if transit_count < 1:
            raise ValueError("need at least one transit node")
        self.locality_cells = locality_cells
        self._ch = CHEngine(graph)
        rank = self._ch.rank
        order = sorted(range(graph.n), key=lambda u: -rank[u])
        self.transit: List[int] = order[: min(transit_count, graph.n)]
        transit_set = set(self.transit)
        self._tidx: Dict[int, int] = {t: i for i, t in enumerate(self.transit)}

        self._node_grid = NodeGrid(graph, GridPyramid.from_graph(graph))

        # Access nodes: first transit nodes met by upward searches.  One
        # workspace serves the whole 2n-search construction sweep.
        res = self._ch._res
        ws = acquire(graph)
        try:
            self._access_f: List[List[Tuple[int, float]]] = [
                self._access(u, res.up_out, transit_set, ws) for u in graph.nodes()
            ]
            self._access_b: List[List[Tuple[int, float]]] = [
                self._access(u, res.up_in, transit_set, ws) for u in graph.nodes()
            ]
        finally:
            release(graph, ws)

        # All-pairs transit table via the (exact) CH engine.
        k = len(self.transit)
        self._table: List[List[float]] = [
            [self._ch.distance(a, b) for b in self.transit] for a in self.transit
        ]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _access(
        source: int,
        adjacency: List[List[Tuple[int, float, Optional[int]]]],
        transit_set: set,
        ws,
    ) -> List[Tuple[int, float]]:
        """Upward search from ``source``; transit nodes are terminals.

        Returns the first-met transit nodes with their exact upward
        distances — Bast et al.'s access nodes, computed the CH way on
        the shared workspace arrays.
        """
        c = ws.begin()
        dist = ws.dist
        visit = ws.visit
        dist[source] = 0.0
        visit[source] = c
        heap: List[Tuple[float, int]] = [(0.0, source)]
        access: List[Tuple[int, float]] = []
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            if u in transit_set:
                access.append((u, d))
                continue  # do not search past a transit node
            for v, w, _mid in adjacency[u]:
                nd = d + w
                if visit[v] != c:
                    visit[v] = c
                    dist[v] = nd
                    heappush(heap, (nd, v))
                elif nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return access

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Access entries + the k x k table + the underlying CH index."""
        k = len(self.transit)
        access = sum(len(a) for a in self._access_f) + sum(
            len(a) for a in self._access_b
        )
        return access + k * k + self._ch.index_size()

    def is_local(self, source: int, target: int) -> bool:
        """True when the pair is below the locality threshold (fallback)."""
        return (
            self._node_grid.chebyshev_cells(1, source, target)
            < self.locality_cells
        )

    def table_distance(self, source: int, target: int) -> float:
        """The pure table answer: exact for transit-covered paths, an
        upper bound otherwise (never an underestimate)."""
        tidx = self._tidx
        table = self._table
        best = INF
        for a, da in self._access_f[source]:
            row = table[tidx[a]]
            for b, db in self._access_b[target]:
                d = da + row[tidx[b]] + db
                if d < best:
                    best = d
        return best

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        """Table lookup for far pairs, CH fallback for local ones."""
        source, target = self._check_pair(source, target)
        if source == target:
            return 0.0
        if self.is_local(source, target):
            return self._ch.distance(source, target)
        return self.table_distance(source, target)

    def shortest_path(self, source: int, target: int) -> Optional[Path]:
        """TNR answers distances; paths delegate to the CH substrate.

        This mirrors Bast et al. [6], where path retrieval is layered on
        a conventional search once the distance (and the access pair) is
        known.
        """
        return self._ch.shortest_path(source, target)

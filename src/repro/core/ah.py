"""Arterial Hierarchy index (Section 4) — the paper's main contribution.

Construction pipeline
---------------------
1. **Levels** — :func:`repro.core.hierarchy.assign_levels` classifies
   nodes into ``0..h`` grid levels via pseudo-arterial edges on reduced
   graphs (§4.2).
2. **Ranks** — :func:`repro.core.ordering.compute_ranks` turns levels
   into a strict total order using the §4.4 vertex-cover heuristic, with
   optional downgrading.
3. **Shortcuts** — the graph is contracted in ascending rank order
   (:func:`repro.baselines.ch.contract_graph`).  Every shortcut carries
   the *middle node* it bypasses, which realises the paper's two-hop
   invariant (§4.1): any shortcut expands into two shorter edges, so a
   packed query path unpacks into the original-graph path in ``O(k)``.
   The middle sits both in the ``middle`` dict and in the upward-row
   entry of the shortcut's lower-ranked end; the pure tier unpacks
   through the dict, the native query through the rows.
4. **Elevating edges** (optional, §4.2/§4.3) — for border nodes of the
   coarser grids, precomputed jumps to the first nodes of level ``>= j``
   on upward shortest paths, letting queries skip the low hierarchy
   levels entirely.

Query processing (§4.3)
-----------------------
A bidirectional Dijkstra over upward edges only (the **rank
constraint**), optionally pruning any relaxation toward a level-``i``
node that falls outside every 3x3-cell region of ``R_{i+1}`` around the
query endpoint (the **proximity constraint**), optionally jumping along
elevating edges up to the separation level of the query pair.  The loop
reads tables derived once per index (``_build_query_tables``): each
node's cell in the grid of its own proximity test, the endpoint anchors
those cells are compared with, and each node's jump list per separation
level.  A relaxation then tests proximity with integer arithmetic, and
a jump costs one list index.  On the native tier a distance or
shortest-path query is one C call (:func:`repro.native.ah_query`) over
the same tables, read in place: the search and, for a path, the
unpacking, whose middles come from the upward rows.  The Python loop
and :func:`repro.baselines.ch.unpack_shortcuts` stay as its fallback
and reference.

Correctness notes
-----------------
The rank constraint alone is complete: contraction guarantees a
rank-unimodal path of optimal length for every pair (the paper's
Lemma 16).  The proximity constraint is additionally safe because the
level assignment marks arterial edges tie-inclusively, so *every*
shortest path between nodes separated at ``R_{i+1}`` passes a node above
level ``i`` (Lemma 3), and hence the canonical unimodal path never
leaves the 5x5-cell neighbourhoods the constraint searches.  Elevating
jumps replay precomputed prefixes of the same upward search, and fall
back to plain relaxation whenever a node has no (complete) jump table.
Every constraint can be toggled per query engine for ablation.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from heapq import heappop, heappush

from .. import backend
from .. import native as _native
from ..baselines.base import QueryEngine
from ..baselines.ch import contract_graph, unpack_shortcuts
from ..graph.graph import Graph
from ..graph.path import Path
from ..graph.workspace import acquire, release
from ..spatial.grid import GridPyramid, NodeGrid
from .hierarchy import LevelAssignment, assign_levels
from .ordering import RankAssignment, compute_ranks

__all__ = ["AHIndex"]

INF = float("inf")

# elevating jump: (terminal, distance, packed chain between the two ends)
_Jump = Tuple[int, float, Tuple[int, ...]]
# per node: the jump list a query at one separation level takes, or None
_JumpColumn = List[Optional[List[_Jump]]]


def _separating_level(
    sx: List[int], sy: List[int], tx: List[int], ty: List[int], h: int
) -> int:
    """:meth:`NodeGrid.coarsest_separating_level`, read off two nodes'
    anchor lists (their finest cells shifted by ``0 .. h-1``)."""
    j = h
    while j and -2 <= sx[j - 1] - tx[j - 1] <= 2 and -2 <= sy[j - 1] - ty[j - 1] <= 2:
        j -= 1
    return j


class AHIndex(QueryEngine):
    """The Arterial Hierarchy query engine.

    Parameters
    ----------
    graph:
        The road network to index.
    pyramid:
        Optional pre-built grid pyramid (defaults to one covering the
        graph with ≤ one node per finest cell).
    proximity:
        Enable the proximity constraint at query time.
    downgrade:
        Apply §4.4's downgrading of non-cover cores.
    elevating:
        Precompute elevating edges and use them at query time.
    stall_on_demand:
        Enable the CH-style stalling optimisation (off by default: the
        paper's AH does not use it; flip it on for ablations).
    hop_limit, settle_limit:
        Witness-search truncation for the contraction phase.
    elevating_settle_cap:
        Abandon a node/level jump table when its upward search exceeds
        this many settled nodes (the query then falls back to plain
        relaxation for that node — always safe).
    ordering:
        ``"cover"`` uses §4.4's vertex-cover heuristic within levels;
        ``"random"`` orders levels randomly (the ablation baseline — any
        strict total order preserves correctness, per the paper).
    seed:
        Randomness for the within-level ordering.
    """

    name = "AH"

    def __init__(
        self,
        graph: Graph,
        pyramid: Optional[GridPyramid] = None,
        proximity: bool = True,
        downgrade: bool = True,
        elevating: bool = False,
        stall_on_demand: bool = False,
        hop_limit: int = 8,
        settle_limit: int = 64,
        elevating_settle_cap: int = 512,
        ordering: str = "cover",
        seed: int = 0,
    ) -> None:
        super().__init__(graph)
        self.proximity = proximity
        self.use_elevating = elevating
        self.stall_on_demand = stall_on_demand
        self.build_times: Dict[str, float] = {}

        t0 = time.perf_counter()
        self.assignment: LevelAssignment = assign_levels(graph, pyramid)
        self.build_times["levels"] = time.perf_counter() - t0

        if ordering not in ("cover", "random"):
            raise ValueError(f"ordering must be 'cover' or 'random', got {ordering!r}")
        t0 = time.perf_counter()
        pseudo = self.assignment.pseudo_arterial if ordering == "cover" else {}
        self.ranking: RankAssignment = compute_ranks(
            self.assignment.levels,
            pseudo,
            downgrade=downgrade and ordering == "cover",
            seed=seed,
        )
        self.build_times["ordering"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        self._res = contract_graph(
            graph,
            order=self.ranking.order,
            hop_limit=hop_limit,
            settle_limit=settle_limit,
        )
        self.build_times["contraction"] = time.perf_counter() - t0

        self.levels: List[int] = self.ranking.levels
        self.node_grid: NodeGrid = self.assignment.node_grid
        self.h: int = self.assignment.h

        self._elev_f: Dict[int, Dict[int, List[_Jump]]] = {}
        self._elev_b: Dict[int, Dict[int, List[_Jump]]] = {}
        if elevating:
            t0 = time.perf_counter()
            self._build_elevating(elevating_settle_cap)
            self.build_times["elevating"] = time.perf_counter() - t0
        self._build_query_tables()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Upward edges (both directions) plus elevating entries."""
        res = self._res
        size = sum(len(a) for a in res.up_out) + sum(len(a) for a in res.up_in)
        for table in (self._elev_f, self._elev_b):
            for per_level in table.values():
                for entries in per_level.values():
                    size += len(entries)
        return size

    @property
    def shortcut_count(self) -> int:
        """Shortcuts added by the contraction phase."""
        return self._res.shortcut_count

    def build_time(self) -> float:
        """Total preprocessing seconds across all phases."""
        return sum(self.build_times.values())

    def describe(self) -> str:
        """Summary including the level histogram."""
        sizes = {}
        for lv in self.levels:
            sizes[lv] = sizes.get(lv, 0) + 1
        return (
            f"AH(n={self.graph.n}, h={self.h}, shortcuts={self.shortcut_count}, "
            f"levels={dict(sorted(sizes.items()))})"
        )

    # ------------------------------------------------------------------
    # Metric customization (§7 future work: time-varying edge weights)
    # ------------------------------------------------------------------
    def with_weights(
        self,
        graph: Graph,
        hop_limit: int = 8,
        settle_limit: int = 64,
    ) -> "AHIndex":
        """Rebuild the index for new edge weights, reusing the hierarchy.

        The paper's §7 names traffic-driven weight changes as future
        work.  This customization step answers it in the spirit of
        customizable route planning: the expensive, largely structural
        phases (grid levels, vertex-cover ranks) are kept, and only the
        cheap contraction phase re-runs on the new metric — typically
        two orders of magnitude faster than a full rebuild.

        Because the covering property behind the proximity constraint
        and elevating edges is metric-dependent, the customized index
        runs with the rank constraint only (which is exact for *any*
        weights); re-run the full constructor when the metric change is
        permanent and the extra query speed matters.

        ``graph`` must have the same node count as the original network;
        edges may change weight freely (added/removed edges are allowed
        too — contraction consumes whatever adjacency it is given).
        """
        if self.ranking is None:
            raise ValueError(
                "this index was deserialized without its ranking; "
                "customization needs a fully built index"
            )
        if graph.n != self.graph.n:
            raise ValueError(
                f"new graph has {graph.n} nodes, index was built for "
                f"{self.graph.n}"
            )
        custom = AHIndex.__new__(AHIndex)
        custom.graph = graph
        custom.proximity = False
        custom.use_elevating = False
        custom.stall_on_demand = self.stall_on_demand
        custom.build_times = dict(self.build_times)
        custom.assignment = self.assignment
        custom.ranking = self.ranking
        custom.levels = self.levels
        custom.node_grid = self.node_grid
        custom.h = self.h
        t0 = time.perf_counter()
        custom._res = contract_graph(
            graph,
            order=self.ranking.order,
            hop_limit=hop_limit,
            settle_limit=settle_limit,
        )
        custom.build_times["customization"] = time.perf_counter() - t0
        custom._elev_f = {}
        custom._elev_b = {}
        custom._build_query_tables()
        return custom

    # ------------------------------------------------------------------
    # Elevating edges
    # ------------------------------------------------------------------
    def _build_elevating(self, cap: int) -> None:
        levels = self.levels
        border = self.assignment.border_by_level
        for j in range(2, self.h + 1):
            for u in border.get(j, ()):
                if levels[u] >= j:
                    continue
                fwd = self._elevating_search(u, j, self._res.up_out, cap)
                if fwd:
                    self._elev_f.setdefault(u, {})[j] = fwd
                bwd = self._elevating_search(u, j, self._res.up_in, cap)
                if bwd:
                    # The backward search walks in-edges, so its chains are
                    # in reverse graph order; flip them for unpacking.
                    self._elev_b.setdefault(u, {})[j] = [
                        (v, w, tuple(reversed(chain))) for v, w, chain in bwd
                    ]

    def _elevating_search(
        self,
        source: int,
        j: int,
        adjacency: List[List[Tuple[int, float, Optional[int]]]],
        cap: int,
    ) -> Optional[List[_Jump]]:
        """Upward search from ``source`` through sub-``j`` levels.

        Returns ``(terminal, distance, packed chain)`` for every first
        crossing into level ``>= j``; ``None`` when the search exceeds
        ``cap`` settled nodes (the jump table would be incomplete and is
        therefore discarded).
        """
        levels = self.levels
        graph = self.graph
        ws = acquire(graph)
        try:
            c = ws.begin()
            dist = ws.dist
            visit = ws.visit
            parent = ws.parent
            dist[source] = 0.0
            visit[source] = c
            parent[source] = -1
            heap: List[Tuple[float, int]] = [(0.0, source)]
            settled = 0
            terminals: List[Tuple[int, float]] = []
            while heap:
                d, u = heappop(heap)
                if d > dist[u]:
                    continue
                settled += 1
                if settled > cap:
                    return None
                if levels[u] >= j:
                    terminals.append((u, d))
                    continue  # first crossing: do not expand further
                for v, w, _mid in adjacency[u]:
                    nd = d + w
                    if visit[v] != c:
                        visit[v] = c
                        dist[v] = nd
                        parent[v] = u
                        heappush(heap, (nd, v))
                    elif nd < dist[v]:
                        dist[v] = nd
                        parent[v] = u
                        heappush(heap, (nd, v))
            out: List[_Jump] = []
            for node, d in terminals:
                chain = [node]
                x = node
                while x != source:
                    x = parent[x]
                    chain.append(x)
                chain.reverse()  # source .. node, consecutive pairs are edges
                out.append((node, d, tuple(chain)))
            return out
        finally:
            release(graph, ws)

    # ------------------------------------------------------------------
    # Query tables
    # ------------------------------------------------------------------
    def _build_query_tables(self) -> None:
        """Derive, once per index, the per-node tables :meth:`_query` reads.

        ``_anchor_x[v]``/``_anchor_y[v]`` list node ``v``'s finest cell
        shifted by ``0 .. h-1``, then ``0``: the anchors that a query from
        or to ``v`` tests proximity against.  Nodes with the same finest
        coordinate share one list.  ``_cell_x[v]``/``_cell_y[v]`` pick
        ``v``'s own entry at its level ``l``: its cell in ``R_{l+1}``,
        the grid of its proximity test.  A top-level node gets ``0``,
        which every anchor list ends with, so it always passes.

        ``_jumps_f``/``_jumps_b`` hold, per separation level ``j``, each
        node's jump list for a query separated at ``R_j``: its elevating
        table of the largest level ``<= j`` above its own, or ``None``
        where the node relaxes its plain upward edges.  A level without
        any jump is ``None`` as a whole.

        ``_tables`` gathers all of them, with ``h`` and the upward rows,
        into the one tuple :func:`repro.native.ah_query` reads in place.
        """
        h = self.h
        grid = self.node_grid
        coords = dict.fromkeys(grid._fx + grid._fy)
        shifted = {c: [c >> i for i in range(h)] + [0] for c in coords}
        self._anchor_x = [shifted[c] for c in grid._fx]
        self._anchor_y = [shifted[c] for c in grid._fy]
        self._cell_x = [a[lv] for a, lv in zip(self._anchor_x, self.levels)]
        self._cell_y = [a[lv] for a, lv in zip(self._anchor_y, self.levels)]
        self._jumps_f = self._jump_columns(self._elev_f)
        self._jumps_b = self._jump_columns(self._elev_b)
        self._tables = (
            h,
            self._res.up_out,
            self._res.up_in,
            self.levels,
            self._cell_x,
            self._cell_y,
            self._anchor_x,
            self._anchor_y,
            self._jumps_f,
            self._jumps_b,
        )

    def _jump_columns(
        self, tables: Dict[int, Dict[int, List[_Jump]]]
    ) -> List[Optional[_JumpColumn]]:
        levels = self.levels
        columns: List[Optional[_JumpColumn]] = [None] * (self.h + 1)
        for j in range(1, self.h + 1):
            column: _JumpColumn = [None] * self.graph.n
            for u, per_level in tables.items():
                reach = [k for k in per_level if levels[u] < k <= j]
                if reach:
                    column[u] = per_level[max(reach)]
                    columns[j] = column
        return columns

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        """Network distance via the constrained bidirectional search.

        Under the native tier this is one :func:`repro.native.ah_query`
        call; otherwise :meth:`_query` runs the search.
        """
        if backend.use_native():
            d, _ = _native.ah_query(
                self._tables,
                source,
                target,
                False,
                self.proximity,
                self.stall_on_demand,
                self.use_elevating,
            )
            return float(d)
        d, _ = self._query(source, target, want_parents=False)
        return d

    def shortest_path(self, source: int, target: int) -> Optional[Path]:
        """Shortest path: constrained search, then two-hop unpacking.

        Under the native tier both steps are one
        :func:`repro.native.ah_query` call, which reads each hop's middle
        from the upward rows; otherwise :meth:`_query` finds the packed
        path and :func:`unpack_shortcuts` expands it through the
        ``middle`` dict.  Both return ``==`` paths.
        """
        if backend.use_native():
            d, nodes = _native.ah_query(
                self._tables,
                source,
                target,
                True,
                self.proximity,
                self.stall_on_demand,
                self.use_elevating,
            )
            return None if nodes is None else Path(tuple(nodes), float(d))
        d, packed = self._query(source, target, want_parents=True)
        if packed is None:
            return None
        return Path(tuple(unpack_shortcuts(self._res.middle, packed)), d)

    def _query(
        self, source: int, target: int, want_parents: bool
    ) -> Tuple[float, Optional[List[int]]]:
        """Constrained bidirectional upward search, in pure Python.

        Returns ``(distance, packed path)`` — the node sequence through
        the meeting point, shortcuts and jumps not yet expanded — or
        ``(inf, None)``.  With ``want_parents=False`` the packed path of
        a reachable pair is ``[]``.

        This loop is the fallback and reference of
        :func:`repro.native.ah_query`, which runs the same search over
        :attr:`_tables` and, for a path, the unpacking as well.
        """
        source, target = self._check_pair(source, target)
        if source == target:
            return 0.0, [source]
        res = self._res
        up_out, up_in = res.up_out, res.up_in
        levels = self.levels
        proximity = self.proximity
        stall = self.stall_on_demand
        # Node v passes the proximity test when its own cell lies within
        # two cells of its side's anchor at shift levels[v], on both axes.
        cell_x, cell_y = self._cell_x, self._cell_y
        sx, sy = self._anchor_x[source], self._anchor_y[source]
        tx, ty = self._anchor_x[target], self._anchor_y[target]
        jumps_f = jumps_b = None
        if self.use_elevating:
            j_sep = _separating_level(sx, sy, tx, ty, self.h)
            jumps_f = self._jumps_f[j_sep]
            jumps_b = self._jumps_b[j_sep]

        graph = self.graph
        ws_f = acquire(graph)
        ws_b = acquire(graph)
        cf = ws_f.begin()
        cb = ws_b.begin()
        dist_f = ws_f.dist
        dist_b = ws_b.dist
        visit_f = ws_f.visit
        visit_b = ws_b.visit
        # A parent is the predecessor across a plain upward edge, or the
        # packed chain of the jump that reached the node.
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
        try:
            while heap_f or heap_b:
                top_f = heap_f[0][0] if heap_f else INF
                top_b = heap_b[0][0] if heap_b else INF
                if top_f <= top_b:
                    if best <= top_f:
                        break
                    d, u = heappop(heap_f)
                    if d > dist_f[u]:
                        continue
                    if visit_b[u] == cb and d + dist_b[u] < best:
                        best = d + dist_b[u]
                        best_node = u
                    if stall and self._stalled(u, d, dist_f, visit_f, cf, up_in):
                        continue
                    jump = None if jumps_f is None else jumps_f[u]
                    if jump is None:
                        for v, w, _mid in up_out[u]:
                            nd = d + w
                            if (visit_f[v] != cf or nd < dist_f[v]) and (
                                not proximity
                                or -2 <= cell_x[v] - sx[levels[v]] <= 2
                                and -2 <= cell_y[v] - sy[levels[v]] <= 2
                            ):
                                visit_f[v] = cf
                                dist_f[v] = nd
                                parent_f[v] = u
                                heappush(heap_f, (nd, v))
                    else:
                        for v, w, chain in jump:
                            nd = d + w
                            if (visit_f[v] != cf or nd < dist_f[v]) and (
                                not proximity
                                or -2 <= cell_x[v] - sx[levels[v]] <= 2
                                and -2 <= cell_y[v] - sy[levels[v]] <= 2
                            ):
                                visit_f[v] = cf
                                dist_f[v] = nd
                                parent_f[v] = chain  # runs u .. v
                                heappush(heap_f, (nd, v))
                else:
                    if best <= top_b:
                        break
                    d, u = heappop(heap_b)
                    if d > dist_b[u]:
                        continue
                    if visit_f[u] == cf and d + dist_f[u] < best:
                        best = d + dist_f[u]
                        best_node = u
                    if stall and self._stalled(u, d, dist_b, visit_b, cb, up_out):
                        continue
                    jump = None if jumps_b is None else jumps_b[u]
                    if jump is None:
                        for v, w, _mid in up_in[u]:
                            nd = d + w
                            if (visit_b[v] != cb or nd < dist_b[v]) and (
                                not proximity
                                or -2 <= cell_x[v] - tx[levels[v]] <= 2
                                and -2 <= cell_y[v] - ty[levels[v]] <= 2
                            ):
                                visit_b[v] = cb
                                dist_b[v] = nd
                                parent_b[v] = u
                                heappush(heap_b, (nd, v))
                    else:
                        for v, w, chain in jump:
                            nd = d + w
                            if (visit_b[v] != cb or nd < dist_b[v]) and (
                                not proximity
                                or -2 <= cell_x[v] - tx[levels[v]] <= 2
                                and -2 <= cell_y[v] - ty[levels[v]] <= 2
                            ):
                                visit_b[v] = cb
                                dist_b[v] = nd
                                parent_b[v] = chain  # runs v .. u
                                heappush(heap_b, (nd, v))
            if best_node is None:
                return INF, None
            if not want_parents:
                return best, []
            packed: List[int] = []
            x = best_node
            while x != source:
                p = parent_f[x]
                if isinstance(p, tuple):
                    packed.extend(p[:0:-1])
                    x = p[0]
                else:
                    packed.append(x)
                    x = p
            packed.append(source)
            packed.reverse()
            x = best_node
            while x != target:
                p = parent_b[x]
                if isinstance(p, tuple):
                    packed.extend(p[1:])
                    x = p[-1]
                else:
                    packed.append(p)
                    x = p
            return best, packed
        finally:
            release(graph, ws_b)
            release(graph, ws_f)

    @staticmethod
    def _stalled(
        u: int,
        d: float,
        dist: List[float],
        visit: List[int],
        c: int,
        reverse_adj: List[List[Tuple[int, float, Optional[int]]]],
    ) -> bool:
        for v, w, _ in reverse_adj[u]:
            if visit[v] == c and dist[v] + w < d:
                return True
        return False

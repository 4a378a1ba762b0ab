"""Contraction Hierarchies (Geisberger et al., WEA 2008) — reference [11].

CH is the paper's strongest practical competitor ("the state-of-the-art
heuristic method").  This is a complete reimplementation:

* **Ordering** — nodes are contracted in ascending importance, where the
  importance of ``u`` is ``edge_difference(u) + deleted_neighbours(u)``;
  priorities are maintained lazily (re-evaluate on pop, reinsert if no
  longer minimal), the classic implementation strategy.
* **Contraction** — when ``u`` is removed, a shortcut ``a -> b`` with
  weight ``w(a,u) + w(u,b)`` is added for every in/out neighbour pair
  unless a *witness search* (a truncated Dijkstra in the remaining graph
  that avoids ``u``) proves a path no longer than the shortcut exists.
  Truncation can only add unnecessary shortcuts, never lose correctness.
* **Query** — bidirectional Dijkstra restricted to upward edges (toward
  higher contraction ranks), with optional stall-on-demand pruning.
* **Unpacking** — every shortcut stores its middle node, so a packed path
  expands to the original-graph path in time linear in its length.

The same engine is reused by AH (Section 4 of the paper) with a different
— grid-derived — node order plus extra query constraints; see
:mod:`repro.core.ah`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.graph import Graph
from ..graph.path import Path
from ..graph.workspace import SearchWorkspace, acquire, release
from .base import QueryEngine

__all__ = ["CHEngine", "contract_graph", "unpack_shortcuts", "ContractionResult"]

INF = float("inf")


def unpack_shortcuts(middle: Dict[Tuple[int, int], int], packed: List[int]) -> List[int]:
    """Expand a packed node sequence via shortcut middles (iterative).

    ``packed`` lists consecutive CH-graph edges ``(a, b)``; every pair
    with an entry in ``middle`` splits into ``(a, mid), (mid, b)`` until
    only original edges remain.  Called by the CH and HL engines and by
    AH's pure tier; it is the reference for the unpacking inside
    :func:`repro.native.ah_query`.
    """
    nodes: List[int] = [packed[0]]
    stack: List[Tuple[int, int]] = [
        (packed[i], packed[i + 1]) for i in range(len(packed) - 2, -1, -1)
    ]
    while stack:
        a, b = stack.pop()
        mid = middle.get((a, b))
        if mid is None:
            nodes.append(b)
        else:
            stack.append((mid, b))
            stack.append((a, mid))
    return nodes


class ContractionResult:
    """Artifacts of a contraction run shared by CH and AH.

    Attributes
    ----------
    rank:
        ``rank[u]`` is the contraction position of node ``u`` (0 first).
    up_out:
        ``up_out[u]`` lists ``(v, w, middle)`` for upward edges
        ``u -> v`` with ``rank[v] > rank[u]``; ``middle`` is ``None``
        for original edges, otherwise the bypassed node.
    up_in:
        ``up_in[u]`` lists ``(v, w, middle)`` for edges ``v -> u`` with
        ``rank[v] > rank[u]`` (the backward search's upward adjacency).
    middle:
        ``middle[(a, b)]`` is the bypassed node of shortcut ``a -> b``
        (absent for original edges); used to unpack packed paths.
    shortcut_count:
        Number of shortcut edges added on top of the original graph.
    """

    __slots__ = ("rank", "up_out", "up_in", "middle", "shortcut_count")

    def __init__(
        self,
        rank: List[int],
        up_out: List[List[Tuple[int, float, Optional[int]]]],
        up_in: List[List[Tuple[int, float, Optional[int]]]],
        middle: Dict[Tuple[int, int], int],
        shortcut_count: int,
    ) -> None:
        self.rank = rank
        self.up_out = up_out
        self.up_in = up_in
        self.middle = middle
        self.shortcut_count = shortcut_count


def _edge_difference(
    u: int,
    fwd: Dict[int, Dict[int, float]],
    bwd: Dict[int, Dict[int, float]],
    hop_limit: int,
    settle_limit: int,
    ws: SearchWorkspace,
) -> Tuple[int, List[Tuple[int, int, float]]]:
    """Simulate contracting ``u``; return (needed shortcuts, their list)."""
    shortcuts: List[Tuple[int, int, float]] = []
    in_nbrs = bwd[u]
    out_nbrs = fwd[u]
    if not in_nbrs or not out_nbrs:
        return -len(in_nbrs) - len(out_nbrs), shortcuts
    for a, w_au in in_nbrs.items():
        max_w = max(w_au + w_ub for w_ub in out_nbrs.values())
        witness = _witness_distances(
            a, u, fwd, max_w, settle_limit, hop_limit, ws
        )
        for b, w_ub in out_nbrs.items():
            if b == a:
                continue
            via = w_au + w_ub
            if witness.get(b, INF) > via:
                shortcuts.append((a, b, via))
    return len(shortcuts) - len(in_nbrs) - len(out_nbrs), shortcuts


def _witness_distances(
    source: int,
    skip: int,
    fwd: Dict[int, Dict[int, float]],
    cutoff: float,
    settle_limit: int,
    hop_limit: int,
    ws: SearchWorkspace,
) -> Dict[int, float]:
    """Truncated Dijkstra from ``source`` avoiding ``skip``.

    Searches only the remaining (uncontracted) graph ``fwd``; stops after
    ``settle_limit`` settled nodes, ``hop_limit`` hops, or ``cutoff``
    distance.  Distances it fails to tighten simply lead to extra (still
    correct) shortcuts.

    Labels live in the shared workspace (``ws.parent`` doubles as the hop
    counter — witness searches never need parents); only the ≤
    ``settle_limit`` settled nodes materialise into the returned dict.
    """
    c = ws.begin()
    dist = ws.dist
    visit = ws.visit
    hops = ws.parent
    dist[source] = 0.0
    visit[source] = c
    hops[source] = 0
    settled: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    budget = settle_limit
    while heap and budget > 0:
        d, x = heappop(heap)
        if d > dist[x]:
            continue  # stale entry (pushes are strictly improving)
        if d > cutoff:
            break
        settled[x] = d
        budget -= 1
        hx = hops[x]
        if hx >= hop_limit:
            continue
        for y, w in fwd[x].items():
            if y == skip:
                continue
            nd = d + w
            if visit[y] != c:
                visit[y] = c
                dist[y] = nd
                hops[y] = hx + 1
                heappush(heap, (nd, y))
            elif nd < dist[y]:
                dist[y] = nd
                hops[y] = hx + 1
                heappush(heap, (nd, y))
    return settled


def contract_graph(
    graph: Graph,
    order: Optional[Sequence[int]] = None,
    hop_limit: int = 8,
    settle_limit: int = 64,
) -> ContractionResult:
    """Contract all nodes; return the upward search structures.

    Parameters
    ----------
    order:
        Explicit contraction order (AH passes its grid-derived rank
        order here).  ``None`` selects the order on the fly with the
        lazy edge-difference heuristic (classic CH).
    hop_limit, settle_limit:
        Witness-search truncation knobs; larger values mean fewer
        redundant shortcuts but slower preprocessing.
    """
    n = graph.n
    # Dynamic adjacency over uncontracted nodes; dict-of-dict supports the
    # delete-heavy access pattern of contraction.
    fwd: Dict[int, Dict[int, float]] = {u: {} for u in range(n)}
    bwd: Dict[int, Dict[int, float]] = {u: {} for u in range(n)}
    middle: Dict[Tuple[int, int], int] = {}
    for u, v, w in graph.edges():
        old = fwd[u].get(v)
        if old is None or w < old:
            fwd[u][v] = w
            bwd[v][u] = w

    rank = [0] * n
    up_out: List[List[Tuple[int, float, Optional[int]]]] = [[] for _ in range(n)]
    up_in: List[List[Tuple[int, float, Optional[int]]]] = [[] for _ in range(n)]
    deleted_neighbours = [0] * n
    shortcut_count = 0
    # One workspace serves every witness search of the whole contraction.
    ws = acquire(graph)
    try:
        if order is None:
            heap: List[Tuple[float, int]] = []
            for u in range(n):
                diff, _ = _edge_difference(u, fwd, bwd, hop_limit, settle_limit, ws)
                heap.append((float(diff), u))
            heapify(heap)
        else:
            if sorted(order) != list(range(n)):
                raise ValueError("order must be a permutation of all node ids")
            heap = []

        explicit = iter(order) if order is not None else None
        position = 0
        contracted = bytearray(n)
        while position < n:
            if explicit is not None:
                u = next(explicit)
                shortcuts = _edge_difference(
                    u, fwd, bwd, hop_limit, settle_limit, ws
                )[1]
            else:
                # Lazy pop: re-evaluate the candidate; reinsert unless
                # still best.
                while True:
                    prio, u = heappop(heap)
                    if contracted[u]:
                        continue
                    diff, shortcuts = _edge_difference(
                        u, fwd, bwd, hop_limit, settle_limit, ws
                    )
                    new_prio = float(diff + deleted_neighbours[u])
                    if not heap or new_prio <= heap[0][0]:
                        break
                    heappush(heap, (new_prio, u))
            rank[u] = position
            position += 1
            contracted[u] = 1
            # Freeze u's current adjacency as its upward edges.
            for v, w in fwd[u].items():
                up_out[u].append((v, w, middle.get((u, v))))
                deleted_neighbours[v] += 1
            for v, w in bwd[u].items():
                up_in[u].append((v, w, middle.get((v, u))))
                deleted_neighbours[v] += 1
            # Remove u from the dynamic graph.
            for v in fwd[u]:
                del bwd[v][u]
            for v in bwd[u]:
                del fwd[v][u]
            del fwd[u], bwd[u]
            # Materialise the surviving shortcuts.
            for a, b, w in shortcuts:
                old = fwd[a].get(b)
                if old is None or w < old:
                    fwd[a][b] = w
                    bwd[b][a] = w
                    middle[(a, b)] = u
                    if old is None:
                        shortcut_count += 1
    finally:
        release(graph, ws)
    return ContractionResult(rank, up_out, up_in, middle, shortcut_count)


class CHEngine(QueryEngine):
    """Contraction Hierarchies query engine."""

    name = "CH"

    def __init__(
        self,
        graph: Graph,
        order: Optional[Sequence[int]] = None,
        stall_on_demand: bool = True,
        hop_limit: int = 8,
        settle_limit: int = 64,
    ) -> None:
        super().__init__(graph)
        self.stall_on_demand = stall_on_demand
        self._res = contract_graph(
            graph, order=order, hop_limit=hop_limit, settle_limit=settle_limit
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Original upward edges + shortcuts, both directions."""
        res = self._res
        return sum(len(adj) for adj in res.up_out) + sum(len(adj) for adj in res.up_in)

    @property
    def shortcut_count(self) -> int:
        """Number of shortcuts added by contraction."""
        return self._res.shortcut_count

    @property
    def rank(self) -> List[int]:
        """Contraction rank per node (higher = more important)."""
        return self._res.rank

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        """Bidirectional upward search distance."""
        d, _ = self._query(source, target, want_parents=False)
        return d

    def shortest_path(self, source: int, target: int) -> Optional[Path]:
        """Bidirectional upward search + shortcut unpacking."""
        d, packed = self._query(source, target, want_parents=True)
        if packed is None:
            return None
        nodes = self._unpack(packed)
        return Path(tuple(nodes), d)

    def _unpack(self, packed: List[int]) -> List[int]:
        """Expand shortcuts via middle nodes (iterative, stack-based)."""
        return unpack_shortcuts(self._res.middle, packed)

    def _query(
        self, source: int, target: int, want_parents: bool
    ) -> Tuple[float, Optional[List[int]]]:
        """Bidirectional upward search over the two workspace halves.

        Returns ``(distance, packed path)`` — the packed path is the node
        sequence through the meeting point, shortcuts not yet expanded —
        or ``(inf, None)``.  With ``want_parents=False`` the packed path
        of a reachable pair is ``[]`` (only the distance was tracked).
        """
        source, target = self._check_pair(source, target)
        if source == target:
            return 0.0, [source]
        res = self._res
        up_out, up_in = res.up_out, res.up_in
        stall = self.stall_on_demand
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
                    if stall and self._stalled(u, d, dist_f, visit_f, cf, up_in):
                        continue
                    for v, w, _ in up_out[u]:
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
                    if stall and self._stalled(u, d, dist_b, visit_b, cb, up_out):
                        continue
                    for v, w, _ in up_in[u]:
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
                return best, []
            packed: List[int] = [best_node]
            u = best_node
            while u != source:
                u = parent_f[u]
                packed.append(u)
            packed.reverse()
            u = best_node
            while u != target:
                u = parent_b[u]
                packed.append(u)
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
        """Stall-on-demand: if a higher-ranked, already-labelled node can
        reach ``u`` more cheaply than ``d``, expanding ``u`` is pointless
        (any shortest path through ``u`` would descend then re-ascend)."""
        for v, w, _ in reverse_adj[u]:
            if visit[v] == c and dist[v] + w < d:
                return True
        return False

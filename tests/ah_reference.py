"""Reference AH query: the search loop as it stood before the per-node
query tables, kept verbatim so the table-driven ``AHIndex._query`` can be
held to it answer for answer.

``reference_query`` is the old ``AHIndex._query`` lifted to a module
function (``self`` is the index); ``reference_distance`` and
``reference_path`` are the old ``distance``/``shortest_path`` around it.
It reads the index's elevating dicts, levels and grid directly and none
of the derived tables, so a table that disagrees with them shows up as
a different answer.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.baselines.ch import unpack_shortcuts
from repro.graph.path import Path
from repro.graph.workspace import acquire, release

INF = float("inf")

# parent entry: (predecessor, packed chain from predecessor to node)
_Parent = Tuple[int, Tuple[int, ...]]


def reference_distance(index, source: int, target: int) -> float:
    d, _ = reference_query(index, source, target, want_parents=False)
    return d


def reference_path(index, source: int, target: int) -> Optional[Path]:
    d, meet = reference_query(index, source, target, want_parents=True)
    if meet is None:
        return None
    node, parent_f, parent_b = meet
    packed: List[int] = []
    segments: List[Tuple[int, ...]] = []
    x = node
    while x != source:
        pred, chain = parent_f[x]
        segments.append(chain)
        x = pred
    packed.append(source)
    for chain in reversed(segments):
        packed.extend(chain[1:])
    x = node
    while x != target:
        nxt, chain = parent_b[x]
        packed.extend(chain[1:])
        x = nxt
    nodes = unpack_shortcuts(index._res.middle, packed)
    return Path(tuple(nodes), d)


def reference_query(
    self, source: int, target: int, want_parents: bool
) -> Tuple[float, Optional[Tuple[int, Dict[int, _Parent], Dict[int, _Parent]]]]:
    if source == target:
        return 0.0, (source, {}, {})
    res = self._res
    up_out, up_in = res.up_out, res.up_in
    levels = self.levels
    node_grid = self.node_grid
    h = self.h
    proximity = self.proximity
    stall = self.stall_on_demand
    j_sep = (
        node_grid.coarsest_separating_level(source, target)
        if self.use_elevating
        else 0
    )

    graph = self.graph
    ws_f = acquire(graph)
    ws_b = acquire(graph)
    cf = ws_f.begin()
    cb = ws_b.begin()
    dist_f = ws_f.dist
    dist_b = ws_b.dist
    visit_f = ws_f.visit
    visit_b = ws_b.visit
    parent_f: Dict[int, _Parent] = {}
    parent_b: Dict[int, _Parent] = {}
    dist_f[source] = 0.0
    visit_f[source] = cf
    dist_b[target] = 0.0
    visit_b[target] = cb
    heap_f: List[Tuple[float, int]] = [(0.0, source)]
    heap_b: List[Tuple[float, int]] = [(0.0, target)]
    best = INF
    best_node: Optional[int] = None
    # Inlined proximity test: node v at level i must share a 3x3-cell
    # region of R_{i+1} with the anchor, i.e. the cell Chebyshev
    # distance at shift i is <= 2.  Anchor cells are precomputed per
    # level so the hot loop is pure integer arithmetic.
    fx = node_grid._fx
    fy = node_grid._fy
    if proximity:
        src_cx = [fx[source] >> i for i in range(h)]
        src_cy = [fy[source] >> i for i in range(h)]
        tgt_cx = [fx[target] >> i for i in range(h)]
        tgt_cy = [fy[target] >> i for i in range(h)]

    def allowed_f(v: int) -> bool:
        lv = levels[v]
        if lv >= h:
            return True
        return (
            -2 <= (fx[v] >> lv) - src_cx[lv] <= 2
            and -2 <= (fy[v] >> lv) - src_cy[lv] <= 2
        )

    def allowed_b(v: int) -> bool:
        lv = levels[v]
        if lv >= h:
            return True
        return (
            -2 <= (fx[v] >> lv) - tgt_cx[lv] <= 2
            and -2 <= (fy[v] >> lv) - tgt_cy[lv] <= 2
        )

    try:
        while heap_f or heap_b:
            top_f = heap_f[0][0] if heap_f else INF
            top_b = heap_b[0][0] if heap_b else INF
            if best <= min(top_f, top_b):
                break
            forward = top_f <= top_b
            if forward:
                d, u = heappop(heap_f)
                if d > dist_f[u]:
                    continue
                if visit_b[u] == cb and d + dist_b[u] < best:
                    best = d + dist_b[u]
                    best_node = u
                if stall and self._stalled(u, d, dist_f, visit_f, cf, up_in):
                    continue
                jumped = False
                if j_sep and levels[u] < j_sep:
                    per_level = self._elev_f.get(u)
                    if per_level:
                        jj = max((k for k in per_level if k <= j_sep), default=None)
                        if jj is not None and jj > levels[u]:
                            jumped = True
                            for v, w, chain in per_level[jj]:
                                nd = d + w
                                if (
                                    visit_f[v] != cf or nd < dist_f[v]
                                ) and (not proximity or allowed_f(v)):
                                    visit_f[v] = cf
                                    dist_f[v] = nd
                                    if want_parents:
                                        parent_f[v] = (u, chain)
                                    heappush(heap_f, (nd, v))
                if not jumped:
                    for v, w, _mid in up_out[u]:
                        nd = d + w
                        if visit_f[v] != cf:
                            if not proximity or allowed_f(v):
                                visit_f[v] = cf
                                dist_f[v] = nd
                                if want_parents:
                                    parent_f[v] = (u, (u, v))
                                heappush(heap_f, (nd, v))
                        elif nd < dist_f[v]:
                            if not proximity or allowed_f(v):
                                dist_f[v] = nd
                                if want_parents:
                                    parent_f[v] = (u, (u, v))
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
                jumped = False
                if j_sep and levels[u] < j_sep:
                    per_level = self._elev_b.get(u)
                    if per_level:
                        jj = max((k for k in per_level if k <= j_sep), default=None)
                        if jj is not None and jj > levels[u]:
                            jumped = True
                            for v, w, chain in per_level[jj]:
                                nd = d + w
                                if (
                                    visit_b[v] != cb or nd < dist_b[v]
                                ) and (not proximity or allowed_b(v)):
                                    visit_b[v] = cb
                                    dist_b[v] = nd
                                    if want_parents:
                                        # chain runs v .. u in graph order
                                        parent_b[v] = (u, chain)
                                    heappush(heap_b, (nd, v))
                if not jumped:
                    for v, w, _mid in up_in[u]:
                        nd = d + w
                        if visit_b[v] != cb:
                            if not proximity or allowed_b(v):
                                visit_b[v] = cb
                                dist_b[v] = nd
                                if want_parents:
                                    parent_b[v] = (u, (v, u))
                                heappush(heap_b, (nd, v))
                        elif nd < dist_b[v]:
                            if not proximity or allowed_b(v):
                                dist_b[v] = nd
                                if want_parents:
                                    parent_b[v] = (u, (v, u))
                                heappush(heap_b, (nd, v))
    finally:
        release(graph, ws_b)
        release(graph, ws_f)
    if best_node is None:
        return INF, None
    return best, (best_node, parent_f, parent_b)

"""Spanning paths, arterial edges and the arterial dimension (Section 2).

Given a 4x4-cell region ``B`` of grid ``R_i``:

* a *local path* in ``B`` has at most one edge intersecting ``B``'s
  boundary;
* a *spanning path* is a local shortest path whose endpoints lie on
  different sides of one of ``B``'s bisectors, with neither endpoint in a
  cell adjacent to that bisector (Definition 1);
* an *arterial edge* of ``B`` is an edge of a spanning path that
  intersects the bisector.

Assumption 1 (the arterial dimension) bounds the number of arterial edges
per region by a constant λ; Figure 3 measures it empirically, and
:func:`arterial_dimension_stats` reproduces that measurement.

Implementation notes
--------------------
The computation is exact over the following path-shape family: interior
nodes strictly inside ``B``; at most one endpoint may sit outside ``B``,
reached by the path's single boundary-crossing edge; and single edges that
fly over the bisector directly.  The SlidingWindow argument (Appendix B /
our :mod:`repro.core.sliding_window`) shows every shortest path that spans
a region contains a sub-path of exactly this shape, so marking arterial
edges within the family preserves the covering property that the FC/AH
level assignment — and therefore query pruning — relies on.

Ties are handled *inclusively*: an edge is marked when it lies on **any**
minimum-length spanning path, not just one canonical path, so correctness
never depends on the weight-perturbation of Appendix A (which is still
provided in :mod:`repro.core.perturb` for faithfulness).

Each region is extracted once into a :class:`_RegionGraph`: its usable
edges as flat lists over dense local ids, with the endpoints and crossing
edges of both bisectors.  Both axes of :func:`_arterial_marks` and the AH
shortcut pass (:mod:`repro.core.hierarchy`) search that one graph, and
each search runs at most once per region, endpoint and direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import backend
from .. import native as _native
from ..graph.graph import Graph
from ..spatial.grid import GridPyramid, NodeGrid
from ..spatial.regions import Region, nonempty_regions

__all__ = [
    "region_arterial_edges",
    "arterial_dimension_stats",
    "ArterialStats",
    "RegionTooLargeError",
]

INF = float("inf")
_REL_EPS = 1e-9


class RegionTooLargeError(ValueError):
    """Raised when a region holds more nodes than the caller's cap.

    Exact arterial computation inside a region costs roughly
    ``O(|endpoints| * |region| log |region|)``; the cap keeps the exact
    sweep usable (the paper's FC has the same scaling limitation, which
    is AH's entire raison d'être).
    """


# ----------------------------------------------------------------------
# Geometry helpers for one region/axis
# ----------------------------------------------------------------------
def _axis_info(region: Region, pyramid: GridPyramid, axis: str):
    """Return (bisector position, lo, hi, coordinate picker, cross picker).

    For the vertical bisector the *position* is an x value and the
    bisector segment spans ``[lo, hi]`` in y; picker functions extract the
    along-axis / cross-axis coordinate from an ``(x, y)`` pair.
    """
    x0, y0, x1, y1 = region.bounds(pyramid)
    if axis == "vertical":
        return region.vertical_bisector_x(pyramid), y0, y1, 0, 1
    return region.horizontal_bisector_y(pyramid), x0, x1, 1, 0


def _segment_crosses_bisector(
    ax: float,
    ay: float,
    bx: float,
    by: float,
    pos: float,
    lo: float,
    hi: float,
    main: int,
    cross: int,
) -> bool:
    """Does segment a-b cross the bisector *segment* (not the full line)?

    ``main`` selects the coordinate compared against ``pos`` (x for the
    vertical bisector); ``cross`` the coordinate compared against the
    ``[lo, hi]`` extent.
    """
    a = (ax, ay)
    b = (bx, by)
    da = a[main] - pos
    db = b[main] - pos
    if da * db > 0:
        return False
    if da == db:  # degenerate: edge parallel and on the line
        return lo <= a[cross] <= hi or lo <= b[cross] <= hi
    t = da / (da - db)
    c = a[cross] + t * (b[cross] - a[cross])
    return lo <= c <= hi


def _column_of(region: Region, cell: Tuple[int, int], axis: str) -> int:
    """Cell offset along the bisector-splitting axis relative to ``rx``."""
    if axis == "vertical":
        return cell[0] - region.rx
    return cell[1] - region.ry


def _offset_side(offset: int) -> Optional[int]:
    """-1 / +1 for a *valid* spanning endpoint column (or row) offset from
    the region's corner; None next to the bisector (offsets 1 and 2)."""
    if offset in (1, 2):
        return None
    return -1 if offset <= 1 else 1


def _endpoint_side(region: Region, cell: Tuple[int, int], axis: str) -> Optional[int]:
    """-1 / +1 for a *valid* spanning endpoint cell; None when the cell is
    adjacent to the bisector (columns 1 and 2 in region offsets)."""
    return _offset_side(_column_of(region, cell, axis))


# Strip bits of a cell: the region's west and east columns, south and
# north rows (Definition 2's strips, one per bisector side).
_WEST, _EAST, _SOUTH, _NORTH = 1, 2, 4, 8


def _place(col: int, row: int) -> Tuple[int, int, int]:
    """``(col, row, strip bits)`` of a cell at region offset ``(col, row)``."""
    strips = 0
    if 0 <= row <= 3:
        if col == 0:
            strips |= _WEST
        elif col == 3:
            strips |= _EAST
    if 0 <= col <= 3:
        if row == 0:
            strips |= _SOUTH
        elif row == 3:
            strips |= _NORTH
    return col, row, strips


# ----------------------------------------------------------------------
# One region's local graph, extracted once
# ----------------------------------------------------------------------
class _Axis:
    """One bisector's view of a region graph.

    ``low`` / ``high`` are the inside endpoints ``(node, local id)`` on
    side -1 / +1: strip nodes with an edge leaving their strip, i.e.
    genuine Definition-2 border nodes.  This loses no arterial edges: any
    spanning path can be trimmed to the last in-strip node before / first
    after its crossing edge, both of which have strip-leaving edges, and
    the trimmed path is still a local shortest spanning path containing
    the same crossing edge.  ``side`` maps each outside node that is a
    valid endpoint to its side.  ``crossing`` lists the edges
    ``(a, b, w, ia, ib)`` whose segment crosses the bisector segment, with
    ``ia`` / ``ib`` the local ids of inside endpoints and -1 for outside
    ones.
    """

    __slots__ = ("low", "high", "side", "crossing")

    def __init__(self) -> None:
        self.low: List[Tuple[int, int]] = []
        self.high: List[Tuple[int, int]] = []
        self.side: Dict[int, int] = {}
        self.crossing: List[Tuple[int, int, float, int, int]] = []


class _RegionGraph:
    """A region's usable edges over dense local ids, read by every search.

    ``nodes[i]`` is the node with local id ``i`` (the inside nodes in the
    caller's order) and ``local`` the inverse map.  ``out`` / ``inn`` hold
    the inside-to-inside edges per local id, forward and backward.
    ``enter[f]`` lists ``(x, w)`` for every edge ``f -> x`` from an outside
    node ``f``, usable only as a path's first edge; ``exit[v]`` lists
    ``(x, w)`` for every edge ``x -> v`` to an outside node, usable only as
    a path's last edge.  ``axes`` are the vertical and horizontal
    :class:`_Axis`.
    """

    __slots__ = ("nodes", "local", "out", "inn", "enter", "exit", "axes")

    def __init__(self, nodes, local, out, inn, enter, exit_, axes) -> None:
        self.nodes: Sequence[int] = nodes
        self.local: Dict[int, int] = local
        self.out: List[List[Tuple[int, float]]] = out
        self.inn: List[List[Tuple[int, float]]] = inn
        self.enter: Dict[int, List[Tuple[int, float]]] = enter
        self.exit: Dict[int, List[Tuple[int, float]]] = exit_
        self.axes: Tuple[_Axis, _Axis] = axes


def _region_graph(
    node_grid: NodeGrid,
    region: Region,
    inside: Sequence[int],
    out_of: Callable[[int], Iterable[Tuple[int, float]]],
    in_of: Callable[[int], Iterable[Tuple[int, float]]],
) -> _RegionGraph:
    """Extract ``region``'s local graph in one pass over its edges.

    ``out_of(u)`` / ``in_of(u)`` yield the usable ``(v, w)`` edges leaving
    / entering ``u``; the caller bakes in any coverage filtering.  Every
    edge with an inside endpoint is visited once: the out-edges of inside
    nodes, plus the in-edges that come from outside nodes.
    """
    graph = node_grid.graph
    xs, ys = graph.xs, graph.ys
    level, rx, ry = region.level, region.rx, region.ry
    cell_of = node_grid.cell_of
    vpos, vlo, vhi, vmain, vcross = _axis_info(region, node_grid.pyramid, "vertical")
    hpos, hlo, hhi, hmain, hcross = _axis_info(region, node_grid.pyramid, "horizontal")

    k = len(inside)
    local = {u: i for i, u in enumerate(inside)}
    where: Dict[int, Tuple[int, int, int]] = {}
    for u in inside:
        cx, cy = cell_of(level, u)
        where[u] = _place(cx - rx, cy - ry)
    out: List[List[Tuple[int, float]]] = [[] for _ in range(k)]
    inn: List[List[Tuple[int, float]]] = [[] for _ in range(k)]
    enter: Dict[int, List[Tuple[int, float]]] = {}
    exit_: Dict[int, List[Tuple[int, float]]] = {}
    edges: List[Tuple[int, int, float, int, int]] = []
    for i, u in enumerate(inside):
        for v, w in out_of(u):
            j = local.get(v, -1)
            if j >= 0:
                out[i].append((j, w))
                inn[j].append((i, w))
            else:
                exit_.setdefault(v, []).append((i, w))
            edges.append((u, v, w, i, j))
        for v, w in in_of(u):
            if v not in local:
                enter.setdefault(v, []).append((i, w))
                edges.append((v, u, w, -1, i))
    for v in (*enter, *exit_):
        if v not in where:
            cx, cy = cell_of(level, v)
            where[v] = _place(cx - rx, cy - ry)

    vertical, horizontal = _Axis(), _Axis()
    border = [0] * k
    for a, b, w, ia, ib in edges:
        ca, ra, sa = where[a]
        cb, rb, sb = where[b]
        if ia >= 0:
            border[ia] |= sa & ~sb
        if ib >= 0:
            border[ib] |= sb & ~sa
        # Cells a whole column (row) clear of the bisector on one side
        # hold only points strictly on that side: no crossing to test.
        if not (ca <= 0 and cb <= 0 or ca >= 3 and cb >= 3) and (
            _segment_crosses_bisector(
                xs[a], ys[a], xs[b], ys[b], vpos, vlo, vhi, vmain, vcross
            )
        ):
            vertical.crossing.append((a, b, w, ia, ib))
        if not (ra <= 0 and rb <= 0 or ra >= 3 and rb >= 3) and (
            _segment_crosses_bisector(
                xs[a], ys[a], xs[b], ys[b], hpos, hlo, hhi, hmain, hcross
            )
        ):
            horizontal.crossing.append((a, b, w, ia, ib))

    for i in sorted(range(k), key=inside.__getitem__):
        bits = border[i]
        if bits:
            u = inside[i]
            if bits & _WEST:
                vertical.low.append((u, i))
            if bits & _EAST:
                vertical.high.append((u, i))
            if bits & _SOUTH:
                horizontal.low.append((u, i))
            if bits & _NORTH:
                horizontal.high.append((u, i))
    for v in (*enter, *exit_):
        col, row, _ = where[v]
        side = _offset_side(col)
        if side is not None:
            vertical.side[v] = side
        side = _offset_side(row)
        if side is not None:
            horizontal.side[v] = side

    return _RegionGraph(inside, local, out, inn, enter, exit_, (vertical, horizontal))


# ----------------------------------------------------------------------
# The per-region solver (shared by the exact and the overlay variants)
# ----------------------------------------------------------------------
def _local_search(
    adj: List[List[Tuple[int, float]]],
    expand: Sequence[int],
    seeds: Iterable[Tuple[int, float]],
    free: int,
) -> List[float]:
    """Dijkstra over local adjacency ``adj`` from ``seeds``.

    Only nodes with ``expand[i]`` (the cores, in the paper's border
    condition: spanning-path interiors must be cores), and the source
    ``free``, relax their edges; every other reached node is a terminal.
    A terminal gets its distance but never enters the heap: it would only
    be popped to be skipped, and with non-negative weights no later
    relaxation can lower it.

    Under the native tier the same search runs as one C call
    (:func:`repro.native.local_search`) over the same rows; this loop is
    its fallback and reference, and both return ``==`` distances.
    """
    if backend.use_native():
        return list(_native.local_search(adj, expand, seeds, free))
    dist = [INF] * len(adj)
    heap: List[Tuple[float, int]] = []
    for i, d0 in seeds:
        if d0 < dist[i]:
            dist[i] = d0
            if expand[i] or i == free:
                heap.append((d0, i))
    heapify(heap)
    pop, push = heappop, heappush
    while heap:
        d, i = pop(heap)
        if d > dist[i]:
            continue
        for j, w in adj[i]:
            nd = d + w
            if nd < dist[j]:
                dist[j] = nd
                if expand[j]:
                    push(heap, (nd, j))
    return dist


def _arterial_marks(rg: _RegionGraph, expand: Sequence[int]) -> Set[Tuple[int, int]]:
    """All-ties arterial edges of both bisectors of one region.

    Sources are valid endpoints on either side (inside border nodes, plus
    outside nodes via their single entry edge); targets symmetric.  A
    crossing edge ``(a, b)`` is arterial when some valid pair ``(u, v)`` on
    opposite sides satisfies ``d_u(a) + w + d_v(b) == d_u(v)`` (a tied
    shortest spanning path through the edge).  A crossing edge with an
    outside endpoint is the path's entry or exit edge, so that endpoint
    must be ``u`` or ``v`` itself; so must a non-core inside endpoint.

    Each search runs at most once per region, endpoint and direction:
    both axes share them, and a backward search runs only when the
    marking loop first reads it.
    """
    found: Set[Tuple[int, int]] = set()
    local = rg.local
    fwd: Dict[int, List[float]] = {}
    bwd: Dict[int, List[float]] = {}

    def search(memo, adj, edges, u: int) -> List[float]:
        dist = memo.get(u)
        if dist is None:
            i = local.get(u)
            if i is None:
                dist = _local_search(adj, expand, edges[u], -1)
            else:
                dist = _local_search(adj, expand, ((i, 0.0),), i)
            memo[u] = dist
        return dist

    for axis in rg.axes:
        if not axis.crossing:
            continue
        # Targets per side: inside endpoints by local id, outside ones by
        # their exit edges.
        ends = {-1: axis.low, 1: axis.high}
        exits: Dict[int, List[Tuple[int, List[Tuple[int, float]]]]] = {-1: [], 1: []}
        for v, seeds in rg.exit.items():
            side = axis.side.get(v)
            if side is not None:
                exits[side].append((v, seeds))

        # Each source with its pairs' tie thresholds D(u, v) * (1 + eps),
        # read off the forward search: d_u(v) for inside targets, the best
        # exit for outside ones (an outside source's entry cost is already
        # in its seeds, and a path crosses the boundary at most once).
        sources: Dict[int, Tuple[List[float], Dict[int, float], float]] = {}
        candidates = [(u, side, True) for side in (-1, 1) for u, _ in ends[side]]
        candidates += [
            (f, axis.side[f], False) for f in rg.enter if f in axis.side
        ]
        for u, side, u_in in candidates:
            far_ends = ends[-side]
            far_exits = exits[-side] if u_in else ()
            if not far_ends and not far_exits:
                continue
            du = search(fwd, rg.out, rg.enter, u)
            pairs: Dict[int, float] = {}
            for v, seeds in far_exits:
                best = INF
                for x, w in seeds:
                    d = du[x] + w
                    if d < best:
                        best = d
                if best < INF:
                    pairs[v] = best * (1 + _REL_EPS) + 1e-15
            for v, j in far_ends:
                d = du[j]
                if d < INF:
                    pairs[v] = d * (1 + _REL_EPS) + 1e-15
            if pairs:
                sources[u] = (du, pairs, max(pairs.values()))

        for a, b, w, ia, ib in axis.crossing:
            if (a, b) in found:
                continue
            a_core = ia >= 0 and expand[ia]
            if a_core:
                cands = sources.items()
            elif a in sources:
                cands = ((a, sources[a]),)
            else:
                continue  # a would be a non-core interior node
            b_core = ib >= 0 and expand[ib]
            for u, (du, pairs, top) in cands:
                # Since d_v(b) >= 0, a source already past every tie
                # threshold of its pairs cannot tie on this edge.
                s = (du[ia] if a_core else 0.0) + w
                if s > top:
                    continue
                if not b_core:
                    thr = pairs.get(b)  # b must be the target itself
                    if thr is not None and s <= thr:
                        found.add((a, b))
                        break
                    continue
                tied = False
                for v, thr in pairs.items():
                    if s > thr:
                        continue
                    if v == b:
                        db = 0.0
                    else:
                        dv = bwd.get(v)
                        if dv is None:
                            dv = search(bwd, rg.inn, rg.exit, v)
                        db = dv[ib]
                    if s + db <= thr:
                        tied = True
                        break
                if tied:
                    found.add((a, b))
                    break
    return found


def region_arterial_edges(
    graph: Graph,
    node_grid: NodeGrid,
    region: Region,
    nodes: Optional[Sequence[int]] = None,
    max_region_nodes: Optional[int] = None,
    fly_edges: Optional[Sequence[Tuple[int, int, float]]] = None,
) -> Set[Tuple[int, int]]:
    """Exact arterial edges of one region (both bisectors, all ties).

    ``nodes`` restricts the interior to a subset (used on alive sets);
    ``max_region_nodes`` raises :class:`RegionTooLargeError` when the
    interior would exceed it.
    """
    if nodes is None:
        buckets = node_grid.buckets(region.level)
        inside: List[int] = []
        for dx in range(4):
            for dy in range(4):
                inside.extend(buckets.get((region.rx + dx, region.ry + dy), ()))
    else:
        inside = [
            u
            for u in nodes
            if region.contains_cell(node_grid.cell_of(region.level, u))
        ]
    if max_region_nodes is not None and len(inside) > max_region_nodes:
        raise RegionTooLargeError(
            f"region {region} holds {len(inside)} nodes (cap {max_region_nodes})"
        )
    rg = _region_graph(
        node_grid, region, inside, graph.out.__getitem__, graph.inn.__getitem__
    )
    marked = _arterial_marks(rg, b"\x01" * len(inside))
    if fly_edges is None:
        fly_edges = long_edges(graph, node_grid, region.level)
    marked |= _mark_fly_edges(graph, node_grid, region, fly_edges)
    return marked


def long_edges(
    graph: Graph, node_grid: NodeGrid, level: int
) -> List[Tuple[int, int, float]]:
    """Edges spanning >= 3 cells of ``R_level`` — the only edges able to
    fly over a 4x4 region without either endpoint being inside it.

    :func:`arterial_dimension_stats` precomputes this once per level and
    shares it across all regions of the sweep.
    """
    edges: List[Tuple[int, int, float]] = []
    cell_of = node_grid.cell_of
    for u, v, w in graph.edges():
        cu = cell_of(level, u)
        cv = cell_of(level, v)
        if max(abs(cu[0] - cv[0]), abs(cu[1] - cv[1])) >= 3:
            edges.append((u, v, w))
    return edges


def _mark_fly_edges(
    graph: Graph,
    node_grid: NodeGrid,
    region: Region,
    fly_edges: Sequence[Tuple[int, int, float]],
) -> Set[Tuple[int, int]]:
    """Single-edge spanning paths whose endpoints both lie outside ``B``.

    Such an edge crosses the region boundary twice — still one edge, so
    still a local path (Definition 1) — and is its own spanning path when
    it crosses a bisector between valid opposite-side endpoint columns.
    (When a shorter multi-hop local route exists between its endpoints
    the mark is conservative: harmless over-marking, see module docs.)
    """
    marked: Set[Tuple[int, int]] = set()
    if not fly_edges:
        return marked
    pyramid = node_grid.pyramid
    xs, ys = graph.xs, graph.ys
    level = region.level
    for axis in ("vertical", "horizontal"):
        pos, lo, hi, main, cross = _axis_info(region, pyramid, axis)
        for u, v, w in fly_edges:
            cu = node_grid.cell_of(level, u)
            cv = node_grid.cell_of(level, v)
            if region.contains_cell(cu) or region.contains_cell(cv):
                continue  # an inside endpoint was handled by the solver
            su = _endpoint_side(region, cu, axis)
            sv = _endpoint_side(region, cv, axis)
            if su is None or sv is None or su == sv:
                continue
            if _segment_crosses_bisector(
                xs[u], ys[u], xs[v], ys[v], pos, lo, hi, main, cross
            ):
                marked.add((u, v))
    return marked


# ----------------------------------------------------------------------
# Figure 3: arterial dimension statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArterialStats:
    """Arterial-edge count statistics for one grid resolution.

    Mirrors Figure 3's series: mean, 90% / 99% quantiles and max of the
    per-region arterial edge count over all non-empty 4x4 regions.
    """

    level: int
    resolution: int  # r such that the grid has 2^r cells per side
    regions: int
    skipped: int  # regions over the node cap (reported, not silently lost)
    mean: float
    q90: int
    q99: int
    max: int

    @staticmethod
    def from_counts(
        level: int, resolution: int, counts: Sequence[int], skipped: int
    ) -> "ArterialStats":
        """Aggregate raw per-region counts into the figure's statistics."""
        if not counts:
            return ArterialStats(level, resolution, 0, skipped, 0.0, 0, 0, 0)
        ordered = sorted(counts)
        k = len(ordered)

        def quantile(q: float) -> int:
            return ordered[min(k - 1, int(q * k))]

        return ArterialStats(
            level=level,
            resolution=resolution,
            regions=k,
            skipped=skipped,
            mean=sum(ordered) / k,
            q90=quantile(0.90),
            q99=quantile(0.99),
            max=ordered[-1],
        )


def arterial_dimension_stats(
    graph: Graph,
    pyramid: Optional[GridPyramid] = None,
    levels: Optional[Iterable[int]] = None,
    max_region_nodes: int = 4000,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[ArterialStats]:
    """Reproduce Figure 3: arterial-edge statistics per grid resolution.

    For each grid ``R_i`` (optionally restricted via ``levels``), sweeps
    every non-empty 4x4 region, computes its exact arterial edge count,
    and aggregates mean / 90% / 99% / max.  Regions whose interior
    exceeds ``max_region_nodes`` are skipped and counted in ``skipped``
    (the exact sweep is quadratic in region size — the very FC
    bottleneck the paper motivates AH with).
    """
    if pyramid is None:
        pyramid = GridPyramid.from_graph(graph)
    node_grid = NodeGrid(graph, pyramid)
    wanted = list(levels) if levels is not None else list(pyramid.levels())
    out: List[ArterialStats] = []
    for i in wanted:
        region_map = nonempty_regions(node_grid, i)
        counts: List[int] = []
        skipped = 0
        total = len(region_map)
        fly = long_edges(graph, node_grid, i)
        for done, region in enumerate(region_map):
            try:
                marked = region_arterial_edges(
                    graph,
                    node_grid,
                    region,
                    max_region_nodes=max_region_nodes,
                    fly_edges=fly,
                )
            except RegionTooLargeError:
                skipped += 1
                continue
            counts.append(len(marked))
            if progress is not None and done % 256 == 0:
                progress(done, total)
        out.append(
            ArterialStats.from_counts(i, pyramid.h + 2 - i, counts, skipped)
        )
    return out

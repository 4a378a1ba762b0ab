"""Reference level assignment: the region solver and ``assign_levels`` as
they stood before the per-region local graph, kept verbatim so the
rebuilt solver in ``repro.core.arterial`` / ``repro.core.hierarchy`` can
be held to them result for result.

``assign_levels``, ``exact_levels`` and ``region_arterial_edges`` here
are the old public functions; ``covered_adjacency`` is the old
``_Overlay.covered_adjacency`` lifted to a module function (``self`` is
the overlay).  The helpers both versions share (``_Overlay`` without that
method, ``_covered``, ``_border_nodes``, the bisector geometry and the
flying-edge sweep) are imported from ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.arterial import (
    RegionTooLargeError,
    _axis_info,
    _endpoint_side,
    _mark_fly_edges,
    _segment_crosses_bisector,
    long_edges,
)
from repro.core.hierarchy import (
    LevelAssignment,
    _border_nodes,
    _Box,
    _covered,
    _Overlay,
    _region_box,
    _region_inside,
)
from repro.graph.graph import Graph
from repro.spatial.grid import GridPyramid, NodeGrid
from repro.spatial.regions import Region, nonempty_regions, regions_covering_cell

INF = float("inf")
_REL_EPS = 1e-9


# ----------------------------------------------------------------------
# The per-region solver (shared by the exact and the overlay variants)
# ----------------------------------------------------------------------
def _local_dijkstra(
    seeds: Sequence[Tuple[int, float]],
    adj: Dict[int, List[Tuple[int, float]]],
    expandable: Optional[Set[int]] = None,
    seed_nodes: Optional[Set[int]] = None,
) -> Dict[int, float]:
    """Dijkstra restricted to the region's interior adjacency ``adj``.

    When ``expandable`` is given, settled nodes outside it are terminals:
    they receive a distance but are not relaxed through (the paper's
    border condition — spanning-path interiors must be cores).  Seed
    nodes themselves (``seed_nodes``) always expand: a path may *start*
    at a non-core endpoint.
    """
    dist: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = []
    for node, d0 in seeds:
        if d0 < dist.get(node, INF):
            dist[node] = d0
            heappush(heap, (d0, node))
    settled: Dict[int, float] = {}
    while heap:
        d, u = heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        if (
            expandable is not None
            and u not in expandable
            and (seed_nodes is None or u not in seed_nodes)
        ):
            continue
        for v, w in adj.get(u, ()):
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heappush(heap, (nd, v))
    return settled


@dataclass
class _RegionProblem:
    """One region/axis instance handed to :func:`_solve_region_axis`.

    Attributes
    ----------
    inside_out / inside_in:
        Interior adjacency (both directions) among inside nodes only.
    west_inside / east_inside:
        Valid spanning-path endpoint nodes inside the region per side
        (side -1 is "west"/"south", +1 is "east"/"north").
    enter_edges:
        ``(outside_node, inside_node, w)`` usable as a path's first edge.
    exit_edges:
        ``(inside_node, outside_node, w)`` usable as a path's last edge.
    outside_side:
        Side (+-1) of each referenced outside node, or ``None`` when the
        node sits in a bisector-adjacent column (invalid endpoint).
    crossing:
        Candidate arterial edges ``(a, b, w, a_inside, b_inside)`` whose
        segment crosses the bisector segment.
    expandable:
        When not ``None``, interior nodes the search may relax through
        (the cores of the current AH iteration); other nodes only
        terminate paths.
    """

    inside_out: Dict[int, List[Tuple[int, float]]]
    inside_in: Dict[int, List[Tuple[int, float]]]
    west_inside: List[int]
    east_inside: List[int]
    enter_edges: List[Tuple[int, int, float]]
    exit_edges: List[Tuple[int, int, float]]
    outside_side: Dict[int, Optional[int]]
    crossing: List[Tuple[int, int, float, bool, bool]]
    expandable: Optional[Set[int]] = None


def _solve_region_axis(problem: _RegionProblem) -> Set[Tuple[int, int]]:
    """Mark all-ties arterial edges for one region and one bisector.

    Sources are valid endpoints on either side (inside border nodes, plus
    outside nodes via their single entry edge); targets symmetric.  An
    inside-inside crossing edge ``(a, b)`` is arterial when some valid
    pair ``(u, v)`` on opposite sides satisfies
    ``d_u(a) + w + d_v(b) == d_u(v)`` (a tied shortest spanning path
    through the edge).  Crossing edges with an outside endpoint are the
    path's entry/exit edge and are checked against the other side's
    distances; fully-outside crossing edges between valid endpoint
    columns are marked directly (single-edge spanning paths).

    The solver maps the sub-problem onto dense local indices so the many
    tiny Dijkstras run over lists instead of dictionaries.
    """
    marked: Set[Tuple[int, int]] = set()
    if not problem.crossing:
        return marked
    expandable = problem.expandable

    # ---- local index over inside nodes --------------------------------
    ids: List[int] = list(problem.inside_out.keys())
    k = len(ids)
    idx: Dict[int, int] = {u: i for i, u in enumerate(ids)}
    out_local: List[List[Tuple[int, float]]] = [
        [(idx[v], w) for v, w in problem.inside_out[u]] for u in ids
    ]
    in_local: List[List[Tuple[int, float]]] = [
        [(idx[v], w) for v, w in problem.inside_in[u]] for u in ids
    ]
    if expandable is None:
        can_expand = [True] * k
    else:
        can_expand = [u in expandable for u in ids]

    def dij(
        seeds: List[Tuple[int, float]],
        adj: List[List[Tuple[int, float]]],
        free: int,
    ) -> List[float]:
        """List-based Dijkstra; ``free`` expands even if not a core."""
        dist = [INF] * k
        heap: List[Tuple[float, int]] = []
        for i, d0 in seeds:
            if d0 < dist[i]:
                dist[i] = d0
                heap.append((d0, i))
        heap.sort()
        done = [False] * k
        while heap:
            d, i = heappop(heap)
            if done[i]:
                continue
            done[i] = True
            if not can_expand[i] and i != free:
                continue
            for j, w in adj[i]:
                nd = d + w
                if nd < dist[j]:
                    dist[j] = nd
                    heappush(heap, (nd, j))
        for i in range(k):
            if not done[i]:
                dist[i] = INF
        return dist

    # ---- forward / backward sweeps from valid endpoints ---------------
    fwd: Dict[int, List[float]] = {}
    fwd_side: Dict[int, int] = {}
    for u in problem.west_inside:
        fwd[u] = dij([(idx[u], 0.0)], out_local, idx[u])
        fwd_side[u] = -1
    for u in problem.east_inside:
        fwd[u] = dij([(idx[u], 0.0)], out_local, idx[u])
        fwd_side[u] = 1
    enter_by_u: Dict[int, List[Tuple[int, float]]] = {}
    for u, x, w in problem.enter_edges:
        if problem.outside_side.get(u) is not None:
            enter_by_u.setdefault(u, []).append((idx[x], w))
    for u, seeds in enter_by_u.items():
        fwd[u] = dij(seeds, out_local, -1)
        fwd_side[u] = problem.outside_side[u]

    bwd: Dict[int, List[float]] = {}
    bwd_side: Dict[int, int] = {}
    for v in problem.west_inside:
        bwd[v] = dij([(idx[v], 0.0)], in_local, idx[v])
        bwd_side[v] = -1
    for v in problem.east_inside:
        bwd[v] = dij([(idx[v], 0.0)], in_local, idx[v])
        bwd_side[v] = 1
    exit_by_v: Dict[int, List[Tuple[int, float]]] = {}
    for x, v, w in problem.exit_edges:
        if problem.outside_side.get(v) is not None:
            exit_by_v.setdefault(v, []).append((idx[x], w))
    for v, seeds in exit_by_v.items():
        bwd[v] = dij(seeds, in_local, -1)
        bwd_side[v] = problem.outside_side[v]

    # ---- valid (u, v) pairs with their spanning distances --------------
    # D(u, v) is read off the forward sweep directly: d_u(v) for inside
    # targets, min over v's exit seeds for outside targets (an outside
    # source's entry cost is already folded into its sweep seeds).
    outside_src = set(enter_by_u)
    outside_tgt = set(exit_by_v)
    pairs: List[Tuple[int, int, float]] = []
    for u, du in fwd.items():
        su = fwd_side[u]
        u_out = u in outside_src
        for v, seeds in exit_by_v.items():
            if u == v or bwd_side[v] == su or u_out:
                continue  # same node, same side, or two crossings
            best = INF
            for i, w in seeds:
                d = du[i] + w
                if d < best:
                    best = d
            if best < INF:
                pairs.append((u, v, best))
        for v in bwd:
            if v in outside_tgt or u == v or bwd_side[v] == su:
                continue
            d = du[idx[v]]
            if d < INF:
                pairs.append((u, v, d))

    # ---- mark crossing edges on tied shortest spanning paths ----------
    for a, b, w, a_in, b_in in problem.crossing:
        key = (a, b)
        if key in marked:
            continue
        if not a_in and not b_in:
            sa = problem.outside_side.get(a)
            sb = problem.outside_side.get(b)
            # A single flying edge is its own spanning path when both
            # endpoints are valid and on opposite sides.
            if sa is not None and sb is not None and sa != sb:
                marked.add(key)
            continue
        ia = idx[a] if a_in else -1
        ib = idx[b] if b_in else -1
        a_core = a_in and can_expand[ia]
        b_core = b_in and can_expand[ib]
        for u, v, duv in pairs:
            if a_in:
                if not a_core and a != u:
                    continue  # a would be a non-core interior node
                da = fwd[u][ia]
            else:
                if u != a:
                    continue  # the edge must be the entry edge from u = a
                da = 0.0
            if da == INF:
                continue
            if b_in:
                if not b_core and b != v:
                    continue
                db = bwd[v][ib]
            else:
                if v != b:
                    continue
                db = 0.0
            if db == INF:
                continue
            total = da + w + db
            if total <= duv * (1 + _REL_EPS) + 1e-15:
                marked.add(key)
                break
    return marked


# ----------------------------------------------------------------------
# Shared single-pass extraction
# ----------------------------------------------------------------------
def _in_strip(region: Region, cell: Tuple[int, int], axis: str, side: int) -> bool:
    """Cell membership in the outer strip of ``side`` for ``axis``."""
    if axis == "vertical":
        col = region.rx if side == -1 else region.rx + 3
        return cell[0] == col and region.ry <= cell[1] < region.ry + 4
    row = region.ry if side == -1 else region.ry + 3
    return cell[1] == row and region.rx <= cell[0] < region.rx + 4


def build_region_problems(
    node_grid: NodeGrid,
    region: Region,
    inside: Sequence[int],
    adjacency,
    expandable: Optional[Set[int]] = None,
) -> List[_RegionProblem]:
    """Extract the vertical and horizontal sub-problems in one edge pass.

    ``adjacency(u)`` must yield ``(v, w, is_out)`` for every usable edge
    incident to ``u`` (``is_out`` True for ``u -> v``); the caller bakes
    in any coverage filtering.  Inside endpoints are restricted to strip
    nodes with an edge leaving their strip — genuine Definition-2 border
    nodes.  This loses no arterial edges: any spanning path can be
    trimmed to the last in-strip node before / first after its crossing
    edge, both of which have strip-leaving edges, and the trimmed path is
    still a local shortest spanning path containing the same crossing
    edge.
    """
    graph = node_grid.graph
    pyramid = node_grid.pyramid
    xs, ys = graph.xs, graph.ys
    level = region.level
    inside_set = set(inside)
    cell_of = node_grid.cell_of

    problems: List[_RegionProblem] = []
    axes_info = [
        ("vertical", *_axis_info(region, pyramid, "vertical")),
        ("horizontal", *_axis_info(region, pyramid, "horizontal")),
    ]

    inside_out: Dict[int, List[Tuple[int, float]]] = {u: [] for u in inside}
    inside_in: Dict[int, List[Tuple[int, float]]] = {u: [] for u in inside}
    enter_edges: List[Tuple[int, int, float]] = []
    exit_edges: List[Tuple[int, int, float]] = []
    outside_cell: Dict[int, Tuple[int, int]] = {}
    crossing: Dict[str, List[Tuple[int, int, float, bool, bool]]] = {
        "vertical": [],
        "horizontal": [],
    }
    # endpoint candidates per axis/side: inside strip nodes with an edge
    # leaving the strip.
    border: Dict[Tuple[str, int], Set[int]] = {
        ("vertical", -1): set(),
        ("vertical", 1): set(),
        ("horizontal", -1): set(),
        ("horizontal", 1): set(),
    }
    strip_of: Dict[int, List[Tuple[str, int]]] = {}
    for u in inside:
        cu = cell_of(level, u)
        memberships = []
        for axis in ("vertical", "horizontal"):
            side = _endpoint_side(region, cu, axis)
            if side is not None and _in_strip(region, cu, axis, side):
                memberships.append((axis, side))
        if memberships:
            strip_of[u] = memberships

    seen_pairs: Set[Tuple[int, int, bool]] = set()
    for u in inside:
        cu = cell_of(level, u)
        u_strips = strip_of.get(u, ())
        for v, w, is_out in adjacency(u):
            v_in = v in inside_set
            if v_in:
                cv = cell_of(level, v)
                if is_out:
                    inside_out[u].append((v, w))
                else:
                    inside_in[u].append((v, w))
            else:
                cv = outside_cell.get(v)
                if cv is None:
                    cv = cell_of(level, v)
                    outside_cell[v] = cv
                if is_out:
                    exit_edges.append((u, v, w))
                else:
                    enter_edges.append((v, u, w))
            for axis, side in u_strips:
                if not _in_strip(region, cv, axis, side):
                    border[(axis, side)].add(u)
            key = (u, v) if is_out else (v, u)
            dedup = (key[0], key[1], True)
            if dedup in seen_pairs:
                continue
            seen_pairs.add(dedup)
            a, b = key
            a_in = a in inside_set
            b_in = b in inside_set
            for axis, pos, lo, hi, main, cross_idx in axes_info:
                if _segment_crosses_bisector(
                    xs[a], ys[a], xs[b], ys[b], pos, lo, hi, main, cross_idx
                ):
                    crossing[axis].append((a, b, w, a_in, b_in))

    for axis, pos, lo, hi, main, cross_idx in axes_info:
        outside_side = {
            v: _endpoint_side(region, c, axis) for v, c in outside_cell.items()
        }
        problems.append(
            _RegionProblem(
                inside_out=inside_out,
                inside_in=inside_in,
                west_inside=sorted(border[(axis, -1)]),
                east_inside=sorted(border[(axis, 1)]),
                enter_edges=enter_edges,
                exit_edges=exit_edges,
                outside_side=outside_side,
                crossing=crossing[axis],
                expandable=expandable,
            )
        )
    return problems


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
    out_adj, in_adj = graph.out, graph.inn

    def adjacency(u: int):
        return [(v, w, True) for v, w in out_adj[u]] + [
            (v, w, False) for v, w in in_adj[u]
        ]

    marked: Set[Tuple[int, int]] = set()
    for problem in build_region_problems(node_grid, region, inside, adjacency):
        if problem.crossing:
            marked |= _solve_region_axis(problem)
    if fly_edges is None:
        fly_edges = long_edges(graph, node_grid, region.level)
    marked |= _mark_fly_edges(graph, node_grid, region, fly_edges)
    return marked


# ----------------------------------------------------------------------
# Exact variant (FC)
# ----------------------------------------------------------------------
def exact_levels(
    graph: Graph,
    pyramid: Optional[GridPyramid] = None,
    max_region_nodes: int = 20_000,
) -> LevelAssignment:
    """FC's level assignment: exact arterial edges on the full graph.

    Edge level = the coarsest grid where the edge is arterial for some
    region; node level = max level over incident edges (Section 3.1).
    """
    if pyramid is None:
        pyramid = GridPyramid.from_graph(graph)
    node_grid = NodeGrid(graph, pyramid)
    edge_level: Dict[Tuple[int, int], int] = {}
    pseudo: Dict[int, List[Tuple[int, int]]] = {i: [] for i in pyramid.levels()}
    for i in pyramid.levels():
        for region in nonempty_regions(node_grid, i):
            marked = region_arterial_edges(
                graph, node_grid, region, max_region_nodes=max_region_nodes
            )
            for e in marked:
                if edge_level.get(e, 0) < i:
                    edge_level[e] = i
    for e, lv in edge_level.items():
        pseudo[lv].append(e)
    levels = [0] * graph.n
    for (u, v), lv in edge_level.items():
        if levels[u] < lv:
            levels[u] = lv
        if levels[v] < lv:
            levels[v] = lv
    return LevelAssignment(
        levels=levels,
        h=pyramid.h,
        pyramid=pyramid,
        node_grid=node_grid,
        pseudo_arterial=pseudo,
    )


# ----------------------------------------------------------------------
# Incremental variant (AH)
# ----------------------------------------------------------------------
def covered_adjacency(self: _Overlay, rbox: _Box):
    """Adjacency callback honouring the coverage condition for the
    region with box ``rbox`` (see :func:`build_region_problems`)."""
    fwd, bwd = self.fwd, self.bwd
    x0, y0, x1, y1 = rbox

    def adjacency(u: int):
        edges = []
        for v, (w, gens) in fwd[u].items():
            if gens is None or _covered(gens, x0, y0, x1, y1):
                edges.append((v, w, True))
        for v, (w, gens) in bwd[u].items():
            if gens is None or _covered(gens, x0, y0, x1, y1):
                edges.append((v, w, False))
        return edges

    return adjacency


def _create_region_shortcuts(
    overlay: _Overlay,
    rbox: _Box,
    inside: Sequence[int],
    adj: Dict[int, List[Tuple[int, float]]],
    exit_edges: Sequence[Tuple[int, int, float]],
    enter_edges: Sequence[Tuple[int, int, float]],
    endpoint_set: Set[int],
    interior_ok: Set[int],
) -> None:
    """Add shortcuts for local shortest paths inside ``region``.

    Endpoints come from ``endpoint_set`` (new cores and border nodes,
    §4.2); interiors are restricted to ``interior_ok`` (alive nodes that
    were *not* promoted).  Fringe nodes one crossing-edge outside the
    region may serve as the far endpoint, never as interior.  The
    coverage-filtered adjacency ``adj`` and boundary edge lists are
    reused from the marking pass's extraction (identical region, box and
    filter).
    """
    if not any(u in interior_ok for u in inside):
        return  # every inside node survives: direct edges already suffice
    exits: Dict[int, List[Tuple[int, float]]] = {}
    for u, v, w in exit_edges:
        if v in endpoint_set:
            exits.setdefault(u, []).append((v, w))

    for u in inside:
        if u not in endpoint_set:
            continue
        dist = _local_dijkstra(
            [(u, 0.0)], adj, expandable=interior_ok, seed_nodes={u}
        )
        for x, d in dist.items():
            if x != u and x in endpoint_set:
                overlay.add_shortcut(u, x, d, rbox)
            # Reaching x then leaving by one crossing edge ends the path;
            # x is then interior, so it must be a permitted interior node
            # (or the source itself).
            if x == u or x in interior_ok:
                for v, w in exits.get(x, ()):
                    if v != u:
                        overlay.add_shortcut(u, v, d + w, rbox)

    # Paths entering from a fringe endpoint: group that endpoint's entry
    # edges and run one search per fringe node.
    entries: Dict[int, List[Tuple[int, float]]] = {}
    for f, u, w in enter_edges:
        if f in endpoint_set:
            entries.setdefault(f, []).append((u, w))
    for f, seeds in entries.items():
        dist = _local_dijkstra(seeds, adj, expandable=interior_ok)
        for x, d in dist.items():
            if x != f and x in endpoint_set:
                overlay.add_shortcut(f, x, d, rbox)


def assign_levels(
    graph: Graph,
    pyramid: Optional[GridPyramid] = None,
    collect_region_counts: bool = False,
    progress: Optional[Callable[[int, int, int], None]] = None,
) -> LevelAssignment:
    """AH's incremental level assignment (Section 4.2, Appendix D.1).

    Iterates grids fine-to-coarse; at iteration ``i`` it marks level-``i``
    cores as endpoints of pseudo-arterial edges found on the reduced
    graph, assigns the un-promoted cores their final level ``i-1``,
    bridges soon-to-drop nodes with region-tagged shortcuts, and shrinks
    the working graph to the new cores plus the border nodes of the next
    grid.

    ``progress(iteration, alive, regions)`` is called once per grid.
    """
    if pyramid is None:
        pyramid = GridPyramid.from_graph(graph)
    node_grid = NodeGrid(graph, pyramid)
    h = pyramid.h
    n = graph.n

    overlay = _Overlay(graph)
    levels = [0] * n
    cores: Set[int] = set(graph.nodes())
    alive: Set[int] = set(graph.nodes())
    pseudo: Dict[int, List[Tuple[int, int]]] = {i: [] for i in pyramid.levels()}
    region_counts: Optional[Dict[int, List[int]]] = (
        {i: [] for i in pyramid.levels()} if collect_region_counts else None
    )
    alive_history = [n]

    # Border sets are made cumulative from the coarse end so a node needed
    # as a border endpoint at any *future* grid is retained early enough.
    border_by_level: Dict[int, Set[int]] = {}
    cumulative: Set[int] = set()
    for i in range(h, 0, -1):
        cumulative = cumulative | _border_nodes(graph, node_grid, i, alive)
        border_by_level[i] = set(cumulative)

    for i in pyramid.levels():
        buckets = node_grid.buckets(i, alive)
        cells_per_side = pyramid.cells_per_side(i)
        regions: Set[Region] = set()
        for cell in buckets:
            regions.update(regions_covering_cell(cell, cells_per_side, i))

        # ---- pass 1: mark level-i cores via pseudo-arterial edges ----
        marked_edges: Set[Tuple[int, int]] = set()
        new_cores: Set[int] = set()
        extraction: Dict[Region, Tuple] = {}
        # Sorted: `regions` is a set, and this loop's order reaches the
        # extraction dict, region_counts and shortcut creation — answer
        # structure must not depend on hash order.
        for region in sorted(regions, key=lambda r: (r.level, r.rx, r.ry)):
            inside = _region_inside(node_grid, region, buckets)
            if not inside:
                continue
            rbox = _region_box(region)
            adjacency = covered_adjacency(overlay, rbox)
            found: Set[Tuple[int, int]] = set()
            problems = build_region_problems(
                node_grid, region, inside, adjacency, expandable=cores
            )
            first = problems[0]
            extraction[region] = (
                inside,
                rbox,
                first.inside_out,
                first.exit_edges,
                first.enter_edges,
            )
            for problem in problems:
                if problem.crossing and (
                    problem.west_inside
                    or problem.east_inside
                    or problem.enter_edges
                    or problem.exit_edges
                ):
                    found |= _solve_region_axis(problem)
            if region_counts is not None:
                region_counts[i].append(len(found))
            for a, b in sorted(found):
                marked_edges.add((a, b))
                new_cores.add(a)
                new_cores.add(b)
        # Only alive nodes can be promoted (fringe marks refer to alive
        # nodes by construction, but guard anyway).
        new_cores &= alive
        pseudo[i] = sorted(marked_edges)
        for u in sorted(new_cores):
            levels[u] = i

        # ---- pass 2: shortcuts bridging nodes about to be dropped ----
        next_border = border_by_level.get(i + 1, set())
        keep = (new_cores | (next_border & alive)) if i < h else set(new_cores)
        interior_ok = alive - new_cores
        endpoint_set = (new_cores | next_border) & alive
        for region, (inside, rbox, adj, exit_edges, enter_edges) in extraction.items():
            if len(inside) < 2:
                continue
            _create_region_shortcuts(
                overlay,
                rbox,
                inside,
                adj,
                exit_edges,
                enter_edges,
                endpoint_set,
                interior_ok,
            )

        dead = alive - keep
        overlay.drop_nodes(dead)
        cores = new_cores
        alive = keep
        alive_history.append(len(alive))
        if progress is not None:
            progress(i, len(alive), len(regions))
        if not alive:
            break

    return LevelAssignment(
        levels=levels,
        h=h,
        pyramid=pyramid,
        node_grid=node_grid,
        pseudo_arterial=pseudo,
        region_counts=region_counts,
        alive_history=alive_history,
        border_by_level=border_by_level,
    )

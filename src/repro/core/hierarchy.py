"""Node-level assignment: exact (FC, Section 3) and incremental (AH, §4.2).

Both FC and AH classify every node into levels ``0..h`` such that the
*covering property* holds: any shortest path that two nodes far apart in
grid ``R_i`` (no common 3x3-cell region) must traverse contains a node of
level ``>= i`` (Lemma 3).  That property is what licenses the proximity
constraint and the elevating-edge jumps at query time.

* :func:`exact_levels` computes arterial edges of every region of every
  grid directly on the input graph — conceptually simple but quadratic in
  region size, exactly the FC preprocessing bottleneck the paper
  describes; usable for small networks and for cross-validating the
  incremental algorithm.

* :func:`assign_levels` is AH's scalable variant: it sweeps the grids
  from fine to coarse, marking *cores* (endpoints of pseudo-arterial
  edges) per level, then reduces the working graph to the cores plus the
  border nodes of the next grid, bridging removed nodes with shortcuts
  tagged by their generating region (the paper's *coverage condition*
  keeps those shortcuts from leaking length information across regions).

Both variants mark tie-inclusively (every minimum-length spanning path
counts), which makes the covering property independent of the weight
perturbation of Appendix A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..graph.graph import Graph
from ..spatial.grid import GridPyramid, NodeGrid
from ..spatial.regions import Region, nonempty_regions, regions_covering_cell
from .arterial import (
    _arterial_marks,
    _local_search,
    _region_graph,
    long_edges,
    region_arterial_edges,
)

__all__ = ["LevelAssignment", "assign_levels", "exact_levels"]

INF = float("inf")

# A generating region, encoded as its bounding box in finest-grid cell
# units: (x0, y0, x1, y1).  Boxes make the coverage condition a four-int
# comparison instead of a dataclass method call in the hottest loop.
_Box = Tuple[int, int, int, int]
# Overlay edge payload: (weight, generating boxes or None for originals).
_Gens = Optional[Tuple[_Box, ...]]


def _region_box(region: Region) -> _Box:
    """Region extent in finest-grid cell units."""
    s = region.level - 1
    return (
        region.rx << s,
        region.ry << s,
        (region.rx + 4) << s,
        (region.ry + 4) << s,
    )


@dataclass
class LevelAssignment:
    """Result of a level-assignment run.

    Attributes
    ----------
    levels:
        ``levels[u]`` is the node's level in ``0..h``.
    h:
        Number of grids in the pyramid.
    pyramid, node_grid:
        The spatial structures the levels are defined against (queries
        reuse them for the proximity constraint).
    pseudo_arterial:
        ``pseudo_arterial[i]`` is the paper's ``S_i`` — the (pseudo-)
        arterial edges whose endpoints were promoted to level ``i``; the
        §4.4 vertex-cover ordering consumes these.
    region_counts:
        When collected: per level, the list of per-region (pseudo-)
        arterial edge counts — the reduced-graph analogue of Figure 3
        used on networks too large for the exact sweep.
    alive_history:
        Working-graph node counts per iteration (diagnostic for the
        geometric-shrinkage claim of §4.2).
    border_by_level:
        Definition-2 border nodes per grid level (cumulative from the
        coarse end); consumed by the elevating-edge construction.
    """

    levels: List[int]
    h: int
    pyramid: GridPyramid
    node_grid: NodeGrid
    pseudo_arterial: Dict[int, List[Tuple[int, int]]]
    region_counts: Optional[Dict[int, List[int]]] = None
    alive_history: List[int] = field(default_factory=list)
    border_by_level: Dict[int, Set[int]] = field(default_factory=dict)

    def max_level(self) -> int:
        """Highest level actually assigned."""
        return max(self.levels) if self.levels else 0

    def level_sizes(self) -> Dict[int, int]:
        """Histogram: level -> node count."""
        sizes: Dict[int, int] = {}
        for lv in self.levels:
            sizes[lv] = sizes.get(lv, 0) + 1
        return sizes


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
        fly = long_edges(graph, node_grid, i)
        for region in nonempty_regions(node_grid, i):
            marked = region_arterial_edges(
                graph,
                node_grid,
                region,
                max_region_nodes=max_region_nodes,
                fly_edges=fly,
            )
            for e in marked:
                if edge_level.get(e, 0) < i:
                    edge_level[e] = i
    # Sorted, as assign_levels does: set iteration order is not a result.
    for e, lv in sorted(edge_level.items()):
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
class _Overlay:
    """Dynamic reduced graph: original edges plus box-tagged shortcuts."""

    __slots__ = ("fwd", "bwd")

    def __init__(self, graph: Graph) -> None:
        self.fwd: Dict[int, Dict[int, Tuple[float, _Gens]]] = {
            u: {} for u in graph.nodes()
        }
        self.bwd: Dict[int, Dict[int, Tuple[float, _Gens]]] = {
            u: {} for u in graph.nodes()
        }
        for u, v, w in graph.edges():
            cur = self.fwd[u].get(v)
            if cur is None or w < cur[0]:
                self.fwd[u][v] = (w, None)
                self.bwd[v][u] = (w, None)

    def add_shortcut(self, u: int, v: int, w: float, box: _Box) -> None:
        """Insert/merge a shortcut generated from the region ``box``.

        A strictly cheaper shortcut replaces the stored edge; an
        equal-weight one unions the generating boxes (all are valid
        certificates for the coverage condition); costlier ones are
        dropped.  Original edges (``gens is None``) are usable anywhere,
        so they are never replaced by a tagged copy of equal weight.
        """
        cur = self.fwd[u].get(v)
        if cur is not None:
            cw, cgens = cur
            if w > cw:
                return
            if w == cw:
                if cgens is None or box in cgens:
                    return
                gens = cgens + (box,)
                self.fwd[u][v] = (cw, gens)
                self.bwd[v][u] = (cw, gens)
                return
        payload = (w, (box,))
        self.fwd[u][v] = payload
        self.bwd[v][u] = payload

    def drop_nodes(self, dead: Set[int]) -> None:
        """Remove nodes and their incident edges from the overlay."""
        for u in dead:
            for v in self.fwd[u]:
                if v not in dead:
                    del self.bwd[v][u]
            for v in self.bwd[u]:
                if v not in dead:
                    del self.fwd[v][u]
            del self.fwd[u]
            del self.bwd[u]

    def usable(self, box: _Box):
        """``(out_of, in_of)``: each maps a node to its ``(v, w)`` edges,
        leaving and entering, that the coverage condition lets the region
        with box ``box`` use.  Original edges are usable everywhere; a
        shortcut only where one of its generating boxes lies inside
        ``box``."""
        x0, y0, x1, y1 = box

        def edges_of(rows):
            def edges(u: int) -> List[Tuple[int, float]]:
                return [
                    (v, w)
                    for v, (w, gens) in rows[u].items()
                    if gens is None or _covered(gens, x0, y0, x1, y1)
                ]

            return edges

        return edges_of(self.fwd), edges_of(self.bwd)


def _covered(gens: Tuple[_Box, ...], x0: int, y0: int, x1: int, y1: int) -> bool:
    """True when some generating box lies inside the region box."""
    for gx0, gy0, gx1, gy1 in gens:
        if gx0 >= x0 and gy0 >= y0 and gx1 <= x1 and gy1 <= y1:
            return True
    return False


def _border_nodes(
    graph: Graph, node_grid: NodeGrid, level: int, candidates: Set[int]
) -> Set[int]:
    """Nodes among ``candidates`` that are border nodes of some 4x4 region
    of ``R_level`` (Definition 2).

    A node with an original-graph edge whose endpoints fall in *different*
    cells of ``R_level`` is a border node of some placement: the 16
    placements covering its cell put their strip-boundary lines on every
    nearby grid line, and at least one of them keeps the node outside the
    centre 2x2 block.  Nodes whose every edge stays within their own cell
    can never cross a strip boundary.  This cell-based test is a slight
    superset of Definition 2 near the grid border, which only makes the
    reduction retain marginally more nodes (a conservative, correctness-
    preserving direction).
    """
    border: Set[int] = set()
    cell_of = node_grid.cell_of
    for u in candidates:
        cu = cell_of(level, u)
        found = False
        for v, _w in graph.out[u]:
            if cell_of(level, v) != cu:
                found = True
                break
        if not found:
            for v, _w in graph.inn[u]:
                if cell_of(level, v) != cu:
                    found = True
                    break
        if found:
            border.add(u)
    return border


def _region_inside(
    node_grid: NodeGrid, region: Region, buckets: Dict[Tuple[int, int], List[int]]
) -> List[int]:
    inside: List[int] = []
    for dx in range(4):
        for dy in range(4):
            members = buckets.get((region.rx + dx, region.ry + dy))
            if members:
                inside.extend(members)
    return inside


def _region_shortcuts(
    overlay: _Overlay,
    box: _Box,
    nodes: List[int],
    out: List[List[Tuple[int, float]]],
    enter: Dict[int, List[Tuple[int, float]]],
    exit_: Dict[int, List[Tuple[int, float]]],
    endpoint: bytearray,
    interior: bytearray,
) -> None:
    """Add shortcuts for local shortest paths inside one region.

    Endpoints are the nodes with ``endpoint[u]`` (new cores and border
    nodes, §4.2); interiors are restricted to ``interior`` (alive nodes
    that were *not* promoted).  Fringe nodes one crossing-edge outside the
    region may serve as the far endpoint, never as interior.  ``nodes``,
    ``out``, ``enter`` and ``exit_`` are the marking pass's region graph
    (identical region, box and coverage filter; see
    :class:`repro.core.arterial._RegionGraph`).
    """
    expand = bytes(map(interior.__getitem__, nodes))
    if 1 not in expand:
        return  # every inside node survives: direct edges already suffice
    exits: List[List[Tuple[int, float]]] = [[] for _ in nodes]
    for v, seeds in exit_.items():
        if endpoint[v]:
            for x, w in seeds:
                exits[x].append((v, w))
    add = overlay.add_shortcut

    for i, u in enumerate(nodes):
        if not endpoint[u]:
            continue
        dist = _local_search(out, expand, ((i, 0.0),), i)
        for x, d in enumerate(dist):
            if d == INF:
                continue
            if x != i and endpoint[nodes[x]]:
                add(u, nodes[x], d, box)
            # Reaching x then leaving by one crossing edge ends the path;
            # x is then interior, so it must be a permitted interior node
            # (or the source itself).
            if x == i or expand[x]:
                for v, w in exits[x]:
                    add(u, v, d + w, box)

    # Paths entering from a fringe endpoint: one search per fringe node,
    # seeded with all of its entry edges.
    for f, seeds in enter.items():
        if endpoint[f]:
            dist = _local_search(out, expand, seeds, -1)
            for x, d in enumerate(dist):
                if d < INF and endpoint[nodes[x]]:
                    add(f, nodes[x], d, box)


def _flags(n: int, members) -> bytearray:
    """``flags[u] == 1`` exactly for the nodes in ``members``."""
    flags = bytearray(n)
    for u in members:
        flags[u] = 1
    return flags


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
        extraction: List[Tuple] = []
        is_core = _flags(n, cores)
        # Sorted: `regions` is a set, and this loop's order reaches
        # region_counts and shortcut creation — answer structure must not
        # depend on hash order.
        for region in sorted(regions, key=lambda r: (r.level, r.rx, r.ry)):
            inside = _region_inside(node_grid, region, buckets)
            if not inside:
                continue
            box = _region_box(region)
            rg = _region_graph(node_grid, region, inside, *overlay.usable(box))
            found = _arterial_marks(rg, bytes(map(is_core.__getitem__, inside)))
            # Pass 2 keeps only what it reads, so a level's region graphs
            # hold one direction of their edges, not two.
            extraction.append((box, rg.nodes, rg.out, rg.enter, rg.exit))
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
        interior = _flags(n, alive - new_cores)
        endpoint = _flags(n, (new_cores | next_border) & alive)
        for box, nodes, out, enter, exit_ in extraction:
            if len(nodes) >= 2:
                _region_shortcuts(
                    overlay, box, nodes, out, enter, exit_, endpoint, interior
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

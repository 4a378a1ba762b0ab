"""White-box tests for the AH construction internals.

These pin down the overlay-graph invariants the §4.2 reduction relies
on: shortcut merge rules, the coverage condition's box arithmetic, and
the border-node retention logic.
"""

import pytest

from repro.core.arterial import _region_graph
from repro.core.hierarchy import _border_nodes, _covered, _Overlay, _region_box
from repro.datasets import grid_city
from repro.graph import GraphBuilder
from repro.spatial import GridPyramid, NodeGrid, Region


def tiny_graph():
    b = GraphBuilder()
    for i in range(4):
        b.add_node(float(i), 0.0)
    b.add_edge(0, 1, 1.0)
    b.add_edge(1, 2, 1.0)
    b.add_edge(2, 3, 1.0)
    return b.build()


BOX_A = (0, 0, 4, 4)
BOX_B = (2, 2, 6, 6)


class TestOverlay:
    def test_initial_edges_untagged(self):
        ov = _Overlay(tiny_graph())
        w, gens = ov.fwd[0][1]
        assert w == 1.0 and gens is None

    def test_shortcut_added_with_box(self):
        ov = _Overlay(tiny_graph())
        ov.add_shortcut(0, 2, 2.0, BOX_A)
        w, gens = ov.fwd[0][2]
        assert w == 2.0 and gens == (BOX_A,)
        assert ov.bwd[2][0] == (2.0, (BOX_A,))

    def test_equal_weight_unions_boxes(self):
        ov = _Overlay(tiny_graph())
        ov.add_shortcut(0, 2, 2.0, BOX_A)
        ov.add_shortcut(0, 2, 2.0, BOX_B)
        _, gens = ov.fwd[0][2]
        assert set(gens) == {BOX_A, BOX_B}

    def test_duplicate_box_not_repeated(self):
        ov = _Overlay(tiny_graph())
        ov.add_shortcut(0, 2, 2.0, BOX_A)
        ov.add_shortcut(0, 2, 2.0, BOX_A)
        _, gens = ov.fwd[0][2]
        assert gens == (BOX_A,)

    def test_cheaper_shortcut_replaces(self):
        ov = _Overlay(tiny_graph())
        ov.add_shortcut(0, 2, 2.0, BOX_A)
        ov.add_shortcut(0, 2, 1.5, BOX_B)
        w, gens = ov.fwd[0][2]
        assert w == 1.5 and gens == (BOX_B,)

    def test_costlier_shortcut_dropped(self):
        ov = _Overlay(tiny_graph())
        ov.add_shortcut(0, 2, 2.0, BOX_A)
        ov.add_shortcut(0, 2, 9.0, BOX_B)
        w, gens = ov.fwd[0][2]
        assert w == 2.0 and gens == (BOX_A,)

    def test_original_edge_never_retagged(self):
        ov = _Overlay(tiny_graph())
        ov.add_shortcut(0, 1, 1.0, BOX_A)  # equal weight to the original
        w, gens = ov.fwd[0][1]
        assert gens is None  # originals stay usable everywhere

    def test_drop_nodes_removes_both_directions(self):
        ov = _Overlay(tiny_graph())
        ov.drop_nodes({1})
        assert 1 not in ov.fwd
        assert 1 not in ov.bwd[2] if 2 in ov.bwd else True
        assert all(1 not in adj for adj in ov.fwd.values())

    def test_covered_adjacency_filters(self):
        g = tiny_graph()
        ov = _Overlay(g)
        ov.add_shortcut(0, 2, 2.0, BOX_B)  # generated outside BOX_A
        # Region(1, 0, 0) has box BOX_A and holds all four nodes.
        ng = NodeGrid(g, GridPyramid(0.0, 0.0, 8.0, 2))
        rg = _region_graph(ng, Region(1, 0, 0), list(g.nodes()), *ov.usable(BOX_A))
        targets = [rg.nodes[j] for j, _ in rg.out[rg.local[0]]]
        assert 1 in targets  # original edge always usable
        assert 2 not in targets  # coverage condition rejects the shortcut


class TestCoverage:
    def test_covered_inside(self):
        assert _covered(((1, 1, 3, 3),), 0, 0, 4, 4)

    def test_covered_exact(self):
        assert _covered(((0, 0, 4, 4),), 0, 0, 4, 4)

    def test_not_covered_overlap(self):
        assert not _covered(((2, 2, 6, 6),), 0, 0, 4, 4)

    def test_any_box_suffices(self):
        gens = ((10, 10, 14, 14), (1, 1, 2, 2))
        assert _covered(gens, 0, 0, 4, 4)

    def test_region_box_scales_with_level(self):
        assert _region_box(Region(1, 3, 5)) == (3, 5, 7, 9)
        assert _region_box(Region(3, 1, 1)) == (4, 4, 20, 20)

    def test_region_box_matches_contains_region(self):
        # The box arithmetic must agree with Region.contains_region.
        coarse = Region(2, 0, 0)
        x0, y0, x1, y1 = _region_box(coarse)
        for fine in (Region(1, 0, 0), Region(1, 4, 4), Region(1, 5, 0)):
            fx0, fy0, fx1, fy1 = _region_box(fine)
            boxed = fx0 >= x0 and fy0 >= y0 and fx1 <= x1 and fy1 <= y1
            assert boxed == coarse.contains_region(fine)


class TestBorderNodes:
    def test_cross_cell_edges_make_borders(self):
        g = grid_city(8, 8, seed=1)
        ng = NodeGrid(g, GridPyramid.from_graph(g))
        # At the finest level nearly every node crosses a cell line.
        border = _border_nodes(g, ng, 1, set(g.nodes()))
        assert len(border) > g.n * 0.5

    def test_borders_thin_at_coarse_levels(self):
        g = grid_city(12, 12, seed=2)
        ng = NodeGrid(g, GridPyramid.from_graph(g))
        h = ng.pyramid.h
        fine = _border_nodes(g, ng, max(1, h - 3), set(g.nodes()))
        coarse = _border_nodes(g, ng, h, set(g.nodes()))
        assert len(coarse) <= len(fine)

    def test_candidates_respected(self):
        g = grid_city(6, 6, seed=3)
        ng = NodeGrid(g, GridPyramid.from_graph(g))
        subset = {0, 1, 2}
        border = _border_nodes(g, ng, 1, subset)
        assert border <= subset

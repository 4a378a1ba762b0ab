"""The per-region local-graph solver assigns exactly the levels of the
solver it replaced, under both region searches.

``levels_reference`` keeps the old region solver and ``assign_levels``
verbatim.  Every result here must match it with ``==``, not merely
within tolerance: the rebuild changes how each region's edges are stored
and how often each search runs, never the sums a distance is made of.

Each check runs the solver once per tier in :data:`TIERS` — the C region
search (``repro.native.local_search``) when the extension is loaded, and
always the pure loop it falls back to — against one reference result, so
a single run holds both searches to the reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import backend
from repro.core.arterial import long_edges, region_arterial_edges
from repro.core.hierarchy import assign_levels, exact_levels
from repro.datasets import towns_and_highways
from repro.graph import GraphBuilder
from repro.spatial import GridPyramid, NodeGrid, Region
from repro.spatial.regions import nonempty_regions

import levels_reference as ref

#: Tiers whose region search is held to the reference; without the
#: extension only the pure loop runs.
TIERS = ("native", "pure") if backend.HAS_NATIVE else ("pure",)


def level_run(fn, graph, pyramid):
    calls = []
    result = fn(
        graph,
        pyramid,
        collect_region_counts=True,
        progress=lambda *args: calls.append(args),
    )
    return (
        result.levels,
        result.pseudo_arterial,
        result.alive_history,
        result.border_by_level,
        result.region_counts,
        calls,
    )


@pytest.mark.parametrize("leaf_capacity", [1, 4])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), towns=st.integers(2, 3))
def test_assign_levels_matches_reference(leaf_capacity, seed, towns):
    g = towns_and_highways(towns, 4, 4, seed=seed, prune=0.15)
    pyramid = GridPyramid.from_graph(g, leaf_capacity=leaf_capacity)
    want = level_run(ref.assign_levels, g, pyramid)
    for tier in TIERS:
        with backend.forced(tier):
            assert level_run(assign_levels, g, pyramid) == want, tier


@pytest.mark.parametrize("name", ["city_graph", "towns_graph"])
def test_exact_levels_matches_reference(request, name):
    g = request.getfixturevalue(name)
    want = ref.exact_levels(g)
    for tier in TIERS:
        with backend.forced(tier):
            got = exact_levels(g)
        assert got.levels == want.levels, tier
        # exact_levels sorts each level's edges; the reference listed them
        # in set iteration order.
        assert got.pseudo_arterial == {
            i: sorted(edges) for i, edges in want.pseudo_arterial.items()
        }, tier


# exact_levels above already sweeps every region of towns_graph with all
# of its nodes.
@pytest.mark.parametrize(
    "name, subset", [("city_graph", False), ("city_graph", True), ("towns_graph", True)]
)
def test_region_arterial_edges_matches_reference(request, name, subset):
    g = request.getfixturevalue(name)
    ng = NodeGrid(g, GridPyramid.from_graph(g))
    nodes = [u for u in g.nodes() if u % 3] if subset else None
    for i in ng.pyramid.levels():
        fly = long_edges(g, ng, i)
        for region in nonempty_regions(ng, i):
            want = ref.region_arterial_edges(g, ng, region, nodes=nodes, fly_edges=fly)
            for tier in TIERS:
                with backend.forced(tier):
                    got = region_arterial_edges(
                        g, ng, region, nodes=nodes, fly_edges=fly
                    )
                assert got == want, (tier, region)


@pytest.mark.parametrize("vertical", [True, False])
def test_edge_from_a_node_on_the_bisector(vertical):
    """A node exactly on a bisector (x = 2, or y = 2) sits in the column
    (row) past it; its edge into the far strip touches the bisector, so it
    crosses, though both endpoints lie on the same side of the line."""
    b = GraphBuilder()
    path = [
        b.add_node(a, 1.5) if vertical else b.add_node(1.5, a)
        for a in (0.5, 1.5, 2.0, 3.5)
    ]
    for u, v in zip(path, path[1:]):
        b.add_bidirectional_edge(u, v, 1.0)
    g = b.build()
    ng = NodeGrid(g, GridPyramid(0.0, 0.0, 8.0, 2))
    region = Region(1, 0, 0)
    for tier in TIERS:
        with backend.forced(tier):
            marked = region_arterial_edges(g, ng, region)
        assert (path[2], path[3]) in marked, tier
        assert marked == ref.region_arterial_edges(g, ng, region), tier

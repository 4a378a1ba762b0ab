"""The table-driven AH query answers exactly as the loop it replaced.

``ah_reference`` keeps the search loop from before the per-node query
tables verbatim.  Every configuration here must match it with ``==``
distances and identical path node tuples, not merely within tolerance:
the tables change how the loop looks things up, never the order in
which it relaxes edges.

Each check asks every tier in :data:`TIERS` — the C query
(``repro.native.ah_query``) when the extension is loaded, and always the
pure loop it falls back to — so a single run holds both to the
reference.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import backend
from repro.core import AHIndex, load_bundle
from repro.core.serialize import bundle_bytes
from repro.core.ah import _separating_level
from repro.datasets import dataset, grid_city, towns_and_highways
from repro.graph import GraphBuilder
from repro.spatial import GridPyramid

from ah_reference import reference_distance, reference_path
from conftest import random_pairs

TOGGLES = {
    "default": {},
    "no-proximity": {"proximity": False},
    "stall-on-demand": {"stall_on_demand": True},
    "no-downgrade": {"downgrade": False},
    "random-order": {"ordering": "random"},
}


#: Tiers whose AH query is held to the reference; without the extension
#: only the pure loop runs.
TIERS = ("native", "pure") if backend.HAS_NATIVE else ("pure",)


def assert_matches_reference(index, pairs):
    for s, t in pairs:
        want_d = reference_distance(index, s, t)
        want = reference_path(index, s, t)
        for tier in TIERS:
            with backend.forced(tier):
                assert index.distance(s, t) == want_d, (s, t, tier)
                got = index.shortest_path(s, t)
            if want is None:
                assert got is None, (s, t, tier)
            else:
                assert got.nodes == want.nodes, (s, t, tier)
                assert got.length == want.length, (s, t, tier)


def random_towns(seed):
    return towns_and_highways(3, 4, 4, seed=seed, prune=0.15)


def scaled(graph, seed):
    """``graph`` with every edge weight scaled by a random factor."""
    rng = random.Random(seed)
    b = GraphBuilder()
    for u in graph.nodes():
        b.add_node(*graph.coord(u))
    for u, v, w in graph.edges():
        b.add_edge(u, v, w * rng.uniform(0.5, 2.0))
    return b.build()


@pytest.mark.parametrize("elevating", [False, True])
@pytest.mark.parametrize("toggle", sorted(TOGGLES))
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_matches_reference_on_random_towns(toggle, elevating, seed):
    g = random_towns(seed)
    ah = AHIndex(g, elevating=elevating, **TOGGLES[toggle])
    assert_matches_reference(ah, random_pairs(g, 40, seed=seed))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), elevating=st.booleans())
def test_loaded_and_customized_indexes_match_reference(seed, elevating):
    g = random_towns(seed)
    ah = AHIndex(g, elevating=elevating)
    pairs = random_pairs(g, 40, seed=seed)
    _, loaded = load_bundle(bundle_bytes(ah))
    assert_matches_reference(loaded, pairs)
    custom = ah.with_weights(scaled(g, seed))
    assert_matches_reference(custom, pairs)


@pytest.fixture(scope="module")
def de_ah():
    """The benchmark's index: AH with elevating edges on the DE network."""
    return AHIndex(dataset("DE"), elevating=True)


@pytest.mark.parametrize("elevating", [True, False])
def test_matches_reference_on_de(de_ah, elevating):
    pairs = random_pairs(de_ah.graph, 150, seed=14)
    de_ah.use_elevating = elevating
    try:
        assert_matches_reference(de_ah, pairs)
    finally:
        de_ah.use_elevating = True


def test_de_elevating_sample_takes_jumps(de_ah):
    """The DE sample exercises the jump tables, not only plain edges."""
    jumping = 0
    for s, t in random_pairs(de_ah.graph, 150, seed=14):
        j = de_ah.node_grid.coarsest_separating_level(s, t)
        column = de_ah._jumps_f[j]
        jumping += column is not None and column[s] is not None
    assert jumping > 10


@pytest.mark.parametrize("leaf_capacity", [1, 4])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), city=st.booleans())
def test_anchor_separation_level_matches_grid(leaf_capacity, seed, city):
    """The level read off the anchor tables is the grid's own answer,
    with ``NodeGrid.coarsest_separating_level`` as the reference."""
    g = grid_city(8, 8, seed=seed) if city else random_towns(seed)
    pyramid = GridPyramid.from_graph(g, leaf_capacity=leaf_capacity)
    ah = AHIndex(g, pyramid=pyramid)
    ax, ay = ah._anchor_x, ah._anchor_y
    rng = random.Random(seed)
    for _ in range(300):
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        got = _separating_level(ax[s], ay[s], ax[t], ay[t], ah.h)
        assert got == ah.node_grid.coarsest_separating_level(s, t), (s, t)

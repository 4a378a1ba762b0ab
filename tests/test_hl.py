"""Tests for the hub-label oracle and the batched query surface."""

import random

import pytest

from repro.baselines import (
    ALTEngine,
    AStarEngine,
    BidirectionalEngine,
    CHEngine,
    DijkstraEngine,
    HubLabelIndex,
    QueryEngine,
    SILCEngine,
    TNREngine,
)
from repro.core import (
    AHIndex,
    BundleCorrupted,
    FCIndex,
    load_bundle,
    perturb_weights,
    save_bundle,
)
from repro.core.serialize import bundle_bytes, inspect_bundle
from repro.datasets import grid_city, towns_and_highways
from repro.graph.traversal import dijkstra_distances, distance_query

from conftest import assert_engine_matches_dijkstra, random_pairs, recrc

INF = float("inf")


@pytest.fixture(scope="module")
def towns_hl(towns_graph):
    return HubLabelIndex(towns_graph)


class TestExactness:
    """HL must answer exactly what Dijkstra answers — the oracle contract."""

    @pytest.mark.parametrize(
        "fixture", ["towns_graph", "city_graph", "oneway_graph", "rgg_graph"]
    )
    def test_matches_dijkstra(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        hl = HubLabelIndex(graph)
        assert_engine_matches_dijkstra(hl, graph, random_pairs(graph, 60, seed=21))

    def test_all_pairs_on_paper_graph(self, paper_graph):
        hl = HubLabelIndex(paper_graph)
        for s in paper_graph.nodes():
            truth = dijkstra_distances(paper_graph, s)
            for t in paper_graph.nodes():
                assert hl.distance(s, t) == pytest.approx(
                    truth.get(t, INF), rel=1e-9, abs=1e-9
                )

    def test_exact_on_perturbed_weights(self):
        # Perturbed weights are exact integers; HL sums must match the
        # Dijkstra ground truth bit-for-bit, and unperturb exactly.
        g = grid_city(8, 8, jitter=0.0, prune=0.0, seed=0, block=1.0)
        from repro.graph import GraphBuilder

        b = GraphBuilder()
        for u in g.nodes():
            b.add_node(*g.coord(u))
        for u, v, w in g.edges():
            b.add_edge(u, v, round(w * 30))
        gi = b.build()
        p = perturb_weights(gi, seed=5)
        assert p.exact
        hl = HubLabelIndex(p.graph)
        for s, t in random_pairs(gi, 50, seed=8):
            got = hl.distance(s, t)
            want = distance_query(p.graph, s, t)
            assert got == want  # exact integer arithmetic, no approx
            assert p.unperturb_distance(got) == distance_query(gi, s, t)

    def test_unreachable_pair_is_inf_and_pathless(self):
        from repro.graph import GraphBuilder

        b = GraphBuilder()
        b.add_node(0, 0)
        b.add_node(1, 0)
        b.add_node(2, 0)
        b.add_edge(0, 1, 1.0)  # node 2 unreachable from 0/1
        g = b.build()
        hl = HubLabelIndex(g)
        assert hl.distance(0, 2) == INF
        assert hl.shortest_path(0, 2) is None
        assert hl.distance(2, 2) == 0.0

    def test_shares_hierarchy_with_ch(self, towns_graph, towns_ch):
        hl = HubLabelIndex(towns_graph, contraction=towns_ch._res)
        for s, t in random_pairs(towns_graph, 30, seed=3):
            assert hl.distance(s, t) == pytest.approx(
                towns_ch.distance(s, t), rel=1e-9, abs=1e-9
            )


class TestStructure:
    def test_labels_sorted_per_node(self, towns_graph, towns_hl):
        hl = towns_hl
        for u in towns_graph.nodes():
            for head, hubs in (
                (hl.fwd_head, hl.fwd_hub),
                (hl.bwd_head, hl.bwd_hub),
            ):
                row = hubs[head[u] : head[u + 1]]
                assert list(row) == sorted(row)

    def test_every_node_is_its_own_hub(self, towns_graph, towns_hl):
        hl = towns_hl
        for u in towns_graph.nodes():
            row = list(hl.fwd_hub[hl.fwd_head[u] : hl.fwd_head[u + 1]])
            assert u in row

    def test_index_size_and_label_stats(self, towns_graph, towns_hl):
        hl = towns_hl
        assert hl.index_size() >= hl.label_count > 0
        assert hl.average_label_size() >= 1.0  # at least the node itself
        assert "HL" in hl.describe()

    def test_labels_much_smaller_than_search_spaces(self, towns_graph, towns_hl):
        # Pruning is the point: labels must stay well below n per node.
        assert towns_hl.average_label_size() < towns_graph.n / 4


class TestBatchedSurface:
    """one_to_many / distance_table across *every* engine."""

    ENGINES = [
        ("Dijkstra", DijkstraEngine),
        ("BiDijkstra", BidirectionalEngine),
        ("A*", AStarEngine),
        ("ALT", lambda g: ALTEngine(g, n_landmarks=4)),
        ("CH", CHEngine),
        ("HL", HubLabelIndex),
        ("SILC", SILCEngine),
        ("TNR", lambda g: TNREngine(g, transit_count=8)),
        ("FC", FCIndex),
        ("AH", AHIndex),
    ]

    @pytest.fixture(scope="class")
    def small_graph(self):
        return grid_city(8, 8, seed=3)

    @pytest.mark.parametrize("name,factory", ENGINES, ids=[n for n, _ in ENGINES])
    def test_one_to_many_and_table_match_dijkstra(self, name, factory, small_graph):
        g = small_graph
        engine = factory(g)
        rng = random.Random(11)
        sources = [rng.randrange(g.n) for _ in range(3)]
        targets = [rng.randrange(g.n) for _ in range(9)] + [sources[0]]
        table = engine.distance_table(sources, targets)
        assert len(table) == len(sources)
        for s, row in zip(sources, table):
            truth = dijkstra_distances(g, s)
            assert len(row) == len(targets)
            for t, got in zip(targets, row):
                assert got == pytest.approx(truth.get(t, INF), rel=1e-9, abs=1e-9)

    def test_empty_targets(self, small_graph):
        assert DijkstraEngine(small_graph).one_to_many(0, []) == []
        assert HubLabelIndex(small_graph).one_to_many(0, []) == []

    def test_hl_fast_path_equals_base_fallback(self, towns_graph, towns_hl):
        rng = random.Random(2)
        targets = [rng.randrange(towns_graph.n) for _ in range(40)]
        fast = towns_hl.one_to_many(7, targets)
        fallback = QueryEngine.one_to_many(towns_hl, 7, targets)
        assert fast == pytest.approx(fallback, rel=1e-9, abs=1e-9)

    def test_one_to_many_accepts_generators(self, towns_graph, towns_hl):
        got = towns_hl.one_to_many(0, (t for t in (1, 2, 3)))
        assert len(got) == 3


class TestSerialization:
    def test_hl_index_round_trip(self, towns_graph, towns_hl, tmp_path):
        path = str(tmp_path / "towns.hl")
        save_bundle(towns_hl, path)
        _, loaded = load_bundle(path)
        assert list(loaded.fwd_hub) == list(towns_hl.fwd_hub)
        assert list(loaded.bwd_dist) == list(towns_hl.bwd_dist)
        assert loaded._middle == towns_hl._middle
        for s, t in random_pairs(towns_graph, 25, seed=4):
            assert loaded.distance(s, t) == towns_hl.distance(s, t)

    def test_hl_compact_default_writes_hl2(self, towns_hl):
        blob = bundle_bytes(towns_hl)
        assert blob[inspect_bundle(blob)[1]["offset"] :].startswith(b"HLIDX2\n")

    def test_hl_bad_magic_rejected(self, towns_hl):
        """A damaged ``HLIDX2`` magic in a CRC-valid bundle fails typed,
        as the ``"index"`` section."""
        blob = bundle_bytes(towns_hl)
        data = bytearray(blob)
        data[inspect_bundle(blob)[1]["offset"]] ^= 0xFF
        with pytest.raises(BundleCorrupted, match="unknown section magic") as exc_info:
            load_bundle(recrc(data))
        assert exc_info.value.section == "index"

    def test_bundle_round_trip_answers_without_rebuilding(self, tmp_path):
        g = towns_and_highways(3, seed=4)
        hl = HubLabelIndex(g)
        path = str(tmp_path / "bundle.hl")
        save_bundle(hl, path)
        g2, loaded = load_bundle(path)
        assert isinstance(loaded, HubLabelIndex)
        assert g2.n == g.n and sorted(g2.edges()) == sorted(g.edges())
        for s, t in random_pairs(g, 30, seed=9):
            want = distance_query(g, s, t)
            assert loaded.distance(s, t) == pytest.approx(want, rel=1e-9, abs=1e-9)
            if want < INF:
                p = loaded.shortest_path(s, t)
                p.validate(g2)
                assert p.length == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_bundle_dispatches_on_magic(self, tmp_path):
        # An AH bundle still loads as AHIndex after the HL1 addition.
        g = grid_city(6, 6, seed=2)
        ah = AHIndex(g)
        path = str(tmp_path / "bundle.ah")
        save_bundle(ah, path)
        _, loaded = load_bundle(path)
        assert isinstance(loaded, AHIndex)

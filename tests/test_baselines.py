"""Correctness tests for all baseline engines against ground truth."""

import pytest

from repro import backend
from repro.baselines import (
    ALTEngine,
    AStarEngine,
    BidirectionalEngine,
    CHEngine,
    DijkstraEngine,
    SILCEngine,
    max_speed,
    select_landmarks_farthest,
)
from repro.bench import ENGINE_FACTORIES as ALL_ENGINES
from repro.datasets import grid_city, towns_and_highways
from repro.graph.traversal import distance_query

from conftest import assert_engine_matches_dijkstra, random_pairs

ENGINE_FACTORIES = [
    ("Dijkstra", lambda g: DijkstraEngine(g)),
    ("BiDijkstra", lambda g: BidirectionalEngine(g)),
    ("A*", lambda g: AStarEngine(g)),
    ("ALT", lambda g: ALTEngine(g, n_landmarks=4)),
    ("CH", lambda g: CHEngine(g)),
    ("SILC", lambda g: SILCEngine(g)),
]


@pytest.mark.parametrize("name,factory", ENGINE_FACTORIES)
@pytest.mark.parametrize("fixture", ["towns_graph", "city_graph", "oneway_graph", "rgg_graph"])
def test_engine_matches_dijkstra(name, factory, fixture, request):
    graph = request.getfixturevalue(fixture)
    engine = factory(graph)
    assert_engine_matches_dijkstra(engine, graph, random_pairs(graph, 40, seed=3))


@pytest.mark.parametrize("name,factory", ENGINE_FACTORIES)
def test_engine_self_query(name, factory, city_graph):
    engine = factory(city_graph)
    assert engine.distance(7, 7) == 0.0
    path = engine.shortest_path(7, 7)
    assert path is not None and path.nodes[0] == 7 and path.length == 0.0


#: Every engine, the three id-checked first.
ID_CHECK_NAMES = ["AH", "CH", "HL"] + [
    name for name in ALL_ENGINES if name not in ("AH", "CH", "HL")
]


@pytest.fixture(scope="module")
def id_check_indexes():
    """Every engine over one 48-node network: node 47 is the one a -1
    id would wrap around to."""
    graph = towns_and_highways(3, 4, 4, seed=1, prune=0.15)
    return {name: factory(graph) for name, factory in ALL_ENGINES.items()}


@pytest.mark.parametrize("tier", ["native", "pure"])
@pytest.mark.parametrize("name", ID_CHECK_NAMES)
def test_out_of_range_node_raises(name, tier, id_check_indexes):
    """A node id outside ``[0, n)`` raises on every engine and tier,
    instead of answering for the node a negative index wraps to."""
    if tier == "native" and not backend.HAS_NATIVE:
        pytest.skip("C extension not built")
    engine = id_check_indexes[name]
    n = engine.graph.n
    with backend.forced(tier):
        for source, target in ((-1, 3), (3, -1), (n, 3), (3, n), (-1, -1), (n, n)):
            with pytest.raises(IndexError):
                engine.distance(source, target)
            with pytest.raises(IndexError):
                engine.shortest_path(source, target)


@pytest.mark.parametrize("tier", ["native", "pure"])
@pytest.mark.parametrize("name", ID_CHECK_NAMES)
def test_node_ids_answer_as_plain_ints(name, tier, id_check_indexes):
    """A ``bool`` id is the int it stands for, so every node of a
    returned path is exactly ``int`` on every engine and tier, and a
    float or string id raises :class:`TypeError`."""
    if tier == "native" and not backend.HAS_NATIVE:
        pytest.skip("C extension not built")
    engine = id_check_indexes[name]
    with backend.forced(tier):
        for source, target in ((True, 2), (True, True)):
            path = engine.shortest_path(source, target)
            assert path == engine.shortest_path(int(source), int(target))
            assert all(type(v) is int for v in path.nodes), path.nodes
        for source, target in ((1.0, 2), ("1", 2)):
            with pytest.raises(TypeError):
                engine.distance(source, target)
            with pytest.raises(TypeError):
                engine.shortest_path(source, target)


@pytest.mark.parametrize("tier", ["native", "pure"])
def test_out_of_range_node_raises_in_hl_batch_kernels(tier, id_check_indexes):
    """HL's batch kernels raise for an id outside ``[0, n)`` on both
    tiers, instead of answering ``inf`` from a wrapped label slice."""
    if tier == "native" and not backend.HAS_NATIVE:
        pytest.skip("C extension not built")
    hl = id_check_indexes["HL"]
    n = hl.graph.n
    with backend.forced(tier):
        for bad in (-1, n):
            with pytest.raises(IndexError, match=f"source {bad} out of range"):
                hl.one_to_many(bad, (3,))
            with pytest.raises(IndexError, match=f"target {bad} out of range"):
                hl.one_to_many(0, (3, bad))
            with pytest.raises(IndexError, match=f"source {bad} out of range"):
                hl.distance_table((0, bad), (3,))
            with pytest.raises(IndexError, match=f"target {bad} out of range"):
                hl.distance_table((0,), (bad, 3))
            # With a wrong source and a wrong target, both tiers name
            # the target: the native table inverts its targets first.
            with pytest.raises(IndexError, match=f"target {bad} out of range"):
                hl.one_to_many(bad, (3, bad))
            with pytest.raises(IndexError, match=f"target {bad} out of range"):
                hl.distance_table((0, bad), (bad, 3))


@pytest.mark.parametrize("name,factory", ENGINE_FACTORIES)
def test_engine_describe(name, factory, city_graph):
    engine = factory(city_graph)
    text = engine.describe()
    assert engine.name in text


class TestAStar:
    def test_max_speed_matches_fastest_edge(self, city_graph):
        speed = max_speed(city_graph)
        best = 0.0
        for u, v, w in city_graph.edges():
            from repro.spatial import euclidean_distance

            d = euclidean_distance(city_graph.coord(u), city_graph.coord(v))
            best = max(best, d / w)
        assert speed == pytest.approx(best)

    def test_heuristic_never_overestimates(self, city_graph):
        engine = AStarEngine(city_graph)
        tx, ty = city_graph.coord(100)
        for u in range(0, city_graph.n, 13):
            h = engine._heuristic(u, tx, ty)
            assert h <= distance_query(city_graph, u, 100) + 1e-9


class TestALT:
    def test_landmark_selection_distinct(self, towns_graph):
        lms = select_landmarks_farthest(towns_graph, 5, seed=2)
        assert len(lms) == len(set(lms))

    def test_landmark_count_validated(self, towns_graph):
        with pytest.raises(ValueError):
            select_landmarks_farthest(towns_graph, 0)

    def test_lower_bound_admissible(self, towns_graph):
        engine = ALTEngine(towns_graph, n_landmarks=4, seed=1)
        for s, t in random_pairs(towns_graph, 25, seed=4):
            lb = engine._lower_bound(s, t)
            assert lb <= distance_query(towns_graph, s, t) + 1e-9

    def test_index_size_counts_tables(self, towns_graph):
        engine = ALTEngine(towns_graph, n_landmarks=3)
        assert engine.index_size() == 2 * 3 * towns_graph.n


class TestCH:
    def test_ranks_are_permutation(self, towns_ch, towns_graph):
        assert sorted(towns_ch.rank) == list(range(towns_graph.n))

    def test_upward_edges_ascend(self, towns_ch):
        res = towns_ch._res
        for u, adj in enumerate(res.up_out):
            for v, _, _ in adj:
                assert res.rank[v] > res.rank[u]
        for u, adj in enumerate(res.up_in):
            for v, _, _ in adj:
                assert res.rank[v] > res.rank[u]

    def test_middles_split_shortcuts_exactly(self, towns_ch):
        """w(a,b) == w(a,m) + w(m,b) for every shortcut: the two-hop
        invariant that makes unpacking O(k)."""
        res = towns_ch._res
        weight = {}
        for u, adj in enumerate(res.up_out):
            for v, w, _ in adj:
                weight[(u, v)] = w
        for u, adj in enumerate(res.up_in):
            for v, w, _ in adj:
                weight[(v, u)] = w
        checked = 0
        for (a, b), m in res.middle.items():
            if (a, b) in weight and (a, m) in weight and (m, b) in weight:
                assert weight[(a, b)] == pytest.approx(
                    weight[(a, m)] + weight[(m, b)]
                )
                checked += 1
        assert checked > 0

    def test_explicit_order_is_respected(self, city_graph):
        order = list(range(city_graph.n))
        engine = CHEngine(city_graph, order=order)
        assert engine.rank == order

    def test_bad_order_rejected(self, city_graph):
        with pytest.raises(ValueError):
            CHEngine(city_graph, order=[0] * city_graph.n)

    def test_stall_toggle_equivalent(self, towns_graph):
        on = CHEngine(towns_graph, stall_on_demand=True)
        off = CHEngine(towns_graph, stall_on_demand=False)
        for s, t in random_pairs(towns_graph, 30, seed=6):
            assert on.distance(s, t) == pytest.approx(off.distance(s, t))

    def test_unreachable_pair(self):
        from repro.graph import GraphBuilder

        b = GraphBuilder()
        b.add_node(0, 0)
        b.add_node(1, 1)
        b.add_edge(0, 1, 1.0)
        g = b.build()
        engine = CHEngine(g)
        assert engine.distance(1, 0) == float("inf")
        assert engine.shortest_path(1, 0) is None

    def test_index_size_positive(self, towns_ch):
        assert towns_ch.index_size() > 0
        assert towns_ch.shortcut_count >= 0


class TestSILC:
    def test_size_cap_enforced(self, city_graph):
        with pytest.raises(ValueError, match="quadratic"):
            SILCEngine(city_graph, max_nodes=10)

    def test_quadtree_compresses(self, city_graph):
        engine = SILCEngine(city_graph)
        # Total blocks must be far below n per source (uniform areas merge).
        assert engine.index_size() < city_graph.n * city_graph.n

    def test_first_move_walks_are_optimal_prefixes(self, city_graph):
        engine = SILCEngine(city_graph)
        for s, t in random_pairs(city_graph, 20, seed=9):
            if s == t:
                continue
            move = engine._first_move(s, t)
            d = distance_query(city_graph, s, t)
            if d == float("inf"):
                continue
            assert city_graph.has_edge(s, move)
            # Moving along the first move must decrease the distance by
            # exactly the edge weight (definition of an optimal first move).
            assert city_graph.edge_weight(s, move) + distance_query(
                city_graph, move, t
            ) == pytest.approx(d)

    def test_distance_equals_path_length(self, city_graph):
        engine = SILCEngine(city_graph)
        for s, t in random_pairs(city_graph, 15, seed=10):
            p = engine.shortest_path(s, t)
            assert engine.distance(s, t) == pytest.approx(p.length)

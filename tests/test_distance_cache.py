"""Tests for the opt-in LRU distance cache (ROADMAP "Result caching").

A cache takes effect where it is passed: a :class:`QueryPlanner` (and so
a ``Server``) or a ``WorkerPool``.  These tests drive it through the
planner, the one in-process cache path.
"""

import pytest

from repro.baselines import (
    DijkstraEngine,
    DistanceCache,
    DistanceRequest,
    HubLabelIndex,
    OneToManyRequest,
    QueryPlanner,
)
from repro.datasets import grid_city
from repro.graph.traversal import distance_query

INF = float("inf")


@pytest.fixture(scope="module")
def graph():
    return grid_city(7, 7, seed=4)


class TestDistanceCacheUnit:
    def test_lru_eviction_order(self):
        cache = DistanceCache(maxsize=2)
        cache.store_many([((0, 1), 1.0), ((0, 2), 2.0)])
        assert cache.lookup_many([(0, 1)]) == [1.0]  # refreshes (0, 1)
        cache.store_many([((0, 3), 3.0)])  # evicts (0, 2), the LRU entry
        assert cache.lookup_many([(0, 2), (0, 1), (0, 3)]) == [None, 1.0, 3.0]
        assert len(cache) == 2

    def test_counters_and_stats(self):
        cache = DistanceCache(maxsize=8)
        assert cache.lookup_many([(1, 2)]) == [None]
        cache.store_many([((1, 2), 5.0)])
        assert cache.lookup_many([(1, 2)]) == [5.0]
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["size"] == 1
        assert stats["maxsize"] == 8
        cache.clear()
        assert cache.stats() == {
            "hits": 0, "misses": 0, "hit_rate": 0.0, "size": 0, "maxsize": 8,
        }

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            DistanceCache(maxsize=0)


class TestEngineIntegration:
    """An engine's point queries cached through ``QueryPlanner(cache=)``."""

    def test_answers_unchanged_and_counted(self, graph):
        engine = DijkstraEngine(graph)
        cache = DistanceCache(maxsize=64)
        planner = QueryPlanner(engine, cache=cache)
        pairs = [(0, graph.n - 1), (3, 17), (0, graph.n - 1), (3, 17)]
        for s, t in pairs:
            [got] = planner.execute([DistanceRequest(s, t)])
            assert got == pytest.approx(distance_query(graph, s, t))
        assert cache.hits == 2
        assert cache.misses == 2
        assert planner.stats()["cache"] == cache.stats()

    def test_caches_infinity(self, graph):
        # An unreachable pair must be cached too (inf is a real answer).
        from repro.graph.builder import GraphBuilder

        b = GraphBuilder()
        b.add_node(0.0, 0.0)
        b.add_node(1.0, 0.0)
        b.add_node(2.0, 0.0)
        b.add_edge(0, 1, 1.0)
        g = b.build()
        cache = DistanceCache()
        planner = QueryPlanner(DijkstraEngine(g), cache=cache)
        assert planner.execute([DistanceRequest(0, 2)]) == [INF]
        assert planner.execute([DistanceRequest(0, 2)]) == [INF]
        assert cache.hits == 1 and cache.misses == 1

    def test_bounded_size(self, graph):
        cache = DistanceCache(maxsize=4)
        planner = QueryPlanner(DijkstraEngine(graph), cache=cache)
        for t in range(10):
            planner.execute([DistanceRequest(0, t)])
        assert len(cache) == 4

    def test_works_on_hub_labels(self, graph):
        hl = HubLabelIndex(graph)
        cache = DistanceCache(maxsize=32)
        planner = QueryPlanner(hl, cache=cache)
        want = distance_query(graph, 2, graph.n - 3)
        for _ in range(2):
            [got] = planner.execute([DistanceRequest(2, graph.n - 3)])
            assert got == pytest.approx(want)
        assert cache.stats()["hit_rate"] == 0.5
        # Batched requests bypass (and do not pollute) the cache.
        planner.execute([OneToManyRequest(0, [1, 2, 3])])
        assert cache.misses == 1 and len(cache) == 1

    def test_other_instances_unaffected(self, graph):
        # A cache belongs to the planner it is passed to: another planner
        # over the same engine caches nothing, and the engine's own
        # distance method is never wrapped.
        engine = DijkstraEngine(graph)
        cached = QueryPlanner(engine, cache=DistanceCache())
        plain = QueryPlanner(engine)
        cached.execute([DistanceRequest(0, 5)])
        assert plain.cache is None
        assert "cache" not in plain.stats()
        assert engine.distance.__func__ is DijkstraEngine.distance

"""Tests for the CSR graph substrate and the search workspaces.

The substrate contract: flat CSR columns are the canonical storage, the
``out`` / ``inn`` adjacency views are derived from them, and every search
reusing a :class:`SearchWorkspace` must answer exactly what a fresh
dict-based Dijkstra answers — the workspace is invisible in results.
"""

import random
from heapq import heappop, heappush

import pytest

from repro.baselines import HubLabelIndex
from repro.core import AHIndex, BundleCorrupted, load_bundle, save_bundle
from repro.core.serialize import bundle_bytes
from repro.datasets import grid_city, towns_and_highways
from repro.graph import Graph, GraphBuilder, SearchWorkspace
from repro.graph.traversal import (
    bidirectional_distance,
    distance_query,
    shortest_path_query,
)
from repro.graph.workspace import acquire, release

from conftest import recrc

INF = float("inf")


def random_edges(rng, n, m):
    """Distinct directed (u, v, w) triples on n nodes."""
    seen = set()
    edges = []
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, rng.uniform(0.5, 9.0)))
    return edges


def fresh_dict_dijkstra(graph, source, target):
    """The seed's dict-per-query Dijkstra, kept as the reference oracle."""
    adj = graph.out
    dist = {source: 0.0}
    settled = {}
    heap = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        if u == target:
            return d
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heappush(heap, (nd, v))
    return settled.get(target, INF)


class TestCSRRoundTrip:
    @pytest.mark.parametrize("seed", range(4))
    def test_csr_matches_builder_input(self, seed):
        rng = random.Random(seed)
        n = 30
        edges = random_edges(rng, n, 120)
        b = GraphBuilder()
        for i in range(n):
            b.add_node(rng.random(), rng.random())
        for u, v, w in edges:
            b.add_edge(u, v, w)
        g = b.build()
        assert g.n == n
        assert g.m == len(edges)
        # Forward CSR reproduces the builder's edge set exactly.
        assert sorted(g.edges()) == sorted(edges)
        # Row delimiters are consistent and monotone.
        assert g.out_head[0] == 0 and g.out_head[n] == g.m
        assert g.in_head[0] == 0 and g.in_head[n] == g.m
        assert all(
            g.out_head[u] <= g.out_head[u + 1] for u in range(n)
        )
        # The adjacency views agree with the flat columns.
        for u in range(n):
            row = g.out_dst[g.out_head[u] : g.out_head[u + 1]]
            assert [v for v, _ in g.out[u]] == list(row)
        # Reverse CSR holds the same edges keyed by target.
        rev = sorted(
            (g.in_src[e], v, g.in_w[e])
            for v in range(n)
            for e in range(g.in_head[v], g.in_head[v + 1])
        )
        assert rev == sorted(edges)

    def test_weight_columns_match(self):
        b = GraphBuilder()
        for i in range(3):
            b.add_node(i, 0)
        b.add_edge(0, 1, 1.25)
        b.add_edge(1, 2, 2.5)
        b.add_edge(2, 0, 4.0)
        g = b.build()
        assert list(g.out_w) == [1.25, 2.5, 4.0]
        assert g.edge_weight(1, 2) == 2.5
        assert g.out_degree(1) == 1 and g.in_degree(1) == 1

    def test_isolated_nodes_get_empty_rows(self):
        b = GraphBuilder()
        for i in range(5):
            b.add_node(i, 0)
        b.add_edge(0, 4, 1.0)
        g = b.build()
        for u in (1, 2, 3):
            assert g.out[u] == [] and g.inn[u] == []
            assert g.out_head[u + 1] == g.out_head[u]


class TestReversed:
    @pytest.mark.parametrize("seed", range(3))
    def test_reversed_flips_every_edge(self, seed):
        rng = random.Random(seed + 50)
        b = GraphBuilder()
        n = 25
        for i in range(n):
            b.add_node(rng.random(), rng.random())
        for u, v, w in random_edges(rng, n, 90):
            b.add_edge(u, v, w)
        g = b.build()
        r = g.reversed()
        assert sorted(r.edges()) == sorted((v, u, w) for u, v, w in g.edges())
        # Double reversal restores the original arrays verbatim (the swap
        # is pure array reuse).
        rr = r.reversed()
        assert list(rr.out_dst) == list(g.out_dst)
        assert list(rr.out_w) == list(g.out_w)

    def test_reversed_shares_arrays(self):
        g = grid_city(5, 5, seed=2)
        r = g.reversed()
        assert r.out_head is g.in_head
        assert r.in_head is g.out_head
        assert r.out_w is g.in_w


class TestWorkspaceReuse:
    def test_two_different_queries_match_fresh_dict_dijkstra(self):
        g = towns_and_highways(3, seed=4)
        rng = random.Random(9)
        pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(40)]
        # All queries run through the same pooled workspace back to back;
        # stale labels from query k must be invisible to query k+1.
        for s, t in pairs:
            want = fresh_dict_dijkstra(g, s, t)
            assert distance_query(g, s, t) == pytest.approx(want)
            assert bidirectional_distance(g, s, t) == pytest.approx(want)
        # The pool actually reused workspaces rather than growing.
        assert len(g._scratch) <= 3

    def test_versioned_reset_is_o1(self):
        ws = SearchWorkspace(100)
        c1 = ws.begin()
        ws.dist[7] = 3.5
        ws.visit[7] = c1
        c2 = ws.begin()
        assert c2 == c1 + 1
        # No clearing happened; the stale label is simply out of version.
        assert ws.dist[7] == 3.5
        assert ws.visit[7] != c2
        assert not ws.labelled(7)

    def test_acquire_release_pool(self):
        g = grid_city(4, 4, seed=1)
        a = acquire(g)
        b = acquire(g)
        assert a is not b
        release(g, a)
        assert acquire(g) is a

    def test_nested_searches_do_not_clobber(self):
        # A path query (workspace held) wrapping distance queries on the
        # same graph must be unaffected by the inner searches.
        g = grid_city(6, 6, seed=5)
        p = shortest_path_query(g, 0, 35)
        inner = [distance_query(g, s, t) for s, t in [(3, 30), (10, 2)]]
        p2 = shortest_path_query(g, 0, 35)
        assert p.nodes == p2.nodes and p.length == p2.length
        assert inner == [distance_query(g, 3, 30), distance_query(g, 10, 2)]


class SpyPool(list):
    """A drop-in ``graph._scratch`` that records pop/append traffic.

    Works for both entry points because the pool contract is just
    ``list.pop`` / ``list.append`` — which is exactly what the inlined
    fast path in ``distance_query`` and ``acquire``/``release`` use.
    """

    def __init__(self, items=()):
        super().__init__(items)
        self.min_len = len(self)
        self.popped = []

    def pop(self, *args):
        ws = super().pop(*args)
        self.min_len = min(self.min_len, len(self))
        self.popped.append(ws)
        return ws


class TestPoolDiscipline:
    """Pin the acquire/release discipline that workspace.py warns about:
    the inlined fast path in ``distance_query`` and the public pool must
    stay mirror images, concurrent searches must never share a live
    workspace, and an exception mid-query must not poison the pool."""

    def test_bidirectional_halves_use_distinct_workspaces(self):
        g = grid_city(6, 6, seed=5)
        w1, w2 = SearchWorkspace(g.n), SearchWorkspace(g.n)
        spy = SpyPool([w1, w2])
        g._scratch = spy
        bidirectional_distance(g, 0, 35)
        # Both pre-seeded workspaces were live at once (pool drained)...
        assert spy.min_len == 0
        assert spy.popped[0] is not spy.popped[1]
        # ...and both came back, no duplicates, no strays.
        assert len(spy) == 2
        assert {id(ws) for ws in spy} == {id(w1), id(w2)}

    def test_nested_search_never_reuses_a_held_workspace(self):
        g = grid_city(6, 6, seed=5)
        outer = acquire(g)  # simulate an in-flight outer search
        held_version = outer.version
        inner = [distance_query(g, s, t) for s, t in [(3, 30), (10, 2), (0, 35)]]
        # The inner searches never touched the held workspace.
        assert outer.version == held_version
        release(g, outer)
        assert inner == [distance_query(g, s, t) for s, t in [(3, 30), (10, 2), (0, 35)]]

    def test_exception_mid_query_does_not_poison_pool(self):
        class Boom:
            def __iter__(self):
                raise RuntimeError("boom")

        g = grid_city(6, 6, seed=7)
        want = {(0, 20): fresh_dict_dijkstra(g, 0, 20), (5, 33): fresh_dict_dijkstra(g, 5, 33)}
        assert distance_query(g, 0, 20) == pytest.approx(want[(0, 20)])
        pool_before = len(g._scratch)
        view = g.out  # materialise, then sabotage a row on the search path
        original_row = view[0]
        view[0] = Boom()
        with pytest.raises(RuntimeError, match="boom"):
            distance_query(g, 0, 20)
        view[0] = original_row
        # The workspace went back exactly once — no leak, no duplicate.
        assert len(g._scratch) == pool_before
        assert len({id(ws) for ws in g._scratch}) == len(g._scratch)
        # And later queries on the recycled workspace stay exact.
        assert distance_query(g, 0, 20) == pytest.approx(want[(0, 20)])
        assert distance_query(g, 5, 33) == pytest.approx(want[(5, 33)])
        assert bidirectional_distance(g, 5, 33) == pytest.approx(want[(5, 33)])

    def test_exception_in_acquire_release_path_returns_workspace(self):
        class Boom:
            def __iter__(self):
                raise RuntimeError("boom")

        g = grid_city(5, 5, seed=3)
        shortest_path_query(g, 0, 24)  # warm the pool through acquire/release
        pool_before = len(g._scratch)
        view = g.out
        original_row = view[0]
        view[0] = Boom()
        with pytest.raises(RuntimeError, match="boom"):
            shortest_path_query(g, 0, 24)
        view[0] = original_row
        assert len(g._scratch) == pool_before
        p = shortest_path_query(g, 0, 24)
        assert p.length == pytest.approx(fresh_dict_dijkstra(g, 0, 24))

    def test_inlined_fast_path_and_acquire_share_one_pool(self):
        # Direction 1: the workspace distance_query creates and releases
        # is the very object acquire() hands out next.
        g = grid_city(5, 5, seed=9)
        assert g._scratch == []
        distance_query(g, 0, 24)
        assert len(g._scratch) == 1
        ws = acquire(g)
        assert g._scratch == []
        release(g, ws)
        # Direction 2: a workspace released through release() is the one
        # the inlined fast path picks up (observable via its version).
        version_before = ws.version
        distance_query(g, 24, 0)
        assert ws.version == version_before + 1
        assert g._scratch == [ws]


class TestSerializeCSR:
    def test_graph_round_trip(self, tmp_path):
        g = towns_and_highways(3, seed=4)
        path = str(tmp_path / "g.bundle")
        save_bundle(HubLabelIndex(g), path)
        g2, _ = load_bundle(path)
        assert g2.n == g.n and g2.m == g.m
        assert list(g2.out_head) == list(g.out_head)
        assert list(g2.out_dst) == list(g.out_dst)
        assert list(g2.out_w) == list(g.out_w)
        assert list(g2.in_head) == list(g.in_head)
        assert list(g2.in_src) == list(g.in_src)
        assert list(g2.in_w) == list(g.in_w)
        assert g2.xs == g.xs and g2.ys == g.ys

    def test_graph_bad_magic_rejected(self):
        """A damaged ``GCSR1`` magic in a CRC-valid bundle fails as that
        section, not as a plain ``ValueError``."""
        data = bytearray(bundle_bytes(HubLabelIndex(grid_city(4, 4, seed=1))))
        data[0] ^= 0xFF
        with pytest.raises(BundleCorrupted, match="bad section magic") as exc_info:
            load_bundle(recrc(data))
        assert exc_info.value.section == "GCSR1"

    def test_bundle_round_trip_answers_identically(self, tmp_path):
        g = grid_city(9, 9, seed=6)
        index = AHIndex(g)
        path = str(tmp_path / "bundle.ah")
        save_bundle(index, path)
        g2, loaded = load_bundle(path)
        assert g2.n == g.n and sorted(g2.edges()) == sorted(g.edges())
        rng = random.Random(3)
        for _ in range(25):
            s, t = rng.randrange(g.n), rng.randrange(g.n)
            assert loaded.distance(s, t) == pytest.approx(index.distance(s, t))
            want = fresh_dict_dijkstra(g, s, t)
            assert loaded.distance(s, t) == pytest.approx(want)

    def test_loaded_graph_queries_without_rederiving(self):
        # load_bundle hands both CSR triples to from_csr; a query on the
        # loaded graph must work straight away (and match the original).
        g = grid_city(7, 7, seed=8)
        g2, _ = load_bundle(bundle_bytes(HubLabelIndex(g)))
        for s, t in [(0, 48), (13, 5)]:
            assert distance_query(g2, s, t) == pytest.approx(
                distance_query(g, s, t)
            )


class TestGraphConstructorCompat:
    def test_nested_list_constructor_still_works(self):
        g = Graph([0.0, 1.0], [0.0, 0.0], [[(1, 2.0)], [(0, 3.0)]])
        assert g.m == 2
        assert g.out[0] == [(1, 2.0)]
        assert g.inn[0] == [(1, 3.0)]
        assert list(g.out_dst) == [1, 0]

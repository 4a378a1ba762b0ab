"""Tests for the engine-agnostic batch planner and the cache bulk/lock layer.

The planner contract (module docstring of :mod:`repro.baselines.base`)
promises bit-identical answers to direct engine calls under any
grouping; these tests pin that per engine and tier (a hypothesis
property over batches whose rows and tables share target tuples), plus
the grouping decisions themselves (who may coalesce, who must not), the
request types' integer ids, the hub-label target-inversion memo on both
tiers, and the thread-safety of the shared :class:`DistanceCache`.
"""

import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import backend
from repro.baselines import (
    BatchCapabilities,
    CHEngine,
    DijkstraEngine,
    DistanceCache,
    DistanceRequest,
    HubLabelIndex,
    OneToManyRequest,
    QueryPlanner,
    TableRequest,
)
from repro.datasets import grid_city

INF = float("inf")

#: Kernel tiers available here; the properties run under each.
TIERS = (["native"] if backend.HAS_NATIVE else []) + ["pure"]

needs_native = pytest.mark.skipif(
    not backend.HAS_NATIVE, reason="C extension not built"
)


@pytest.fixture(scope="module")
def graph():
    return grid_city(7, 7, seed=4)


@pytest.fixture(scope="module")
def hl(graph):
    return HubLabelIndex(graph)


def _mixed_requests(graph, seed=11, count=40):
    rng = random.Random(seed)
    n = graph.n
    pool = tuple(rng.randrange(n) for _ in range(6))
    reqs = []
    for _ in range(count):
        k = rng.random()
        if k < 0.5:
            # Skewed sources so shared-source groups actually form.
            reqs.append(
                DistanceRequest(rng.randrange(5), rng.randrange(n))
            )
        elif k < 0.8:
            reqs.append(OneToManyRequest(rng.randrange(n), pool))
        else:
            reqs.append(TableRequest((0, 3, rng.randrange(n)), pool))
    return reqs


def _direct(engine, req):
    if isinstance(req, DistanceRequest):
        return engine.distance(req.source, req.target)
    if isinstance(req, OneToManyRequest):
        return engine.one_to_many(req.source, req.targets)
    return engine.distance_table(req.sources, req.targets)


class TestPlannerParity:
    @pytest.mark.parametrize("factory", [DijkstraEngine, CHEngine])
    def test_bit_identical_to_direct_calls(self, graph, factory):
        engine = factory(graph)
        reqs = _mixed_requests(graph)
        got = QueryPlanner(engine).execute(reqs)
        for req, result in zip(reqs, got):
            assert result == _direct(engine, req), req

    def test_bit_identical_on_hl(self, graph, hl):
        reqs = _mixed_requests(graph)
        got = QueryPlanner(hl).execute(reqs)
        for req, result in zip(reqs, got):
            assert result == _direct(hl, req), req

    def test_parity_with_cache_attached(self, graph, hl):
        reqs = _mixed_requests(graph)
        planner = QueryPlanner(hl, cache=DistanceCache(256))
        first = planner.execute(reqs)
        second = planner.execute(reqs)  # now largely cache-served
        want = [_direct(hl, req) for req in reqs]
        assert first == want
        assert second == want
        assert planner.stats()["cache_hits"] > 0

    def test_empty_batch_and_empty_targets(self, hl):
        planner = QueryPlanner(hl)
        assert planner.execute([]) == []
        [row] = planner.execute([OneToManyRequest(0, ())])
        assert row == []

    def test_unknown_request_type_raises(self, hl):
        with pytest.raises(TypeError):
            QueryPlanner(hl).execute([("distance", 0, 1)])


class TestPlannerGrouping:
    def test_shared_source_points_coalesce_on_hl(self, hl):
        planner = QueryPlanner(hl)
        reqs = [DistanceRequest(2, t) for t in (5, 9, 13, 21)]
        got = planner.execute(reqs)
        assert got == [hl.distance(2, t) for t in (5, 9, 13, 21)]
        stats = planner.stats()
        assert stats["kernel_one_to_many"] == 1
        assert stats["kernel_distance"] == 0
        assert stats["coalesced_point_queries"] == 4

    def test_ch_never_coalesces_point_queries(self, graph):
        # CH's point query sums shortcut weights in a different
        # association than a fresh Dijkstra; capabilities must keep the
        # planner from trading exactness for grouping.
        ch = CHEngine(graph)
        assert not ch.batch_capabilities().exact_point_coalescing
        planner = QueryPlanner(ch)
        reqs = [DistanceRequest(2, t) for t in (5, 9, 13)]
        got = planner.execute(reqs)
        assert got == [ch.distance(2, t) for t in (5, 9, 13)]
        stats = planner.stats()
        assert stats["kernel_distance"] == 3
        assert stats["kernel_one_to_many"] == 0

    def test_singleton_groups_use_direct_distance(self, hl):
        planner = QueryPlanner(hl)
        planner.execute([DistanceRequest(1, 2), DistanceRequest(3, 4)])
        stats = planner.stats()
        assert stats["kernel_distance"] == 2
        assert stats["coalesced_point_queries"] == 0

    def test_same_target_rows_merge_into_table(self, hl):
        planner = QueryPlanner(hl)
        pool = (1, 5, 9)
        reqs = [OneToManyRequest(s, pool) for s in (0, 7, 20)]
        got = planner.execute(reqs)
        assert got == [hl.one_to_many(s, pool) for s in (0, 7, 20)]
        stats = planner.stats()
        assert stats["kernel_distance_table"] == 1
        assert stats["merged_one_to_many"] == 3

    def test_tables_with_shared_targets_concatenate(self, hl):
        planner = QueryPlanner(hl)
        pool = (2, 8, 11)
        reqs = [TableRequest((0, 1), pool), TableRequest((5, 6, 7), pool)]
        first, second = planner.execute(reqs)
        assert first == hl.distance_table((0, 1), pool)
        assert second == hl.distance_table((5, 6, 7), pool)
        assert planner.stats()["kernel_distance_table"] == 1

    def test_rows_and_tables_sharing_targets_share_one_call(self, hl):
        planner = QueryPlanner(hl)
        pool = (2, 8, 11)
        reqs = [
            OneToManyRequest(4, pool),
            TableRequest((0, 1), pool),
            DistanceRequest(3, 5),
            OneToManyRequest(8, pool),
            TableRequest((), pool),
        ]
        got = planner.execute(reqs)
        assert got == [_direct(hl, req) for req in reqs]
        stats = planner.stats()
        assert stats["kernel_distance_table"] == 1
        assert stats["kernel_one_to_many"] == 0
        assert stats["merged_one_to_many"] == 2
        assert stats["merged_tables"] == 2

    def test_lone_row_and_lone_table_keep_direct_calls(self, hl):
        planner = QueryPlanner(hl)
        reqs = [OneToManyRequest(4, (2, 8)), TableRequest((0, 1), (3, 9))]
        assert planner.execute(reqs) == [_direct(hl, req) for req in reqs]
        stats = planner.stats()
        assert stats["kernel_one_to_many"] == 1
        assert stats["kernel_distance_table"] == 1
        assert stats["merged_one_to_many"] == stats["merged_tables"] == 0

    def test_base_engines_skip_table_merging(self, graph):
        # The fallback distance_table is one search per source anyway;
        # merging would buy nothing, so the planner answers per request.
        dj = DijkstraEngine(graph)
        assert not dj.batch_capabilities().native_batching
        planner = QueryPlanner(dj)
        pool = (2, 8)
        planner.execute([OneToManyRequest(0, pool), OneToManyRequest(1, pool)])
        assert planner.stats()["kernel_one_to_many"] == 2

    def test_capabilities_defaults(self, graph):
        caps = CHEngine(graph).batch_capabilities()
        assert caps == BatchCapabilities()
        dj = DijkstraEngine(graph).batch_capabilities()
        assert dj.exact_point_coalescing and not dj.native_batching
        hl_caps = HubLabelIndex(graph).batch_capabilities()
        assert hl_caps.native_batching and hl_caps.exact_point_coalescing


@st.composite
def shared_target_batches(draw, n):
    """Batches mixing points, rows and tables on 1-3 target tuples.

    The tuples may be empty or repeat a node; sources come mostly from
    a few low ids and from the tuples' own nodes, so repeated sources
    and ``source == target`` cells are common.
    """
    node = st.integers(0, n - 1)
    tuples = draw(
        st.lists(
            st.one_of(st.just(()), st.lists(node, min_size=1, max_size=6).map(tuple)),
            min_size=1,
            max_size=3,
        )
    )
    named = sorted({t for targets in tuples for t in targets}) or [0]
    source = st.one_of(st.integers(0, 3), st.sampled_from(named), node)
    targets = st.sampled_from(tuples)
    request = st.one_of(
        st.builds(DistanceRequest, source, st.one_of(source, node)),
        st.builds(OneToManyRequest, source, targets),
        st.builds(TableRequest, st.lists(source, max_size=4), targets),
    )
    return draw(st.lists(request, min_size=1, max_size=16))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_planner_matches_direct_calls_on_shared_target_tuples(graph, hl, data):
    """On both tiers every answer is ``==`` the direct engine call, and
    each target tuple shared by two or more rows and tables costs one
    ``distance_table`` call.  A lone table keeps its own direct call,
    which the planner counts as a table call too."""
    requests = data.draw(shared_target_batches(graph.n))
    users = Counter(r.targets for r in requests if not isinstance(r, DistanceRequest))
    shared = sum(1 for count in users.values() if count >= 2)
    lone_tables = sum(
        1 for r in requests if isinstance(r, TableRequest) and users[r.targets] == 1
    )
    for tier in TIERS:
        with backend.forced(tier):
            planner = QueryPlanner(hl)
            got = planner.execute(requests)
            want = [_direct(hl, req) for req in requests]
        assert got == want, tier
        assert planner.stats()["kernel_distance_table"] == shared + lone_tables, tier


class _Id:
    """A minimal ``__index__`` type: an integer id that is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class TestRequestIds:
    def test_ints_bools_and_index_types_become_plain_ints(self):
        point = DistanceRequest(_Id(3), True)
        row = OneToManyRequest(False, [_Id(12), 4, True])
        table = TableRequest((_Id(2), 5), range(3))
        assert (point.source, point.target) == (3, 1)
        assert (row.source, row.targets) == (0, (12, 4, 1))
        assert (table.sources, table.targets) == ((2, 5), (0, 1, 2))
        ids = (point.source, point.target, row.source, *row.targets, *table.sources)
        assert all(type(v) is int for v in ids)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DistanceRequest(0.9, 3.7),
            lambda: DistanceRequest(0, "3"),
            lambda: OneToManyRequest(0, ["12", 4.99]),
            lambda: OneToManyRequest(1.0, [1]),
            lambda: TableRequest([0, 2.5], [1]),
            lambda: TableRequest([0], [1, "2"]),
        ],
        ids=[
            "float-point", "str-target", "str-and-float-row", "float-source",
            "float-table-source", "str-table-target",
        ],
    )
    def test_non_integer_ids_raise_type_error(self, make):
        """A float or a string is not truncated or parsed into a node
        the caller never named."""
        with pytest.raises(TypeError):
            make()


class TestPlannerCacheDiscipline:
    def test_cache_consulted_per_group_not_per_call(self, hl):
        cache = DistanceCache(256)
        planner = QueryPlanner(hl, cache=cache)
        reqs = [DistanceRequest(0, t) for t in (5, 9, 13)]
        planner.execute(reqs)
        assert cache.misses == 3 and cache.hits == 0
        planner.execute(reqs)
        assert cache.misses == 3 and cache.hits == 3

    def test_batched_requests_bypass_cache(self, hl):
        cache = DistanceCache(256)
        planner = QueryPlanner(hl, cache=cache)
        planner.execute([OneToManyRequest(0, (1, 2)), TableRequest((0,), (1, 2))])
        assert len(cache) == 0 and cache.misses == 0


class TestDistanceCacheConcurrency:
    def test_bulk_ops_match_scalar_semantics(self):
        cache = DistanceCache(maxsize=4)
        cache.store_many([((0, i), float(i)) for i in range(6)])
        assert len(cache) == 4  # bound enforced during the bulk store
        got = cache.lookup_many([(0, 4), (0, 0), (0, 5)])
        assert got == [4.0, None, 5.0]
        assert cache.hits == 2 and cache.misses == 1

    def test_lookup_many_refreshes_recency(self):
        cache = DistanceCache(maxsize=2)
        cache.store_many([((0, 1), 1.0), ((0, 2), 2.0)])
        cache.lookup_many([(0, 1)])  # (0, 1) becomes most-recent
        cache.store_many([((0, 3), 3.0)])  # evicts (0, 2)
        assert cache.lookup_many([(0, 2), (0, 1)]) == [None, 1.0]

    def test_threaded_hammer_keeps_counters_consistent(self):
        # A pool's dispatch thread and its callers' threads share one
        # instance.  8 threads interleave single-key and batched
        # lookups/stores; under the lock, hits + misses must equal the
        # exact number of lookups issued and the LRU bound must hold.
        cache = DistanceCache(maxsize=64)
        lookups_per_thread = 500
        threads = 8
        barrier = threading.Barrier(threads)

        def worker(seed):
            rng = random.Random(seed)
            barrier.wait()
            for i in range(lookups_per_thread // 2):
                key = (seed, rng.randrange(32))
                if cache.lookup_many([key]) == [None]:
                    cache.store_many([(key, float(i))])
            keys = [(seed, rng.randrange(32)) for _ in range(lookups_per_thread // 2)]
            found = cache.lookup_many(keys)
            cache.store_many(
                (k, 1.0) for k, v in zip(keys, found) if v is None
            )

        pool = [threading.Thread(target=worker, args=(s,)) for s in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == threads * lookups_per_thread
        assert len(cache) <= 64


class TestTargetInversionMemo:
    def test_memo_hit_on_repeated_target_tuple(self, hl):
        with backend.forced("pure"):
            hl.clear_target_inversions()
            pool = (1, 4, 9, 16)
            first = hl.distance_table((0, 2), pool)
            second = hl.distance_table((3, 5), pool)
            assert hl.target_inversion_stats()["misses"] == 1
            assert hl.target_inversion_stats()["hits"] == 1
        # And the memoized inversion must not change answers.
        assert first == [hl.one_to_many(s, pool) for s in (0, 2)]
        assert second == [hl.one_to_many(s, pool) for s in (3, 5)]

    def test_memo_shared_across_threads(self, hl):
        # The memo's lock lets threads share one index: 4 threads run
        # the pure table kernel over shared and distinct target tuples.
        # Answers must equal the single-threaded ones, and every call
        # must count exactly one memo hit or miss.
        shared = (1, 4, 9, 16)
        jobs = [
            [((s, s + 1), shared if k % 2 else (s, 10 + k // 2, 48)) for k in range(40)]
            for s in range(4)
        ]
        with backend.forced("pure"):
            want = [[hl.distance_table(*job) for job in jobs_] for jobs_ in jobs]
            hl.clear_target_inversions()
            got = [None] * len(jobs)
            barrier = threading.Barrier(len(jobs))

            def worker(i):
                barrier.wait()
                got[i] = [hl.distance_table(*job) for job in jobs[i]]

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads as often as possible
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            stats = hl.target_inversion_stats()
        assert got == want
        assert stats["hits"] + stats["misses"] == sum(len(j) for j in jobs)
        assert stats["hits"] > 0

    def test_memo_eviction_bound(self, hl):
        with backend.forced("pure"):
            hl.clear_target_inversions()
            for i in range(hl._tinv_max + 5):
                hl.distance_table((0,), (i, i + 1))
            assert hl.target_inversion_stats()["size"] <= hl._tinv_max

    @needs_native
    def test_native_memo_counts_hits_and_misses(self, hl):
        pool = (1, 4, 9, 16)
        with backend.forced("pure"):
            want = [hl.distance_table(s, pool) for s in ((0, 2), (3, 5))]
        with backend.forced("native"):
            hl.clear_target_inversions()
            got = [hl.distance_table(s, pool) for s in ((0, 2), (3, 5))]
            stats = hl.target_inversion_stats()
        assert got == want
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 1, 1)

    @needs_native
    def test_pure_and_native_entries_kept_apart(self, hl):
        pool = (1, 4, 9)
        hl.clear_target_inversions()
        with backend.forced("pure"):
            pure = hl.distance_table((0, 7), pool)
        with backend.forced("native"):
            native = hl.distance_table((0, 7), pool)
        assert native == pure
        assert hl.target_inversion_stats() == {
            "hits": 0, "misses": 2, "size": 2, "maxsize": hl._tinv_max,
        }

    @needs_native
    def test_native_memo_evicts_least_recently_used(self, hl):
        tuples = [(i, i + 1, 40 - i) for i in range(hl._tinv_max + 1)]

        def sources(targets):
            return (0, 3, targets[0])

        with backend.forced("pure"):
            want = {t: hl.distance_table(sources(t), t) for t in tuples}
        with backend.forced("native"):
            hl.clear_target_inversions()

            def ask(t):
                assert hl.distance_table(sources(t), t) == want[t]
                stats = hl.target_inversion_stats()
                return stats["hits"], stats["misses"], stats["size"]

            for k, t in enumerate(tuples[:-1]):
                assert ask(t) == (0, k + 1, k + 1)
            assert ask(tuples[0]) == (1, 8, 8)  # a hit refreshes tuples[0]
            # The ninth distinct tuple evicts the least recently used
            # one, tuples[1]; tuples[0] stays.
            assert ask(tuples[-1]) == (1, 9, 8)
            assert ask(tuples[0]) == (2, 9, 8)
            assert ask(tuples[1]) == (2, 10, 8)
            hl.clear_target_inversions()
            assert hl.target_inversion_stats()["size"] == 0
            assert ask(tuples[2]) == (0, 1, 1)

    @needs_native
    def test_native_memo_evictions_race_joins_safely(self, hl):
        """Four threads cycle through twelve tuples, more than the memo
        holds, so entries are evicted while other threads' joins read
        them; every answer must equal the single-threaded pure one."""
        tuples = [(i, 2 * i + 1, 48 - i) for i in range(12)]
        jobs = [
            [((s, 10 + s), tuples[(k * (s + 1)) % len(tuples)]) for k in range(60)]
            for s in range(4)
        ]
        with backend.forced("pure"):
            want = [[hl.distance_table(*job) for job in jobs_] for jobs_ in jobs]
        got = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def worker(i):
            barrier.wait()
            got[i] = [hl.distance_table(*job) for job in jobs[i]]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with backend.forced("native"):  # the tier is process-wide
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want
        assert hl.target_inversion_stats()["size"] <= hl._tinv_max

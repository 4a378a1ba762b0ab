"""Tests for the asyncio serving front-end (:mod:`repro.serve`).

The load-bearing property is the coalescer's exactness: *any*
interleaving of concurrent ``submit()`` calls, under any batching
policy, must return bit-identical results to direct engine calls — on
both backends.  Hypothesis drives that; deterministic companions pin
deadline expiry, backpressure (wait and reject), lifecycle and the
stats surface.
"""

import asyncio
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import backend
from repro.baselines import DijkstraEngine, DistanceCache, HubLabelIndex
from repro.datasets import grid_city
from repro.serve import (
    DeadlineExpired,
    DistanceRequest,
    OneToManyRequest,
    Server,
    ServerClosed,
    ServerOverloaded,
    TableRequest,
)

INF = float("inf")

#: Tiers the coalescer property runs under (native when it is loaded).
BACKENDS = (["native"] if backend.HAS_NATIVE else []) + ["pure"]


@pytest.fixture(scope="module")
def graph():
    return grid_city(6, 6, seed=8)


@pytest.fixture(scope="module")
def hl(graph):
    return HubLabelIndex(graph)


def _direct(engine, req):
    if isinstance(req, DistanceRequest):
        return engine.distance(req.source, req.target)
    if isinstance(req, OneToManyRequest):
        return engine.one_to_many(req.source, req.targets)
    return engine.distance_table(req.sources, req.targets)


# ----------------------------------------------------------------------
# The coalescer exactness property (the ISSUE's hypothesis pin)
# ----------------------------------------------------------------------
def _request_strategy(n):
    node = st.integers(min_value=0, max_value=n - 1)
    targets = st.lists(node, min_size=0, max_size=6).map(tuple)
    return st.one_of(
        st.tuples(node, node).map(lambda p: DistanceRequest(*p)),
        st.tuples(node, targets).map(lambda p: OneToManyRequest(*p)),
        st.tuples(targets, targets).map(lambda p: TableRequest(*p)),
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_interleaving_matches_direct_calls(graph, hl, data):
    """Concurrent submits under a random policy = direct engine answers.

    Hypothesis picks the request mix, how requests are sharded across
    closed-loop clients (which fixes the interleaving the event loop
    realises), the batching window, the batch bound, and the queue
    bound — results must be bit-identical to per-request engine calls
    on every backend.
    """
    n = graph.n
    requests = data.draw(
        st.lists(_request_strategy(n), min_size=1, max_size=24)
    )
    n_clients = data.draw(st.integers(min_value=1, max_value=len(requests)))
    window_s = data.draw(st.sampled_from([0.0, 0.001]))
    max_batch = data.draw(st.integers(min_value=1, max_value=32))
    shuffle_seed = data.draw(st.integers(min_value=0, max_value=2**16))

    # Shard requests across clients round-robin, then shuffle client
    # start order; each client awaits each answer (closed loop).
    shards = [requests[i::n_clients] for i in range(n_clients)]
    order = list(range(n_clients))
    random.Random(shuffle_seed).shuffle(order)

    want = [[_direct(hl, req) for req in shard] for shard in shards]

    async def client(server, shard, out, idx):
        results = []
        for req in shard:
            results.append(await server.submit(req))
        out[idx] = results

    async def main():
        server = Server(
            hl,
            cache=DistanceCache(512),
            window_s=window_s,
            max_batch=max_batch,
        )
        out = [None] * n_clients
        async with server:
            await asyncio.gather(
                *(client(server, shards[i], out, i) for i in order)
            )
        return out

    for name in BACKENDS:
        with backend.forced(name):
            got = asyncio.run(main())
        assert got == want, f"backend {name}: coalesced != direct"


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_request_is_shed_not_computed(self, hl):
        async def main():
            async with Server(hl) as server:
                before = server.planner.stats()["requests_distance"]
                with pytest.raises(DeadlineExpired):
                    # A deadline already in the past when the coalescer
                    # drains: the request must fail without running.
                    await server.distance(0, 5, timeout=-1.0)
                stats = server.stats()
                assert stats["expired"] == 1
                assert server.planner.stats()["requests_distance"] == before
                # The server keeps serving afterwards.
                assert await server.distance(0, 5) == hl.distance(0, 5)

        asyncio.run(main())

    def test_generous_deadline_is_met(self, hl):
        async def main():
            async with Server(hl) as server:
                d = await server.distance(0, 5, timeout=30.0)
                assert d == hl.distance(0, 5)
                assert server.stats()["expired"] == 0

        asyncio.run(main())

    def test_deadline_bounds_backpressure_wait(self, hl):
        # A large window keeps the first request parked in the queue, so
        # the second submit blocks on backpressure (max_queue=1); its
        # deadline must fire *during* that wait, not start after it.
        async def main():
            async with Server(hl, max_queue=1, window_s=0.3) as server:
                first = asyncio.ensure_future(server.distance(0, 5))
                await asyncio.sleep(0.01)  # first is queued, window open
                with pytest.raises(DeadlineExpired, match="capacity"):
                    await server.distance(1, 6, timeout=0.05)
                assert server.stats()["expired"] == 1
                return await first

        assert asyncio.run(main()) == hl.distance(0, 5)


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_reject_mode_sheds_excess_load(self, hl):
        async def main():
            async with Server(hl, max_queue=4, overflow="reject") as server:
                served = rejected = 0

                async def burst(i):
                    nonlocal served, rejected
                    try:
                        await server.distance(i % 36, (i * 5) % 36)
                        served += 1
                    except ServerOverloaded:
                        rejected += 1

                await asyncio.gather(*(burst(i) for i in range(40)))
                stats = server.stats()
                assert served + rejected == 40
                assert rejected > 0 and served >= 4
                assert stats["rejected"] == rejected
                assert stats["peak_queue_depth"] <= 4

        asyncio.run(main())

    def test_wait_mode_serves_everything_within_bound(self, hl):
        pairs = [(i % 36, (i * 7) % 36) for i in range(50)]
        want = [hl.distance(s, t) for s, t in pairs]

        async def main():
            async with Server(hl, max_queue=3, overflow="wait") as server:
                got = await asyncio.gather(
                    *(server.distance(s, t) for s, t in pairs)
                )
                stats = server.stats()
                assert stats["peak_queue_depth"] <= 3
                assert stats["rejected"] == 0
                return got

        assert asyncio.run(main()) == want

    def test_invalid_policy_rejected(self, hl):
        with pytest.raises(ValueError):
            Server(hl, max_batch=0)
        with pytest.raises(ValueError):
            Server(hl, max_queue=0)
        with pytest.raises(ValueError):
            Server(hl, window_s=-0.1)
        with pytest.raises(ValueError):
            Server(hl, overflow="drop")


# ----------------------------------------------------------------------
# Lifecycle + misc
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_submit_after_close_raises(self, hl):
        async def main():
            server = Server(hl)
            await server.start()
            assert await server.distance(0, 1) == hl.distance(0, 1)
            await server.close()
            with pytest.raises(ServerClosed):
                await server.distance(0, 1)
            await server.close()  # idempotent

        asyncio.run(main())

    def test_close_drains_queued_requests(self, hl):
        async def main():
            server = Server(hl)
            await server.start()
            futures = [
                asyncio.ensure_future(server.distance(i, 35 - i))
                for i in range(8)
            ]
            await asyncio.sleep(0)  # let every submit reach the queue
            await server.close()
            return await asyncio.gather(*futures)

        got = asyncio.run(main())
        assert got == [hl.distance(i, 35 - i) for i in range(8)]

    def test_submit_lazily_starts_coalescer(self, hl):
        async def main():
            server = Server(hl)
            try:
                return await server.distance(3, 30)
            finally:
                await server.close()

        assert asyncio.run(main()) == hl.distance(3, 30)

    def test_submit_rejects_non_request(self, hl):
        async def main():
            async with Server(hl) as server:
                with pytest.raises(TypeError):
                    await server.submit((0, 1))

        asyncio.run(main())

    def test_caller_cancellation_is_survived(self, hl):
        async def main():
            async with Server(hl, window_s=0.01) as server:
                task = asyncio.ensure_future(server.distance(0, 35))
                await asyncio.sleep(0)  # let it enqueue
                task.cancel()
                # The server must note the cancellation and keep serving.
                assert await server.distance(0, 35) == hl.distance(0, 35)
                assert server.stats()["cancelled"] == 1

        asyncio.run(main())

    def test_engine_error_fails_batch_not_server(self, graph):
        poison = graph.n - 1

        class ExplodingEngine(DijkstraEngine):
            def distance(self, source, target):
                if target == poison:
                    raise RuntimeError("boom")
                return super().distance(source, target)

        engine = ExplodingEngine(graph)

        async def main():
            async with Server(engine) as server:
                with pytest.raises(RuntimeError, match="boom"):
                    await server.submit(DistanceRequest(0, poison))
                # Later batches still succeed.
                return await server.distance(0, 5)

        assert asyncio.run(main()) == engine.distance(0, 5)

    def test_invalid_node_ids_confined_to_their_caller(self, hl, graph):
        # A malformed request must be rejected at submit() — before it
        # can join a batch and fail every innocent request coalesced
        # alongside it.
        async def main():
            async with Server(hl) as server:
                good = [
                    asyncio.ensure_future(server.distance(i, 20))
                    for i in range(8)
                ]
                with pytest.raises(ValueError, match="outside"):
                    await server.distance(0, graph.n)
                with pytest.raises(ValueError, match="outside"):
                    await server.one_to_many(0, (1, -3))
                with pytest.raises(ValueError, match="outside"):
                    await server.submit(TableRequest((0, graph.n + 7), (1,)))
                return await asyncio.gather(*good)

        got = asyncio.run(main())
        assert got == [hl.distance(i, 20) for i in range(8)]

    def test_range_check_accepts_every_id_in_range(self, hl, graph):
        """Empty id tuples and ids at both ends of ``[0, n)`` pass, and
        an id one past either end fails, for rows and tables alike."""
        last = graph.n - 1

        async def main():
            async with Server(hl) as server:
                answers = [
                    await server.one_to_many(0, ()),
                    await server.one_to_many(last, (0, last, 3)),
                    await server.distance_table((), (0, last)),
                    await server.distance_table((0, last), ()),
                    await server.distance_table((last, 0), (last, 0)),
                ]
                for bad in (
                    TableRequest((0,), (last + 1,)),
                    TableRequest((-1,), (0,)),
                    OneToManyRequest(0, (0, -1, last)),
                    OneToManyRequest(last + 1, ()),
                ):
                    with pytest.raises(ValueError, match="outside"):
                        await server.submit(bad)
                return answers

        assert asyncio.run(main()) == [
            [],
            hl.one_to_many(last, (0, last, 3)),
            [],
            [[], []],
            hl.distance_table((last, 0), (last, 0)),
        ]

    def test_non_integer_ids_fail_before_anything_is_queued(self, hl):
        async def main():
            async with Server(hl) as server:
                with pytest.raises(TypeError):
                    await server.distance(0.9, 3)
                with pytest.raises(TypeError):
                    await server.one_to_many(0, ["12", 4.99])
                with pytest.raises(TypeError):
                    await server.distance_table([0, 1.5], [2])
                return server.stats()["submitted"]

        assert asyncio.run(main()) == 0


class TestStatsSurface:
    def test_histogram_and_depth_accounting(self, hl):
        async def main():
            async with Server(hl) as server:
                await asyncio.gather(*(server.distance(i, 20) for i in range(16)))
                await server.distance(0, 1)
                return server.stats()

        stats = asyncio.run(main())
        assert stats["submitted"] == 17
        assert stats["completed"] == 17
        assert stats["batches"] >= 2
        assert sum(stats["batch_size_histogram"].values()) == stats["batches"]
        assert stats["largest_batch"] >= 16
        assert stats["queue_depth"] == 0
        assert stats["peak_queue_depth"] >= 16
        assert stats["planner"]["engine"] == "HL"
        assert stats["policy"] == {
            "tier": "inline",
            "window_s": 0.0,
            "max_batch": 1024,
            "max_queue": 65536,
            "overflow": "wait",
        }

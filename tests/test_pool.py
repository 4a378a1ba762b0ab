"""Tests for the multi-process worker tier (PR 5).

Five load-bearing properties:

* **Pool exactness**: for any request mix, ``WorkerPool.execute`` is
  bit-identical to the single-process ``QueryPlanner`` path, with the
  worker replicas running either backend (hypothesis-pinned).
* **Crash containment**: a killed worker is respawned from the bundle
  and its in-flight sub-batch retried (transparent) or failed cleanly
  (poisonous batch) — never hung, never poisoning batch-mates, never
  shrinking the pool.
* **Buffer/path serialization**: bundles load from bytes and from
  paths, answer identically, and re-save byte-identically; pools boot
  from a bundle path only.
* **Lane lifecycle**: oversized replies and requests ride the pipe
  in-band, the rings wrap, lanes survive worker crash + respawn with a
  reply in flight, and ``close`` unlinks every segment — nothing
  outlives the pool in ``/dev/shm``.
* **One wire format**: every request kind (subclasses included) packs
  into REQCOL columns and round-trips exactly; anything else is refused
  before a single byte is sent.
"""

import asyncio
import io
import os
import pathlib
import signal
import struct
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import backend
from repro.baselines import DistanceCache, HubLabelIndex
from repro.baselines.base import (
    DistanceRequest,
    OneToManyRequest,
    QueryPlanner,
    TableRequest,
)
from repro.bench.harness import run_open_loop
from repro.core.serialize import (
    bundle_bytes,
    load_bundle,
    pack_requests,
    save_bundle,
    unpack_requests,
)
from repro.datasets import grid_city
from repro.serve import ReplyCorrupted, Server, WorkerCrashed, WorkerPool
from repro.serve import pool as pool_module
from repro.serve.pool import CrashRequest, plan_split

INF = float("inf")

#: Tiers the parity properties run under (all available kernel tiers).
BACKENDS = (["native"] if backend.HAS_NATIVE else []) + ["pure"]


@pytest.fixture(scope="module")
def graph():
    return grid_city(6, 6, seed=8)


@pytest.fixture(scope="module")
def hl(graph):
    return HubLabelIndex(graph)


@pytest.fixture(scope="module")
def blob(hl):
    return bundle_bytes(hl)


@pytest.fixture(scope="module")
def pools(bundle_path):
    """One 2-worker pool per backend, shared across the module's tests."""
    out = {}
    for name in BACKENDS:
        with backend.forced(name):
            out[backend.active()] = WorkerPool(bundle_path, workers=2)
    yield out
    for pool in out.values():
        pool.close()


def _direct(engine, req):
    if isinstance(req, DistanceRequest):
        return engine.distance(req.source, req.target)
    if isinstance(req, OneToManyRequest):
        return engine.one_to_many(req.source, req.targets)
    return engine.distance_table(req.sources, req.targets)


def _request_strategy(n):
    node = st.integers(min_value=0, max_value=n - 1)
    targets = st.lists(node, min_size=0, max_size=6).map(tuple)
    return st.one_of(
        st.tuples(node, node).map(lambda p: DistanceRequest(*p)),
        st.tuples(node, targets).map(lambda p: OneToManyRequest(*p)),
        st.tuples(targets, targets).map(lambda p: TableRequest(*p)),
    )


# ----------------------------------------------------------------------
# Pool exactness (the ISSUE's hypothesis pin)
# ----------------------------------------------------------------------
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_pool_matches_single_process_planner(graph, hl, pools, data):
    """Pool answers == single-process planner answers, bit for bit.

    The workers of each pool were booted under their backend (the pool
    was built inside ``backend.forced``), the reference planner runs
    under the same backend in this process — so the property also
    crosses the process boundary for both kernel families.
    """
    requests = data.draw(
        st.lists(_request_strategy(graph.n), min_size=1, max_size=24)
    )
    for name in BACKENDS:
        with backend.forced(name):
            want = QueryPlanner(hl).execute(requests)
            got = pools[backend.active()].execute(requests)
        assert got == want


def test_pool_results_are_plain_floats(hl, pools):
    """The packed-f64 transport must hand back the planner's types."""
    pool = pools[backend.active()]
    out = pool.execute(
        [
            DistanceRequest(0, 7),
            OneToManyRequest(3, (1, 2, 3)),
            TableRequest((0, 4), (5, 6)),
        ]
    )
    assert type(out[0]) is float
    assert all(type(v) is float for v in out[1])
    assert all(type(v) is float for row in out[2] for v in row)
    assert out[1][2] == 0.0  # self-distance survives the trip


def test_pool_shared_cache_hits(bundle_path, hl):
    reqs = [DistanceRequest(i, 35 - i) for i in range(12)]
    with WorkerPool(bundle_path, workers=2, cache=DistanceCache(256)) as pool:
        first = pool.execute(reqs)
        second = pool.execute(reqs)
        assert first == second == QueryPlanner(hl).execute(reqs)
        stats = pool.stats()["cache"]
        assert stats["hits"] >= len(reqs)  # the whole second batch


def test_pool_empty_and_closed(bundle_path):
    pool = WorkerPool(bundle_path, workers=2)
    assert pool.execute([]) == []
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError):
        pool.execute([DistanceRequest(0, 1)])


def test_pool_rejects_bad_bundle(hl, blob):
    for bad in (12345, hl, blob, bytearray(blob), memoryview(blob)):  # not a path
        with pytest.raises(TypeError):
            WorkerPool(bad)


class _BytesPath:
    """An ``os.PathLike`` whose path is ``bytes``, not ``str``."""

    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return os.fsencode(self.path)


def test_pool_boots_from_a_pathlike(bundle_path, hl):
    """A ``pathlib.Path`` boots the pool as its ``str`` does, and the
    worker spec (what respawns boot from) keeps the ``str``."""
    reqs = [DistanceRequest(0, 35), OneToManyRequest(3, (1, 7, 30))]
    with WorkerPool(pathlib.Path(bundle_path), workers=1) as pool:
        assert pool._spec["bundle"] == bundle_path
        assert pool.execute(reqs) == QueryPlanner(hl).execute(reqs)
    with pytest.raises(TypeError):
        WorkerPool(_BytesPath(bundle_path))


# ----------------------------------------------------------------------
# Reply decoding: one float64 per expected answer, no more, no less
# ----------------------------------------------------------------------
_REPLY_REQS = [
    OneToManyRequest(0, [1, 2, 3]),
    DistanceRequest(4, 5),
    TableRequest([1], [2, 3]),
]
_REPLY = array("d", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).tobytes()


@pytest.mark.parametrize(
    "reply",
    [_REPLY[:-16], _REPLY + bytes(16), _REPLY[:-3]],
    ids=["16-bytes-short", "16-bytes-extra", "not-a-multiple-of-8"],
)
def test_unpack_results_rejects_wrong_length(reply):
    with pytest.raises(ReplyCorrupted):
        pool_module._unpack_results(_REPLY_REQS, reply)


def test_wrong_length_reply_takes_the_retry_path(bundle_path, monkeypatch):
    """Workers fork from this process, so they inherit a packer that
    appends 16 bytes to every reply: each reply fails its length check,
    is retried like a CRC failure, and the sub-batch ends typed."""
    if pool_module._default_context_name() != "fork":
        pytest.skip("workers inherit the patched packer only under fork")
    pack = pool_module._pack_results
    monkeypatch.setattr(
        pool_module, "_pack_results", lambda reqs, res: pack(reqs, res) + bytes(16)
    )
    with WorkerPool(bundle_path, workers=1, max_retries=1) as pool:
        [out] = pool.execute([DistanceRequest(0, 7)], return_exceptions=True)
        assert isinstance(out, ReplyCorrupted)
        assert pool.stats()["resilience"]["retry"]["attempts"] == 1


# ----------------------------------------------------------------------
# Split planning
# ----------------------------------------------------------------------
def test_plan_split_preserves_requests_and_groups():
    reqs = [
        (0, DistanceRequest(1, 2)),
        (1, DistanceRequest(1, 3)),  # same source as 0: one group
        (2, OneToManyRequest(4, (5, 6))),
        (3, OneToManyRequest(7, (5, 6))),  # same targets as 2: one group
        (4, TableRequest((1, 2), (8, 9))),
    ]
    buckets = plan_split(reqs, 3)
    flat = sorted(i for bucket in buckets for i, _ in bucket)
    assert flat == [0, 1, 2, 3, 4]  # every request exactly once
    where = {i: w for w, bucket in enumerate(buckets) for i, _ in bucket}
    # small groups stay whole on one worker
    assert where[0] == where[1]
    assert where[2] == where[3]
    # determinism
    again = plan_split(reqs, 3)
    assert [[i for i, _ in b] for b in again] == [
        [i for i, _ in b] for b in buckets
    ]


def test_plan_split_chunks_dominant_group():
    """A group bigger than the fair share is spread across workers."""
    hot = tuple(range(10))
    reqs = [(i, OneToManyRequest(i, hot)) for i in range(40)]
    buckets = plan_split(reqs, 4)
    sizes = [len(b) for b in buckets]
    assert all(s > 0 for s in sizes), sizes  # nobody idles
    assert max(sizes) <= 12, sizes  # ~fair shares, not one mega-bucket


# ----------------------------------------------------------------------
# Crash containment
# ----------------------------------------------------------------------
def test_worker_killed_idle_is_respawned_transparently(bundle_path, hl):
    reqs = [DistanceRequest(i, i + 20) for i in range(10)]
    want = QueryPlanner(hl).execute(reqs)
    with WorkerPool(bundle_path, workers=2) as pool:
        victim = pool.handles[0].pid
        os.kill(victim, signal.SIGKILL)
        assert pool.execute(reqs) == want  # retried, never hung
        stats = pool.stats()
        assert stats["respawns"] >= 1
        assert pool.handles[0].pid != victim
        assert all(h.process.is_alive() for h in pool.handles)


def test_worker_crash_mid_batch_fails_cleanly(bundle_path, hl):
    """The unit test the ISSUE asks for: a worker dies *mid-batch*.

    ``CrashRequest`` makes its worker ``os._exit`` while the sub-batch
    is in flight (deterministically — no race to lose).  The poisonous
    sub-batch is retried on a fresh worker, crashes it again, and is
    then failed cleanly: its requests (and only its requests) resolve
    to WorkerCrashed, every other sub-batch completes, and the pool
    ends the dispatch with a full complement of live, respawned
    workers.
    """
    good = [DistanceRequest(i, i + 9) for i in range(8)]
    want = QueryPlanner(hl).execute(good)
    with WorkerPool(bundle_path, workers=2) as pool:
        mixed = list(good)
        mixed.insert(3, CrashRequest())
        out = pool.execute(mixed, return_exceptions=True)
        crashed = [r for r in out if isinstance(r, WorkerCrashed)]
        served = [r for r in out if not isinstance(r, Exception)]
        assert crashed, "the poisoned sub-batch must fail"
        assert served, "the other sub-batch must still be answered"
        assert len(crashed) + len(served) == len(mixed)
        stats = pool.stats()
        assert stats["respawns"] >= 2  # initial death + failed retry
        assert all(h.process.is_alive() for h in pool.handles)
        # the pool keeps serving correctly afterwards
        assert pool.execute(good) == want
        # without return_exceptions the same failure raises
        with pytest.raises(WorkerCrashed):
            pool.execute([CrashRequest()])
        assert pool.execute(good) == want


# ----------------------------------------------------------------------
# Shared-memory reply lanes (PR 6)
# ----------------------------------------------------------------------
def _attach_by_name(name):
    from multiprocessing import shared_memory

    seg = shared_memory.SharedMemory(name=name)
    seg.close()


def test_oversized_reply_falls_back_to_pipe(bundle_path, hl, monkeypatch):
    """Replies that outgrow the lane ride the pipe and stay correct."""
    monkeypatch.setattr(pool_module, "_LANE_BYTES", 64)
    reqs = [TableRequest(tuple(range(8)), tuple(range(8, 24)))] + [
        DistanceRequest(i, i + 12) for i in range(6)
    ]
    want = QueryPlanner(hl).execute(reqs)
    with WorkerPool(bundle_path, workers=2) as pool:
        assert pool.execute(reqs) == want
        stats = pool.stats()["reply_path"]
        assert stats["oversized_replies"] >= 1


def test_reply_lane_ring_wraps(bundle_path, hl, monkeypatch):
    """A lane smaller than the batch stream forces the ring to wrap."""
    monkeypatch.setattr(pool_module, "_LANE_BYTES", 256)
    reqs = [DistanceRequest(i, 35 - i) for i in range(20)]
    want = QueryPlanner(hl).execute(reqs)
    with WorkerPool(bundle_path, workers=1) as pool:
        for _ in range(6):  # cumulative replies >> lane size
            assert pool.execute(reqs) == want
        stats = pool.stats()["reply_path"]
        assert stats["shm_bytes"] > 256  # wrapped at least once
        assert stats["oversized_replies"] == 0


def test_reply_lane_survives_crash_with_reply_in_flight(bundle_path, hl):
    """Deterministic mid-batch kill; the respawned worker re-attaches."""
    good = [DistanceRequest(i, i + 9) for i in range(8)]
    want = QueryPlanner(hl).execute(good)
    with WorkerPool(bundle_path, workers=2) as pool:
        mixed = list(good)
        mixed.insert(3, CrashRequest())
        out = pool.execute(mixed, return_exceptions=True)
        assert any(isinstance(r, WorkerCrashed) for r in out)
        before = pool.stats()["reply_path"]["shm_bytes"]
        assert pool.execute(good) == want  # respawned worker serves via lane
        after = pool.stats()["reply_path"]["shm_bytes"]
        assert after > before
        assert all(h.process.is_alive() for h in pool.handles)


def test_reply_lanes_unlinked_on_close(bundle_path):
    """No /dev/shm segment outlives the pool."""
    pool = WorkerPool(bundle_path, workers=2)
    names = [lane.name for lane in pool._lanes]
    assert len(names) == 2  # one lane per worker
    pool.execute([DistanceRequest(0, 1)])
    pool.close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            _attach_by_name(name)
    pool.close()  # idempotent — a second close must not re-unlink


def test_reply_lanes_unlinked_when_worker_already_dead(bundle_path):
    """Killing a worker before close still leaves no segments behind."""
    pool = WorkerPool(bundle_path, workers=2)
    names = [lane.name for lane in pool._lanes]
    os.kill(pool.handles[0].pid, signal.SIGKILL)
    pool.handles[0].process.join(timeout=10)
    pool.close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            _attach_by_name(name)


# ----------------------------------------------------------------------
# Request lanes (the symmetric dispatch side)
# ----------------------------------------------------------------------
class TaggedDistanceRequest(DistanceRequest):
    """Planner-compatible subclass: packs (and answers) as its base kind."""


class TaggedOneToManyRequest(OneToManyRequest):
    pass


class TaggedTableRequest(TableRequest):
    pass


def _wire_form(req):
    """``(base kind, fields)`` — what a request must keep on the wire."""
    for base in (DistanceRequest, OneToManyRequest, TableRequest, CrashRequest):
        if isinstance(req, base):
            return base, tuple(getattr(req, f) for f in base.__slots__)
    raise AssertionError(f"not a wire kind: {req!r}")


def _wire_requests():
    node = st.one_of(
        st.integers(0, 2**31 - 1),  # fits the int32 id column
        st.integers(2**31, 2**63 - 1),  # forces the int64 column
    )
    ids = st.lists(node, max_size=5)

    def kind(classes, a, b):
        return st.sampled_from(classes).flatmap(lambda cls: st.builds(cls, a, b))

    return st.lists(
        st.one_of(
            kind((DistanceRequest, TaggedDistanceRequest), node, node),
            kind((OneToManyRequest, TaggedOneToManyRequest), node, ids),
            kind((TableRequest, TaggedTableRequest), ids, ids),
            st.builds(CrashRequest),
        ),
        max_size=12,
    )


@settings(max_examples=100, deadline=None)
@given(reqs=_wire_requests())
def test_reqcol_round_trips_every_wire_kind(reqs):
    """pack -> unpack gives back equal requests, subclasses as their base
    kind, on both sides of the int32/int64 id-width switch."""
    blob = pack_requests(reqs)
    back = unpack_requests(blob)
    want = [_wire_form(r) for r in reqs]
    assert [type(r) for r in back] == [kind for kind, _ in want]
    assert [_wire_form(r) for r in back] == want
    ids = [
        v
        for _, fields in want
        for f in fields
        for v in (f if isinstance(f, tuple) else (f,))
    ]
    assert blob[0] == (4 if all(v < 2**31 for v in ids) else 8)


def _reqcol(kinds, meta, ids, *, nreq=None, nids=None, tail=b""):
    """A hand-built REQCOL block (width 4); counts default to the truth."""
    return (
        bytes([4])
        + struct.pack("<q", len(kinds) if nreq is None else nreq)
        + bytes(kinds)
        + struct.pack("<q", len(meta))
        + bytes(meta)
        + struct.pack("<q", len(ids) if nids is None else nids)
        + array("i", ids).tobytes()
        + tail
    )


@pytest.mark.parametrize(
    "block",
    [
        _reqcol([1], [9], [0, 5]),  # one-to-many claims 9 targets, has 1
        _reqcol([0], [], [1, 2, 3]),  # distance over 3 ids
        _reqcol([0], [4], [1, 2]),  # meta count nobody consumes
        _reqcol([0], [], [1, 2], tail=b"\0"),  # bytes past the id column
        _reqcol([0], [], [1, 2], nreq=50),  # more kinds than bytes
        _reqcol([0], [], [1, 2], nreq=-1),
        _reqcol([0], [], [1]),  # too few ids
        _reqcol([0], [], [1, 2], nids=-2),
        _reqcol([2], [1], [0, 1]),  # table without its target count
        _reqcol([1], [0x80], [0, 1]),  # meta ends mid-uvarint
        b"",
    ],
    ids=[
        "o2m-meta-past-ids", "distance-extra-id", "unconsumed-meta",
        "trailing-bytes", "nreq-past-block", "negative-nreq", "too-few-ids",
        "negative-nids", "table-meta-short", "meta-mid-uvarint", "empty",
    ],
)
def test_reqcol_rejects_malformed_blocks(block):
    """Every malformed block fails as ValueError, which the worker
    reports as RequestCorrupted — never as requests it did not send."""
    with pytest.raises(ValueError):
        unpack_requests(block)


def test_oversized_request_falls_back_to_packed_pipe(bundle_path, hl, monkeypatch):
    """Batches that outgrow the request ring ride the pipe, packed."""
    monkeypatch.setattr(pool_module, "_LANE_BYTES", 64)
    reqs = [DistanceRequest(i, 35 - i) for i in range(20)]
    want = QueryPlanner(hl).execute(reqs)
    with WorkerPool(bundle_path, workers=2) as pool:
        assert pool.execute(reqs) == want
        stats = pool.stats()["request_path"]
        assert stats["oversized_batches"] >= 1
        assert stats["shm_bytes"] == 0  # nothing fit the 64-byte ring


def test_request_ring_wraps(bundle_path, hl, monkeypatch):
    """A request ring smaller than the stream forces a wrap."""
    monkeypatch.setattr(pool_module, "_LANE_BYTES", 256)
    reqs = [DistanceRequest(i, 35 - i) for i in range(20)]
    want = QueryPlanner(hl).execute(reqs)
    with WorkerPool(bundle_path, workers=1) as pool:
        for _ in range(6):  # cumulative request bytes >> ring size
            assert pool.execute(reqs) == want
        stats = pool.stats()["request_path"]
        assert stats["shm_bytes"] > 256  # wrapped at least once
        assert stats["oversized_batches"] == 0


def test_unpackable_request_kind_rides_pickled_fallback(bundle_path, hl):
    """A request subclass packs as its base kind: it rides the request
    lane (there is no pickled fallback) and is answered exactly like
    the base kind."""
    tagged = [
        TaggedDistanceRequest(0, 7),
        TaggedOneToManyRequest(3, (1, 2, 30)),
        TaggedTableRequest((0, 4), (5, 6)),
    ]
    base = [
        DistanceRequest(0, 7),
        OneToManyRequest(3, (1, 2, 30)),
        TableRequest((0, 4), (5, 6)),
    ]
    with WorkerPool(bundle_path, workers=2) as pool:
        assert pool.execute(tagged) == QueryPlanner(hl).execute(base)
        stats = pool.stats()["request_path"]
        assert stats["shm_bytes"] > 0 and stats["oversized_batches"] == 0


def test_unknown_request_kind_raises_before_dispatch(bundle_path):
    """A request the wire format cannot carry is refused up front: no
    sub-batch is sent, so no worker is touched."""
    with WorkerPool(bundle_path, workers=2) as pool:
        before = pool.stats()
        for batch in ([object()], [DistanceRequest(0, 1), object()]):
            with pytest.raises(TypeError):
                pool.execute(batch)
        after = pool.stats()
        assert after["dispatches"] == before["dispatches"]
        assert after["respawns"] == before["respawns"]
        assert after["request_path"] == before["request_path"]


def test_request_lanes_unlinked_on_close(bundle_path):
    """Neither reply nor request segments outlive the pool."""
    pool = WorkerPool(bundle_path, workers=2)
    names = pool.lane_names()
    assert len(names) == 4  # reply + request lane per worker
    pool.execute([DistanceRequest(0, 1)])
    pool.close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            _attach_by_name(name)
    pool.close()  # idempotent


# ----------------------------------------------------------------------
# The Server pool tier
# ----------------------------------------------------------------------
def test_server_pool_tier_serves_and_reports(graph, hl, pools):
    pool = pools[backend.active()]
    reqs = [DistanceRequest(i, graph.n - 1 - i) for i in range(16)] + [
        OneToManyRequest(2, (0, 5, 9)) for _ in range(4)
    ]
    want = [_direct(hl, r) for r in reqs]

    async def main():
        async with Server(None, pool=pool) as server:
            got = await asyncio.gather(*(server.submit(r) for r in reqs))
            stats = server.stats()
        return got, stats

    got, stats = asyncio.run(main())
    assert got == want
    assert stats["policy"]["tier"] == "pool"
    assert stats["worker_failed"] == 0
    tier = stats["pool"]
    assert tier["workers"] == 2
    assert {"batches", "busy_s", "idle_s", "respawns"} <= set(
        tier["per_worker"][0]
    )
    assert tier["dispatches"] >= 1


def test_dispatch_stats_pinned_and_surfaced(bundle_path, hl):
    """stats()["dispatch"] keys are pinned and reach Server.stats()."""
    reqs = [DistanceRequest(i, i + 7) for i in range(10)]

    async def main(pool):
        async with Server(None, pool=pool) as server:
            await asyncio.gather(*(server.submit(r) for r in reqs))
            return server.stats()

    with WorkerPool(bundle_path, workers=2) as pool:
        pool.execute(reqs)
        d = pool.stats()["dispatch"]
        assert set(d) == {"pack_s", "send_s", "compute_s", "merge_s"}
        assert all(type(v) is float and v >= 0.0 for v in d.values())
        assert d["compute_s"] > 0.0  # workers did answer something
        surfaced = asyncio.run(main(pool))["pool"]["dispatch"]
        assert set(surfaced) == set(d)


def test_server_pool_transparent_crash_recovery(hl, bundle_path):
    """A worker killed between batches never surfaces to clients."""
    reqs = [DistanceRequest(i, i + 11) for i in range(12)]
    want = [_direct(hl, r) for r in reqs]

    async def main(pool):
        async with Server(None, pool=pool) as server:
            first = await asyncio.gather(*(server.submit(r) for r in reqs))
            os.kill(pool.handles[0].pid, signal.SIGKILL)
            second = await asyncio.gather(*(server.submit(r) for r in reqs))
        return first, second

    with WorkerPool(bundle_path, workers=2) as pool:
        first, second = asyncio.run(main(pool))
        assert first == want and second == want
        assert pool.stats()["respawns"] >= 1


def test_server_pool_mode_validation(hl, pools):
    pool = pools[backend.active()]
    with pytest.raises(ValueError):
        Server(None, pool=pool, cache=DistanceCache())
    with pytest.raises(ValueError):
        Server(None)  # no engine and no pool

    async def submit_unknown():
        async with Server(None, pool=pool) as server:
            await server.submit(CrashRequest())

    with pytest.raises(TypeError):  # unknown kinds rejected at the door
        asyncio.run(submit_unknown())


def test_server_close_leaves_pool_open(bundle_path, hl):
    """Whoever builds a pool closes it: a server's close never does."""
    with WorkerPool(bundle_path, workers=2) as pool:

        async def main():
            async with Server(None, pool=pool) as server:
                await server.submit(DistanceRequest(0, 1))

        asyncio.run(main())
        assert pool.execute([DistanceRequest(0, 1)]) == [hl.distance(0, 1)]
    with pytest.raises(RuntimeError):
        pool.execute([DistanceRequest(0, 1)])


# ----------------------------------------------------------------------
# Buffer / path serialization
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKENDS)
def test_bundle_loads_compact(hl, blob, name):
    """HL2 bundles answer identically and round-trip byte-for-byte on
    both backends."""
    with backend.forced(name):
        g2, hl2 = load_bundle(blob)
        for s, t in [(0, 35), (3, 17), (11, 11), (20, 4)]:
            assert hl2.distance(s, t) == hl.distance(s, t)
        targets = (1, 7, 13, 35)
        assert hl2.one_to_many(5, targets) == hl.one_to_many(5, targets)
        assert hl2.distance_table((2, 9), targets) == hl.distance_table(
            (2, 9), targets
        )
        p, p2 = hl.shortest_path(0, 35), hl2.shortest_path(0, 35)
        assert (p2.nodes, p2.length) == (p.nodes, p.length)
        buf = io.BytesIO()
        save_bundle(hl2, buf)
        assert buf.getvalue() == blob


def test_bundle_loads_from_path(tmp_path, hl, blob):
    path = str(tmp_path / "hl2.bundle")
    with open(path, "wb") as fh:
        fh.write(blob)
    g2, hl2 = load_bundle(path)
    assert hl2.distance(4, 31) == hl.distance(4, 31)
    assert hl2.one_to_many(0, (8, 16, 24)) == hl.one_to_many(0, (8, 16, 24))


def test_bundle_file_load_still_serves_tables(hl, blob, tmp_path):
    """Regression: a file-loaded index must carry the PR 4 memo state.

    The hub-label section loader once skipped the target-inversion memo
    attributes, so the first ``distance_table`` on a loaded index
    raised AttributeError.
    """
    g2, hl2 = load_bundle(io.BytesIO(blob))
    targets = (3, 14, 15)
    assert hl2.distance_table((9, 2, 6), targets) == hl.distance_table(
        (9, 2, 6), targets
    )
    # Pin the pure tier's memo entry here; tests/test_planner.py pins
    # the native tier's.
    with backend.forced("pure"):
        hl2.clear_target_inversions()
        hl2.distance_table((9, 2, 6), targets)
        assert hl2.target_inversion_stats()["misses"] >= 1


# ----------------------------------------------------------------------
# Open-loop harness (satellite)
# ----------------------------------------------------------------------
def test_run_open_loop_answers_and_sheds(hl):
    reqs = [DistanceRequest(i, i + 13) for i in range(20)]
    arrivals = [i * 0.001 for i in range(20)]
    latencies, duration, stats = run_open_loop(hl, reqs, arrivals)
    assert all(lat is not None and lat >= 0.0 for lat in latencies)
    assert duration > 0.0
    assert stats["completed"] == len(reqs)
    # an impossible deadline sheds instead of answering
    latencies, _, stats = run_open_loop(
        hl, reqs, arrivals, submit_timeout=1e-9, window_s=0.05
    )
    assert any(lat is None for lat in latencies)
    assert stats["expired"] >= 1

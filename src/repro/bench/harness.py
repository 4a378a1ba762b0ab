"""Shared machinery for the experiment harness.

The per-figure experiment modules (:mod:`repro.bench.experiments`) use
this layer to build engines uniformly, time query batches, and collect
structured records that :mod:`repro.bench.reporting` renders as the
paper-style tables and series.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import backend
from ..baselines import (
    ALTEngine,
    AStarEngine,
    BidirectionalEngine,
    CHEngine,
    DijkstraEngine,
    HubLabelIndex,
    QueryEngine,
    Request,
    SILCEngine,
    TNREngine,
)
from ..core import AHIndex, FCIndex
from ..graph.graph import Graph

__all__ = [
    "ENGINE_FACTORIES",
    "BuildRecord",
    "FaultEpisodeRecord",
    "OpenLoopRecord",
    "QueryRecord",
    "ServeRecord",
    "build_engine",
    "environment_metadata",
    "episode_percentiles",
    "latency_percentile",
    "run_closed_loop",
    "run_open_loop",
    "time_distance_batch",
    "time_path_batch",
]


def environment_metadata() -> Dict[str, object]:
    """Backend + interpreter + platform identification for BENCH JSONs.

    Every ``BENCH_*.json`` embeds this so the perf trajectory recorded
    across PRs stays interpretable: a regression that is really a
    backend or interpreter change should be visible as one.  Since the
    native kernel tier (PR 10) the block also records whether a C
    compiler was present (a native-less run on a compiler-less box is
    expected; on a box WITH a compiler it means ``REPRO_NATIVE=0`` or a
    failed on-import build) — the extension's own version/hash ride
    along inside :func:`repro.backend.describe`.
    """
    meta = backend.describe()
    compiler = next(
        (name for name in ("cc", "gcc", "clang") if shutil.which(name)), None
    )
    meta["compiler"] = compiler or "none"
    return meta

#: Engine name -> constructor.  Every constructor takes the graph plus
#: engine-specific keyword arguments.
ENGINE_FACTORIES: Dict[str, Callable[..., QueryEngine]] = {
    "Dijkstra": DijkstraEngine,
    "BiDijkstra": BidirectionalEngine,
    "A*": AStarEngine,
    "ALT": ALTEngine,
    "CH": CHEngine,
    "HL": HubLabelIndex,
    "SILC": SILCEngine,
    "TNR": TNREngine,
    "FC": FCIndex,
    "AH": AHIndex,
}


@dataclass(frozen=True)
class BuildRecord:
    """Preprocessing outcome for one engine on one dataset.

    ``index_size`` is the engine's machine-independent entry count (see
    :meth:`repro.baselines.base.QueryEngine.index_size`), the stand-in
    for Figure 10a's megabytes.
    """

    engine: str
    dataset: str
    n: int
    m: int
    build_seconds: float
    index_size: int
    #: Kernel tier active during the build ("native" / "pure-python");
    #: records of both tiers sit side by side in the BENCH JSONs,
    #: distinguished by this field.
    backend: str = field(default_factory=backend.active)


@dataclass(frozen=True)
class QueryRecord:
    """Timing of one query batch (one engine, one dataset, one bucket)."""

    engine: str
    dataset: str
    bucket: int  # 1-based Qi; 0 means "mixed random pairs"
    kind: str  # "distance" | "path"
    queries: int
    mean_us: float
    #: Array backend active while the batch ran (see BuildRecord).
    backend: str = field(default_factory=backend.active)

    @property
    def total_seconds(self) -> float:
        """Total wall time spent on the batch."""
        return self.mean_us * self.queries / 1e6


@dataclass(frozen=True)
class ServeRecord:
    """Throughput of one closed-loop serving run (the PR 4 dimension).

    ``requests`` counts client-visible requests (a one-to-many row is
    one request however many targets it carries); ``mean_batch_size``
    and ``cache_hit_rate`` come from the server's stats surface and
    document *why* the throughput is what it is — how wide coalescing
    actually ran and how much the shared cache absorbed.
    """

    engine: str
    dataset: str
    clients: int
    requests: int
    seconds: float
    requests_per_s: float
    batches: int
    mean_batch_size: float
    cache_hit_rate: float
    #: Array backend active during the run (see BuildRecord).
    backend: str = field(default_factory=backend.active)


@dataclass(frozen=True)
class OpenLoopRecord:
    """Latency picture of one open-loop serving run (the PR 5 dimension).

    Open loop means requests arrive on a *schedule* (Poisson process or
    bursts) regardless of whether earlier answers came back — the
    arrival process, not the server, sets the offered load.  Latency is
    measured from each request's **scheduled** arrival time, so a
    server that falls behind accrues queueing delay in these numbers
    instead of silently slowing the arrival clock (the classic
    coordinated-omission mistake closed loops make).
    """

    engine: str
    dataset: str
    arrival: str  # "poisson" | "bursty"
    offered_rps: float  # scheduled arrival rate, requests/second
    requests: int
    completed: int
    expired: int  # deadline-shed (or rejected) before compute
    duration_s: float  # first scheduled arrival -> last answer
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    #: Array backend active during the run (see BuildRecord).
    backend: str = field(default_factory=backend.active)


@dataclass(frozen=True)
class FaultEpisodeRecord:
    """Latency picture of one scripted fault episode (the PR 8 dimension).

    A *fault episode* is a span of dispatches during which a
    :class:`repro.serve.FaultPlan` injects scripted failures
    (kill/stall/corrupt); ``steady_*`` is the same workload on the same
    pool with no plan.  Both sides are parity-asserted against the
    direct planner before any clock, so these numbers only ever
    describe *correct* service — the record quantifies what surviving
    an outage costs, never what dropping exactness buys.
    """

    scenario: str  # "kill" | "stall-unhedged" | "stall-hedged" | ...
    dispatches: int
    faults_injected: int
    steady_p50_ms: float
    steady_p99_ms: float
    episode_p50_ms: float
    episode_p99_ms: float
    #: Pool answered bit-exactly *after* the episode too (no desync).
    recovered: bool
    #: Array backend active during the run (see BuildRecord).
    backend: str = field(default_factory=backend.active)


def episode_percentiles(latencies_s: Sequence[float]) -> Dict[str, float]:
    """p50/p99/mean/max (milliseconds) of per-dispatch latencies.

    The percentile definition is the shared linear-interpolated
    :func:`latency_percentile`, so episode numbers line up with the
    open-loop records in ``BENCH_serve.json``.
    """
    if not latencies_s:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0, "max_ms": 0.0}
    ordered = sorted(latencies_s)
    return {
        "p50_ms": round(latency_percentile(ordered, 0.50) * 1e3, 3),
        "p99_ms": round(latency_percentile(ordered, 0.99) * 1e3, 3),
        "mean_ms": round(sum(ordered) / len(ordered) * 1e3, 3),
        "max_ms": round(ordered[-1] * 1e3, 3),
    }


def latency_percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted values (q in [0, 1])."""
    if not sorted_values:
        return 0.0
    k = (len(sorted_values) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = k - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def run_open_loop(
    engine: Optional[QueryEngine],
    requests: Sequence[Request],
    arrivals: Sequence[float],
    cache=None,
    submit_timeout: Optional[float] = None,
    **server_kwargs,
) -> Tuple[List[Optional[float]], float, dict]:
    """Fire ``requests`` at their scheduled ``arrivals`` (seconds from t0).

    One task per request sleeps until its arrival offset, submits, and
    records ``completion - scheduled_arrival`` — queueing delay included
    even when the event loop itself lagged the schedule.  Returns
    ``(latencies_s, duration_s, server_stats)``; a latency of ``None``
    marks a request shed by its ``submit_timeout`` deadline (or
    rejected by backpressure) rather than answered.

    ``engine=None`` with a ``pool=`` keyword serves through the
    worker-process tier, same as :func:`run_closed_loop`.
    """
    from ..serve import Server  # local: keep harness import-light

    async def _fire(server, req, at, t0, out, idx):
        loop = asyncio.get_running_loop()
        delay = t0 + at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            await server.submit(req, timeout=submit_timeout)
        except Exception:
            out[idx] = None  # shed (DeadlineExpired / ServerOverloaded)
            return
        out[idx] = loop.time() - (t0 + at)

    async def _main():
        server = Server(engine, cache=cache, **server_kwargs)
        out: List[Optional[float]] = [None] * len(requests)
        async with server:
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await asyncio.gather(
                *(
                    _fire(server, req, at, t0, out, i)
                    for i, (req, at) in enumerate(zip(requests, arrivals))
                )
            )
            duration = loop.time() - t0
        return out, duration, server.stats()

    return asyncio.run(_main())


def run_closed_loop(
    engine: Optional[QueryEngine],
    scripts: Sequence[Sequence[Request]],
    cache=None,
    **server_kwargs,
) -> Tuple[float, List[List[object]], dict]:
    """Drive per-client request scripts through a coalescing Server.

    Each inner sequence is one client's *closed-loop* session: the
    client awaits every answer before issuing its next request, so the
    offered concurrency equals the number of still-active clients —
    the standard serving-benchmark shape (and the one that exercises
    natural batching: while one planner batch computes, every answered
    client re-submits).

    Returns ``(wall_seconds, per_client_results, server_stats)``; the
    timing covers the requests only, not server startup/shutdown.
    Import of :class:`repro.serve.Server` is deferred so the harness's
    figure-experiment users never pay for the serving layer.

    ``engine=None`` plus a ``pool=`` keyword (forwarded to the server)
    drives the same closed loop through the multi-process worker tier.
    """
    from ..serve import Server  # local: keep harness import-light

    async def _client(server, script, out, idx):
        results = []
        for request in script:
            results.append(await server.submit(request))
        out[idx] = results

    async def _main():
        server = Server(engine, cache=cache, **server_kwargs)
        out: List[Optional[List[object]]] = [None] * len(scripts)
        async with server:
            t0 = time.perf_counter()
            await asyncio.gather(
                *(_client(server, s, out, i) for i, s in enumerate(scripts))
            )
            elapsed = time.perf_counter() - t0
        return elapsed, out, server.stats()

    return asyncio.run(_main())


_ENGINE_CACHE: Dict[Tuple, Tuple[QueryEngine, "BuildRecord"]] = {}


def build_engine(
    name: str, graph: Graph, dataset: str = "?", use_cache: bool = False, **kwargs
) -> Tuple[QueryEngine, BuildRecord]:
    """Construct an engine by name and record its preprocessing cost.

    With ``use_cache=True`` and a real ``dataset`` name, the built engine
    is memoised for the process lifetime; the experiment modules opt in
    so a multi-figure harness run preprocesses each (engine, dataset)
    pair once — the cached :class:`BuildRecord` keeps the original build
    time.
    """
    factory = ENGINE_FACTORIES.get(name)
    if factory is None:
        raise KeyError(f"unknown engine {name!r}; choose from {sorted(ENGINE_FACTORIES)}")
    key = (name, dataset, graph.n, graph.m, tuple(sorted(kwargs.items())))
    if use_cache and key in _ENGINE_CACHE:
        return _ENGINE_CACHE[key]
    t0 = time.perf_counter()
    engine = factory(graph, **kwargs)
    build_seconds = time.perf_counter() - t0
    record = BuildRecord(
        engine=name,
        dataset=dataset,
        n=graph.n,
        m=graph.m,
        build_seconds=build_seconds,
        index_size=engine.index_size(),
    )
    if use_cache:
        _ENGINE_CACHE[key] = (engine, record)
    return engine, record


def time_distance_batch(
    engine: QueryEngine,
    pairs: Sequence[Tuple[int, int]],
    dataset: str = "?",
    bucket: int = 0,
    repeats: int = 1,
) -> QueryRecord:
    """Run distance queries over ``pairs`` and record the mean latency.

    With ``repeats > 1`` the batch is run several times and the fastest
    pass is kept, suppressing GC/warm-up spikes on small batches.
    """
    if not pairs:
        return QueryRecord(engine.name, dataset, bucket, "distance", 0, 0.0)
    distance = engine.distance
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for s, t in pairs:
            distance(s, t)
        best = min(best, time.perf_counter() - t0)
    return QueryRecord(
        engine=engine.name,
        dataset=dataset,
        bucket=bucket,
        kind="distance",
        queries=len(pairs),
        mean_us=best / len(pairs) * 1e6,
    )


def time_path_batch(
    engine: QueryEngine,
    pairs: Sequence[Tuple[int, int]],
    dataset: str = "?",
    bucket: int = 0,
    repeats: int = 1,
) -> QueryRecord:
    """Run shortest path queries over ``pairs``; fastest of ``repeats``."""
    if not pairs:
        return QueryRecord(engine.name, dataset, bucket, "path", 0, 0.0)
    shortest_path = engine.shortest_path
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for s, t in pairs:
            shortest_path(s, t)
        best = min(best, time.perf_counter() - t0)
    return QueryRecord(
        engine=engine.name,
        dataset=dataset,
        bucket=bucket,
        kind="path",
        queries=len(pairs),
        mean_us=best / len(pairs) * 1e6,
    )

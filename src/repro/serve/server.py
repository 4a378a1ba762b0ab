"""Asyncio query-coalescing server over the batch planner.

One :class:`Server` wraps one engine (usually a
:class:`~repro.baselines.hl.HubLabelIndex`) and turns many concurrent
``await submit(request)`` callers into few :class:`~repro.baselines.base.
QueryPlanner` batches.  The motivating observation (ROADMAP "async
front-end") is that the batched kernels' advantage *widens* with batch
size, yet clients arrive one request at a time: the missing layer is the
one that holds a request for a moment, merges it with its concurrent
neighbours, and answers all of them from one kernel invocation.

Coalescing policy
-----------------
* A request enters a FIFO of ``(request, future, deadline)`` items; the
  coalescer task drains up to ``max_batch`` items per cycle and hands
  them to the planner as one heterogeneous batch.
* ``window_s`` is the classic batching window: after waking on the first
  pending request the coalescer sleeps that long so neighbours can pile
  in.  The default of 0 relies on *natural batching* instead — while one
  batch executes (or its results are being delivered), newly awakened
  clients enqueue, so under closed-loop load batch sizes grow to the
  offered concurrency with no added latency.  A positive window only
  helps sparse open-loop traffic.
* **Backpressure**: at most ``max_queue`` requests may be pending.
  ``overflow="wait"`` (default) parks ``submit`` until the coalescer
  drains capacity free — the await *is* the backpressure signal;
  ``overflow="reject"`` raises :class:`ServerOverloaded` immediately,
  the load-shedding stance.
* **Deadlines**: ``submit(..., timeout=t)`` stamps a deadline; a request
  still queued when its deadline passes is failed with
  :class:`DeadlineExpired` *instead of being computed* — expired work is
  shed at dequeue time, it never occupies a kernel.  Requests already
  inside a running batch are not aborted mid-kernel.
* **Exactness**: the planner guarantees every answer is bit-identical
  to the direct engine call (see "The planner contract" in
  :mod:`repro.baselines.base`), so coalescing is invisible in results —
  ``tests/test_serve.py`` pins this under hypothesis-generated
  interleavings on both backends.

``stats()`` exposes the serving picture a dashboard wants: queue depth
(current and peak), a power-of-two batch-size histogram, deadline/
rejection counts, and the planner's kernel/cache counters (cache hit
rate included when a :class:`~repro.baselines.base.DistanceCache` is
attached).

The compute itself is synchronous (CPython or the native kernels) and
runs in one of **two tiers**:

* **inline** (default): batches run on the event loop — simplest, and
  correct for CPU-bound kernels (the loop would be compute-bound either
  way).
* **pool**: passing a :class:`~repro.serve.pool.WorkerPool` shards each
  coalesced batch across N worker *processes*, each serving an engine
  replica booted from the shared bundle — the tier that scales past one
  core (and past the GIL).  Dispatch always runs off-loop (the server
  keeps a one-thread executor for it), results merge bit-identically to
  the single-process planner path, and a sub-batch whose worker crashed
  beyond the retry budget fails only its own futures — the rest of the
  batch completes.  Requests and replies cross shared-memory lanes
  (pipes carry only tiny control frames — see
  :mod:`repro.serve.pool`), so the pool path pays no per-byte pipe
  cost; ``stats()["pool"]`` carries the worker-tier picture
  (per-worker batches, busy/idle, dispatch imbalance, respawns, and
  the ``reply_path`` / ``request_path`` byte counters).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from collections import deque
from functools import partial
from typing import Deque, Iterable, List, Optional, Sequence

from ..baselines.base import (
    DistanceCache,
    DistanceRequest,
    OneToManyRequest,
    QueryEngine,
    QueryPlanner,
    Request,
    TableRequest,
)
from .pool import WorkerPool, WorkerStalled

__all__ = [
    "DeadlineExpired",
    "Server",
    "ServerClosed",
    "ServerOverloaded",
]


class ServerClosed(RuntimeError):
    """Raised by ``submit`` once the server is closed (or closing)."""


class ServerOverloaded(RuntimeError):
    """Raised by ``submit`` under ``overflow="reject"`` when the queue is full."""


class DeadlineExpired(asyncio.TimeoutError):
    """Set on a request whose deadline passed while it was still queued."""


def _ids_in_range(ids, n: int) -> bool:
    """True when every id of a request's int tuple lies in ``[0, n)``:
    one ``min`` and one ``max``, not a Python step per id."""
    return not ids or (min(ids) >= 0 and max(ids) < n)


class _Item:
    __slots__ = ("request", "future", "deadline")

    def __init__(self, request, future, deadline):
        self.request = request
        self.future = future
        self.deadline = deadline


class Server:
    """Query-coalescing asyncio front-end over one engine.

    Parameters
    ----------
    engine:
        Any :class:`~repro.baselines.base.QueryEngine`.
    cache:
        Optional :class:`DistanceCache` shared with the planner (point
        requests only, consulted per batch).  ``cache=True`` creates a
        default-sized one.
    window_s, max_batch:
        Coalescing policy: hold the queue ``window_s`` seconds after the
        first request wakes the coalescer (0 = natural batching only),
        never hand the planner more than ``max_batch`` requests at once.
    max_queue, overflow:
        Backpressure policy: queue bound, and whether a full queue makes
        ``submit`` wait (default) or raise :class:`ServerOverloaded`.
    pool:
        A :class:`~repro.serve.pool.WorkerPool` to execute batches on —
        the multi-process tier.  ``engine`` may then be ``None`` (the
        pool's bundle already holds the graph; request validation uses
        the pool's node count).  Mutually exclusive with ``cache`` — the
        pool's own shared cache fills that role
        (``WorkerPool(..., cache=...)``).  The server never closes the
        pool: its lifecycle stays with whoever built it.

    A server binds to the event loop it first runs under — create and
    use it inside one ``asyncio.run``.  ``async with Server(...)`` is
    the normal lifecycle; ``submit`` also lazily starts the coalescer.
    """

    def __init__(
        self,
        engine: Optional[QueryEngine],
        *,
        cache=None,
        window_s: float = 0.0,
        max_batch: int = 1024,
        max_queue: int = 65536,
        overflow: str = "wait",
        pool: Optional[WorkerPool] = None,
    ) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_queue <= 0:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if overflow not in ("wait", "reject"):
            raise ValueError(f'overflow must be "wait" or "reject", got {overflow!r}')
        if pool is not None and cache is not None:
            raise ValueError(
                "in pool mode the WorkerPool owns batch execution and the "
                "shared cache — pass cache= to WorkerPool, not to Server"
            )
        if pool is None and engine is None:
            raise ValueError("engine may only be None when a pool is given")
        if cache is True:
            cache = DistanceCache()
        self.engine = engine
        self.pool = pool
        self._dispatch = None
        if pool is not None:
            self.planner = None
            self._n = pool.n
            if engine is not None and engine.graph.n != pool.n:
                raise ValueError(
                    f"engine graph has {engine.graph.n} nodes but the pool's "
                    f"bundle has {pool.n}"
                )
            # Dispatch must leave the event loop free — that is the
            # point of the pool tier — so it always runs on a thread.
            self._dispatch = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-pool-dispatch"
            )
        else:
            self.planner = QueryPlanner(engine, cache=cache)
            self._n = engine.graph.n
        self.window_s = window_s
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.overflow = overflow
        self._pending: Deque[_Item] = deque()
        self._capacity_waiters: Deque[asyncio.Future] = deque()
        self._wake: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._closed = False
        self._submitted = 0
        self._completed = 0
        self._expired = 0
        self._rejected = 0
        self._cancelled = 0
        self._worker_failed = 0
        self._worker_stalled = 0
        self._batches = 0
        self._coalesced = 0
        self._largest_batch = 0
        self._peak_queue_depth = 0
        self._batch_histogram: dict = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Server":
        """Start the coalescer task (idempotent); returns ``self``."""
        if self._closed:
            raise ServerClosed("server already closed")
        if self._task is None:
            self._wake = asyncio.Event()
            self._task = asyncio.get_running_loop().create_task(self._run())
        return self

    async def close(self) -> None:
        """Graceful shutdown: serve everything already queued, then stop.

        Idempotent.  ``submit`` calls racing with ``close`` either make
        it into the final drain or observe :class:`ServerClosed`.
        """
        if self._closed:
            if self._task is not None:
                await asyncio.shield(self._task)
            return
        self._closed = True
        if self._task is not None:
            self._wake.set()
            await self._task
        # Anyone still parked on backpressure can only fail now.
        self._release_capacity_waiters()
        if self._dispatch is not None:
            self._dispatch.shutdown(wait=True)

    async def __aenter__(self) -> "Server":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Submission surface
    # ------------------------------------------------------------------
    def _validate(self, request: Request) -> None:
        """Reject malformed requests at the door, not inside a batch.

        A bad request that reached the planner would raise mid-batch and
        fail every *other* request coalesced alongside it; checking node
        ranges and the concrete type here confines the error to the one
        caller who made it.  (In pool mode ``n`` comes from the pool's
        bundle handshake — no engine needs to live in this process.)
        """
        n = self._n
        if isinstance(request, DistanceRequest):
            ok = 0 <= request.source < n and 0 <= request.target < n
        elif isinstance(request, OneToManyRequest):
            ok = 0 <= request.source < n and _ids_in_range(request.targets, n)
        elif isinstance(request, TableRequest):
            ok = _ids_in_range(request.sources, n) and _ids_in_range(
                request.targets, n
            )
        else:
            raise TypeError(
                "submit() takes a DistanceRequest / OneToManyRequest / "
                f"TableRequest, got {type(request).__name__!r}"
            )
        if not ok:
            raise ValueError(
                f"{request!r} references node ids outside [0, {n})"
            )

    async def submit(self, request: Request, *, timeout: Optional[float] = None):
        """Enqueue one request; awaits (and returns) its planner answer.

        Raises :class:`ServerClosed` after ``close``,
        :class:`ServerOverloaded` when the queue is full under
        ``overflow="reject"``, and :class:`DeadlineExpired` when
        ``timeout`` seconds pass before the request is drained into a
        batch — time parked on backpressure counts against the
        deadline too.
        """
        self._validate(request)
        if self._closed:
            raise ServerClosed("server is closed")
        if self._task is None:
            await self.start()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout if timeout is not None else None
        while len(self._pending) >= self.max_queue:
            if self.overflow == "reject":
                self._rejected += 1
                raise ServerOverloaded(
                    f"queue full ({self.max_queue} pending requests)"
                )
            if deadline is not None and deadline - loop.time() <= 0:
                self._expired += 1
                raise DeadlineExpired("deadline passed while awaiting queue capacity")
            waiter = loop.create_future()
            self._capacity_waiters.append(waiter)
            if deadline is None:
                await waiter
            else:
                try:
                    await asyncio.wait_for(waiter, deadline - loop.time())
                except asyncio.TimeoutError:
                    self._expired += 1
                    raise DeadlineExpired(
                        "deadline passed while awaiting queue capacity"
                    ) from None
            if self._closed:
                raise ServerClosed("server closed while awaiting capacity")
        future = loop.create_future()
        self._pending.append(_Item(request, future, deadline))
        self._submitted += 1
        depth = len(self._pending)
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth
        self._wake.set()
        return await future

    async def distance(self, source: int, target: int, **kw) -> float:
        """``await`` one point-to-point distance through the coalescer."""
        return await self.submit(DistanceRequest(source, target), **kw)

    async def one_to_many(
        self, source: int, targets: Iterable[int], **kw
    ) -> List[float]:
        """``await`` one one-to-many row through the coalescer."""
        return await self.submit(OneToManyRequest(source, targets), **kw)

    async def distance_table(
        self, sources: Sequence[int], targets: Sequence[int], **kw
    ) -> List[List[float]]:
        """``await`` one distance matrix through the coalescer."""
        return await self.submit(TableRequest(sources, targets), **kw)

    # ------------------------------------------------------------------
    # The coalescer
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        pending = self._pending
        loop = asyncio.get_running_loop()
        while True:
            if not pending:
                if self._closed:
                    return
                self._wake.clear()
                # Re-check after clearing: a submit between the check
                # and the clear would otherwise be missed.
                if not pending and not self._closed:
                    await self._wake.wait()
                continue
            if (
                self.window_s > 0
                and len(pending) < self.max_batch
                and not self._closed
            ):
                await asyncio.sleep(self.window_s)
            batch: List[_Item] = []
            now = loop.time()
            while pending and len(batch) < self.max_batch:
                item = pending.popleft()
                if item.future.done():  # caller cancelled / gave up
                    self._cancelled += 1
                    continue
                if item.deadline is not None and now > item.deadline:
                    self._expired += 1
                    item.future.set_exception(
                        DeadlineExpired(
                            f"request expired after {now - item.deadline:.4f}s "
                            "past its deadline while queued"
                        )
                    )
                    continue
                batch.append(item)
            self._release_capacity_waiters()
            if not batch:
                continue
            requests = [item.request for item in batch]
            try:
                if self.pool is not None:
                    # Pool tier: shard across worker processes, always
                    # off-loop.  return_exceptions=True so one crashed
                    # sub-batch fails only its own futures below.
                    results = await loop.run_in_executor(
                        self._dispatch,
                        partial(
                            self.pool.execute, requests, return_exceptions=True
                        ),
                    )
                else:
                    results = self.planner.execute(requests)
            except Exception as exc:
                # Engine/planner failure (requests themselves were
                # validated at submit): fail the batch, keep serving.
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(exc)
                    else:
                        self._cancelled += 1
                continue
            self._batches += 1
            size = len(batch)
            self._coalesced += size
            if size > self._largest_batch:
                self._largest_batch = size
            bucket = 1 << (size - 1).bit_length() if size > 1 else 1
            self._batch_histogram[bucket] = self._batch_histogram.get(bucket, 0) + 1
            for item, result in zip(batch, results):
                if not item.future.done():
                    if isinstance(result, BaseException):
                        # Pool tier: this request's sub-batch crashed (or
                        # stalled past the watchdog on) its worker beyond
                        # the retry budget; fail it cleanly, its
                        # batch-mates above/below still complete.
                        self._worker_failed += 1
                        if isinstance(result, WorkerStalled):
                            self._worker_stalled += 1
                        item.future.set_exception(result)
                    else:
                        self._completed += 1
                        item.future.set_result(result)
                else:
                    # Cancelled mid-batch (possible in pool mode):
                    # account for it so every *admitted* request lands in
                    # exactly one of completed / expired / cancelled /
                    # still-queued.  (rejected and expired-at-the-door
                    # requests were never admitted, hence never counted
                    # in `submitted`.)
                    self._cancelled += 1
            # Yield once so awakened clients can resubmit before the next
            # drain — this is what makes natural batching work.
            await asyncio.sleep(0)

    def _release_capacity_waiters(self) -> None:
        waiters = self._capacity_waiters
        while waiters and (self._closed or len(self._pending) < self.max_queue):
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving counters + policy echo + planner/cache statistics.

        ``batch_size_histogram`` maps a power-of-two upper bound to how
        many batches drained at most that many requests (``{1: 40,
        8: 3}`` reads: 40 singleton batches, 3 batches of 5-8).
        """
        mean_batch = self._coalesced / self._batches if self._batches else 0.0
        out = {
            "policy": {
                "tier": "inline" if self.pool is None else "pool",
                "window_s": self.window_s,
                "max_batch": self.max_batch,
                "max_queue": self.max_queue,
                "overflow": self.overflow,
            },
            "submitted": self._submitted,
            "completed": self._completed,
            "expired": self._expired,
            "rejected": self._rejected,
            "cancelled": self._cancelled,
            "worker_failed": self._worker_failed,
            "worker_stalled": self._worker_stalled,
            "batches": self._batches,
            "mean_batch_size": round(mean_batch, 3),
            "largest_batch": self._largest_batch,
            "batch_size_histogram": dict(sorted(self._batch_histogram.items())),
            "queue_depth": len(self._pending),
            "peak_queue_depth": self._peak_queue_depth,
            "closed": self._closed,
        }
        if self.planner is not None:
            out["planner"] = self.planner.stats()
        if self.pool is not None:
            out["pool"] = self.pool.stats()
        return out

"""``repro.serve.pool`` — the multi-process worker tier.

The single-process :class:`~repro.serve.Server` coalesces well, but every
planner batch still executes on one core.  This module scales past that
with a **process pool over a shared bundle substrate**:

* Each worker process boots its own engine replica from the serialized
  bundle file (:func:`repro.core.serialize.load_bundle` on the bundle
  *path*) and decodes it into columns of its own.
* The dispatcher (:meth:`WorkerPool.execute`) splits one planner batch
  into per-worker sub-batches and merges the replies positionally.
  Splitting is **group-preserving**: requests are first grouped exactly
  the way :class:`~repro.baselines.base.QueryPlanner` would group them
  (shared source, identical target tuple), and whole groups are assigned
  to workers greedy-balanced by estimated pair count — so each worker
  runs the same kernels on the same groups the single-process planner
  would have, and by the planner's exactness contract (answers are
  bit-identical to direct engine calls no matter the grouping) the
  merged results are **bit-identical to the single-process path**.
* Results travel back as one packed ``float64`` column per sub-batch
  (shape recovered from the requests the dispatcher kept), so the cost
  per answer is a memcpy, not per-float object churn — and the exact
  IEEE bits survive the trip.
* That packed column never touches the pipe: each worker owns a
  **shared-memory result lane** (a ``multiprocessing.shared_memory``
  ring the parent creates and unlinks), writes the reply bytes into it
  at a ring offset, and sends only a tiny ``("okl", offset, nbytes,
  crc, busy)`` control frame.  Dispatch is lockstep per worker (one
  in-flight sub-batch), so a single ring with no read barrier is
  race-free; a reply larger than the lane rides the pipe in-band
  (``("ok", blob, crc, busy)``).
* The *request* path is symmetric: each sub-batch's typed requests are
  packed into flat REQCOL columns (:func:`repro.core.serialize.
  pack_requests` — per-kind codes, uvarint shape counts, one int32/64
  node-id column at HLIDX2's width discipline), written into a second
  per-worker **request lane**, and announced with a tiny
  ``("reql", offset, nbytes, crc)`` frame; the worker reconstructs the
  typed requests from the columns without per-object unpickling.
  Oversized batches, retries and hedges send the same packed payload
  in-band on the pipe (``("reqp", payload, crc)``), and a payload
  failing its CRC32 check fails typed as :class:`RequestCorrupted` —
  never a wrong answer.  ``stats()["request_path"]`` and
  ``stats()["reply_path"]`` count pipe and lane bytes, and
  ``stats()["dispatch"]`` splits dispatch wall time into
  pack/send/compute/merge.
* A shared :class:`~repro.baselines.base.DistanceCache` stays in the
  dispatcher process: point hits are answered before any dispatch, and
  freshly computed point distances are stored back after the merge —
  the same consult-per-batch discipline the planner uses.

**Crash handling**: a worker that dies (OOM-kill, segfault, operator
``kill -9``) is detected at ``send``/``recv`` time, respawned from the
same bundle spec, and its in-flight sub-batch is retried (once by
default).  A sub-batch that keeps killing workers is failed *cleanly* —
its requests get a :class:`WorkerCrashed` result/exception, every other
sub-batch of the same dispatch completes normally, in-flight replies
are always drained so pipes never desynchronise, and the pool ends the
dispatch with a full complement of live workers.

Everything here is synchronous; :class:`repro.serve.Server` wires a
pool in as its second execution tier by dispatching off-loop (the event
loop keeps accepting submissions while workers compute).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import zlib
from array import array
from collections import OrderedDict
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import backend
from ..baselines.base import (
    CrashRequest,
    DistanceCache,
    DistanceRequest,
    OneToManyRequest,
    Request,
    TableRequest,
)
from ..core.serialize import _REQCOL_TYPES, pack_requests, unpack_requests
from . import faults as _faults
from .health import BackoffPolicy, CircuitBreaker

__all__ = [
    "CrashRequest",
    "HedgeMismatch",
    "ReplyCorrupted",
    "RequestCorrupted",
    "WorkerCrashed",
    "WorkerHandle",
    "WorkerPool",
    "WorkerStalled",
]

#: Exit code a worker uses for the deliberate test-hook crash, so a
#: CrashRequest (or scripted ``kill`` fault) death is distinguishable
#: from a real fault in CI logs.
_CRASH_EXIT_CODE = _faults.CRASH_EXIT_CODE

#: Shared-memory lane size per worker (reply and request rings alike).
#: Replies are one float64 per answered (s, t) pair, so 1 MiB covers a
#: 128k-pair sub-batch — far past the planner's batch shapes — and
#: packed REQCOL requests are smaller still; larger payloads ride the
#: pipe in-band (counted in ``stats()['reply_path']`` /
#: ``stats()['request_path']``).  Read at pool construction, so tests
#: shrink it with ``monkeypatch``.
_LANE_BYTES = 1 << 20


class _Lane:
    """One parent-owned shared-memory ring (reply or request).

    The parent creates (and finally unlinks) the segment; the peer
    attaches by name and the writing side places each payload at a ring
    offset announced in a tiny pipe frame.  Every use is lockstep — at
    most one payload is live in the ring at a time (one in-flight
    sub-batch per worker) — so no read/write barrier is needed.
    """

    __slots__ = ("shm", "size")

    def __init__(self, size: int) -> None:
        from multiprocessing import shared_memory

        self.shm = shared_memory.SharedMemory(create=True, size=size)
        self.size = size

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def cfg(self) -> dict:
        """What a peer needs to attach: ``{"name", "size"}``."""
        return {"name": self.shm.name, "size": self.size}

    def view(self, offset: int, nbytes: int) -> memoryview:
        """Zero-copy window over one payload (valid until the next send)."""
        if not 0 <= offset <= self.size - nbytes:
            raise ValueError(
                f"lane window [{offset}, {offset + nbytes}) outside lane "
                f"of {self.size} bytes"
            )
        return self.shm.buf[offset : offset + nbytes]

    def destroy(self) -> None:
        """Close the parent mapping and unlink the segment (idempotent)."""
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a still-exported view
            pass  # (e.g. a traceback-pinned frame); unlink regardless
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


def _attach_lane(cfg: dict):
    """Worker-side attach to the parent's lane; returns the mapping.

    On CPython 3.11 attaching registers the segment with the resource
    tracker too, but spawned workers inherit the *parent's* tracker fd,
    so that register is an idempotent set-add on the registration the
    parent made at create time.  Ownership stays with the parent: its
    ``unlink`` in :meth:`WorkerPool.close` performs the single matching
    unregister.  (An explicit child-side unregister here would strip the
    parent's entry from the shared set and make that later unlink
    double-unregister, so we deliberately leave the tracker alone.)
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=cfg["name"])


class WorkerCrashed(RuntimeError):
    """A worker process died; raised (or returned per-request) after the
    respawn-and-retry budget is exhausted."""


class WorkerStalled(WorkerCrashed):
    """A worker is alive but sent no reply within the recv watchdog —
    SIGSTOP, a lock wedge, an endless loop.  Subclasses
    :class:`WorkerCrashed` so every existing crash handler (retry,
    breaker, Server's per-future failure mapping) applies unchanged."""


class ReplyCorrupted(WorkerCrashed):
    """A reply payload failed its CRC32 check (torn shared-memory
    write, truncated frame) or does not hold one float64 per expected
    answer.  Handled like a crash: the sub-batch is retried on a
    respawned worker rather than unpacked into garbage."""


class RequestCorrupted(ReplyCorrupted):
    """A packed *request* payload failed its CRC32 check (or would not
    decode) on the worker side — the request lane's mirror of
    :class:`ReplyCorrupted`.  The worker reports it typed instead of
    reconstructing garbage requests, keeps serving, and the
    dispatcher's existing crash path retries the sub-batch (the clean
    payload over the pipe, on a respawned worker) — never a wrong
    answer."""


class HedgeMismatch(WorkerCrashed):
    """A hedged duplicate of a sub-batch returned different bytes than
    the first answer.  Replicas must be bit-identical, so this is
    never retried — it means nondeterminism, not a transient fault."""


def _request_pairs(req: Request) -> int:
    """Estimated kernel work for load balancing: underlying (s, t) pairs."""
    if isinstance(req, DistanceRequest):
        return 1
    if isinstance(req, OneToManyRequest):
        return max(1, len(req.targets))
    if isinstance(req, TableRequest):
        return max(1, len(req.sources) * len(req.targets))
    return 1


def _group_key(idx: int, req: Request):
    """The planner's grouping key, reproduced for split planning.

    Point requests group by shared source, one-to-many and table
    requests by identical target tuple — keeping every group on one
    worker preserves the exact kernel routing (and kernel batch sizes)
    of the single-process planner.
    """
    if isinstance(req, DistanceRequest):
        return ("p", req.source)
    if isinstance(req, OneToManyRequest):
        return ("o", req.targets)
    if isinstance(req, TableRequest):
        return ("t", req.targets)
    return ("x", idx)  # unknown kinds stay singleton groups


def plan_split(
    items: Sequence[Tuple[int, Request]], workers: int
) -> List[List[Tuple[int, Request]]]:
    """Assign ``(original_index, request)`` items to ``workers`` buckets.

    Groups (in the planner's sense) are kept whole *up to the fair
    share*: a group whose estimated cost exceeds ``total / workers`` —
    a skewed workload's hot order pool routinely is most of the batch —
    is chunked at request granularity so one worker cannot become the
    whole dispatch's critical path.  Splitting a group never changes
    answers (the planner contract makes every grouping bit-identical to
    direct calls); it only trades a wider table kernel for balance, and
    only when the alternative is idle workers.  Groups are then placed
    largest-first onto the least-loaded worker (ties: earliest first
    appearance, lowest worker id), and each bucket is re-sorted by
    original index so per-worker request order is deterministic.  The
    whole plan is deterministic for a given batch.
    """
    groups: "OrderedDict[tuple, List]" = OrderedDict()
    total = 0
    for idx, req in items:
        entry = groups.setdefault(_group_key(idx, req), [0, []])
        pairs = _request_pairs(req)
        entry[0] += pairs
        entry[1].append((idx, req, pairs))
        total += pairs
    fair_share = max(1, -(-total // workers))  # ceil
    pieces: List[List] = []
    for cost, members in groups.values():
        if cost <= fair_share or len(members) < 2:
            pieces.append([cost, members])
            continue
        # Chunk the oversized group into fair-share-sized pieces.
        piece_cost = 0
        piece: List = []
        for member in members:
            piece.append(member)
            piece_cost += member[2]
            if piece_cost >= fair_share:
                pieces.append([piece_cost, piece])
                piece_cost = 0
                piece = []
        if piece:
            pieces.append([piece_cost, piece])
    order = sorted(pieces, key=lambda g: (-g[0], g[1][0][0]))
    loads = [0] * workers
    buckets: List[List[Tuple[int, Request]]] = [[] for _ in range(workers)]
    for cost, members in order:
        w = min(range(workers), key=lambda j: (loads[j], j))
        loads[w] += cost
        buckets[w].extend((idx, req) for idx, req, _ in members)
    for bucket in buckets:
        bucket.sort(key=lambda item: item[0])
    return buckets


# ----------------------------------------------------------------------
# Result transport: one packed float64 column per sub-batch
# ----------------------------------------------------------------------
def _pack_results(requests: Sequence[Request], results: Sequence) -> bytes:
    """Flatten a sub-batch's answers into one little-endian f64 block.

    The dispatcher knows every answer's shape from the requests it kept,
    so no framing is needed; float64 round-trips are bit-exact, and the
    unpack side hands back *plain Python floats* — the same types the
    single-process planner path produces.
    """
    out = array("d")
    for req, res in zip(requests, results):
        if isinstance(req, DistanceRequest):
            out.append(res)
        elif isinstance(req, OneToManyRequest):
            out.extend(res)
        else:  # TableRequest
            for row in res:
                out.extend(row)
    return out.tobytes()


def _answer_count(req: Request) -> int:
    """How many float64 answers ``req`` contributes to a reply column."""
    if isinstance(req, DistanceRequest):
        return 1
    if isinstance(req, OneToManyRequest):
        return len(req.targets)
    return len(req.sources) * len(req.targets)


def _unpack_results(requests: Sequence[Request], blob) -> List[object]:
    """Inverse of :func:`_pack_results`; a reply that does not hold
    exactly one float64 per expected answer raises
    :class:`ReplyCorrupted`."""
    expected = 8 * sum(_answer_count(req) for req in requests)
    if len(blob) != expected:
        raise ReplyCorrupted(
            f"reply holds {len(blob)} bytes; its requests expect {expected}"
        )
    flat = memoryview(blob).cast("d")
    results: List[object] = []
    pos = 0
    for req in requests:
        if isinstance(req, DistanceRequest):
            results.append(flat[pos])
            pos += 1
        elif isinstance(req, OneToManyRequest):
            k = len(req.targets)
            results.append(flat[pos : pos + k].tolist())
            pos += k
        else:
            nt = len(req.targets)
            rows = [
                flat[pos + i * nt : pos + (i + 1) * nt].tolist()
                for i in range(len(req.sources))
            ]
            results.append(rows)
            pos += len(req.sources) * nt
    return results


# ----------------------------------------------------------------------
# Worker process mains
# ----------------------------------------------------------------------
def _worker_main(conn, spec: dict) -> None:
    """Entry point of every pool process.

    Boots an engine replica from the bundle, sends a ``("ready", n)``
    handshake (so load errors surface at spawn time in the parent, not
    as a hang), then serves commands until ``("stop",)`` or parent
    death (EOF).
    """
    try:
        if spec.get("backend"):
            backend.force_backend(spec["backend"])
        from ..baselines.base import QueryPlanner
        from ..core.serialize import load_bundle

        graph, engine = load_bundle(spec["bundle"])
        planner = QueryPlanner(engine)
        lane = _attach_lane(spec["lane"])
        req_lane = _attach_lane(spec["req_lane"])
        conn.send(("ready", graph.n))
        _serve_loop(conn, planner, lane, spec["lane"]["size"], req_lane)
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass  # parent went away; nothing to report to
    except Exception as exc:  # boot failure: tell the parent, then exit
        try:
            conn.send(("err", exc))
        except Exception:
            pass


def _recv_command(conn, poll_s: float = 1.0):
    """Worker-side command wait: a bounded poll loop with an orphan check.

    Under the ``fork`` context sibling workers inherit each other's
    parent-side pipe ends, so a SIGKILLed parent never delivers EOF to
    its workers — a plain ``conn.recv()`` would leave orphans running
    forever.  Polling with a short timeout and re-checking ``getppid``
    turns parent death into a clean ``EOFError`` exit within
    ``poll_s`` seconds.
    """
    ppid = os.getppid()
    while True:
        if conn.poll(poll_s):
            return conn.recv()
        if os.getppid() != ppid:
            raise EOFError("parent process is gone; worker exiting")


def _decode_request_frame(msg, req_lane):
    """``(requests, fault)`` from a packed request frame, verified.

    ``("reql", offset, nbytes, crc[, fault])`` resolves the payload
    from the request lane, ``("reqp", payload, crc[, fault])`` carries
    it on the pipe (oversized batches, retries and hedges).  Either way
    the payload's CRC32 must match the one the dispatcher framed
    *before* any scripted request fault damaged the bytes — a mismatch
    (or a payload that will not decode) raises :class:`RequestCorrupted`
    so the caller reports it typed instead of executing garbage
    requests.
    """
    op = msg[0]
    if op == "reql":
        _, offset, nbytes, crc = msg[:4]
        fault = msg[4] if len(msg) > 4 else None
        payload = bytes(req_lane.buf[offset : offset + nbytes])
    else:
        _, payload, crc = msg[:3]
        fault = msg[3] if len(msg) > 3 else None
    if zlib.crc32(payload) != crc:
        raise RequestCorrupted(
            f"request payload failed CRC32 ({len(payload)} bytes via {op!r})"
        )
    try:
        return unpack_requests(payload), fault
    except Exception as exc:
        raise RequestCorrupted(
            f"request payload would not decode: {exc}"
        ) from None


def _serve_loop(conn, planner, lane, lane_size: int, req_lane) -> None:
    wpos = 0  # ring write head; single live reply, so wrap is just reset
    while True:
        msg = _recv_command(conn)
        op = msg[0]
        if op == "stop":
            conn.send(("bye",))
            return
        if op in ("reql", "reqp"):
            try:
                requests, fault = _decode_request_frame(msg, req_lane)
            except RequestCorrupted as exc:
                conn.send(("err", exc))
                continue
            if any(isinstance(r, CrashRequest) for r in requests):
                os._exit(_CRASH_EXIT_CODE)  # test hook: die mid-batch
            if fault is not None:
                _faults.apply_pre(fault)  # kill dies here, stall sleeps
            t0 = time.perf_counter()
            try:
                results = planner.execute(requests)
            except Exception as exc:
                conn.send(("err", exc))
                continue
            busy = time.perf_counter() - t0
            blob = _pack_results(requests, results)
            # CRC over the clean payload travels in the control frame;
            # reply faults damage only what gets written/sent after it,
            # exactly like a torn write under a real fault.
            crc = zlib.crc32(blob)
            payload = blob
            if fault is not None:
                payload = _faults.apply_reply(fault, blob)
            if len(payload) <= lane_size:
                if wpos + len(payload) > lane_size:
                    wpos = 0
                lane.buf[wpos : wpos + len(payload)] = payload
                conn.send(("okl", wpos, len(payload), crc, busy))
                # keep the next write 8-aligned for the f64 cast
                wpos = (wpos + len(payload) + 7) & ~7
            else:  # an oversized reply rides the pipe in-band
                conn.send(("ok", payload, crc, busy))
        elif op == "stats":
            conn.send(("ok", planner.stats()))
        else:
            conn.send(("err", ValueError(f"unknown worker op {op!r}")))


def _default_context_name() -> str:
    """``fork`` where the platform offers it (cheap respawn, no spec
    pickling), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ----------------------------------------------------------------------
# WorkerHandle: one process + pipe + respawn
# ----------------------------------------------------------------------
#: Upper bound on a worker's boot (spawn -> ready handshake).  Bounded
#: because a respawn can fork from a multi-threaded parent (the pool
#: dispatch thread), where a child wedged on an inherited lock before
#: reaching our code would otherwise hang the dispatch — and with it the
#: whole server — forever.  A timeout turns that wedge into the
#: already-handled WorkerCrashed path.  (Platforms without ``fork``
#: get ``spawn`` from :func:`_default_context_name`, which avoids
#: fork-with-threads entirely, at the cost of re-importing per spawn.)
_BOOT_TIMEOUT_S = 120.0


class WorkerHandle:
    """One worker process with a duplex pipe and a respawn recipe.

    The spec is kept so :meth:`respawn` can boot an identical
    replacement after a crash, reloading the engine replica from the
    same bundle.  All pipe errors are normalised to
    :class:`WorkerCrashed` so callers have exactly one failure mode to
    handle; a boot that neither fails nor reports ready within
    :data:`_BOOT_TIMEOUT_S` counts as crashed too.
    """

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self._ctx = multiprocessing.get_context(_default_context_name())
        self.respawns = 0
        self.process = None
        self.conn = None
        self.ready_info = None
        self._spawn()

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn, self.spec), daemon=True
        )
        proc.start()
        child_conn.close()
        try:
            if not parent_conn.poll(_BOOT_TIMEOUT_S):
                parent_conn.close()
                proc.terminate()
                proc.join(timeout=5)
                raise WorkerCrashed(
                    f"worker pid {proc.pid} never reported ready within "
                    f"{_BOOT_TIMEOUT_S:.0f}s; terminated"
                )
            msg = parent_conn.recv()
        except EOFError:
            parent_conn.close()
            proc.join()
            raise WorkerCrashed(
                f"worker pid {proc.pid} died during boot "
                f"(exitcode {proc.exitcode})"
            ) from None
        if msg[0] == "err":
            parent_conn.close()
            proc.join()
            raise msg[1]
        self.conn = parent_conn
        self.process = proc
        self.ready_info = msg[1]

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def send(self, message) -> None:
        if self.conn is None:
            raise WorkerCrashed(
                "worker handle has no live process (send after discard)"
            )
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(
                f"worker pid {self.pid} is gone (send failed: {exc})"
            ) from None

    def recv(self, timeout: float):
        """One reply, bounded by a watchdog; never an unbounded pipe wait.

        Remote errors re-raise, dead pipes raise :class:`WorkerCrashed`,
        and a worker that sends nothing within ``timeout`` seconds
        raises :class:`WorkerStalled` — the stuck-but-alive case
        (SIGSTOP, wedged lock) that EOF detection can never see.
        """
        if self.conn is None:
            raise WorkerCrashed(
                "worker handle has no live process (recv after discard)"
            )
        try:
            if not self.conn.poll(timeout):
                alive = self.process.is_alive() if self.process else False
                raise WorkerStalled(
                    f"worker pid {self.pid} sent no reply within "
                    f"{timeout:.1f}s (process alive={alive})"
                )
            reply = self.conn.recv()
        except (EOFError, OSError):
            raise WorkerCrashed(
                f"worker pid {self.pid} died mid-command "
                f"(exitcode {self.process.exitcode})"
            ) from None
        if reply[0] == "err":
            # Raise without leaving ``reply -> exc -> traceback -> this
            # frame -> reply`` as a self-sustaining cycle: the traceback
            # pins every frame it crossed (including callers holding
            # live lane views), which would keep the lane's buffer
            # exported past pool.close() until a cyclic GC pass.
            exc = reply[1]
            del reply
            try:
                raise exc
            finally:
                del exc
        return reply

    def call(self, message, timeout: float):
        self.send(message)
        return self.recv(timeout)

    def respawn(self) -> None:
        """Discard the (dead or wedged) process and boot a replacement."""
        self._discard()
        self.respawns += 1
        self._spawn()

    def _discard(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        proc = self.process
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)
                if proc.is_alive():
                    # SIGTERM cannot land on a SIGSTOPped process and a
                    # wedged handler may ignore it; SIGKILL reaps both.
                    proc.kill()
            proc.join(timeout=5)
            self.process = None

    def close(self) -> None:
        """Polite bounded shutdown; falls back to terminate/kill."""
        if self.conn is not None:
            try:
                self.conn.send(("stop",))
                if self.conn.poll(5.0):
                    self.conn.recv()  # ("bye",)
            except (BrokenPipeError, EOFError, OSError):
                pass
        self._discard()


# ----------------------------------------------------------------------
# WorkerPool: the sharded serving tier
# ----------------------------------------------------------------------
class WorkerPool:
    """Sharded batch execution over N bundle-booted engine replicas.

    Parameters
    ----------
    bundle:
        Path of the bundle file every worker (and every respawn) boots
        from, a ``str`` or an ``os.PathLike`` (kept as its ``str``);
        anything else raises :class:`TypeError`.
    workers:
        Replica count.
    cache:
        Optional shared :class:`DistanceCache` (or ``True`` for a
        default-sized one), consulted in the dispatcher before any
        sub-batch is sent and refilled from fresh point answers —
        planner rule 3, lifted one tier up.
    max_retries:
        How many times a crashed sub-batch is retried on a fresh worker
        before its requests are failed with :class:`WorkerCrashed`.
        Retries pause per the default
        :class:`~repro.serve.health.BackoffPolicy` (capped exponential,
        deterministic jitter; first retry free).
    recv_timeout_s:
        Per-dispatch watchdog on every worker reply.  A worker that
        sends nothing within this budget — dead *or* stuck-but-alive —
        fails its sub-batch with :class:`WorkerStalled` and is
        force-respawned; no dispatch ever waits on a pipe unboundedly.
    hedge_after_s:
        If set, a sub-batch whose reply has not arrived after this many
        seconds is *hedged*: re-dispatched to an idle worker,
        first-answer-wins, and when both answer their bytes are
        asserted identical (:class:`HedgeMismatch` otherwise).  Default
        ``None`` (off) — hedging doubles work on stragglers, a
        tail-latency trade the operator must opt into.
    hedge_grace_s:
        After the race is won, how long the losing duplicate may stay
        in flight before its worker is force-respawned (default 1.0s).
        The dispatch that won does *not* wait: the loser's slot simply
        sits out subsequent dispatches until its duplicate reply is
        drained — and bit-compared against the winner — by the next
        ``execute``'s sweep, or until the grace expires.
    breaker:
        Per-worker :class:`~repro.serve.health.CircuitBreaker`
        (default: threshold 5, cooldown 1s doubling to 30s).  A slot
        whose failures keep burning the retry budget is quarantined;
        dispatches degrade group-preservingly onto the remaining
        workers, down to a documented single-process planner fallback
        when every slot is open (see README "Resilience").
    fault_plan:
        Test hook: a :class:`~repro.serve.faults.FaultPlan` scripting
        worker faults by (dispatch, slot).  Production pools pass
        ``None`` and every injection site is behind an ``is None``
        fast path.

    Workers start with ``fork`` where the platform offers it, else
    ``spawn``, and run the kernel tier active in the constructing
    process, so a ``backend.forced`` scope around the constructor
    propagates.  Each worker gets one shared-memory reply lane and one
    request lane of :data:`_LANE_BYTES` each; a platform without
    ``multiprocessing.shared_memory`` fails construction.

    ``execute`` is the whole query surface: one heterogeneous request
    batch in, positionally aligned results out, bit-identical to the
    single-process :class:`~repro.baselines.base.QueryPlanner` path.
    The pool is not thread-safe; :class:`repro.serve.Server` serialises
    access through one dispatch thread.
    """

    def __init__(
        self,
        bundle,
        *,
        workers: int = 2,
        cache=None,
        max_retries: int = 1,
        recv_timeout_s: float = 30.0,
        hedge_after_s: Optional[float] = None,
        hedge_grace_s: float = 1.0,
        breaker: Optional[CircuitBreaker] = None,
        fault_plan=None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if recv_timeout_s <= 0:
            raise ValueError(
                f"recv_timeout_s must be positive, got {recv_timeout_s}"
            )
        if hedge_after_s is not None and hedge_after_s <= 0:
            raise ValueError(
                f"hedge_after_s must be positive or None, got {hedge_after_s}"
            )
        if hedge_grace_s < 0:
            raise ValueError(
                f"hedge_grace_s must be >= 0, got {hedge_grace_s}"
            )
        if cache is True:
            cache = DistanceCache()
        self.cache = cache
        self.max_retries = max_retries
        self.recv_timeout_s = recv_timeout_s
        self.hedge_after_s = hedge_after_s
        self.hedge_grace_s = hedge_grace_s
        self._backoff = BackoffPolicy()
        self._breaker = (
            breaker if breaker is not None else CircuitBreaker(workers)
        )
        self._fault_plan = fault_plan
        if isinstance(bundle, os.PathLike):
            bundle = os.fspath(bundle)
        if not isinstance(bundle, str):
            raise TypeError(
                "bundle must be a str or os.PathLike path; got "
                f"{type(bundle).__name__!r}"
            )
        spec: Dict[str, object] = {"backend": backend.active(), "bundle": bundle}
        #: Base worker spec, kept for the all-quarantined planner fallback.
        self._spec = spec
        # Shared-memory lanes: one reply ring and one request ring per
        # worker, recorded in a per-handle copy of the spec so a
        # respawned worker re-attaches the same segments.
        self._lanes: List[_Lane] = []
        self._req_lanes: List[_Lane] = []
        self._handles: List[WorkerHandle] = []
        self._reply_pipe_bytes = 0
        self._reply_shm_bytes = 0
        self._oversized_replies = 0
        try:
            for _ in range(workers):
                self._lanes.append(_Lane(_LANE_BYTES))
                self._req_lanes.append(_Lane(_LANE_BYTES))
                wspec = dict(spec)
                wspec["lane"] = self._lanes[-1].cfg
                wspec["req_lane"] = self._req_lanes[-1].cfg
                self._handles.append(WorkerHandle(wspec))
        except BaseException:
            for handle in self._handles:
                try:
                    handle.close()
                except Exception:
                    pass
            for lane in (*self._lanes, *self._req_lanes):
                lane.destroy()
            raise
        #: Node count of the bundled graph (from the ready handshake) —
        #: what Server.submit validates request node ids against.
        self.n: int = self._handles[0].ready_info
        self._closed = False
        self._t0 = time.perf_counter()
        self._dispatches = 0
        self._imbalance_sum = 0.0
        # Request-path counters + per-slot request-ring write heads
        # (the rings are parent-owned, so the cursors live here and
        # survive worker respawns).
        self._req_pipe_bytes = 0
        self._req_shm_bytes = 0
        self._req_oversized = 0
        self._req_crc_failures = 0
        self._req_wpos = [0] * workers
        # Dispatch wall-time breakdown (stats()["dispatch"]).
        self._pack_s = 0.0
        self._send_s = 0.0
        self._compute_s = 0.0
        self._merge_s = 0.0
        self._wstats = [
            {"batches": 0, "requests": 0, "pairs": 0, "busy_s": 0.0}
            for _ in self._handles
        ]
        # Resilience counters (see stats()["resilience"]).
        self._watchdog_timeouts = 0
        self._retry_attempts = 0
        self._crc_failures = 0
        self._hedges = 0
        self._hedge_wins = 0
        self._hedge_parity = 0
        self._hedge_mismatches = 0
        self._quarantine_skips = 0
        self._fallback_batches = 0
        self._fb_planner = None  # lazy single-process degraded mode
        #: slot -> (winner_bytes, since): hedge losers still in flight,
        #: drained (and bit-compared) by _sweep_hedge_losers.
        self._hedge_pending: Dict[int, Tuple[bytes, float]] = {}

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._handles)

    @property
    def handles(self) -> List[WorkerHandle]:
        """The live worker handles (exposed for tests/chaos tooling)."""
        return self._handles

    def pids(self) -> List[Optional[int]]:
        return [h.pid for h in self._handles]

    def lane_names(self) -> List[str]:
        """Names of every shared-memory segment the pool owns (reply
        and request lanes) — tests assert none outlive ``close()``."""
        return [lane.name for lane in (*self._lanes, *self._req_lanes)]

    # ------------------------------------------------------------------
    def _encode_sub(self, slot: int, reqs: List[Request], fault):
        """One sub-batch -> ``(message, clean)``, with request accounting.

        The requests are packed into REQCOL columns, written at worker
        ``slot``'s request-ring cursor (8-aligned advance, wrap to 0 —
        safe because dispatch is lockstep per worker) and announced by
        the tiny ``("reql", offset, nbytes, crc)`` control frame; a
        packed batch larger than the lane rides the pipe in-band as
        ``("reqp", payload, crc)``.  ``clean`` is that in-band frame
        over the undamaged payload, which retries and hedges resend.
        Scripted *request* faults (``req_corrupt`` / ``req_truncate``)
        are consumed here: the frame keeps the clean payload's CRC and
        length while the damaged bytes go into the lane/pipe, exactly
        like a torn write the worker must catch.  Every frame's pickled
        size is charged to ``pipe_bytes`` — the same accounting rule
        the reply path uses.
        """
        req_fault = None
        if fault is not None and _faults.is_request_fault(fault):
            req_fault, fault = fault, None
        blob = pack_requests(reqs)
        crc = zlib.crc32(blob)
        clean = ("reqp", blob, crc)
        payload = blob
        if req_fault is not None:
            payload = _faults.apply_request(req_fault, blob)
        lane = self._req_lanes[slot]
        if len(blob) <= lane.size:
            wpos = self._req_wpos[slot]
            if wpos + len(blob) > lane.size:
                wpos = 0
            lane.shm.buf[wpos : wpos + len(payload)] = payload
            # keep the next write 8-aligned, mirroring the reply ring
            self._req_wpos[slot] = (wpos + len(blob) + 7) & ~7
            msg: tuple = ("reql", wpos, len(blob), crc)
            self._req_shm_bytes += len(blob)
        else:
            self._req_oversized += 1
            msg = ("reqp", payload, crc)
        if fault is not None:
            msg = msg + (fault,)
        self._req_pipe_bytes += len(pickle.dumps(msg))
        return msg, clean

    # ------------------------------------------------------------------
    def _reply_results(
        self, w: int, reply, reqs: List[Request]
    ) -> Tuple[List[object], float]:
        """``(answers, busy_s)`` from either reply form, with byte
        accounting, CRC verification and the length check.

        ``("okl", offset, nbytes, crc, busy)`` control frames resolve to
        a zero-copy window over worker ``w``'s lane (only the tiny
        pickled frame crossed the pipe — that is what gets charged to
        ``pipe_bytes``); ``("ok", blob, crc, busy)`` replies did not fit
        the lane, charge the full packed payload and count as oversized.
        Either way the payload's CRC32 must match the one the worker
        computed before writing, and the payload must hold one float64
        per answer ``reqs`` expects — a torn lane write, a truncated
        frame or a reply of the wrong length raises
        :class:`ReplyCorrupted` (retried like a crash) instead of
        unpacking garbage floats.  The unpack counts as merge time.
        """
        lane = reply[0] == "okl"
        if lane:
            _, offset, nbytes, crc, busy = reply
            payload = self._lanes[w].view(offset, nbytes)
        else:
            _, payload, crc, busy = reply
        try:
            if zlib.crc32(payload) != crc:
                self._crc_failures += 1
                raise ReplyCorrupted(
                    f"worker {w} {'lane' if lane else 'pipe'} reply failed "
                    f"CRC32 ({len(payload)} bytes)"
                )
            if lane:
                self._reply_pipe_bytes += len(pickle.dumps(reply))
                self._reply_shm_bytes += nbytes
            else:
                self._reply_pipe_bytes += len(payload)
                self._oversized_replies += 1
            t_merge = time.perf_counter()
            answers = _unpack_results(reqs, payload)
            self._merge_s += time.perf_counter() - t_merge
            return answers, busy
        finally:
            # Release the lane window before the next send, and before
            # any raise: the traceback would otherwise keep this frame
            # (and the exported view) alive in the caller's typed-failure
            # result.
            if lane:
                payload.release()

    def _reply_blob(self, w: int, reply) -> bytes:
        """Raw payload bytes of a reply (hedge parity peek; no accounting)."""
        if reply[0] == "okl":
            _, offset, nbytes, _crc, _busy = reply
            return bytes(self._lanes[w].view(offset, nbytes))
        return bytes(reply[1])

    # ------------------------------------------------------------------
    def execute(
        self, requests: Sequence[Request], *, return_exceptions: bool = False
    ):
        """Answer a heterogeneous batch across the worker replicas.

        Results align with ``requests`` and are bit-identical to
        ``QueryPlanner(engine).execute(requests)`` in one process.  A
        sub-batch whose worker crashes (beyond the retry budget) fails
        *only its own requests*: with ``return_exceptions=True`` those
        slots hold the :class:`WorkerCrashed` instance (the Server tier
        maps them onto the right futures); otherwise the first failure
        raises — but only after every in-flight reply has been drained,
        so the pool is always left consistent and fully respawned.  A
        request of any kind the wire format cannot carry raises
        :class:`TypeError` before anything is sent.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        requests = list(requests)
        for req in requests:
            if not isinstance(req, _REQCOL_TYPES):
                raise TypeError(
                    f"unknown request type {type(req).__name__!r}; expected "
                    "DistanceRequest / OneToManyRequest / TableRequest"
                )
        if not requests:
            return []
        results: List[object] = [None] * len(requests)
        done = [False] * len(requests)

        # Cache pre-pass (point requests only), one lock acquisition.
        cache = self.cache
        if cache is not None:
            point = [
                (i, r) for i, r in enumerate(requests)
                if isinstance(r, DistanceRequest)
            ]
            if point:
                got = cache.lookup_many([(r.source, r.target) for _, r in point])
                for (i, _), value in zip(point, got):
                    if value is not None:
                        results[i] = value
                        done[i] = True

        pending = [(i, r) for i, r in enumerate(requests) if not done[i]]

        # Resolve hedge losers from earlier dispatches first: a slot
        # whose duplicate reply is still in flight must not be sent new
        # work (its pipe would desync), so it sits out this round.
        if self._hedge_pending:
            self._sweep_hedge_losers()

        # Circuit breaker: quarantined slots receive no dispatches this
        # round.  The split stays group-preserving over the survivors,
        # so answers stay bit-identical — only the balance degrades.
        live = []
        for s in range(len(self._handles)):
            if s in self._hedge_pending:
                continue  # draining, not quarantined: no breaker skip
            if self._breaker.allow(s):
                live.append(s)
            else:
                self._quarantine_skips += 1
        dispatch_id = self._dispatches
        pair_loads: List[int] = []
        first_error: Optional[BaseException] = None

        if pending and not live:
            # Every slot is open: degraded single-process mode.  The
            # dispatcher runs the batch through its own planner replica
            # — same bundle, same planner contract, bit-identical
            # answers, no parallelism.
            self._fallback_batches += 1
            outcome: object
            try:
                fb_results = self._fallback_execute([r for _, r in pending])
            except Exception as exc:
                for i, _ in pending:
                    results[i] = exc
                first_error = exc
            else:
                for (i, _), value in zip(pending, fb_results):
                    results[i] = value
            dispatched = []
        else:
            plan = plan_split(pending, len(live)) if pending else []

            # Phase 1: encode and send every sub-batch (workers start
            # computing in parallel); a send that hits a dead pipe is
            # deferred to the recv phase's retry path so it cannot
            # stall the other workers.  Under a FaultPlan the scripted
            # action for (dispatch, slot) rides inside the message —
            # request-side actions are consumed by the encoder itself.
            dispatched = []
            busy_slots: Set[int] = set()
            for j, sub in enumerate(plan):
                if not sub:
                    continue
                slot = live[j]
                reqs = [r for _, r in sub]
                fault = None
                if self._fault_plan is not None:
                    fault = self._fault_plan.take(dispatch_id, slot)
                t_pack = time.perf_counter()
                msg, clean = self._encode_sub(slot, reqs, fault)
                t_send = time.perf_counter()
                self._pack_s += t_send - t_pack
                try:
                    self._handles[slot].send(msg)
                    sent = True
                except WorkerCrashed:
                    sent = False
                self._send_s += time.perf_counter() - t_send
                dispatched.append((slot, sub, clean, sent))
                busy_slots.add(slot)

            # Phase 2: collect replies in dispatch order under the recv
            # watchdog, hedging stragglers and retrying failed
            # sub-batches on respawned workers with backoff.  Every
            # dispatched sub-batch is resolved here — success, remote
            # error, or a typed WorkerCrashed subclass — so no reply is
            # ever left in a pipe and nothing waits unboundedly.
            for slot, sub, clean, sent in dispatched:
                reqs = [r for _, r in sub]
                try:
                    sub_results, busy_s, aslot = self._collect_sub(
                        slot, reqs, clean, sent, busy_slots
                    )
                    busy_slots.discard(slot)
                    t_merge = time.perf_counter()
                    stats = self._wstats[aslot]
                    stats["batches"] += 1
                    stats["requests"] += len(reqs)
                    pairs = sum(_request_pairs(r) for r in reqs)
                    stats["pairs"] += pairs
                    stats["busy_s"] += busy_s
                    self._compute_s += busy_s
                    pair_loads.append(pairs)
                    for (i, _), value in zip(sub, sub_results):
                        results[i] = value
                    self._merge_s += time.perf_counter() - t_merge
                    continue
                except Exception as exc:  # typed failure or remote error
                    busy_slots.discard(slot)
                    outcome = exc
                for i, _ in sub:
                    results[i] = outcome
                if first_error is None:
                    first_error = outcome

        self._dispatches += 1
        if len(pair_loads) > 1:
            mean = sum(pair_loads) / len(pair_loads)
            self._imbalance_sum += (max(pair_loads) / mean) if mean else 1.0
        elif pair_loads:
            self._imbalance_sum += 1.0

        # Cache post-pass: store freshly *computed* point distances
        # (``pending`` excludes the pre-pass hits by construction).
        if cache is not None:
            fresh = [
                ((r.source, r.target), results[i])
                for i, r in pending
                if isinstance(r, DistanceRequest) and isinstance(results[i], float)
            ]
            if fresh:
                cache.store_many(fresh)

        if first_error is not None and not return_exceptions:
            raise first_error
        return results

    def _collect_sub(
        self,
        slot: int,
        reqs: List[Request],
        clean: tuple,
        sent: bool,
        busy_slots: Set[int],
    ) -> Tuple[List[object], float, int]:
        """Resolve one dispatched sub-batch to ``(answers, busy_s, slot)``.

        The happy path is a watchdog-bounded (possibly hedged) recv plus
        reply verification; any :class:`WorkerCrashed` flavour — death,
        stall, corrupted reply — is recorded against the slot's breaker
        and falls through to the backoff retry loop.  Only
        :class:`HedgeMismatch` is terminal: divergent replicas mean
        nondeterminism, which no retry can repair.
        """
        if sent:
            try:
                reply, aslot = self._await_reply(slot, clean, busy_slots)
                answers, busy_s = self._reply_results(aslot, reply, reqs)
                self._breaker.record_success(slot)
                return answers, busy_s, aslot
            except HedgeMismatch:
                raise
            except WorkerCrashed as exc:
                self._note_fault(slot, exc)
                cause: Optional[WorkerCrashed] = exc
        else:
            cause = None
        answers, busy_s = self._retry_sub(slot, reqs, clean, cause=cause)
        self._breaker.record_success(slot)
        return answers, busy_s, slot

    def _note_fault(self, slot: int, exc: BaseException) -> None:
        self._breaker.record_failure(slot)
        if isinstance(exc, WorkerStalled):
            self._watchdog_timeouts += 1
        if isinstance(exc, RequestCorrupted):
            # The worker refused a damaged request payload; the reply
            # CRC counter is untouched (that check never ran).
            self._req_crc_failures += 1

    def _await_reply(self, slot: int, clean: tuple, busy_slots: Set[int]):
        """First reply for ``slot``'s sub-batch, under the watchdog.

        Without hedging this is a plain bounded recv.  With
        ``hedge_after_s`` set, a straggling sub-batch is re-dispatched
        to an idle worker and the first answer wins (the original wins
        ties, keeping the common case deterministic); the loser is
        drained and bit-parity asserted, or force-respawned if still
        busy after the grace window.  Returns ``(reply,
        answering_slot)`` so lane windows resolve against the worker
        that actually answered.
        """
        h = self._handles[slot]
        if self.hedge_after_s is None or h.conn is None:
            return h.recv(self.recv_timeout_s), slot
        if h.conn.poll(min(self.hedge_after_s, self.recv_timeout_s)):
            return h.recv(self.recv_timeout_s), slot
        remaining = max(0.001, self.recv_timeout_s - self.hedge_after_s)
        hslot = self._pick_idle(slot, busy_slots)
        if hslot is None:  # no spare capacity: just keep waiting
            return h.recv(remaining), slot
        hh = self._handles[hslot]
        self._hedges += 1
        try:
            hh.send(clean)  # in-band: the duplicate leaves the rings alone
        except WorkerCrashed:
            return h.recv(remaining), slot
        deadline = time.monotonic() + remaining
        contenders = {slot: h, hslot: hh}
        while contenders:
            budget = deadline - time.monotonic()
            if budget <= 0.0:
                break
            ready = _conn_wait(
                [ch.conn for ch in contenders.values()], timeout=budget
            )
            if not ready:
                break
            if slot in contenders and contenders[slot].conn in ready:
                cand = slot
            else:
                cand = next(
                    s for s, ch in contenders.items() if ch.conn in ready
                )
            ch = contenders.pop(cand)
            try:
                reply = ch.recv(1.0)
            except WorkerCrashed:
                ch.respawn()  # the slot must come back live either way
                if not contenders:
                    raise
                continue  # keep waiting on the survivor
            except BaseException:
                # A remote planner error: resolve every other in-flight
                # duplicate before propagating so no pipe desyncs.
                for other in contenders.values():
                    other.respawn()
                raise
            if cand == hslot:
                self._hedge_wins += 1
            if contenders:
                # First answer wins *now*: the loser's duplicate is left
                # in flight and resolved by a later sweep, so the client
                # never waits for the straggler it was hedged against.
                winner_blob = self._reply_blob(cand, reply)
                since = time.monotonic()
                for other in contenders:
                    self._hedge_pending[other] = (winner_blob, since)
            return reply, cand
        # Deadline expired with no winner: both sides straggled.  The
        # hedge is respawned here (a late duplicate reply would desync
        # its pipe); the original goes through the caller's retry path.
        if hslot in contenders:
            hh.respawn()
        raise WorkerStalled(
            f"worker pid {h.pid} (and its hedge) sent no reply within "
            f"{self.recv_timeout_s:.1f}s"
        )

    def _pick_idle(self, slot: int, busy_slots: Set[int]) -> Optional[int]:
        """Lowest live, breaker-allowed slot with no in-flight dispatch."""
        for s in range(len(self._handles)):
            if s == slot or s in busy_slots or s in self._hedge_pending:
                continue
            if self._handles[s].conn is None:
                continue
            if not self._breaker.allow(s):
                continue
            return s
        return None

    def _sweep_hedge_losers(self, wait: bool = False) -> None:
        """Drain (and parity-check) or dispose of losing hedge duplicates.

        A loser's reply must leave its pipe before the slot can be
        dispatched to again, but the dispatch that won never waits for
        it: the slot sits out rounds until this sweep (run at the top
        of every ``execute``) finds the duplicate ready.  A drained
        duplicate is asserted bit-identical to the winner — the
        cheapest end-to-end exactness check the tier has; a loser
        still busy past the grace window (or dead) is force-respawned
        instead, which clears the pipe just as surely.  With ``wait``
        set the sweep resolves every loser before it returns: it waits
        out the rest of each grace window for the duplicate.
        """
        for slot in list(self._hedge_pending):
            winner_blob, since = self._hedge_pending[slot]
            h = self._handles[slot]
            grace_left = since + self.hedge_grace_s - time.monotonic()
            try:
                if h.conn is None or not h.conn.poll(
                    max(0.0, grace_left) if wait else 0
                ):
                    if wait or grace_left < 0:
                        del self._hedge_pending[slot]
                        h.respawn()
                    continue
                reply = h.recv(1.0)
            except WorkerCrashed:
                del self._hedge_pending[slot]
                h.respawn()
                continue
            except BaseException:
                del self._hedge_pending[slot]
                continue  # remote error from the duplicate; frame drained
            del self._hedge_pending[slot]
            loser_blob = self._reply_blob(slot, reply)
            self._hedge_parity += 1
            if loser_blob != winner_blob:
                self._hedge_mismatches += 1
                raise HedgeMismatch(
                    f"hedged duplicate returned different bytes "
                    f"({len(loser_blob)} vs {len(winner_blob)}); replica "
                    "answers must be bit-identical"
                )

    def _retry_sub(
        self,
        slot: int,
        reqs: List[Request],
        clean: tuple,
        cause: Optional[WorkerCrashed] = None,
    ) -> Tuple[List[object], float]:
        """Respawn worker ``slot`` and re-run its sub-batch, bounded.

        Pacing follows the backoff policy (first retry free, then
        capped exponential with deterministic jitter).  Always leaves
        the slot holding a *live* worker — even on the giving-up path —
        so one poisonous sub-batch cannot shrink the pool.  The
        giving-up error keeps the *type* of the last fault (a stall
        that exhausts its budget still fails as
        :class:`WorkerStalled`), so callers see what actually went
        wrong.
        """
        handle = self._handles[slot]
        for attempt in range(self.max_retries):
            pause = self._backoff.delay(slot, attempt)
            if pause > 0.0:
                time.sleep(pause)
            self._retry_attempts += 1
            handle.respawn()
            try:
                # In-band: the clean payload gets through even if the
                # request lane itself is what broke.
                handle.send(clean)
                reply = handle.recv(self.recv_timeout_s)
                return self._reply_results(slot, reply, reqs)
            except WorkerCrashed as exc:
                self._note_fault(slot, exc)
                cause = exc
                continue
            # a remote ("err", exc) reply propagates to the caller
        handle.respawn()
        kind = type(cause) if isinstance(cause, WorkerCrashed) else WorkerCrashed
        raise kind(
            f"worker {slot} failed the same {len(reqs)}-request sub-batch "
            f"{self.max_retries + 1}x; requests failed, worker respawned"
        ) from cause

    def _fallback_execute(self, reqs: List[Request]):
        """Single-process degraded mode: every slot is quarantined.

        Lazily boots one planner replica *in the dispatcher* from the
        same bundle spec the workers use, so answers stay bit-identical
        (planner contract) while the breakers cool down.  A torn bundle
        surfaces as the serializer's typed
        :class:`~repro.core.serialize.BundleCorrupted` — degraded mode
        never serves garbage either.
        """
        if self._fb_planner is None:
            from ..baselines.base import QueryPlanner
            from ..core.serialize import load_bundle

            _, engine = load_bundle(self._spec["bundle"])
            self._fb_planner = QueryPlanner(engine)
        return self._fb_planner.execute(reqs)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The worker-tier picture: per-worker counters + dispatch shape.

        ``busy_s`` is compute time measured inside each worker;
        ``idle_s`` is the rest of that worker's lifetime (dispatch gaps
        + IPC).  ``mean_dispatch_imbalance`` is the mean over dispatches
        of ``max(sub-batch pairs) / mean(sub-batch pairs)`` — 1.0 is a
        perfectly even split.
        """
        wall = time.perf_counter() - self._t0
        per_worker = []
        for handle, stats in zip(self._handles, self._wstats):
            per_worker.append(
                {
                    "pid": handle.pid,
                    "batches": stats["batches"],
                    "requests": stats["requests"],
                    "pairs": stats["pairs"],
                    "busy_s": round(stats["busy_s"], 6),
                    "idle_s": round(max(0.0, wall - stats["busy_s"]), 6),
                    "respawns": handle.respawns,
                }
            )
        out = {
            "workers": len(self._handles),
            "reply_path": {
                "pipe_bytes": self._reply_pipe_bytes,
                "shm_bytes": self._reply_shm_bytes,
                "oversized_replies": self._oversized_replies,
                "crc_failures": self._crc_failures,
            },
            "request_path": {
                "pipe_bytes": self._req_pipe_bytes,
                "shm_bytes": self._req_shm_bytes,
                "oversized_batches": self._req_oversized,
                "crc_failures": self._req_crc_failures,
            },
            "dispatch": {
                "pack_s": round(self._pack_s, 6),
                "send_s": round(self._send_s, 6),
                "compute_s": round(self._compute_s, 6),
                "merge_s": round(self._merge_s, 6),
            },
            "resilience": {
                "recv_timeout_s": self.recv_timeout_s,
                "watchdog_timeouts": self._watchdog_timeouts,
                "retry": {
                    "max_retries": self.max_retries,
                    "attempts": self._retry_attempts,
                    "backoff": self._backoff.describe(),
                },
                "hedge": {
                    "after_s": self.hedge_after_s,
                    "grace_s": self.hedge_grace_s,
                    "hedges": self._hedges,
                    "wins": self._hedge_wins,
                    "parity_checks": self._hedge_parity,
                    "mismatches": self._hedge_mismatches,
                    "draining": len(self._hedge_pending),
                },
                "breaker": {
                    "threshold": self._breaker.threshold,
                    "quarantine_skips": self._quarantine_skips,
                    "fallback_batches": self._fallback_batches,
                    "per_slot": self._breaker.snapshot(),
                },
            },
            "dispatches": self._dispatches,
            "mean_dispatch_imbalance": round(
                self._imbalance_sum / self._dispatches, 4
            )
            if self._dispatches
            else 0.0,
            "respawns": sum(h.respawns for h in self._handles),
            "per_worker": per_worker,
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out

    def worker_planner_stats(self) -> List[dict]:
        """Each replica's planner counters (kernel routing per worker).

        Hedge losers still in flight are resolved first, so no stats
        request queues behind a duplicate's reply.  Each reply is bounded
        by ``recv_timeout_s``; a worker that misses it is respawned (its
        late reply would desync the pipe) and the failure propagates.
        """
        if self._hedge_pending:
            self._sweep_hedge_losers(wait=True)
        out = []
        for h in self._handles:
            try:
                out.append(h.call(("stats",), self.recv_timeout_s)[1])
            except WorkerCrashed:
                h.respawn()
                raise
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker and unlink all lanes (idempotent).

        Workers go first (they hold attachments to the segments), then
        every reply and request lane is closed *and unlinked* — no
        ``/dev/shm`` entries outlive the pool, even after worker
        crashes and respawns.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.close()
        for lane in (*self._lanes, *self._req_lanes):
            lane.destroy()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

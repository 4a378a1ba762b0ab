"""Common interface implemented by every query engine in this package.

The benchmark harness treats HL, FC, AH, CH, SILC, ALT, A* and plain
Dijkstra uniformly: each is a :class:`QueryEngine` with ``distance`` and
``shortest_path`` methods plus size/preprocessing accounting, which is
what Figures 8-10 sweep over.

On top of the point-to-point contract every engine also exposes a
*batched* query surface — :meth:`QueryEngine.one_to_many` and
:meth:`QueryEngine.distance_table` — which is what serving workloads
(k-nearest-restaurant, travel-time matrices for dispatch/ETA) actually
issue.  The base class answers a batch with one truncated Dijkstra per
source, which already beats a loop of point-to-point queries because the
search from ``source`` is shared by all its targets; engines with a
stronger primitive override it (hub labels scan the source label once
per batch, see :mod:`repro.baselines.hl`).

The planner contract
--------------------
:class:`QueryPlanner` is the engine-agnostic layer between a *workload*
(a heterogeneous list of :class:`DistanceRequest` /
:class:`OneToManyRequest` / :class:`TableRequest`) and an engine's
kernels.  It is what :mod:`repro.serve` executes coalesced batches
through, and it obeys three rules that callers may rely on:

1. **Answers are bit-identical to direct engine calls.**  For every
   request the planner returns exactly what ``engine.distance`` /
   ``engine.one_to_many`` / ``engine.distance_table`` would have
   returned for that request alone.  Regrouping is therefore only
   permitted along lines the engine *declares safe* via
   :meth:`QueryEngine.batch_capabilities`:
   ``exact_point_coalescing`` promises that ``one_to_many(s, ts)``
   reproduces ``[distance(s, t) for t in ts]`` bit-for-bit (true for
   label joins and for pure-Dijkstra engines, false for e.g. CH whose
   shortcut sums may differ from a fresh Dijkstra in the last ulp), and
   ``native_batching`` promises ``distance_table`` factorises
   per-source work over a shared target set while agreeing bitwise
   with per-source ``one_to_many`` (the backend-parity property).
2. **Grouping is structural.**  Point requests are grouped by shared
   source and answered by one ``one_to_many`` per group (when rule 1
   allows).  Rows (``one_to_many`` requests) and tables are grouped
   together by identical target tuple: when the engine batches
   natively, every tuple shared by two or more of them is answered by
   one ``distance_table`` over their concatenated sources, a row taking
   its row of the result and a table its slice.  Singleton groups fall
   back to the direct call — coalescing must never make a lone query
   slower than the method it replaces.
3. **The cache is consulted per group, not per call.**  When a
   :class:`DistanceCache` is attached, all point lookups of a batch hit
   the cache under one lock acquisition (:meth:`DistanceCache.
   lookup_many`), and all freshly computed values are stored back under
   one more (:meth:`DistanceCache.store_many`).  Batched requests
   bypass the cache: they amortise per-source work already, and
   flooding the LRU with one table's pairs would evict the hot point
   pairs the cache exists for.

``QueryPlanner.stats()`` reports how a workload actually decomposed
(requests by kind, groups formed, kernel invocations, cache hits), which
is what the serving layer surfaces per server.

Request ids are integers: the request types normalise every node id
with :func:`operator.index`, so an ``int``, a ``bool`` or any
``__index__`` type is accepted and a float or a string raises
:class:`TypeError` at construction, before anything is queued.
"""

from __future__ import annotations

import abc
import threading
from collections import OrderedDict
from dataclasses import dataclass
from operator import index
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..graph.graph import Graph
from ..graph.path import Path
from ..graph.traversal import dijkstra_distances

__all__ = [
    "BatchCapabilities",
    "CrashRequest",
    "DistanceCache",
    "DistanceRequest",
    "OneToManyRequest",
    "QueryEngine",
    "QueryPlanner",
    "Request",
    "TableRequest",
]

INF = float("inf")


class DistanceCache:
    """Bounded LRU over ``(source, target) -> distance`` with counters.

    Distance queries are pure functions of the endpoint pair (indexes
    are immutable once built), so caching is free accuracy-wise; what it
    buys is the skewed traffic a real service sees — hot station pairs,
    repeated ETA checks — where even a ~2 µs hub-label query loses to a
    dict hit.  The cache is **opt-in**: pass one to a
    :class:`QueryPlanner`, a :class:`~repro.serve.Server` or a
    :class:`~repro.serve.pool.WorkerPool`, because uniformly random
    workloads, like most benchmarks, would only pay the bookkeeping.

    ``hits`` / ``misses`` are exposed (and in :meth:`stats`) so a
    serving layer can monitor whether the cache is earning its memory.

    The cache is **thread- and task-safe**: every operation (including
    the counter updates) runs under one internal lock, so a pool's
    dispatch thread and its callers' threads can share a single
    instance without corrupting the OrderedDict or the hit/miss
    statistics.  Lookups and stores go in bulk (:meth:`lookup_many` /
    :meth:`store_many`), one lock acquisition per batch.
    """

    __slots__ = ("maxsize", "hits", "misses", "_data", "_lock")

    def __init__(self, maxsize: int = 65536) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def lookup_many(self, keys: Sequence) -> List[Optional[float]]:
        """Cached values aligned with ``keys``, hits refreshed as most-recent.

        None marks a miss: distances are floats (``inf`` included), never
        None.  Each key advances the hit or miss counter by one.
        """
        out: List[Optional[float]] = []
        with self._lock:
            data = self._data
            hits = misses = 0
            for key in keys:
                value = data.get(key)
                if value is None:
                    misses += 1
                else:
                    data.move_to_end(key)
                    hits += 1
                out.append(value)
            self.hits += hits
            self.misses += misses
        return out

    def store_many(self, items: Iterable[Tuple[object, float]]) -> None:
        """Insert freshly computed ``(key, value)`` pairs, evicting the
        least recently used entries past ``maxsize``."""
        with self._lock:
            data = self._data
            maxsize = self.maxsize
            for key, value in items:
                data[key] = value
                if len(data) > maxsize:
                    data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        """Counters snapshot: hits, misses, hit_rate, size, maxsize."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }


# ----------------------------------------------------------------------
# The request model the planner (and repro.serve) speaks
# ----------------------------------------------------------------------
class Request:
    """Base class of the planner's request types (for isinstance checks)."""

    __slots__ = ()
    kind = "?"


class DistanceRequest(Request):
    """One point-to-point distance query: ``d(source, target)``.

    The planner answers it with a plain float, exactly
    ``engine.distance(source, target)``.
    """

    __slots__ = ("source", "target")
    kind = "distance"

    def __init__(self, source: int, target: int) -> None:
        self.source = index(source)
        self.target = index(target)

    def __repr__(self) -> str:
        return f"DistanceRequest({self.source}, {self.target})"


class OneToManyRequest(Request):
    """One source against a batch of targets; answered with a row.

    ``targets`` is normalised to a tuple — tuple identity is what the
    planner groups on, so callers issuing the *same* target set (the
    dispatch/ETA pattern) should pass the same sequence every time.
    """

    __slots__ = ("source", "targets")
    kind = "one_to_many"

    def __init__(self, source: int, targets: Iterable[int]) -> None:
        self.source = index(source)
        self.targets = tuple(map(index, targets))

    def __repr__(self) -> str:
        return f"OneToManyRequest({self.source}, <{len(self.targets)} targets>)"


class TableRequest(Request):
    """A full ``len(sources) x len(targets)`` distance matrix."""

    __slots__ = ("sources", "targets")
    kind = "table"

    def __init__(self, sources: Iterable[int], targets: Iterable[int]) -> None:
        self.sources = tuple(map(index, sources))
        self.targets = tuple(map(index, targets))

    def __repr__(self) -> str:
        return (
            f"TableRequest(<{len(self.sources)} sources>, "
            f"<{len(self.targets)} targets>)"
        )


class CrashRequest(Request):
    """Test hook: a request that makes a pool worker ``os._exit`` mid-batch.

    Exists so the worker tier's crash handling (respawn, retry, clean
    failure) is testable *deterministically* — the worker dies while the
    sub-batch is in flight, exactly the race a real OOM-kill hits.  It
    packs as its own REQCOL kind (no ids), so it rides the same wire
    path as real requests.  Never emitted by production code; the
    planner and :meth:`Server.submit` reject it like any unknown type.
    """

    __slots__ = ()
    kind = "crash"


@dataclass(frozen=True)
class BatchCapabilities:
    """What an engine's batched surface promises the planner.

    Attributes
    ----------
    one_to_many, distance_table:
        Human-readable kernel tags for reports (e.g.
        ``"dijkstra-per-source"``, ``"hl-native-gather"``) — surfaced in
        planner/server stats so a recorded benchmark says *which* kernel
        served it.
    native_batching:
        True when ``distance_table`` genuinely factorises target-side
        work across sources (and agrees bitwise with per-source
        ``one_to_many``), so the planner may merge same-target
        ``one_to_many``/table requests into one table call.  The base
        fallback is one independent search per source, where merging
        buys nothing and is skipped.
    exact_point_coalescing:
        True when ``one_to_many(s, ts)`` is bit-identical to
        ``[distance(s, t) for t in ts]``, allowing the planner to fold
        shared-source point queries into one batch.  Engines whose
        point query sums weights in a different association than their
        batch path (CH shortcut unpacking vs plain Dijkstra) must leave
        this False — the planner never trades exactness for grouping.
    """

    one_to_many: str = "dijkstra-per-source"
    distance_table: str = "dijkstra-per-source"
    native_batching: bool = False
    exact_point_coalescing: bool = False


class QueryPlanner:
    """Engine-agnostic batch planner: groups requests, routes kernels.

    See the module docstring ("The planner contract") for the rules.
    The planner is stateless between :meth:`execute` calls except for
    monotonically growing counters; it holds no request state, so one
    instance may serve any number of sequential batches (the serving
    loop calls it once per coalesced batch).

    Parameters
    ----------
    engine:
        Any :class:`QueryEngine`; capabilities are read once here.
    cache:
        Optional shared :class:`DistanceCache` consulted (per group)
        for point requests; None (the default) caches nothing.

    A group of two or more requests is folded into one kernel call; a
    singleton runs the direct per-request call (rule 2).
    """

    def __init__(
        self,
        engine: "QueryEngine",
        cache: Optional[DistanceCache] = None,
    ) -> None:
        self.engine = engine
        self.capabilities = engine.batch_capabilities()
        self.cache = cache
        self._counters: Dict[str, int] = {
            "batches": 0,
            "requests_distance": 0,
            "requests_one_to_many": 0,
            "requests_table": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "coalesced_point_queries": 0,
            "merged_one_to_many": 0,
            "merged_tables": 0,
            "kernel_distance": 0,
            "kernel_one_to_many": 0,
            "kernel_distance_table": 0,
        }

    # ------------------------------------------------------------------
    def execute(self, requests: Sequence[Request]) -> List[object]:
        """Answer a heterogeneous batch; results align with ``requests``.

        ``DistanceRequest`` slots receive a float, ``OneToManyRequest``
        slots a list of floats, ``TableRequest`` slots a list of rows —
        exactly the direct engine calls' types and values.
        """
        requests = list(requests)
        results: List[object] = [None] * len(requests)
        point: List[Tuple[int, int, int]] = []
        batched: List[Tuple[int, Request]] = []
        rows = 0
        for i, req in enumerate(requests):
            if isinstance(req, DistanceRequest):
                point.append((i, req.source, req.target))
            elif isinstance(req, OneToManyRequest):
                batched.append((i, req))
                rows += 1
            elif isinstance(req, TableRequest):
                batched.append((i, req))
            else:
                raise TypeError(
                    f"unknown request type {type(req).__name__!r}; expected "
                    "DistanceRequest / OneToManyRequest / TableRequest"
                )
        c = self._counters
        c["batches"] += 1
        c["requests_distance"] += len(point)
        c["requests_one_to_many"] += rows
        c["requests_table"] += len(batched) - rows
        if point:
            self._run_point(point, results)
        if batched:
            self._run_batched(batched, results)
        return results

    # ------------------------------------------------------------------
    def _run_point(
        self, point: List[Tuple[int, int, int]], results: List[object]
    ) -> None:
        """Cache per group, then shared-source folds where declared exact."""
        c = self._counters
        cache = self.cache
        misses = point
        if cache is not None:
            cached = cache.lookup_many([(s, t) for _, s, t in point])
            misses = []
            for (i, s, t), value in zip(point, cached):
                if value is None:
                    misses.append((i, s, t))
                else:
                    results[i] = value
            c["cache_hits"] += len(point) - len(misses)
            c["cache_misses"] += len(misses)
        if not misses:
            return
        by_source: "OrderedDict[int, List[Tuple[int, int]]]" = OrderedDict()
        for i, s, t in misses:
            by_source.setdefault(s, []).append((i, t))
        caps = self.capabilities
        engine = self.engine
        distance = engine.distance
        fresh: List[Tuple[Tuple[int, int], float]] = []
        keep = fresh.append if cache is not None else (lambda pair: None)
        for s, group in by_source.items():
            if caps.exact_point_coalescing and len(group) >= 2:
                row = engine.one_to_many(s, [t for _, t in group])
                c["kernel_one_to_many"] += 1
                c["coalesced_point_queries"] += len(group)
                for (i, t), d in zip(group, row):
                    results[i] = d
                    keep(((s, t), d))
            else:
                for i, t in group:
                    d = distance(s, t)
                    c["kernel_distance"] += 1
                    results[i] = d
                    keep(((s, t), d))
        if fresh:
            cache.store_many(fresh)

    def _run_batched(
        self, batched: List[Tuple[int, Request]], results: List[object]
    ) -> None:
        """One table call per shared target tuple; rows and tables slice it.

        Rows and tables are grouped together by target tuple.  On a
        natively batching engine a tuple shared by two or more of them
        gets one ``distance_table`` over their sources in batch order:
        a row takes its row of the result and a table its slice.  Any
        other group runs each request's direct call.
        """
        c = self._counters
        engine = self.engine
        by_targets: Dict[Tuple[int, ...], List[Tuple[int, Request]]] = {}
        for item in batched:
            targets = item[1].targets
            group = by_targets.get(targets)
            if group is None:
                by_targets[targets] = [item]
            else:
                group.append(item)
        merge = self.capabilities.native_batching
        for targets, group in by_targets.items():
            if merge and len(group) >= 2:
                sources: List[int] = []
                for _, req in group:
                    if isinstance(req, OneToManyRequest):
                        sources.append(req.source)
                    else:
                        sources.extend(req.sources)
                table = engine.distance_table(sources, targets)
                at = rows = 0
                for i, req in group:
                    if isinstance(req, OneToManyRequest):
                        results[i] = table[at]
                        at += 1
                        rows += 1
                    else:
                        end = at + len(req.sources)
                        results[i] = table[at:end]
                        at = end
                c["kernel_distance_table"] += 1
                c["merged_one_to_many"] += rows
                c["merged_tables"] += len(group) - rows
            else:
                for i, req in group:
                    if isinstance(req, OneToManyRequest):
                        results[i] = engine.one_to_many(req.source, targets)
                        c["kernel_one_to_many"] += 1
                    else:
                        results[i] = engine.distance_table(req.sources, targets)
                        c["kernel_distance_table"] += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot plus the engine's declared kernel tags."""
        caps = self.capabilities
        out = dict(self._counters)
        out["engine"] = self.engine.name
        out["kernels"] = {
            "one_to_many": caps.one_to_many,
            "distance_table": caps.distance_table,
        }
        out["native_batching"] = caps.native_batching
        out["exact_point_coalescing"] = caps.exact_point_coalescing
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out


class QueryEngine(abc.ABC):
    """Abstract base for distance / shortest-path query engines.

    Attributes
    ----------
    graph:
        The road network the engine answers queries on.
    name:
        Short display name used by the benchmark tables.
    """

    name: str = "engine"

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def distance(self, source: int, target: int) -> float:
        """Network distance from ``source`` to ``target`` (inf if none)."""

    @abc.abstractmethod
    def shortest_path(self, source: int, target: int) -> Optional[Path]:
        """A shortest path from ``source`` to ``target``; None if none."""

    def _check_pair(self, source: int, target: int) -> Tuple[int, int]:
        """Both ids as plain ints, normalised with :func:`operator.index`.

        A float or a string raises :class:`TypeError`; an id that names
        no graph node raises :class:`IndexError`, since a negative one
        would otherwise index the search tables from their end and
        answer for another node.  Callers query with the returned ints,
        so a ``bool`` id never reaches a returned :class:`Path`.
        """
        source = index(source)
        target = index(target)
        n = self.graph.n
        if not (0 <= source < n and 0 <= target < n):
            raise IndexError(f"node pair ({source}, {target}) out of range [0, {n})")
        return source, target

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------
    def batch_capabilities(self) -> BatchCapabilities:
        """What the planner may assume about this engine's batch surface.

        The base promise is the weakest one: a per-source Dijkstra
        fallback with no native factorisation and no bit-exactness
        guarantee between ``distance`` and ``one_to_many`` (indexed
        engines may sum shortcut weights in a different association
        than a fresh search).  Engines override to unlock grouping —
        see :class:`BatchCapabilities`.
        """
        return BatchCapabilities()

    def one_to_many(self, source: int, targets: Iterable[int]) -> List[float]:
        """Distances from ``source`` to each target, aligned with ``targets``.

        The default runs a single Dijkstra from ``source`` that stops as
        soon as every target is settled — one search shared by the whole
        batch, which beats a loop of *search-based* point queries
        (Dijkstra, A*) outright and a loop of indexed point queries once
        the batch is large enough to amortise the sweep; an indexed
        engine with very cheap point queries may still prefer looping
        ``distance`` for small, far-flung batches, and engines with a
        true batch primitive override this (HL scans the source label
        once, see :mod:`repro.baselines.hl`).  Unreachable targets
        report ``inf``.  Results are exact for every engine because
        distances do not depend on the index.
        """
        targets = list(targets)
        if not targets:
            return []
        settled = dijkstra_distances(self.graph, source, targets=targets)
        return [settled.get(t, INF) for t in targets]

    def distance_table(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> List[List[float]]:
        """Full ``len(sources) x len(targets)`` distance matrix.

        ``table[i][j]`` is the network distance from ``sources[i]`` to
        ``targets[j]``.  The default is one :meth:`one_to_many` batch per
        source; engines whose index factorises per-source work further
        (hub labels build the source's hub map once) inherit the shape
        and override :meth:`one_to_many` only.
        """
        targets = list(targets)
        return [self.one_to_many(s, targets) for s in sources]

    # ------------------------------------------------------------------
    # Accounting (Figure 10)
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Number of stored index entries (edges, shortcuts, tree blocks).

        Engines without preprocessing (Dijkstra, A*) report 0; indexed
        engines report the count of auxiliary entries their structures
        hold, the machine-independent stand-in for Figure 10a's bytes.
        """
        return 0

    def describe(self) -> str:
        """One-line human-readable summary for reports."""
        return f"{self.name}(n={self.graph.n}, m={self.graph.m}, size={self.index_size()})"

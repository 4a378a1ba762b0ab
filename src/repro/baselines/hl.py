"""Hub labeling (2-hop labels) built from the CH hierarchy.

The fastest query scheme in the Wu et al. experimental study (VLDB 2012)
and the one the paper's sub-millisecond ambition ultimately points at:
precompute for every node ``u`` a *forward label* — pairs ``(h, d(u,h))``
over a small set of hub nodes — and a *backward label* with distances
*into* ``u``; then ``d(s, t)`` is the minimum of
``d(s, h) + d(h, t)`` over hubs ``h`` common to the forward label of
``s`` and the backward label of ``t``.  No graph traversal at query
time: two sorted arrays, one merge-join.

Construction reuses the CH machinery of :mod:`repro.baselines.ch`
(reference [11]) in the style of Abraham et al.'s CH-based hub labels
and Akiba et al.'s pruned landmark labeling (SIGMOD 2013):

* Contract the graph once; ``rank`` orders nodes by importance.
* Process nodes in **descending** rank order.  For node ``u``, the
  forward label candidates are exactly the nodes settled by a CH upward
  search from ``u`` (the bidirectional CH query's forward half), whose
  correctness guarantees that every shortest path ``u -> t`` has a
  meeting hub present in both ``u``'s upward search space and ``t``'s
  downward one.
* **Pruning:** when the upward search settles ``h`` at distance ``d``,
  the already-built labels (all hubs outrank ``u``) answer ``d(u, h)``;
  if that label query is ``<= d`` the entry is redundant — some higher
  hub already covers every pair this entry could serve — so ``h`` is
  neither labelled nor expanded.  This is what keeps labels small.

Storage is flat CSR-style parallel arrays, matching the PR-1 graph
substrate idiom: ``label_head[u] : label_head[u+1]`` delimits node
``u``'s slice of ``label_hub`` / ``label_dist`` / ``label_parent``, with
hubs sorted ascending per node so the distance query is a pure two-index
merge-join.  ``label_parent`` stores each hub's predecessor on the
upward path from the node (``-1`` for the node itself), which together
with the contraction's shortcut middles reconstructs full original-graph
paths.

The three hot kernels — the two-pointer merge-join ``distance``, the
batched ``one_to_many`` and the co-occurrence ``distance_table`` — each
come in two bit-identical versions, picked per call:

* **native** (:func:`repro.backend.use_native`, the default wherever
  :mod:`repro.native` could load or build its C extension): each kernel
  runs in C straight over the int64/float64 label columns through the
  buffer protocol — ``distance`` and ``one_to_many`` as one call, the
  table as a join over a hub-inversion handle.
* **pure-python**: the original scans (merge-join, source-label dict for
  batches, inverted hub buckets for tables), kept as the reference the
  parity tests hold the C kernels to and as the fallback on boxes
  without a compiler, with ``REPRO_NATIVE=0`` or under a forced
  ``pure`` tier.

A table's target side — the targets' backward entries inverted by hub —
depends only on the target tuple, and serving traffic repeats its target
tuples (dispatch keeps asking about the same open orders).  Each index
therefore memoizes the inversion per target tuple in a small LRU that
serves both tiers: the pure tier keeps its hub buckets there and the
native tier its :func:`repro.native.table_inversion` handle, under
separate keys.  A repeated tuple costs no inversion work on either tier;
:meth:`HubLabelIndex.target_inversion_stats` counts the hits.

A built index and one loaded from an ``HLIDX2`` section
(:mod:`repro.core.serialize`) hold the same column layout: ``array('q')``
heads, hubs and parents and ``array('d')`` distances.  Every kernel
therefore reads one layout, and a loaded index answers bit-identically
to the build it was saved from.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from collections import OrderedDict
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from .. import backend
from .. import native as _native
from ..graph.graph import Graph
from ..graph.path import Path
from ..graph.workspace import acquire, release
from .base import BatchCapabilities, QueryEngine
from .ch import ContractionResult, contract_graph, unpack_shortcuts

__all__ = ["HubLabelIndex"]

INF = float("inf")

#: Distinct target tuples whose hub->targets inversion is memoized per
#: index, pure and native entries together.  A pure entry is O(total
#: backward-label entries of its targets); a native one adds n + 1 run
#: starts.  The bound keeps a long-lived server from accumulating dead
#: target sets.
_TARGET_INVERSION_CACHE_MAX = 8


def _pruned_upward_labels(
    u: int,
    adjacency: List[List[Tuple[int, float, Optional[int]]]],
    opposite: List[Optional[List[Tuple[int, float, int]]]],
    ws,
) -> List[Tuple[int, float, int]]:
    """One pruned CH upward search; returns ``u``'s label, hub-sorted.

    ``adjacency`` is the upward graph of the search direction (``up_out``
    for forward labels, ``up_in`` for backward); ``opposite`` holds the
    *finished* labels of the opposite direction, complete for every node
    of higher rank — which is all any settled hub can be, since upward
    edges only ascend ranks.

    A settled hub is pruned when the label query over ``u``'s
    already-accepted entries and the hub's opposite label matches or
    beats its settled distance; pruned hubs are not expanded, so whole
    redundant subtrees disappear.  A kept hub's search-tree parent was
    necessarily expanded, hence kept, so parent chains stay inside the
    label — that is what makes ``label_parent`` walkable.
    """
    c = ws.begin()
    dist = ws.dist
    visit = ws.visit
    parent = ws.parent
    dist[u] = 0.0
    visit[u] = c
    parent[u] = -1
    accepted: Dict[int, float] = {}
    entries: List[Tuple[int, float, int]] = []
    heap: List[Tuple[float, int]] = [(0.0, u)]
    while heap:
        d, x = heappop(heap)
        if d > dist[x]:
            continue  # stale entry
        if x != u:
            # Label query d(u, x) over accepted-so-far x opposite label.
            best = INF
            for hub, hd, _ in opposite[x]:
                ad = accepted.get(hub)
                if ad is not None and ad + hd < best:
                    best = ad + hd
            if best <= d:
                continue  # covered by a higher hub: prune the subtree
        accepted[x] = d
        entries.append((x, d, parent[x]))
        for v, w, _ in adjacency[x]:
            nd = d + w
            if visit[v] != c:
                visit[v] = c
                dist[v] = nd
                parent[v] = x
                heappush(heap, (nd, v))
            elif nd < dist[v]:
                dist[v] = nd
                parent[v] = x
                heappush(heap, (nd, v))
    entries.sort()
    return entries


def _flatten(
    labels: Sequence[List[Tuple[int, float, int]]],
) -> Tuple[array, array, array, array]:
    """Pack per-node entry lists into the flat CSR-style columns."""
    head = array("q", bytes(8 * (len(labels) + 1)))
    hub = array("q")
    dist = array("d")
    par = array("q")
    for u, entries in enumerate(labels):
        for h, d, p in entries:
            hub.append(h)
            dist.append(d)
            par.append(p)
        head[u + 1] = len(hub)
    return head, hub, dist, par


class HubLabelIndex(QueryEngine):
    """2-hop label distance oracle with CH-shortcut path reconstruction.

    Parameters
    ----------
    order, hop_limit, settle_limit:
        Passed through to :func:`repro.baselines.ch.contract_graph`
        (``order=None`` selects the classic lazy edge-difference order).
    contraction:
        An existing :class:`ContractionResult` to label over, skipping
        the contraction phase (e.g. share one hierarchy between a
        :class:`~repro.baselines.ch.CHEngine` and its labels).
    """

    name = "HL"

    def __init__(
        self,
        graph: Graph,
        order: Optional[Sequence[int]] = None,
        hop_limit: int = 8,
        settle_limit: int = 64,
        contraction: Optional[ContractionResult] = None,
    ) -> None:
        super().__init__(graph)
        res = contraction if contraction is not None else contract_graph(
            graph, order=order, hop_limit=hop_limit, settle_limit=settle_limit
        )
        self._middle: Dict[Tuple[int, int], int] = res.middle
        n = graph.n
        # Descending rank: every hub a search can settle is already done.
        by_rank = [0] * n
        for node, r in enumerate(res.rank):
            by_rank[r] = node
        fwd: List[Optional[List[Tuple[int, float, int]]]] = [None] * n
        bwd: List[Optional[List[Tuple[int, float, int]]]] = [None] * n
        ws = acquire(graph)
        try:
            for r in range(n - 1, -1, -1):
                u = by_rank[r]
                fwd[u] = _pruned_upward_labels(u, res.up_out, bwd, ws)
                bwd[u] = _pruned_upward_labels(u, res.up_in, fwd, ws)
        finally:
            release(graph, ws)
        self.fwd_head, self.fwd_hub, self.fwd_dist, self.fwd_parent = _flatten(fwd)
        self.bwd_head, self.bwd_hub, self.bwd_dist, self.bwd_parent = _flatten(bwd)
        self._init_runtime_state()

    def _init_runtime_state(self) -> None:
        """Per-instance caches rebuilt on every boot path.

        Called by ``__init__`` and by :func:`repro.core.serialize.
        load_bundle` (which bypasses ``__init__`` via ``__new__``), so
        a bundle-loaded replica carries the same runtime state as a
        freshly built index.
        """
        # Target-side inversion memo for both table kernels:
        # (tier, target tuple) -> pure hub buckets or a native handle.
        # Labels are immutable, so entries never go stale; a small LRU
        # bound caps the memory.
        self._tinv: "OrderedDict" = OrderedDict()
        self._tinv_lock = threading.Lock()
        self._tinv_hits = 0
        self._tinv_misses = 0
        self._tinv_max = _TARGET_INVERSION_CACHE_MAX

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Label entries (both directions) plus shortcut-middle entries."""
        return len(self.fwd_hub) + len(self.bwd_hub) + len(self._middle)

    @property
    def label_count(self) -> int:
        """Total label entries across both directions."""
        return len(self.fwd_hub) + len(self.bwd_hub)

    def average_label_size(self) -> float:
        """Mean entries per node per direction (the classic HL metric)."""
        return self.label_count / (2.0 * max(1, self.graph.n))

    def stats(self) -> dict:
        """Footprint observability: bytes/entry and per-column sizes.

        Reports the *in-memory* query-time columns (per-column byte
        sizes, bytes per label entry).  The serialized footprint of a
        bundle is the companion view —
        ``python -m repro.serialize --inspect <bundle>``.
        """
        columns = {}
        label_bytes = 0
        for name in (
            "fwd_head", "fwd_hub", "fwd_dist", "fwd_parent",
            "bwd_head", "bwd_hub", "bwd_dist", "bwd_parent",
        ):
            col = getattr(self, name)
            itemsize = col.itemsize
            nbytes = len(col) * itemsize
            columns[name] = {"len": len(col), "itemsize": itemsize, "bytes": nbytes}
            label_bytes += nbytes
        entries = self.label_count
        return {
            "n": self.graph.n,
            "entries": entries,
            "label_bytes": label_bytes,
            "bytes_per_entry": round(label_bytes / entries, 3) if entries else 0.0,
            "avg_label_size": round(self.average_label_size(), 3),
            "middles": len(self._middle),
            "columns": columns,
        }

    # ------------------------------------------------------------------
    # Planner capabilities + target-inversion memo
    # ------------------------------------------------------------------
    def batch_capabilities(self) -> BatchCapabilities:
        """Full grouping unlocked: the label join *is* a batch primitive.

        Every batched path (dict scan, bucket scan, native gather,
        native scatter-min) minimises over exactly the hub co-occurrence
        pairs the per-query merge-join visits, summing the same
        ``fwd_dist + bwd_dist`` operands — so coalescing point queries
        into ``one_to_many`` and same-target rows into
        ``distance_table`` is bit-exact, not just value-exact
        (``tests/test_backend_parity.py`` pins the kernel side).
        """
        if backend.use_native():
            o2m, table = "hl-native-gather", "hl-native-scatter-min"
        else:
            o2m, table = "hl-label-scan", "hl-bucket-scan"
        return BatchCapabilities(
            one_to_many=o2m,
            distance_table=table,
            native_batching=True,
            exact_point_coalescing=True,
        )

    def _tinv_lookup(self, key):
        """Memoized inversion for ``key``, refreshed as most-recent."""
        with self._tinv_lock:
            entry = self._tinv.get(key)
            if entry is not None:
                self._tinv.move_to_end(key)
                self._tinv_hits += 1
                return entry
            self._tinv_misses += 1
        return None

    def _tinv_store(self, key, entry):
        """Insert an inversion, evicting least-recently-used past the bound.

        Concurrent builders may race to store the same key; both build
        identical structures (labels are immutable), so last-write-wins
        is harmless.
        """
        with self._tinv_lock:
            self._tinv[key] = entry
            while len(self._tinv) > self._tinv_max:
                self._tinv.popitem(last=False)
        return entry

    def clear_target_inversions(self) -> None:
        """Drop the memoized inversions and reset the counters.

        Benchmarks that want to time the *cold* table kernel (memo
        included) call this between repeats; serving keeps the memo.
        """
        with self._tinv_lock:
            self._tinv.clear()
            self._tinv_hits = 0
            self._tinv_misses = 0

    def target_inversion_stats(self) -> dict:
        """Memo counters: hits, misses, size, maxsize (for serving stats)."""
        with self._tinv_lock:
            return {
                "hits": self._tinv_hits,
                "misses": self._tinv_misses,
                "size": len(self._tinv),
                "maxsize": self._tinv_max,
            }

    def _target_inversion_pure(
        self, targets: Tuple[int, ...]
    ) -> Dict[int, List[Tuple[int, float]]]:
        """Hub -> [(column, dist)] buckets over ``targets``, memoized."""
        key = ("pure", targets)
        entry = self._tinv_lookup(key)
        if entry is not None:
            return entry
        buckets: Dict[int, List[Tuple[int, float]]] = {}
        bhead, bhub, bdist = self.bwd_head, self.bwd_hub, self.bwd_dist
        for col, t in enumerate(targets):
            for k in range(bhead[t], bhead[t + 1]):
                buckets.setdefault(bhub[k], []).append((col, bdist[k]))
        return self._tinv_store(key, buckets)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        """Merge-join of the two sorted label slices; no graph traversal.

        Under the native tier the same merge-join runs as one C call over
        the same columns.
        """
        if source == target:
            self._check_pair(source, target)
            return 0.0
        if backend.use_native():
            return float(
                _native.distance(
                    self.fwd_head,
                    self.fwd_hub,
                    self.fwd_dist,
                    self.bwd_head,
                    self.bwd_hub,
                    self.bwd_dist,
                    source,
                    target,
                )
            )
        source, target = self._check_pair(source, target)
        fhub, fdist = self.fwd_hub, self.fwd_dist
        bhub, bdist = self.bwd_hub, self.bwd_dist
        i = self.fwd_head[source]
        iend = self.fwd_head[source + 1]
        j = self.bwd_head[target]
        jend = self.bwd_head[target + 1]
        best = INF
        while i < iend and j < jend:
            a = fhub[i]
            b = bhub[j]
            if a == b:
                d = fdist[i] + bdist[j]
                if d < best:
                    best = d
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return best

    def _meet(self, source: int, target: int) -> Tuple[float, int]:
        """Like :meth:`distance` but also returns the best hub (-1 if none)."""
        fhub, fdist = self.fwd_hub, self.fwd_dist
        bhub, bdist = self.bwd_hub, self.bwd_dist
        i = self.fwd_head[source]
        iend = self.fwd_head[source + 1]
        j = self.bwd_head[target]
        jend = self.bwd_head[target + 1]
        best = INF
        hub = -1
        while i < iend and j < jend:
            a = fhub[i]
            b = bhub[j]
            if a == b:
                d = fdist[i] + bdist[j]
                if d < best:
                    best = d
                    hub = a
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return best, hub

    def one_to_many(self, source: int, targets) -> List[float]:
        """HL fast path: scan the source label once for the whole batch.

        The native kernel gathers the targets' backward columns against
        a dense hub-indexed copy of the source label in C; the pure path
        scans with a hub -> distance dict.  Both return identical values
        (``tests/test_backend_parity.py``).
        """
        targets = list(targets)
        if not targets:
            return []
        if backend.use_native():
            return self._one_to_many_native(source, targets)
        return self._one_to_many_pure(source, targets)

    def _one_to_many_native(self, source: int, targets: Sequence[int]) -> List[float]:
        """Native batch: the dense-gather kernel as one C call.

        The source label is scattered into a dense hub-indexed vector
        and every target's backward label gathers through it — the same
        candidate sums the pure scan folds, compiled; the kernel reads
        the columns through the buffer protocol.
        Results are plain Python floats built by the extension; ``list``
        is the column constructor at the boundary.
        """
        return list(
            _native.one_to_many(
                self.fwd_head,
                self.fwd_hub,
                self.fwd_dist,
                self.bwd_head,
                self.bwd_hub,
                self.bwd_dist,
                self.graph.n,
                source,
                targets,
            )
        )

    def _one_to_many_pure(self, source: int, targets: Sequence[int]) -> List[float]:
        """PR 2's label-scan batch: one pass per target, dict probes.

        The forward label becomes a hub -> distance dict (built once per
        call); every target then costs one pass over its backward label
        with O(1) dict probes — no merge pointer per pair, no search.
        """
        self._check_ids("target", targets)
        self._check_ids("source", (source,))
        src: Dict[int, float] = {}
        fhub, fdist = self.fwd_hub, self.fwd_dist
        for i in range(self.fwd_head[source], self.fwd_head[source + 1]):
            src[fhub[i]] = fdist[i]
        bhead, bhub, bdist = self.bwd_head, self.bwd_hub, self.bwd_dist
        get = src.get
        out: List[float] = []
        for t in targets:
            if t == source:
                out.append(0.0)
                continue
            best = INF
            for j in range(bhead[t], bhead[t + 1]):
                d = get(bhub[j])
                if d is not None:
                    d += bdist[j]
                    if d < best:
                        best = d
            out.append(best)
        return out

    def distance_table(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> List[List[float]]:
        """Batched HL join over the actual hub co-occurrences.

        Work is proportional to the number of (source entry, target
        entry) pairs that share a hub instead of ``|sources| x
        |targets|`` label scans, in C and in the pure scan alike.
        """
        sources, targets = list(sources), tuple(targets)
        if not targets:
            return [[] for _ in sources]
        if backend.use_native():
            return self._distance_table_native(sources, targets)
        return self._distance_table_pure(sources, targets)

    def _distance_table_native(
        self, sources: List[int], targets: Tuple[int, ...]
    ) -> List[List[float]]:
        """Native table: a memoized hub inversion, then one C join.

        The inversion handle holds the same hub -> (column, dist) runs
        the pure scan buckets (counting sort by hub) and comes from the
        memo when this target tuple was seen before; the join streams
        every source's forward label through its runs with a
        scatter-min — exactly the co-occurrence pairs the pure scan
        visits, so answers are bit-identical.  The local ``handle``
        keeps the runs alive through the join even if another thread
        evicts them from the memo.  Rows come back as plain Python float
        lists and ``list`` re-containers them at the boundary.
        """
        n = self.graph.n
        key = ("native", targets)
        handle = self._tinv_lookup(key)
        if handle is None:
            handle = self._tinv_store(
                key,
                _native.table_inversion(
                    self.bwd_head, self.bwd_hub, self.bwd_dist, n, targets
                ),
            )
        return list(
            _native.distance_table(
                self.fwd_head, self.fwd_hub, self.fwd_dist, n, sources, handle
            )
        )

    def _distance_table_pure(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> List[List[float]]:
        """PR 2's label-scan table: invert the target labels, then stream.

        The targets' backward labels are bucketed by hub up front
        (``hub -> [(column, dist)]``, memoized per target tuple — see
        :meth:`_target_inversion_pure`); each source then scans its
        forward label once, and every hub hit replays its bucket with
        plain additions — no per-pair merge pointers, no hashing in the
        inner loop.
        """
        self._check_ids("target", targets)
        self._check_ids("source", sources)
        buckets = self._target_inversion_pure(tuple(targets))
        fhead, fhub, fdist = self.fwd_head, self.fwd_hub, self.fwd_dist
        ncols = len(targets)
        get = buckets.get
        table: List[List[float]] = []
        for s in sources:
            row = [INF] * ncols
            for i in range(fhead[s], fhead[s + 1]):
                bucket = get(fhub[i])
                if bucket is None:
                    continue
                d = fdist[i]
                for col, bd in bucket:
                    nd = d + bd
                    if nd < row[col]:
                        row[col] = nd
            for col, t in enumerate(targets):
                if t == s:
                    row[col] = 0.0
            table.append(row)
        return table

    def _check_ids(self, what: str, ids: Sequence[int]) -> None:
        """Raise :class:`IndexError` for the first id outside ``[0, n)``,
        as the native batch kernels do; a negative id would otherwise
        read another node's label slice.  Both tiers check the targets
        before the sources (the native table reads its targets when it
        builds their inversion), so a call with both wrong raises the
        same error on either tier."""
        n = self.graph.n
        for u in ids:
            if not 0 <= u < n:
                raise IndexError(f"{what} {u} out of range")

    def shortest_path(self, source: int, target: int) -> Optional[Path]:
        """Parent-hub walk on both sides, then CH shortcut unpacking."""
        source, target = self._check_pair(source, target)
        if source == target:
            return Path((source,), 0.0)
        best, hub = self._meet(source, target)
        if hub < 0:
            return None
        packed = self._walk(
            self.fwd_head, self.fwd_hub, self.fwd_parent, source, hub
        )
        packed.reverse()  # source .. hub
        down = self._walk(
            self.bwd_head, self.bwd_hub, self.bwd_parent, target, hub
        )
        packed.extend(down[1:])  # hub already present
        return Path(tuple(unpack_shortcuts(self._middle, packed)), best)

    @staticmethod
    def _walk(
        head: array, hubs: array, parents: array, node: int, hub: int
    ) -> List[int]:
        """Parent chain ``hub -> .. -> node`` inside ``node``'s label.

        Every parent of a kept hub is itself a kept hub (see
        :func:`_pruned_upward_labels`), so each step is one binary search
        in the node's sorted label slice.
        """
        lo, hi = head[node], head[node + 1]
        chain = [hub]
        x = hub
        while x != node:
            i = bisect_left(hubs, x, lo, hi)
            x = parents[i]
            chain.append(x)
        return chain

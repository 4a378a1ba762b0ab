"""Perf guard for the CSR + workspace substrate (PR 1).

Times ``distance_query`` (plain Dijkstra) and ``AHIndex.distance`` on the
``NH`` suite dataset and writes ``BENCH_csr.json`` at the repo root so
future PRs can track the trajectory.

Methodology
-----------
* The pre-refactor implementation (dict-per-query Dijkstra, verbatim copy
  of the seed's ``dijkstra_distances``/``distance_query``) is embedded
  here as ``seed_distance_query`` and timed **in the same process,
  interleaved** with the live implementation, so the recorded speedups
  are apples-to-apples on the machine that ran the benchmark.
* Queries follow the paper's Figure-8 methodology: one batch per
  distance bucket Q1..Q10 (plus a uniform-random batch).  The dict
  implementation's fixed per-query cost (three dict allocations + a set)
  dominates the short buckets, while per-edge dict probing dominates the
  long ones, so the speedup is reported per bucket.
* ``seed_reference`` preserves measurements taken by actually running
  the seed code before the refactor (same container, 150 bucket-ordered
  workload pairs, best of 3 passes) — the only numbers a post-refactor
  checkout cannot reproduce.

Run directly (``python benchmarks/test_csr_speed.py``) to refresh
``BENCH_csr.json``; under pytest the same measurement doubles as a
regression guard with deliberately conservative thresholds (CI machines
are noisy — the recorded JSON, not the guard, carries the real numbers).
"""

from __future__ import annotations

import io
import json
import os
import random
import time
from heapq import heappop, heappush
from pathlib import Path

from repro import backend
from repro.baselines import HubLabelIndex
from repro.bench.harness import environment_metadata
from repro.core import AHIndex
from repro.core.serialize import load_bundle, save_bundle
from repro.datasets import dataset, generate_workloads
from repro.graph.traversal import distance_query

INF = float("inf")
DATASET = "NH"
REPEATS = 7
UNIFORM_PAIRS = 150


def visible_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1

#: Measured by running the seed implementation itself (pre-refactor
#: checkout) in this container: mean µs over the first 150 bucket-ordered
#: workload pairs, best of 3 passes; AH build in seconds.
SEED_REFERENCE = {
    "distance_query_us": 34.11,
    "ah_distance_us": 33.86,
    "ah_build_s": 13.12,
    "captured": "pre-refactor run, same container, NH, "
    "150 bucket-ordered workload pairs (queries_per_bucket=25, seed=17)",
}


# ----------------------------------------------------------------------
# The seed's dict-per-query implementation, verbatim
# ----------------------------------------------------------------------
def _seed_dijkstra_distances(graph, source, targets=None, cutoff=None, reverse=False):
    adj = graph.inn if reverse else graph.out
    dist = {source: 0.0}
    settled = {}
    pending = set(targets) if targets is not None else None
    heap = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if u in settled:
            continue
        if cutoff is not None and d > cutoff:
            break
        settled[u] = d
        if pending is not None:
            pending.discard(u)
            if not pending:
                break
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heappush(heap, (nd, v))
    return settled


def seed_distance_query(graph, source, target):
    settled = _seed_dijkstra_distances(graph, source, targets=(target,))
    return settled.get(target, INF)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _mean_us(fn, graph, pairs, repeats=REPEATS, min_sample_s=0.005):
    """Best-of-``repeats`` mean latency, with each timed sample stretched
    to at least ``min_sample_s`` by cycling the batch — a 25-query bucket
    of 2 µs queries is otherwise pure scheduler noise."""
    t0 = time.perf_counter()
    for s, t in pairs:
        fn(graph, s, t)
    once = time.perf_counter() - t0
    inner = 1 if once >= min_sample_s else int(min_sample_s / max(once, 1e-9)) + 1
    best = INF
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for _ in range(inner):
            for s, t in pairs:
                fn(graph, s, t)
        best = min(best, (time.perf_counter() - t0) / inner)
    return best / len(pairs) * 1e6


def run_benchmark():
    graph = dataset(DATASET)
    workloads = generate_workloads(graph, queries_per_bucket=25, seed=17)
    rng = random.Random(7)
    uniform = [
        (rng.randrange(graph.n), rng.randrange(graph.n))
        for _ in range(UNIFORM_PAIRS)
    ]

    batches = {f"Q{b}": list(workloads.bucket(b)) for b in workloads.non_empty_buckets()}
    batches["uniform"] = uniform
    all_pairs = [
        p for name, pairs in batches.items() if name != "uniform" for p in pairs
    ]
    short_heavy = all_pairs[:150]  # the seed_reference pair set

    # AH first, while the process heap is clean: the seed_reference
    # numbers were captured in a fresh process, and an index built after
    # two hundred thousand dict-churning reference queries gets its
    # adjacency tuples scattered across a fragmented heap (measurably
    # slower through no fault of its own).
    t0 = time.perf_counter()
    ah = AHIndex(graph)
    ah_build_s = time.perf_counter() - t0
    # The build saturates the CPU; let any cgroup quota / thermal
    # throttling recover before the clocks start.
    time.sleep(2.0)
    ah_us = _mean_us(lambda g, s, t: ah.distance(s, t), graph, short_heavy, repeats=11)
    csr_ref_us = _mean_us(distance_query, graph, short_heavy, repeats=11)

    # Warm both Dijkstra implementations (view materialisation, workspace
    # pool, bytecode specialisation) before the A/B clocks start.
    for s, t in uniform[:30]:
        assert abs(seed_distance_query(graph, s, t) - distance_query(graph, s, t)) < 1e-9

    dq = {}
    # Interleave seed/new per batch so machine drift hits both equally.
    for name, pairs in batches.items():
        seed_us = _mean_us(seed_distance_query, graph, pairs)
        csr_us = _mean_us(distance_query, graph, pairs)
        dq[name] = {
            "queries": len(pairs),
            "seed_us": round(seed_us, 3),
            "csr_us": round(csr_us, 3),
            "speedup": round(seed_us / csr_us, 3),
        }

    seed_us = _mean_us(seed_distance_query, graph, all_pairs, repeats=3)
    csr_us = _mean_us(distance_query, graph, all_pairs, repeats=3)
    dq["all_buckets"] = {
        "queries": len(all_pairs),
        "seed_us": round(seed_us, 3),
        "csr_us": round(csr_us, 3),
        "speedup": round(seed_us / csr_us, 3),
    }

    bucket_speedups = [
        rec["speedup"] for name, rec in dq.items() if name.startswith("Q")
    ]
    result = {
        "dataset": DATASET,
        "n": graph.n,
        "m": graph.m,
        "environment": environment_metadata(),
        "method": "in-process interleaved A/B vs embedded seed (dict) "
        "implementation; best-of-%d batch means" % REPEATS,
        "headline": {
            "best_bucket_speedup": max(bucket_speedups),
            "mean_bucket_speedup": round(
                sum(bucket_speedups) / len(bucket_speedups), 3
            ),
            "all_buckets_speedup": dq["all_buckets"]["speedup"],
            "note": "dict->workspace wins scale inversely with query "
            "length: the fixed per-query dict/set allocations dominate "
            "short (Q1-Q3) queries, per-edge dict probing the long ones; "
            "heapq C time (identical on both sides) bounds the long-range "
            "ratio",
        },
        "seed_reference": SEED_REFERENCE,
        "distance_query": dq,
        "distance_query_vs_seed_reference": {
            "csr_us": round(csr_ref_us, 3),
            "seed_us": SEED_REFERENCE["distance_query_us"],
            "speedup": round(SEED_REFERENCE["distance_query_us"] / csr_ref_us, 3),
        },
        "ah": {
            "build_s": round(ah_build_s, 3),
            "distance_us": round(ah_us, 3),
            "seed_us": SEED_REFERENCE["ah_distance_us"],
            "speedup_vs_seed_reference": round(
                SEED_REFERENCE["ah_distance_us"] / ah_us, 3
            ),
        },
        "bundle_io": _bench_bundle_io(graph),
    }
    return result


def _naive_label_io_s(hl, repeats=7):
    """Per-entry ``struct`` packing of the label columns — the baseline
    flat-section I/O replaces.  Embedded here (PR-1 methodology: keep
    the slow implementation in the benchmark) so the recorded ratio is
    reproducible on the machine that ran it."""
    import struct as _struct

    cols = (hl.fwd_head, hl.fwd_hub, hl.fwd_dist, hl.fwd_parent,
            hl.bwd_head, hl.bwd_hub, hl.bwd_dist, hl.bwd_parent)
    best = float("inf")
    blob = None
    for _ in range(repeats):
        sink = io.BytesIO()
        t0 = time.perf_counter()
        for col in cols:
            code = "<d" if col.typecode == "d" else "<q"
            for value in col:
                sink.write(_struct.pack(code, value))
        best = min(best, time.perf_counter() - t0)
        blob = sink.getvalue()
    read_best = float("inf")
    for _ in range(repeats):
        src = io.BytesIO(blob)
        t0 = time.perf_counter()
        out = []
        for col in cols:
            code = "<d" if col.typecode == "d" else "<q"
            out.append([
                _struct.unpack(code, src.read(8))[0] for _ in range(len(col))
            ])
        read_best = min(read_best, time.perf_counter() - t0)
    return best, read_best


def _bench_bundle_io(graph, repeats=7):
    """Save/load a full HL bundle per tier — the serialize fast path.

    Flat sections move as whole-column ``tobytes`` blocks either way, so
    both tiers are timed side by side (the tier dimension); bytes are
    asserted identical first, because a fast divergent format would be
    a bug, not a win.  The embedded per-entry ``struct`` baseline
    shows what whole-column I/O buys over packing one value at a time.
    """
    hl = HubLabelIndex(graph)
    blobs = {}
    timings = {}
    names = (["native"] if backend.HAS_NATIVE else []) + ["pure-python"]
    for name in names:
        with backend.forced(name):
            buf = io.BytesIO()
            save_bundle(hl, buf)
            blobs[name] = buf.getvalue()
            save_best = load_best = float("inf")
            for _ in range(repeats):
                sink = io.BytesIO()
                t0 = time.perf_counter()
                save_bundle(hl, sink)
                save_best = min(save_best, time.perf_counter() - t0)
                src = io.BytesIO(blobs[name])
                t0 = time.perf_counter()
                load_bundle(src)
                load_best = min(load_best, time.perf_counter() - t0)
            timings[name] = {
                "save_s": round(save_best, 5),
                "load_s": round(load_best, 5),
            }
    assert len(set(blobs.values())) == 1, "bundle bytes differ across backends"
    naive_save_s, naive_load_s = _naive_label_io_s(hl, repeats=3)
    flat = timings[names[0]]
    return {
        "what": "HL bundle (graph + labels + middles) via BytesIO",
        "bytes": len(next(iter(blobs.values()))),
        "backends": timings,
        "per_entry_struct_baseline": {
            "what": "label columns only, one struct.pack/unpack per entry",
            "save_s": round(naive_save_s, 5),
            "load_s": round(naive_load_s, 5),
            "flat_save_speedup": round(naive_save_s / flat["save_s"], 1),
            "flat_load_speedup": round(naive_load_s / flat["load_s"], 1),
        },
    }


def write_json(result, path=None):
    if path is None:
        path = Path(__file__).resolve().parent.parent / "BENCH_csr.json"
    Path(path).write_text(json.dumps(result, indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# Pytest guard
# ----------------------------------------------------------------------
def test_csr_substrate_speed():
    """Workspace Dijkstra must beat the dict implementation everywhere,
    decisively on the short buckets, and AH must stay far below plain
    Dijkstra on the same pairs (its whole point)."""
    result = run_benchmark()
    dq = result["distance_query"]
    # Timing floors only where the clock is physical: a starved 1-CPU
    # container time-shares both sides of every A/B and the ratios
    # measure scheduler noise (ROADMAP measurement discipline).  The
    # recorded JSON carries every number on every box either way.
    if visible_cpus() >= 2:
        # Every bucket at least breaks even (generous margin for CI noise).
        for name, rec in dq.items():
            assert rec["speedup"] >= 1.05, f"{name}: {rec}"
        # Short buckets are where the dict implementation's per-query
        # allocations dominate; demand a solid win there.
        short = [dq[q]["speedup"] for q in ("Q1", "Q2", "Q3") if q in dq]
        assert short and max(short) >= 1.3, f"short buckets too slow: {short}"
        # Overall win across the full workload.
        assert dq["all_buckets"]["speedup"] >= 1.15, dq["all_buckets"]
        # AH regression guard: far faster than plain Dijkstra on mixed pairs.
        assert result["ah"]["distance_us"] < dq["all_buckets"]["csr_us"]
    # The committed BENCH_csr.json is refreshed explicitly (run this file
    # directly, on a quiet machine) — a noisy CI box should gate, not
    # overwrite the recorded trajectory.


if __name__ == "__main__":
    res = run_benchmark()
    out = write_json(res)
    print(json.dumps(res, indent=2))
    print(f"\nwrote {out}")

"""Perf guard for the hub-label oracle (PR 2) and its kernels (PR 3).

Times ``HubLabelIndex.distance`` against ``CHEngine.distance`` on the
``NH`` suite dataset — both engines share one contraction hierarchy, so
the comparison isolates *query scheme* (label merge-join vs
bidirectional upward search) — and A/Bs the batched surface's two
kernel versions: the native C kernels against the pure-python label
scans, interleaved in one process, on a 100x100
``distance_table`` and a 1x1000 ``one_to_many`` batch, plus the
base-class Dijkstra fallback for scale.  Results go to ``BENCH_hl.json``
at the repo root with full environment metadata (tier, native kernel
version, CPython, platform) so the trajectory stays interpretable.  The committed
file predates the deletion of the numpy HL kernels, so its ``numpy``
lanes and ratios are history.

Methodology
-----------
* Queries follow the paper's Figure-8 methodology: one batch per
  distance bucket (on NH the non-empty buckets are exactly Q2..Q10).
  CH query time grows with distance (bigger upward search spaces);
  HL's merge-join cost is bounded by label size, so the win widens
  toward Q10 — the recorded per-bucket ratios document that shape.
  Per-query ``distance`` runs under the ambient tier (the C merge-join
  when the native tier is loaded).
* The batched A/B interleaves the two kernel versions per repeat
  (native, then pure, each pass) so machine drift hits both sides
  equally; best-of-repeats suppresses GC/warm-up spikes.
* Exactness is asserted against plain Dijkstra before any clock starts,
  and the native kernels are asserted equal to the pure scans —
  a fast wrong oracle is worthless.
* **Compact sections**: the HL2 footprint facts (label-section
  bytes, bytes/entry) are hardware-independent, so the >= 2.5x NH
  shrink bar against the flat int64/float64 columns in memory is asserted
  *hard* in every mode, and an index loaded from the section must
  answer bit-identically on every tier before any clock runs.
* ``--check`` runs the build + exactness + kernel-parity +
  loaded-index parity + footprint-floor phase only and writes a
  timing-free JSON — what CI runs (on every matrix leg), immune to
  noisy-runner flake.

Run directly (``python benchmarks/test_hl_speed.py``) to refresh
``BENCH_hl.json``; under pytest the same measurement doubles as a
regression guard with deliberately conservative thresholds.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

from repro import backend
from repro.baselines import CHEngine, HubLabelIndex, QueryEngine
from repro.bench.harness import environment_metadata
from repro.core.serialize import bundle_bytes, inspect_bundle, load_bundle
from repro.datasets import dataset, generate_workloads
from repro.graph.traversal import distance_query

INF = float("inf")
DATASET = "NH"
REPEATS = 7
TABLE_SIDE = 100
O2M_TARGETS = 1000


def _fast_tiers():
    """Kernel tiers above pure available in this process."""
    return ["native"] if backend.HAS_NATIVE else []


def visible_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _mean_us(fn, pairs, repeats=REPEATS, min_sample_s=0.005):
    """Best-of-``repeats`` mean latency, with each timed sample stretched
    to at least ``min_sample_s`` by cycling the batch (2 µs queries over
    a 25-pair bucket are otherwise pure scheduler noise)."""
    t0 = time.perf_counter()
    for s, t in pairs:
        fn(s, t)
    once = time.perf_counter() - t0
    inner = 1 if once >= min_sample_s else int(min_sample_s / max(once, 1e-9)) + 1
    best = INF
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for _ in range(inner):
            for s, t in pairs:
                fn(s, t)
        best = min(best, (time.perf_counter() - t0) / inner)
    return best / len(pairs) * 1e6


def _best_s(fn, repeats=REPEATS):
    """Best-of-``repeats`` wall time of one call."""
    best = INF
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _assert_tables_match(fast, slow):
    for fast_row, slow_row in zip(fast, slow):
        for a, b in zip(fast_row, slow_row):
            if a == b:
                continue  # also covers inf == inf
            assert abs(a - b) <= 1e-9 * max(1.0, b), (a, b)


def build_and_verify():
    """Build CH + HL on one shared hierarchy; assert HL answers exactly."""
    graph = dataset(DATASET)
    workloads = generate_workloads(graph, queries_per_bucket=25, seed=17)

    t0 = time.perf_counter()
    ch = CHEngine(graph)
    ch_build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    hl = HubLabelIndex(graph, contraction=ch._res)
    hl_label_s = time.perf_counter() - t0

    checked = 0
    for b in workloads.non_empty_buckets():
        for s, t in list(workloads.bucket(b))[:10]:
            want = distance_query(graph, s, t)
            got = hl.distance(s, t)
            assert abs(got - want) <= 1e-9 * max(1.0, want), (s, t, got, want)
            checked += 1

    # Kernel parity: the native C kernels must equal the pure scans —
    # bit-identical, before any clock runs.
    rng = random.Random(41)
    sources = [rng.randrange(graph.n) for _ in range(20)]
    targets = [rng.randrange(graph.n) for _ in range(20)] + [sources[0]]
    for tier in _fast_tiers():
        with backend.forced(tier):
            assert hl.one_to_many(sources[0], targets) == hl._one_to_many_pure(
                sources[0], targets
            ), tier
            assert hl.distance_table(sources, targets) == hl._distance_table_pure(
                sources, targets
            ), tier

    # Compact label sections.  The footprint facts are
    # hardware-independent, so the >= 2.5x NH bar against the flat
    # int64/float64 columns the index holds in memory is a *hard*
    # assertion, check mode included — and the loaded index must answer
    # bit-identically, on every tier.
    blob = bundle_bytes(hl)
    comp_sec = inspect_bundle(blob)[1]["detail"]
    flat_label_bytes = hl.stats()["label_bytes"]
    size_ratio = flat_label_bytes / comp_sec["label_bytes"]
    assert size_ratio >= 2.5, (
        f"NH label sections shrank only {size_ratio:.2f}x "
        f"({flat_label_bytes} -> {comp_sec['label_bytes']} bytes)"
    )
    _, loaded = load_bundle(blob)
    pairs = [(rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(20)]
    for name in _fast_tiers() + ["pure"]:
        with backend.forced(name):
            for s, t in pairs:
                assert loaded.distance(s, t) == hl.distance(s, t), (name, s, t)
            assert loaded.one_to_many(sources[0], targets) == hl.one_to_many(
                sources[0], targets
            )
            assert loaded.distance_table(sources, targets) == hl.distance_table(
                sources, targets
            )

    return graph, workloads, ch, hl, {
        "dataset": DATASET,
        "n": graph.n,
        "m": graph.m,
        "environment": environment_metadata(),
        "ch_build_s": round(ch_build_s, 3),
        "hl_label_s": round(hl_label_s, 3),
        "avg_label_entries": round(hl.average_label_size(), 2),
        "index_size": hl.index_size(),
        "exactness_checked_pairs": checked,
        "label_bytes_per_entry": comp_sec["bytes_per_entry"],
        "label_footprint": {
            "flat": {
                "label_bytes": flat_label_bytes,
                "bytes_per_entry": round(flat_label_bytes / comp_sec["entries"], 3),
            },
            "compact": {
                "label_bytes": comp_sec["label_bytes"],
                "bytes_per_entry": comp_sec["bytes_per_entry"],
                "dist_encoding": comp_sec["dist_encoding"],
            },
            "compact_vs_flat_size_ratio": round(size_ratio, 3),
        },
    }


def _bench_batched(graph, hl):
    """A/B the batched surface's native kernels against the pure scans."""
    rng = random.Random(23)
    sources = [rng.randrange(graph.n) for _ in range(TABLE_SIDE)]
    targets = [rng.randrange(graph.n) for _ in range(TABLE_SIDE)]
    o2m_targets = [rng.randrange(graph.n) for _ in range(O2M_TARGETS)]

    def dijkstra_fallback():
        # The true index-free fallback: one target-pruned Dijkstra per
        # source.  (Calling QueryEngine.distance_table on an HL index
        # would route through HL's *overridden* one_to_many and time
        # the label kernels, not the fallback.)
        return [QueryEngine.one_to_many(hl, s, targets) for s in sources]

    # Correctness before clocks, fallback included.
    pure_table = hl._distance_table_pure(sources, targets)
    _assert_tables_match(pure_table, dijkstra_fallback())

    # Interleave tiers per repeat so drift hits both sides equally.  The
    # target-inversion memo (PR 4) is cleared before every timed table
    # call: this guard records the *cold* kernel (the serving benchmark,
    # BENCH_serve.json, is where the warm-memo win is recorded).
    lanes = _fast_tiers()
    table_s = {name: INF for name in lanes + ["pure-python"]}
    o2m_s = {name: INF for name in lanes + ["pure-python"]}
    for _ in range(REPEATS):
        for tier in lanes:
            with backend.forced(tier):
                hl.clear_target_inversions()
                t0 = time.perf_counter()
                fast = hl.distance_table(sources, targets)
                table_s[tier] = min(table_s[tier], time.perf_counter() - t0)
                t0 = time.perf_counter()
                hl.one_to_many(sources[0], o2m_targets)
                o2m_s[tier] = min(o2m_s[tier], time.perf_counter() - t0)
                assert fast == pure_table
        hl.clear_target_inversions()
        t0 = time.perf_counter()
        hl._distance_table_pure(sources, targets)
        table_s["pure-python"] = min(
            table_s["pure-python"], time.perf_counter() - t0
        )
        t0 = time.perf_counter()
        hl._one_to_many_pure(sources[0], o2m_targets)
        o2m_s["pure-python"] = min(o2m_s["pure-python"], time.perf_counter() - t0)

    fallback_s = _best_s(dijkstra_fallback, repeats=3)

    table = {
        "shape": f"{TABLE_SIDE}x{TABLE_SIDE}",
        "backends": {
            name: {"seconds": round(s, 5)}
            for name, s in table_s.items()
            if s is not INF
        },
        "dijkstra_fallback_s": round(fallback_s, 4),
        "pure_vs_fallback_speedup": round(fallback_s / table_s["pure-python"], 3),
    }
    o2m = {
        "shape": f"1x{O2M_TARGETS}",
        "backends": {
            name: {"seconds": round(s, 6)}
            for name, s in o2m_s.items()
            if s is not INF
        },
    }
    if backend.HAS_NATIVE:
        table["native_vs_pure_speedup"] = round(
            table_s["pure-python"] / table_s["native"], 3
        )
        o2m["native_vs_pure_speedup"] = round(
            o2m_s["pure-python"] / o2m_s["native"], 3
        )
    return table, o2m


def run_benchmark():
    graph, workloads, ch, hl, result = build_and_verify()

    buckets = {}
    for b in workloads.non_empty_buckets():
        pairs = list(workloads.bucket(b))
        # Interleave the two engines per bucket so drift hits both.
        ch_us = _mean_us(ch.distance, pairs)
        hl_us = _mean_us(hl.distance, pairs)
        buckets[f"Q{b}"] = {
            "queries": len(pairs),
            "ch_us": round(ch_us, 3),
            "hl_us": round(hl_us, 3),
            "speedup": round(ch_us / hl_us, 3),
        }

    table, o2m = _bench_batched(graph, hl)

    speedups = [rec["speedup"] for rec in buckets.values()]
    headline = {
        "min_bucket_speedup_vs_ch": min(speedups),
        "max_bucket_speedup_vs_ch": max(speedups),
        "note": "CH query cost grows with distance (bigger upward "
        "search spaces); HL merge-join cost is bounded by label "
        "size, so the ratio widens toward Q10.  Per-bucket distance "
        "runs under the ambient tier — with the native extension "
        "built, hl_us is the C merge-join, which is why the "
        "vs-CH ratios stepped up at PR 10.  Batched-surface numbers "
        "A/B the native C kernels against the pure label scans, "
        "interleaved in-process.",
    }
    if backend.HAS_NATIVE:
        headline["table_native_vs_pure"] = table["native_vs_pure_speedup"]
        headline["one_to_many_native_vs_pure"] = o2m["native_vs_pure_speedup"]
    headline["label_compact_vs_flat_size"] = result["label_footprint"][
        "compact_vs_flat_size_ratio"
    ]
    result.update(
        {
            "method": "shared contraction hierarchy; per-bucket interleaved "
            "A/B; native/pure A/B interleaved per repeat; best-of-%d" % REPEATS,
            "headline": headline,
            "distance_query": buckets,
            "distance_table": table,
            "one_to_many": o2m,
        }
    )
    return result


def run_check():
    """CI mode: build + exactness + kernel/loaded-index parity + the hard
    footprint floor — no timing, no flake."""
    _, _, _, _, result = build_and_verify()
    result["mode"] = (
        "check (build + exactness + native/pure kernel parity + "
        "loaded-index parity + >=2.5x label-footprint floor; "
        "timings omitted)"
    )
    return result


def write_json(result, path=None):
    if path is None:
        # Check-mode output goes to its own (untracked) file so that
        # reproducing CI locally never clobbers the committed timing
        # record in BENCH_hl.json.
        name = "BENCH_hl.check.json" if "mode" in result else "BENCH_hl.json"
        path = Path(__file__).resolve().parent.parent / name
    Path(path).write_text(json.dumps(result, indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# Pytest guard
# ----------------------------------------------------------------------
def test_hl_speed():
    """HL must beat CH in every distance bucket, the batched pure path
    must beat the Dijkstra fallback, and the native kernels must beat the
    pure scans — conservative margins, since CI machines are noisy; the
    recorded JSON carries the real numbers."""
    result = run_benchmark()
    # Timing floors only where the clock is physical: a starved 1-CPU
    # container time-shares both sides of every A/B and the ratios
    # measure scheduler noise (ROADMAP measurement discipline).  The
    # recorded JSON carries every number on every box either way.
    if visible_cpus() >= 2:
        for name, rec in result["distance_query"].items():
            assert rec["speedup"] > 1.0, f"{name}: {rec}"
        # Long-range buckets are HL's home turf; demand a decisive win.
        long_range = [
            rec["speedup"]
            for name, rec in result["distance_query"].items()
            if name in ("Q8", "Q9", "Q10")
        ]
        assert long_range and max(long_range) >= 3.0, long_range
        table = result["distance_table"]
        assert table["pure_vs_fallback_speedup"] > 1.0, table
        if backend.HAS_NATIVE:
            # Real ratios on a quiet machine run ~8x (table) and ~30x
            # (one_to_many).  The table floor is the product of the two
            # floors the deleted numpy kernels sat between (numpy >=
            # 1.3x pure, native >= 2x numpy); the one_to_many floor is
            # the old numpy one.  The guard only has to catch a C path
            # that silently fell back or regressed.  CPU-gated like
            # every timing here.
            assert table["native_vs_pure_speedup"] >= 2.6, table
            assert result["one_to_many"]["native_vs_pure_speedup"] >= 3.0, result[
                "one_to_many"
            ]
    # PR 6: the footprint floor is hardware-independent — always hard
    # (build_and_verify also asserts it, so check mode gates too).
    assert result["label_footprint"]["compact_vs_flat_size_ratio"] >= 2.5
    # The committed BENCH_hl.json is refreshed explicitly (run this file
    # directly on a quiet machine); CI gates, it does not overwrite.


if __name__ == "__main__":
    if "--check" in sys.argv[1:]:
        res = run_check()
    else:
        res = run_benchmark()
    out = write_json(res)
    print(json.dumps(res, indent=2))
    print(f"\nwrote {out}")

"""Perf + parity guard for the multi-process worker tier (PR 5).

Two A/Bs on ``NH``, both **parity-asserted before any clocks**:

* **Pool serving**: the ISSUE-4 skewed closed-loop workload served by a
  4-worker :class:`repro.serve.pool.WorkerPool` behind the same
  :class:`~repro.serve.Server`, against the PR 4 single-process server.
  Pool results must be bit-identical to the single-process results
  (which are themselves pinned bit-identical to per-query engine
  calls).
* **Parallel label build**: ``HubLabelIndex(build_workers=4)`` over a
  shared contraction, against the verbatim serial build.  The flattened
  label columns must be **byte-for-byte identical** (asserted on the
  full serialized bundle) before the timings are recorded.

Results go to ``BENCH_pool.json`` with environment metadata *plus the
visible CPU count* — the speedups here are hardware-gated in a way the
single-process benches are not: on a 1-CPU container N workers
time-share one core and the IPC is pure overhead, so the recorded
ratio documents the machine as much as the code.  The ISSUE's
acceptance bars (pool serving >= 2.5x, parallel build >= 2x, both with
4 workers) are only reachable with >= 4 cores; the pytest guard
therefore asserts parity, dispatch structure and crash-free operation
unconditionally, and timing floors only when the box has enough cores
to make them physical.

Two byte checks ride along, both deterministic and so *hard* in every
mode:

* **Pipe bytes**: requests and replies cross per-worker shared-memory
  lanes, so each pipe carries one small control frame per dispatched
  sub-batch.  The same served workload must stay within
  ``PIPE_BYTES_PER_SUB_BATCH`` in each direction, with zero oversized
  fallbacks and no ``/dev/shm`` segment outliving its pool.
* **Build pipeline**: ``HubLabelIndex(build_workers=4)`` barrier vs
  pipelined sync fabric, byte-identity vs the serial build asserted on
  both before any clock.  Sync bytes (pickled entry broadcasts vs
  packed LBLCHUNK columns through the shared ring) are deterministic —
  the >= 5x reduction bar is hard — while the pipelined-not-slower
  wall-clock check stays CPU-gated.

``--check`` (CI, both backend legs): 2 workers, small workload, parity
+ byte-identity + the pipe-byte ceilings + build-pipeline sync ratio +
"every worker actually served" only — no timing.  Writes
``BENCH_pool.check.json`` so the committed timing record is never
clobbered by a CI reproduction.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from repro import backend
from repro.baselines import DistanceCache, HubLabelIndex
from repro.baselines.ch import contract_graph
from repro.bench.harness import ServeRecord, environment_metadata, run_closed_loop
from repro.core.serialize import bundle_bytes
from repro.datasets import dataset
from repro.serve import WorkerPool

from test_serve_speed import build_workload, sequential_reference, workload_pairs

INF = float("inf")
DATASET = "NH"
POOL_WORKERS = 4
CLIENTS = 1000
ROUNDS = 3
REPEATS = 3
BUILD_REPEATS = 3
#: Pipe bytes allowed per dispatched sub-batch, each direction.  A lane
#: control frame pickles to ~33 B (request) and ~42 B (reply); a payload
#: riding the pipe instead costs kilobytes.
PIPE_BYTES_PER_SUB_BATCH = 64


def visible_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _served_flat(per_client):
    return [result for client in per_client for result in client]


def _single_process_run(hl, scripts):
    """One cold-cache single-process served run (the PR 4 tier)."""
    seconds, per_client, stats = run_closed_loop(
        hl, scripts, cache=DistanceCache(1 << 16)
    )
    return seconds, _served_flat(per_client), stats


def _pool_run(blob, scripts, workers):
    """One cold-cache pool-served run; fresh pool (fresh shared cache)."""
    pool = WorkerPool(blob, workers=workers, cache=DistanceCache(1 << 16))
    lanes = pool.lane_names()
    try:
        seconds, per_client, stats = run_closed_loop(
            None, scripts, pool=pool
        )
    finally:
        pool.close()
    _assert_no_leaked_lanes(lanes)
    return seconds, _served_flat(per_client), stats


def _assert_no_leaked_lanes(names):
    """Every lane segment (reply and request) dies with its pool."""
    from multiprocessing import shared_memory

    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        seg.close()
        raise AssertionError(f"lane {name} outlived its pool")


def bench_pipe_bytes(blob, scripts, reference, workers=POOL_WORKERS):
    """Pipe bytes per dispatched sub-batch on the served workload.

    Parity-asserted against the per-query reference first.  Byte counts
    are deterministic, so the ceiling, zero oversized fallbacks and zero
    CRC failures are asserted here, hard, in every mode; ``_pool_run``
    has already checked that no lane segment outlived the pool.
    """
    _, flat, stats = _pool_run(blob, scripts, workers)
    assert flat == reference, "pool served != per-query calls"
    tier = stats["pool"]
    reply, request = tier["reply_path"], tier["request_path"]
    sub_batches = sum(w["batches"] for w in tier["per_worker"])
    reply_bytes = reply["pipe_bytes"] / sub_batches
    request_bytes = request["pipe_bytes"] / sub_batches
    out = {
        "workers": workers,
        "sub_batches": sub_batches,
        "reply_pipe_bytes_per_sub_batch": round(reply_bytes, 1),
        "request_pipe_bytes_per_sub_batch": round(request_bytes, 1),
        "ceiling": PIPE_BYTES_PER_SUB_BATCH,
        "reply": reply,
        "request": request,
        "no_leaked_segments": True,
    }
    assert reply_bytes <= PIPE_BYTES_PER_SUB_BATCH, out
    assert request_bytes <= PIPE_BYTES_PER_SUB_BATCH, out
    assert reply["oversized_replies"] == 0, out
    assert request["oversized_batches"] == 0, out
    assert reply["crc_failures"] == request["crc_failures"] == 0, out
    return out


def bench_build_pipeline(graph, workers=POOL_WORKERS, repeats=BUILD_REPEATS):
    """Barrier vs pipelined band-build sync fabric, one shared contraction.

    Byte-identity of both builds against the serial bundle gates before
    any clock.  Sync bytes are deterministic, so the >= 5x total
    reduction bar (pickled acked entry broadcasts -> packed LBLCHUNK
    columns through the shared ring) asserts here, hard, in every mode;
    the wall-clock comparison is recorded always and asserted only by
    the CPU-gated caller.
    """
    res = contract_graph(graph)
    serial_bytes = bundle_bytes(HubLabelIndex(graph, contraction=res))

    def _one(pipeline):
        best_s = INF
        info = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            built = HubLabelIndex(
                graph,
                contraction=res,
                build_workers=workers,
                build_pipeline=pipeline,
            )
            elapsed = time.perf_counter() - t0
            assert bundle_bytes(built) == serial_bytes, (
                f"{'pipelined' if pipeline else 'barrier'} build is not "
                "byte-identical to the serial build"
            )
            if elapsed < best_s:
                best_s, info = elapsed, built.build_info
        return best_s, info

    barrier_s, barrier_info = _one(False)
    piped_s, piped_info = _one(True)
    barrier_total = (
        barrier_info["sync"]["shm_bytes"] + barrier_info["sync"]["pipe_bytes"]
    )
    piped_total = (
        piped_info["sync"]["shm_bytes"] + piped_info["sync"]["pipe_bytes"]
    )
    ratio = barrier_total / max(1, piped_total)
    assert ratio >= 5.0, (
        f"packed-column sync moved only {ratio:.1f}x fewer bytes "
        f"({barrier_total} -> {piped_total})"
    )
    return {
        "workers": workers,
        "byte_identical": True,
        "barrier_s": round(barrier_s, 4),
        "pipelined_s": round(piped_s, 4),
        "pipelined_vs_barrier_speedup": round(barrier_s / piped_s, 3),
        "sync_byte_reduction": round(ratio, 1),
        "barrier_sync": barrier_info["sync"],
        "pipelined_sync": piped_info["sync"],
        "overlap_fraction": piped_info["sync"]["overlap_fraction"],
    }


def bench_serving(hl, blob, scripts, reference, requests, workers=POOL_WORKERS):
    """Pool vs single-process closed loop, best-of-``REPEATS`` each."""
    single_s = INF
    single_stats = None
    for _ in range(REPEATS):
        seconds, flat, stats = _single_process_run(hl, scripts)
        assert flat == reference, "single-process served != per-query calls"
        if seconds < single_s:
            single_s, single_stats = seconds, stats

    pool_s = INF
    pool_stats = None
    for _ in range(REPEATS):
        seconds, flat, stats = _pool_run(blob, scripts, workers)
        assert flat == reference, "pool served != per-query calls"
        if seconds < pool_s:
            pool_s, pool_stats = seconds, stats

    record = ServeRecord(
        engine=hl.name,
        dataset=DATASET,
        clients=len(scripts),
        requests=requests,
        seconds=round(pool_s, 5),
        requests_per_s=round(requests / pool_s, 1),
        batches=pool_stats["batches"],
        mean_batch_size=pool_stats["mean_batch_size"],
        cache_hit_rate=round(pool_stats["pool"]["cache"]["hit_rate"], 4),
    )
    tier = pool_stats["pool"]
    return {
        "workers": workers,
        "single_process_s": round(single_s, 5),
        "single_process_req_per_s": round(requests / single_s, 1),
        "pool_s": round(pool_s, 5),
        "pool_req_per_s": round(requests / pool_s, 1),
        "pool_vs_single_speedup": round(single_s / pool_s, 3),
        "single_mean_batch": single_stats["mean_batch_size"],
        "pool_mean_batch": pool_stats["mean_batch_size"],
        "dispatch": {
            "dispatches": tier["dispatches"],
            "mean_imbalance": tier["mean_dispatch_imbalance"],
            "transport": tier["transport"],
            "per_worker_batches": [w["batches"] for w in tier["per_worker"]],
            "per_worker_busy_s": [w["busy_s"] for w in tier["per_worker"]],
        },
        "record": asdict(record),
    }


def bench_build(graph, workers=POOL_WORKERS):
    """Serial vs band-parallel label build over one shared contraction.

    The contraction is excluded from both sides (it is shared in
    deployments that care — the ISSUE's 2x bar is about the label
    phase); byte-identity of the full bundle is asserted before any
    timing is recorded.
    """
    res = contract_graph(graph)
    serial = HubLabelIndex(graph, contraction=res)
    parallel = HubLabelIndex(graph, contraction=res, build_workers=workers)
    assert bundle_bytes(serial) == bundle_bytes(parallel), (
        "parallel-build labels are not byte-identical to the serial build"
    )

    serial_s = INF
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        HubLabelIndex(graph, contraction=res)
        serial_s = min(serial_s, time.perf_counter() - t0)
    parallel_s = INF
    build_info = None
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        built = HubLabelIndex(graph, contraction=res, build_workers=workers)
        elapsed = time.perf_counter() - t0
        if elapsed < parallel_s:
            parallel_s, build_info = elapsed, built.build_info
    return {
        "workers": workers,
        "byte_identical": True,
        "label_entries": serial.label_count,
        "serial_label_s": round(serial_s, 4),
        "parallel_label_s": round(parallel_s, 4),
        "parallel_vs_serial_speedup": round(serial_s / parallel_s, 3),
        "bands": build_info["bands"],
        "largest_band": build_info["largest_band"],
        "parent_built_nodes": build_info["parent_built_nodes"],
    }


def build_and_verify(clients=CLIENTS, rounds=ROUNDS):
    graph = dataset(DATASET)
    hl = HubLabelIndex(graph)
    blob = bundle_bytes(hl)
    scripts = build_workload(graph, clients=clients, rounds=rounds)
    reference = sequential_reference(hl, scripts)
    result = {
        "dataset": DATASET,
        "n": graph.n,
        "m": graph.m,
        "environment": environment_metadata(),
        "visible_cpus": visible_cpus(),
        "bundle_bytes": len(blob),  # compact (HL2) — what workers boot from
        "bundle_bytes_flat": len(bundle_bytes(hl, compact=False)),
        "workload": {
            "clients": clients,
            "requests": clients * rounds,
            "underlying_pairs": workload_pairs(scripts),
            "shape": "ISSUE-4 skewed closed loop (75% one-to-many to hot "
            "order pools, pareto endpoints)",
        },
    }
    return graph, hl, blob, scripts, reference, clients * rounds, result


def run_benchmark():
    graph, hl, blob, scripts, reference, requests, result = build_and_verify()
    cpus = visible_cpus()
    backends = {}
    names = (["numpy"] if backend.HAS_NUMPY else []) + ["pure"]
    for name in names:
        with backend.forced(name):
            backends[backend.active()] = bench_serving(
                hl, blob, scripts, reference, requests
            )
    build = bench_build(graph)
    build_pipeline = bench_build_pipeline(graph)
    pipe = bench_pipe_bytes(blob, scripts, reference)
    headline = {
        "note": "pool = Server over a %d-worker WorkerPool (bundle-booted "
        "replicas, group-preserving dispatch, shared dispatcher cache); "
        "single = the PR 4 one-process Server.  Parity asserted before "
        "every clock; parallel-build labels byte-identical to serial.  "
        "The speedups are hardware-gated: this box exposes %d CPU(s), "
        "so N workers time-share and the ISSUE's multicore bars "
        "(>= 2.5x serve, >= 2x build on 4 cores) are not physical here "
        "— the recorded ratio is the honest 1-core cost of the IPC."
        % (POOL_WORKERS, cpus),
        "visible_cpus": cpus,
        "build_parallel_vs_serial": build["parallel_vs_serial_speedup"],
        "build_sync_byte_reduction": build_pipeline["sync_byte_reduction"],
        "build_overlap_fraction": build_pipeline["overlap_fraction"],
        "reply_pipe_bytes_per_sub_batch": pipe["reply_pipe_bytes_per_sub_batch"],
        "request_pipe_bytes_per_sub_batch": pipe[
            "request_pipe_bytes_per_sub_batch"
        ],
    }
    for name, rec in backends.items():
        headline[f"{name}_pool_vs_single"] = rec["pool_vs_single_speedup"]
        headline[f"{name}_pool_req_per_s"] = rec["pool_req_per_s"]
    result.update(
        {
            "method": "closed-loop, best-of-%d per side, cold cache and "
            "fresh pool per served repeat, backends A/B'd in one process; "
            "build best-of-%d over one shared contraction; pipe bytes "
            "counted on the identical workload" % (REPEATS, BUILD_REPEATS),
            "headline": headline,
            "serving": backends,
            "parallel_build": build,
            "build_pipeline": build_pipeline,
            "pipe_bytes": pipe,
        }
    )
    return result


def run_check(workers=2):
    """CI mode: parity + structure only — no timing, no flake."""
    graph, hl, blob, scripts, reference, requests, result = build_and_verify(
        clients=200, rounds=2
    )
    checks = {}
    names = (["numpy"] if backend.HAS_NUMPY else []) + ["pure"]
    for name in names:
        with backend.forced(name):
            _, flat, stats = _pool_run(blob, scripts, workers)
            assert flat == reference, f"{name}: pool served != per-query calls"
            tier = stats["pool"]
            per_worker = [w["batches"] for w in tier["per_worker"]]
            assert all(b > 0 for b in per_worker), (
                f"{name}: a worker served nothing: {per_worker}"
            )
            assert stats["worker_failed"] == 0, stats
            checks[backend.active()] = {
                "parity": "bit-identical to per-query distance() calls",
                "requests": requests,
                "workers": workers,
                "per_worker_batches": per_worker,
                "mean_dispatch_imbalance": tier["mean_dispatch_imbalance"],
                "respawns": tier["respawns"],
            }
    # Parallel build byte-identity with the check-mode worker count
    # (compact and flat images both).
    res = contract_graph(graph)
    serial = HubLabelIndex(graph, contraction=res)
    parallel = HubLabelIndex(graph, contraction=res, build_workers=workers)
    assert bundle_bytes(serial) == bundle_bytes(parallel)
    assert bundle_bytes(serial, compact=False) == bundle_bytes(
        parallel, compact=False
    )
    result["parallel_build"] = {
        "workers": workers,
        "byte_identical": True,
        "bands": parallel.build_info["bands"],
    }
    # Parity + the hard pipe-byte ceilings (byte counts are
    # deterministic, so check mode gates them too), plus the
    # pipelined-build sync fabric with the full 4-worker count (sync
    # bytes are deterministic as well; timings untouched).
    result["pipe_bytes"] = bench_pipe_bytes(
        blob, scripts, reference, workers=workers
    )
    result["build_pipeline"] = bench_build_pipeline(
        graph, workers=POOL_WORKERS, repeats=1
    )
    result["mode"] = (
        "check (parity + structure + pipe-byte ceilings + "
        "build-pipeline sync ratio; timings omitted)"
    )
    result["serving"] = checks
    return result


def write_json(result, path=None):
    if path is None:
        name = "BENCH_pool.check.json" if "mode" in result else "BENCH_pool.json"
        path = Path(__file__).resolve().parent.parent / name
    Path(path).write_text(json.dumps(result, indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# Pytest guard
# ----------------------------------------------------------------------
def test_pool_speed():
    """Pool tier: exactness and structure always; timing only when physical.

    Parity (pool == single-process == per-query) and build byte-identity
    gate unconditionally.  Timing floors apply only on boxes with >= 4
    visible CPUs, where the parallel ratios mean something; on smaller
    boxes the run still records the honest numbers to BENCH_pool.json's
    shape without asserting them.
    """
    result = run_benchmark()
    build = result["parallel_build"]
    assert build["byte_identical"]
    for rec in result["serving"].values():
        assert rec["dispatch"]["dispatches"] > 0
        assert all(b > 0 for b in rec["dispatch"]["per_worker_batches"]), rec
    # Bytes moved are hardware-independent — always hard.
    pipe = result["pipe_bytes"]
    ceiling = PIPE_BYTES_PER_SUB_BATCH
    assert pipe["reply_pipe_bytes_per_sub_batch"] <= ceiling, pipe
    assert pipe["request_pipe_bytes_per_sub_batch"] <= ceiling, pipe
    assert pipe["no_leaked_segments"]
    pipeline = result["build_pipeline"]
    assert pipeline["byte_identical"]
    assert pipeline["sync_byte_reduction"] >= 5.0, pipeline
    if result["visible_cpus"] >= POOL_WORKERS:
        # Deliberately conservative floors (the committed BENCH_pool.json
        # carries the real quiet-machine numbers).
        if backend.HAS_NUMPY:
            assert result["serving"]["numpy"]["pool_vs_single_speedup"] >= 1.5
        assert build["parallel_vs_serial_speedup"] >= 1.3
        # Overlapping sync with compute must not lose to the barrier.
        assert pipeline["pipelined_s"] <= pipeline["barrier_s"], pipeline


if __name__ == "__main__":
    if "--check" in sys.argv[1:]:
        res = run_check()
    else:
        res = run_benchmark()
    out = write_json(res)
    print(json.dumps(res, indent=2))
    print(f"\nwrote {out}")

"""Perf + parity guard for the multi-process worker tier (PR 5).

One A/B on ``NH``, **parity-asserted before any clocks**: the skewed
closed-loop workload of ``test_serve_speed`` served by a 4-worker
:class:`repro.serve.pool.WorkerPool` behind the same
:class:`~repro.serve.Server`, against the single-process server.
Pool results must be bit-identical to the single-process results
(which are themselves pinned bit-identical to per-query engine calls).

Results go to ``BENCH_pool.json`` with environment metadata *plus the
visible CPU count* — the speedup here is hardware-gated in a way the
single-process benches are not: on a 1-CPU container N workers
time-share one core and the IPC is pure overhead, so the recorded
ratio documents the machine as much as the code.  The ISSUE's
acceptance bar (pool serving >= 2.5x with 4 workers) is only reachable
with >= 4 cores; the pytest guard therefore asserts parity, dispatch
structure and crash-free operation unconditionally, and the timing
floor only when the box has enough cores to make it physical.

A byte check rides along, deterministic and so *hard* in every mode:
requests and replies cross per-worker shared-memory lanes, so each
pipe carries one small control frame per dispatched sub-batch.  The
same served workload must stay within ``PIPE_BYTES_PER_SUB_BATCH`` in
each direction, with zero oversized fallbacks, zero CRC failures and
no ``/dev/shm`` segment outliving its pool.

``--check`` (CI, both backend legs): 2 workers, small workload, parity
+ the pipe-byte ceilings + "every worker actually served" only — no
timing.  Writes ``BENCH_pool.check.json`` so the committed timing
record is never clobbered by a CI reproduction.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from repro import backend
from repro.baselines import DistanceCache, HubLabelIndex
from repro.bench.harness import ServeRecord, environment_metadata, run_closed_loop
from repro.core.serialize import bundle_bytes
from repro.datasets import dataset
from repro.serve import WorkerPool

from flat_image import flat_bundle_bytes
from test_serve_speed import build_workload, sequential_reference, workload_pairs

INF = float("inf")
DATASET = "NH"
POOL_WORKERS = 4
CLIENTS = 1000
ROUNDS = 3
REPEATS = 3
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


def _pool_run(bundle, scripts, workers):
    """One cold-cache pool-served run; fresh pool (fresh shared cache)."""
    pool = WorkerPool(bundle, workers=workers, cache=DistanceCache(1 << 16))
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


def bench_pipe_bytes(bundle, scripts, reference, workers=POOL_WORKERS):
    """Pipe bytes per dispatched sub-batch on the served workload.

    Parity-asserted against the per-query reference first.  Byte counts
    are deterministic, so the ceiling, zero oversized fallbacks and zero
    CRC failures are asserted here, hard, in every mode; ``_pool_run``
    has already checked that no lane segment outlived the pool.
    """
    _, flat, stats = _pool_run(bundle, scripts, workers)
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


def bench_serving(hl, bundle, scripts, reference, requests, workers=POOL_WORKERS):
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
        seconds, flat, stats = _pool_run(bundle, scripts, workers)
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
            "per_worker_batches": [w["batches"] for w in tier["per_worker"]],
            "per_worker_busy_s": [w["busy_s"] for w in tier["per_worker"]],
        },
        "record": asdict(record),
    }


def build_and_verify(bundle_dir, clients=CLIENTS, rounds=ROUNDS):
    """Build the index and save its bundle under ``bundle_dir``, the
    path every pool boots from."""
    graph = dataset(DATASET)
    hl = HubLabelIndex(graph)
    blob = bundle_bytes(hl)
    bundle = os.path.join(bundle_dir, f"{DATASET}.bundle")
    with open(bundle, "wb") as fh:
        fh.write(blob)
    scripts = build_workload(graph, clients=clients, rounds=rounds)
    reference = sequential_reference(hl, scripts)
    result = {
        "dataset": DATASET,
        "n": graph.n,
        "m": graph.m,
        "environment": environment_metadata(),
        "visible_cpus": visible_cpus(),
        "bundle_bytes": len(blob),  # compact (HL2) — what workers boot from
        "bundle_bytes_flat": flat_bundle_bytes(blob),
        "workload": {
            "clients": clients,
            "requests": clients * rounds,
            "underlying_pairs": workload_pairs(scripts),
            "shape": "ISSUE-4 skewed closed loop (75% one-to-many to hot "
            "order pools, pareto endpoints)",
        },
    }
    return hl, bundle, scripts, reference, clients * rounds, result


def run_benchmark():
    with tempfile.TemporaryDirectory() as tmp:
        return _run_benchmark(*build_and_verify(tmp))


def _run_benchmark(hl, bundle, scripts, reference, requests, result):
    cpus = visible_cpus()
    backends = {}
    names = (["native"] if backend.HAS_NATIVE else []) + ["pure"]
    for name in names:
        with backend.forced(name):
            backends[backend.active()] = bench_serving(
                hl, bundle, scripts, reference, requests
            )
    pipe = bench_pipe_bytes(bundle, scripts, reference)
    headline = {
        "note": "pool = Server over a %d-worker WorkerPool (bundle-booted "
        "replicas, group-preserving dispatch, shared dispatcher cache); "
        "single = the PR 4 one-process Server.  Parity asserted before "
        "every clock.  The speedup is hardware-gated: this box exposes "
        "%d CPU(s), so N workers time-share and the multicore bar "
        "(>= 2.5x serve on 4 cores) is not physical here — the "
        "recorded ratio is the honest 1-core cost of the IPC."
        % (POOL_WORKERS, cpus),
        "visible_cpus": cpus,
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
            "pipe bytes counted on the identical workload" % REPEATS,
            "headline": headline,
            "serving": backends,
            "pipe_bytes": pipe,
        }
    )
    return result


def run_check(workers=2):
    """CI mode: parity + structure only — no timing, no flake."""
    with tempfile.TemporaryDirectory() as tmp:
        return _run_check(
            workers, *build_and_verify(tmp, clients=200, rounds=2)
        )


def _run_check(workers, hl, bundle, scripts, reference, requests, result):
    checks = {}
    names = (["native"] if backend.HAS_NATIVE else []) + ["pure"]
    for name in names:
        with backend.forced(name):
            _, flat, stats = _pool_run(bundle, scripts, workers)
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
    # Parity + the hard pipe-byte ceilings (byte counts are
    # deterministic, so check mode gates them too).
    result["pipe_bytes"] = bench_pipe_bytes(
        bundle, scripts, reference, workers=workers
    )
    result["mode"] = (
        "check (parity + structure + pipe-byte ceilings; timings omitted)"
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

    Parity (pool == single-process == per-query) gates unconditionally.
    The timing floor applies only on boxes with >= 4 visible CPUs, where
    the parallel ratio means something; on smaller boxes the run still
    records the honest numbers to BENCH_pool.json's shape without
    asserting them.
    """
    result = run_benchmark()
    for rec in result["serving"].values():
        assert rec["dispatch"]["dispatches"] > 0
        assert all(b > 0 for b in rec["dispatch"]["per_worker_batches"]), rec
    # Bytes moved are hardware-independent — always hard.
    pipe = result["pipe_bytes"]
    ceiling = PIPE_BYTES_PER_SUB_BATCH
    assert pipe["reply_pipe_bytes_per_sub_batch"] <= ceiling, pipe
    assert pipe["request_pipe_bytes_per_sub_batch"] <= ceiling, pipe
    assert pipe["no_leaked_segments"]
    if result["visible_cpus"] >= POOL_WORKERS:
        # Deliberately conservative floor (the committed BENCH_pool.json
        # carries the real quiet-machine numbers), on the pure lane,
        # whose HL kernels are the ones it was first set on.
        assert result["serving"]["pure-python"]["pool_vs_single_speedup"] >= 1.5


if __name__ == "__main__":
    if "--check" in sys.argv[1:]:
        res = run_check()
    else:
        res = run_benchmark()
    out = write_json(res)
    print(json.dumps(res, indent=2))
    print(f"\nwrote {out}")

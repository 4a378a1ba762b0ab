"""Perf guard for the serving layer (PR 4): coalescing vs sequential.

Drives the ISSUE-4 acceptance workload — a skewed closed-loop serving
load on ``NH``, 1000 concurrent clients — through the asyncio
:class:`repro.serve.Server` and compares throughput against the
*sequential per-query baseline*: the same request stream answered by a
plain loop of ``engine.distance(s, t)`` calls, one per underlying pair
(what a naive service without a batching front-end does).  Results go to
``BENCH_serve.json`` at the repo root with full environment metadata.

Workload shape (the dispatch/ETA pattern the batched kernels exist for):

* 1000 closed-loop clients, 3 requests each, awaiting every answer
  before the next request — offered concurrency = live clients.
* 75% of requests are ``one_to_many`` rows from a skewed source to one
  of four hot 40-target "order pools" (serving workloads reuse target
  sets — exactly what HL's memoized target inversion amortises); the
  pool choice is Pareto-skewed, so one pool dominates.
* 25% are point-to-point distances over Pareto-skewed hot endpoints —
  the traffic the shared :class:`DistanceCache` absorbs.

Methodology
-----------
* Parity before clocks: the served results must be **bit-identical** to
  the sequential per-query baseline on every backend (the planner's
  exactness contract; a fast wrong server is worthless).
* Both sides run best-of-``REPEATS``; each served repeat builds a fresh
  server (cold cache — the recorded hit rate is earned inside the run,
  not carried between repeats).  The backend dimension is A/B'd in one
  process via ``backend.forced``, same as ``test_hl_speed.py``: the
  native lane (the C kernels, when the extension is loaded) against the
  pure-python lane.
* ``--check`` runs a smaller workload and asserts parity + that
  coalescing actually happened (mean batch size > 1) — no timing
  assertions, so CI (the native and the no-compiler legs) stays immune
  to noisy-runner flake.  It writes ``BENCH_serve.check.json`` so the
  committed timing record is never clobbered.

Run directly (``python benchmarks/test_serve_speed.py``) to refresh
``BENCH_serve.json``; under pytest the same measurement doubles as a
regression guard with deliberately conservative thresholds.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import asdict
from pathlib import Path

from repro import backend
from repro.baselines import (
    DistanceCache,
    DistanceRequest,
    HubLabelIndex,
    OneToManyRequest,
)
from repro.bench.harness import (
    OpenLoopRecord,
    ServeRecord,
    environment_metadata,
    latency_percentile,
    run_closed_loop,
    run_open_loop,
)
from repro.datasets import dataset

INF = float("inf")
DATASET = "NH"
CLIENTS = 1000


def visible_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1
ROUNDS = 3
POOLS = 4
POOL_SIZE = 40
O2M_FRACTION = 0.75
HOT_NODES = 64
REPEATS = 3
SEED = 99

#: Open-loop sweep: offered arrival rates (requests/second) crossed with
#: two coalescing policies, so BENCH_serve records how p50/p99 move with
#: load under each side of the window_s/max_batch trade-off (the ROADMAP
#: "open-loop load + latency SLOs" item).
OPEN_RATES = (2000, 8000, 32000)
OPEN_POLICIES = {
    # Natural batching only: a request never waits for company, so p50
    # stays near the kernel time at low load.
    "natural": {"window_s": 0.0, "max_batch": 1024},
    # A 2 ms window trades per-request latency for wider batches — the
    # knob a throughput-bound deployment turns; the sweep shows what it
    # costs at low load and what it buys near saturation.
    "window-2ms": {"window_s": 0.002, "max_batch": 1024},
}
OPEN_REQUESTS = 3000
BURST_SIZE = 64


def build_workload(graph, clients=CLIENTS, rounds=ROUNDS, seed=SEED):
    """Per-client request scripts for the skewed closed-loop load."""
    rng = random.Random(seed)
    n = graph.n
    pools = [
        tuple(rng.randrange(n) for _ in range(POOL_SIZE)) for _ in range(POOLS)
    ]
    hot = [rng.randrange(n) for _ in range(HOT_NODES)]

    def skewed_node():
        # Pareto-ranked hot set with a uniform tail: the "millions of
        # users, few hot stations" shape skewed serving traffic has.
        if rng.random() < 0.8:
            return hot[min(int(rng.paretovariate(1.2)) - 1, HOT_NODES - 1)]
        return rng.randrange(n)

    scripts = []
    for _ in range(clients):
        script = []
        for _ in range(rounds):
            if rng.random() < O2M_FRACTION:
                pool = pools[min(int(rng.paretovariate(1.5)) - 1, POOLS - 1)]
                script.append(OneToManyRequest(skewed_node(), pool))
            else:
                script.append(DistanceRequest(skewed_node(), skewed_node()))
        scripts.append(script)
    return scripts


def workload_pairs(scripts) -> int:
    """Underlying (source, target) pairs the sequential baseline answers."""
    return sum(
        len(req.targets) if isinstance(req, OneToManyRequest) else 1
        for script in scripts
        for req in script
    )


def sequential_reference(engine, scripts):
    """The per-query baseline: one ``distance()`` call per pair.

    Returns the flat per-request results in script order — a float for
    a point request, a list for a one-to-many row — which is also the
    parity reference the served results must match bit-for-bit.
    """
    distance = engine.distance
    results = []
    for script in scripts:
        for req in script:
            if isinstance(req, OneToManyRequest):
                results.append([distance(req.source, t) for t in req.targets])
            else:
                results.append(distance(req.source, req.target))
    return results


def _served_flat(per_client):
    return [result for client in per_client for result in client]


def _serve_once(hl, scripts):
    """One cold-cache served run; returns (seconds, flat results, stats)."""
    seconds, per_client, stats = run_closed_loop(
        hl, scripts, cache=DistanceCache(1 << 16)
    )
    return seconds, _served_flat(per_client), stats


def _bench_backend(hl, scripts, reference, requests):
    """Best-of-REPEATS sequential and served timings on the active backend."""
    seq_s = INF
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        got = sequential_reference(hl, scripts)
        seq_s = min(seq_s, time.perf_counter() - t0)
    assert got == reference  # backend-independent by the parity contract

    served_s = INF
    stats = None
    for _ in range(REPEATS):
        seconds, flat, run_stats = _serve_once(hl, scripts)
        assert flat == reference, "served results diverged from per-query calls"
        if seconds < served_s:
            served_s = seconds
            stats = run_stats
    record = ServeRecord(
        engine=hl.name,
        dataset=DATASET,
        clients=len(scripts),
        requests=requests,
        seconds=round(served_s, 5),
        requests_per_s=round(requests / served_s, 1),
        batches=stats["batches"],
        mean_batch_size=stats["mean_batch_size"],
        cache_hit_rate=round(stats["planner"]["cache"]["hit_rate"], 4),
    )
    return {
        "sequential_s": round(seq_s, 5),
        "sequential_req_per_s": round(requests / seq_s, 1),
        "served_s": round(served_s, 5),
        "served_req_per_s": round(requests / served_s, 1),
        "coalesced_vs_sequential_speedup": round(seq_s / served_s, 3),
        "largest_batch": stats["largest_batch"],
        "batch_size_histogram": stats["batch_size_histogram"],
        "kernels": stats["planner"]["kernels"],
        "target_inversion": hl.target_inversion_stats(),
        "record": asdict(record),
    }


def poisson_arrivals(count, rate, seed=SEED):
    """Cumulative exponential gaps: a Poisson arrival process at ``rate``."""
    rng = random.Random(seed)
    at = 0.0
    out = []
    for _ in range(count):
        at += rng.expovariate(rate)
        out.append(at)
    return out


def bursty_arrivals(count, rate, burst=BURST_SIZE):
    """``burst`` simultaneous requests every ``burst/rate`` seconds.

    Same average offered load as the Poisson process, maximally lumpy —
    the arrival shape that separates a natural-batching server (absorbs
    the lump as one batch) from a per-request one (queues it).
    """
    period = burst / rate
    return [(i // burst) * period for i in range(count)]


def _open_loop_requests(graph, count=OPEN_REQUESTS, seed=SEED + 1):
    """Flat request stream with the closed-loop workload's shape."""
    scripts = build_workload(graph, clients=count, rounds=1, seed=seed)
    return [script[0] for script in scripts]


def _latency_summary(latencies, duration, arrival, rate, engine_name):
    """Fold one run's latencies into an OpenLoopRecord."""
    answered = sorted(lat for lat in latencies if lat is not None)
    expired = sum(1 for lat in latencies if lat is None)
    record = OpenLoopRecord(
        engine=engine_name,
        dataset=DATASET,
        arrival=arrival,
        offered_rps=rate,
        requests=len(latencies),
        completed=len(answered),
        expired=expired,
        duration_s=round(duration, 4),
        p50_ms=round(latency_percentile(answered, 0.50) * 1e3, 4),
        p99_ms=round(latency_percentile(answered, 0.99) * 1e3, 4),
        mean_ms=round(
            (sum(answered) / len(answered) * 1e3) if answered else 0.0, 4
        ),
        max_ms=round((answered[-1] * 1e3) if answered else 0.0, 4),
    )
    return record


def run_open_loop_bench(hl, graph, rates=OPEN_RATES, count=OPEN_REQUESTS):
    """p50/p99 latency vs offered load, per arrival process and policy.

    Each cell fires the same request stream on a fixed arrival schedule
    and measures answer latency from the *scheduled* arrival (so a
    lagging server accrues queueing delay — no coordinated omission).
    One run per cell: open-loop latency distributions are the
    measurement, best-of repeats would censor exactly the queueing
    noise the bench exists to expose.
    """
    requests = _open_loop_requests(graph, count=count)
    sweep = {}
    for arrival in ("poisson", "bursty"):
        by_rate = {}
        for rate in rates:
            arrivals = (
                poisson_arrivals(count, rate)
                if arrival == "poisson"
                else bursty_arrivals(count, rate)
            )
            by_policy = {}
            for policy_name, policy in OPEN_POLICIES.items():
                latencies, duration, stats = run_open_loop(
                    hl,
                    requests,
                    arrivals,
                    cache=DistanceCache(1 << 16),
                    **policy,
                )
                record = _latency_summary(latencies, duration, arrival, rate, hl.name)
                by_policy[policy_name] = {
                    "p50_ms": record.p50_ms,
                    "p99_ms": record.p99_ms,
                    "mean_ms": record.mean_ms,
                    "max_ms": record.max_ms,
                    "completed": record.completed,
                    "mean_batch_size": stats["mean_batch_size"],
                    "batches": stats["batches"],
                    "record": asdict(record),
                }
            by_rate[f"{rate}_rps"] = by_policy
        sweep[arrival] = by_rate
    sweep["note"] = (
        "open loop: requests fire on a fixed arrival schedule (poisson "
        "gaps / %d-request bursts), latency measured from the scheduled "
        "arrival so queueing delay is charged to the server, never to "
        "the clock.  The window_s trade-off is the point: the 2 ms "
        "window widens batches (throughput headroom) at the price of "
        "floor latency at low load." % BURST_SIZE
    )
    return sweep


def build_and_verify(clients=CLIENTS, rounds=ROUNDS):
    """Build HL on NH, generate the workload, pin served == sequential."""
    graph = dataset(DATASET)
    t0 = time.perf_counter()
    hl = HubLabelIndex(graph)
    build_s = time.perf_counter() - t0
    scripts = build_workload(graph, clients=clients, rounds=rounds)
    requests = clients * rounds
    reference = sequential_reference(hl, scripts)

    result = {
        "dataset": DATASET,
        "n": graph.n,
        "m": graph.m,
        "environment": environment_metadata(),
        "hl_build_s": round(build_s, 3),
        "workload": {
            "clients": clients,
            "requests": requests,
            "rounds_per_client": rounds,
            "one_to_many_fraction": O2M_FRACTION,
            "order_pools": POOLS,
            "pool_size": POOL_SIZE,
            "underlying_pairs": workload_pairs(scripts),
            "skew": "pareto hot-node sampling (80%% from a 64-node hot "
            "set), pareto-ranked pool choice; seed %d" % SEED,
        },
    }
    return hl, scripts, reference, requests, result


def run_benchmark():
    hl, scripts, reference, requests, result = build_and_verify()
    backends = {}
    if backend.HAS_NATIVE:
        with backend.forced("native"):
            backends["native"] = _bench_backend(hl, scripts, reference, requests)
    with backend.forced("pure"):
        backends["pure-python"] = _bench_backend(hl, scripts, reference, requests)
    headline = {
        "note": "coalesced = asyncio Server (natural batching, shared "
        "DistanceCache, planner kernel routing); sequential = one "
        "distance() call per underlying pair, no front-end.  Both "
        "sides answer bit-identically (asserted before recording).",
    }
    for name, rec in backends.items():
        headline[f"{name}_speedup"] = rec["coalesced_vs_sequential_speedup"]
        headline[f"{name}_served_req_per_s"] = rec["record"]["requests_per_s"]
    result.update(
        {
            "method": "closed-loop, best-of-%d per side, cold cache per "
            "served repeat, backends A/B'd in one process" % REPEATS,
            "headline": headline,
            "backends": backends,
        }
    )
    # Open-loop latency sweep on the default backend (the latency story
    # is policy/arrival-shaped; the backend dimension is covered by the
    # closed-loop A/B above).
    result["open_loop"] = {
        "backend": backend.active(),
        **run_open_loop_bench(hl, hl.graph),
    }
    return result


def run_check():
    """CI mode: parity + coalescing evidence only — no timing, no flake."""
    hl, scripts, reference, requests, result = build_and_verify(
        clients=200, rounds=2
    )
    checks = {}
    names = (["native"] if backend.HAS_NATIVE else []) + ["pure"]
    for name in names:
        with backend.forced(name):
            _, flat, stats = _serve_once(hl, scripts)
            assert flat == reference, f"{name}: served != per-query results"
            assert stats["mean_batch_size"] > 1.0, (
                f"{name}: no coalescing happened: {stats}"
            )
            checks[backend.active()] = {
                "parity": "bit-identical to per-query distance() calls",
                "requests": requests,
                "batches": stats["batches"],
                "mean_batch_size": stats["mean_batch_size"],
                "cache_hit_rate": round(stats["planner"]["cache"]["hit_rate"], 4),
            }
    # Open-loop smoke: one small Poisson run must answer everything.
    requests = _open_loop_requests(hl.graph, count=300)
    latencies, duration, _ = run_open_loop(
        hl, requests, poisson_arrivals(300, 4000), cache=DistanceCache(1 << 12)
    )
    assert all(lat is not None for lat in latencies), "open-loop requests shed"
    result["open_loop_smoke"] = {
        "requests": len(requests),
        "completed": len(latencies),
        "arrival": "poisson@4000rps",
    }
    result["mode"] = "check (parity + coalescing evidence; timings omitted)"
    result["backends"] = checks
    return result


def write_json(result, path=None):
    if path is None:
        # Check-mode output goes to its own (untracked) file so that
        # reproducing CI locally never clobbers the committed timing
        # record in BENCH_serve.json.
        name = "BENCH_serve.check.json" if "mode" in result else "BENCH_serve.json"
        path = Path(__file__).resolve().parent.parent / name
    Path(path).write_text(json.dumps(result, indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# Pytest guard
# ----------------------------------------------------------------------
def test_serve_speed():
    """Coalesced serving must beat the sequential per-query loop.

    Quiet-machine runs measured ~5x and ~4x (pure) on this workload;
    the pytest thresholds are deliberately conservative so a
    noisy CI box cannot flake them, and the committed BENCH_serve.json
    carries the real numbers (the ISSUE's >= 3x acceptance bar is
    checked against that recorded, quiet-machine measurement).
    """
    result = run_benchmark()
    backends = result["backends"]
    # Timing floors gate on cores — a starved 1-CPU box times the event
    # loop's time-slicing, not coalescing (ROADMAP measurement
    # discipline).  Batch-size facts are scheduling evidence, not clocks,
    # and stay hard on every box.
    if visible_cpus() >= 2:
        if backend.HAS_NATIVE:
            assert (
                backends["native"]["coalesced_vs_sequential_speedup"] >= 2.0
            ), backends
        # The pure fallback must also profit from coalescing (bucket-scan
        # tables + inversion memo + cache), not merely tolerate it.
        assert (
            backends["pure-python"]["coalesced_vs_sequential_speedup"] >= 1.3
        ), backends
    if backend.HAS_NATIVE:
        assert backends["native"]["record"]["mean_batch_size"] > 10.0, backends
    assert backends["pure-python"]["record"]["mean_batch_size"] > 10.0, backends
    # Open-loop sweep sanity (shape only — latency values are recorded,
    # not asserted, so a noisy box cannot flake this guard): nothing
    # shed, distributions ordered.
    for arrival in ("poisson", "bursty"):
        for rate_cell in result["open_loop"][arrival].values():
            for cell in rate_cell.values():
                assert cell["completed"] == cell["record"]["requests"], cell
                assert cell["p50_ms"] <= cell["p99_ms"] + 1e-9, cell
    # The committed BENCH_serve.json is refreshed explicitly (run this
    # file directly on a quiet machine); CI gates, it does not overwrite.


if __name__ == "__main__":
    if "--check" in sys.argv[1:]:
        res = run_check()
    else:
        res = run_benchmark()
    out = write_json(res)
    print(json.dumps(res, indent=2))
    print(f"\nwrote {out}")

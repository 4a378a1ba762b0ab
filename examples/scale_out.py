"""Scaling out: the multi-process worker tier end to end.

Run with::

    python examples/scale_out.py

One Python process tops out at one core (and one GIL).  This demo shows
the PR 5 worker tier taking the same serving stack past that:

1. an index is built once and **serialized to a bundle** — the shared
   substrate every worker boots from (here a file, which every replica
   decodes into its own columns);
2. a :class:`repro.serve.WorkerPool` spawns worker processes, each
   loading its own engine replica from the bundle, and the familiar
   :class:`repro.serve.Server` dispatches coalesced batches across them
   — answers stay bit-identical to a single-process server;
3. ``stats()["pool"]`` shows the worker-tier picture: per-worker batch
   counts, busy vs idle seconds, dispatch imbalance, respawns;
4. a worker is **killed mid-service** and the pool respawns it from the
   bundle — clients never notice.

On a multicore box steps 2-3 are where the throughput multiplies; on a
single-core container the demo still runs (the tier is correct
anywhere), it just can't outrun the one core it shares.
"""

import asyncio
import os
import random
import shutil
import signal
import tempfile
import time

from repro import backend
from repro.baselines import HubLabelIndex
from repro.core.serialize import save_bundle
from repro.datasets import towns_and_highways
from repro.serve import DistanceRequest, OneToManyRequest, Server, WorkerPool

CLIENTS = 120
ROUNDS = 3
WORKERS = 3


async def client_session(server, rng, graph, order_pool, results):
    for _ in range(ROUNDS):
        if rng.random() < 0.7:
            driver = rng.randrange(graph.n)
            etas = await server.submit(OneToManyRequest(driver, order_pool))
            results.append(min(etas))
        else:
            a, b = rng.randrange(16), rng.randrange(16)
            results.append(await server.submit(DistanceRequest(a, b)))


async def serve_through_pool(pool, graph, order_pool, kill_one_worker=False):
    rng = random.Random(11)
    results = []
    async with Server(None, pool=pool) as server:
        tasks = [
            client_session(server, random.Random(1000 + i), graph, order_pool, results)
            for i in range(CLIENTS)
        ]
        if kill_one_worker:
            victim = pool.handles[0].pid
            os.kill(victim, signal.SIGKILL)
            print(f"   (killed worker pid {victim} mid-service)")
        t0 = time.perf_counter()
        await asyncio.gather(*tasks)
        elapsed = time.perf_counter() - t0
        stats = server.stats()
    return elapsed, sorted(results), stats


def main() -> None:
    graph = towns_and_highways(6, seed=7)
    print(f"network: {graph.n} nodes / {graph.m} edges")
    # Which kernel tier answers every batch below (native C kernels when
    # the extension is built, else the pure-python scans) — workers
    # inherit the same tier through the bundle boot.
    print(f"backend: {backend.describe()['backend']}")

    print("\n[1] build once, bundle once")
    t0 = time.perf_counter()
    index = HubLabelIndex(graph)
    print(f"   serial build: {time.perf_counter() - t0:.3f}s, "
          f"{index.label_count} label entries")
    caps = index.batch_capabilities()
    print(f"   batch kernels: one_to_many={caps.one_to_many}, "
          f"distance_table={caps.distance_table}")
    bundle_dir = tempfile.mkdtemp()
    bundle_path = os.path.join(bundle_dir, "demo.bundle")
    save_bundle(index, bundle_path)
    print(f"   bundle: {os.path.getsize(bundle_path)} bytes -> {bundle_path}")

    print(f"\n[2] a {WORKERS}-worker pool serves the same workload")
    rng = random.Random(3)
    order_pool = tuple(rng.randrange(graph.n) for _ in range(30))
    pool = WorkerPool(bundle_path, workers=WORKERS, cache=True)
    try:
        elapsed, answers, stats = asyncio.run(
            serve_through_pool(pool, graph, order_pool)
        )
        requests = CLIENTS * ROUNDS
        print(f"   {requests} requests in {elapsed:.3f}s "
              f"({requests / elapsed:,.0f} req/s), tier={stats['policy']['tier']}")

        print("\n[3] the worker-tier stats a dashboard wants")
        tier = stats["pool"]
        print(f"   dispatches={tier['dispatches']}  "
              f"imbalance={tier['mean_dispatch_imbalance']}  "
              f"cache hit rate={tier['cache']['hit_rate']:.2f}")
        d = tier["dispatch"]
        print(f"   dispatch breakdown: pack={d['pack_s']:.4f}s "
              f"send={d['send_s']:.4f}s compute={d['compute_s']:.4f}s "
              f"merge={d['merge_s']:.4f}s")
        for side in ("request_path", "reply_path"):
            path = tier[side]
            print(f"   {side}: {path['pipe_bytes']} pipe bytes / "
                  f"{path['shm_bytes']} shm bytes")
        for i, w in enumerate(tier["per_worker"]):
            print(f"   worker {i}: pid={w['pid']} batches={w['batches']} "
                  f"requests={w['requests']} busy={w['busy_s']:.3f}s "
                  f"idle={w['idle_s']:.3f}s")

        print("\n[4] kill a worker mid-service: respawned from the bundle")
        elapsed2, answers2, stats2 = asyncio.run(
            serve_through_pool(pool, graph, order_pool, kill_one_worker=True)
        )
        assert answers2 == answers, "answers changed after the crash?!"
        print(f"   all {CLIENTS * ROUNDS} answers identical; "
              f"respawns={stats2['pool']['respawns']}, clients saw nothing")
    finally:
        pool.close()
        shutil.rmtree(bundle_dir)


if __name__ == "__main__":
    main()

"""The serving subsystem end to end: coalescing, deadlines, backpressure.

Run with::

    python examples/serve_demo.py

A map service doesn't answer one query at a time — it faces hundreds of
concurrent sessions, each alternating ETA rows ("this driver to every
open order") with point distance checks.  This demo builds a hub-label
index, starts the asyncio :class:`repro.serve.Server` over it, and
drives a skewed closed-loop load to show what the front-end buys:

1. concurrent ``submit()`` calls coalesce into planner batches (watch
   ``mean_batch_size`` — no client ever asked for a batch, the server
   manufactured them);
2. same-target ETA rows merge into one ``distance_table`` kernel call,
   and hot point pairs come straight out of the shared
   :class:`DistanceCache`;
3. per-request deadlines shed queued work (``DeadlineExpired``) and the
   bounded queue pushes back on overload (``ServerOverloaded``) instead
   of melting down.

Everything the server returns is bit-identical to a direct engine call
— the coalescing is invisible in results, visible only in throughput;
the demo asserts it for every served answer.
"""

import asyncio
import random
import time

from repro.baselines import DistanceCache, HubLabelIndex
from repro.datasets import towns_and_highways
from repro.serve import (
    DeadlineExpired,
    Server,
    ServerOverloaded,
)

CLIENTS = 200
ROUNDS = 4


async def client_session(server, rng, graph, order_pool, results):
    """One closed-loop client: ETA rows to the shared order pool, plus
    point checks between hot nodes — awaiting each answer first.  Each
    answer is recorded with the direct engine call it must equal."""
    index = server.engine
    for _ in range(ROUNDS):
        if rng.random() < 0.7:
            driver = rng.randrange(graph.n)
            etas = await server.one_to_many(driver, order_pool)
            results.append((index.one_to_many, (driver, order_pool), etas))
        else:
            # Hot station pairs: the skewed point traffic the cache absorbs.
            a, b = rng.randrange(16), rng.randrange(16)
            results.append((index.distance, (a, b), await server.distance(a, b)))


async def main_async() -> None:
    graph = towns_and_highways(6, seed=7)
    index = HubLabelIndex(graph)
    rng = random.Random(11)
    order_pool = tuple(rng.randrange(graph.n) for _ in range(30))
    print(f"network: {graph.n} nodes; {CLIENTS} clients x {ROUNDS} requests\n")

    async with Server(index, cache=DistanceCache(4096)) as server:
        results = []
        t0 = time.perf_counter()
        await asyncio.gather(
            *(
                client_session(server, random.Random(i), graph, order_pool, results)
                for i in range(CLIENTS)
            )
        )
        elapsed = time.perf_counter() - t0
        assert all(call(*args) == served for call, args, served in results), (
            "a served answer differs from the direct engine call"
        )
        stats = server.stats()
        planner = stats["planner"]
        print(
            f"served {stats['completed']} requests in {elapsed * 1e3:.1f} ms "
            f"({stats['completed'] / elapsed:,.0f} req/s)"
        )
        print(
            f"coalescing: {stats['batches']} batches, mean size "
            f"{stats['mean_batch_size']:.0f}, largest {stats['largest_batch']}"
        )
        print(
            f"kernel routing: {planner['kernel_distance_table']} table calls "
            f"absorbed {planner['merged_one_to_many']} ETA rows; "
            f"{planner['kernel_distance']} direct + "
            f"{planner['coalesced_point_queries']} coalesced point queries"
        )
        print(f"cache: {planner['cache']['hit_rate']:.0%} hit rate")
        print(f"verified: all {len(results)} served answers == direct engine calls\n")

        # --- deadlines: queued work past its deadline is shed, not run ---
        try:
            await server.distance(0, graph.n - 1, timeout=0.0)
        except DeadlineExpired as exc:
            print(f"deadline demo: {type(exc).__name__}: {exc}")

    # --- backpressure: a tiny queue with overflow="reject" sheds load ---
    async with Server(index, max_queue=8, overflow="reject") as tiny:
        submitted = rejected = 0
        async def burst(i):
            nonlocal submitted, rejected
            try:
                await tiny.distance(i % graph.n, (i * 7) % graph.n)
                submitted += 1
            except ServerOverloaded:
                rejected += 1
        await asyncio.gather(*(burst(i) for i in range(64)))
        print(
            f"backpressure demo: queue bound 8 -> {submitted} served, "
            f"{rejected} rejected with ServerOverloaded"
        )


def main() -> None:
    asyncio.run(main_async())


if __name__ == "__main__":
    main()

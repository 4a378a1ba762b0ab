"""Surviving a scripted outage: the PR 8 resilience layer end to end.

Run with::

    python examples/faults_demo.py

The worker tier promises two things under failure: every answered
request is **bit-identical** to the direct planner, and every
unanswerable one fails **typed** — never a hang, never a wrong answer.
This demo drives one serving loop through a scripted outage and shows
each defense earning its keep:

1. a :class:`repro.serve.FaultPlan` scripts the outage — a worker is
   killed mid-batch, another stalls (stuck-but-alive), a third reply
   is corrupted after its CRC was computed — deterministically, by
   (dispatch, slot), so the same run replays byte-for-byte;
2. the pool heals every one of them (watchdog -> respawn -> retry with
   backoff; CRC-verified reply lanes) while a parity check against the
   direct :class:`~repro.baselines.base.QueryPlanner` runs on every
   answer;
3. hedged re-dispatch races an idle replica against a straggler —
   first answer wins, the loser is drained later and bit-compared;
4. a tripped-open :class:`~repro.serve.CircuitBreaker` quarantines
   every slot and the pool degrades to its in-dispatcher planner
   fallback — slower, never wrong — then recovers via half-open
   probes;
5. a torn bundle file is refused up front with a typed
   :class:`~repro.core.serialize.BundleCorrupted` naming the damaged
   section, instead of booting a worker on garbage.

Every pool boots from one bundle file saved to a temporary directory.
"""

import os
import tempfile
import time

from repro.baselines import HubLabelIndex
from repro.baselines.base import QueryPlanner
from repro.core.serialize import BundleCorrupted, load_bundle, save_bundle
from repro.datasets import towns_and_highways
from repro.serve import CircuitBreaker, DistanceRequest, FaultPlan, WorkerPool
from repro.serve import faults

WORKERS = 2


def main() -> None:
    graph = towns_and_highways(6, seed=7)
    index = HubLabelIndex(graph)
    with tempfile.TemporaryDirectory() as tmp:
        bundle = os.path.join(tmp, "demo.bundle")
        save_bundle(index, bundle)
        outage_tour(graph, index, bundle)


def outage_tour(graph, index, bundle: str) -> None:
    planner = QueryPlanner(index)
    reqs = [DistanceRequest(i, graph.n - 1 - i) for i in range(24)]
    want = planner.execute(reqs)
    print(f"network: {graph.n} nodes / {graph.m} edges; bundle: "
          f"{os.path.getsize(bundle)} bytes (CRC trailer included)")

    print("\n[1] script the outage: kill, stall, corrupt — by (dispatch, slot)")
    plan = FaultPlan.scripted({
        (0, 0): faults.kill(),        # dies mid-batch
        (1, 1): faults.stall(0.6),    # stuck-but-alive: only a watchdog sees it
        (2, 0): faults.corrupt(),     # reply byte flipped after CRC
    })
    print(f"   {len(plan)} faults scheduled; same schedule every run")

    print("\n[2] the pool heals all three; every answer parity-checked")
    pool = WorkerPool(bundle, workers=WORKERS, recv_timeout_s=0.25,
                      fault_plan=plan)
    try:
        for dispatch in range(3):
            t0 = time.perf_counter()
            got = pool.execute(reqs)
            ms = (time.perf_counter() - t0) * 1e3
            assert got == want, "answers diverged from the direct planner?!"
            print(f"   dispatch {dispatch}: bit-identical answers in {ms:.1f}ms")
        res = pool.stats()["resilience"]
        print(f"   injected={plan.injected}  watchdog timeouts="
              f"{res['watchdog_timeouts']}  retries={res['retry']['attempts']}  "
              f"reply CRC failures={pool.stats()['reply_path']['crc_failures']}")
    finally:
        pool.close()

    print("\n[3] hedging: race an idle replica against a straggler")
    plan = FaultPlan.scripted({(0, 1): faults.stall(0.5)})
    pool = WorkerPool(bundle, workers=WORKERS, hedge_after_s=0.05,
                      hedge_grace_s=5.0, fault_plan=plan)
    try:
        t0 = time.perf_counter()
        got = pool.execute(reqs)
        ms = (time.perf_counter() - t0) * 1e3
        assert got == want
        print(f"   answered in {ms:.1f}ms despite a 500ms straggler "
              "(first answer wins)")
        time.sleep(0.6)               # let the loser finish, inside the grace
        pool.execute(reqs)            # the sweep drains + bit-compares it
        h = pool.stats()["resilience"]["hedge"]
        print(f"   hedges={h['hedges']}  wins={h['wins']}  "
              f"duplicate parity checks={h['parity_checks']}  "
              f"mismatches={h['mismatches']}")
    finally:
        pool.close()

    print("\n[4] breaker open everywhere: degraded planner fallback, then recovery")
    breaker = CircuitBreaker(WORKERS, threshold=1, cooldown_s=0.5)
    pool = WorkerPool(bundle, workers=WORKERS, breaker=breaker)
    try:
        for slot in range(WORKERS):
            breaker.record_failure(slot)   # trip every slot open
        assert pool.execute(reqs) == want  # served by the fallback planner
        fb = pool.stats()["resilience"]["breaker"]["fallback_batches"]
        print(f"   all slots quarantined -> {fb} batch(es) answered by the "
              "in-dispatcher planner, still bit-identical")
        time.sleep(0.6)                    # cooldown -> half-open probes
        assert pool.execute(reqs) == want
        states = [s["state"] for s in
                  pool.stats()["resilience"]["breaker"]["per_slot"]]
        print(f"   after cooldown + successful probes: breaker states={states}")
    finally:
        pool.close()

    print("\n[5] a torn bundle is refused, typed, before any worker boots")
    torn = faults.flipped_copy(bundle, bundle + ".torn")
    try:
        load_bundle(torn)
        raise SystemExit("torn bundle loaded?!")
    except BundleCorrupted as exc:
        print(f"   BundleCorrupted: section={exc.section!r}: {exc.detail}")
    print("   (the pristine bundle still loads and answers identically)")
    _, engine = load_bundle(bundle)
    assert QueryPlanner(engine).execute(reqs) == want
    print("\nevery fault detected, typed, healed — zero wrong answers")


if __name__ == "__main__":
    main()

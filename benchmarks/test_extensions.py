"""Benchmarks for the §7 future-work extensions and the TNR baseline.

Covers the repository's additions beyond the paper's evaluation:
customization speed vs full rebuild, serialized index size, and Transit
Node Routing's table-lookup queries.
"""

import time

import pytest

from repro.core import index_bytes, load_bundle
from repro.core.serialize import bundle_bytes
from repro.graph import GraphBuilder

from conftest import get_engine, get_graph, long_range_pairs

DATASET = "DE"


def _reweighted(graph, factor):
    b = GraphBuilder()
    for u in graph.nodes():
        b.add_node(*graph.coord(u))
    for u, v, w in graph.edges():
        b.add_edge(u, v, w * factor)
    return b.build()


def test_customization_speed(benchmark):
    """with_weights re-runs only contraction; must be >=10x faster than
    the recorded full build."""
    base = get_engine("AH", DATASET)
    jam = _reweighted(get_graph(DATASET), 1.8)
    result = benchmark.pedantic(lambda: base.with_weights(jam), rounds=3, iterations=1)
    assert result.build_times["customization"] * 10 < max(
        0.5, base.build_time()
    )


def test_serialization_roundtrip_speed(benchmark):
    engine = get_engine("AH", DATASET)

    def roundtrip():
        return load_bundle(bundle_bytes(engine))[1]

    loaded = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
    s, t = long_range_pairs(DATASET)[0]
    assert loaded.distance(s, t) == pytest.approx(engine.distance(s, t))


def test_serialized_size_compact():
    """The binary format beats 64 bytes/entry — a realistic Figure-10a
    unit for the paper's 'memory footprint' future-work concern."""
    engine = get_engine("AH", DATASET)
    size = index_bytes(engine)
    assert size / max(1, engine.index_size()) < 64


def test_tnr_distance_queries(benchmark):
    """TNR's far queries are pure table lookups — the fastest regime of
    any engine here (matching Bast et al.'s 'ultrafast' claim)."""
    engine = get_engine("TNR", DATASET)
    pairs = [p for p in long_range_pairs(DATASET) if not engine.is_local(*p)]
    assert pairs, "locality filter never engaged"
    benchmark.group = "extensions-tnr"

    def run():
        total = 0.0
        for s, t in pairs:
            total += engine.distance(s, t)
        return total

    benchmark(run)


def test_tnr_beats_dijkstra_far():
    tnr = get_engine("TNR", DATASET)
    dij = get_engine("Dijkstra", DATASET)
    pairs = [p for p in long_range_pairs(DATASET) if not tnr.is_local(*p)]
    if not pairs:
        pytest.skip("no non-local pairs at this scale")

    def mean_us(engine):
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for s, t in pairs:
                engine.distance(s, t)
            best = min(best, time.perf_counter() - t0)
        return best / len(pairs) * 1e6

    assert mean_us(tnr) < mean_us(dij)

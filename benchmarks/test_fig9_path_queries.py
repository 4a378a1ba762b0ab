"""Figure 9 — shortest path query latency per engine and regime.

Beyond the Figure-8 comparisons, Figure 9's distinguishing observations
are encoded as assertions:

* AH and CH pay a strictly higher cost for path queries than distance
  queries (they unpack shortcuts afterwards);
* SILC and Dijkstra cost the same for both kinds (they materialise the
  path anyway) — Section 6.3's explanation.
"""

import time
from statistics import median

import pytest

from conftest import BENCH_DATASETS, get_engine, long_range_pairs

ENGINES = ("Dijkstra", "SILC", "CH", "AH")


def _path_batch(engine, pairs):
    shortest_path = engine.shortest_path
    def run():
        hops = 0
        for s, t in pairs:
            p = shortest_path(s, t)
            if p is not None:
                hops += p.hop_count
        return hops
    return run


@pytest.mark.parametrize("dataset_name", BENCH_DATASETS)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_fig9_long_range_paths(benchmark, engine_name, dataset_name):
    engine = get_engine(engine_name, dataset_name)
    pairs = long_range_pairs(dataset_name)
    benchmark.group = f"fig9-long-{dataset_name}"
    benchmark(_path_batch(engine, pairs))


def _paired_us(first, second, pairs, rounds=15, min_sample_s=0.02):
    """Per-query µs of ``first`` and of ``second`` over ``pairs``.

    Each side's figure is its median over ``rounds`` interleaved rounds,
    and the side that runs first alternates, so a host speed change
    between passes moves both sides alike.  Every timed sample cycles
    the batch for at least ``min_sample_s``, several scheduler time
    slices, so a co-runner sharing the core cannot land on one side's
    samples only.
    """
    fns = (first, second)
    inner = []
    for fn in fns:
        t0 = time.perf_counter()
        for s, t in pairs:
            fn(s, t)
        once = time.perf_counter() - t0
        inner.append(int(min_sample_s / max(once, 1e-9)) + 1)
    samples = ([], [])
    for r in range(rounds):
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            fn, reps = fns[side], inner[side]
            t0 = time.perf_counter()
            for _ in range(reps):
                for s, t in pairs:
                    fn(s, t)
            samples[side].append((time.perf_counter() - t0) / reps)
    return tuple(median(side) / len(pairs) * 1e6 for side in samples)


@pytest.mark.parametrize("dataset_name", BENCH_DATASETS)
@pytest.mark.parametrize("engine_name", ("CH", "AH"))
def test_fig9_shape_paths_cost_more_than_distances(engine_name, dataset_name):
    """§6.3: hierarchical engines answer a distance query first, then
    unpack — so path queries are strictly slower."""
    engine = get_engine(engine_name, dataset_name)
    pairs = long_range_pairs(dataset_name)
    d, p = _paired_us(engine.distance, engine.shortest_path, pairs)
    assert p > d


@pytest.mark.parametrize("dataset_name", BENCH_DATASETS)
def test_fig9_shape_silc_distance_equals_path(dataset_name):
    """§6.3: SILC computes the path either way; costs are ~identical."""
    engine = get_engine("SILC", dataset_name)
    pairs = long_range_pairs(dataset_name)
    d, p = _paired_us(engine.distance, engine.shortest_path, pairs)
    assert p <= d * 2.0  # same asymptotics, small constant for Path objects


@pytest.mark.parametrize("dataset_name", BENCH_DATASETS)
def test_fig9_shape_ah_beats_dijkstra(dataset_name):
    engine = get_engine("AH", dataset_name)
    dij = get_engine("Dijkstra", dataset_name)
    pairs = long_range_pairs(dataset_name)
    ah, dijkstra = _paired_us(engine.shortest_path, dij.shortest_path, pairs)
    assert ah < dijkstra

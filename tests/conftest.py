"""Shared fixtures: small deterministic networks and prebuilt indexes.

Index construction (especially AH's level assignment) is the expensive
part of the suite, so every index that more than one test consumes is
session-scoped.  All graphs are small enough that ground-truth Dijkstra
stays instantaneous.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.baselines import CHEngine
from repro.core import AHIndex, FCIndex
from repro.datasets import grid_city, paper_figure1, random_geometric, towns_and_highways
from repro.graph.traversal import distance_query


@pytest.fixture(scope="session")
def towns_graph():
    """Five small towns joined by highways (~180 nodes)."""
    return towns_and_highways(5, seed=9)


@pytest.fixture(scope="session")
def city_graph():
    """A 12x12 grid city with arterials (~144 nodes)."""
    return grid_city(12, 12, seed=6)


@pytest.fixture(scope="session")
def oneway_graph():
    """A grid city with one-way streets (directed asymmetry)."""
    return grid_city(10, 10, oneway=0.3, prune=0.2, seed=11)


@pytest.fixture(scope="session")
def rgg_graph():
    """A random geometric graph — not road-like; robustness testing."""
    return random_geometric(150, k=3, seed=13)


@pytest.fixture(scope="session")
def paper_graph():
    """The 11-node running example of Figures 1/2/4."""
    return paper_figure1()


@pytest.fixture(scope="session")
def towns_ah(towns_graph):
    """Default AH index on the towns network."""
    return AHIndex(towns_graph)


@pytest.fixture(scope="session")
def towns_ah_elevating(towns_graph):
    """AH with elevating edges enabled."""
    return AHIndex(towns_graph, elevating=True)


@pytest.fixture(scope="session")
def towns_ch(towns_graph):
    """CH baseline on the towns network."""
    return CHEngine(towns_graph)


@pytest.fixture(scope="session")
def towns_fc(towns_graph):
    """FC index on the towns network."""
    return FCIndex(towns_graph)


@pytest.fixture(scope="session")
def city_ah(city_graph):
    """Default AH index on the grid city."""
    return AHIndex(city_graph)


@pytest.fixture(scope="module")
def bundle_path(blob, tmp_path_factory):
    """The requesting module's ``blob`` fixture saved as a bundle file:
    the path its worker pools boot from."""
    path = tmp_path_factory.mktemp("bundle") / "hl.bundle"
    path.write_bytes(blob)
    return str(path)


def recrc(data):
    """Bundle bytes ``data`` with every trailer CRC recomputed over its
    section, so a deliberate edit reaches the decoder's own checks."""
    from repro.core import serialize

    tail = bytes(data[-serialize._TRAILER_TAIL :])
    count, tstart = serialize._parse_trailer_tail(tail, len(data))
    entry = serialize._TRAILER_ENTRY
    for i in range(count):
        at = tstart + entry.size * i
        offset, length, _ = entry.unpack_from(data, at)
        crc = zlib.crc32(data[offset : offset + length])
        entry.pack_into(data, at, offset, length, crc)
    return bytes(data)


def random_pairs(graph, count, seed=0):
    """Deterministic random (s, t) pairs over a graph."""
    rng = random.Random(seed)
    return [(rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(count)]


def assert_engine_matches_dijkstra(engine, graph, pairs, check_paths=True):
    """Shared correctness oracle used across the engine test modules."""
    for s, t in pairs:
        want = distance_query(graph, s, t)
        got = engine.distance(s, t)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (
            f"{engine.name}: distance({s}, {t}) = {got}, Dijkstra says {want}"
        )
    if check_paths:
        for s, t in pairs[: max(5, len(pairs) // 4)]:
            want = distance_query(graph, s, t)
            path = engine.shortest_path(s, t)
            if want == float("inf"):
                assert path is None
                continue
            assert path is not None
            path.validate(graph)
            assert path.length == pytest.approx(want, rel=1e-9, abs=1e-9)

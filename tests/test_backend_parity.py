"""Backend parity: every tier must answer identically.

The fallback's contract (ISSUE 3) is that the backend never changes
answers — only containers and inner-loop engines differ.  The hypothesis
property drives every engine in ``ENGINE_FACTORIES`` over random
perturbed graphs, building and querying each engine once per container
layer (numpy and stdlib arrays), and demands *bit-identical* distances
and identical path node sequences (both execute the same float additions
in the same order, so exact equality is the honest assertion, not an
approximation).  The hub-label kernels come in two versions, native C
and the pure-python scans; the kernel properties hold the first to the
second.

A deterministic companion pins the serialize guarantee: bundles written
under either container layer are byte-for-byte identical.
"""

import io
import random

import pytest

from repro import backend

if not backend.HAS_NUMPY:  # parity needs both container layers in one process
    pytest.skip(
        "numpy unavailable: single-backend build, nothing to compare",
        allow_module_level=True,
    )

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import HubLabelIndex
from repro.bench.harness import ENGINE_FACTORIES
from repro.core import perturb_weights
from repro.core.serialize import load_bundle, save_bundle
from repro.datasets import grid_city
from repro.graph.builder import GraphBuilder

INF = float("inf")

#: Engines cheap enough to rebuild dozens of times under hypothesis.
#: Every factory in ENGINE_FACTORIES is exercised — the slow builders
#: (SILC, FC, AH) just run on the smallest grids only.
_FAST = ("Dijkstra", "BiDijkstra", "A*", "ALT", "CH", "HL", "TNR")
_SLOW = ("SILC", "FC", "AH")
assert set(_FAST) | set(_SLOW) == set(ENGINE_FACTORIES)


def _graph_spec(rows, cols, seed):
    """A random perturbed road network, as a backend-neutral edge list."""
    base = grid_city(rows, cols, seed=seed)
    perturbed = perturb_weights(base, seed=seed, strict=False).graph
    return (
        list(perturbed.xs),
        list(perturbed.ys),
        list(perturbed.edges()),
    )


def _build(spec, backend_name):
    """Rebuild the spec'd graph with storage of the given backend."""
    xs, ys, edges = spec
    with backend.forced(backend_name):
        b = GraphBuilder()
        for x, y in zip(xs, ys):
            b.add_node(x, y)
        for u, v, w in edges:
            b.add_edge(u, v, w)
        return b.build()


def _pairs(n, seed, count=12):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def _engine_answers(name, graph, pairs, backend_name):
    """Distances + path node sequences, computed under one backend."""
    with backend.forced(backend_name):
        engine = ENGINE_FACTORIES[name](graph)
        distances = [engine.distance(s, t) for s, t in pairs]
        paths = []
        for s, t in pairs:
            p = engine.shortest_path(s, t)
            paths.append(None if p is None else (tuple(p.nodes), p.length))
        return distances, paths


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=st.integers(2, 4),
    cols=st.integers(2, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_fast_engines_identical_across_backends(rows, cols, seed):
    spec = _graph_spec(rows, cols, seed)
    g_pure = _build(spec, "pure")
    g_np = _build(spec, "numpy")
    pairs = _pairs(len(spec[0]), seed)
    for name in _FAST:
        d_pure, p_pure = _engine_answers(name, g_pure, pairs, "pure")
        d_np, p_np = _engine_answers(name, g_np, pairs, "numpy")
        assert d_pure == d_np, f"{name}: distances diverge between backends"
        assert p_pure == p_np, f"{name}: paths diverge between backends"


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**31 - 1))
def test_slow_engines_identical_across_backends(seed):
    spec = _graph_spec(3, 3, seed)
    g_pure = _build(spec, "pure")
    g_np = _build(spec, "numpy")
    pairs = _pairs(len(spec[0]), seed)
    for name in _SLOW:
        d_pure, p_pure = _engine_answers(name, g_pure, pairs, "pure")
        d_np, p_np = _engine_answers(name, g_np, pairs, "numpy")
        assert d_pure == d_np, f"{name}: distances diverge between backends"
        assert p_pure == p_np, f"{name}: paths diverge between backends"


@pytest.mark.skipif(not backend.HAS_NATIVE, reason="native tier not loaded")
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=st.integers(2, 5),
    cols=st.integers(2, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_hl_batched_kernels_match_pure_scan(rows, cols, seed):
    """The native batch kernels against the pure scans on one index."""
    spec = _graph_spec(rows, cols, seed)
    graph = _build(spec, "numpy")
    with backend.forced("numpy"):
        hl = HubLabelIndex(graph)
    rng = random.Random(seed)
    n = graph.n
    sources = [rng.randrange(n) for _ in range(9)]
    targets = [rng.randrange(n) for _ in range(7)] + [sources[0]]
    with backend.forced("native"):
        fast_o2m = hl.one_to_many(sources[0], targets)
        fast_table = hl.distance_table(sources, targets)
    pure_o2m = hl._one_to_many_pure(sources[0], targets)
    pure_table = hl._distance_table_pure(sources, targets)
    assert fast_o2m == pure_o2m
    assert fast_table == pure_table


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**31 - 1))
def test_bundles_byte_identical_across_backends(seed):
    """serialize's backend-invariance guarantee, property-tested.

    HL2 bundles must hold the same bytes no matter which backend built
    the index — the varint/delta encoders run the same pure loops either
    way.
    """
    spec = _graph_spec(3, 4, seed)
    blobs = {}
    for name in ("pure", "numpy"):
        graph = _build(spec, name)
        with backend.forced(name):
            hl = HubLabelIndex(graph)
            buf = io.BytesIO()
            save_bundle(hl, buf)
            blobs[name] = buf.getvalue()
    assert blobs["pure"] == blobs["numpy"]

#: HL kernel versions available in this process, fastest first.
_TIERS = (["native"] if backend.HAS_NATIVE else []) + ["pure"]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=st.integers(2, 4),
    cols=st.integers(2, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_hl_kernels_identical_across_all_tiers_and_domains(rows, cols, seed):
    """The kernel contract: native answers bit-identically to pure.

    All three HL hot kernels (distance, one_to_many, distance_table) are
    driven natively and as the pure scans, on a freshly built index AND
    on one decoded from its HL2 bundle — the same column layout reached
    by two provenances.  Exact ``==`` on floats is the honest assertion:
    both perform the same two-term float64 additions and
    order-independent mins, so any difference is a kernel bug, not
    rounding.
    """
    spec = _graph_spec(rows, cols, seed)
    graph = _build(spec, "numpy")
    with backend.forced("numpy"):
        hl_built = HubLabelIndex(graph)
        buf = io.BytesIO()
        save_bundle(hl_built, buf)
        buf.seek(0)
        _, hl_loaded = load_bundle(buf)
    rng = random.Random(seed)
    n = graph.n
    pairs = _pairs(n, seed, count=8)
    sources = [rng.randrange(n) for _ in range(6)]
    targets = [rng.randrange(n) for _ in range(5)] + [sources[0]]
    for hl, provenance in ((hl_built, "built"), (hl_loaded, "loaded")):
        answers = {}
        for tier in _TIERS:
            with backend.forced(tier):
                answers[tier] = (
                    [hl.distance(s, t) for s, t in pairs],
                    hl.one_to_many(sources[0], targets),
                    hl.distance_table(sources, targets),
                )
        baseline = answers[_TIERS[-1]]  # pure: the reference scans
        for tier in _TIERS[:-1]:
            assert answers[tier] == baseline, (
                f"{tier} diverges from pure on the {provenance} index"
            )

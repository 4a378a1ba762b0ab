"""Tier parity: the native tier must answer exactly as the pure one.

The tier never changes answers — only the inner-loop engine differs.
The hypothesis properties drive every engine in ``ENGINE_FACTORIES``
over random perturbed graphs, building and querying each engine once
per tier (so AH's native query and the native region search of AH's and
FC's level assignment run against their pure loops), and demand
*bit-identical* distances and identical path node sequences (both
execute the same float additions in the same order, so exact equality
is the honest assertion, not an approximation).  The hub-label kernel
properties hold the native C kernels to the pure-python scans.

A companion property pins the serialize guarantee: AH and HL bundles
built on either tier are byte-for-byte identical.

Without the extension only the pure side runs: every property still
builds, queries and serializes, with nothing to compare against.
"""

import io
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import backend
from repro.baselines import HubLabelIndex
from repro.bench.harness import ENGINE_FACTORIES
from repro.core import AHIndex, perturb_weights
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

#: Tiers available in this process; pure last, as the reference.
_TIERS = (["native"] if backend.HAS_NATIVE else []) + ["pure"]


def _graph_spec(rows, cols, seed):
    """A random perturbed road network, as a backend-neutral edge list."""
    base = grid_city(rows, cols, seed=seed)
    perturbed = perturb_weights(base, seed=seed, strict=False).graph
    return (
        list(perturbed.xs),
        list(perturbed.ys),
        list(perturbed.edges()),
    )


def _build(spec, tier):
    """Rebuild the spec'd graph under the given tier."""
    xs, ys, edges = spec
    with backend.forced(tier):
        b = GraphBuilder()
        for x, y in zip(xs, ys):
            b.add_node(x, y)
        for u, v, w in edges:
            b.add_edge(u, v, w)
        return b.build()


def _pairs(n, seed, count=12):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def _engine_answers(name, graph, pairs, tier):
    """Distances + path node sequences, built and computed under one tier."""
    with backend.forced(tier):
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
    _assert_engines_identical(_FAST, _graph_spec(rows, cols, seed), seed)


def _assert_engines_identical(names, spec, seed):
    """Every named engine, built and queried per tier, answers as pure."""
    graphs = {tier: _build(spec, tier) for tier in _TIERS}
    pairs = _pairs(len(spec[0]), seed)
    for name in names:
        answers = {
            tier: _engine_answers(name, graphs[tier], pairs, tier)
            for tier in _TIERS
        }
        d_pure, p_pure = answers["pure"]
        for tier, (d, p) in answers.items():
            assert d == d_pure, f"{name}: distances diverge on {tier}"
            assert p == p_pure, f"{name}: paths diverge on {tier}"


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**31 - 1))
def test_slow_engines_identical_across_backends(seed):
    _assert_engines_identical(_SLOW, _graph_spec(3, 3, seed), seed)


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
    """Each tier's batch kernels against the pure scans on one index."""
    graph = _build(_graph_spec(rows, cols, seed), "pure")
    hl = HubLabelIndex(graph)
    rng = random.Random(seed)
    n = graph.n
    sources = [rng.randrange(n) for _ in range(9)]
    targets = [rng.randrange(n) for _ in range(7)] + [sources[0]]
    pure_o2m = hl._one_to_many_pure(sources[0], targets)
    pure_table = hl._distance_table_pure(sources, targets)
    for tier in _TIERS:
        with backend.forced(tier):
            assert hl.one_to_many(sources[0], targets) == pure_o2m, tier
            assert hl.distance_table(sources, targets) == pure_table, tier


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**31 - 1))
def test_bundles_byte_identical_across_backends(seed):
    """serialize's tier-invariance guarantee, property-tested.

    AH and HL2 bundles must hold the same bytes whichever tier built the
    index: AH's levels come from the native or the pure region search,
    and the varint/delta encoders run the same pure loops either way.
    """
    spec = _graph_spec(3, 4, seed)
    blobs = {}
    for tier in _TIERS:
        graph = _build(spec, tier)
        with backend.forced(tier):
            for index in (HubLabelIndex(graph), AHIndex(graph, elevating=True)):
                buf = io.BytesIO()
                save_bundle(index, buf)
                blobs.setdefault(type(index).__name__, {})[tier] = buf.getvalue()
    for name, by_tier in blobs.items():
        assert len(set(by_tier.values())) == 1, f"{name} bundles differ by tier"


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
    graph = _build(_graph_spec(rows, cols, seed), "pure")
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

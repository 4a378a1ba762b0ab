"""repro.native — facade surface, table kernels, region search, AH query, on-import build and degradation.

Six groups:

* **Facade** (skipped when no extension is loaded): the compiled module
  is identified (version, path, content hash), selected as the default
  tier, and reported through ``backend.describe()``.
* **Split table kernels** (skipped when no extension is loaded):
  ``table_inversion`` and the ``distance_table`` join reject malformed
  columns, ids and sequences typed, and the join refuses anything but a
  handle built for its own node count.
* **Region search** (skipped when no extension is loaded):
  ``native.local_search`` returns exactly (``==``) what the pure
  ``_local_search`` returns on random region graphs, and malformed rows,
  seeds and ``expand`` flags fail typed.
* **AH query** (skipped when no extension is loaded):
  ``native.ah_query`` returns exactly (``==``) the distance of the pure
  ``AHIndex._query`` loop and, for a path, the node tuple that
  ``unpack_shortcuts`` makes of its packed path, on built, bundle-loaded
  and customized random indexes, tied weights included.
  ``AHIndex.distance`` and ``shortest_path`` each make one call to it,
  and malformed tables, malformed rows that only the unpacking reads
  and middles that form a cycle fail typed.
* **On-import build** (subprocesses over a fresh copy of the package
  under ``tmp_path``): the first import compiles ``_hubjoin.c`` into
  ``__pycache__/<source hash>/`` and removes the builds of other source
  revisions, a second import loads it without running a compiler, and
  without a compiler the import warns once and answers exactly as the
  native kernels do — hub-label queries and an elevating AH index's
  levels and answers alike.
* **Degradation** (always runs, via subprocesses): ``REPRO_NATIVE=0``
  disables the extension at import time, so a child interpreter is the
  honest way to exercise "requested native, extension not loaded" —
  exactly one RuntimeWarning, fall back to pure, answers identical.
"""

import datetime
import hashlib
import json
import os
import py_compile
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from array import array
from pathlib import Path
from textwrap import dedent

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import backend, native
from repro.baselines.ch import unpack_shortcuts
from repro.core import AHIndex
from repro.core import ah as ah_module
from repro.core.arterial import _local_search
from repro.core.serialize import bundle_bytes, load_bundle
from repro.datasets import towns_and_highways
from repro.graph import GraphBuilder

REPO_ROOT = Path(__file__).resolve().parents[1]

needs_native = pytest.mark.skipif(
    not backend.HAS_NATIVE, reason="C extension not built"
)


def _run(code, **env):
    """Run *code* in a child interpreter with extra env, return the proc."""
    full_env = dict(os.environ)
    full_env.pop("REPRO_BACKEND", None)
    full_env.pop("REPRO_NATIVE", None)
    full_env["PYTHONPATH"] = str(REPO_ROOT / "src")
    full_env.update(env)
    return subprocess.run(
        [sys.executable, "-c", dedent(code)],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=str(REPO_ROOT),
        timeout=120,
    )


# ----------------------------------------------------------------------
# Facade surface (extension present)
# ----------------------------------------------------------------------
@needs_native
class TestFacade:
    def test_extension_identified(self):
        assert native.available()
        assert native.version() == "5"
        path = native.extension_path()
        assert path and path.endswith(".so")
        digest = native.extension_hash()
        assert len(digest) == 12
        int(digest, 16)  # hex

    def test_native_is_default_tier(self):
        # No REPRO_BACKEND in the test env -> auto-order picks native.
        if "REPRO_BACKEND" not in os.environ:
            assert backend.active() == backend.NATIVE

    def test_describe_carries_native_fields(self):
        with backend.forced("native"):
            desc = backend.describe()
        assert desc["tier"] == "native"
        assert desc["native_available"] is True
        assert desc["native_version"] == "5"
        assert desc["native_hash"] == native.extension_hash()
        assert desc["backend"].startswith("native (kernels v5")

    def test_native_stacks_on_container_layer(self):
        # One container under both tiers: a graph built under native
        # holds the same stdlib arrays as one built under pure.
        from repro.datasets import grid_city

        with backend.forced("native"):
            assert backend.use_native()
            graph = grid_city(3, 3, seed=1)
        with backend.forced("pure"):
            assert not backend.use_native()
            assert grid_city(3, 3, seed=1).out_head == graph.out_head
        assert graph.out_head.typecode == "q" and graph.out_w.typecode == "d"

    def test_kernel_wrappers_match_pure_scans(self):
        from repro.baselines import HubLabelIndex
        from repro.datasets import grid_city

        graph = grid_city(4, 4, seed=3)
        with backend.forced("pure"):
            hl = HubLabelIndex(graph)
        targets = [0, 5, 9, 15]
        want_o2m = hl._one_to_many_pure(2, targets)
        want_tab = hl._distance_table_pure([1, 7], targets)
        cols = (
            hl.fwd_head, hl.fwd_hub, hl.fwd_dist,
            hl.bwd_head, hl.bwd_hub, hl.bwd_dist,
        )
        with backend.forced("pure"):
            want_dist = hl.distance(2, 9)
        assert float(native.distance(*cols, 2, 9)) == want_dist
        assert list(native.one_to_many(*cols, graph.n, 2, targets)) == want_o2m
        handle = native.table_inversion(*cols[3:], graph.n, targets)
        for _ in range(2):  # a handle serves any number of joins
            got = native.distance_table(*cols[:3], graph.n, [1, 7], handle)
            assert [list(row) for row in got] == want_tab
        assert native.distance_table(*cols[:3], graph.n, [], handle) == []


# ----------------------------------------------------------------------
# Split table kernels (extension present)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_hl():
    from repro.baselines import HubLabelIndex
    from repro.datasets import grid_city

    return HubLabelIndex(grid_city(3, 3, seed=2))


def _table_args(hl, **changes):
    """Fresh copies of the table kernels' arguments, with ``changes``."""
    args = {
        "fhead": array("q", hl.fwd_head),
        "fhub": array("q", hl.fwd_hub),
        "fdist": array("d", hl.fwd_dist),
        "bhead": array("q", hl.bwd_head),
        "bhub": array("q", hl.bwd_hub),
        "bdist": array("d", hl.bwd_dist),
        "n": hl.graph.n,
        "sources": [0, 4],
        "targets": [2, 7],
    }
    for name, change in changes.items():
        args[name] = change(args[name]) if callable(change) else change
    return args


def _invert(a):
    return native.table_inversion(a["bhead"], a["bhub"], a["bdist"], a["n"], a["targets"])


def _join(a, handle):
    return native.distance_table(a["fhead"], a["fhub"], a["fdist"], a["n"], a["sources"], handle)


def _patched(col, at, value):
    col[at] = value
    return col


@needs_native
@pytest.mark.parametrize(
    "changes, error, detail",
    [
        ({"bhead": list}, TypeError, "bytes-like"),
        ({"bhub": lambda c: array("i", c)}, TypeError, "bwd_hub: expected a flat int64"),
        ({"bdist": lambda c: array("f", c)}, TypeError, "bwd_dist: expected a flat float64"),
        ({"bdist": lambda c: c[:-1]}, ValueError, "differ in length"),
        ({"n": 10}, ValueError, "does not match node count"),
        ({"targets": [2, 9]}, IndexError, "target 9 out of range"),
        ({"targets": [-1]}, IndexError, "target -1 out of range"),
        ({"targets": 5}, TypeError, "targets must be a sequence"),
        ({"targets": [1.5]}, TypeError, "integer"),
        ({"bhub": lambda c: _patched(c, 0, 9), "targets": [0]}, ValueError, "corrupt bwd_hub"),
        ({"bhead": lambda c: _patched(c, 3, -1)}, ValueError, "corrupt head column"),
    ],
    ids=[
        "column-not-a-buffer", "hub-not-int64", "dist-not-float64",
        "hub-dist-lengths", "head-length", "target-out-of-range",
        "negative-target", "targets-not-a-sequence", "target-not-an-int",
        "hub-out-of-range", "head-decreasing",
    ],
)
def test_table_inversion_rejects_malformed_input(tiny_hl, changes, error, detail):
    with pytest.raises(error, match=detail):
        _invert(_table_args(tiny_hl, **changes))


@needs_native
@pytest.mark.parametrize(
    "changes, error, detail",
    [
        ({"fhead": list}, TypeError, "bytes-like"),
        ({"fhub": lambda c: array("i", c)}, TypeError, "fwd_hub: expected a flat int64"),
        ({"fdist": lambda c: c[:-1]}, ValueError, "differ in length"),
        ({"fhead": lambda c: c[:-1]}, ValueError, "does not match node count"),
        ({"sources": [0, 9]}, IndexError, "source 9 out of range"),
        ({"sources": [-1]}, IndexError, "source -1 out of range"),
        ({"sources": 5}, TypeError, "sources must be a sequence"),
        ({"sources": ["0"]}, TypeError, "integer"),
        ({"fhead": lambda c: _patched(c, 1, 10**6)}, ValueError, "corrupt head column"),
    ],
    ids=[
        "column-not-a-buffer", "hub-not-int64", "hub-dist-lengths",
        "head-length", "source-out-of-range", "negative-source",
        "sources-not-a-sequence", "source-not-an-int", "head-past-hubs",
    ],
)
def test_distance_table_join_rejects_malformed_input(tiny_hl, changes, error, detail):
    handle = _invert(_table_args(tiny_hl))
    with pytest.raises(error, match=detail):
        _join(_table_args(tiny_hl, **changes), handle)


@needs_native
def test_one_to_many_skips_backward_hubs_outside_the_graph(tiny_hl):
    """A backward hub id outside ``[0, n)`` has no slot in the dense
    source vector: the gather skips it instead of reading far past the
    vector and crashing the interpreter."""
    a = _table_args(tiny_hl)
    want = native.one_to_many(
        a["fhead"], a["fhub"], a["fdist"], a["bhead"], a["bhub"], a["bdist"], a["n"], 0, [2]
    )
    for bad in (10**12, -(10**12), a["n"]):
        bhub = _patched(array("q", tiny_hl.bwd_hub), tiny_hl.bwd_head[2], bad)
        got = native.one_to_many(
            a["fhead"], a["fhub"], a["fdist"], a["bhead"], bhub, a["bdist"], a["n"], 0, [2]
        )
        assert len(got) == 1 and got[0] >= want[0]


@needs_native
def test_join_refuses_a_handle_built_for_another_n(tiny_hl):
    """The join checks the handle's node count in O(1) instead of
    reading runs sized for another graph."""
    from repro.baselines import HubLabelIndex
    from repro.datasets import grid_city

    other = HubLabelIndex(grid_city(4, 4, seed=2))
    handle = _invert(_table_args(other, targets=[2, 15]))
    with pytest.raises(ValueError, match="built for 16 nodes, not 9"):
        _join(_table_args(tiny_hl), handle)


@needs_native
@pytest.mark.parametrize(
    "handle",
    [None, 0, "handle", b"\x00" * 64, [2, 7], object(), datetime.datetime_CAPI],
    ids=["none", "int", "str", "bytes", "list", "object", "foreign-capsule"],
)
def test_join_refuses_anything_but_a_handle(tiny_hl, handle):
    with pytest.raises(TypeError, match="handle must come from table_inversion"):
        _join(_table_args(tiny_hl), handle)


# ----------------------------------------------------------------------
# Region search (extension present)
# ----------------------------------------------------------------------
_WEIGHTS = st.one_of(
    st.just(0.0),
    st.integers(0, 4),
    st.sampled_from([0.25, 0.5, 1.0]),  # sums that tie along different paths
    st.floats(0.0, 10.0, allow_nan=False),
)


@st.composite
def region_searches(draw):
    """``(adj, expand, seeds, free)`` as the level assignment passes them.

    Small graphs with parallel edges and unreachable nodes; any node may
    be a terminal, the free source included.  Half the searches start at
    one free source, the rest at an outside node's several entry edges
    (``free`` is -1, and a seed node may repeat).
    """
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    adj = [[] for _ in range(n)]
    for u, v, w in draw(st.lists(st.tuples(node, node, _WEIGHTS), max_size=4 * n)):
        adj[u].append((v, w))
        if draw(st.booleans()):  # a parallel edge, perhaps of another weight
            adj[u].append((v, draw(_WEIGHTS)))
    expand = bytes(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    if draw(st.booleans()):
        free = draw(node)
        seeds = ((free, 0.0),)
    else:
        free = -1
        seeds = draw(st.lists(st.tuples(node, _WEIGHTS), min_size=1, max_size=4))
    return adj, expand, seeds, free


@needs_native
@settings(max_examples=400, deadline=None)
@given(search=region_searches())
def test_local_search_matches_pure(search):
    with backend.forced("pure"):
        want = _local_search(*search)
    got = native.local_search(*search)
    assert got == want
    assert all(type(d) is float for d in got)
    with backend.forced("native"):
        assert _local_search(*search) == want


@needs_native
@pytest.mark.parametrize(
    "adj, expand, seeds, error, detail",
    [
        ([[(5, 1.0)], []], b"\x01\x01", [(0, 0.0)], IndexError, "out of range"),
        ([[[1, 1.0]], []], b"\x01\x01", [(0, 0.0)], TypeError, "tuples"),
        ([[(1, "1")], []], b"\x01\x01", [(0, 0.0)], TypeError, "float or int"),
        ([[(1, -1.0)], []], b"\x01\x01", [(0, 0.0)], ValueError, "negative"),
        ([None, []], b"\x01\x01", [(0, 0.0)], TypeError, "adj\\[0\\]"),
        ([[(1, 1.0)], []], b"\x01\x01", [(2, 0.0)], IndexError, "out of range"),
        ([[(1, 1.0)], []], b"\x01\x01", [(-1, 0.0)], IndexError, "out of range"),
        ([[(1, 1.0)], []], b"\x01", [(0, 0.0)], ValueError, "1 flags for 2"),
        ([[(1, 1.0)], []], [1, 1], [(0, 0.0)], TypeError, "bytes-like"),
    ],
    ids=[
        "target-out-of-range", "entry-not-a-tuple", "weight-not-a-number",
        "negative-weight", "row-not-a-list", "seed-out-of-range",
        "negative-seed-node", "expand-too-short", "expand-not-bytes",
    ],
)
def test_local_search_rejects_malformed_input(adj, expand, seeds, error, detail):
    with pytest.raises(error, match=detail):
        native.local_search(adj, expand, seeds, 0)


# ----------------------------------------------------------------------
# AH query (extension present)
# ----------------------------------------------------------------------
def _whole_weights(graph):
    """``graph`` with every weight rounded to a few whole units, so many
    sums tie and the ``(d, node)`` heap order decides the search."""
    b = GraphBuilder()
    for u in graph.nodes():
        b.add_node(*graph.coord(u))
    for u, v, w in graph.edges():
        b.add_edge(u, v, float(max(1, round(w / 50.0))))
    return b.build()


def _reweighted(graph, seed):
    """``graph`` with every weight scaled by a random factor, for
    :meth:`AHIndex.with_weights`."""
    rng = random.Random(seed)
    b = GraphBuilder()
    for u in graph.nodes():
        b.add_node(*graph.coord(u))
    for u, v, w in graph.edges():
        b.add_edge(u, v, w * rng.uniform(0.5, 2.0))
    return b.build()


def _pure_answer(index, source, target, want_path):
    """``native.ah_query``'s answer as the pure tier makes it: the
    ``_query`` loop, then ``unpack_shortcuts`` over the ``middle`` dict."""
    with backend.forced("pure"):
        d, packed = index._query(source, target, want_path)
    if packed is None:
        return d, None
    if not want_path:
        return d, ()
    return d, tuple(unpack_shortcuts(index._res.middle, packed))


@needs_native
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    tied=st.booleans(),
    proximity=st.booleans(),
    stall=st.booleans(),
    elevating=st.booleans(),
    kind=st.sampled_from(["built", "loaded", "customized"]),
)
def test_ah_query_matches_pure(seed, tied, proximity, stall, elevating, kind):
    graph = towns_and_highways(3, 4, 4, seed=seed, prune=0.15)
    if tied:
        graph = _whole_weights(graph)
    ah = AHIndex(
        graph, proximity=proximity, stall_on_demand=stall, elevating=elevating
    )
    if kind == "loaded":
        _, ah = load_bundle(bundle_bytes(ah))
    elif kind == "customized":
        ah = ah.with_weights(_reweighted(graph, seed))
    flags = (ah.proximity, ah.stall_on_demand, ah.use_elevating)
    rng = random.Random(seed)
    for _ in range(40):
        s, t = rng.randrange(graph.n), rng.randrange(graph.n)
        for want_path in (False, True):
            got = native.ah_query(ah._tables, s, t, want_path, *flags)
            assert got == _pure_answer(ah, s, t, want_path), (s, t, want_path)
            assert type(got[0]) is float
            assert all(type(v) is int for v in got[1] or ()), got[1]
        with backend.forced("pure"):
            pure = ah.shortest_path(s, t)
        with backend.forced("native"):
            compiled = ah.shortest_path(s, t)
        assert compiled == pure, (s, t)


@needs_native
def test_query_dispatches_to_native(monkeypatch):
    """On the native tier ``distance`` and ``shortest_path`` make one
    ``ah_query`` call each, and the path never passes through the Python
    unpacking."""
    ah = AHIndex(towns_and_highways(3, 4, 4, seed=1, prune=0.15), elevating=True)
    with backend.forced("pure"):
        want_d = ah.distance(0, 47)
        want = ah.shortest_path(0, 47)
        packed = ah._query(0, 47, True)[1]
    assert len(want.nodes) > len(packed)  # the path holds shortcuts
    calls = []
    real = native.ah_query

    def spy(tables, source, target, want_path, *flags):
        calls.append((source, target, want_path))
        return real(tables, source, target, want_path, *flags)

    def unpack_in_python(*args):
        raise AssertionError("the native tier unpacked a path in Python")

    monkeypatch.setattr(native, "ah_query", spy)
    monkeypatch.setattr(ah_module, "unpack_shortcuts", unpack_in_python)
    with backend.forced("native"):
        assert ah.distance(0, 47) == want_d
        assert calls == [(0, 47, False)]
        assert ah.shortest_path(0, 47) == want
    assert calls == [(0, 47, False), (0, 47, True)]


def _tiny_tables(**changes):
    """A valid two-node index, as ``AHIndex._tables`` lays it out: node 0
    (level 0) has one upward edge of weight 1 to node 1 (level 1), and
    the two lie ten finest cells apart, so they separate at level 1,
    where node 0 jumps straight to node 1."""
    tables = {
        "h": 1,
        "up_out": [[(1, 1.0, None)], []],
        "up_in": [[], [(0, 1.0, None)]],
        "levels": [0, 1],
        "cell_x": [0, 0],
        "cell_y": [0, 0],
        "anchor_x": [[0, 0], [10, 0]],
        "anchor_y": [[0, 0], [0, 0]],
        "jumps_f": [None, [[(1, 1.0, (0, 1))], None]],
        "jumps_b": [None, None],
    }
    tables.update(changes)
    return tuple(tables.values())


@needs_native
@pytest.mark.parametrize("elevating", [False, True])
def test_ah_query_tiny_tables(elevating):
    """The table layout the malformed cases below start from is sound."""
    tables = _tiny_tables()
    assert native.ah_query(tables, 0, 1, True, True, False, elevating) == (
        1.0,
        (0, 1),
    )
    assert native.ah_query(tables, 0, 1, False, True, False, elevating) == (
        1.0,
        (),
    )
    assert native.ah_query(tables, 1, 0, True, True, True, elevating) == (
        float("inf"),
        None,
    )
    assert native.ah_query(tables, 1, 1, True, True, False, elevating) == (
        0.0,
        (1,),
    )
    assert native.ah_query(tables, 1, 1, False, True, False, elevating) == (
        0.0,
        (),
    )


def _flat_tables(n, up_out, up_in):
    """Tables for an ``n``-node index on one level, searched without the
    proximity test or jumps."""
    return (
        1, up_out, up_in, [0] * n, [0] * n, [0] * n,
        [[0, 0]] * n, [[0, 0]] * n, [None, None], [None, None],
    )


def _halving_tables(n):
    """Flat tables whose shortcut ``0 -> n-1`` unpacks, by halving each
    hop at its middle, into the line ``0, 1, .., n-1``.  Every hop sits
    in ``up_out`` of its first node."""
    up_out = [[] for _ in range(n)]
    hops = [(0, n - 1)]
    while hops:
        a, b = hops.pop()
        mid = (a + b) // 2 if b - a > 1 else None
        up_out[a].append((b, float(b - a), mid))
        if mid is not None:
            hops += [(a, mid), (mid, b)]
    return _flat_tables(n, up_out, [[] for _ in range(n)])


@needs_native
def test_ah_query_grows_past_its_stack_buffers():
    """Searches that touch hundreds of nodes grow the map, the heap, the
    packed path, the unpack's hop stack and the unpacked path beyond
    their first buffers and still answer."""
    n = 300
    # A star: the source's 299 edges fill the map and the forward heap.
    star = _flat_tables(
        n, [[(v, float(v), None) for v in range(1, n)]] + [[] for _ in range(1, n)],
        [[] for _ in range(n)],
    )
    assert native.ah_query(star, 0, n - 1, True, False, False, False) == (
        float(n - 1),
        (0, n - 1),
    )
    # A chain: the packed path holds all 300 nodes, so the unpack starts
    # with 299 hops on its stack.
    chain = _flat_tables(
        n, [[(u + 1, 1.0, None)] for u in range(n - 1)] + [[]],
        [[] for _ in range(n)],
    )
    assert native.ah_query(chain, 0, n - 1, True, False, False, False) == (
        float(n - 1),
        tuple(range(n)),
    )
    # One shortcut whose middles unpack into all 300 nodes.
    assert native.ah_query(
        _halving_tables(n), 0, n - 1, True, False, False, False
    ) == (float(n - 1), tuple(range(n)))


@needs_native
@pytest.mark.parametrize(
    "changes, source, flags, error, detail",
    [
        ({"up_out": [None, []]}, 0, (), TypeError, "up_out\\[0\\]"),
        ({"up_out": [[(1, 1.0)], []]}, 0, (), TypeError, "tuples"),
        ({"up_out": [[(2, 1.0, None)], []]}, 0, (), IndexError, "out of range"),
        ({"up_out": [[(1, "1", None)], []]}, 0, (), TypeError, "float or int"),
        ({"up_out": [[(1, -1.0, None)], []]}, 0, (), ValueError, "negative"),
        ({"up_out": [[(1, float("nan"), None)], []]}, 0, (), ValueError, "NaN"),
        ({"levels": [0, "1"]}, 0, (), TypeError, "level must be an int"),
        ({"anchor_x": [[0], [10, 0]]}, 0, (), IndexError, "anchor list"),
        ({"up_in": [None, []]}, 0, ("stall",), TypeError, "up_in\\[0\\]"),
        (
            {"jumps_f": [None, [[(1, 1.0, [0, 1])], None]]},
            0, ("elevating",), TypeError, "jump chain",
        ),
        (
            {"jumps_f": [None, [[(1, 1.0, (1, 0))], None]]},
            0, ("elevating",), ValueError, "runs 1 .. 0",
        ),
        ({"levels": [0]}, 0, (), ValueError, "levels holds 1 entries"),
        ({}, -1, (), IndexError, "out of range"),
        ({}, 2, (), IndexError, "out of range"),
    ],
    ids=[
        "row-not-a-list", "entry-not-a-triple", "node-out-of-range",
        "weight-not-a-number", "negative-weight", "nan-weight",
        "level-not-an-int", "short-anchor-list", "stall-row-not-a-list",
        "chain-not-a-tuple", "chain-wrong-ends", "column-too-short",
        "negative-source", "source-out-of-range",
    ],
)
def test_ah_query_rejects_malformed_tables(changes, source, flags, error, detail):
    with pytest.raises(error, match=detail):
        native.ah_query(
            _tiny_tables(**changes), source, 1, True, True,
            "stall" in flags, "elevating" in flags,
        )


def _shortcut_tables(**changes):
    """A valid three-node index on one level: node 1 ranks lowest, and
    the shortcut ``0 -> 2`` in ``up_out[0]`` bypasses it.  The search
    from 0 to 2 reads only ``up_out[0]`` and ``up_in[2]``; unpacking its
    packed path ``[0, 2]`` reads the hop ``(0, 1)`` from ``up_in[1]``
    and the hop ``(1, 2)`` from ``up_out[1]``."""
    rows = {
        "up_out": [[(2, 2.0, 1)], [(2, 1.0, None)], []],
        "up_in": [[], [(0, 1.0, None)], []],
    }
    rows.update(changes)
    return _flat_tables(3, rows["up_out"], rows["up_in"])


@needs_native
def test_ah_query_unpacks_from_both_rows():
    assert native.ah_query(_shortcut_tables(), 0, 2, True, False, False, False) == (
        2.0,
        (0, 1, 2),
    )


@needs_native
@pytest.mark.parametrize(
    "changes, error, detail",
    [
        ({"up_in": [[], [], []]}, ValueError, "hop \\(0, 1\\) is in neither"),
        (
            {"up_out": [[(2, 2.0, 1)], [], []]},
            ValueError, "hop \\(1, 2\\) is in neither",
        ),
        (
            {"up_out": [[(2, 2.0, 7)], [(2, 1.0, None)], []]},
            IndexError, "middle node 7 out of range",
        ),
        (
            {"up_out": [[(2, 2.0, -1)], [(2, 1.0, None)], []]},
            IndexError, "middle node -1 out of range",
        ),
        (
            {"up_out": [[(2, 2.0, 1.0)], [(2, 1.0, None)], []]},
            TypeError, "middle node must be an int",
        ),
        ({"up_in": [[], [(0, 1.0)], []]}, TypeError, "tuples"),
        ({"up_in": [[], [(0, "1", None)], []]}, TypeError, "float or int"),
        ({"up_in": [[], None, []]}, TypeError, "up_in\\[1\\]"),
    ],
    ids=[
        "hop-dropped-from-up_in", "hop-dropped-from-up_out",
        "middle-out-of-range", "negative-middle", "float-middle",
        "entry-not-a-triple", "weight-not-a-number", "row-not-a-list",
    ],
)
def test_ah_query_rejects_malformed_rows_it_unpacks(changes, error, detail):
    """Rows that only the unpacking reads are checked as the search
    checks the rows it relaxes; the distance alone still answers."""
    tables = _shortcut_tables(**changes)
    assert native.ah_query(tables, 0, 2, False, False, False, False) == (2.0, ())
    with pytest.raises(error, match=detail):
        native.ah_query(tables, 0, 2, True, False, False, False)


@needs_native
@pytest.mark.parametrize("emitting", [True, False], ids=["emitting", "stack-only"])
def test_ah_query_stops_middle_cycles_at_n_nodes(emitting):
    """Middles that form a cycle raise at the ``n``-node bound instead of
    hanging the call or growing its buffers without bound.  The emitting
    cycle unpacks ``(0, 2)`` through ``(1, 2)`` back into ``(0, 2)`` and
    emits ``1, 0`` on every turn; the stack-only one names a hop's own
    end as its middle and never emits."""
    n = 1 << 16
    up_out = [[] for _ in range(n)]
    up_in = [[] for _ in range(n)]
    if emitting:
        up_out[0] = [(2, 2.0, 1)]
        up_out[1] = [(2, 1.0, 0), (0, 1.0, None)]
        up_in[1] = [(0, 1.0, None)]
    else:
        up_out[0] = [(2, 2.0, 2)]
    tables = _flat_tables(n, up_out, up_in)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {n} nodes"):
        native.ah_query(tables, 0, 2, True, False, False, False)
    assert time.perf_counter() - t0 < 1.0


# ----------------------------------------------------------------------
# On-import build (subprocesses over a fresh copy of the package)
# ----------------------------------------------------------------------
_COMPILER = shlex.split(sysconfig.get_config_var("LDSHARED") or "")[:1]

needs_compiler = pytest.mark.skipif(
    not _COMPILER or shutil.which(_COMPILER[0]) is None,
    reason="no C compiler for the on-import build",
)

_BUILD_PROBE = """
import json, subprocess, warnings
runs = []
run = subprocess.run
def spy(*args, **kwargs):
    runs.append(args[0])
    return run(*args, **kwargs)
subprocess.run = spy
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro import backend, native
from repro.baselines import HubLabelIndex
from repro.core import AHIndex
from repro.datasets import grid_city, towns_and_highways
hl = HubLabelIndex(grid_city(4, 4, seed=7))
towns = towns_and_highways(3, 5, 5, seed=5, prune=0.15)
ah = AHIndex(towns, elevating=True)
pairs = [(s, (s * 29 + 11) % towns.n) for s in range(0, towns.n, 4)]
print(json.dumps({
    "tier": backend.active(),
    "path": native.extension_path(),
    "compiler_runs": len(runs),
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
    "answers": [
        [hl.distance(s, t) for s, t in ((0, 15), (3, 12), (5, 5), (9, 2))],
        hl.one_to_many(5, [0, 9, 11, 5]),
        hl.distance_table((0, 3), (5, 9, 11)),
    ],
    "ah": {
        "levels": ah.assignment.levels,
        "distances": [ah.distance(s, t) for s, t in pairs],
        "paths": [list(ah.shortest_path(s, t).nodes) for s, t in pairs],
    },
}))
"""


def _fresh_copy(root):
    """A copy of ``src/repro`` holding no build, as a fresh checkout does."""
    src = root / "src"
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        src / "repro",
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"),
    )
    return src


def _probe(src, **env):
    proc = _run(_BUILD_PROBE, PYTHONPATH=str(src), **env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@needs_compiler
def test_fresh_import_builds_into_keyed_cache(tmp_path):
    src = _fresh_copy(tmp_path)
    out = _probe(src)
    pkg = src / "repro" / "native"
    key = hashlib.sha256((pkg / "_hubjoin.c").read_bytes()).hexdigest()[:16]
    built = pkg / "__pycache__" / key / ("_hubjoin" + sysconfig.get_config_var("EXT_SUFFIX"))
    assert out["tier"] == "native"
    assert out["path"] == str(built)
    assert out["compiler_runs"] == 1 and out["warnings"] == []
    # the temporary file was moved into place, not left beside it
    assert [p.name for p in built.parent.iterdir()] == [built.name]


@needs_compiler
def test_new_build_prunes_stale_builds(tmp_path):
    src = _fresh_copy(tmp_path)
    cache = src / "repro" / "native" / "__pycache__"
    stale = cache / "0123456789abcdef"
    stale.mkdir(parents=True)
    (stale / ("_hubjoin" + sysconfig.get_config_var("EXT_SUFFIX"))).write_bytes(b"")
    other = cache / "not-a-build-key"
    other.mkdir()
    keyed_file = cache / "fedcba9876543210"
    keyed_file.write_bytes(b"")
    # the package's own bytecode shares the directory
    bytecode = Path(py_compile.compile(str(cache.parent / "__init__.py")))
    out = _probe(src)
    assert out["tier"] == "native" and out["compiler_runs"] == 1
    left = sorted(p.name for p in cache.iterdir())
    assert not stale.exists()
    assert Path(out["path"]).parent.name in left
    assert {other.name, keyed_file.name, bytecode.name} <= set(left), left


@needs_compiler
def test_second_import_runs_no_compiler(tmp_path):
    src = _fresh_copy(tmp_path)
    first = _probe(src)
    second = _probe(src)
    assert first["compiler_runs"] == 1
    assert second["compiler_runs"] == 0
    assert second["tier"] == "native" and second["path"] == first["path"]
    assert second["answers"] == first["answers"]
    assert second["ah"] == first["ah"]


@needs_compiler
def test_no_compiler_degrades_with_one_warning(tmp_path):
    if os.path.isabs(_COMPILER[0]):
        pytest.skip("LDSHARED names its compiler by absolute path, not via PATH")
    empty = tmp_path / "bin"
    empty.mkdir()
    built = _probe(_fresh_copy(tmp_path / "with-compiler"))
    bare = _probe(_fresh_copy(tmp_path / "without"), PATH=str(empty))
    assert built["tier"] == "native"
    assert bare["tier"] == "pure-python" and bare["path"] is None
    assert len(bare["warnings"]) == 1, bare["warnings"]
    assert "could not build" in bare["warnings"][0]
    assert bare["answers"] == built["answers"]
    # Without the extension the AH build runs the pure region search.
    assert max(built["ah"]["levels"]) >= 2
    assert bare["ah"] == built["ah"]


# ----------------------------------------------------------------------
# Degradation (subprocesses; runs with or without the extension)
# ----------------------------------------------------------------------
_PROBE = """
import warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro import backend
import json
print(json.dumps({
    "active": backend.active(),
    "has_native": backend.HAS_NATIVE,
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
}))
"""


def test_disabled_extension_is_invisible_without_request():
    # REPRO_NATIVE=0 alone: auto-order just skips the tier, silently.
    proc = _run(_PROBE, REPRO_NATIVE="0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["has_native"] is False
    assert out["active"] == "pure-python"
    assert out["warnings"] == []


def test_requested_native_degrades_with_single_warning():
    proc = _run(_PROBE, REPRO_NATIVE="0", REPRO_BACKEND="native")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["has_native"] is False
    assert out["active"] == "pure-python"
    assert len(out["warnings"]) == 1
    message = out["warnings"][0]
    assert "REPRO_BACKEND=native" in message
    assert "degrading" in message
    assert "bit-identical" in message


def test_degraded_answers_identical_to_pure():
    code = """
    import warnings
    warnings.simplefilter("ignore")
    from repro import backend
    from repro.baselines import HubLabelIndex
    from repro.datasets import grid_city

    graph = grid_city(4, 4, seed=7)
    hl = HubLabelIndex(graph)
    pairs = [(0, 15), (3, 12), (5, 5), (9, 2)]
    degraded = [hl.distance(s, t) for s, t in pairs]
    table = hl.distance_table((0, 3), (5, 9, 11))
    with backend.forced("pure"):
        assert degraded == [hl.distance(s, t) for s, t in pairs]
        assert table == hl.distance_table((0, 3), (5, 9, 11))
    print("OK")
    """
    proc = _run(code, REPRO_NATIVE="0", REPRO_BACKEND="native")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "OK"


def test_force_native_without_extension_raises():
    code = """
    from repro import backend
    try:
        backend.force_backend("native")
    except RuntimeError as exc:
        assert "native" in str(exc)
        print("RAISED")
    """
    proc = _run(code, REPRO_NATIVE="0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "RAISED"

"""HLIDX2 load checks: a CRC-valid section no query could walk fails typed.

Each case damages one value of a saved section *before* ``bundle_bytes``
computes the trailer CRCs, so only the decoder's structural checks stand
between the bytes and a query.  Every case must raise
``BundleCorrupted("HLIDX2", ...)`` out of ``load_bundle`` itself; no query
is run.  Without the checks the same bytes raised raw ``IndexError``s,
or loaded and then hung ``shortest_path`` or crashed the native table
kernel.
"""

import copy
import struct
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest

from repro.baselines import HubLabelIndex
from repro.core import serialize
from repro.core.serialize import (
    BundleCorrupted,
    bundle_bytes,
    index_bytes,
    inspect_bundle,
    load_bundle,
)
from repro.datasets import grid_city
from repro.graph import GraphBuilder

from conftest import recrc

BACKWARD = 1  # the direction _damaged edits by default


@pytest.fixture(scope="module")
def graph():
    return grid_city(5, 5, seed=3)


@pytest.fixture(scope="module")
def indexes(graph):
    """One index per distance encoding its sections get (f8 is forced at
    save time, see :func:`_damaged`)."""
    b = GraphBuilder()
    for u in range(graph.n):
        b.add_node(*graph.coord(u))
    for u, v, _ in graph.edges():
        b.add_edge(u, v, float(1 + (u + v) % 7))  # integral: i4 sections
    hl = HubLabelIndex(graph)
    return {"i4": HubLabelIndex(b.build()), "dd": hl, "f8": hl}


def _uvarints(values):
    out = bytearray()
    for v in values:
        serialize._uvarint_append(out, v)
    return bytes(out)


def _rows(lengths):
    """``(lo, hi)`` of every node's label slice."""
    lo = 0
    out = []
    for ln in lengths:
        out.append((lo, lo + ln))
        lo += ln
    return out


def _damaged(monkeypatch, hl, mutate, *, side=BACKWARD, f8=False):
    """``bundle_bytes(hl)`` with one direction's streams edited.

    ``mutate(s)`` edits ``s``, a dict of that direction's decoded value
    lists (``lengths``, ``hubs``, ``parents``, and ``codes`` for a ``dd``
    section) plus ``enc`` and ``dsize``, in place.  ``f8=True`` saves raw
    float64 distances.
    """
    encode = serialize._encode_label_side
    seen = []

    def damaging(*cols):
        enc, count, lengths, hubs, parents, payload = encode(*cols)
        seen.append(enc)
        if len(seen) - 1 != side:
            return enc, count, lengths, hubs, parents, payload
        s = {
            "enc": enc,
            "lengths": serialize._uvarint_decode(lengths),
            "hubs": serialize._uvarint_decode(hubs),
            "parents": serialize._uvarint_decode(parents),
        }
        if enc == serialize._DIST_DD:
            (s["dsize"],) = struct.unpack_from("<q", payload)
            head = payload[: 8 + 8 * s["dsize"]]
            s["codes"] = serialize._uvarint_decode(payload[len(head) + 8 :])
        mutate(s)
        if enc == serialize._DIST_DD:
            codes = _uvarints(s["codes"])
            payload = head + struct.pack("<q", len(codes)) + codes
        return (
            s["enc"],
            count,
            _uvarints(s["lengths"]),
            _uvarints(s["hubs"]),
            _uvarints(s["parents"]),
            payload,
        )

    with monkeypatch.context() as m:
        m.setattr(serialize, "_encode_label_side", damaging)
        if f8:
            m.setattr(
                serialize,
                "_encode_dists",
                lambda dists, _pos: (serialize._DIST_F8, array("d", dists).tobytes()),
            )
        return bundle_bytes(hl)


def _assert_rejected(blob, detail):
    with pytest.raises(BundleCorrupted, match=detail) as exc_info:
        load_bundle(blob)
    assert exc_info.value.section == "HLIDX2"


def _root(s, lo, hi):
    return lo + s["parents"][lo:hi].index(0)


def _row_with(s, size):
    """A node whose label has at least ``size`` entries, and its slice."""
    return next(
        (u, lo, hi) for u, (lo, hi) in enumerate(_rows(s["lengths"])) if hi - lo >= size
    )


def test_hub_outside_node_range(monkeypatch, indexes):
    def mutate(s):
        s["hubs"][-1] += len(s["lengths"])  # the last row's last hub, + n

    _assert_rejected(_damaged(monkeypatch, indexes["dd"], mutate), "a hub of node 24 lies outside")


@pytest.mark.parametrize("enc", ["i4", "dd"])
def test_parent_code_past_its_row(monkeypatch, indexes, enc):
    def mutate(s):
        lo, hi = _rows(s["lengths"])[-1]
        k = lo if _root(s, lo, hi) != lo else hi - 1  # a non-root entry
        s["parents"][k] = hi - lo + 1  # past the row, and the entry array

    _assert_rejected(_damaged(monkeypatch, indexes[enc], mutate), "lies past its label")


@pytest.mark.parametrize("damage", ["second root", "root elsewhere"])
def test_row_needs_one_root_holding_its_node(monkeypatch, indexes, damage):
    def mutate(s):
        u, lo, hi = _row_with(s, 2)
        root = _root(s, lo, hi)
        other = lo if root != lo else lo + 1
        if damage == "root elsewhere":
            s["parents"][root] = other - lo + 1
        s["parents"][other] = 0

    _assert_rejected(
        _damaged(monkeypatch, indexes["dd"], mutate), "needs exactly one root"
    )


@pytest.mark.parametrize("enc", ["i4", "dd", "f8"])
def test_parent_cycle(monkeypatch, indexes, enc):
    def mutate(s):
        u, lo, hi = _row_with(s, 3)
        root = _root(s, lo, hi)
        x, y = [k for k in range(lo, hi) if k != root][:2]
        s["parents"][x] = y - lo + 1
        s["parents"][y] = x - lo + 1

    blob = _damaged(monkeypatch, indexes[enc], mutate, f8=enc == "f8")
    assert inspect_bundle(blob)[1]["detail"]["dist_encoding"][BACKWARD] == enc
    _assert_rejected(blob, "parent chains form a cycle")


def test_delta_index_past_dictionary(monkeypatch, indexes):
    def mutate(s):
        s["codes"][0] = s["dsize"]

    _assert_rejected(
        _damaged(monkeypatch, indexes["dd"], mutate), "past the .*-value dictionary"
    )


@pytest.mark.parametrize(
    "damage, detail",
    [
        ("lengths", "lengths stream does not match the node count"),
        ("entries", "label streams do not match the entry count"),
        ("encoding", "unknown distance encoding 7"),
        ("delta count", "delta indexes do not match the entry count"),
    ],
)
def test_stream_shape_mismatches_are_typed(monkeypatch, indexes, damage, detail):
    def mutate(s):
        if damage == "lengths":
            s["lengths"].pop()
        elif damage == "entries":
            s["hubs"].append(0)
        elif damage == "encoding":
            s["enc"] = 7
        else:
            s["codes"].pop()

    _assert_rejected(_damaged(monkeypatch, indexes["dd"], mutate), detail)


def _with_middles(hl, middle):
    bad = copy.copy(hl)
    bad._middle = middle
    return bad


@pytest.mark.parametrize("bad", ["-1", "n"])
def test_middle_outside_node_range(indexes, graph, bad):
    hl = indexes["dd"]
    middle = dict(hl._middle)
    key = next(iter(middle))
    middle[key] = {"-1": -1, "n": graph.n}[bad]
    _assert_rejected(
        bundle_bytes(_with_middles(hl, middle)), "shortcut-middle entry lies outside"
    )


def test_cyclic_shortcut_split(indexes):
    hl = indexes["dd"]
    assert hl._middle
    middle = {(a, b): a for a, b in hl._middle}  # every middle its tail
    _assert_rejected(bundle_bytes(_with_middles(hl, middle)), "middles form a cycle")


def test_shortcut_unpacking_bounded(indexes, graph):
    """381 acyclic middles on 25 nodes whose shortcut (0, 1) would unpack
    to 2^20 edges: pair (a, b) with k = max(a, b) <= 20 splits at k + 1."""
    middle = {}
    todo = [(0, 1)]
    while todo:
        a, b = todo.pop()
        k = max(a, b)
        if k <= 20 and (a, b) not in middle:
            middle[(a, b)] = k + 1
            todo += [(a, k + 1), (k + 1, b)]
    assert len(middle) == 381 and graph.n == 25
    _assert_rejected(
        bundle_bytes(_with_middles(indexes["dd"], middle)),
        r"shortcut \(\d+, \d+\) unpacks to more than 24 edges",
    )


def test_node_count_mismatch_is_typed(indexes, graph):
    """An ``HLIDX2`` header whose n differs from the bundle's own graph."""
    blob = bundle_bytes(indexes["dd"])
    (section,) = [s for s in inspect_bundle(blob) if s["magic"] == "HLIDX2"]
    data = bytearray(blob)
    struct.pack_into("<q", data, section["offset"] + 7, graph.n + 1)
    _assert_rejected(recrc(data), "built for 26 nodes but the graph has 25")


@pytest.mark.parametrize("source", ["path", "bytes"])
def test_inflated_length_allocates_nothing(tmp_path, indexes, source):
    """A stream length claiming 256 MiB fails before anything is read."""
    blob = bundle_bytes(indexes["dd"])
    (section,) = [s for s in inspect_bundle(blob) if s["magic"] == "HLIDX2"]
    data = bytearray(blob)
    # magic, n, then the forward side's (enc, count) and its first length
    struct.pack_into("<q", data, section["offset"] + 7 + 8 + 9, 256 << 20)
    data = recrc(data)
    path = tmp_path / "inflated.bundle"
    path.write_bytes(data)
    arg = {"path": str(path), "bytes": data}[source]
    tracemalloc.start()
    try:
        with pytest.raises(BundleCorrupted) as exc_info:
            load_bundle(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc_info.value.section == "HLIDX2"
    assert peak < 64 << 20, f"peak {peak / 2**20:.0f} MiB"


def test_save_refuses_ids_past_int32():
    huge = HubLabelIndex.__new__(HubLabelIndex)
    huge.graph = SimpleNamespace(n=2**31)
    with pytest.raises(ValueError, match="int32"):
        index_bytes(huge)

"""Compact label sections (HL2) — the exactness and footprint pins.

What must hold:

* **Answer identity**: an index loaded from a bundle's HL2 section
  holds the built index's column layout (int64 ids, float64 distances)
  and answers ``distance`` / ``one_to_many`` / ``distance_table`` /
  ``shortest_path`` bit-for-bit like the index it was saved from, on
  both backends.
* **Exactness guard** (hypothesis-pinned): the distance encoder picks
  ``i4`` exactly when every distance is a non-negative integral value
  below 2^31; anything that would quantise lossily (non-integral
  floats, values past the int32 boundary with inexact deltas) falls
  back to ``dd`` or raw ``f8`` — and no weight class ever changes a
  query answer.
* **Round-trip determinism**: save -> load -> save is byte-identical.
* **Observability**: ``HubLabelIndex.stats()`` and
  ``inspect_bundle`` / ``python -m repro.serialize --inspect`` report
  the per-section footprint, and the towns fixture's label sections
  are >= 2.5x smaller than the int64/float64 columns the index holds
  in memory (hardware-independent hard floor; the NH bar lives in
  ``benchmarks/test_hl_speed.py``).
"""

import io
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import backend
from repro.baselines import HubLabelIndex
from repro.core.serialize import (
    _DIST_DD,
    _DIST_F8,
    _DIST_I4,
    _encode_dists,
    _encode_label_side,
    BundleCorrupted,
    bundle_bytes,
    inspect_bundle,
    load_bundle,
    save_bundle,
)
from repro.core.serialize import main as serialize_main
from repro.datasets import grid_city, towns_and_highways
from repro.graph import GraphBuilder

#: Tiers the identity properties run under (native when it is loaded).
BACKENDS = (["native"] if backend.HAS_NATIVE else []) + ["pure"]


@pytest.fixture(scope="module")
def towns_graph():
    return towns_and_highways(3, seed=4)


@pytest.fixture(scope="module")
def towns_hl(towns_graph):
    return HubLabelIndex(towns_graph)


def _pairs(n, count, seed):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def _dist_encoding(blob):
    """Per-direction distance encoding of a bundle's HL2 section."""
    return inspect_bundle(blob)[1]["detail"]["dist_encoding"]


def _loaded(blob):
    """The index of bundle ``blob``, loaded."""
    return load_bundle(blob)[1]


LABEL_COLUMNS = {
    "fwd_head": "q",
    "fwd_hub": "q",
    "fwd_dist": "d",
    "fwd_parent": "q",
    "bwd_head": "q",
    "bwd_hub": "q",
    "bwd_dist": "d",
    "bwd_parent": "q",
}


def _typecodes(index):
    return {name: getattr(index, name).typecode for name in LABEL_COLUMNS}


# ----------------------------------------------------------------------
# Answer identity: loaded == built, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKENDS)
def test_compact_answers_bit_identical(towns_graph, towns_hl, name):
    blob = bundle_bytes(towns_hl)
    assert _dist_encoding(blob) == ["dd", "dd"]  # towns: float weights
    with backend.forced(name):
        compact = _loaded(blob)
        assert _typecodes(compact) == _typecodes(towns_hl) == LABEL_COLUMNS
        n = towns_graph.n
        for s, t in _pairs(n, 40, seed=11):
            assert compact.distance(s, t) == towns_hl.distance(s, t)
        targets = tuple(t for _, t in _pairs(n, 12, seed=3))
        sources = tuple(s for s, _ in _pairs(n, 5, seed=7))
        assert compact.one_to_many(sources[0], targets) == towns_hl.one_to_many(
            sources[0], targets
        )
        assert compact.distance_table(sources, targets) == towns_hl.distance_table(
            sources, targets
        )
        for s, t in _pairs(n, 10, seed=5):
            p, p2 = towns_hl.shortest_path(s, t), compact.shortest_path(s, t)
            assert (p2.nodes, p2.length) == (p.nodes, p.length)


def test_compact_results_stay_floats(towns_graph, towns_hl):
    """Integer-backed (i4) storage must never leak ints to callers."""
    g = grid_city(5, 5, seed=3)
    # integral weights force the i4 encoding
    b = GraphBuilder()
    for u in range(g.n):
        b.add_node(*g.coord(u))
    for u, v, _ in g.edges():
        b.add_edge(u, v, float(1 + (u + v) % 7))
    gi = b.build()
    hl = HubLabelIndex(gi)
    blob = bundle_bytes(hl)
    assert _dist_encoding(blob) == ["i4", "i4"]
    compact = _loaded(blob)
    assert _typecodes(compact) == LABEL_COLUMNS
    d = compact.distance(0, gi.n - 1)
    assert type(d) is float and d == hl.distance(0, gi.n - 1)
    o2m = compact.one_to_many(0, (1, 2, 3))
    assert all(type(v) is float for v in o2m)
    table = compact.distance_table((0, 1), (2, 3))
    assert all(type(v) is float for row in table for v in row)


# ----------------------------------------------------------------------
# Round-trip determinism
# ----------------------------------------------------------------------
def test_save_load_save_idempotent(towns_hl, tmp_path):
    first, second = tmp_path / "first.bundle", tmp_path / "second.bundle"
    save_bundle(towns_hl, first)
    _, loaded = load_bundle(first)
    save_bundle(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_compact_bundle_round_trip(towns_graph, towns_hl):
    blob = bundle_bytes(towns_hl)
    g2, hl2 = load_bundle(blob)
    assert _typecodes(hl2) == LABEL_COLUMNS
    buf = io.BytesIO()
    save_bundle(hl2, buf)
    assert buf.getvalue() == blob


# ----------------------------------------------------------------------
# The exactness guard, unit-level
# ----------------------------------------------------------------------
def test_guard_integral_dists_pick_i4():
    enc, payload = _encode_dists([0.0, 3.0, 2147483647.0], [-1, 0, 0])
    assert enc == _DIST_I4
    assert len(payload) == 4 * 3


def test_guard_non_integral_dists_fall_back_to_dd():
    enc, _ = _encode_dists([0.0, 2.5], [-1, 0])
    assert enc == _DIST_DD
    enc, _ = _encode_dists([2.0, 5.0, 5.5], [-1, 0, 1])
    assert enc == _DIST_DD


def test_guard_past_int32_boundary_is_not_i4():
    enc, _ = _encode_dists([float(2**31)], [-1])  # one past INT32_MAX
    assert enc != _DIST_I4


def test_guard_inexact_delta_falls_back_to_f8():
    # 1e16 + (3.0 - 1e16) == 4.0 != 3.0: the dd reconstruction would be
    # lossy, and the guard must catch it value by value.
    enc, payload = _encode_dists([1e16, 3.0], [-1, 0])
    assert enc == _DIST_F8
    assert len(payload) == 8 * 2


def test_encode_side_rejects_parent_outside_slice():
    from array import array

    head = array("q", [0, 1])
    hub = array("q", [2])
    dist = array("d", [1.0])
    parent = array("q", [5])  # hub 5 is not in node 0's label slice
    with pytest.raises(ValueError, match="parent outside"):
        _encode_label_side(head, hub, dist, parent)


# ----------------------------------------------------------------------
# The exactness guard, property-level (the ISSUE's hypothesis pin)
# ----------------------------------------------------------------------
def _weighted_graph(n, extra_edges, weights):
    """Chain 0-1-...-n-1 plus extras; weights drawn by the caller."""
    b = GraphBuilder()
    for u in range(n):
        b.add_node(float(u), 0.0)
    wit = iter(weights)
    for u in range(n - 1):
        b.add_bidirectional_edge(u, u + 1, next(wit))
    for u, v in extra_edges:
        if u != v and not b.has_edge(u, v):
            b.add_bidirectional_edge(u, v, next(wit))
    return b.build()


@st.composite
def _guard_case(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            max_size=6,
        )
    )
    kind = draw(st.sampled_from(["int", "huge", "float"]))
    need = (n - 1) + len(extras)
    if kind == "int":
        weights = draw(
            st.lists(
                st.integers(1, 60).map(float), min_size=need, max_size=need
            )
        )
    elif kind == "huge":
        # scaled so multi-hop distances cross the int32 boundary
        weights = draw(
            st.lists(
                st.integers(1, 60).map(lambda w: float(w * 2**28)),
                min_size=need,
                max_size=need,
            )
        )
    else:
        weights = draw(
            st.lists(
                st.integers(1, 997).map(lambda w: w / 7.0),
                min_size=need,
                max_size=need,
            )
        )
    return n, extras, weights


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=_guard_case())
def test_guard_never_changes_answers(case):
    """Whatever the weight class, the guard's choice is exact.

    The chosen encoding must match the guard's stated semantics (``i4``
    iff every stored distance is integral and below 2^31), the compact
    blob must round-trip byte-identically, and every query answer must
    be bit-identical to the flat index's — on both backends.
    """
    n, extras, weights = case
    g = _weighted_graph(n, extras, weights)
    hl = HubLabelIndex(g)
    blob = bundle_bytes(hl)

    # guard semantics: i4 exactly when the built columns allow it
    loaded = _loaded(blob)
    for side_col, enc_name in zip((hl.fwd_dist, hl.bwd_dist), _dist_encoding(blob)):
        i4_ok = all(
            0 <= d <= 0x7FFFFFFF and d == int(d) for d in side_col.tolist()
        )
        assert (enc_name == "i4") == i4_ok

    # byte-determinism
    assert bundle_bytes(loaded) == blob

    # answers never change, on either backend
    pairs = _pairs(n, 20, seed=n)
    targets = tuple(t for _, t in _pairs(n, 6, seed=2))
    for name in BACKENDS:
        with backend.forced(name):
            for s, t in pairs:
                assert loaded.distance(s, t) == hl.distance(s, t)
            assert loaded.one_to_many(0, targets) == hl.one_to_many(0, targets)
            assert loaded.distance_table(
                (0, n - 1), targets
            ) == hl.distance_table((0, n - 1), targets)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=_guard_case())
def test_compact_blobs_byte_identical_across_backends(case):
    """The varint/delta encoders are pure loops — tier-invariant."""
    n, extras, weights = case
    blobs = {}
    for name in BACKENDS:
        with backend.forced(name):
            g = _weighted_graph(n, extras, weights)
            blobs[name] = bundle_bytes(HubLabelIndex(g))
    assert len(set(blobs.values())) == 1, blobs.keys()


# ----------------------------------------------------------------------
# Observability: stats(), inspect_bundle, the CLI
# ----------------------------------------------------------------------
def test_stats_reports_footprint(towns_hl):
    built = towns_hl.stats()
    assert built["entries"] > 0
    assert built["bytes_per_entry"] > 24  # three 8-byte columns + heads
    assert set(built["columns"]) == set(LABEL_COLUMNS)
    assert {col["itemsize"] for col in built["columns"].values()} == {8}
    assert _loaded(bundle_bytes(towns_hl)).stats() == built  # one layout


def test_inspect_reports_sections_and_ratio(towns_hl):
    """The hard footprint floor: towns label sections are >= 2.5x smaller
    than the label columns in memory."""
    blob = bundle_bytes(towns_hl)
    secs = inspect_bundle(blob)
    assert [s["magic"] for s in secs] == ["GCSR1", "HLIDX2", "BCRC1"]
    comp_hl = secs[1]["detail"]
    assert comp_hl["entries"] == towns_hl.label_count
    assert comp_hl["middles"] == len(towns_hl._middle)
    assert comp_hl["dist_encoding"] == ["dd", "dd"]
    ratio = towns_hl.stats()["label_bytes"] / comp_hl["label_bytes"]
    assert ratio >= 2.5, f"label sections shrank only {ratio:.2f}x"
    # offsets/sizes tile the file exactly (CRC trailer included)
    assert secs[0]["offset"] == 0
    for prev, sec in zip(secs, secs[1:]):
        assert sec["offset"] == prev["offset"] + prev["bytes"]
    assert secs[-1]["offset"] + secs[-1]["bytes"] == len(blob)
    assert secs[-1]["detail"]["sections"] == len(secs) - 1


def test_inspect_rejects_garbage():
    with pytest.raises(BundleCorrupted, match="no BCRC1 trailer") as exc_info:
        inspect_bundle(b"NOTABUNDLE")
    assert exc_info.value.section == "trailer"


def test_inspect_reads_bundles_only(towns_hl):
    """Sections without their trailer are not a bundle; a section magic
    nothing writes, or a stream length past the section, fails as that
    section."""
    blob = bundle_bytes(towns_hl)
    _, index_sec, trailer = inspect_bundle(blob)
    with pytest.raises(BundleCorrupted, match="no BCRC1 trailer"):
        inspect_bundle(blob[: trailer["offset"]])
    data = bytearray(blob)
    data[index_sec["offset"]] ^= 0xFF
    with pytest.raises(BundleCorrupted, match="unknown section magic") as exc_info:
        inspect_bundle(data)
    assert exc_info.value.section == f"section@{index_sec['offset']}"
    # magic, n, then the forward side's (enc, count) and its first length
    for length in (1 << 20, 1 << 62):
        data = bytearray(blob)
        struct.pack_into("<q", data, index_sec["offset"] + 7 + 8 + 9, length)
        with pytest.raises(BundleCorrupted) as exc_info:
            inspect_bundle(data)
        assert exc_info.value.section == "HLIDX2"


def test_inspect_cli(tmp_path, towns_hl, capsys):
    path = str(tmp_path / "towns.bundle")
    save_bundle(towns_hl, path)
    assert serialize_main(["--inspect", path]) == 0
    out = capsys.readouterr().out
    assert "GCSR1" in out and "HLIDX2" in out
    assert "dd" in out


def test_inspect_cli_runs_as_module(tmp_path, towns_hl):
    import os
    import subprocess
    import sys

    import repro

    path = str(tmp_path / "towns.bundle")
    save_bundle(towns_hl, path)
    env = dict(os.environ)
    # the child process doesn't inherit pytest's pythonpath setting
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serialize", "--inspect", path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "HLIDX2" in proc.stdout


def test_inspect_cli_rejects_garbage_file(tmp_path, capsys):
    path = tmp_path / "junk.bundle"
    path.write_bytes(b"this is not a bundle at all")
    assert serialize_main(["--inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not a valid bundle" in err
    assert "Traceback" not in err


def test_inspect_cli_rejects_truncated_bundle(tmp_path, towns_hl, capsys):
    path = tmp_path / "towns.bundle"
    save_bundle(towns_hl, str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    assert serialize_main(["--inspect", str(path)]) == 2
    assert "not a valid bundle" in capsys.readouterr().err


def test_inspect_cli_rejects_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.bundle"
    path.write_bytes(b"")
    assert serialize_main(["--inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not a valid bundle" in err and "no BCRC1 trailer" in err


def test_inspect_cli_missing_file(tmp_path, capsys):
    assert serialize_main(["--inspect", str(tmp_path / "nope.bundle")]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err
    assert "Traceback" not in err

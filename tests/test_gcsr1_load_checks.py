"""GCSR1 load checks: a CRC-valid graph section no search could walk fails typed.

Each case edits one value of a saved bundle's graph section and
recomputes the trailer CRCs, so only the decoder's checks stand between
the bytes and a search.  Without them an ``out_dst`` of n + 5 loaded and
the first Dijkstra over the graph raised ``IndexError``; a negative id
would silently read another node's edges; and a reverse triple that is
not the forward one's transpose loaded and answered 56 of 625 pairs
shorter than any real path.
"""

import math
import struct

import pytest

from repro.baselines import HubLabelIndex
from repro.core.serialize import BundleCorrupted, bundle_bytes, load_bundle
from repro.datasets import grid_city
from repro.graph import Graph

from conftest import recrc

MAGIC = 6  # len(b"GCSR1\n")


@pytest.fixture(scope="module")
def blob():
    return bundle_bytes(HubLabelIndex(grid_city(5, 5, seed=3)))


def _offsets(blob):
    """Byte offset of every CSR column in the graph section."""
    n, m = struct.unpack_from("<qq", blob, MAGIC)
    at = MAGIC + 16 + 16 * n  # past the header and both coordinate columns
    offsets = {}
    for name, count in (
        ("out_head", n + 1), ("out_dst", m), ("out_w", m),
        ("in_head", n + 1), ("in_src", m), ("in_w", m),
    ):
        offsets[name] = at
        at += 8 * count
    return n, m, offsets


@pytest.mark.parametrize(
    "column, index, value, detail",
    [
        ("out_dst", 0, "n+5", "out edges name a node outside"),
        ("in_src", -1, -1, "in edges name a node outside"),
        ("out_w", 0, math.nan, "out edges have a negative, NaN or infinite weight"),
        ("in_w", 3, -2.0, "in edges have a negative, NaN or infinite weight"),
        ("in_w", 5, math.inf, "in edges have a negative, NaN or infinite weight"),
        ("out_head", 0, 1, "out_head does not run from 0 to"),
        ("in_head", -1, "m-1", "in_head does not run from 0 to"),
        ("out_head", 2, "m", "out_head does not run from 0 to"),
    ],
    ids=[
        "out_dst=n+5", "in_src=-1", "out_w=nan", "in_w=-2", "in_w=inf",
        "out_head[0]=1", "in_head[n]=m-1", "out_head-decreasing",
    ],
)
def test_damaged_column_is_typed(blob, column, index, value, detail):
    n, m, offsets = _offsets(blob)
    count = n + 1 if column.endswith("head") else m
    value = {"n+5": n + 5, "m-1": m - 1, "m": m}.get(value, value)
    code = "<d" if column.endswith("_w") else "<q"
    data = bytearray(blob)
    struct.pack_into(code, data, offsets[column] + 8 * (index % count), value)
    with pytest.raises(BundleCorrupted, match=detail) as exc_info:
        load_bundle(recrc(data))
    assert exc_info.value.section == "GCSR1"


def test_pristine_bundle_loads(blob):
    graph, _ = load_bundle(blob)
    assert graph.n == 25


def test_reverse_triple_must_be_the_transpose(blob):
    """Two swapped ``in_src`` entries keep every id in range, yet give the
    backward searches edges the forward graph does not have."""
    n, m, offsets = _offsets(blob)
    at = offsets["in_src"]
    first, second = struct.unpack_from("<qq", blob, at)
    assert first != second
    data = bytearray(blob)
    struct.pack_into("<qq", data, at, second, first)
    with pytest.raises(BundleCorrupted, match="in_src is not the transpose") as exc_info:
        load_bundle(recrc(data))
    assert exc_info.value.section == "GCSR1"


def test_reversed_graph_with_unsorted_rows_round_trips():
    """``reversed()`` reuses the forward rows as the reverse triple; when
    they are not sorted by target the saved reverse triple is re-derived,
    so the loaded graph holds the same edges and passes the check."""
    g = Graph(
        [0.0, 1.0, 2.0],
        [0.0, 0.0, 0.0],
        [[(2, 1.0), (1, 2.0), (1, 3.0)], [(0, 1.0)], [(1, 1.0)]],
    ).reversed()
    loaded, _ = load_bundle(bundle_bytes(HubLabelIndex(g)))
    assert loaded.out == g.out
    assert [sorted(row) for row in loaded.inn] == [sorted(row) for row in g.inn]

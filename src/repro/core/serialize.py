"""Bundles: one CRC-checked binary file holding a graph and its index.

The paper's §7 names the index's memory footprint as future work ("as is
the case for mobile devices").  This module writes a deployable
``(graph, index)`` pair as one dependency-free file, a *bundle*, using
``array``-packed primitives rather than pickle, so the on-disk footprint
is close to the information-theoretic content and the file is loadable
without trusting arbitrary code execution.

A bundle is a ``GCSR1`` graph section, then an ``AHIDX1`` or ``HLIDX2``
index section, then a ``BCRC1`` trailer.  The bundle is the only file
this module writes or reads: :func:`save_bundle` and
:func:`bundle_bytes` write one, :func:`load_bundle` is the one decoder,
and :func:`index_bytes` measures an index section without loading
anything (Figure 10a in real units).

``AHIDX1``, the query-time state of an :class:`AHIndex` (levels, ranks,
the upward search graphs with their two-hop middles, and the grid
pyramid), little-endian::

    magic  b"AHIDX1\\n"
    header: n, h, flags, then pyramid origin_x/origin_y/side as doubles
    arrays: levels[n] (int32), rank[n] (int32)
    up_out: counts[n] (int32), total (int64), targets (int32),
            weights (float64), middles (int32, -1 for original edges)
    up_in:  same layout

Loading range-checks every id before a query can index with it (edge
counts, targets, middles, levels and ``h``), requires every weight to be
finite and non-negative, and requires every shortcut's middle to rank
strictly below both of its ends (contraction guarantees this, and it is
what makes path unpacking terminate); it raises :class:`BundleCorrupted`
on damage.

Elevating tables are *not* serialized (they are an optional query
accelerator, cheaply rebuilt); a loaded index answers every query the
saved one did, with ``elevating`` off.

``GCSR1``, the graph: straight dumps of its CSR columns, *both*
directions, handed to :meth:`Graph.from_csr` verbatim on load::

    magic  b"GCSR1\\n"
    header: n, m (int64)
    xs[n], ys[n]                     (float64)
    out_head[n+1] (int64), out_dst[m] (int64), out_w[m] (float64)
    in_head[n+1]  (int64), in_src[m] (int64), in_w[m]  (float64)

Loading range-checks both triples: each head column runs from 0 to
``m`` without decreasing, every id lies in ``[0, n)`` and every weight
is finite and non-negative.  The reverse triple must then be exactly the
counting-sort transpose of the forward one, the derivation the writer
stores.  An index section whose node count differs from the graph's is
damage too.

``HLIDX2``, a hub-label index (:class:`repro.baselines.hl.HubLabelIndex`):
varint streams plus exact distance encodings, decoded back to the
int64/float64 columns a built index holds, so a loaded index answers
bit-identically to the build it was saved from::

    magic  b"HLIDX2\\n"
    header: n (int64)
    per direction (forward, then backward):
      dist-encoding byte: 0 = i4, 1 = f8, 2 = dd
      entry count (int64)
      lengths:  per-node label sizes        (uvarint stream, framed)
      hubs:     per node: first hub absolute, then ``delta - 1``
                (hubs are strictly ascending per node)  (uvarint, framed)
      parents:  per entry: 0 = root, else 1 + position of the parent hub
                within the node's own label slice       (uvarint, framed)
      dists:    i4 -> raw int32; f8 -> raw float64;
                dd -> dict size (int64) + float64 delta dictionary
                (sorted by descending frequency, value) + per-entry
                uvarint dictionary indexes (framed)
    middles: count (int64), a (int32), b (int32), mid (int32)

The distance encoding is picked per direction by an **exactness
guard**, in order: ``i4`` when every distance is a non-negative
integral value below 2^31 (int32 -> float64 casts are exact, so query
sums are unchanged); else ``dd`` (*delta dictionary*) when every
entry's distance bit-exactly equals its parent entry's distance plus a
stored float64 delta — true by construction for labels grown one edge
relaxation at a time, and verified entry by entry at save; else raw
``f8``.  Quantisation can therefore never change an answer: lossy
cases fall back to wider sections automatically.

Loading checks every label structure a query walks: hubs lie in
``[0, n)``, parent codes stay inside their row, every row has exactly
one root and it holds the row's own node, parent chains are acyclic,
``dd`` indexes stay inside the dictionary, shortcut middles lie in
``[0, n)`` and their split relation is acyclic, with every shortcut
unpacking to at most ``n - 1`` edges (``HLIDX2`` stores no ranks, so
the middles table itself is searched).  Parent walks and
shortcut unpacking therefore terminate, and every hub index stays
inside the kernels' ``n``-sized scratch; damage raises
:class:`BundleCorrupted`.

The ``BCRC1`` trailer closes every bundle::

    per section: offset (int64), length (int64), crc32 (uint32)
    count  (int64)
    magic  b"BCRC1\\n"

The magic sits *last* so the trailer is locatable from the file end
without parsing any section.  :func:`load_bundle` verifies each
section's CRC32 before decoding anything and raises
:class:`BundleCorrupted` naming the failing section — a torn or
bit-flipped bundle fails typed instead of serving garbage — and a file
with no trailer at all (torn before its end, or never a bundle) fails
as section ``"trailer"``.  It then checks each section's magic: a
``GCSR1`` magic that is not there fails as section ``"GCSR1"``, and an
index magic that is neither ``AHIDX1`` nor ``HLIDX2`` as section
``"index"``.  Raw ``struct.error`` / ``EOFError`` from the decoders are
wrapped into :class:`BundleCorrupted` too, so callers need exactly one
except clause.

All flat sections move as whole-column ``tobytes`` blocks (loaded back
with ``frombytes``) — no per-entry ``struct`` packing anywhere on the
fast paths, and the same bytes regardless of which :mod:`repro.backend`
tier produced the columns, so bundles are byte-identical and freely
interchangeable between tiers.

Buffer sources (the worker-tier substrate)
------------------------------------------
:func:`load_bundle` and :func:`inspect_bundle` accept a path, an open
binary file or an in-memory buffer (``bytes`` / ``bytearray`` /
``memoryview``); :mod:`repro.serve.pool` boots its workers from a path.
Every column, the graph's and the hub labels' alike, is copied into
arrays private to the loading process.  A length field larger than the
bytes left in the source raises before anything is read, so an inflated
length allocates nothing.  :func:`bundle_bytes` is the matching
writer-side helper (one in-memory bundle).
"""

from __future__ import annotations

import io
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from itertools import accumulate
from operator import add, le
from typing import BinaryIO, Dict, List, Optional, Tuple, Union

from ..baselines.base import (
    CrashRequest,
    DistanceRequest,
    OneToManyRequest,
    Request,
    TableRequest,
)
from ..baselines.ch import ContractionResult
from ..baselines.hl import HubLabelIndex
from ..graph.graph import Graph, _reverse_csr
from ..spatial.grid import GridPyramid, NodeGrid
from .ah import AHIndex

__all__ = [
    "BundleCorrupted",
    "index_bytes",
    "bundle_bytes",
    "save_bundle",
    "load_bundle",
    "inspect_bundle",
    "pack_requests",
    "unpack_requests",
    "main",
]

_MAGIC = b"AHIDX1\n"
_HL2_MAGIC = b"HLIDX2\n"
_GRAPH_MAGIC = b"GCSR1\n"

#: HL2 distance-section encodings, in exactness-guard order.
_DIST_I4, _DIST_F8, _DIST_DD = 0, 1, 2
_DIST_ENC_NAMES = {_DIST_I4: "i4", _DIST_F8: "f8", _DIST_DD: "dd"}

_FLAG_PROXIMITY = 1
_FLAG_STALL = 2

#: Largest grid height an ``AHIDX1`` header may carry.  ``R_1`` has
#: ``2^(h+1)`` cells per side, and double coordinates cannot tell more
#: than ``2^53`` cells apart; a larger ``h`` is damage, and the query
#: tables would grow with it.
_MAX_GRID_H = 64
_INF = float("inf")

#: Bundle CRC trailer (written by :func:`save_bundle`): per-section
#: ``<qqI`` (offset, length, crc32) entries, then the entry count, then
#: the magic — magic LAST so the trailer is found from the file end.
_TRAILER_MAGIC = b"BCRC1\n"
_TRAILER_ENTRY = struct.Struct("<qqI")
_TRAILER_TAIL = 8 + len(_TRAILER_MAGIC)  # count + magic
_NO_TRAILER = "no BCRC1 trailer (torn, truncated, or not a bundle)"

_MAGIC_NAMES = {
    _MAGIC: "AHIDX1",
    _HL2_MAGIC: "HLIDX2",
    _GRAPH_MAGIC: "GCSR1",
}


class BundleCorrupted(ValueError):
    """A bundle failed CRC verification or decode.

    ``section`` names where the damage was detected (a section magic
    such as ``"GCSR1"``, ``"index"`` for an index section whose magic is
    unknown, or ``"trailer"`` for a missing or mangled trailer);
    ``detail`` says what went wrong.  Subclasses :class:`ValueError` so
    every pre-existing ``except ValueError`` handler keeps working.
    """

    def __init__(self, section: str, detail: str) -> None:
        self.section = section
        self.detail = detail
        super().__init__(f"bundle section {section!r} is corrupted: {detail}")

    def __reduce__(self):
        # Two required __init__ args, one message in .args: the default
        # exception reduce would rebuild from the message alone and
        # TypeError — and this exception crosses worker pipes (a pool
        # replica booting from a torn bundle reports it to the parent).
        return (type(self), (self.section, self.detail))


def _section_name(head: bytes, offset: int) -> str:
    for magic, name in _MAGIC_NAMES.items():
        if head.startswith(magic):
            return name
    return f"section@{offset}"


class _CrcWriter:
    """Write-through wrapper that tracks crc32 + byte count per section.

    :func:`save_bundle` routes the section writers through this so the
    trailer entries come straight off the outgoing byte stream — no
    second pass, no seekability requirement on ``sink``.
    """

    __slots__ = ("_fh", "crc", "nbytes")

    def __init__(self, fh: BinaryIO) -> None:
        self._fh = fh
        self.crc = 0
        self.nbytes = 0

    def write(self, data) -> None:
        self._fh.write(data)
        self.crc = zlib.crc32(data, self.crc)
        self.nbytes += len(data)

    def section_done(self) -> Tuple[int, int]:
        """(length, crc) of the section written so far; resets counters."""
        out = (self.nbytes, self.crc)
        self.crc = 0
        self.nbytes = 0
        return out


# ----------------------------------------------------------------------
# Flat-section I/O: tobytes / frombytes on whole columns
# ----------------------------------------------------------------------
# Every flat section moves through ``col.tobytes()`` / ``fh.read`` as one
# contiguous block: no per-entry ``struct`` packing, works with any
# file-like object, and the on-disk format is *tier-invariant*: bundles
# written under either tier are byte-identical
# (``tests/test_backend_parity.py`` pins this).
class _BufferReader:
    """File-like ``read()`` over a bytes-like object, serving zero-copy slices.

    Every ``read`` returns a ``memoryview`` window into the underlying
    buffer instead of a fresh ``bytes`` copy, so a column read from a
    buffer source is copied once, by ``frombytes``, not twice.
    """

    __slots__ = ("_mv", "_pos")

    def __init__(self, buf) -> None:
        mv = memoryview(buf)
        if mv.ndim != 1 or mv.itemsize != 1:
            mv = mv.cast("B")
        self._mv = mv
        self._pos = 0

    def read(self, nbytes: int = -1) -> memoryview:
        if nbytes is None or nbytes < 0:
            nbytes = len(self._mv) - self._pos
        out = self._mv[self._pos : self._pos + nbytes]
        self._pos += len(out)
        return out

    def seekable(self) -> bool:
        return True

    def tell(self) -> int:
        return self._pos

    def seek(self, offset: int, whence: int = 0) -> int:
        self._pos = offset + (len(self._mv) if whence == 2 else 0)
        return self._pos


#: Loader sources: a path (``str`` or ``os.PathLike``), an open binary
#: file, or an in-memory buffer.
Source = Union[str, os.PathLike, bytes, bytearray, memoryview, BinaryIO]


def _open_source(source: Source):
    """Normalise a loader source to ``(file_like, owns_handle)``."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        return _BufferReader(source), False
    if isinstance(source, (str, os.PathLike)):
        return open(source, "rb"), True
    return source, False


def _read_exact(fh, nbytes: int):
    """``nbytes`` from ``fh`` — ``bytes`` from files, a zero-copy
    ``memoryview`` window from buffer sources.

    A length larger than what is left of a seekable source raises before
    the read, so a damaged length field never allocates its claim.
    """
    if nbytes < 0 or (fh.seekable() and nbytes > _remaining(fh)):
        raise EOFError(f"truncated section: wanted {nbytes} bytes")
    buf = fh.read(nbytes)
    if len(buf) != nbytes:
        raise EOFError(
            f"truncated section: wanted {nbytes} bytes, got {len(buf)}"
        )
    return buf


def _remaining(fh) -> int:
    """Bytes between the read position of seekable ``fh`` and its end."""
    pos = fh.tell()
    end = fh.seek(0, 2)
    fh.seek(pos)
    return end - pos


def _write_col(fh: BinaryIO, col) -> None:
    fh.write(col.tobytes())


def _read_array(fh, typecode: str, count: int) -> array:
    """``count`` items of a stdlib ``array(typecode)`` straight off the bytes.

    Filled via ``frombytes`` rather than the ``array(typecode, buf)``
    constructor: the constructor treats a ``memoryview`` as an iterable
    of byte values and would silently build garbage from buffer sources.
    """
    out = array(typecode)
    out.frombytes(_read_exact(fh, out.itemsize * count))
    return out


def _write_adjacency(
    fh: BinaryIO, adjacency: List[List[Tuple[int, float, Optional[int]]]]
) -> None:
    counts = array("i", (len(adj) for adj in adjacency))
    targets = array("i")
    middles = array("i")
    weights = array("d")
    for adj in adjacency:
        for v, w, mid in adj:
            targets.append(v)
            weights.append(w)
            middles.append(-1 if mid is None else mid)
    _write_col(fh, counts)
    fh.write(struct.pack("<q", len(targets)))
    _write_col(fh, targets)
    _write_col(fh, weights)
    _write_col(fh, middles)


def _read_adjacency(
    fh: BinaryIO, n: int, name: str
) -> List[List[Tuple[int, float, Optional[int]]]]:
    """One upward adjacency (``name`` is ``up_out`` or ``up_in``).

    Node ids are range-checked before any query can index with them: a
    target or middle outside ``[0, n)`` would raise mid-query or, if
    negative, silently read another node's search state (Python indexes
    from the end).  Weights must be finite and non-negative: a negative
    one loads as a distance no path has.
    """
    counts = _read_array(fh, "i", n)
    (total,) = struct.unpack("<q", _read_exact(fh, 8))
    if counts and min(counts) < 0:
        raise BundleCorrupted("AHIDX1", f"{name} has a negative edge count")
    stored = sum(counts)
    if stored != total:
        raise BundleCorrupted(
            "AHIDX1", f"{name} edge counts sum to {stored}, not {total}"
        )
    # tolist() up front so the tuple-building loop below handles plain
    # Python ints/floats only (one C conversion pass per column).
    targets = _read_array(fh, "i", total).tolist()
    weights = _read_array(fh, "d", total).tolist()
    middles = _read_array(fh, "i", total).tolist()
    if total and (min(targets) < 0 or max(targets) >= n):
        raise BundleCorrupted("AHIDX1", f"{name} has a target outside [0, {n})")
    if total and (min(middles) < -1 or max(middles) >= n):
        raise BundleCorrupted(
            "AHIDX1", f"{name} has a middle outside [0, {n}) that is not -1"
        )
    if not all(0.0 <= w < _INF for w in weights):
        raise BundleCorrupted(
            "AHIDX1", f"{name} has a negative, NaN or infinite weight"
        )
    adjacency: List[List[Tuple[int, float, Optional[int]]]] = []
    pos = 0
    for count in counts:
        nxt = pos + count
        adjacency.append(
            [
                (v, w, None if mid < 0 else mid)
                for v, w, mid in zip(
                    targets[pos:nxt], weights[pos:nxt], middles[pos:nxt]
                )
            ]
        )
        pos = nxt
    return adjacency


def _write_ah_section(index: AHIndex, fh: BinaryIO) -> None:
    """Write the ``AHIDX1`` section: the query-time state of ``index``."""
    res = index._res
    flags = (_FLAG_PROXIMITY if index.proximity else 0) | (
        _FLAG_STALL if index.stall_on_demand else 0
    )
    pyramid = index.node_grid.pyramid
    fh.write(_MAGIC)
    fh.write(
        struct.pack(
            "<iii3d",
            index.graph.n,
            index.h,
            flags,
            pyramid.origin_x,
            pyramid.origin_y,
            pyramid.side,
        )
    )
    _write_col(fh, array("i", index.levels))
    _write_col(fh, array("i", res.rank))
    _write_adjacency(fh, res.up_out)
    _write_adjacency(fh, res.up_in)


def _load_index_body(fh: BinaryIO, graph: Graph) -> AHIndex:
    """Read everything after the ``AHIDX1`` magic and rebuild the index."""
    n, h, flags, ox, oy, side = struct.unpack("<iii3d", fh.read(36))
    if n != graph.n:
        raise BundleCorrupted(
            "AHIDX1", f"index was built for {n} nodes but the graph has {graph.n}"
        )
    if not 1 <= h <= _MAX_GRID_H:
        raise BundleCorrupted("AHIDX1", f"grid height {h} outside [1, {_MAX_GRID_H}]")
    levels = _read_array(fh, "i", n)
    if n and (min(levels) < 0 or max(levels) > h):
        raise BundleCorrupted("AHIDX1", f"a node level lies outside [0, {h}]")
    rank = _read_array(fh, "i", n)
    up_out = _read_adjacency(fh, n, "up_out")
    up_in = _read_adjacency(fh, n, "up_in")
    # Contraction ranks every middle strictly below both ends of its
    # shortcut; under that rule unpacking a path always terminates.
    rank_of = rank.tolist()
    for name, adjacency in (("up_out", up_out), ("up_in", up_in)):
        for u, adj in enumerate(adjacency):
            ru = rank_of[u]
            for v, _w, mid in adj:
                if mid is not None and not rank_of[mid] < min(ru, rank_of[v]):
                    raise BundleCorrupted(
                        "AHIDX1",
                        f"{name} shortcut ({u}, {v}) has middle {mid}, "
                        "not ranked below both of its ends",
                    )

    middle = {}
    shortcut_count = 0
    for u, adj in enumerate(up_out):
        for v, w, mid in adj:
            if mid is not None:
                middle[(u, v)] = mid
                shortcut_count += 1
    for u, adj in enumerate(up_in):
        for v, w, mid in adj:
            if mid is not None and (v, u) not in middle:
                middle[(v, u)] = mid
                shortcut_count += 1

    index = AHIndex.__new__(AHIndex)
    index.graph = graph
    index.proximity = bool(flags & _FLAG_PROXIMITY)
    index.stall_on_demand = bool(flags & _FLAG_STALL)
    index.use_elevating = False
    index.build_times = {}
    index.assignment = None  # not serialized; query path never reads it
    index.ranking = None
    index.levels = list(levels)
    index.h = h
    index.node_grid = NodeGrid(graph, GridPyramid(ox, oy, side, h))
    index._res = ContractionResult(
        rank=list(rank),
        up_out=up_out,
        up_in=up_in,
        middle=middle,
        shortcut_count=shortcut_count,
    )
    index._elev_f = {}
    index._elev_b = {}
    index._build_query_tables()
    return index


def _write_index_section(index: Union[AHIndex, HubLabelIndex], fh: BinaryIO) -> None:
    """Write ``index``'s section, ``HLIDX2`` or ``AHIDX1`` by its type."""
    if isinstance(index, HubLabelIndex):
        _write_hl_section(index, fh)
    else:
        _write_ah_section(index, fh)


def index_bytes(index: Union[AHIndex, HubLabelIndex]) -> int:
    """Size of the index's bundle section in bytes (Figure 10a in real
    units); nothing is written to disk or loaded."""
    buf = io.BytesIO()
    _write_index_section(index, buf)
    return buf.tell()


def bundle_bytes(index: Union[AHIndex, HubLabelIndex]) -> bytes:
    """The full :func:`save_bundle` image as one in-memory ``bytes``
    (``load_bundle(blob)`` reads it back)."""
    buf = io.BytesIO()
    save_bundle(index, buf)
    return buf.getvalue()


def _write_hl_section(index: HubLabelIndex, fh: BinaryIO) -> None:
    """Write the ``HLIDX2`` section: a hub-label index's query-time state.

    See the module docstring's exactness guard; the shortcut-middle dict
    rides along as parallel int32 columns so path unpacking survives the
    round-trip.  ``HLIDX2`` stores node ids as int32, so a graph of 2^31
    or more nodes raises :class:`ValueError`.
    """
    if index.graph.n >= 2**31:
        raise ValueError(
            f"HLIDX2 stores node ids as int32; {index.graph.n} nodes do not fit"
        )
    fh.write(_HL2_MAGIC)
    fh.write(struct.pack("<q", index.graph.n))
    for head, hub, dist, parent in (
        (index.fwd_head, index.fwd_hub, index.fwd_dist, index.fwd_parent),
        (index.bwd_head, index.bwd_hub, index.bwd_dist, index.bwd_parent),
    ):
        enc, count, lengths, hubs, parents, dist_payload = _encode_label_side(
            head, hub, dist, parent
        )
        fh.write(struct.pack("<Bq", enc, count))
        _write_blob(fh, lengths)
        _write_blob(fh, hubs)
        _write_blob(fh, parents)
        fh.write(dist_payload)
    middle = index._middle
    fh.write(struct.pack("<q", len(middle)))
    a_col = array("i")
    b_col = array("i")
    mid_col = array("i")
    for (a, b), mid in middle.items():
        a_col.append(a)
        b_col.append(b)
        mid_col.append(mid)
    _write_col(fh, a_col)
    _write_col(fh, b_col)
    _write_col(fh, mid_col)


# ----------------------------------------------------------------------
# HL2: compact hub-label sections (varint streams + delta-dict dists)
# ----------------------------------------------------------------------
# Encode and decode are deliberately pure-Python loops over plain ints
# and floats: both tiers therefore produce (and accept) the exact
# same bytes, preserving serialize's tier-invariance guarantee.  The
# loops touch each label entry a constant number of times — tens of
# milliseconds at the repo's benchmark scales, amortised over a bundle
# that is ~3-4x smaller on disk and over every pipe.
def _uvarint_append(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _uvarint_decode(buf) -> List[int]:
    """Every uvarint in ``buf`` (the streams are framed, so bounds are
    known); one flat pass, no per-value function calls."""
    out: List[int] = []
    append = out.append
    value = 0
    shift = 0
    for b in buf:
        if b & 0x80:
            value |= (b & 0x7F) << shift
            shift += 7
        else:
            append(value | (b << shift))
            value = 0
            shift = 0
    if shift:
        raise EOFError("truncated uvarint stream")
    return out


def _write_blob(fh: BinaryIO, blob: bytes) -> None:
    fh.write(struct.pack("<q", len(blob)))
    fh.write(blob)


def _read_blob(fh):
    (nbytes,) = struct.unpack("<q", _read_exact(fh, 8))
    return _read_exact(fh, nbytes)


def _encode_dists(dists: list, parent_pos: list) -> Tuple[int, bytes]:
    """Pick the narrowest *exact* distance encoding and build its payload.

    Guard order: ``i4`` when every distance is a non-negative integral
    value below 2^31 (int32 and float64 agree exactly on those, so the
    query path's sums cannot change); else ``dd`` when every entry's
    distance bit-exactly equals its parent entry's distance plus a
    float64 delta — verified here value by value, never assumed; else
    the raw ``f8`` fallback.  Deterministic, so save -> load -> save is
    byte-identical.
    """
    i4_ok = True
    for d in dists:
        if not (0 <= d <= 0x7FFFFFFF and d == int(d)):
            i4_ok = False
            break
    if i4_ok:
        return _DIST_I4, array("i", (int(d) for d in dists)).tobytes()

    deltas = [0.0] * len(dists)
    dd_ok = True
    for k, d in enumerate(dists):
        p = parent_pos[k]
        dp = dists[p] if p >= 0 else 0.0
        delta = d - dp
        if dp + delta != d:  # reconstruction would not be bit-exact
            dd_ok = False
            break
        deltas[k] = delta
    if dd_ok:
        freq: Dict[float, int] = {}
        for delta in deltas:
            freq[delta] = freq.get(delta, 0) + 1
        values = sorted(freq, key=lambda v: (-freq[v], v))
        lookup = {v: i for i, v in enumerate(values)}
        idx_stream = bytearray()
        for delta in deltas:
            _uvarint_append(idx_stream, lookup[delta])
        payload = struct.pack("<q", len(values))
        payload += array("d", values).tobytes()
        payload += struct.pack("<q", len(idx_stream)) + bytes(idx_stream)
        return _DIST_DD, payload

    return _DIST_F8, array("d", (float(d) for d in dists)).tobytes()


def _encode_label_side(head, hub, dist, parent) -> Tuple[int, int, bytes, bytes, bytes, bytes]:
    """One direction's columns -> compact streams.

    Returns ``(enc, count, lengths, hubs, parents, dist_payload)``.
    Hubs are strictly ascending per node, so each node stores its first
    hub absolute and then ``delta - 1``; parents become 1-based
    positions *within the node's own label slice* (0 = root), which the
    pruning invariant guarantees exist (every kept hub's search-tree
    parent is itself a kept hub).
    """
    heads = head.tolist()
    hubs = hub.tolist()
    dists = dist.tolist()
    parents = parent.tolist()
    n = len(heads) - 1
    count = len(hubs)
    lengths = bytearray()
    hub_stream = bytearray()
    parent_stream = bytearray()
    parent_pos = [-1] * count  # absolute index of each entry's parent
    for u in range(n):
        lo, hi = heads[u], heads[u + 1]
        _uvarint_append(lengths, hi - lo)
        prev = 0
        for k in range(lo, hi):
            h = hubs[k]
            _uvarint_append(hub_stream, h if k == lo else h - prev - 1)
            prev = h
            p = parents[k]
            if p < 0:
                _uvarint_append(parent_stream, 0)
            else:
                pos = bisect_left(hubs, p, lo, hi)
                if pos == hi or hubs[pos] != p:
                    raise ValueError(
                        "label parent outside its node's label slice; "
                        "cannot compact"
                    )
                parent_pos[k] = pos
                _uvarint_append(parent_stream, pos - lo + 1)
    enc, dist_payload = _encode_dists(dists, parent_pos)
    return (
        enc,
        count,
        bytes(lengths),
        bytes(hub_stream),
        bytes(parent_stream),
        dist_payload,
    )


def _decode_label_side(fh, n: int) -> Tuple[array, array, array, array]:
    """One HL2 direction -> ``(head, hub, dist, parent)`` columns.

    The layout a built index holds: ``array('q')`` ids and ``array('d')``
    distances (``i4`` values widen exactly: each is below 2^31).  Rows a
    query could not walk raise :class:`BundleCorrupted` (see the module
    docstring's load checks).
    """
    enc, count = struct.unpack("<Bq", _read_exact(fh, 9))
    if enc not in _DIST_ENC_NAMES:
        raise BundleCorrupted("HLIDX2", f"unknown distance encoding {enc}")
    lengths = _uvarint_decode(_read_blob(fh))
    hub_codes = _uvarint_decode(_read_blob(fh))
    parent_codes = _uvarint_decode(_read_blob(fh))
    if len(lengths) != n:
        raise BundleCorrupted("HLIDX2", "lengths stream does not match the node count")
    if not len(hub_codes) == len(parent_codes) == sum(lengths) == count:
        raise BundleCorrupted("HLIDX2", "label streams do not match the entry count")
    heads = [0, *accumulate(lengths)]
    hub = array("q")
    parent = array("q")
    pabs: List[int] = []  # absolute index of each entry's parent, -1: root
    for u, (lo, hi) in enumerate(zip(heads, heads[1:])):
        # First hub absolute, then ``delta - 1``: each hub is the running
        # code sum plus its position in the row, so rows ascend.
        hubs = list(map(add, accumulate(hub_codes[lo:hi]), range(hi - lo)))
        if hubs and hubs[-1] >= n:
            raise BundleCorrupted("HLIDX2", f"a hub of node {u} lies outside [0, {n})")
        hub.extend(hubs)
        row = parent_codes[lo:hi]
        if row.count(0) != 1 or hubs[row.index(0)] != u:
            raise BundleCorrupted(
                "HLIDX2", f"node {u}'s label needs exactly one root, holding {u}"
            )
        if max(row) > hi - lo:
            raise BundleCorrupted(
                "HLIDX2", f"a parent code of node {u} lies past its label"
            )
        pabs += [lo - 1 + code if code else -1 for code in row]
        parent.extend([hubs[code - 1] if code else -1 for code in row])
    del hub_codes, parent_codes  # freed before the walk: they set the load's peak
    order = _parents_first(pabs)

    if enc == _DIST_I4:
        dist = array("d", _read_array(fh, "i", count))
    elif enc == _DIST_F8:
        dist = _read_array(fh, "d", count)
    else:
        (dsize,) = struct.unpack("<q", _read_exact(fh, 8))
        values = _read_array(fh, "d", dsize).tolist()
        codes = _uvarint_decode(_read_blob(fh))
        if len(codes) != count:
            raise BundleCorrupted(
                "HLIDX2", "delta indexes do not match the entry count"
            )
        if codes and max(codes) >= dsize:
            raise BundleCorrupted(
                "HLIDX2", f"a delta index lies past the {dsize}-value dictionary"
            )
        dist = array("d", bytes(8 * count))
        for k in order:
            p = pabs[k]
            dist[k] = (dist[p] if p >= 0 else 0.0) + values[codes[k]]
    return array("q", heads), hub, dist, parent


def _parents_first(pabs: List[int]) -> array:
    """Every entry once, each after its parent (``pabs[k]``, -1 for a root).

    Walks each parent chain up to an entry an earlier walk placed, tagging
    the entries it passes; meeting its own tag again means a cycle.
    """
    tag = [0] * len(pabs)
    order = array("q")
    for k in range(len(pabs)):
        if tag[k]:
            continue
        chain = []
        x = k
        mine = k + 1
        while x >= 0 and not tag[x]:
            tag[x] = mine
            chain.append(x)
            x = pabs[x]
        if x >= 0 and tag[x] == mine:
            raise BundleCorrupted("HLIDX2", "label parent chains form a cycle")
        chain.reverse()
        order.extend(chain)
    return order


def _check_splits(middle: Dict[Tuple[int, int], int], n: int) -> None:
    """Reject a middles table whose shortcuts do not unpack to short paths.

    :func:`~repro.baselines.ch.unpack_shortcuts` splits ``(a, b)`` into
    ``(a, mid)`` and ``(mid, b)`` while a pair has a middle, which ends
    iff that split relation is acyclic.  Contraction guarantees it through
    ranks, which ``HLIDX2`` does not store, so a depth-first search checks
    the table itself.  An acyclic table can still unpack to ``2^depth``
    edges, so the same search counts each pair's unpacked edges in
    post-order (a pair without a middle is one edge); a valid shortcut
    unpacks to a simple path, at most ``n - 1`` edges.  ``state`` holds 0
    for a pair the search has not reached, -1 for a pair on the current
    search path and, once its splits are checked, its edge count.
    """
    state = dict.fromkeys(middle, 0)
    for start in middle:
        if state[start]:
            continue
        stack = [start]
        while stack:
            key = stack[-1]
            a, b = key
            mid = middle[key]
            if state[key]:
                if state[key] < 0:  # every split is counted: count this pair
                    count = (state.get((a, mid)) or 1) + (state.get((mid, b)) or 1)
                    if count > n - 1:
                        raise BundleCorrupted(
                            "HLIDX2",
                            f"shortcut ({a}, {b}) unpacks to more than {n - 1} edges",
                        )
                    state[key] = count
                stack.pop()
                continue
            state[key] = -1
            for split in ((a, mid), (mid, b)):
                seen = state.get(split)
                if seen == -1:
                    raise BundleCorrupted("HLIDX2", "shortcut middles form a cycle")
                if seen == 0:
                    stack.append(split)


# ----------------------------------------------------------------------
# Worker-tier request transport (request lanes)
# ----------------------------------------------------------------------
# Transient wire format for repro.serve.pool: same uvarint / width
# discipline as HL2, but never written to disk — a dispatcher packs a
# planner sub-batch into one flat block, ships it through a
# shared-memory lane, and the worker reconstructs exact values.
# Pure-Python loops over plain ints/floats keep the bytes identical
# under both tiers.

#: Request kind codes in the REQCOL block (order is part of the format).
_REQ_DISTANCE, _REQ_ONE_TO_MANY, _REQ_TABLE, _REQ_CRASH = 0, 1, 2, 3

#: The request types (and their subclasses) :func:`pack_requests` packs.
_REQCOL_TYPES = (DistanceRequest, OneToManyRequest, TableRequest, CrashRequest)


def pack_requests(requests) -> bytes:
    """A planner sub-batch -> one flat REQCOL block.

    Layout (little-endian)::

        u8  width          4 or 8 (HLIDX2's width discipline: int32
                           columns when every node id fits, else int64)
        <q  nreq
        kinds[nreq]        u8: 0 distance, 1 one_to_many, 2 table,
                           3 crash (the pool's test hook, no ids)
        <q  nmeta; meta    uvarint stream, request order: one_to_many
                           contributes ``len(targets)``, table
                           contributes ``len(sources), len(targets)``
        <q  nids; ids      node-id column (width bytes each), request
                           order: distance ``s, t``; one_to_many
                           ``s, targets...``; table ``sources...,
                           targets...``

    Any instance of the three planner request types packs, so a
    subclass travels as its base kind; :class:`CrashRequest` packs as
    kind 3.  Anything else raises :class:`TypeError`.
    """
    kinds = bytearray()
    meta = bytearray()
    ids: List[int] = []
    for req in requests:
        if isinstance(req, DistanceRequest):
            kinds.append(_REQ_DISTANCE)
            ids.append(req.source)
            ids.append(req.target)
        elif isinstance(req, OneToManyRequest):
            kinds.append(_REQ_ONE_TO_MANY)
            _uvarint_append(meta, len(req.targets))
            ids.append(req.source)
            ids.extend(req.targets)
        elif isinstance(req, TableRequest):
            kinds.append(_REQ_TABLE)
            _uvarint_append(meta, len(req.sources))
            _uvarint_append(meta, len(req.targets))
            ids.extend(req.sources)
            ids.extend(req.targets)
        elif isinstance(req, CrashRequest):
            kinds.append(_REQ_CRASH)
        else:
            raise TypeError(
                f"cannot pack request type {type(req).__name__!r}"
            )
    width = 4
    for v in ids:
        if not 0 <= v <= 0x7FFFFFFF:
            width = 8
            break
    out = bytearray()
    out.append(width)
    out += struct.pack("<q", len(kinds))
    out += kinds
    out += struct.pack("<q", len(meta))
    out += meta
    out += struct.pack("<q", len(ids))
    out += array("i" if width == 4 else "q", ids).tobytes()
    return bytes(out)


def unpack_requests(blob) -> List[Request]:
    """REQCOL block -> typed planner requests, exact round-trip.

    The constructors re-coerce every id to a plain Python ``int``, so
    reconstructed requests group, hash, and execute exactly like the
    originals — :func:`pack_requests` then this is the identity on the
    three planner request types (a subclass comes back as its base).
    Any other block raises :class:`ValueError`: every count must match
    the bytes it frames, and every kind, meta count and id must be
    consumed.
    """
    buf = memoryview(blob)
    try:
        width = buf[0]
        if width not in (4, 8):
            raise ValueError(f"bad REQCOL width {width}")
        (nreq,) = struct.unpack_from("<q", buf, 1)
        kinds = bytes(buf[9 : 9 + nreq])
        pos = 9 + len(kinds)
        (nmeta,) = struct.unpack_from("<q", buf, pos)
        meta = buf[pos + 8 : pos + 8 + nmeta]
        pos += 8 + len(meta)
        (nids,) = struct.unpack_from("<q", buf, pos)
        pos += 8
        if (len(kinds), len(meta), len(buf) - pos) != (nreq, nmeta, nids * width):
            raise ValueError("REQCOL section counts do not match the block")
        counts = _uvarint_decode(meta)
        # Plain Python ints out of the little-endian int32/int64 column
        # (frombytes for the reason _read_array gives).
        ids = array("i" if width == 4 else "q")
        ids.frombytes(buf[pos:])
        ids = ids.tolist()
        out: List[Request] = []
        mpos = 0
        ipos = 0
        for code in kinds:
            if code == _REQ_DISTANCE:
                out.append(DistanceRequest(ids[ipos], ids[ipos + 1]))
                ipos += 2
            elif code == _REQ_ONE_TO_MANY:
                k = counts[mpos]
                mpos += 1
                out.append(OneToManyRequest(ids[ipos], ids[ipos + 1 : ipos + 1 + k]))
                ipos += 1 + k
            elif code == _REQ_TABLE:
                ns, nt = counts[mpos], counts[mpos + 1]
                mpos += 2
                out.append(
                    TableRequest(ids[ipos : ipos + ns], ids[ipos + ns : ipos + ns + nt])
                )
                ipos += ns + nt
            elif code == _REQ_CRASH:
                out.append(CrashRequest())
            else:
                raise ValueError(f"unknown REQCOL request kind {code}")
    except (IndexError, struct.error, EOFError) as exc:
        raise ValueError(f"truncated REQCOL block ({exc})") from None
    # ``ipos`` advances by the declared counts, so a short slice above
    # leaves it past the id column's end.
    if (ipos, mpos) != (len(ids), len(counts)):
        raise ValueError(
            f"REQCOL requests consume {ipos} of {len(ids)} ids and "
            f"{mpos} of {len(counts)} meta counts"
        )
    return out


def _load_hl2_body(fh, graph: Graph) -> HubLabelIndex:
    """Read everything after the ``HLIDX2`` magic and rebuild the index."""
    (n,) = struct.unpack("<q", _read_exact(fh, 8))
    if n != graph.n:
        raise BundleCorrupted(
            "HLIDX2", f"index was built for {n} nodes but the graph has {graph.n}"
        )
    fwd = _decode_label_side(fh, n)
    bwd = _decode_label_side(fh, n)
    (mcount,) = struct.unpack("<q", _read_exact(fh, 8))
    a_col, b_col, mid_col = (
        _read_array(fh, "i", mcount).tolist() for _ in range(3)
    )
    for col in (a_col, b_col, mid_col):
        if col and (min(col) < 0 or max(col) >= n):
            raise BundleCorrupted(
                "HLIDX2", f"a shortcut-middle entry lies outside [0, {n})"
            )
    middle = dict(zip(zip(a_col, b_col), mid_col))
    _check_splits(middle, n)

    index = HubLabelIndex.__new__(HubLabelIndex)
    index.graph = graph
    index.fwd_head, index.fwd_hub, index.fwd_dist, index.fwd_parent = fwd
    index.bwd_head, index.bwd_hub, index.bwd_dist, index.bwd_parent = bwd
    index._middle = middle
    index._init_runtime_state()
    return index


# ----------------------------------------------------------------------
# Graph CSR serialization
# ----------------------------------------------------------------------
def _write_graph_section(graph: Graph, fh: BinaryIO) -> None:
    """Write the ``GCSR1`` section: ``graph``'s CSR columns, both directions.

    Every column is a single contiguous ``tobytes`` block — no per-edge
    Python objects touch the disk path.  The reverse triple is written as
    the counting-sort transpose of the forward one, which
    :func:`_check_transpose` checks on load.  That is the graph's own
    reverse triple for every built graph; only :meth:`Graph.reversed` of
    a graph whose rows are not sorted by target holds the same edges in
    another order.
    """
    forward = (graph.out_head, graph.out_dst, graph.out_w)
    fh.write(_GRAPH_MAGIC)
    fh.write(struct.pack("<qq", graph.n, graph.m))
    _write_col(fh, array("d", graph.xs))
    _write_col(fh, array("d", graph.ys))
    for col in (*forward, *_reverse_csr(graph.n, *forward)):
        _write_col(fh, col)


def _load_graph_body(fh) -> Graph:
    """Read everything after the ``GCSR1`` magic and rebuild the graph.

    Both CSR triples come straight off the bytes and the graph keeps them
    as read (no per-edge tuples are allocated): it is ``frombytes`` into
    six flat arrays plus the coordinate columns.  Each triple is
    range-checked before a search can index with it
    (:func:`_check_csr`), and the reverse triple must equal the transpose
    re-derived from the forward one (:func:`_check_transpose`); damage
    raises :class:`BundleCorrupted`.
    """
    n, m = struct.unpack("<qq", _read_exact(fh, 16))
    # Coordinates stay plain Python lists (Graph.coord hands them out
    # directly); the six CSR columns come up as arrays with zero
    # re-derivation.
    xs = _read_array(fh, "d", n).tolist()
    ys = _read_array(fh, "d", n).tolist()
    out_head = _read_array(fh, "q", n + 1)
    out_dst = _read_array(fh, "q", m)
    out_w = _read_array(fh, "d", m)
    in_head = _read_array(fh, "q", n + 1)
    in_src = _read_array(fh, "q", m)
    in_w = _read_array(fh, "d", m)
    _check_csr(n, m, out_head, out_dst, out_w, "out")
    _check_csr(n, m, in_head, in_src, in_w, "in")
    _check_transpose(n, (out_head, out_dst, out_w), (in_head, in_src, in_w))
    return Graph.from_csr(
        xs, ys, out_head, out_dst, out_w, in_head, in_src, in_w
    )


def _check_csr(n: int, m: int, head, ids, weights, side: str) -> None:
    """Reject a CSR triple a search could not walk.

    ``head`` must run from 0 to ``m`` without decreasing, every id must
    lie in ``[0, n)`` (a negative one would silently read another node's
    state) and every weight must be finite and non-negative.  ``side``
    is ``"out"`` or ``"in"``.
    """
    heads = head.tolist()
    if heads[0] != 0 or heads[-1] != m or not all(map(le, heads, heads[1:])):
        raise BundleCorrupted(
            "GCSR1", f"{side}_head does not run from 0 to {m} without decreasing"
        )
    ids = ids.tolist()
    if ids and (min(ids) < 0 or max(ids) >= n):
        raise BundleCorrupted("GCSR1", f"{side} edges name a node outside [0, {n})")
    if not all(0.0 <= w < _INF for w in weights.tolist()):
        raise BundleCorrupted(
            "GCSR1", f"{side} edges have a negative, NaN or infinite weight"
        )


def _check_transpose(n: int, forward, reverse) -> None:
    """Reject a reverse CSR triple that is not the forward one's transpose.

    Every writer stores exactly the counting-sort transpose
    :func:`repro.graph.graph._reverse_csr` derives, so one re-derivation
    and a byte comparison decide it.  Without the check a swapped
    ``in_src`` pair loaded and backward searches walked edges the
    forward graph does not have, answering shorter than any real path.
    """
    derived = _reverse_csr(n, *forward)
    for side, got, want in zip(("in_head", "in_src", "in_w"), reverse, derived):
        if got.tobytes() != want.tobytes():
            raise BundleCorrupted(
                "GCSR1", f"{side} is not the transpose of the out columns"
            )


# ----------------------------------------------------------------------
# Bundles: one file holding the graph and its index
# ----------------------------------------------------------------------
def save_bundle(
    index: Union[AHIndex, HubLabelIndex], sink: Union[str, os.PathLike, BinaryIO]
) -> None:
    """Write ``index``'s graph followed by the index itself.

    Works for AH and hub-label indexes alike (the index section's magic
    records which it was).  The result is self-contained:
    :func:`load_bundle` needs no separately-loaded network, which is the
    deployment story the paper's §7 memory-footprint discussion asks
    for.  The ``BCRC1`` trailer — one (offset, length, crc32) entry per
    section — follows, so :func:`load_bundle` can verify integrity
    before decoding.
    """
    own = isinstance(sink, (str, os.PathLike))
    fh: BinaryIO = open(sink, "wb") if own else sink  # type: ignore[assignment]
    try:
        w = _CrcWriter(fh)
        _write_graph_section(index.graph, w)  # type: ignore[arg-type]
        graph_len, graph_crc = w.section_done()
        _write_index_section(index, w)  # type: ignore[arg-type]
        index_len, index_crc = w.section_done()
        entries = ((0, graph_len, graph_crc), (graph_len, index_len, index_crc))
        for entry in entries:
            fh.write(_TRAILER_ENTRY.pack(*entry))
        fh.write(struct.pack("<q", len(entries)))
        fh.write(_TRAILER_MAGIC)
    finally:
        if own:
            fh.close()


def _parse_trailer_tail(tail: bytes, total: int):
    """``(count, trailer_start)`` from a bundle's last bytes, or None.

    ``tail`` is the final ``_TRAILER_TAIL`` bytes of the image and
    ``total`` the number of bundle bytes; a present-but-implausible
    trailer raises (it means the trailer itself took the damage).
    """
    if len(tail) < _TRAILER_TAIL or tail[8:] != _TRAILER_MAGIC:
        return None
    (count,) = struct.unpack("<q", tail[:8])
    tstart = total - _TRAILER_TAIL - _TRAILER_ENTRY.size * count
    if count <= 0 or tstart < 0:
        raise BundleCorrupted(
            "trailer", f"implausible section count {count}"
        )
    return count, tstart


def _check_entry(offset: int, length: int, limit: int) -> None:
    if offset < 0 or length < 0 or offset + length > limit:
        raise BundleCorrupted(
            "trailer",
            f"section entry ({offset}, {length}) outside the "
            f"{limit}-byte data region",
        )


def _verify_crc_trailer(fh) -> None:
    """Verify a bundle's ``BCRC1`` trailer before anything is decoded.

    ``fh`` is seekable and read from its current position to its end.
    Raises :class:`BundleCorrupted` naming the damaged section on a CRC
    mismatch, and naming ``"trailer"`` when the trailer is missing or
    implausible.  The read position is left where it was found.
    """
    pos = fh.tell()
    end = fh.seek(0, 2)
    try:
        fh.seek(max(pos, end - _TRAILER_TAIL))
        parsed = _parse_trailer_tail(bytes(fh.read(_TRAILER_TAIL)), end - pos)
        if parsed is None:
            raise BundleCorrupted("trailer", _NO_TRAILER)
        count, tstart = parsed
        fh.seek(pos + tstart)
        entries = [
            _TRAILER_ENTRY.unpack(fh.read(_TRAILER_ENTRY.size))
            for _ in range(count)
        ]
        for offset, length, crc in entries:
            _check_entry(offset, length, tstart)
            fh.seek(pos + offset)
            actual = 0
            remaining = length
            while remaining:
                chunk = fh.read(min(remaining, 1 << 20))
                if not chunk:
                    raise BundleCorrupted(
                        "trailer", "file shorter than its trailer claims"
                    )
                actual = zlib.crc32(chunk, actual)
                remaining -= len(chunk)
            if actual != crc:
                fh.seek(pos + offset)
                name = _section_name(bytes(fh.read(8)), offset)
                raise BundleCorrupted(
                    name,
                    f"CRC mismatch (stored 0x{crc:08x}, "
                    f"computed 0x{actual:08x})",
                )
    finally:
        fh.seek(pos)


def load_bundle(source: Source) -> Tuple[Graph, Union[AHIndex, HubLabelIndex]]:
    """Load a ``(graph, index)`` pair written by :func:`save_bundle`.

    The index section's magic selects the loader, so callers get back
    whichever engine the bundle was saved with (``AHIDX1`` and
    ``HLIDX2`` magics are deliberately the same length).

    ``source`` may be a path, ``str`` or ``os.PathLike`` (what
    worker-tier processes boot from), an open binary file or an
    in-memory buffer (``bytes`` / ``bytearray`` / ``memoryview``).

    The ``BCRC1`` trailer's section CRCs are checked before decoding: a
    torn or bit-flipped bundle raises :class:`BundleCorrupted` naming
    the failing section (``"trailer"`` when there is no trailer)
    instead of mis-decoding.  A non-seekable stream is read into memory
    first so it is verified too.  A section magic that is not the one
    its place calls for fails as its section (``"GCSR1"``, or
    ``"index"`` when the index magic is neither kind), and decode-time
    ``struct.error`` / ``EOFError`` are wrapped into
    :class:`BundleCorrupted` as well.
    """
    fh, own = _open_source(source)
    try:
        if not fh.seekable():
            fh = _BufferReader(fh.read())
        _verify_crc_trailer(fh)
        section = "GCSR1"
        try:
            if fh.read(len(_GRAPH_MAGIC)) != _GRAPH_MAGIC:
                raise BundleCorrupted(section, "bad section magic")
            graph = _load_graph_body(fh)
            section = "index"
            magic = fh.read(len(_MAGIC))
            if magic == _MAGIC:
                section = "AHIDX1"
                index = _load_index_body(fh, graph)
            elif magic == _HL2_MAGIC:
                section = "HLIDX2"
                index = _load_hl2_body(fh, graph)
            else:
                raise BundleCorrupted(section, "unknown section magic")
        except (struct.error, EOFError) as exc:
            raise BundleCorrupted(section, str(exc)) from exc
    finally:
        if own:
            fh.close()
    return graph, index


# ----------------------------------------------------------------------
# Inspection: structural footprint report + CLI
# ----------------------------------------------------------------------
def inspect_bundle(source: Source) -> List[dict]:
    """Parse a bundle's section structure.

    Purely structural — nothing is decoded into arrays or objects and no
    CRC is computed.  Returns one dict per section, in the order of the
    ``BCRC1`` trailer's entries, with its magic, byte offset/size and a
    footprint breakdown: per-stream sizes and the distance encoding for
    ``HLIDX2``, node/edge counts for graphs.  The trailer comes last as
    its own pseudo-section, so offsets and sizes tile the file.
    ``label_bytes`` spans everything between a hub-label section's
    header and its middles block.  A file with no trailer, as in
    :func:`load_bundle`, or a section that does not parse raises
    :class:`BundleCorrupted`.  Backs ``python -m repro.serialize
    --inspect`` and the footprint benchmarks.
    """
    fh, own = _open_source(source)
    try:
        data = bytes(fh.read(-1))
    finally:
        if own:
            fh.close()
    parsed = _parse_trailer_tail(data[-_TRAILER_TAIL:], len(data))
    if parsed is None:
        raise BundleCorrupted("trailer", _NO_TRAILER)
    count, tstart = parsed
    entries = [
        _TRAILER_ENTRY.unpack_from(data, tstart + _TRAILER_ENTRY.size * i)
        for i in range(count)
    ]
    sections: List[dict] = []
    for offset, length, _crc in entries:
        _check_entry(offset, length, tstart)
        sec = data[offset : offset + length]
        name = _section_name(sec, offset)
        try:
            detail = _section_detail(name, sec)
        except (struct.error, OverflowError) as exc:  # a length past the section
            raise BundleCorrupted(name, str(exc)) from exc
        sections.append(
            {"magic": name, "offset": offset, "bytes": length, "detail": detail}
        )
    sections.append(
        {
            "magic": "BCRC1",
            "offset": tstart,
            "bytes": len(data) - tstart,
            "detail": {
                "sections": count,
                "crc32": [
                    {"offset": off, "bytes": ln, "crc32": f"0x{crc:08x}"}
                    for off, ln, crc in entries
                ],
            },
        }
    )
    return sections


def _section_detail(name: str, sec: bytes) -> dict:
    """The footprint breakdown :func:`inspect_bundle` reports for one
    section, ``sec`` being its bytes and ``name`` its magic's name."""
    if name == "GCSR1":
        n, m = struct.unpack_from("<qq", sec, len(_GRAPH_MAGIC))
        return {"n": n, "m": m}
    if name == "AHIDX1":
        return {"n": struct.unpack_from("<i", sec, len(_MAGIC))[0]}
    if name != "HLIDX2":
        raise BundleCorrupted(name, "unknown section magic")
    pos = len(_HL2_MAGIC)
    (n,) = struct.unpack_from("<q", sec, pos)
    pos += 8
    label_start = pos
    entries = 0
    encs = []
    per_side = []
    for _ in range(2):
        side_start = pos
        enc, count = struct.unpack_from("<Bq", sec, pos)
        if enc not in _DIST_ENC_NAMES:
            raise BundleCorrupted(name, f"unknown distance encoding {enc}")
        pos += 9
        entries += count
        streams = {}
        for stream in ("lengths", "hubs", "parents"):
            (nb,) = struct.unpack_from("<q", sec, pos)
            streams[stream] = nb
            pos += 8 + nb
        if enc == _DIST_I4:
            streams["dists"] = 4 * count
        elif enc == _DIST_F8:
            streams["dists"] = 8 * count
        else:
            (dsize,) = struct.unpack_from("<q", sec, pos)
            (inb,) = struct.unpack_from("<q", sec, pos + 8 + 8 * dsize)
            streams["dists"] = 8 + 8 * dsize + 8 + inb
            streams["delta_dict_values"] = dsize
        pos += streams["dists"]
        encs.append(_DIST_ENC_NAMES[enc])
        per_side.append(
            {"entries": count, "bytes": pos - side_start, "streams": streams}
        )
    label_bytes = pos - label_start
    (mcount,) = struct.unpack_from("<q", sec, pos)
    return {
        "n": n,
        "entries": entries,
        "label_bytes": label_bytes,
        "bytes_per_entry": round(label_bytes / entries, 3) if entries else 0.0,
        "middles": mcount,
        "encoding": {"hub": "uvarint-delta", "dist": "/".join(encs), "parent": "uvarint-pos"},
        "dist_encoding": encs,
        "sides": per_side,
    }


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.serialize --inspect <bundle>``: footprint report."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serialize",
        description="Inspect the section structure of a bundle file.",
    )
    parser.add_argument(
        "--inspect",
        metavar="PATH",
        required=True,
        help="bundle file to report on",
    )
    args = parser.parse_args(argv)
    try:
        sections = inspect_bundle(args.inspect)
    except OSError as exc:
        print(f"error: cannot read {args.inspect}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except BundleCorrupted as exc:
        print(
            f"error: {args.inspect} is not a valid bundle: {exc}", file=sys.stderr
        )
        return 2
    total = 0
    for sec in sections:
        total += sec["bytes"]
        detail = sec["detail"]
        print(f"{sec['magic']:<8} offset={sec['offset']:<12} bytes={sec['bytes']}")
        if "m" in detail:
            print(f"         n={detail['n']} m={detail['m']}")
        elif "entries" in detail:
            enc = detail["encoding"]
            print(
                f"         n={detail['n']} entries={detail['entries']} "
                f"middles={detail['middles']}"
            )
            print(
                f"         label_bytes={detail['label_bytes']} "
                f"({detail['bytes_per_entry']} B/entry)  "
                f"hub={enc['hub']} dist={enc['dist']} parent={enc['parent']}"
            )
            for tag, side in zip(("fwd", "bwd"), detail["sides"]):
                streams = side.get("streams")
                if streams:
                    parts = " ".join(
                        f"{k}={v}" for k, v in streams.items()
                        if k != "delta_dict_values"
                    )
                    print(f"           {tag}: {side['bytes']} B  {parts}")
        elif "sections" in detail:
            crcs = " ".join(e["crc32"] for e in detail["crc32"])
            print(f"         covers {detail['sections']} section(s)  {crcs}")
        else:
            print(f"         n={detail['n']}")
    print(f"total    {total} bytes, {len(sections)} section(s)")
    return 0

"""Tests for index serialization and metric customization (§7 extensions)."""

import pathlib
import struct

import pytest

from repro.core import AHIndex, index_bytes
from repro.core.serialize import (
    BundleCorrupted,
    bundle_bytes,
    inspect_bundle,
    load_bundle,
    save_bundle,
)
from repro.graph import GraphBuilder
from repro.graph.traversal import distance_query

from conftest import random_pairs, recrc


def reweighted(graph, factor_fn):
    """Copy of ``graph`` with each weight passed through ``factor_fn``."""
    b = GraphBuilder()
    for u in graph.nodes():
        b.add_node(*graph.coord(u))
    for u, v, w in graph.edges():
        b.add_edge(u, v, factor_fn(u, v, w))
    return b.build()


def round_trip(index):
    """``index`` saved as a bundle and loaded back."""
    _, loaded = load_bundle(bundle_bytes(index))
    return loaded


class TestSerialization:
    def test_roundtrip_distances(self, towns_ah, towns_graph):
        loaded = round_trip(towns_ah)
        for s, t in random_pairs(towns_graph, 40, seed=1):
            assert loaded.distance(s, t) == pytest.approx(
                towns_ah.distance(s, t)
            )

    def test_roundtrip_paths(self, towns_ah, towns_graph):
        loaded = round_trip(towns_ah)
        for s, t in random_pairs(towns_graph, 12, seed=2):
            p = loaded.shortest_path(s, t)
            p.validate(towns_graph)
            assert p.length == pytest.approx(
                distance_query(towns_graph, s, t)
            )

    def test_flags_preserved(self, towns_graph):
        original = AHIndex(towns_graph, proximity=False, stall_on_demand=True)
        loaded = round_trip(original)
        assert loaded.proximity is False
        assert loaded.stall_on_demand is True

    def test_file_roundtrip(self, towns_ah, towns_graph, tmp_path):
        path = str(tmp_path / "index.bundle")
        save_bundle(towns_ah, path)
        _, loaded = load_bundle(path)
        s, t = 0, towns_graph.n - 1
        assert loaded.distance(s, t) == pytest.approx(towns_ah.distance(s, t))

    def test_bad_magic_rejected(self, towns_ah):
        """A damaged ``AHIDX1`` magic in a CRC-valid bundle fails typed,
        as the ``"index"`` section."""
        blob = bundle_bytes(towns_ah)
        (section,) = [s for s in inspect_bundle(blob) if s["magic"] == "AHIDX1"]
        data = bytearray(blob)
        data[section["offset"]] ^= 0xFF
        with pytest.raises(BundleCorrupted, match="unknown section magic") as exc_info:
            load_bundle(recrc(data))
        assert exc_info.value.section == "index"

    def test_index_bytes_reasonable(self, towns_ah, towns_graph):
        size = index_bytes(towns_ah)
        # Compact: well under 200 bytes per stored entry.
        assert 0 < size < 200 * towns_ah.index_size()

    def test_loaded_index_rejects_customization(self, towns_ah, towns_graph):
        loaded = round_trip(towns_ah)
        with pytest.raises(ValueError, match="deserialized"):
            loaded.with_weights(towns_graph)


class AhStream:
    """A bundle with the byte offsets of its ``AHIDX1`` section's fields.

    Section layout (see ``repro.core.serialize``): magic, header
    ``<iii3d``, ``levels[n]`` and ``rank[n]`` (int32), then ``up_out``
    as ``counts[n]`` (int32), ``total`` (int64), ``targets``,
    ``weights``, ``middles``, then ``up_in`` in the same layout.
    :meth:`load` recomputes the trailer CRCs, so an edit reaches the
    decoder's own checks.
    """

    def __init__(self, index):
        blob = bundle_bytes(index)
        (section,) = [s for s in inspect_bundle(blob) if s["magic"] == "AHIDX1"]
        self.data = bytearray(blob)
        self.header = section["offset"] + 7
        self.n, self.h = struct.unpack_from("<ii", self.data, self.header)
        self.levels = self.header + 36
        self.counts = self.levels + 8 * self.n
        (self.total,) = struct.unpack_from("<q", self.data, self.counts + 4 * self.n)
        self.targets = self.counts + 4 * self.n + 8
        self.weights = self.targets + 4 * self.total
        self.middles = self.targets + 12 * self.total

    def tail(self, i):
        """The node whose ``up_out`` list holds entry ``i``."""
        u, end = 0, self.get(self.counts, 0)
        while end <= i:
            u += 1
            end += self.get(self.counts, u)
        return u

    def get(self, offset, i):
        return struct.unpack_from("<i", self.data, offset + 4 * i)[0]

    def put(self, offset, i, value):
        struct.pack_into("<i", self.data, offset + 4 * i, value)

    def load(self):
        return load_bundle(recrc(self.data))


class TestIndexValidation:
    """Every id an ``AHIDX1`` stream carries is range-checked on load.

    Before these checks a target of -1 loaded and answered some queries
    wrong, a target >= n raised ``IndexError`` mid-query, and a negative
    level loaded.  A negative weight loaded and came back as a distance,
    and a shortcut whose middle was its own tail loaded and sent
    ``shortest_path`` into an endless unpacking loop.
    """

    def assert_rejected(self, stream, detail):
        with pytest.raises(BundleCorrupted, match=detail) as exc_info:
            stream.load()
        assert exc_info.value.section == "AHIDX1"

    @pytest.mark.parametrize("damage", ["negative", "sum"])
    def test_counts(self, towns_ah, damage):
        stream = AhStream(towns_ah)
        a = next(u for u in range(stream.n) if stream.get(stream.counts, u) > 0)
        count = stream.get(stream.counts, a)
        if damage == "negative":
            # keeps the sum equal to the stored total
            stream.put(stream.counts, a, -1)
            after = stream.get(stream.counts, a + 1)
            stream.put(stream.counts, a + 1, after + count + 1)
            self.assert_rejected(stream, "negative edge count")
        else:
            stream.put(stream.counts, a, count + 1)
            self.assert_rejected(stream, "counts sum to")

    @pytest.mark.parametrize("bad", ["-1", "n", "i32-max"])
    def test_targets(self, towns_ah, bad):
        stream = AhStream(towns_ah)
        value = {"-1": -1, "n": stream.n, "i32-max": 2**31 - 1}[bad]
        stream.put(stream.targets, stream.total // 2, value)
        self.assert_rejected(stream, "up_out has a target outside")

    @pytest.mark.parametrize("bad", ["-2", "n"])
    def test_middles(self, towns_ah, bad):
        stream = AhStream(towns_ah)
        stream.put(stream.middles, 0, {"-2": -2, "n": stream.n}[bad])
        self.assert_rejected(stream, "up_out has a middle outside")

    @pytest.mark.parametrize("bad", ["-3", "h+1"])
    def test_levels(self, towns_ah, bad):
        stream = AhStream(towns_ah)
        stream.put(stream.levels, 0, {"-3": -3, "h+1": stream.h + 1}[bad])
        self.assert_rejected(stream, "level lies outside")

    @pytest.mark.parametrize("value", [0, 65])
    def test_grid_height(self, towns_ah, value):
        stream = AhStream(towns_ah)
        struct.pack_into("<i", stream.data, stream.header + 4, value)
        self.assert_rejected(stream, "grid height")

    @pytest.mark.parametrize("value", [-1000.0, float("nan"), float("inf")])
    def test_weights(self, towns_ah, value):
        stream = AhStream(towns_ah)
        struct.pack_into("<d", stream.data, stream.weights, value)
        self.assert_rejected(stream, "up_out has a negative, NaN or infinite weight")

    def test_middle_ranked_below_its_ends(self, towns_ah):
        stream = AhStream(towns_ah)
        i = next(i for i in range(stream.total) if stream.get(stream.middles, i) >= 0)
        stream.put(stream.middles, i, stream.tail(i))
        self.assert_rejected(stream, "not ranked below both of its ends")

    def test_bundle_node_count_mismatch_is_typed(self, towns_ah, towns_graph):
        """Inside a bundle an ``AHIDX1`` n that differs from the bundle's
        own graph is damage, not a caller's wrong graph."""
        blob = bundle_bytes(towns_ah)
        (section,) = [s for s in inspect_bundle(blob) if s["magic"] == "AHIDX1"]
        data = bytearray(blob)
        struct.pack_into("<i", data, section["offset"] + 7, towns_graph.n + 1)
        with pytest.raises(BundleCorrupted, match="built for") as exc_info:
            load_bundle(recrc(data))
        assert exc_info.value.section == "AHIDX1"


class TestCustomization:
    def test_exact_on_new_metric(self, towns_ah, towns_graph):
        jam = reweighted(
            towns_graph, lambda u, v, w: w * (3.0 if w < 15 else 1.0)
        )
        custom = towns_ah.with_weights(jam)
        for s, t in random_pairs(towns_graph, 40, seed=3):
            assert custom.distance(s, t) == pytest.approx(
                distance_query(jam, s, t)
            )

    def test_paths_valid_on_new_metric(self, towns_ah, towns_graph):
        jam = reweighted(towns_graph, lambda u, v, w: w * 1.7)
        custom = towns_ah.with_weights(jam)
        for s, t in random_pairs(towns_graph, 10, seed=4):
            p = custom.shortest_path(s, t)
            p.validate(jam)

    def test_much_faster_than_rebuild(self, towns_ah, towns_graph):
        jam = reweighted(towns_graph, lambda u, v, w: w * 2.0)
        custom = towns_ah.with_weights(jam)
        assert custom.build_times["customization"] < max(
            0.05, towns_ah.build_time() / 5
        )

    def test_uniform_scaling_scales_distances(self, towns_ah, towns_graph):
        doubled = reweighted(towns_graph, lambda u, v, w: w * 2.0)
        custom = towns_ah.with_weights(doubled)
        for s, t in random_pairs(towns_graph, 15, seed=5):
            assert custom.distance(s, t) == pytest.approx(
                2.0 * towns_ah.distance(s, t)
            )

    def test_node_count_mismatch_rejected(self, towns_ah, city_graph):
        with pytest.raises(ValueError, match="nodes"):
            towns_ah.with_weights(city_graph)

    def test_customized_disables_metric_dependent_constraints(
        self, towns_ah, towns_graph
    ):
        custom = towns_ah.with_weights(towns_graph)
        assert custom.proximity is False
        assert custom.use_elevating is False


class TestPathLikeSources:
    """``load_bundle`` opens an ``os.PathLike`` as it opens a ``str``
    path, and ``save_bundle`` writes to one."""

    def test_load_bundle(self, towns_ah, towns_graph, tmp_path):
        path = pathlib.Path(tmp_path / "towns.bundle")
        save_bundle(towns_ah, path)
        assert path.read_bytes() == bundle_bytes(towns_ah)
        graph, loaded = load_bundle(path)
        assert graph.n == towns_graph.n
        for s, t in random_pairs(towns_graph, 20, seed=6):
            assert loaded.distance(s, t) == towns_ah.distance(s, t)

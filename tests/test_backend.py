"""Unit tests for :mod:`repro.backend` (selection, metadata) and the one
column container every tier shares."""

import json
import math
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro import backend
from repro.core import serialize
from repro.graph.graph import Graph, _as_col


class TestSelection:
    def test_active_is_canonical(self):
        assert backend.active() in (backend.NATIVE, backend.PURE)

    def test_forced_restores_previous(self):
        before = backend.active()
        with backend.forced("pure"):
            assert backend.active() == backend.PURE
        assert backend.active() == before

    def test_forced_restores_on_exception(self):
        before = backend.active()
        with pytest.raises(RuntimeError):
            with backend.forced("pure"):
                raise RuntimeError("boom")
        assert backend.active() == before

    def test_aliases(self):
        with backend.forced("python"):
            assert backend.active() == backend.PURE

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            backend.force_backend("fortran")

    def test_force_numpy_without_numpy(self):
        # numpy is no tier: its old names are as unknown as any other.
        for name in ("numpy", "np", "fast"):
            with pytest.raises(ValueError):
                backend.force_backend(name)


class TestColumns:
    def test_bytes_round_trip(self):
        """serialize's column reader rebuilds int64/float64 columns from
        a memoryview window, where ``array(typecode, buf)`` would read
        one element per byte."""
        idx = array("q", [7, -1, 2**40])
        flt = array("d", [1.25, float("inf")])
        buf = serialize._BufferReader(idx.tobytes() + flt.tobytes())
        assert serialize._read_array(buf, "q", 3) == idx
        assert serialize._read_array(buf, "d", 2) == flt

    def test_as_cols_normalise_cross_container(self):
        src = array("q", [4, 5, 6])
        assert _as_col(src, "q") is src  # already the right container: no copy
        converted = _as_col([4, 5, 6], "q")
        assert isinstance(converted, array) and converted.typecode == "q"
        assert converted == src
        wts = array("d", [0.5])
        assert _as_col(wts, "d") is wts
        assert _as_col([0.5], "d") == wts


class TestDescribe:
    def test_metadata_keys(self):
        meta = backend.describe()
        assert set(meta) >= {
            "backend", "tier", "native_available", "python", "platform"
        }
        assert "numpy_available" not in meta
        with backend.forced("pure"):
            assert backend.describe()["backend"] == "pure-python"


class TestGraphStorage:
    def test_columns_follow_active_backend(self):
        from repro.datasets import grid_city

        tiers = (["native"] if backend.HAS_NATIVE else []) + ["pure"]
        for tier in tiers:
            with backend.forced(tier):
                g = grid_city(3, 3, seed=1)
            for col in (g.out_head, g.out_dst, g.in_head, g.in_src):
                assert isinstance(col, array) and col.typecode == "q"
            for col in (g.out_w, g.in_w):
                assert isinstance(col, array) and col.typecode == "d"

    def test_adjacency_views_hold_plain_python_scalars(self):
        from repro.datasets import grid_city

        g = grid_city(3, 3, seed=1)
        v, w = g.out[0][0]
        assert type(v) is int
        assert type(w) is float

    def test_total_weight_is_exactly_rounded(self):
        # Left to right, 1e16 + 1.0 + 1.0 rounds to 1e16 twice; fsum
        # keeps both ones.
        weights = [1e16, 1.0, 1.0]
        out = [[(i + 1, w)] for i, w in enumerate(weights)] + [[]]
        g = Graph([0.0] * 4, [0.0] * 4, out)
        assert sum(weights) == 1e16
        assert g.total_weight() == math.fsum(weights) == 1e16 + 2.0


_NO_NUMPY_PROBE = """
import json, sys
from repro import backend
from repro.baselines import HubLabelIndex
from repro.core import AHIndex
from repro.core.serialize import bundle_bytes, load_bundle
from repro.datasets import grid_city

graph = grid_city(4, 4, seed=1)
for index in (HubLabelIndex(graph), AHIndex(graph, elevating=True)):
    _, loaded = load_bundle(bundle_bytes(index))
    for s, t in ((0, 15), (3, 12), (5, 5)):
        assert loaded.distance(s, t) == index.distance(s, t)
    assert loaded.shortest_path(0, 15).nodes == index.shortest_path(0, 15).nodes
print(json.dumps({"tier": backend.active(), "numpy": "numpy" in sys.modules}))
"""


def test_package_never_imports_numpy():
    """Building, querying and round-tripping HL and AH bundles leaves
    numpy unimported, whether or not it is installed."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["tier"] == backend.active()
    assert out["numpy"] is False

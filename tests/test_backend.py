"""Unit tests for :mod:`repro.backend` (selection, columns, metadata)."""

from array import array

import pytest

from repro import backend


class TestSelection:
    def test_active_is_canonical(self):
        assert backend.active() in (backend.NATIVE, backend.NUMPY, backend.PURE)

    def test_numpy_is_default_when_available(self):
        if backend.HAS_NUMPY:
            with backend.forced("numpy"):
                assert backend.use_numpy()

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
        if backend.HAS_NUMPY:
            with backend.forced("fast"):
                assert backend.active() == backend.NUMPY

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            backend.force_backend("fortran")

    def test_force_numpy_without_numpy(self):
        if not backend.HAS_NUMPY:
            with pytest.raises(RuntimeError):
                backend.force_backend("numpy")


class TestColumns:
    @pytest.mark.parametrize("name", ["pure"] + (["numpy"] if backend.HAS_NUMPY else []))
    def test_constructors_round_trip(self, name):
        with backend.forced(name):
            idx = backend.index_col([3, 1, 2])
            flt = backend.float_col([0.5, 1.5])
            assert list(idx) == [3, 1, 2]
            assert list(flt) == [0.5, 1.5]
            assert list(backend.index_zeros(3)) == [0, 0, 0]
            assert list(backend.float_zeros(2)) == [0.0, 0.0]

    @pytest.mark.parametrize("name", ["pure"] + (["numpy"] if backend.HAS_NUMPY else []))
    def test_bytes_round_trip(self, name):
        with backend.forced(name):
            idx = backend.index_col([7, -1, 2**40])
            flt = backend.float_col([1.25, float("inf")])
            assert list(backend.index_col_from_bytes(backend.col_bytes(idx))) == list(idx)
            assert list(backend.float_col_from_bytes(backend.col_bytes(flt))) == list(flt)

    def test_bytes_identical_across_backends(self):
        if not backend.HAS_NUMPY:
            pytest.skip("needs numpy to compare the two containers")
        values = [0, 1, -5, 2**50]
        with backend.forced("numpy"):
            np_bytes = backend.col_bytes(backend.index_col(values))
        with backend.forced("pure"):
            pure_bytes = backend.col_bytes(backend.index_col(values))
        assert np_bytes == pure_bytes

    def test_as_cols_normalise_cross_container(self):
        src = array("q", [4, 5, 6])
        with backend.forced("pure"):
            same = backend.as_index_col(src)
            assert same is src  # already the right container: no copy
        if backend.HAS_NUMPY:
            with backend.forced("numpy"):
                converted = backend.as_index_col(src)
                assert isinstance(converted, backend.np.ndarray)
                assert converted.tolist() == [4, 5, 6]
            with backend.forced("pure"):
                back = backend.as_index_col(converted)
                assert isinstance(back, array)
                assert back.tolist() == [4, 5, 6]

    def test_np_view_shares_memory(self):
        if not backend.HAS_NUMPY:
            pytest.skip("views need numpy")
        col = array("q", [1, 2, 3])
        view = backend.np_view_i64(col)
        assert view.tolist() == [1, 2, 3]
        col[0] = 9
        assert view[0] == 9  # zero-copy: same buffer

    def test_col_sum(self):
        assert backend.col_sum(array("d", [1.5, 2.5])) == 4.0
        if backend.HAS_NUMPY:
            assert backend.col_sum(backend.np.asarray([1.5, 2.5])) == 4.0

    def test_col_sum_identical_across_containers(self):
        # The parity contract covers reductions too: same float out of
        # either container, regardless of summation-order quirks.
        if not backend.HAS_NUMPY:
            pytest.skip("needs both containers")
        import random

        values = [random.Random(9).uniform(0.1, 1e9) for _ in range(10001)]
        assert backend.col_sum(array("d", values)) == backend.col_sum(
            backend.np.asarray(values)
        )


class TestDescribe:
    def test_metadata_keys(self):
        meta = backend.describe()
        assert set(meta) >= {"backend", "numpy_available", "python", "platform"}
        with backend.forced("pure"):
            assert backend.describe()["backend"] == "pure-python"
        if backend.HAS_NUMPY:
            with backend.forced("numpy"):
                assert backend.describe()["backend"].startswith("numpy ")


class TestGraphStorage:
    def test_columns_follow_active_backend(self):
        from repro.datasets import grid_city

        with backend.forced("pure"):
            g = grid_city(3, 3, seed=1)
            assert isinstance(g.out_head, array)
        if backend.HAS_NUMPY:
            with backend.forced("numpy"):
                g2 = grid_city(3, 3, seed=1)
                assert isinstance(g2.out_head, backend.np.ndarray)
                assert g2.out_head.dtype == backend.np.int64
                assert g2.out_w.dtype == backend.np.float64

    def test_adjacency_views_hold_plain_python_scalars(self):
        from repro.datasets import grid_city

        g = grid_city(3, 3, seed=1)
        v, w = g.out[0][0]
        assert type(v) is int
        assert type(w) is float

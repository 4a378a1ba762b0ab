"""Backend selection: the native kernel tier plus the array-container layer.

The paper's practical thesis is that road-network oracles win by keeping
hot state in flat, cache-friendly arrays.  The PR-1 CSR substrate and the
PR-2 hub labels realised that layout in pure CPython.  Two independent
accelerations sit on top of it:

* the **native** tier: the compiled :mod:`repro.native` kernels for the
  three hub-label (HL) hot paths, for the region search of AH's and
  FC's level assignment and for AH's query search — built by
  ``setup.py`` or, failing that, compiled on first import when a C
  compiler is present;
* the **numpy** container layer: the graph's flat CSR columns become
  *NumPy* arrays when ``numpy`` is importable, so reverse-CSR derivation
  and bundle I/O run as vectorised C loops instead of one CPython
  bytecode per element.

Every algorithm keeps a tested pure-Python path for deployments without
either.

Contract
--------
* **The backend never changes answers.**  Every tier executes the same
  algorithms over the same values in the same order; only the container
  type of the flat columns and the inner-loop engine differ.  The
  hypothesis suite in ``tests/test_backend_parity.py`` pins this.
* **Selection** happens once at import, in tier order ``native`` ->
  ``numpy`` -> ``pure-python``: the native kernels when
  :mod:`repro.native` has its extension, else numpy containers, else
  pure.  The ``REPRO_BACKEND`` environment variable overrides
  (``native`` / ``numpy`` / ``pure``; ``native`` without the extension
  degrades with a single warning instead of failing), and :func:`forced`
  flips the active tier for a scope — which is how the parity tests run
  all paths in one process.  Under ``numpy`` and ``pure`` the HL
  kernels are the pure-python scans and the region search and the AH
  query are the pure loops.
* The **native tier stacks on the container layer**: columns under
  ``native`` are whatever :func:`use_numpy` says (numpy arrays when the
  fast extra is installed, stdlib arrays otherwise).  ``native`` only
  redirects the HL hot-path kernels, which read the stdlib label
  columns through the buffer protocol, the level assignment's region
  search, which reads the region graph's rows in place, and the AH
  query, which reads the index's query tables in place; every other
  code path behaves exactly as on the container backend beneath it.
* **Columns** are ``int64`` / ``float64`` either way: ``numpy.ndarray``
  under the numpy backend, ``array('q')`` / ``array('d')`` under the pure
  one.  Both expose ``tobytes`` / ``tolist`` / slicing, and the stdlib
  arrays support the buffer protocol, so :func:`np_view_i64` /
  :func:`np_view_f64` give *zero-copy* NumPy views over either storage —
  a kernel can vectorise over columns a pure build produced.
* **Bytes on disk are identical** between backends (little-endian int64 /
  IEEE float64 in both containers), so serialized graphs, indexes and
  bundles round-trip byte-for-byte regardless of which backend wrote
  them (:mod:`repro.core.serialize`).
"""

from __future__ import annotations

import math
import os
import platform
import warnings
from array import array
from contextlib import contextmanager
from typing import Iterator

try:  # the optional "fast" extra — never required
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]

from . import native as _native  # never raises: a missing tier is None inside

__all__ = [
    "HAS_NATIVE",
    "HAS_NUMPY",
    "NATIVE",
    "NUMPY",
    "PURE",
    "np",
    "active",
    "use_native",
    "use_numpy",
    "force_backend",
    "forced",
    "describe",
    "index_zeros",
    "float_zeros",
    "index_col",
    "float_col",
    "as_index_col",
    "as_float_col",
    "index_col_from_bytes",
    "float_col_from_bytes",
    "ids_from_bytes",
    "col_bytes",
    "col_sum",
    "np_view_i64",
    "np_view_f64",
]

HAS_NUMPY = np is not None
HAS_NATIVE = _native.available()

#: Canonical backend names, as recorded in BENCH_*.json metadata.
NATIVE = "native"
NUMPY = "numpy"
PURE = "pure-python"


def _normalise(name: str) -> str:
    key = str(name).strip().lower()
    if key in ("native", "c"):
        return NATIVE
    if key in ("numpy", "np", "fast"):
        return NUMPY
    if key in ("pure", "pure-python", "python", "pure_python"):
        return PURE
    raise ValueError(
        f"unknown backend {name!r}; choose 'native', 'numpy' or 'pure-python'"
    )


def _initial() -> str:
    env = os.environ.get("REPRO_BACKEND", "").strip()
    if env:
        choice = _normalise(env)
        if choice == NUMPY and not HAS_NUMPY:
            raise ImportError(
                "REPRO_BACKEND=numpy but numpy is not importable; "
                "install the 'fast' extra (pip install repro-roadnet[fast])"
            )
        if choice == NATIVE and not HAS_NATIVE:
            # Unlike the numpy override this degrades instead of raising:
            # "native" is a *tier* request, and the tier ladder has two
            # bit-identical rungs below it.  One warning per process,
            # then the same auto-selection a bare import performs; a
            # failed on-import build has already given it.
            fallback = NUMPY if HAS_NUMPY else PURE
            if _native.DISABLED:
                warnings.warn(
                    "REPRO_BACKEND=native but REPRO_NATIVE=0 disables the "
                    f"repro.native._hubjoin extension; degrading to the "
                    f"{fallback} tier — answers are bit-identical, only "
                    "slower.  Unset REPRO_NATIVE to load the extension, "
                    "which is compiled on first import when a C compiler "
                    "is present.",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return fallback
        return choice
    if HAS_NATIVE:
        return NATIVE
    return NUMPY if HAS_NUMPY else PURE


_ACTIVE = _initial()


def active() -> str:
    """Name of the active tier: ``"native"``, ``"numpy"`` or ``"pure-python"``."""
    return _ACTIVE


def use_numpy() -> bool:
    """True when the numpy *container* layer is the live code path.

    The native tier stacks on numpy when the fast extra is installed —
    everything outside the native kernels (CSR packing, bundle I/O)
    keeps vectorising — so this answers "are columns numpy arrays", not
    "is numpy the top tier".
    """
    return _ACTIVE == NUMPY or (_ACTIVE == NATIVE and HAS_NUMPY)


def use_native() -> bool:
    """True when the native kernels are live: the HL hot path, the
    level assignment's region search and the AH query."""
    return _ACTIVE == NATIVE


def force_backend(name: str) -> str:
    """Switch the active backend; returns the previous one.

    Meant for tests and benchmarks.  Objects built under the old
    backend keep their storage type and stay fully queryable — dispatch
    happens per call, not per object.
    """
    global _ACTIVE
    choice = _normalise(name)
    if choice == NUMPY and not HAS_NUMPY:
        raise RuntimeError("cannot force the numpy backend: numpy is not importable")
    if choice == NATIVE and not HAS_NATIVE:
        raise RuntimeError(
            "cannot force the native tier: the repro.native._hubjoin "
            "extension is not loaded"
        )
    previous = _ACTIVE
    _ACTIVE = choice
    return previous


@contextmanager
def forced(name: str) -> Iterator[str]:
    """Context manager running a block under a specific backend."""
    previous = force_backend(name)
    try:
        yield _ACTIVE
    finally:
        force_backend(previous)


def describe() -> dict:
    """Environment metadata for BENCH_*.json records.

    Identifies the tier (with the numpy version when the numpy container
    layer is live and the native kernel version/hash when the C tier
    is), the CPython version and the platform, so perf trajectories
    recorded across PRs stay interpretable.
    """
    if use_numpy():
        containers = f"numpy {np.__version__}"  # type: ignore[union-attr]
    else:
        containers = PURE
    if use_native():
        label = f"native (kernels v{_native.version()}, {containers})"
    else:
        label = containers
    return {
        "backend": label,
        "tier": _ACTIVE,
        "numpy_available": HAS_NUMPY,
        "native_available": HAS_NATIVE,
        "native_version": _native.version() if HAS_NATIVE else None,
        "native_hash": _native.extension_hash() if HAS_NATIVE else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Column constructors (int64 / float64 flat columns of the active backend)
# ----------------------------------------------------------------------
def index_zeros(n: int):
    """A zero-filled int64 column of length ``n``."""
    if use_numpy():
        return np.zeros(n, dtype=np.int64)
    return array("q", bytes(8 * n))


def float_zeros(n: int):
    """A zero-filled float64 column of length ``n``."""
    if use_numpy():
        return np.zeros(n, dtype=np.float64)
    return array("d", bytes(8 * n))


def index_col(values=()):
    """An int64 column holding ``values`` (any iterable of ints)."""
    if use_numpy():
        return np.asarray(list(values), dtype=np.int64)
    return array("q", values)


def float_col(values=()):
    """A float64 column holding ``values`` (any iterable of floats)."""
    if use_numpy():
        return np.asarray(list(values), dtype=np.float64)
    return array("d", values)


def as_index_col(col):
    """Normalise an existing int64 column to the active backend.

    No-op (no copy) when the container already matches; otherwise one
    C-speed memcpy through the buffer protocol.
    """
    if use_numpy():
        if isinstance(col, np.ndarray) and col.dtype == np.int64:
            return col
        if isinstance(col, array):
            return np.frombuffer(col, dtype=np.int64).copy() if len(col) else np.zeros(0, np.int64)
        return np.asarray(col, dtype=np.int64)
    if isinstance(col, array) and col.typecode == "q":
        return col
    out = array("q")
    out.frombytes(col_bytes(col) if _has_buffer(col) else array("q", col).tobytes())
    return out


def as_float_col(col):
    """Normalise an existing float64 column to the active backend."""
    if use_numpy():
        if isinstance(col, np.ndarray) and col.dtype == np.float64:
            return col
        if isinstance(col, array):
            return np.frombuffer(col, dtype=np.float64).copy() if len(col) else np.zeros(0, np.float64)
        return np.asarray(col, dtype=np.float64)
    if isinstance(col, array) and col.typecode == "d":
        return col
    out = array("d")
    out.frombytes(col_bytes(col) if _has_buffer(col) else array("d", col).tobytes())
    return out


def _has_buffer(col) -> bool:
    return isinstance(col, array) or (HAS_NUMPY and isinstance(col, np.ndarray))


# ----------------------------------------------------------------------
# Bytes <-> columns (the serialize fast path; format is backend-invariant)
# ----------------------------------------------------------------------
def col_bytes(col) -> bytes:
    """The column's raw little-endian bytes (both containers agree)."""
    return col.tobytes()


def index_col_from_bytes(buf):
    """Rebuild an int64 column of the active backend from raw bytes.

    Accepts any bytes-like object (``bytes``, ``memoryview``, mmap
    windows); under numpy the result is a zero-copy ``frombuffer`` view
    over the buffer (read-only when the buffer is).  The stdlib path
    must go through ``frombytes`` — the ``array(typecode, buf)``
    constructor treats a ``memoryview`` as an iterable of byte values
    and silently builds garbage.
    """
    if use_numpy():
        return np.frombuffer(buf, dtype=np.int64)
    out = array("q")
    out.frombytes(buf)
    return out


def float_col_from_bytes(buf):
    """Rebuild a float64 column of the active backend from raw bytes."""
    if use_numpy():
        return np.frombuffer(buf, dtype=np.float64)
    out = array("d")
    out.frombytes(buf)
    return out


def ids_from_bytes(buf, width: int):
    """Node-id list from a little-endian int32/int64 column's raw bytes.

    The worker tier's REQCOL request blocks carry node ids at HLIDX2's
    width discipline (``width`` is 4 or 8); this decodes one column into
    **plain Python ints** on both backends (``tolist`` converts numpy
    scalars), so reconstructed requests hash/group exactly like the
    originals.  The stdlib path goes through ``frombytes`` for the same
    memoryview-safety reason as :func:`index_col_from_bytes`.
    """
    if use_numpy():
        return np.frombuffer(buf, dtype=np.int32 if width == 4 else np.int64).tolist()
    out = array("i" if width == 4 else "q")
    out.frombytes(buf)
    return out.tolist()


# ----------------------------------------------------------------------
# Small backend-agnostic reductions / views
# ----------------------------------------------------------------------
def col_sum(col) -> float:
    """Sum a float column, identically on both backends.

    ``ndarray.sum`` uses pairwise summation while builtin ``sum`` adds
    left to right — last-ulp divergence that would break the
    "backend never changes answers" contract.  ``math.fsum`` over one
    C-converted list is exactly rounded, so both containers produce the
    same float (and a more accurate one than either naive order).
    """
    return math.fsum(col.tolist())


def np_view_i64(col):
    """Zero-copy numpy int64 view over a column of either container.

    Only callable when numpy is importable (callers check
    :func:`use_numpy` before reaching for views).
    """
    if isinstance(col, np.ndarray):
        return col
    return np.frombuffer(col, dtype=np.int64)


def np_view_f64(col):
    """Zero-copy numpy float64 view over a column of either container."""
    if isinstance(col, np.ndarray):
        return col
    return np.frombuffer(col, dtype=np.float64)

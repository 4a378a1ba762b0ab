"""Backend selection: the native kernel tier over the pure-python reference.

The paper's practical thesis is that road-network oracles win by keeping
hot state in flat, cache-friendly arrays.  Every flat column in this
package, the graph's CSR triples and the hub labels alike, is a stdlib
``array('q')`` (int64) or ``array('d')`` (float64), whatever the tier.
Two tiers run over that one container:

* the **native** tier: the compiled :mod:`repro.native` kernels for the
  three hub-label (HL) hot paths, for the region search of AH's and
  FC's level assignment and for AH's query search — built by
  ``setup.py`` or, failing that, compiled on first import when a C
  compiler is present.  The HL kernels read the label columns through
  the buffer protocol; the region search and the AH query read their
  rows and tables in place.
* the **pure-python** tier: the reference loops every native kernel is
  held to, and the fallback for deployments without the extension.

Contract
--------
* **The tier never changes answers.**  Both tiers execute the same
  algorithms over the same values in the same order; only the
  inner-loop engine differs.  The hypothesis suite in
  ``tests/test_backend_parity.py`` pins this.
* **Selection** happens once at import: the native kernels when
  :mod:`repro.native` has its extension, else pure.  The
  ``REPRO_BACKEND`` environment variable overrides (``native`` /
  ``pure``; ``native`` without the extension degrades with a single
  warning instead of failing), and :func:`forced` flips the active tier
  for a scope — which is how the parity tests run both tiers in one
  process.
* **Bytes on disk are identical** between tiers: columns serialize as
  little-endian int64 / IEEE float64 blocks whichever tier built them,
  so graphs, indexes and bundles round-trip byte-for-byte
  (:mod:`repro.core.serialize`).
"""

from __future__ import annotations

import os
import platform
import warnings
from contextlib import contextmanager
from typing import Iterator

from . import native as _native  # never raises: a missing tier is None inside

__all__ = [
    "HAS_NATIVE",
    "NATIVE",
    "PURE",
    "active",
    "use_native",
    "force_backend",
    "forced",
    "describe",
]

HAS_NATIVE = _native.available()

#: Canonical tier names, as recorded in BENCH_*.json metadata.
NATIVE = "native"
PURE = "pure-python"


def _normalise(name: str) -> str:
    key = str(name).strip().lower()
    if key in ("native", "c"):
        return NATIVE
    if key in ("pure", "pure-python", "python", "pure_python"):
        return PURE
    raise ValueError(f"unknown backend {name!r}; choose 'native' or 'pure-python'")


def _initial() -> str:
    env = os.environ.get("REPRO_BACKEND", "").strip()
    choice = _normalise(env) if env else NATIVE
    if choice == NATIVE and not HAS_NATIVE:
        # A "native" request degrades instead of raising: the pure tier
        # answers bit-identically.  One warning per process; a failed
        # on-import build has already given it.
        if env and _native.DISABLED:
            warnings.warn(
                "REPRO_BACKEND=native but REPRO_NATIVE=0 disables the "
                "repro.native._hubjoin extension; degrading to the "
                "pure-python tier — answers are bit-identical, only "
                "slower.  Unset REPRO_NATIVE to load the extension, "
                "which is compiled on first import when a C compiler "
                "is present.",
                RuntimeWarning,
                stacklevel=3,
            )
        return PURE
    return choice


_ACTIVE = _initial()


def active() -> str:
    """Name of the active tier: ``"native"`` or ``"pure-python"``."""
    return _ACTIVE


def use_native() -> bool:
    """True when the native kernels are live: the HL hot path, the
    level assignment's region search and the AH query."""
    return _ACTIVE == NATIVE


def force_backend(name: str) -> str:
    """Switch the active tier; returns the previous one.

    Meant for tests and benchmarks.  Objects built under the old tier
    stay fully queryable — dispatch happens per call, not per object.
    """
    global _ACTIVE
    choice = _normalise(name)
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
    """Context manager running a block under a specific tier."""
    previous = force_backend(name)
    try:
        yield _ACTIVE
    finally:
        force_backend(previous)


def describe() -> dict:
    """Environment metadata for BENCH_*.json records.

    Identifies the tier (with the native kernel version/hash when the C
    tier is live), the CPython version and the platform, so perf
    trajectories recorded across PRs stay interpretable.
    """
    if use_native():
        label = f"native (kernels v{_native.version()})"
    else:
        label = PURE
    return {
        "backend": label,
        "tier": _ACTIVE,
        "native_available": HAS_NATIVE,
        "native_version": _native.version() if HAS_NATIVE else None,
        "native_hash": _native.extension_hash() if HAS_NATIVE else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }

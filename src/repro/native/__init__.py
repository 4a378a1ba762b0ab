"""repro.native — the optional C kernel tier for the HL hot path.

This package is the **only** place in the repo allowed to touch compiled
code (the ``native-boundary-discipline`` analysis rule enforces it): it
imports the ``_hubjoin`` extension module when a build produced one and
exposes the three hub-join kernels behind plain-Python wrappers.  Every
caller goes through :func:`available` / the wrappers, never the
extension module itself, so a checkout without a compiler (or a wheel
built with the pure-build escape hatch) degrades to the numpy/pure
tiers without any import-time failure.

The kernels operate directly on the label columns through the buffer
protocol: int64 heads and hubs and float64 distances, the one layout
built and loaded indexes share (any other column raises
:class:`TypeError`).  Results come back as plain Python floats/lists;
answers are bit-identical to the numpy and pure tiers
(``tests/test_backend_parity.py``).

``REPRO_NATIVE=0`` (or ``off`` / ``disable``) skips the extension
import entirely — the forced-import-failure tests and the compiler-less
CI leg use it to pin the degradation path on boxes where the module
*is* importable.
"""

from __future__ import annotations

import hashlib
import os
from typing import List, Optional, Sequence

__all__ = [
    "available",
    "version",
    "extension_path",
    "extension_hash",
    "distance",
    "one_to_many",
    "distance_table",
]

_DISABLED = os.environ.get("REPRO_NATIVE", "").strip().lower() in (
    "0",
    "off",
    "disable",
    "disabled",
)

if _DISABLED:
    _hubjoin = None
else:
    try:
        from . import _hubjoin  # type: ignore[attr-defined]
    except ImportError:  # no compiled extension: the escape-hatch path
        _hubjoin = None


def available() -> bool:
    """True when the compiled ``_hubjoin`` extension is importable."""
    return _hubjoin is not None


def version() -> Optional[str]:
    """The extension's kernel-format version string (``None`` if absent)."""
    return _hubjoin.VERSION if _hubjoin is not None else None


def extension_path() -> Optional[str]:
    """Filesystem path of the compiled module (``None`` if absent)."""
    return getattr(_hubjoin, "__file__", None) if _hubjoin is not None else None


_ext_hash: Optional[str] = None


def extension_hash() -> Optional[str]:
    """Short sha256 of the compiled module's bytes, for BENCH records.

    Lets a recorded benchmark distinguish *which* build of the extension
    produced its numbers (``None`` when the extension is absent).
    """
    global _ext_hash
    if _hubjoin is None:
        return None
    if _ext_hash is None:
        path = extension_path()
        try:
            with open(path, "rb") as fh:
                _ext_hash = hashlib.sha256(fh.read()).hexdigest()[:12]
        except OSError:  # pragma: no cover - unreadable .so is exotic
            _ext_hash = "unreadable"
    return _ext_hash


# ----------------------------------------------------------------------
# Kernel wrappers — the boundary the rest of the repo calls through.
# Each returns plain Python objects (the extension already builds
# CPython floats/lists); callers still coerce at their own return
# points, per the native-boundary-discipline rule.
# ----------------------------------------------------------------------
def distance(fhead, fhub, fdist, bhead, bhub, bdist, source: int, target: int) -> float:
    """Two-pointer merge-join over one (source, target) label pair."""
    return _hubjoin.distance(fhead, fhub, fdist, bhead, bhub, bdist, source, target)


def one_to_many(
    fhead, fhub, fdist, bhead, bhub, bdist, n: int, source: int, targets: Sequence[int]
) -> List[float]:
    """Dense hub-indexed gather over the targets' backward columns."""
    return _hubjoin.one_to_many(
        fhead, fhub, fdist, bhead, bhub, bdist, n, source, targets
    )


def distance_table(
    fhead,
    fhub,
    fdist,
    bhead,
    bhub,
    bdist,
    n: int,
    sources: Sequence[int],
    targets: Sequence[int],
) -> List[List[float]]:
    """Hub co-occurrence join + scatter-min into the full table."""
    return _hubjoin.distance_table(
        fhead, fhub, fdist, bhead, bhub, bdist, n, sources, targets
    )

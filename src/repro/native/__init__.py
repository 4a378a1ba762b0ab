"""repro.native — the C kernel tier: HL queries, AH region search, AH queries.

This package is the **only** place in the repo allowed to touch compiled
code (the ``native-boundary-discipline`` analysis rule enforces it): it
loads the ``_hubjoin`` extension module and exposes its kernels behind
plain-Python wrappers — the three hub-label (HL) query kernels, the
region search of AH's and FC's level assignment, and AH's query, path
unpacking included (:func:`ah_query`).  Every caller goes
through :func:`available` / the wrappers, never the extension module
itself, so a box without a compiler degrades to the pure-python kernels
without any import-time failure.

The extension comes from one of two places, tried in order:

* a build ``setup.py`` made (``python setup.py build_ext --inplace`` or
  an installed wheel), imported as ``repro.native._hubjoin``;
* else a build made on first import: ``_hubjoin.c`` is compiled with
  the flags the running interpreter was built with (sysconfig's
  ``LDSHARED CFLAGS CCSHARED -I<INCLUDEPY>``, the same ones
  ``setup.py`` uses) into ``__pycache__/<first 16 hex of the source's
  sha256>/``.  The module is written under a temporary name and moved
  into place with ``os.replace``, so concurrent processes never load a
  half-written file, and a later import loads it without compiling.
  Writing a new build removes the builds of earlier revisions of the
  source from ``__pycache__``.  With no compiler, a failed compile or
  an unwritable directory the tier stays off and the process emits one
  :class:`RuntimeWarning`.

The HL kernels operate directly on the label columns through the buffer
protocol: int64 heads and hubs and float64 distances, the one layout
built and loaded indexes share (any other column raises
:class:`TypeError`).  The table kernel is two calls:
:func:`table_inversion` counting-sorts a target tuple's backward entries
by hub into an opaque handle, and :func:`distance_table` joins sources
against it, so a caller that keeps the handle (``HubLabelIndex`` does,
per target tuple) builds it once.  The region search reads the region graph's own
``(j, w)`` rows in place, and the AH query reads the index's query
tables (its upward rows, whose entries also carry the shortcut middles
a path unpacks through, levels, cells, anchors and jump columns) in
place, so it needs no set-up, no copy and no state between calls.
Results come back as plain Python floats, lists and tuples; answers are
bit-identical to the pure-python code (``tests/test_backend_parity.py``,
``tests/test_native.py``, ``tests/test_levels_reference.py``,
``tests/test_ah_query_tables.py``).

``REPRO_NATIVE=0`` (or ``off`` / ``disable``) skips the extension
entirely, built or not, and compiles nothing — the compiler-less CI
legs and the degradation tests use it to pin the pure path on boxes
where the tier *is* available.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import re
import shlex
import shutil
import subprocess
import sysconfig
import warnings
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "DISABLED",
    "available",
    "version",
    "extension_path",
    "extension_hash",
    "distance",
    "one_to_many",
    "table_inversion",
    "distance_table",
    "local_search",
    "ah_query",
]

#: True when ``REPRO_NATIVE`` turned the tier off (nothing was loaded or
#: compiled, and nothing warned).
DISABLED = os.environ.get("REPRO_NATIVE", "").strip().lower() in (
    "0",
    "off",
    "disable",
    "disabled",
)

_HERE = os.path.dirname(os.path.abspath(__file__))


def _compile_and_load():
    """Load ``_hubjoin`` from the source-keyed cache, compiling it first
    when this source has never been built here."""
    source = os.path.join(_HERE, "_hubjoin.c")
    with open(source, "rb") as fh:
        key = hashlib.sha256(fh.read()).hexdigest()[:16]
    var = sysconfig.get_config_var
    target = os.path.join(
        _HERE, "__pycache__", key, "_hubjoin" + var("EXT_SUFFIX")
    )
    if not os.path.exists(target):
        if not var("LDSHARED"):
            raise OSError("the interpreter records no LDSHARED compiler command")
        os.makedirs(os.path.dirname(target), exist_ok=True)
        partial = f"{target}.{os.getpid()}.tmp"
        command = [
            *shlex.split(var("LDSHARED")),
            *shlex.split(var("CFLAGS") or ""),
            *shlex.split(var("CCSHARED") or ""),
            "-I" + var("INCLUDEPY"),
            source,
            "-o",
            partial,
        ]
        try:
            subprocess.run(command, check=True, capture_output=True, text=True)
            os.replace(partial, target)
        finally:
            with contextlib.suppress(OSError):
                os.remove(partial)
        _prune_stale_builds(os.path.dirname(os.path.dirname(target)), key)
    spec = importlib.util.spec_from_file_location(f"{__name__}._hubjoin", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _prune_stale_builds(cache: str, key: str) -> None:
    """Remove the builds of other ``_hubjoin.c`` revisions from the cache.

    Only sibling directories named like a key (16 hex digits) go; the
    package's own ``.pyc`` files share the directory and stay.  A build
    another process still has loaded stays mapped until that process
    exits, and a failed removal is left for the next new build.
    """
    with contextlib.suppress(OSError):
        for entry in os.scandir(cache):
            if (
                entry.name != key
                and re.fullmatch("[0-9a-f]{16}", entry.name)
                and entry.is_dir(follow_symlinks=False)
            ):
                shutil.rmtree(entry.path, ignore_errors=True)


def _build_or_warn():
    """The on-import build, or ``None`` and one warning when it fails."""
    try:
        return _compile_and_load()
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        reason = str(exc)
        if isinstance(exc, subprocess.CalledProcessError):
            lines = (exc.stderr or "").strip().splitlines() or ["no output"]
            reason = f"the compiler exited with status {exc.returncode}: {lines[-1]}"
        warnings.warn(
            f"could not build the repro.native._hubjoin C kernels ({reason}); "
            "hub labels, the AH region search and AH queries run on the "
            "pure-python kernels — answers are bit-identical, only slower.  "
            "Install a C compiler, or build with "
            "`python setup.py build_ext --inplace`.",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


if DISABLED:
    _hubjoin = None
else:
    try:
        from . import _hubjoin  # type: ignore[attr-defined]
    except ImportError:  # no setup.py build: compile one on first import
        _hubjoin = _build_or_warn()


def available() -> bool:
    """True when the compiled ``_hubjoin`` extension is loaded."""
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
# CPython floats, lists and tuples); callers still coerce at their own
# return points, per the native-boundary-discipline rule.
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


def table_inversion(bhead, bhub, bdist, n: int, targets: Sequence[int]):
    """The targets' backward entries counting-sorted by hub, as an
    opaque handle for :func:`distance_table`.

    The handle owns its runs and records ``n`` and the target count;
    building it is the table kernel's O(n) set-up, so a caller that
    keeps it pays that set-up once per target tuple.
    """
    return _hubjoin.table_inversion(bhead, bhub, bdist, n, targets)


def distance_table(
    fhead, fhub, fdist, n: int, sources: Sequence[int], handle
) -> List[List[float]]:
    """Hub co-occurrence join + scatter-min into the full table.

    ``handle`` comes from :func:`table_inversion`; anything else raises
    :class:`TypeError`, and a handle built for another ``n``
    :class:`ValueError`.
    """
    return _hubjoin.distance_table(fhead, fhub, fdist, n, sources, handle)


def local_search(adj, expand, seeds, free: int) -> List[float]:
    """Region Dijkstra over ``(j, w)`` adjacency rows, read in place.

    The compiled form of :func:`repro.core.arterial._local_search`, its
    pure reference: same arguments, ``==`` results.  ``expand`` is one
    byte per node; weights and seed distances are non-negative Python
    floats or ints.
    """
    return _hubjoin.local_search(adj, expand, seeds, free)


def ah_query(
    tables,
    source: int,
    target: int,
    want_path: bool,
    proximity: bool,
    stall: bool,
    elevating: bool,
) -> Tuple[float, Optional[Tuple[int, ...]]]:
    """An AH distance or shortest-path query, in one call.

    The compiled form of :meth:`repro.core.ah.AHIndex._query` followed
    by :func:`repro.baselines.ch.unpack_shortcuts`, its pure reference:
    ``tables`` is the index's ``_tables`` tuple, read in place, and the
    flags are its three query toggles.  Returns ``(distance, nodes)``:
    with ``want_path`` the path's node ids as a tuple of ints, each hop's
    shortcut middle read from the upward rows ``tables[1]`` and
    ``tables[2]``; without it ``()``; and ``None`` when no path exists.
    Distances and node tuples are ``==`` to the pure code's.  A hop in
    neither row raises :class:`ValueError`, a middle outside ``[0, n)``
    :class:`IndexError`, a middle that is not an int :class:`TypeError`,
    and a path that would unpack to more than ``n`` nodes (middles that
    form a cycle, say) :class:`ValueError`.
    """
    return _hubjoin.ah_query(
        tables, source, target, want_path, proximity, stall, elevating
    )

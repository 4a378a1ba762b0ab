"""Size of a hub-label bundle whose labels are stored as flat columns.

Bundles store hub labels as compact HLIDX2 sections.  CI's
compact-bundle legs and ``BENCH_pool.json`` measure them against the
same labels written as plain 8-byte columns: a 7-byte magic and ``n``,
per side ``head[n+1]``, an entry count and hub/dist/parent per entry,
then a middles count and one (u, v, middle) triple per middle.  The
label-only floors compare against ``HubLabelIndex.stats()`` instead,
the columns an index holds in memory.

Import it with ``benchmarks/`` on the path (``PYTHONPATH=src:benchmarks``).
"""

from __future__ import annotations

from repro.core.serialize import inspect_bundle


def flat_bundle_bytes(blob) -> int:
    """``len(blob)`` with its HLIDX2 section stored as flat columns."""
    sec = next(s for s in inspect_bundle(blob) if s["magic"] == "HLIDX2")
    d = sec["detail"]
    flat_hl = 7 + 8 + 2 * (8 * (d["n"] + 1) + 8) + 24 * d["entries"] + 8 + 24 * d["middles"]
    return len(blob) - sec["bytes"] + flat_hl

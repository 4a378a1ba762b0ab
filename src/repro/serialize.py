"""``repro.serialize`` — top-level alias + CLI for :mod:`repro.core.serialize`.

Re-exports the bundle surface (``save_bundle``, ``load_bundle``,
``bundle_bytes``, ``index_bytes``, ``inspect_bundle`` and
``BundleCorrupted``, plus the request-lane codec) so tooling can spell
it ``repro.serialize``, and makes the footprint inspector runnable::

    python -m repro.serialize --inspect bundle.hl

which prints each section's magic, byte size and encoding breakdown
(HL2 streams, distance encodings, bytes per label entry).  The bundle
is the only file it reads: a file without a ``BCRC1`` trailer exits 2.
"""

from .core.serialize import *  # noqa: F401,F403 — deliberate re-export
from .core.serialize import __all__, inspect_bundle, main  # noqa: F401

if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())

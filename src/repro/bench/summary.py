"""Cross-PR perf trajectory: one table over every committed BENCH_*.json.

Each benchmark writes its own ``BENCH_<name>.json`` (and a timing-free
``BENCH_<name>.check.json`` twin) at the repo root; the trajectory those
files record is only useful if it can be read side by side.  This module
folds them into one table::

    python -m repro.bench --summary

    bench   mode   backend                        cpus  key ratios
    csr     full   pure-python                    -     best_bucket_speedup=1.703 ...
    hl      full   native (kernels v3)            1     table_native_vs_pure=...

The "key ratios" column is every numeric entry of the file's
``headline`` block, in file order — benchmarks choose their own
headline keys, so the summary stays schema-free as new benches land.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List

from .reporting import format_table

#: BENCH_<name>.json, with an optional .check variant marker.
_BENCH_RE = re.compile(r"^BENCH_(?P<name>[A-Za-z0-9_-]+?)(?P<check>\.check)?\.json$")


def bench_files(root: str = ".") -> List[Path]:
    """Every BENCH_*.json under *root* (not recursive), sorted by name."""
    return sorted(
        p for p in Path(root).iterdir() if p.is_file() and _BENCH_RE.match(p.name)
    )


#: Ratios shown per row before eliding — full detail stays in the JSON.
MAX_RATIOS = 4


def _ratio_cell(payload: Dict) -> str:
    headline = payload.get("headline")
    if isinstance(headline, dict):
        parts = [
            f"{key}={value}"
            for key, value in headline.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]
        if parts:
            cell = "  ".join(parts[:MAX_RATIOS])
            if len(parts) > MAX_RATIOS:
                cell += f"  (+{len(parts) - MAX_RATIOS} more)"
            return cell
    mode = payload.get("mode")
    if mode:  # .check twins: no clocks, summarise what they assert instead
        return str(mode).split(" (")[0]
    return "-"


def summarize_file(path: Path) -> Dict[str, object]:
    """One summary row (plain dict) for a single BENCH JSON."""
    match = _BENCH_RE.match(path.name)
    if match is None:  # pragma: no cover — bench_files() pre-filters
        raise ValueError(f"not a BENCH file: {path.name}")
    payload = json.loads(path.read_text())
    env = payload.get("environment") or {}
    cpus = payload.get("visible_cpus")
    return {
        "bench": match.group("name"),
        "mode": "check" if match.group("check") else "full",
        "backend": str(env.get("backend", "?")),
        "cpus": "-" if cpus is None else str(cpus),
        "python": str(env.get("python", "?")),
        "platform": str(env.get("platform", "?")),
        "ratios": _ratio_cell(payload),
    }


def collect(root: str = ".") -> List[Dict[str, object]]:
    """Summary rows for every BENCH_*.json under *root*."""
    return [summarize_file(p) for p in bench_files(root)]


def render(rows: List[Dict[str, object]]) -> str:
    """The trajectory table as text (or a hint when no files exist)."""
    if not rows:
        return "no BENCH_*.json files found (run the benchmarks/ suite first)"
    header = ["bench", "mode", "backend", "cpus", "python", "key ratios"]
    body = [
        [r["bench"], r["mode"], r["backend"], r["cpus"], r["python"], r["ratios"]]
        for r in rows
    ]
    platforms = sorted({r["platform"] for r in rows})
    table = format_table(header, body, title="Benchmark trajectory")
    return table + "\nplatform: " + "; ".join(platforms)


def main(root: str = ".") -> str:
    return render(collect(root))

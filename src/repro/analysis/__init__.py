"""``repro.analysis`` — the AST-based invariant linter.

The test suite *samples* the reproduction's contracts (bit-identical
answers across backends/formats/process boundaries); this package
enforces the coding conventions behind those contracts *mechanically*,
in every file, at CI time::

    python -m repro.analysis                 # human report, exit 1 on findings
    python -m repro.analysis --json          # machine report (CI artifact)
    python -m repro.analysis --explain backend-purity
    python -m repro.analysis --write-baseline  # absorb pre-existing debt

Rules (one per contract; ``--explain`` has the full story):

=====================  ==========================================================
backend-purity         no numpy import under src/
exact-accumulation     no builtin sum()/``+=`` folds over float distance columns
workspace-discipline   acquire()/release() pair lexically, release in finally
asyncio-discipline     no blocking calls / locks held across await in coroutines
spawn-safety           Process targets module-level + picklable; resource
                       tracker untouched
serialize-symmetry     little-endian literal struct formats, pack/unpack paired
determinism            no iteration over unordered sets in answer paths
bench-honesty          timing floors gated on visible_cpus; size floors hard
=====================  ==========================================================

Deliberate exceptions carry ``# repro: allow[rule-id]`` on the flagged
line; pre-existing debt lives in the committed ``analysis-baseline.json``
(currently empty — keep it that way).
"""

from .framework import (  # noqa: F401
    Finding,
    ModuleContext,
    Report,
    Rule,
    analyze_file,
    analyze_paths,
    analyze_source,
    baseline_payload,
    default_root,
    get_rule,
    iter_rules,
    load_baseline,
    register,
)
from .cli import main  # noqa: F401

__all__ = [
    "Finding",
    "ModuleContext",
    "Report",
    "Rule",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "baseline_payload",
    "default_root",
    "get_rule",
    "iter_rules",
    "load_baseline",
    "register",
    "main",
]

"""The invariant-linter substrate: rules, findings, suppressions, baseline.

The reproduction's correctness story rests on conventions the test
suite can only *sample* — bit-identical answers across backends, exact
float accumulation, workspace pool discipline, non-blocking coroutines,
spawn-safe worker targets, byte-symmetric serializers, deterministic
iteration, honest benchmark gating.  Each convention is distilled here
into a :class:`Rule` that walks a module's AST and emits
:class:`Finding` records; the CLI (:mod:`repro.analysis.cli`) turns a
non-empty fresh-finding list into a red CI gate.

Mechanics
---------
* **Registry** — rule modules call :func:`register` at import time
  (:mod:`repro.analysis.rules` imports them all); :func:`iter_rules`
  yields them sorted by id.
* **Dispatch** — every rule carries a ``paths`` predicate over the
  repo-relative posix path, so e.g. ``bench-honesty`` only ever sees
  ``benchmarks/`` and ``backend-purity`` only ``src/``.
* **Suppressions** — a finding whose flagged source line carries
  ``# repro: allow[rule-id]`` (comma-separated ids allowed) is dropped
  and counted; suppressions are deliberate, greppable, and reviewed.
* **Baseline** — pre-existing debt lives in a committed JSON file keyed
  by ``(path, rule, stripped source line)`` — line *numbers* are not
  part of the key, so unrelated edits do not churn it.  Each entry
  absorbs at most one matching finding per run; entries that no longer
  match anything are reported as stale so the file shrinks over time.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "Rule",
    "ModuleContext",
    "Report",
    "register",
    "get_rule",
    "iter_rules",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "iter_python_files",
    "load_baseline",
    "baseline_payload",
    "default_root",
    "DEFAULT_BASELINE_NAME",
]

#: ``# repro: allow[rule-id]`` (or ``allow[a, b]``) on the flagged line.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")

DEFAULT_BASELINE_NAME = "analysis-baseline.json"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``code`` is the stripped text of the flagged line — it rides along
    so baseline matching and human output never need to re-read files.
    """

    path: str  # repo-relative posix path
    line: int  # 1-indexed
    col: int
    rule: str
    message: str
    hint: str = ""
    code: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        if self.code:
            text += f"\n    >>> {self.code}"
        return text

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
            "code": self.code,
        }

    def baseline_key(self) -> Tuple[str, str, str]:
        return (self.path, self.rule, self.code)


@dataclass(frozen=True)
class Rule:
    """A registered invariant check.

    ``check`` receives a :class:`ModuleContext` and yields findings;
    ``paths`` decides (on the repo-relative posix path) whether the rule
    sees the file at all.  ``contract`` is the one-line invariant for
    the README table; ``rationale`` plus ``motivated_by`` back the
    ``--explain`` output.
    """

    id: str
    title: str
    contract: str
    rationale: str
    motivated_by: str
    check: Callable[["ModuleContext"], Iterable[Finding]]
    paths: Callable[[str], bool]

    def explain(self) -> str:
        return (
            f"{self.id} — {self.title}\n\n"
            f"Contract: {self.contract}\n\n"
            f"{self.rationale.strip()}\n\n"
            f"Motivated by: {self.motivated_by}\n"
            f"Suppress a deliberate exception with  # repro: allow[{self.id}]"
        )


_RULES: Dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _RULES[rule.id] = rule
    return rule


def get_rule(rule_id: str) -> Rule:
    _ensure_rules_loaded()
    try:
        return _RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}") from None


def iter_rules() -> List[Rule]:
    _ensure_rules_loaded()
    return [_RULES[k] for k in sorted(_RULES)]


def _ensure_rules_loaded() -> None:
    # Import-time registration: the rules package registers every rule
    # as a side effect of importing it.  Lazy so framework consumers
    # (tests building synthetic rules) can import this module alone.
    if not _RULES:
        from . import rules  # noqa: F401


class ModuleContext:
    """One parsed module handed to every applicable rule.

    Carries the AST, the raw lines, and lazy parent links so rules can
    ask "is this node inside a ``finally`` / an ``if visible_cpus``
    gate" without each rebuilding the map.
    """

    def __init__(self, path: str, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path or rel)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    # -- structure helpers -------------------------------------------------
    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        parents = self.parents
        while node in parents:
            node = parents[node]
            yield node

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    # -- finding construction ---------------------------------------------
    def finding(
        self, rule_id: str, node: ast.AST, message: str, hint: str = ""
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.rel,
            line=line,
            col=col,
            rule=rule_id,
            message=message,
            hint=hint,
            code=self.line_text(line).strip(),
        )

    def suppressed_ids(self, lineno: int) -> List[str]:
        m = _SUPPRESS_RE.search(self.line_text(lineno))
        if not m:
            return []
        return [part.strip() for part in m.group(1).split(",") if part.strip()]


# ----------------------------------------------------------------------
# Shared AST helpers (used by several rule modules)
# ----------------------------------------------------------------------
def functions(tree: ast.AST) -> Iterator[ast.AST]:
    """Every (async) function definition in the module, any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own body, not descending into nested defs.

    Lambdas and comprehensions still count as the function's own code;
    nested ``def``/``async def`` bodies belong to the nested function.
    """
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, ``""`` otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def identifier_strings(node: ast.AST) -> Iterator[str]:
    """All Name ids, Attribute attrs, and str constants under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def contains(node: ast.AST, kind) -> bool:
    return any(isinstance(sub, kind) for sub in ast.walk(node))


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclass
class Report:
    """One analysis run: fresh findings, absorbed debt, bookkeeping."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: List[dict] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0
    errors: List[Finding] = field(default_factory=list)

    @property
    def all_current(self) -> List[Finding]:
        return self.findings + self.baselined

    def as_dict(self) -> dict:
        return {
            "files": self.files,
            "findings": [f.as_dict() for f in self.findings],
            "errors": [f.as_dict() for f in self.errors],
            "baselined": [f.as_dict() for f in self.baselined],
            "stale_baseline": list(self.stale_baseline),
            "suppressed": self.suppressed,
            "rules": [r.id for r in iter_rules()],
        }


def analyze_source(
    source: str, rel: str, path: str = ""
) -> Tuple[List[Finding], int]:
    """Run every applicable rule over one source string.

    Returns ``(findings, suppressed_count)``.  ``rel`` is the virtual
    repo-relative path rules dispatch on — the unit tests feed snippets
    through here with paths like ``src/repro/serve/x.py``.
    """
    ctx = ModuleContext(path or rel, rel, source)
    findings: List[Finding] = []
    suppressed = 0
    for rule in iter_rules():
        if not rule.paths(ctx.rel):
            continue
        for f in rule.check(ctx):
            if rule.id in ctx.suppressed_ids(f.line):
                suppressed += 1
            else:
                findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, suppressed


def analyze_file(path: Path, root: Path) -> Tuple[List[Finding], int, Optional[Finding]]:
    rel = path.resolve().relative_to(root.resolve()).as_posix()
    try:
        source = path.read_text(encoding="utf-8")
        findings, suppressed = analyze_source(source, rel, str(path))
        return findings, suppressed, None
    except (SyntaxError, UnicodeDecodeError, OSError) as exc:
        err = Finding(
            path=rel,
            line=getattr(exc, "lineno", None) or 1,
            col=0,
            rule="parse-error",
            message=f"could not analyze: {exc}",
        )
        return [], 0, err


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    seen = set()
    for p in paths:
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for c in candidates:
            if "__pycache__" in c.parts:
                continue
            r = c.resolve()
            if r not in seen:
                seen.add(r)
                yield c


def load_baseline(path: Path) -> List[dict]:
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = data.get("findings", [])
    for e in entries:
        if not all(k in e for k in ("path", "rule", "code")):
            raise ValueError(
                f"malformed baseline entry {e!r}: needs path/rule/code"
            )
    return entries


def baseline_payload(findings: Sequence[Finding]) -> dict:
    """The committed-baseline JSON for a set of findings."""
    return {
        "comment": (
            "Pre-existing repro.analysis debt. Entries are matched by "
            "(path, rule, stripped source line) — fix the code and "
            "delete the entry; do not add new debt here."
        ),
        "findings": [
            {"path": f.path, "rule": f.rule, "code": f.code}
            for f in sorted(findings, key=lambda f: (f.path, f.rule, f.code))
        ],
    }


def _apply_baseline(
    findings: List[Finding], entries: List[dict]
) -> Tuple[List[Finding], List[Finding], List[dict]]:
    budget: Dict[Tuple[str, str, str], int] = {}
    for e in entries:
        key = (e["path"], e["rule"], e["code"])
        budget[key] = budget.get(key, 0) + 1
    fresh: List[Finding] = []
    absorbed: List[Finding] = []
    for f in findings:
        key = f.baseline_key()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            absorbed.append(f)
        else:
            fresh.append(f)
    stale = [
        {"path": p, "rule": r, "code": c, "unmatched": n}
        for (p, r, c), n in sorted(budget.items())
        if n > 0
    ]
    return fresh, absorbed, stale


def analyze_paths(
    paths: Sequence[Path],
    root: Path,
    baseline_entries: Optional[List[dict]] = None,
) -> Report:
    report = Report()
    collected: List[Finding] = []
    for path in iter_python_files(paths):
        report.files += 1
        findings, suppressed, error = analyze_file(path, root)
        collected.extend(findings)
        report.suppressed += suppressed
        if error is not None:
            report.errors.append(error)
    collected.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    if baseline_entries:
        fresh, absorbed, stale = _apply_baseline(collected, baseline_entries)
        report.findings = fresh
        report.baselined = absorbed
        report.stale_baseline = stale
    else:
        report.findings = collected
    return report


def default_root(start: Optional[Path] = None) -> Path:
    """The repo root: nearest ancestor of ``start`` (or this file) that
    has a ``src/repro`` directory or a ``pyproject.toml``."""
    candidates = []
    if start is not None:
        candidates.append(Path(start).resolve())
    candidates.append(Path.cwd().resolve())
    candidates.append(Path(__file__).resolve().parents[3])
    for base in candidates:
        for p in (base, *base.parents):
            if (p / "src" / "repro").is_dir() or (p / "pyproject.toml").is_file():
                return p
    return Path.cwd().resolve()

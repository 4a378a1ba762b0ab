"""determinism: answer-producing code never iterates an unordered set.

Set iteration order is a hash-table implementation detail — it varies
with insertion history and (for strings) ``PYTHONHASHSEED``.  Any
answer assembled by walking a set can differ run-to-run while staying
"equal", which breaks byte-identical serialization, cross-backend
bundle identity, and the pool's bit-parity contract.  The rule flags
``for``-loops and comprehension generators whose iterable is:

* a set literal / set comprehension,
* a ``set(...)`` / ``frozenset(...)`` call,
* a name bound to one of those in the same function,

unless the iteration is wrapped in ``sorted(...)`` (which the wrapping
makes visible to the walker — the iterable's root is then the
``sorted`` call, not the set).  Dicts are insertion-ordered and thus
deterministic when their build order is; they are deliberately not
flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from ..framework import Finding, ModuleContext, Rule, own_nodes, register

RULE_ID = "determinism"

_HINT = (
    "iterate `sorted(the_set)` (or keep an explicitly ordered "
    "container) so answers and serialized bytes cannot depend on hash "
    "order"
)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _set_names(func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in own_nodes(func):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_set_expr(node.value) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _iterables(func: ast.AST) -> Iterator[ast.AST]:
    for node in own_nodes(func):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                yield gen.iter



def _check(ctx: ModuleContext) -> Iterator[Finding]:
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local_sets = _set_names(func)
        for it in _iterables(func):
            if _is_set_expr(it):
                yield ctx.finding(
                    RULE_ID,
                    it,
                    "iteration over an unordered set in answer-producing "
                    "code — order varies with hash seed and insertion "
                    "history",
                    _HINT,
                )
            elif isinstance(it, ast.Name) and it.id in local_sets:
                yield ctx.finding(
                    RULE_ID,
                    it,
                    f"iteration over set {it.id!r} in answer-producing "
                    "code — order varies with hash seed and insertion "
                    "history",
                    _HINT,
                )


register(
    Rule(
        id=RULE_ID,
        title="no iteration over unordered sets in answer paths",
        contract=(
            "Answers, labels and serialized bytes are a pure function "
            "of the input graph — never of hash order."
        ),
        rationale=(
            "The repo pins byte-identical bundles across backends, "
            "byte-identical re-saves of loaded bundles, and "
            "bit-identical pool answers.  All three die quietly if "
            "any contributing loop walks a set: the values stay 'equal' "
            "while their order — and thus tie-breaks, label layouts and "
            "serialized bytes — drifts between runs.  Such bugs evade "
            "example-based tests (CPython's int hashing is accidentally "
            "stable) and surface only under PYTHONHASHSEED churn or "
            "refactors."
        ),
        motivated_by=(
            "the cross-backend bundle byte-identity property tests "
            "(tests/test_backend_parity.py)"
        ),
        check=_check,
        paths=lambda rel: rel.endswith(".py")
        and any(
            d in "/" + rel for d in ("/baselines/", "/graph/", "/core/", "/serve/")
        ),
    )
)

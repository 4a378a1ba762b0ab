"""exact-accumulation: float distance/weight columns sum exactly once.

Builtin ``sum()`` adds left-to-right, so its result depends on the
order of the terms: two code paths that fold the same float64 distances
in different orders differ in the last ulp, which is enough to break
the "the tier never changes answers" contract.  ``math.fsum`` is
exactly rounded whatever the order (``Graph.total_weight`` uses it), so
any accumulation over distance/weight-named floats must go through it.

Two shapes are flagged in ``src/``:

* ``sum(<expr mentioning dist/weight names>)`` with the builtin ``sum``
  — unless every such name sits inside ``len(...)`` (counting label
  sizes is integer-exact and fine).
* ``for w in <distance/weight column>: total += w`` — the handwritten
  left-to-right column fold (the target accumulates the loop variable
  itself across iterations).

Deliberately *not* flagged: per-path chained sums (``total +=
graph.edge_weight(u, v)`` while walking a path) — those must stay
incremental to equal, bit for bit, the engines' own ``d + w`` chains;
rewriting them as fsum would *break* exactness, not restore it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import Finding, ModuleContext, Rule, register

RULE_ID = "exact-accumulation"

_HINT = (
    "accumulate with math.fsum(values) — exactly rounded, independent "
    "of summation order"
)


def _distlike(name: str) -> bool:
    low = name.lower()
    return "dist" in low or "weight" in low


#: Exact snake-case tokens that mark a loop iterable as a weight column
#: (``out_w`` / ``wt`` style names common in CSR code).
_COLUMN_TOKENS = {"w", "wt", "dist", "dists", "distance", "distances", "weight", "weights"}


def _column_like_iter(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        text = None
        if isinstance(sub, ast.Name):
            text = sub.id
        elif isinstance(sub, ast.Attribute):
            text = sub.attr
        if text is not None and any(
            tok in _COLUMN_TOKENS for tok in text.lower().split("_")
        ):
            return True
    return False


def _loop_var_names(target: ast.AST):
    for sub in ast.walk(target):
        if isinstance(sub, ast.Name):
            yield sub.id


def _distlike_names_outside_len(node: ast.AST) -> Iterator[ast.AST]:
    """Name/Attribute/str-key nodes with dist/weight names, skipping len()."""
    stack = [node]
    while stack:
        sub = stack.pop()
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "len"
        ):
            continue  # len(dists) counts entries; integer-exact
        if (
            isinstance(sub, ast.Name)
            and _distlike(sub.id)
            and not isinstance(sub.ctx, ast.Store)
        ):
            # Store-context names (comprehension targets, assignments)
            # bind values; only loaded names feed the sum.
            yield sub
        elif isinstance(sub, ast.Attribute) and _distlike(sub.attr):
            yield sub
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and _distlike(
            sub.value
        ):
            yield sub
        stack.extend(ast.iter_child_nodes(sub))


def _check(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
        ):
            hits = [
                h for arg in node.args for h in _distlike_names_outside_len(arg)
            ]
            if hits:
                yield ctx.finding(
                    RULE_ID,
                    node,
                    "builtin sum() over a distance/weight column — "
                    "left-to-right float addition depends on the order of "
                    "the terms in the last ulp",
                    _HINT,
                )
        elif isinstance(node, ast.For) and _column_like_iter(node.iter):
            loop_vars = set(_loop_var_names(node.target))
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.AugAssign)
                        and isinstance(sub.op, ast.Add)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id in loop_vars
                    ):
                        yield ctx.finding(
                            RULE_ID,
                            sub,
                            "`+=` fold of a distance/weight column in a "
                            "loop — left-to-right float addition depends "
                            "on the order of the terms in the last ulp",
                            _HINT,
                        )


register(
    Rule(
        id=RULE_ID,
        title="no builtin sum()/+= folds over float distance columns",
        contract=(
            "Float accumulations over distances/weights are exactly "
            "rounded (math.fsum), so every tier and every summation order "
            "produces the same float."
        ),
        rationale=(
            "Builtin sum() folds left-to-right, and any other order (a "
            "pairwise sum, a C loop, a regrouped batch) differs from it in "
            "the last ulp on float64 distance columns; the difference "
            "surfaces as a tier-parity failure thousands of hypothesis "
            "examples later.  Graph.total_weight sums through math.fsum "
            "for exactly this reason; the rule makes the convention "
            "mechanical for every future accumulation."
        ),
        motivated_by=(
            "Graph.total_weight (repro/graph/graph.py) and "
            "tests/test_backend_parity.py"
        ),
        check=_check,
        paths=lambda rel: rel.endswith(".py") and rel.startswith("src/"),
    )
)

"""backend-purity: nothing under ``src/`` imports numpy.

Every flat column is a stdlib ``array`` and every hot loop is either C
(:mod:`repro.native`) or the pure-python reference, so the package has
no optional numpy layer left.  An ``import numpy`` (or ``from numpy
import ...``) anywhere under ``src/``, ``repro/backend.py`` included,
would bring back a second container type and break installs without
numpy outright.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import Finding, ModuleContext, Rule, register

RULE_ID = "backend-purity"

_HINT = (
    "use stdlib array('q') / array('d') columns; hot loops belong in "
    "repro.native with a pure-python reference"
)


def _is_numpy(module: str) -> bool:
    return module == "numpy" or module.startswith("numpy.")


def _check(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_numpy(alias.name):
                    yield ctx.finding(
                        RULE_ID, node, f"`import {alias.name}` under src/", _HINT
                    )
        elif isinstance(node, ast.ImportFrom) and _is_numpy(node.module or ""):
            yield ctx.finding(
                RULE_ID, node, f"`from {node.module} import ...` under src/", _HINT
            )


register(
    Rule(
        id=RULE_ID,
        title="no numpy import under src/",
        contract=(
            "The package runs on the standard library plus its optional C "
            "extension; every column is one container type, the stdlib "
            "array."
        ),
        rationale=(
            "numpy was once an optional container layer for the graph "
            "columns; once every hot loop ran in C over stdlib arrays, "
            "that layer won nothing end to end and was deleted.  One "
            "stray `import numpy` would make numpy a dependency again and "
            "give the graph columns a second container type whose scalars "
            "hash, repr and pickle differently from Python floats."
        ),
        motivated_by=(
            "The deletion of the numpy container layer and "
            "tests/test_backend_parity.py, which holds the native tier to "
            "the pure one"
        ),
        check=_check,
        paths=lambda rel: rel.endswith(".py") and rel.startswith("src/"),
    )
)

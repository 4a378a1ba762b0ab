"""native-boundary-discipline: compiled code stays behind repro.native.

The native kernel tier (PR 10) adds a third way for answers to go
wrong: a stray ``ctypes`` load or a direct import of the compiled
``_hubjoin`` module bypasses the facade that keeps compiler-less
deployments working, and a native kernel result returned without
re-containering can leak extension-owned objects into answer paths.
Two checks:

* **Load discipline** — importing ``ctypes`` / ``cffi`` or any compiled
  ``native._*`` module (``from repro.native import _hubjoin``,
  ``import repro.native._hubjoin``, relative forms included) is allowed
  only inside ``repro/native/``.  Everything else goes through the
  :mod:`repro.native` facade, whose import never fails.
* **Boundary coercion** — inside ``baselines/``, ``graph/`` and
  ``core/``, a function that calls the facade's kernels
  (``native.distance`` / ``_native.distance_table`` / ...) is a
  *native kernel region*: values it returns must cross back through the
  ``float()`` / ``int()`` / ``list()`` constructors (or ``.tolist()``).
  Returning the kernel call bare, or a bare subscript of its result, is
  flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import (
    Finding,
    ModuleContext,
    Rule,
    dotted_name,
    own_nodes,
    register,
)

RULE_ID = "native-boundary-discipline"

#: Module prefixes that mean "loading compiled code by hand".
_FFI_MODULES = ("ctypes", "cffi")

#: Aliases the repo uses for the repro.native facade in kernel modules.
_FACADE_NAMES = ("native", "_native")

#: Coercers that legitimise a kernel result at the return boundary.
_COERCERS = {"float", "int", "list", "tuple"}

#: Directories whose functions form native regions for the return check.
_KERNEL_DIRS = ("/baselines/", "/graph/", "/core/")


def _inside_native_pkg(rel: str) -> bool:
    return "/native/" in "/" + rel


def _is_ffi(mod: str) -> bool:
    return any(mod == m or mod.startswith(m + ".") for m in _FFI_MODULES)


def _is_compiled_native(mod: str) -> bool:
    """True for dotted module paths naming a compiled native submodule."""
    parts = mod.split(".")
    for i, part in enumerate(parts[:-1]):
        if part == "native" and parts[i + 1].startswith("_"):
            return True
    return False


def _flag_imports(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_ffi(alias.name) or _is_compiled_native(alias.name):
                    yield ctx.finding(
                        RULE_ID,
                        node,
                        f"direct `import {alias.name}` outside repro/native/",
                        "go through the repro.native facade — it degrades "
                        "cleanly when no extension is built",
                    )
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if _is_ffi(mod) or _is_compiled_native(mod):
                yield ctx.finding(
                    RULE_ID,
                    node,
                    f"direct `from {mod} import ...` outside repro/native/",
                    "go through the repro.native facade — it degrades "
                    "cleanly when no extension is built",
                )
                continue
            # `from repro.native import _hubjoin` / `from .native import _x`
            if mod == "native" or mod.endswith(".native"):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        yield ctx.finding(
                            RULE_ID,
                            node,
                            f"compiled module `{alias.name}` imported from "
                            f"`{mod or '.'}` outside repro/native/",
                            "import the repro.native facade instead and call "
                            "its wrappers",
                        )


def _is_facade_call(value: ast.AST) -> bool:
    """True for a call whose func is ``native.x`` / ``_native.x``."""
    if not isinstance(value, ast.Call) or not isinstance(value.func, ast.Attribute):
        return False
    name = dotted_name(value.func)
    return any(name.startswith(f + ".") for f in _FACADE_NAMES)


def _is_native_region(func: ast.AST) -> bool:
    """True when the function's body calls the repro.native facade."""
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            name = dotted_name(node)
            if any(name.startswith(f + ".") for f in _FACADE_NAMES):
                return True
    return False


def _flag_boundary_leaks(ctx: ModuleContext) -> Iterator[Finding]:
    rel = "/" + ctx.rel
    if not any(d in rel for d in _KERNEL_DIRS):
        return
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_native_region(func):
            continue
        for node in own_nodes(func):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            if _is_facade_call(value):
                yield ctx.finding(
                    RULE_ID,
                    node,
                    "native kernel result returned bare — re-container it "
                    "at the boundary",
                    "wrap the call: float(...) for scalars, list(...) for "
                    "columns/tables",
                )
            elif isinstance(value, ast.Subscript):
                yield ctx.finding(
                    RULE_ID,
                    node,
                    "native kernel region returns a bare subscript — "
                    "coerce before crossing the boundary",
                    "wrap the value: return float(x[i]) / int(x[i])",
                )
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _COERCERS
                and not value.args
            ):
                yield ctx.finding(
                    RULE_ID,
                    node,
                    f"empty `{value.func.id}()` cannot be coercing a kernel "
                    "result",
                    "pass the kernel result through the constructor",
                )


def _check(ctx: ModuleContext) -> Iterator[Finding]:
    if _inside_native_pkg(ctx.rel):
        return
    yield from _flag_imports(ctx)
    yield from _flag_boundary_leaks(ctx)


register(
    Rule(
        id=RULE_ID,
        title="compiled code only behind repro.native; kernel results re-containered",
        contract=(
            "A checkout without a C toolchain must behave exactly like one "
            "with it (minus speed): no module outside repro/native/ may "
            "load shared libraries or import the compiled extension, and "
            "native kernel results cross back as plain floats/lists."
        ),
        rationale=(
            "PR 10 added the native kernel tier with the same "
            "bit-identical-fallback pattern as the backend layer.  One "
            "direct `import repro.native._hubjoin` crashes every "
            "compiler-less deployment; one ctypes.CDLL bypasses the "
            "facade's degradation path; one bare kernel-result return "
            "would let extension-owned containers flow into answer paths "
            "that expect plain Python floats and lists."
        ),
        motivated_by=(
            "repro.native's facade — tests/test_backend_parity.py pins "
            "the native/pure bit-identity this discipline protects"
        ),
        check=_check,
        paths=lambda rel: rel.endswith(".py"),
    )
)

"""serialize-symmetry: every packed struct format has a matching reader.

The bundle formats (GCSR1/AHIDX1/HLIDX2) promise byte-identical files
from either backend and byte-exact round-trips; that only holds when
every ``struct.pack`` in a section writer has a byte-compatible
``unpack`` in the matching reader, and every format is explicitly
little-endian (a bare ``"q"`` would silently follow native alignment
and byte order).  Checks, per module:

* struct format strings must be literals (a computed format cannot be
  checked for symmetry — and the repo never needs one);
* every format is explicitly little-endian (starts with ``"<"``);
* every *pack* format's expanded field sequence must appear among the
  module's *unpack* formats (readers may additionally peek at prefixes,
  so unpaired unpacks are fine).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from ..framework import Finding, ModuleContext, Rule, dotted_name, register

RULE_ID = "serialize-symmetry"

_PACK_FUNCS = {"pack", "pack_into"}
_UNPACK_FUNCS = {"unpack", "unpack_from", "iter_unpack"}
_FMT_RE = re.compile(r"(\d*)([xcbB?hHiIlLqQnNefdspP])")


def _expand(fmt: str) -> Optional[Tuple[str, ...]]:
    """``"<iii3d"`` -> ``('i','i','i','d','d','d')``; None if unparsable."""
    body = fmt[1:] if fmt[:1] in "<>=!@" else fmt
    fields: List[str] = []
    pos = 0
    for m in _FMT_RE.finditer(body):
        if m.start() != pos:
            return None
        count = int(m.group(1)) if m.group(1) else 1
        code = m.group(2)
        if code == "s":  # count is a byte length, not a repeat
            fields.append(f"{count}s")
        else:
            fields.extend([code] * count)
        pos = m.end()
    if pos != len(body):
        return None
    return tuple(fields)


def _struct_calls(ctx: ModuleContext) -> Iterator[Tuple[str, ast.Call, ast.AST]]:
    """Yield ``(kind, call, fmt_node)`` for struct.* calls with a format."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if not name.startswith("struct."):
            continue
        attr = name.split(".", 1)[1]
        if attr in _PACK_FUNCS:
            kind = "pack"
        elif attr in _UNPACK_FUNCS:
            kind = "unpack"
        elif attr in ("Struct", "calcsize"):
            kind = "both"
        else:
            continue
        if node.args:
            yield kind, node, node.args[0]


def _check(ctx: ModuleContext) -> Iterator[Finding]:
    packs: List[Tuple[str, ast.Call]] = []
    unpack_fields = set()
    deferred: List[Finding] = []
    for kind, call, fmt_node in _struct_calls(ctx):
        if not (isinstance(fmt_node, ast.Constant) and isinstance(fmt_node.value, str)):
            deferred.append(
                ctx.finding(
                    RULE_ID,
                    call,
                    "struct format is not a string literal — symmetry "
                    "cannot be checked",
                    "inline the format as a literal (build fixed-width "
                    "sections; variable payloads go through length-"
                    "prefixed byte blobs)",
                )
            )
            continue
        fmt = fmt_node.value
        if not fmt.startswith("<"):
            deferred.append(
                ctx.finding(
                    RULE_ID,
                    call,
                    f"struct format {fmt!r} is not explicitly "
                    "little-endian — native order/alignment varies by "
                    "platform",
                    'prefix the format with "<"',
                )
            )
        fields = _expand(fmt)
        if kind in ("pack", "both") and fields is not None:
            packs.append((fmt, call))
        if kind in ("unpack", "both") and fields is not None:
            unpack_fields.add(fields)
    yield from deferred
    for fmt, call in packs:
        fields = _expand(fmt)
        if fields not in unpack_fields:
            yield ctx.finding(
                RULE_ID,
                call,
                f"struct.pack format {fmt!r} has no byte-compatible "
                "unpack in this module — the reader cannot round-trip "
                "what this writer emits",
                "add the matching unpack to the section reader (or fix "
                "the asymmetric format)",
            )


register(
    Rule(
        id=RULE_ID,
        title="little-endian literal struct formats, pack/unpack paired",
        contract=(
            "Serialized sections round-trip byte-for-byte: every packed "
            "format has a byte-compatible reader and no format depends "
            "on platform byte order."
        ),
        rationale=(
            "The bundle formats promise save->load->save byte identity "
            "across backends and platforms (property-tested since PR 3, "
            "hardened by PR 6's compact columns).  A writer whose pack "
            "format gained a field the reader never learned about "
            "corrupts every bundle silently until a load crashes "
            "sections later; a native-order format corrupts them only "
            "on the *other* platform.  Both asymmetries are fully "
            "visible statically."
        ),
        motivated_by=(
            "PR 6 HLIDX2 round-trip suite (tests/test_hl_compact.py) and "
            "the PR 3 bundle byte-identity property tests "
            "(tests/test_backend_parity.py)"
        ),
        check=_check,
        paths=lambda rel: rel.endswith(".py") and rel.startswith("src/"),
    )
)

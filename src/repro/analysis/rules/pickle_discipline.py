"""hot-path-pickle-discipline: request objects do not ride the pipe.

PR 9's request lanes exist because pickling a ``List[Request]`` per
sub-batch made the dispatcher's send cost scale with the *object count*
— dataclass ``__reduce__`` per request, a tuple per id pair — instead
of the byte count.  The packed REQCOL path (``core.serialize
.pack_requests`` into a shared-memory ring, a ~60-byte control frame on
the pipe) closed that floor; this rule keeps it closed by flagging the
regression shape mechanically:

* any ``*.send(...)`` call in the serve tier whose argument subtree
  mentions a request-sequence identifier (``req`` / ``reqs`` /
  ``request`` / ``requests``), and
* any ``pickle.dumps(...)`` over the same identifiers,

must either go through the packed encoder or carry an explicit
``# repro: allow[<rule id>]`` annotation naming *why* the pickled path
is correct there.  The pool itself needs none: every request kind
packs, and retries and hedges resend the packed payload in-band.

The check is identifier-based on purpose: it cannot prove dataflow, but
every pickled-request regression so far spelled the payload ``req*`` at
the send site, and the annotation escape keeps deliberate seams honest
and greppable.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import (
    Finding,
    ModuleContext,
    Rule,
    dotted_name,
    register,
)

RULE_ID = "hot-path-pickle-discipline"

#: Identifiers that spell "a request object / sequence" at a send site.
_REQUESTISH = frozenset({"req", "reqs", "request", "requests"})


def _mentions_requests(node: ast.AST) -> bool:
    """Does this argument subtree name a request object / sequence?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id.lower() in _REQUESTISH:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr.lower() in _REQUESTISH:
            return True
    return False


def _is_pickle_dumps(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    return name.endswith("pickle.dumps") or name == "dumps"


def _is_send(call: ast.Call) -> bool:
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in ("send", "send_bytes")
    )


def _check(ctx: ModuleContext) -> Iterator[Finding]:
    for call in ast.walk(ctx.tree):
        if not isinstance(call, ast.Call):
            continue
        payload = [*call.args, *(kw.value for kw in call.keywords)]
        if not any(_mentions_requests(arg) for arg in payload):
            continue
        if _is_send(call):
            yield ctx.finding(
                RULE_ID,
                call,
                "request objects sent over the pipe — per-object pickling "
                "is the IPC floor the request lanes removed",
                "pack the sub-batch (core.serialize.pack_requests) into "
                "the request ring and send the ~60-byte control frame; "
                "annotate deliberate fallback seams with "
                f"# repro: allow[{RULE_ID}]",
            )
        elif _is_pickle_dumps(call):
            yield ctx.finding(
                RULE_ID,
                call,
                "pickle.dumps over request objects on a dispatch path — "
                "serialization cost scales with object count, not bytes",
                "use the REQCOL packed encoding (pack_requests) or "
                f"annotate with # repro: allow[{RULE_ID}]",
            )


register(
    Rule(
        id=RULE_ID,
        title="serve-tier dispatch never pickles per-request object sequences",
        contract=(
            "No .send()/pickle.dumps over request-sequence identifiers "
            "in repro.serve outside explicitly annotated fallback seams; "
            "sub-batches ride the packed REQCOL request lanes."
        ),
        rationale=(
            "PR 9 measured the dispatcher's request side: pickling a "
            "List[Request] per sub-batch costs one __reduce__ round per "
            "request object, so dispatch overhead grows with the object "
            "count even when the payload is a few flat id columns.  The "
            "shared-memory request ring carries the same information as "
            "packed columns behind a fixed-size control frame (>=10x "
            "fewer pipe bytes on the NH pool workload).  One casual "
            "send(reqs) on a hot path silently reopens that floor."
        ),
        motivated_by=(
            "PR 9 request lanes (repro/serve/pool.py _encode_sub, "
            "core/serialize.py pack_requests) and the request_path "
            "accounting in benchmarks/test_pool_speed.py"
        ),
        check=_check,
        paths=lambda rel: (
            rel.startswith("src/repro/serve/")
            and rel.endswith(".py")
            and not rel.endswith("/faults.py")
        ),
    )
)

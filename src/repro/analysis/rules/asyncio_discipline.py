"""asyncio-discipline: coroutines never block the event loop.

The serving tier's whole design (PR 4) is one event loop that keeps
accepting submissions while batches compute elsewhere; a single
blocking call inside a coroutine stalls every connected client.  The
checks, applied to every ``async def``:

* no ``time.sleep`` (use ``await asyncio.sleep``);
* no bare ``open()`` — file I/O belongs in an executor;
* no blocking pipe reads: ``.recv()`` / ``.recv_bytes()`` / ``.poll()``
  on a connection, unless the call is awaited (an async transport);
* no synchronous ``with <...lock...>:`` whose body contains ``await`` —
  holding a thread lock across a suspension point deadlocks the loop
  the moment a worker thread wants the same lock.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import (
    Finding,
    ModuleContext,
    Rule,
    contains,
    dotted_name,
    own_nodes,
    register,
)

RULE_ID = "asyncio-discipline"

_BLOCKING_ATTRS = {"recv", "recv_bytes", "poll"}


def _from_time_sleep_imported(ctx: ModuleContext) -> bool:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            if any(alias.name == "sleep" for alias in node.names):
                return True
    return False


def _check(ctx: ModuleContext) -> Iterator[Finding]:
    bare_sleep_is_time = _from_time_sleep_imported(ctx)
    for func in ast.walk(ctx.tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        parents = ctx.parents
        for node in own_nodes(func):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                awaited = isinstance(parents.get(node), ast.Await)
                if name == "time.sleep" or (
                    bare_sleep_is_time and name == "sleep"
                ):
                    yield ctx.finding(
                        RULE_ID,
                        node,
                        "blocking time.sleep() inside a coroutine stalls "
                        "the whole event loop",
                        "use `await asyncio.sleep(...)`",
                    )
                elif name == "open" and not awaited:
                    yield ctx.finding(
                        RULE_ID,
                        node,
                        "file I/O via open() inside a coroutine blocks the "
                        "event loop",
                        "run file I/O in an executor "
                        "(loop.run_in_executor) or outside the coroutine",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _BLOCKING_ATTRS
                    and not awaited
                ):
                    yield ctx.finding(
                        RULE_ID,
                        node,
                        f"blocking pipe `.{node.func.attr}()` inside a "
                        "coroutine stalls the event loop until the peer "
                        "writes",
                        "move pipe reads off-loop (executor) or use an "
                        "asyncio transport",
                    )
            elif isinstance(node, ast.With):
                held = any(
                    "lock" in dotted_name(item.context_expr).lower()
                    or (
                        isinstance(item.context_expr, ast.Call)
                        and "lock" in dotted_name(item.context_expr.func).lower()
                    )
                    for item in node.items
                )
                if held and contains(node, ast.Await):
                    yield ctx.finding(
                        RULE_ID,
                        node,
                        "synchronous lock held across an await — a worker "
                        "thread contending for it deadlocks the event loop",
                        "release the lock before awaiting, or use "
                        "asyncio.Lock with `async with`",
                    )


register(
    Rule(
        id=RULE_ID,
        title="no blocking calls or thread locks held across await in coroutines",
        contract=(
            "The serving event loop always stays responsive: coroutines "
            "never sleep, read pipes/files, or hold thread locks across "
            "a suspension point."
        ),
        rationale=(
            "PR 4's coalescing Server and PR 5's pool tier multiplex "
            "thousands of clients over one event loop; the design "
            "carefully routes every blocking operation (pool dispatch, "
            "pipe reads) through the pool's dispatch thread.  "
            "One stray time.sleep or pipe recv() in a coroutine turns "
            "p99 latency into the blocking call's duration for every "
            "concurrent client — invisible in unit tests, catastrophic "
            "under load."
        ),
        motivated_by=(
            "PR 4 serve tier (repro/serve/server.py, tests/test_serve.py) "
            "and PR 5's always-off-loop pool dispatch"
        ),
        check=_check,
        paths=lambda rel: rel.endswith(".py") and rel.startswith("src/"),
    )
)

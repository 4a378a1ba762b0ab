"""``repro.serve`` — the asyncio serving subsystem.

Turns the repo's library of distance oracles into a *system that serves
them*: a :class:`Server` coalesces concurrent in-flight requests into
:class:`~repro.baselines.base.QueryPlanner` batches (window / max-batch
policy, backpressure, per-request deadlines) so one index answers many
clients through its batched kernels instead of one query at a time.

The request vocabulary is the planner's
(:class:`~repro.baselines.base.DistanceRequest` /
:class:`~repro.baselines.base.OneToManyRequest` /
:class:`~repro.baselines.base.TableRequest`), re-exported here so a
serving client needs only this package::

    from repro.serve import Server, DistanceRequest

    async with Server(engine, cache=True) as server:
        d = await server.distance(3, 999)

A server runs each batch inline on the event loop, or, scaling past one
core, on the multi-process worker tier of :mod:`repro.serve.pool`: a
:class:`WorkerPool` of engine replicas, each booted from the path of one
serialized bundle file, pluggable into the same :class:`Server`::

    from repro.serve import Server, WorkerPool

    with WorkerPool("nh.bundle", workers=4, cache=True) as pool:
        async with Server(None, pool=pool) as server:
            d = await server.distance(3, 999)

See ``examples/serve_demo.py`` / ``examples/scale_out.py`` for the full
tour and ``benchmarks/test_serve_speed.py`` /
``benchmarks/test_pool_speed.py`` for the recorded throughput story.
"""

from ..baselines.base import (
    DistanceRequest,
    OneToManyRequest,
    Request,
    TableRequest,
)
from ..core.serialize import BundleCorrupted
from .faults import FaultPlan
from .health import BackoffPolicy, CircuitBreaker
from .pool import (
    HedgeMismatch,
    ReplyCorrupted,
    RequestCorrupted,
    WorkerCrashed,
    WorkerPool,
    WorkerStalled,
)
from .server import DeadlineExpired, Server, ServerClosed, ServerOverloaded

__all__ = [
    "BackoffPolicy",
    "BundleCorrupted",
    "CircuitBreaker",
    "DeadlineExpired",
    "DistanceRequest",
    "FaultPlan",
    "HedgeMismatch",
    "OneToManyRequest",
    "ReplyCorrupted",
    "Request",
    "RequestCorrupted",
    "Server",
    "ServerClosed",
    "ServerOverloaded",
    "TableRequest",
    "WorkerCrashed",
    "WorkerPool",
    "WorkerStalled",
]

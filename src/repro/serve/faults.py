"""``repro.serve.faults`` — deterministic, seedable fault injection.

The serving tier's resilience claims (watchdogs, hedging, retry,
breakers, CRC-verified replies — see ``repro.serve.pool``) are only as
good as the failures they were demonstrated against.  This module is
the failure generator: a :class:`FaultPlan` scripts *which worker
misbehaves how at which dispatch*, and the pool carries the selected
action to the worker inside the batch message, where
:func:`apply_pre` / :func:`apply_reply` execute it at exactly the
moment the matching production fault would strike.

Design rules:

* **Deterministic.**  A plan is a plain ``{(dispatch, slot): action}``
  mapping; :meth:`FaultPlan.random` derives one from a seed via
  ``random.Random`` — same seed, same outage, every run.  No fault
  ever consults wall-clock state.
* **Consumed once.**  :meth:`FaultPlan.take` pops the action, so the
  pool's retry/hedge machinery re-runs the sub-batch *clean* — the
  harness tests recovery, not permanent sabotage (schedule the same
  ``(dispatch, slot)`` key once per dispatch; repeated failures are
  expressed as faults across consecutive dispatches).
* **Off the hot path.**  The production pool runs with
  ``fault_plan=None`` and every injection site sits behind an
  ``is None`` fast path (mechanically enforced by the
  ``recv-timeout-discipline`` analysis rule).

Worker-side actions (dicts, picklable across the pipe):

==========  ===========================================================
``kill``    ``os._exit`` mid-batch — the OOM-kill / segfault stand-in.
``stall``   sleep ``seconds`` before computing — a stuck-but-alive
            worker (SIGSTOP, lock wedge); invisible to liveness
            checks, only a recv watchdog can see it.
``corrupt`` flip one payload byte *after* the CRC was computed — a
            torn shared-memory write or DMA bit-flip.
``truncate`` drop the payload's last 8 bytes, CRC unchanged — a
            short write.
==========  ===========================================================

Dispatcher-side actions (the symmetric **request-lane** faults, applied
by the pool *before* the frame is sent — the worker only ever sees the
damage, exactly like a torn write it did not cause):

=================  ====================================================
``req_corrupt``    flip one byte of the packed request payload after
                   its CRC went into the control frame.
``req_truncate``   short-write the packed request payload into the
                   lane, frame metadata unchanged.
=================  ====================================================

Every sub-batch is packed, so a request fault always lands: on the
lane payload, or on the in-band ``"reqp"`` payload of a batch too big
for the lane.  Retries resend the clean payload.

File-level helpers :func:`torn_copy` / :func:`flipped_copy` damage a
*copy* of a bundle file for the ``BundleCorrupted`` tests; they never
touch the original.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Dict, Optional, Tuple

__all__ = [
    "CRASH_EXIT_CODE",
    "FaultPlan",
    "apply_pre",
    "apply_reply",
    "apply_request",
    "corrupt",
    "flipped_copy",
    "is_request_fault",
    "kill",
    "req_corrupt",
    "req_truncate",
    "stall",
    "torn_copy",
    "truncate",
]

#: Exit code for a deliberate injected death, so a scripted kill is
#: distinguishable from a real fault in CI logs (shared with the
#: pool's ``CrashRequest`` hook).
CRASH_EXIT_CODE = 86

_REPLY_KINDS = ("corrupt", "truncate")
_REQUEST_KINDS = ("req_corrupt", "req_truncate")
_ALL_KINDS = ("kill", "stall") + _REPLY_KINDS + _REQUEST_KINDS


# ----------------------------------------------------------------------
# Action constructors — tiny dict factories so schedules read declaratively
# ----------------------------------------------------------------------
def kill() -> dict:
    """Die mid-batch (``os._exit``), after the batch was received."""
    return {"kind": "kill"}


def stall(seconds: float) -> dict:
    """Sleep ``seconds`` before computing — a stuck-but-alive worker."""
    if seconds < 0:
        raise ValueError(f"stall seconds must be >= 0, got {seconds}")
    return {"kind": "stall", "seconds": seconds}


def corrupt(offset: Optional[int] = None) -> dict:
    """Flip one reply-payload byte (at ``offset``, default last byte)."""
    return {"kind": "corrupt", "offset": offset}


def truncate(drop: int = 8) -> dict:
    """Drop the reply payload's last ``drop`` bytes, CRC unchanged."""
    if drop <= 0:
        raise ValueError(f"truncate drop must be positive, got {drop}")
    return {"kind": "truncate", "drop": drop}


def req_corrupt(offset: Optional[int] = None) -> dict:
    """Flip one *request*-payload byte (at ``offset``, default last)."""
    return {"kind": "req_corrupt", "offset": offset}


def req_truncate(drop: int = 8) -> dict:
    """Short-write the packed request payload by ``drop`` bytes."""
    if drop <= 0:
        raise ValueError(f"req_truncate drop must be positive, got {drop}")
    return {"kind": "req_truncate", "drop": drop}


def is_request_fault(action: dict) -> bool:
    """True when the action damages the outbound request payload —
    the dispatcher consumes those itself instead of forwarding them."""
    return action.get("kind") in _REQUEST_KINDS


class FaultPlan:
    """A scripted schedule of worker faults, keyed by (dispatch, slot).

    ``dispatch`` is the pool's 0-based dispatch counter (one ``execute``
    call that reaches the workers is one dispatch); ``slot`` is the
    worker index the sub-batch was sent to.  Actions are the dicts the
    module-level constructors build.
    """

    def __init__(
        self, schedule: Optional[Dict[Tuple[int, int], dict]] = None
    ) -> None:
        self._schedule: Dict[Tuple[int, int], dict] = {}
        for key, action in (schedule or {}).items():
            d, s = key
            if d < 0 or s < 0:
                raise ValueError(f"bad schedule key {key!r}")
            if action.get("kind") not in _ALL_KINDS:
                raise ValueError(
                    f"unknown fault kind {action.get('kind')!r}; "
                    f"expected one of {_ALL_KINDS}"
                )
            self._schedule[(d, s)] = dict(action)
        self.injected = 0

    @classmethod
    def scripted(cls, schedule: Dict[Tuple[int, int], dict]) -> "FaultPlan":
        return cls(schedule)

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        dispatches: int,
        slots: int,
        rate: float = 0.25,
        kinds: Tuple[str, ...] = _ALL_KINDS,
        stall_s: float = 0.5,
    ) -> "FaultPlan":
        """A seed-derived schedule: each (dispatch, slot) cell draws a
        fault with probability ``rate``.  Same seed, same outage."""
        if not 0 <= rate <= 1:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        for k in kinds:
            if k not in _ALL_KINDS:
                raise ValueError(f"unknown fault kind {k!r}")
        rng = random.Random(seed)
        schedule: Dict[Tuple[int, int], dict] = {}
        for d in range(dispatches):
            for s in range(slots):
                if rng.random() >= rate:
                    continue
                k = rng.choice(kinds)
                if k == "kill":
                    schedule[(d, s)] = kill()
                elif k == "stall":
                    schedule[(d, s)] = stall(stall_s)
                elif k == "corrupt":
                    schedule[(d, s)] = corrupt()
                elif k == "req_corrupt":
                    schedule[(d, s)] = req_corrupt()
                elif k == "req_truncate":
                    schedule[(d, s)] = req_truncate()
                else:
                    schedule[(d, s)] = truncate()
        return cls(schedule)

    # ------------------------------------------------------------------
    def take(self, dispatch: int, slot: int) -> Optional[dict]:
        """Pop (consume) the action for this cell, or None.

        Consumption is what makes retries run clean — the pool calls
        this exactly once per original dispatch of a sub-batch.
        """
        action = self._schedule.pop((dispatch, slot), None)
        if action is not None:
            self.injected += 1
        return action

    def pending(self) -> Dict[Tuple[int, int], dict]:
        """The not-yet-consumed remainder (for test assertions)."""
        return dict(self._schedule)

    def __len__(self) -> int:
        return len(self._schedule)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(pending={len(self._schedule)}, "
            f"injected={self.injected})"
        )


# ----------------------------------------------------------------------
# Worker-side appliers (called inside the worker's serve loop)
# ----------------------------------------------------------------------
def apply_pre(action: dict) -> None:
    """Run a pre-compute fault: ``kill`` dies, ``stall`` sleeps."""
    kind = action["kind"]
    if kind == "kill":
        os._exit(CRASH_EXIT_CODE)
    elif kind == "stall":
        time.sleep(action["seconds"])


def apply_reply(action: dict, blob: bytes) -> bytes:
    """Damage the reply payload *after* its CRC was computed.

    Returns the bytes the worker should actually write/send; the
    already-computed CRC of the clean ``blob`` goes out unchanged, so
    the parent's verification must catch the damage.
    """
    kind = action["kind"]
    if kind == "corrupt" and blob:
        off = action.get("offset")
        if off is None or not 0 <= off < len(blob):
            off = len(blob) - 1
        out = bytearray(blob)
        out[off] ^= 0xFF
        return bytes(out)
    if kind == "truncate":
        return blob[: max(0, len(blob) - action["drop"])]
    return blob


def apply_request(action: dict, blob: bytes) -> bytes:
    """Damage the packed *request* payload after its CRC was framed.

    The dispatcher-side mirror of :func:`apply_reply`: the control
    frame carries the clean payload's CRC and length, the lane (or
    pipe) carries these damaged bytes, and the worker's verification
    must refuse to reconstruct requests from them.  Non-request kinds
    pass through untouched.
    """
    kind = action["kind"]
    if kind == "req_corrupt" and blob:
        off = action.get("offset")
        if off is None or not 0 <= off < len(blob):
            off = len(blob) - 1
        out = bytearray(blob)
        out[off] ^= 0xFF
        return bytes(out)
    if kind == "req_truncate":
        return blob[: max(0, len(blob) - action["drop"])]
    return blob


# ----------------------------------------------------------------------
# Bundle-file damage (operates on copies; for BundleCorrupted tests)
# ----------------------------------------------------------------------
def torn_copy(path: str, dst: str, keep_frac: float = 0.5) -> str:
    """Copy ``path`` to ``dst`` truncated to ``keep_frac`` of its size —
    the half-written bundle a crashed deploy leaves behind."""
    if not 0 < keep_frac < 1:
        raise ValueError(f"keep_frac must be in (0, 1), got {keep_frac}")
    shutil.copyfile(path, dst)
    size = os.path.getsize(dst)
    with open(dst, "r+b") as fh:
        fh.truncate(max(1, int(size * keep_frac)))
    return dst


def flipped_copy(path: str, dst: str, offset: Optional[int] = None) -> str:
    """Copy ``path`` to ``dst`` with one byte flipped (default: middle) —
    the bit-rot / bad-sector case."""
    shutil.copyfile(path, dst)
    size = os.path.getsize(dst)
    if size == 0:
        raise ValueError(f"{path!r} is empty")
    if offset is None:
        offset = size // 2
    if not 0 <= offset < size:
        raise ValueError(f"offset {offset} outside file of {size} bytes")
    with open(dst, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))
    return dst

"""Worker-side realisation of a :class:`~repro.faults.plan.FaultPlan`.

A :class:`WorkerFaultInjector` is created for each worker (process
child, thread, serial lane or simulated thread) from the specs that
target it; it is the only code that interprets fault triggers.  With no
plan its hooks do nothing, so every executor runs one loop whether or
not faults are injected.  The executors call two hooks:

* :meth:`on_claim` — after every successful work claim (a dynamic-
  counter chunk, or the single implicit claim of a static assignment).
  Arms ``kill`` / ``stall`` / ``corrupt-pipe`` specs counted in claims.
* :meth:`on_iteration` — before each loop index runs.  Arms ``raise``
  specs pinned to an iteration.

Each armed spec fires at most once.  ``kill`` delivers a *real*
``SIGKILL`` to the calling process when ``hard=True`` (process
backend) and raises :class:`ThreadDeath` otherwise (threads and serial
backends and the simulator, where killing the process would take the
whole interpreter down).  A ``stall`` calls the ``sleep`` hook, which
the simulator points at its virtual clock.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Callable, List, Optional

from ..exceptions import FaultInjected
from .plan import CORRUPT_PIPE, KILL, RAISE, STALL, FaultPlan, FaultSpec

__all__ = ["ThreadDeath", "WorkerFaultInjector"]

#: bytes a corrupt-pipe fault writes over the result pipe; deliberately
#: not a valid pickle so the parent's ``recv`` raises mid-decode
CORRUPT_PAYLOAD = b"\x00repro-fault-corrupt\xff"


class ThreadDeath(BaseException):
    """Injected in-thread stand-in for a worker death.

    Derives from ``BaseException`` so application-level ``except
    Exception`` blocks inside loop bodies cannot swallow it — like a
    real SIGKILL, nothing user-level gets to veto it.
    """

    def __init__(self, worker: int, spec: FaultSpec) -> None:
        super().__init__(f"injected death of worker {worker} ({spec.kind})")
        self.worker = worker
        self.spec = spec


class WorkerFaultInjector:
    """Consumes one worker's fault specs as execution progresses."""

    __slots__ = ("worker", "hard", "claims", "_armed", "_sleep")

    def __init__(
        self,
        plan: Optional[FaultPlan],
        worker: int,
        *,
        round: int = 0,
        hard: bool = False,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.worker = worker
        self.hard = hard
        self.claims = 0
        self._sleep = sleep
        self._armed: List[FaultSpec] = (
            list(plan.for_worker(worker, round=round)) if plan else []
        )

    def __bool__(self) -> bool:
        return bool(self._armed)

    def _die(self, spec: FaultSpec, conn=None) -> None:
        if spec.kind == CORRUPT_PIPE and conn is not None:
            try:
                conn.send_bytes(CORRUPT_PAYLOAD)
            except OSError:  # parent already gone; just die
                pass
        if self.hard:
            os.kill(os.getpid(), signal.SIGKILL)
            # pragma: no cover — unreachable after SIGKILL
        raise ThreadDeath(self.worker, spec)

    def on_claim(self, conn=None) -> None:
        """Hook after a successful work claim; may stall or never return."""
        if not self._armed:
            return
        self.claims += 1
        keep: List[FaultSpec] = []
        fatal: Optional[FaultSpec] = None
        for spec in self._armed:
            if spec.kind == RAISE or self.claims < spec.after_claims:
                keep.append(spec)
            elif spec.kind == STALL:
                self._sleep(spec.seconds)  # consumed
            elif fatal is None:
                fatal = spec  # kill / corrupt-pipe: consumed below
            else:
                keep.append(spec)
        self._armed = keep
        if fatal is not None:
            self._die(fatal, conn)  # no return

    def on_iteration(self, i: int) -> None:
        """Hook before iteration ``i`` executes; may raise FaultInjected."""
        if not self._armed:
            return
        for spec in self._armed:
            if spec.kind == RAISE and spec.iteration == i:
                self._armed = [s for s in self._armed if s is not spec]
                raise FaultInjected(
                    f"injected failure at iteration {i} "
                    f"(worker {self.worker})"
                )

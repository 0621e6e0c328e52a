"""GPU device: per-owner render-job queues processed at the current clock.

The GPU is modelled as a single execution engine: applications submit jobs
(cycles + completion tag), and each tick the device drains ``freq * dt``
cycles of work.  Two scheduling modes:

* ``"fair"`` (default) — each tick's capacity is shared equally among the
  owners with pending work (round-robin between app contexts, like a GPU
  driver time-slicing command streams); jobs within one owner stay FIFO.
* ``"fifo"`` — one global queue in strict submission order.

With a single owner the two are identical.  Busy fraction feeds the devfreq
governor and the power model.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Hashable

from repro.errors import ConfigurationError, SchedulingError


@dataclass
class GpuJob:
    """One render job (typically: one frame's GPU stage)."""

    cycles: float
    tag: Hashable


@dataclass
class GpuTickResult:
    """Outcome of one GPU tick."""

    busy_fraction: float
    completed_tags: list[Hashable]
    owner_cycles: dict[str, float]


class GpuDevice:
    """Single GPU engine with fair or FIFO scheduling across owners."""

    def __init__(self, scheduling: str = "fair") -> None:
        if scheduling not in ("fair", "fifo"):
            raise ConfigurationError(f"unknown GPU scheduling {scheduling!r}")
        self.scheduling = scheduling
        self._queues: "OrderedDict[str, deque[GpuJob]]" = OrderedDict()

    def submit(self, owner: str, cycles: float, tag: Hashable = None) -> None:
        """Queue a job on behalf of ``owner`` (an app name)."""
        if cycles <= 0.0:
            raise SchedulingError(f"GPU job cycles must be positive, got {cycles}")
        if owner not in self._queues:
            self._queues[owner] = deque()
        self._queues[owner].append(GpuJob(float(cycles), tag))

    @property
    def backlog_cycles(self) -> float:
        """Total queued work in cycles."""
        return sum(
            job.cycles for queue in self._queues.values() for job in queue
        )

    @property
    def queue_depth(self) -> int:
        """Number of jobs waiting (including any in progress)."""
        return sum(len(queue) for queue in self._queues.values())

    def _drain_owner(
        self,
        owner: str,
        allowance: float,
        completed: list,
        owner_cycles: dict[str, float],
    ) -> float:
        """Run one owner's FIFO for up to ``allowance`` cycles; returns use."""
        queue = self._queues[owner]
        used = 0.0
        while allowance - used > 1e-9 and queue:
            job = queue[0]
            consumed = min(job.cycles, allowance - used)
            job.cycles -= consumed
            used += consumed
            if job.cycles <= 1e-9:
                queue.popleft()
                if job.tag is not None:
                    completed.append(job.tag)
        if used > 0.0:
            owner_cycles[owner] = owner_cycles.get(owner, 0.0) + used
        return used

    def run_tick(self, freq_hz: float, dt_s: float) -> GpuTickResult:
        """Process queued work for one tick at ``freq_hz``."""
        if dt_s <= 0.0:
            raise SchedulingError(f"tick length must be positive, got {dt_s}")
        capacity = freq_hz * dt_s
        remaining = capacity
        completed: list[Hashable] = []
        owner_cycles: dict[str, float] = {}
        queues = self._queues
        if self.scheduling == "fifo":
            for owner in list(queues):
                remaining -= self._drain_owner(
                    owner, remaining, completed, owner_cycles
                )
                if remaining <= 1e-9:
                    break
        else:
            # Fair: repeatedly split the remaining capacity equally among
            # owners that still have work (light owners return their slack).
            while remaining > 1e-9:
                pending = []
                for owner, queue in queues.items():
                    if queue:
                        pending.append(owner)
                if not pending:
                    break
                share = remaining / len(pending)
                used_this_round = 0.0
                for owner in pending:
                    used_this_round += self._drain_owner(
                        owner, share, completed, owner_cycles
                    )
                if used_this_round <= 1e-9:
                    break
                remaining -= used_this_round
        # Drop exhausted owner queues so FIFO order follows activity.
        if not all(queues.values()):
            for owner in [o for o, q in queues.items() if not q]:
                del queues[owner]
        busy = 0.0 if capacity <= 0.0 else (capacity - remaining) / capacity
        return GpuTickResult(min(busy, 1.0), completed, owner_cycles)

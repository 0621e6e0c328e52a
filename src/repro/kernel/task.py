"""Kernel task model.

A :class:`Task` is the schedulable entity: it carries a work queue of
(cycles, tag) items, an affinity to one CPU cluster, a thread count bounding
how many cores it can occupy at once, and accounting of consumed CPU time per
cluster.  Applications enqueue work (e.g. one item per frame's CPU stage) and
learn about completion through the tags returned by :meth:`Task.consume`.

Batch tasks (``unbounded=True``) model workloads like MiBench
``basicmath large`` that always want the CPU regardless of queue state.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Hashable

from repro.errors import SchedulingError


class TaskState(Enum):
    """Lifecycle of a task."""

    RUNNABLE = "runnable"
    SLEEPING = "sleeping"
    EXITED = "exited"


#: Enum member lookups cost a descriptor call; ``runnable`` and
#: ``add_work`` run every tick.
_EXITED = TaskState.EXITED


@dataclass
class WorkItem:
    """A chunk of CPU work tagged so its completion can be observed."""

    cycles: float
    tag: Hashable


def nice_to_weight(nice: int) -> float:
    """CFS-style priority weight: ~1.25x per nice level below zero."""
    return 1.25 ** (-nice)


class Task:
    """One schedulable process/thread group.

    ``nice`` is fixed at creation, so the scheduling ``weight`` derived
    from it is computed once here rather than on every tick.
    """

    _pid_counter = itertools.count(1000)

    def __init__(
        self,
        name: str,
        cluster: str,
        n_threads: int = 1,
        unbounded: bool = False,
        nice: int = 0,
    ) -> None:
        if n_threads < 1:
            raise SchedulingError(f"task {name!r}: n_threads must be >= 1")
        self.pid = next(Task._pid_counter)
        self.name = name
        self.cluster = cluster
        self.n_threads = n_threads
        self.unbounded = unbounded
        self._nice = nice
        self.weight = nice_to_weight(nice)
        self.state = TaskState.RUNNABLE
        # CPU bandwidth quota in (0, 1]: fraction of this task's thread
        # capacity it may use per tick (cgroup cpu.max analogue).  The
        # governor's duty-cycle action throttles offenders through this.
        self._cpu_quota = 1.0
        self._queue: deque[WorkItem] = deque()
        # Cumulative busy core-seconds, per cluster name.
        self.core_seconds: dict[str, float] = {}
        # Cumulative consumed work, per cluster name (instruction-weighted cycles).
        self.cycles_by_cluster: dict[str, float] = {}
        self.migrations = 0

    @property
    def nice(self) -> int:
        """Priority level the task was created with."""
        return self._nice

    # ------------------------------------------------------------------ work

    def add_work(self, cycles: float, tag: Hashable = None) -> None:
        """Enqueue ``cycles`` of CPU work; completion is reported via ``tag``."""
        if self.state is _EXITED:
            raise SchedulingError(f"task {self.name!r} has exited")
        if cycles <= 0.0:
            raise SchedulingError(f"task {self.name!r}: work must be positive")
        self._queue.append(WorkItem(float(cycles), tag))
        self.state = TaskState.RUNNABLE

    @property
    def backlog_cycles(self) -> float:
        """Total queued work in cycles (zero for an empty queue)."""
        return sum(item.cycles for item in self._queue)

    @property
    def runnable(self) -> bool:
        """Whether the scheduler should consider this task."""
        if self.state is _EXITED:
            return False
        return self.unbounded or bool(self._queue)

    @property
    def cpu_quota(self) -> float:
        """Current CPU bandwidth quota in (0, 1]."""
        return self._cpu_quota

    def set_cpu_quota(self, quota: float) -> None:
        """Limit this task to ``quota`` of its thread capacity per tick."""
        if not 0.0 < quota <= 1.0:
            raise SchedulingError(
                f"task {self.name!r}: quota must be in (0, 1], got {quota}"
            )
        self._cpu_quota = float(quota)

    def demand_cycles(self, capacity_per_thread: float) -> float:
        """Work this task could consume given per-thread capacity."""
        ceiling = capacity_per_thread * self.n_threads * self._cpu_quota
        if self.unbounded:
            return ceiling
        return min(self.backlog_cycles, ceiling)

    def consume(self, cycles: float, dt_s: float, freq_hz: float, ipc: float) -> list:
        """Consume up to ``cycles`` of queued work; return completed tags.

        Also charges CPU-time accounting: ``cycles`` of work at the cluster's
        effective rate corresponds to ``cycles / (ipc * freq)`` core-seconds.
        Unbounded tasks consume the requested cycles even with an empty queue.
        """
        if cycles < 0.0:
            raise SchedulingError(f"task {self.name!r}: negative consumption")
        if cycles <= 0.0:
            return []
        completed = []
        remaining = cycles
        while remaining > 1e-9 and self._queue:
            head = self._queue[0]
            if head.cycles <= remaining + 1e-9:
                remaining -= head.cycles
                self._queue.popleft()
                if head.tag is not None:
                    completed.append(head.tag)
            else:
                head.cycles -= remaining
                remaining = 0.0
        consumed = cycles if self.unbounded else cycles - max(remaining, 0.0)
        if consumed > 0.0:
            rate = ipc * freq_hz
            self.core_seconds[self.cluster] = (
                self.core_seconds.get(self.cluster, 0.0) + consumed / rate
            )
            self.cycles_by_cluster[self.cluster] = (
                self.cycles_by_cluster.get(self.cluster, 0.0) + consumed
            )
        return completed

    # --------------------------------------------------------------- control

    def migrate(self, cluster: str) -> None:
        """Move the task to another cluster (sched_setaffinity analogue)."""
        if self.state is TaskState.EXITED:
            raise SchedulingError(f"cannot migrate exited task {self.name!r}")
        if cluster != self.cluster:
            self.cluster = cluster
            self.migrations += 1

    def exit(self) -> None:
        """Terminate the task; it will never run again."""
        self.state = TaskState.EXITED
        self._queue.clear()

    def total_core_seconds(self) -> float:
        """Busy core-seconds across all clusters."""
        return sum(self.core_seconds.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task(pid={self.pid}, name={self.name!r}, cluster={self.cluster!r}, "
            f"state={self.state.value})"
        )

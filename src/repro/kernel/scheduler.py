"""Per-cluster proportional-share CPU scheduler.

Each simulation tick, every cluster's capacity (``ipc * freq * n_cores * dt``
instruction-weighted cycles) is divided among its runnable tasks by
water-filling: capacity is shared equally, tasks that need less than their
share return the surplus, and the surplus is redistributed.  This reproduces
the fairness property of CFS at the granularity this study needs, while
keeping per-task ceilings (thread counts) and backlogs exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

from repro.errors import SchedulingError
from repro.kernel.task import Task, TaskState, nice_to_weight  # noqa: F401 (re-export)
from repro.soc.components import ClusterSpec


@dataclass
class ClusterUsage:
    """Outcome of one scheduling tick on one cluster."""

    capacity_cycles: float
    used_cycles: float
    busy_cores: float
    per_task_cycles: dict[int, float] = field(default_factory=dict)
    max_core_load: float = 0.0

    @property
    def utilization(self) -> float:
        """Fraction of cluster capacity consumed this tick, in [0, 1]."""
        if self.capacity_cycles <= 0.0:
            return 0.0
        return min(self.used_cycles / self.capacity_cycles, 1.0)


@dataclass
class TickResult:
    """Scheduling outcome for all clusters plus completion notifications."""

    usage: dict[str, ClusterUsage]
    completed_tags: list[Hashable]


def _weighted_water_fill(
    capacity: float, ceilings: list[float], weights: list[float]
) -> list[float]:
    """Share ``capacity`` across consumers with ceilings and weights.

    Weighted max-min fairness: each round, the remaining capacity is split
    in proportion to the active consumers' weights; consumers whose share
    exceeds their ceiling are granted the ceiling and retired, and the slack
    is redistributed.  Returns allocations in input order.

    A single active consumer takes the first round's arithmetic directly:
    its share ``capacity * w / w`` is computed exactly as the loop would,
    so the result is the same float either way.
    """
    n = len(ceilings)
    if len(weights) != n:
        raise SchedulingError("weights and ceilings must have equal length")
    allocation = [0.0] * n
    if capacity <= 1e-12:
        return allocation
    active = [i for i in range(n) if ceilings[i] > 0.0]
    if len(active) == 1:
        i = active[0]
        share = capacity * weights[i] / weights[i]
        ceiling = ceilings[i]
        allocation[i] = ceiling if share >= ceiling - 1e-12 else share
        return allocation
    remaining = capacity
    while active and remaining > 1e-12:
        total_weight = sum(weights[i] for i in active)
        saturated = []
        for i in active:
            share = remaining * weights[i] / total_weight
            if share >= ceilings[i] - allocation[i] - 1e-12:
                saturated.append(i)
        if not saturated:
            for i in active:
                allocation[i] += remaining * weights[i] / total_weight
            break
        for i in saturated:
            grant = ceilings[i] - allocation[i]
            allocation[i] = ceilings[i]
            remaining -= grant
            active.remove(i)
    return allocation


def _water_fill(capacity: float, ceilings: list[float]) -> list[float]:
    """Unweighted water-filling (equal shares); see _weighted_water_fill."""
    return _weighted_water_fill(capacity, list(ceilings), [1.0] * len(ceilings))


class Scheduler:
    """Owns all tasks and divides cluster capacity among them each tick."""

    def __init__(self, clusters: Mapping[str, ClusterSpec]) -> None:
        if not clusters:
            raise SchedulingError("scheduler needs at least one cluster")
        self._clusters = dict(clusters)
        self._tasks: dict[int, Task] = {}

    @property
    def cluster_names(self) -> tuple[str, ...]:
        """Names of the schedulable clusters."""
        return tuple(self._clusters)

    # ----------------------------------------------------------- task admin

    def spawn(
        self,
        name: str,
        cluster: str,
        n_threads: int = 1,
        unbounded: bool = False,
        nice: int = 0,
    ) -> Task:
        """Create and register a new task on ``cluster``."""
        self._check_cluster(cluster)
        task = Task(name, cluster, n_threads=n_threads, unbounded=unbounded, nice=nice)
        self._tasks[task.pid] = task
        return task

    def task(self, pid: int) -> Task:
        """Look up a task by pid; raises on unknown pids."""
        try:
            return self._tasks[pid]
        except KeyError:
            raise SchedulingError(f"no task with pid {pid}") from None

    def tasks(self) -> list[Task]:
        """All non-exited tasks, ordered by pid."""
        return [
            t for _, t in sorted(self._tasks.items()) if t.state is not TaskState.EXITED
        ]

    def set_affinity(self, pid: int, cluster: str) -> None:
        """Migrate ``pid`` to ``cluster`` (sched_setaffinity analogue)."""
        self._check_cluster(cluster)
        self.task(pid).migrate(cluster)

    def kill(self, pid: int) -> None:
        """Terminate ``pid``."""
        self.task(pid).exit()

    def _check_cluster(self, cluster: str) -> None:
        if cluster not in self._clusters:
            raise SchedulingError(
                f"unknown cluster {cluster!r}; have {list(self._clusters)}"
            )

    # ------------------------------------------------------------- dispatch

    def run_tick(self, freqs_hz: Mapping[str, float], dt_s: float) -> TickResult:
        """Run one scheduling tick at the given per-cluster frequencies."""
        if dt_s <= 0.0:
            raise SchedulingError(f"tick length must be positive, got {dt_s}")
        # One pass groups the runnable tasks by cluster, in pid order.
        runnable: dict[str, list[Task]] = {cname: [] for cname in self._clusters}
        for task in self._tasks.values():
            if task.runnable:
                group = runnable.get(task.cluster)
                if group is not None:
                    group.append(task)
        usage: dict[str, ClusterUsage] = {}
        completed: list[Hashable] = []
        for cname, spec in self._clusters.items():
            freq = freqs_hz.get(cname)
            if freq is None:
                raise SchedulingError(f"no frequency supplied for cluster {cname!r}")
            capacity = spec.capacity_cycles(freq, dt_s)
            tasks = runnable[cname]
            if not tasks:
                # Nothing ran: every derived quantity is exactly zero.
                usage[cname] = ClusterUsage(capacity, 0.0, 0.0, {}, 0.0)
                continue
            n_cores = spec.n_cores
            per_core = capacity / n_cores
            ceilings = []
            weights = []
            for task in tasks:
                ceilings.append(task.demand_cycles(per_core))
                weights.append(task.weight)
            grants = _weighted_water_fill(capacity, ceilings, weights)
            ipc = spec.ipc
            used = 0.0
            per_task: dict[int, float] = {}
            max_core_load = 0.0
            for task, grant in zip(tasks, grants):
                if grant <= 0.0:
                    continue
                completed.extend(task.consume(grant, dt_s, freq, ipc))
                per_task[task.pid] = grant
                used += grant
                # Load of this task's busiest core, assuming its threads
                # spread evenly (what per-CPU governors like interactive see).
                threads = min(task.n_threads, n_cores)
                max_core_load = max(max_core_load, grant / (per_core * threads))
            busy_cores = used / (ipc * freq * dt_s) if freq > 0 else 0.0
            cluster_load = busy_cores / n_cores
            usage[cname] = ClusterUsage(
                capacity, used, busy_cores, per_task,
                min(max(max_core_load, cluster_load), 1.0),
            )
        return TickResult(usage, completed)

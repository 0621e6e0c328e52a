"""MiBench batch workloads — the paper's background offender and friends.

The paper runs ``basicmath large`` (BML) from MiBench (Guthaus et al.,
WWC 2001) in the background while 3DMark runs in the foreground.  BML is a
single-threaded, CPU-bound, cache-light arithmetic kernel: the model is an
unbounded task that always wants one core and reports its progress in
retired (instruction-weighted) gigacycles.

A small catalog of further MiBench kernels is provided for experiments that
need background diversity.  Compute-bound kernels are unbounded tasks;
memory-bound kernels are modelled as *rate-limited* demand (their cores
stall on DRAM, so they retire fewer instruction-weighted cycles per second
than the cluster could issue).
"""

from __future__ import annotations

from repro.apps.base import Application
from repro.errors import ConfigurationError


class BatchApp(Application):
    """A CPU batch job: unbounded, or rate-limited for memory-bound kernels.

    ``rate_gcycles_per_s`` caps the demand the job generates (None =
    compute-bound, always wants its ``n_threads`` cores).
    """

    def __init__(
        self,
        name: str,
        cluster: str | None = None,
        n_threads: int = 1,
        rate_gcycles_per_s: float | None = None,
    ) -> None:
        super().__init__(name)
        if rate_gcycles_per_s is not None and rate_gcycles_per_s <= 0.0:
            raise ConfigurationError(
                f"batch app {name!r}: rate must be positive"
            )
        self._cluster = cluster
        self._n_threads = n_threads
        self._rate = rate_gcycles_per_s
        self._task = None

    def on_attach(self) -> None:
        kernel = self.ctx.kernel
        cluster = self._cluster or kernel.platform.big_cluster.name
        self._task = kernel.spawn(
            self.name,
            cluster=cluster,
            n_threads=self._n_threads,
            unbounded=self._rate is None,
        )

    def step(self, now_s: float, dt_s: float) -> None:
        if self._rate is None:
            return
        # Rate-limited demand: inject exactly the work the (stalling) kernel
        # can retire, bounding the backlog so pauses do not cause bursts.
        backlog_cap = self._rate * 1e9 * 0.1  # at most 100 ms of work queued
        if self._task.backlog_cycles < backlog_cap:
            self._task.add_work(self._rate * 1e9 * dt_s)

    def pids(self) -> list[int]:
        return [self._task.pid] if self._task is not None else []

    @property
    def pid(self) -> int:
        """Pid of the batch task."""
        return self._task.pid

    def progress_gigacycles(self) -> float:
        """Instruction-weighted work retired so far, in Gcycles."""
        return sum(self._task.cycles_by_cluster.values()) / 1e9

    def metrics(self) -> dict:
        return {
            "progress_gcycles": self.progress_gigacycles(),
            "migrations": self._task.migrations,
            "cluster": self._task.cluster,
        }


def basicmath_large(cluster: str | None = None) -> BatchApp:
    """The BML background application of Section IV.C."""
    return BatchApp("bml", cluster=cluster)


def qsort_large(cluster: str | None = None) -> BatchApp:
    """MiBench qsort: compute-bound single-threaded sorting."""
    return BatchApp("qsort", cluster=cluster)


def susan_corners(cluster: str | None = None) -> BatchApp:
    """MiBench susan (image corners): compute-bound, parallelises well."""
    return BatchApp("susan", cluster=cluster, n_threads=2)


def fft_large(cluster: str | None = None) -> BatchApp:
    """MiBench FFT: mildly memory-bound; retires ~1.6 Gcycles/s."""
    return BatchApp("fft", cluster=cluster, rate_gcycles_per_s=1.6)


def dijkstra_large(cluster: str | None = None) -> BatchApp:
    """MiBench dijkstra: pointer-chasing, heavily memory-bound."""
    return BatchApp("dijkstra", cluster=cluster, rate_gcycles_per_s=0.8)


#: Name -> factory for the modelled MiBench kernels.
MIBENCH_SUITE = {
    "bml": basicmath_large,
    "qsort": qsort_large,
    "susan": susan_corners,
    "fft": fft_large,
    "dijkstra": dijkstra_large,
}

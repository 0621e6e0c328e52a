"""Application abstraction.

An :class:`Application` is attached to a simulation, spawns kernel tasks,
enqueues CPU/GPU work every step, and receives completion callbacks routed by
work-item tags of the form ``(app_name, ...)``.  Concrete workloads live in
:mod:`repro.apps.frames` (frame pipelines), :mod:`repro.apps.mibench`
(batch), and :mod:`repro.apps.gfxbench` (benchmark apps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.kernel.kernel import Kernel


@dataclass
class AppContext:
    """What an application gets at attach time."""

    kernel: Kernel
    rng: np.random.Generator


class Application:
    """Base class for all simulated workloads."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._ctx: AppContext | None = None

    @property
    def ctx(self) -> AppContext:
        """The attach-time context; raises if the app is not attached."""
        if self._ctx is None:
            raise SimulationError(f"app {self.name!r} is not attached")
        return self._ctx

    @property
    def attached(self) -> bool:
        """Whether the app has been attached to a simulation."""
        return self._ctx is not None

    def attach(self, ctx: AppContext) -> None:
        """Bind to a simulation; spawn tasks here."""
        if self._ctx is not None:
            raise SimulationError(f"app {self.name!r} is already attached")
        self._ctx = ctx
        self.on_attach()

    def on_attach(self) -> None:
        """Hook for subclasses: spawn tasks, initialise state."""

    def step(self, now_s: float, dt_s: float) -> None:
        """Called once per simulation tick, before the kernel runs."""

    def on_cpu_complete(self, tag: tuple, now_s: float) -> None:
        """A tagged CPU work item of this app finished."""

    def on_gpu_complete(self, tag: tuple, now_s: float) -> None:
        """A tagged GPU job of this app finished."""

    def pids(self) -> list[int]:
        """Pids of the tasks this app owns (for registration/affinity)."""
        return []

    def metrics(self) -> dict:
        """Summary metrics at the end of a run (fps, progress, score...)."""
        return {}

"""Per-tick power assembly: kernel activity + temperatures → rail watts.

The power-assembly phase of :meth:`Simulation.step`.  The stage owns
preallocated :class:`~repro.soc.power_model.ComponentActivity` instances and
reuses its output dicts, so a tick is attribute stores plus one
``rail_powers`` call instead of dataclass-and-dict churn.

The arithmetic is intentionally byte-identical to the historical inline
block: activity values, the memory-activity proxy, the rail summation
order, and the battery total all reproduce the same floats.
"""

from __future__ import annotations

from repro.kernel.kernel import GPU_DOMAIN, Kernel
from repro.soc.platform import BOARD_RAIL, PlatformSpec
from repro.soc.power_model import ComponentActivity, memory_activity_proxy
from repro.thermal.model import ThermalModel


class PowerStage:
    """Assembles per-rail power from one kernel tick result."""

    def __init__(
        self, platform: PlatformSpec, kernel: Kernel, thermal: ThermalModel
    ) -> None:
        self._platform = platform
        self._kernel = kernel
        self._thermal = thermal
        self._clusters = tuple(platform.clusters)
        self._total_cores = sum(c.n_cores for c in self._clusters)
        self._cluster_activity = {
            c.name: ComponentActivity(freq_hz=0.0, busy_units=0.0, temp_k=0.0)
            for c in self._clusters
        }
        self._gpu_activity = ComponentActivity(
            freq_hz=0.0, busy_units=0.0, temp_k=0.0
        )

    def assemble(self, kres) -> tuple[dict[str, float], dict[str, float], float]:
        """One tick of power assembly.

        Returns ``(rail_watts, soc_watts, battery_w)`` where ``rail_watts``
        includes the board rail (when the platform draws board power) and
        ``soc_watts`` is the SoC-only subset fed to the rail power sensors.
        The returned dicts are owned by the stage and rewritten every tick.
        """
        thermal = self._thermal
        kernel = self._kernel
        temps = thermal.temperatures_k()
        total_busy = 0.0
        for cluster in self._clusters:
            usage = kres.usage[cluster.name]
            activity = self._cluster_activity[cluster.name]
            activity.freq_hz = kres.freqs_hz[cluster.name]
            activity.busy_units = min(usage.busy_cores, float(cluster.n_cores))
            activity.temp_k = temps[cluster.thermal_node]
            activity.powered = kernel.cluster_online(cluster.name)
            activity.idle_scale = kernel.idle_scale(cluster.name)
            total_busy += usage.busy_cores
        gpu_activity = self._gpu_activity
        gpu_activity.freq_hz = kres.freqs_hz[GPU_DOMAIN]
        gpu_activity.busy_units = min(kres.gpu.busy_fraction, 1.0)
        gpu_activity.temp_k = temps[self._platform.gpu.thermal_node]
        gpu_activity.idle_scale = kernel.idle_scale(GPU_DOMAIN)
        mem_activity = memory_activity_proxy(
            total_busy, self._total_cores, kres.gpu.busy_fraction
        )
        rails = kernel.power_model.rail_powers(
            self._cluster_activity,
            gpu_activity,
            mem_activity,
            temps[self._platform.memory.thermal_node],
        )
        rail_watts = {rail: sample.total_w for rail, sample in rails.items()}
        soc_watts = dict(rail_watts)
        if self._platform.board_power_w > 0.0:
            rail_watts[BOARD_RAIL] = self._platform.board_power_w
        battery_w = sum(rail_watts.values())
        return rail_watts, soc_watts, battery_w

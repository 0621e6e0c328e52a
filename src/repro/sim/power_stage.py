"""Per-tick power assembly: kernel activity + temperatures → rail watts.

The power-assembly phase of :meth:`Simulation.step`.  Everything that does
not change between ticks is resolved at construction: the stage owns one
preallocated :class:`~repro.soc.power_model.ComponentActivity` per domain
and updates it with attribute stores, and it knows the state-vector index
of the thermal node behind each domain, so a tick reads exactly the four
temperatures it needs (:meth:`ThermalModel.temperature_at`) instead of a
dict of every node.  ``rail_powers`` returns the one rail dict of the tick,
already in watts; the board rail is appended to it.

The arithmetic is byte-identical to the historical inline block: activity
values, the memory-activity proxy, the rail order (clusters, GPU, memory,
board) that fixes the battery summation, and the battery total all
reproduce the same floats.
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
        self._online = kernel.clusters_online
        self._idle_scales = kernel.idle_scales
        self._thermal = thermal
        self._power_model = kernel.power_model
        self._total_cores = sum(c.n_cores for c in platform.clusters)
        self._cluster_activity = {
            c.name: ComponentActivity(freq_hz=0.0, busy_units=0.0, temp_k=0.0)
            for c in platform.clusters
        }
        # (name, core count as float, its activity, its thermal node index)
        self._cluster_slots = tuple(
            (
                c.name,
                float(c.n_cores),
                self._cluster_activity[c.name],
                thermal.node_index(c.thermal_node),
            )
            for c in platform.clusters
        )
        self._gpu_activity = ComponentActivity(
            freq_hz=0.0, busy_units=0.0, temp_k=0.0
        )
        self._gpu_node = thermal.node_index(platform.gpu.thermal_node)
        self._memory_node = thermal.node_index(platform.memory.thermal_node)
        self._board_w = platform.board_power_w

    def assemble(self, kres) -> tuple[dict[str, float], float]:
        """One tick of power assembly.

        Returns ``(rail_watts, battery_w)``: the watts of every SoC rail,
        plus the board rail when the platform draws board power, and their
        battery-side total.  The dict is new on every call.
        """
        online = self._online
        idle_scales = self._idle_scales
        temperature_at = self._thermal.temperature_at
        freqs = kres.freqs_hz
        usage = kres.usage
        total_busy = 0.0
        for name, n_cores, activity, node in self._cluster_slots:
            busy_cores = usage[name].busy_cores
            activity.freq_hz = freqs[name]
            activity.busy_units = min(busy_cores, n_cores)
            activity.temp_k = temperature_at(node)
            activity.powered = online[name]
            activity.idle_scale = idle_scales[name]
            total_busy += busy_cores
        gpu_busy = kres.gpu.busy_fraction
        gpu_activity = self._gpu_activity
        gpu_activity.freq_hz = freqs[GPU_DOMAIN]
        gpu_activity.busy_units = min(gpu_busy, 1.0)
        gpu_activity.temp_k = temperature_at(self._gpu_node)
        gpu_activity.idle_scale = idle_scales[GPU_DOMAIN]
        mem_activity = memory_activity_proxy(total_busy, self._total_cores, gpu_busy)
        rail_watts = self._power_model.rail_powers(
            self._cluster_activity,
            gpu_activity,
            mem_activity,
            temperature_at(self._memory_node),
        )
        if self._board_w > 0.0:
            rail_watts[BOARD_RAIL] = self._board_w
        battery_w = sum(rail_watts.values())
        return rail_watts, battery_w

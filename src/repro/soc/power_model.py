"""Per-component power models: dynamic CV^2 f plus temperature-driven leakage.

Power is the coupling variable of the whole reproduction: the kernel decides
frequencies, the scheduler decides utilisations, this module turns both plus
the current temperatures into per-rail watts, and the thermal model turns
watts back into temperatures.  The leakage term is what creates the
positive feedback loop the paper's stability analysis (Section IV.A) studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.soc.components import ClusterSpec, GpuSpec, LeakageParams, MemorySpec

#: Weights of the CPU/GPU → DRAM activity proxy.  One definition: the
#: engine applies it per tick and the calibration pipeline inverts it from
#: logged busy channels, so the constants must never drift apart.
MEM_ACTIVITY_CPU_WEIGHT = 0.25
MEM_ACTIVITY_GPU_WEIGHT = 0.6


def memory_activity_proxy(busy_cores, total_cores: int, gpu_busy):
    """DRAM activity in [0, 1] from CPU busy-cores and GPU busy fraction.

    ``act = min(1, 0.25 * busy_cores / total_cores + 0.6 * gpu_busy)`` — a
    modelling assumption standing in for DRAM event counters.  Accepts
    scalars (the engine's per-tick path) or numpy arrays (the calibration
    fit over whole trace channels).
    """
    act = (
        MEM_ACTIVITY_CPU_WEIGHT * busy_cores / max(total_cores, 1)
        + MEM_ACTIVITY_GPU_WEIGHT * gpu_busy
    )
    if isinstance(act, np.ndarray):
        return np.minimum(1.0, act)
    return min(1.0, act)


def dynamic_power_w(
    ceff_w_per_v2hz: float, voltage_v: float, freq_hz: float, busy_units: float
) -> float:
    """Dynamic switching power: ``Ceff * V^2 * f`` scaled by busy units.

    ``busy_units`` is the number of fully-busy execution units (e.g. 2.5
    means two cores busy plus one half busy).
    """
    if busy_units < 0.0:
        raise SimulationError(f"negative busy_units: {busy_units}")
    return ceff_w_per_v2hz * voltage_v * voltage_v * freq_hz * busy_units


def leakage_factor_w(params: LeakageParams, temp_k: float) -> float:
    """The temperature part of leakage: ``kappa * T^2 * exp(-beta/T)``.

    Leakage at supply voltage ``V`` is this factor times ``V / v_ref``.
    Within one instant the factor is shared by every OPP of a domain, so
    power tables compute it once; ``(kappa * T) * T * e`` is the same
    left-to-right prefix the full product evaluates, so splitting the
    product off changes no bit.
    """
    if temp_k <= 0.0:
        raise SimulationError(f"non-physical temperature {temp_k} K")
    return params.kappa_w_per_k2 * temp_k * temp_k * math.exp(-params.beta_k / temp_k)


def leakage_power_w(params: LeakageParams, temp_k: float, voltage_v: float) -> float:
    """Temperature-dependent leakage: ``kappa * T^2 * exp(-beta/T) * V/Vref``."""
    return leakage_factor_w(params, temp_k) * (voltage_v / params.v_ref)


@dataclass(frozen=True)
class PowerSample:
    """Decomposed power of one rail at one instant."""

    dynamic_w: float
    leakage_w: float

    @property
    def total_w(self) -> float:
        """Dynamic plus leakage power."""
        return self.dynamic_w + self.leakage_w


@dataclass
class ComponentActivity:
    """Runtime operating condition of one component for a power query.

    ``idle_scale`` multiplies the component's idle power: 1.0 for a shallow
    WFI idle, lower when cpuidle has gated the component deeper.
    """

    freq_hz: float
    busy_units: float
    temp_k: float
    powered: bool = True
    idle_scale: float = 1.0


class _DvfsDomain:
    """Per-OPP power constants of one DVFS-scaled component, built once.

    ``ceff_v2[i]`` is ``ceff * V_i * V_i`` and ``v_ratio[i]`` is
    ``V_i / v_ref``: the left-to-right prefixes of the dynamic and leakage
    products, indexed by OPP so no voltage is looked up by frequency.
    ``worst_dyn_w[i]`` is the dynamic power at OPP ``i`` with every unit
    busy, which does not depend on temperature.
    """

    __slots__ = (
        "label", "rail", "opps", "max_busy", "idle_w", "leakage",
        "ceff_v2", "v_ratio", "worst_dyn_w",
    )

    def __init__(self, label: str, spec, max_busy: float) -> None:
        self.label = label
        self.rail = spec.rail
        self.opps = spec.opps
        self.max_busy = max_busy
        self.idle_w = spec.idle_power_w
        self.leakage = spec.leakage
        ceff = spec.ceff_w_per_v2hz
        volts = spec.opps.voltages_v()
        self.ceff_v2 = tuple(ceff * v * v for v in volts)
        self.v_ratio = tuple(v / spec.leakage.v_ref for v in volts)
        self.worst_dyn_w = tuple(
            self.dynamic_w(i, freq, max_busy, 1.0)
            for i, freq in enumerate(spec.opps.frequencies_hz())
        )

    def dynamic_w(
        self, i: int, freq_hz: float, busy: float, idle_scale: float
    ) -> float:
        """Idle plus switching power at OPP ``i``."""
        return self.idle_w * idle_scale + self.ceff_v2[i] * freq_hz * busy

    def sample(self, activity: ComponentActivity) -> tuple[float, float]:
        """``(dynamic, leakage)`` under ``activity``."""
        if not activity.powered:
            return 0.0, 0.0
        busy = activity.busy_units
        if busy > self.max_busy + 1e-9:
            raise SimulationError(
                f"{self.label}: busy_units {busy} exceeds {self.max_busy:g}"
            )
        freq = activity.freq_hz
        i = self.opps.index_of(freq)
        if busy < 0.0:
            raise SimulationError(f"negative busy_units: {busy}")
        dyn = self.dynamic_w(i, freq, busy, activity.idle_scale)
        leak = leakage_factor_w(self.leakage, activity.temp_k) * self.v_ratio[i]
        if busy < 1e-6:
            # A fully idle domain in a deep cpuidle state is power-gated:
            # the gating removes leakage along with the clock tree.
            leak *= activity.idle_scale
        return dyn, leak

    def worst_case_w(self, temp_k: float) -> list[float]:
        """Total power at every OPP with every unit busy, at ``temp_k``.

        Entry ``i`` is ``dyn + leak`` exactly as :meth:`sample` computes
        them at OPP ``i``, with the leakage factor shared by every OPP.
        """
        factor = leakage_factor_w(self.leakage, temp_k)
        return [
            dyn + factor * ratio for dyn, ratio in zip(self.worst_dyn_w, self.v_ratio)
        ]


class SocPowerModel:
    """Computes per-rail power for a set of component activities.

    Built from the component specs of a platform; stateless apart from those
    specs and their per-OPP constants, so one instance can serve many
    simulations.  The engine (:meth:`rail_powers`), the single-OPP queries
    and IPA's power tables (:meth:`max_cluster_power_table_w`) share one
    set of per-OPP constants and one dynamic-power formula.
    """

    def __init__(
        self,
        clusters: Mapping[str, ClusterSpec],
        gpu: GpuSpec,
        memory: MemorySpec,
    ) -> None:
        if not clusters:
            raise ConfigurationError("a SoC needs at least one CPU cluster")
        self._clusters = dict(clusters)
        self._gpu = gpu
        self._memory = memory
        self._cluster_domains = {
            name: _DvfsDomain(f"cluster {name!r}", spec, float(spec.n_cores))
            for name, spec in self._clusters.items()
        }
        self._gpu_domain = _DvfsDomain("gpu", gpu, 1.0)

    def _cluster_domain(self, name: str) -> _DvfsDomain:
        domain = self._cluster_domains.get(name)
        if domain is None:
            raise SimulationError(f"unknown cluster {name!r}")
        return domain

    def cluster_power(self, name: str, activity: ComponentActivity) -> PowerSample:
        """Power of CPU cluster ``name`` under ``activity``."""
        return PowerSample(*self._cluster_domain(name).sample(activity))

    def gpu_power(self, activity: ComponentActivity) -> PowerSample:
        """Power of the GPU under ``activity`` (busy_units in [0, 1])."""
        return PowerSample(*self._gpu_domain.sample(activity))

    def _memory_watts(
        self, activity_fraction: float, temp_k: float
    ) -> tuple[float, float]:
        if not 0.0 <= activity_fraction <= 1.0 + 1e-9:
            raise SimulationError(
                f"memory activity must be in [0, 1], got {activity_fraction}"
            )
        spec = self._memory
        dyn = spec.base_power_w + spec.activity_power_w * min(activity_fraction, 1.0)
        # At V = v_ref the voltage ratio is exactly 1.0.
        return dyn, leakage_factor_w(spec.leakage, temp_k)

    def memory_power(self, activity_fraction: float, temp_k: float) -> PowerSample:
        """Memory power at the given activity fraction in [0, 1]."""
        return PowerSample(*self._memory_watts(activity_fraction, temp_k))

    def rail_powers(
        self,
        cluster_activity: Mapping[str, ComponentActivity],
        gpu_activity: ComponentActivity,
        memory_activity: float,
        memory_temp_k: float,
    ) -> dict[str, float]:
        """Total power of every rail in watts, keyed by rail name.

        Rails come in platform order: the clusters, the GPU, then memory.
        """
        out: dict[str, float] = {}
        for name, domain in self._cluster_domains.items():
            activity = cluster_activity.get(name)
            if activity is None:
                raise SimulationError(f"missing activity for cluster {name!r}")
            dyn, leak = domain.sample(activity)
            out[domain.rail] = dyn + leak
        dyn, leak = self._gpu_domain.sample(gpu_activity)
        out[self._gpu_domain.rail] = dyn + leak
        dyn, leak = self._memory_watts(memory_activity, memory_temp_k)
        out[self._memory.rail] = dyn + leak
        return out

    def max_cluster_power_table_w(self, name: str, temp_k: float) -> list[float]:
        """Worst-case cluster power at every OPP, ascending — IPA's table.

        The leakage factor is computed once for the whole table; entry ``i``
        equals :meth:`max_cluster_power_w` at OPP ``i`` bit for bit.
        """
        return self._cluster_domain(name).worst_case_w(temp_k)

    def max_gpu_power_table_w(self, temp_k: float) -> list[float]:
        """Worst-case GPU power at every OPP, ascending (see
        :meth:`max_cluster_power_table_w`)."""
        return self._gpu_domain.worst_case_w(temp_k)

    def max_cluster_power_w(self, name: str, freq_hz: float, temp_k: float) -> float:
        """Worst-case (all cores busy) cluster power at an OPP — used by IPA."""
        spec = self._clusters.get(name)
        if spec is None:
            raise SimulationError(f"unknown cluster {name!r}")
        activity = ComponentActivity(freq_hz, float(spec.n_cores), temp_k)
        return self.cluster_power(name, activity).total_w

    def max_gpu_power_w(self, freq_hz: float, temp_k: float) -> float:
        """Worst-case GPU power at an OPP — used by IPA."""
        return self.gpu_power(ComponentActivity(freq_hz, 1.0, temp_k)).total_w

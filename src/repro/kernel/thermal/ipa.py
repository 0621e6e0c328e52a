"""ARM Intelligent Power Allocation (the Linux ``power_allocator`` governor).

This is the default policy on the paper's Odroid-XU3 kernel (3.10.9 with the
IPA patches): a PID controller converts the distance to the control
temperature into a total power budget, and the budget is divided among the
power *actors* (big cluster, LITTLE cluster, GPU) in proportion to their
requested power.  Each actor's share is then translated into a frequency cap
through its power table.

Reference: X. Wang, "Intelligent Power Allocation", ARM white paper DTO0052A
(cited as [31] by the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.kernel.thermal.cooling import DvfsCoolingDevice
from repro.kernel.thermal.zone import ThermalGovernor, ThermalZone


@dataclass
class PowerActor:
    """One budget recipient: a cooling device plus its power estimators."""

    device: DvfsCoolingDevice
    max_power_w: Callable[[float], float]
    requested_power_w: Callable[[], float]
    weight: float = 1.0

    def power_table_w(self) -> list[float]:
        """Power at every OPP of the device, ascending, for this poll.

        Entry ``i`` is ``max_power_w`` at OPP ``i``; an actor that can build
        the whole table more cheaply overrides this with the same values.
        """
        return [self.max_power_w(f) for f in self.device.policy.opps.frequencies_hz()]


class PowerAllocatorGovernor(ThermalGovernor):
    """PID power budgeting with proportional division among actors."""

    name = "power_allocator"

    def __init__(
        self,
        actors: Sequence[PowerActor],
        sustainable_power_w: float,
        switch_on_temp_c: float,
        control_temp_c: float,
        k_po: float | None = None,
        k_pu: float | None = None,
        k_i: float | None = None,
        integral_cutoff_c: float = 5.0,
    ) -> None:
        if not actors:
            raise ConfigurationError("IPA needs at least one power actor")
        if control_temp_c <= switch_on_temp_c:
            raise ConfigurationError(
                "control temperature must exceed the switch-on temperature"
            )
        if sustainable_power_w <= 0.0:
            raise ConfigurationError("sustainable power must be positive")
        span_c = control_temp_c - switch_on_temp_c
        self.actors = tuple(actors)
        self.sustainable_power_w = sustainable_power_w
        self.switch_on_temp_c = switch_on_temp_c
        self.control_temp_c = control_temp_c
        # Defaults follow the kernel's heuristic scaling of the PID gains
        # from the sustainable power and the trip window.
        self.k_po = k_po if k_po is not None else 2.0 * sustainable_power_w / span_c
        self.k_pu = k_pu if k_pu is not None else sustainable_power_w / span_c
        self.k_i = k_i if k_i is not None else 0.3 * sustainable_power_w / span_c
        self.integral_cutoff_c = integral_cutoff_c
        self._integral = 0.0
        self._last_now_s: float | None = None

    def reset(self) -> None:
        self._integral = 0.0
        self._last_now_s = None

    def _budget_w(self, temp_c: float, now_s: float) -> float:
        err_c = self.control_temp_c - temp_c
        k_p = self.k_pu if err_c > 0.0 else self.k_po
        dt = 0.0
        if self._last_now_s is not None:
            dt = max(now_s - self._last_now_s, 0.0)
        self._last_now_s = now_s
        # Integrate only near the setpoint (anti-windup, as in the kernel).
        if abs(err_c) < self.integral_cutoff_c and dt > 0.0:
            self._integral += err_c * dt
            bound = self.sustainable_power_w / max(self.k_i, 1e-12)
            self._integral = min(max(self._integral, -bound), bound)
        budget = (
            self.sustainable_power_w + k_p * err_c + self.k_i * self._integral
        )
        return max(budget, 0.0)

    def power_tables(self) -> list[list[float]]:
        """Every actor's power table for this poll (see
        :meth:`PowerActor.power_table_w`)."""
        return [actor.power_table_w() for actor in self.actors]

    def _allocate(self, budget_w: float, tables: list[list[float]]) -> list[float]:
        """Divide the budget proportionally to requests, with one
        redistribution pass for actors whose grant exceeds their ceiling:
        the power at their fastest OPP, the last entry of their table."""
        requests = [
            max(actor.requested_power_w(), 1e-6) * actor.weight
            for actor in self.actors
        ]
        ceilings = [table[-1] for table in tables]
        total_req = sum(requests)
        grants = [budget_w * r / total_req for r in requests]
        surplus = 0.0
        unsaturated = []
        for i, (grant, ceiling) in enumerate(zip(grants, ceilings)):
            if grant > ceiling:
                surplus += grant - ceiling
                grants[i] = ceiling
            else:
                unsaturated.append(i)
        if surplus > 0.0 and unsaturated:
            extra_req = sum(requests[i] for i in unsaturated)
            for i in unsaturated:
                grants[i] = min(
                    grants[i] + surplus * requests[i] / extra_req, ceilings[i]
                )
        return grants

    def update(self, zone: ThermalZone, now_s: float) -> None:
        temp_c = zone.last_temp_c
        if temp_c is None:
            return
        if temp_c < self.switch_on_temp_c:
            self.reset()
            for actor in self.actors:
                actor.device.set_state(0)
            return
        budget = self._budget_w(temp_c, now_s)
        tables = self.power_tables()
        grants = self._allocate(budget, tables)
        for actor, grant, table in zip(self.actors, grants, tables):
            actor.device.set_state(actor.device.state_for_power(grant, table))

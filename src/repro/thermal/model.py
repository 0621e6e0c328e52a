"""State-space thermal simulation with exact linear-step discretisation.

The linear RC dynamics are discretised once, exactly, under a zero-order
hold on the power inputs, so the integration is exact for the linear part
at any step size.  Temperature-dependent leakage enters through the power
inputs recomputed every step by the engine, i.e. the nonlinearity is
handled explicitly — accurate for steps far below the thermal time
constants (milliseconds vs. tens of seconds) and able to reproduce genuine
thermal runaway.

The discretisation needs no general matrix exponential.  A passive RC
network has ``A = -C⁻¹G`` with ``G`` symmetric, so ``A`` is similar to the
symmetric ``S = -C^{-1/2} G C^{-1/2}``; one symmetric eigendecomposition
``S = V Λ Vᵀ`` gives ``e^{A dt}``, the input integral ``∫₀^dt e^{As} ds``,
``A⁻¹`` and the poles, all exactly up to rounding.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.thermal.rc_network import ThermalNetworkSpec


class ThermalModel:
    """Discrete-time simulator for a :class:`ThermalNetworkSpec`.

    Parameters
    ----------
    spec:
        The network description.
    dt_s:
        Fixed step size in seconds.
    ambient_k:
        Ambient temperature in kelvin (changeable at runtime).
    initial_k:
        Initial temperature of every node; defaults to the ambient.
    """

    def __init__(
        self,
        spec: ThermalNetworkSpec,
        dt_s: float,
        ambient_k: float = 298.15,
        initial_k: float | None = None,
    ) -> None:
        if dt_s <= 0.0:
            raise ConfigurationError(f"thermal step must be positive, got {dt_s}")
        self._base_spec = spec
        self._dt = float(dt_s)
        self._ambient_k = float(ambient_k)
        self._nodes = spec.node_names
        self._rails = spec.rail_names
        self._node_index = {name: i for i, name in enumerate(self._nodes)}
        self._rail_index = {name: i for i, name in enumerate(self._rails)}
        self._ambient_scale = 1.0
        self._configure(spec)

        start = self._ambient_k if initial_k is None else float(initial_k)
        self._state = np.full(len(self._nodes), start, dtype=float)

    def _configure(self, spec: ThermalNetworkSpec) -> None:
        """(Re)discretise the network; node temperatures are untouched."""
        cap, conduct, to_ambient, split = spec.conductance_form()
        self._b = split / cap[:, None]
        self._w = to_ambient / cap
        # S = -C^{-1/2} G C^{-1/2}: the outer product is symmetric bit for
        # bit, and so is G, hence S too, which is what eigh assumes.
        inv_sqrt = 1.0 / np.sqrt(cap)
        poles, vecs = np.linalg.eigh(-conduct * np.outer(inv_sqrt, inv_sqrt))
        # Hurwitz check at build time: every pole must sit strictly in the
        # left half-plane.  A node group with no path to ambient has a zero
        # pole that eigh returns as rounding dust of either sign, at most
        # about n·eps·max|λ|; that is the threshold.
        self._slowest_pole = float(poles[-1])
        dust = len(poles) * np.finfo(float).eps * float(np.abs(poles).max())
        if self._slowest_pole >= -dust:
            raise ConfigurationError(
                "thermal network is not passive (A is not Hurwitz: "
                f"max eig = {self._slowest_pole:g}); "
                "does every node have a path to ambient?"
            )
        # f(A) = C^{-1/2} V f(Λ) Vᵀ C^{1/2} for each function of A needed.
        left = inv_sqrt[:, None] * vecs
        right = vecs.T * np.sqrt(cap)[None, :]
        scaled = poles * self._dt
        self._ad = (left * np.exp(scaled)) @ right
        # The input integral ∫₀^dt e^{As} ds = A⁻¹(e^{A dt} - I), taken
        # through expm1 so that |λ|·dt << 1 loses no digits to e^{λdt} - 1.
        hold = (left * (np.expm1(scaled) / poles)) @ right
        self._bd = hold @ self._b
        self._wd = hold @ self._w
        self._ambient_drive = self._wd * self._ambient_k
        self._a_inv = (left / poles) @ right

    @property
    def dt_s(self) -> float:
        """Step size in seconds."""
        return self._dt

    @property
    def node_names(self) -> tuple[str, ...]:
        """State-vector node order."""
        return self._nodes

    @property
    def rail_names(self) -> tuple[str, ...]:
        """Power-input rail order."""
        return self._rails

    @property
    def ambient_k(self) -> float:
        """Current ambient temperature in kelvin."""
        return self._ambient_k

    def set_ambient(self, ambient_k: float) -> None:
        """Change the ambient temperature (takes effect next step)."""
        self._ambient_k = float(ambient_k)
        self._ambient_drive = self._wd * self._ambient_k

    @property
    def ambient_conductance_scale(self) -> float:
        """Current multiplier on every node-to-ambient conductance."""
        return self._ambient_scale

    def set_ambient_conductance_scale(self, scale: float) -> None:
        """Scale every node-to-ambient link and re-discretise the network.

        Models degraded convection at runtime — a fan stopping, blocked
        case vents — while preserving the node temperatures.  ``scale=1``
        restores the as-built network.  The rebuild is exact: the scaled
        continuous-time network is discretised afresh by the same
        eigendecomposition, so integration accuracy is unchanged.
        """
        if scale <= 0.0:
            raise ConfigurationError(
                f"ambient conductance scale must be positive, got {scale}"
            )
        from dataclasses import replace

        from repro.thermal.rc_network import AMBIENT

        links = tuple(
            replace(link, conductance_w_per_k=link.conductance_w_per_k * scale)
            if AMBIENT in (link.node_a, link.node_b) else link
            for link in self._base_spec.links
        )
        self._ambient_scale = float(scale)
        self._configure(replace(self._base_spec, links=links))

    def set_state(self, temps_k: Mapping[str, float]) -> None:
        """Overwrite node temperatures (e.g. to start a warm device)."""
        for name, value in temps_k.items():
            self._state[self._index(name)] = float(value)

    def _index(self, node: str) -> int:
        try:
            return self._node_index[node]
        except KeyError:
            raise SimulationError(
                f"unknown thermal node {node!r}; nodes: {list(self._nodes)}"
            ) from None

    def _power_vector(self, rail_powers: Mapping[str, float]) -> np.ndarray:
        p = np.zeros(len(self._rails))
        for rail, watts in rail_powers.items():
            idx = self._rail_index.get(rail)
            if idx is None:
                raise SimulationError(
                    f"unknown power rail {rail!r}; rails: {list(self._rails)}"
                )
            if watts < 0.0:
                raise SimulationError(f"rail {rail!r}: negative power {watts}")
            p[idx] = watts
        return p

    def step(self, rail_powers: Mapping[str, float]) -> None:
        """Advance one step with the given per-rail powers held constant."""
        p = self._power_vector(rail_powers)
        # _ambient_drive is wd * ambient, refreshed whenever either changes.
        self._state = self._ad @ self._state + self._bd @ p + self._ambient_drive

    def node_index(self, node: str) -> int:
        """Position of ``node`` in the state vector (see :meth:`temperature_at`)."""
        return self._index(node)

    def temperature_k(self, node: str) -> float:
        """Current temperature of ``node`` in kelvin."""
        return float(self._state[self._index(node)])

    def temperature_at(self, index: int) -> float:
        """Current temperature of the node at ``index`` in kelvin.

        Per-tick readers resolve :meth:`node_index` once at construction
        and read by position, with no name lookup.
        """
        return float(self._state[index])

    def temperatures_k(self) -> dict[str, float]:
        """Current temperature of every node in kelvin."""
        return {name: float(self._state[i]) for name, i in self._node_index.items()}

    def max_temperature_k(self) -> float:
        """Hottest node temperature in kelvin."""
        return float(self._state.max())

    def steady_state_k(self, rail_powers: Mapping[str, float]) -> dict[str, float]:
        """Steady-state temperatures for constant powers (linear part only).

        Leakage feedback is *not* iterated here; callers who need the
        self-consistent fixed point should use :mod:`repro.core.fixed_point`.
        """
        p = self._power_vector(rail_powers)
        t_ss = -self._a_inv @ (self._b @ p + self._w * self._ambient_k)
        return {name: float(t_ss[i]) for name, i in self._node_index.items()}

    def dc_gain(self, node: str, rail: str) -> float:
        """Steady-state kelvin-per-watt from ``rail`` to ``node``.

        This is the effective thermal resistance the lumped analysis uses.
        """
        gain = -self._a_inv @ self._b
        ridx = self._rail_index.get(rail)
        if ridx is None:
            raise SimulationError(f"unknown power rail {rail!r}")
        return float(gain[self._index(node), ridx])

    def dominant_time_constant_s(self) -> float:
        """Slowest thermal time constant (seconds)."""
        return -1.0 / self._slowest_pole

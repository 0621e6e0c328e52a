"""Compact RC thermal network description.

A platform's thermal behaviour is modelled as a lumped RC network: nodes with
heat capacitance, links with thermal conductance between nodes or from a node
to the ambient, and a map distributing each power rail's dissipation across
nodes.  This is the standard compact thermal model (HotSpot-style) that the
paper's stability analysis assumes.

The spec is pure data; :class:`repro.thermal.model.ThermalModel` turns it into
state-space matrices

    C dT/dt = -G T + g_amb T_amb + S P
    dT/dt   =  A T + B P + w T_amb
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError

AMBIENT = "ambient"


@dataclass(frozen=True)
class ThermalNodeSpec:
    """One lumped thermal mass."""

    name: str
    capacitance_j_per_k: float

    def __post_init__(self) -> None:
        if self.name == AMBIENT:
            raise ConfigurationError("'ambient' is a reserved node name")
        if self.capacitance_j_per_k <= 0.0:
            raise ConfigurationError(
                f"node {self.name!r}: capacitance must be positive"
            )


@dataclass(frozen=True)
class ThermalLinkSpec:
    """A thermal conductance between two nodes (or a node and the ambient)."""

    node_a: str
    node_b: str
    conductance_w_per_k: float

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise ConfigurationError(f"self-link on node {self.node_a!r}")
        if self.conductance_w_per_k <= 0.0:
            raise ConfigurationError(
                f"link {self.node_a!r}-{self.node_b!r}: conductance must be positive"
            )


@dataclass(frozen=True)
class ThermalNetworkSpec:
    """Complete thermal network: nodes, links and the rail-to-node power map.

    ``power_split[rail]`` maps node names to the fraction of that rail's
    power deposited on each node; the fractions of a rail must sum to 1.
    """

    nodes: Sequence[ThermalNodeSpec]
    links: Sequence[ThermalLinkSpec]
    power_split: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate thermal node names in {names}")
        if not names:
            raise ConfigurationError("a thermal network needs at least one node")
        known = set(names) | {AMBIENT}
        ambient_linked = False
        for link in self.links:
            for end in (link.node_a, link.node_b):
                if end not in known:
                    raise ConfigurationError(f"link references unknown node {end!r}")
            if AMBIENT in (link.node_a, link.node_b):
                ambient_linked = True
        if not ambient_linked:
            raise ConfigurationError("at least one link must reach the ambient")
        for rail, split in self.power_split.items():
            total = 0.0
            for node, frac in split.items():
                if node not in known or node == AMBIENT:
                    raise ConfigurationError(
                        f"rail {rail!r} deposits power on unknown node {node!r}"
                    )
                if frac < 0.0:
                    raise ConfigurationError(
                        f"rail {rail!r}: negative power fraction on {node!r}"
                    )
                total += frac
            if abs(total - 1.0) > 1e-9:
                raise ConfigurationError(
                    f"rail {rail!r}: power fractions sum to {total}, expected 1"
                )

    @property
    def node_names(self) -> tuple[str, ...]:
        """Node names in declaration order (the state-vector order)."""
        return tuple(n.name for n in self.nodes)

    @property
    def rail_names(self) -> tuple[str, ...]:
        """Rails with a power split, in declaration order (input order)."""
        return tuple(self.power_split)

    def conductance_form(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(c, G, g_amb, S)`` of ``C dT/dt = -G T + g_amb T_amb + S P``.

        ``c`` holds the node capacitances (``C = diag(c)``); ``G`` is the
        symmetric conductance matrix, symmetric bit for bit because both
        off-diagonal entries of a link accumulate the same values in the
        same order; ``g_amb`` is each node's total conductance to the
        ambient; ``S`` is the rail-to-node power split.
        """
        names = self.node_names
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        cap = np.array([node.capacitance_j_per_k for node in self.nodes])
        conduct = np.zeros((n, n))
        to_ambient = np.zeros(n)
        for link in self.links:
            g = link.conductance_w_per_k
            if AMBIENT in (link.node_a, link.node_b):
                node = link.node_b if link.node_a == AMBIENT else link.node_a
                i = index[node]
                conduct[i, i] += g
                to_ambient[i] += g
            else:
                i, j = index[link.node_a], index[link.node_b]
                conduct[i, i] += g
                conduct[j, j] += g
                conduct[i, j] -= g
                conduct[j, i] -= g
        rails = self.rail_names
        split = np.zeros((n, len(rails)))
        for r, rail in enumerate(rails):
            for node, frac in self.power_split[rail].items():
                split[index[node], r] = frac
        return cap, conduct, to_ambient, split

    def build_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return continuous-time ``(A, B, w)``.

        State is the node-temperature vector in declaration order; inputs are
        the per-rail powers in ``rail_names`` order; ``w`` multiplies the
        ambient temperature.
        """
        cap, conduct, to_ambient, split = self.conductance_form()
        a_mat = -conduct / cap[:, None]
        b_mat = split / cap[:, None]
        w_vec = to_ambient / cap
        return a_mat, b_mat, w_vec

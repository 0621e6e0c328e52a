"""Declarative platform definitions: pure data compiled to :class:`PlatformSpec`.

A :class:`PlatformDef` captures everything about a modelled device as
JSON-native data — clusters with their OPP ladders, the GPU, the memory,
the thermal RC network, the sensors, the chassis constants, *and* the
per-platform software defaults (the stock thermal policy and the default
temperature limit the proposed governor uses).  Definitions register with
:mod:`repro.soc.registry`; every higher layer (scenario runner, campaign
grids, lint's sysfs authority, the CLI) resolves platforms through the
registry, so adding a device means writing data, not code branches.

Definitions round-trip losslessly through :meth:`PlatformDef.to_dict` /
:meth:`PlatformDef.from_dict`, which is also the JSON file format that
``repro platforms validate --file`` consumes.  The field schema is
documented in ``docs/PLATFORMS.md`` (kept in sync by a test).
"""

from __future__ import annotations

import copy
import re
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields
from typing import Mapping

from repro.errors import ConfigurationError
from repro.soc.components import ClusterSpec, GpuSpec, LeakageParams, MemorySpec
from repro.soc.opp import OppTable, voltage_ladder
from repro.soc.platform import PlatformSpec
from repro.thermal.rc_network import (
    ThermalLinkSpec,
    ThermalNetworkSpec,
    ThermalNodeSpec,
)
from repro.thermal.sensors import SensorSpec
from repro.units import mhz

#: Platform names become run-id components and store directory names.
_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")

#: Fallback for the proposed governor's temperature limit when a platform's
#: ``software`` block does not set ``t_limit_c`` (the board-class default).
DEFAULT_T_LIMIT_C = 85.0

# -- schema key sets (also asserted against docs/PLATFORMS.md) --------------

OPP_LADDER_KEYS = frozenset({"freqs_mhz", "v_min", "v_max"})
OPP_POINTS_KEYS = frozenset({"points_mhz_v"})
LEAKAGE_REQUIRED = frozenset({"kappa_w_per_k2", "beta_k"})
LEAKAGE_OPTIONAL = frozenset({"v_ref"})
CLUSTER_REQUIRED = frozenset(
    {"name", "core_type", "n_cores", "opps", "ceff_w_per_v2hz", "leakage"}
)
CLUSTER_OPTIONAL = frozenset(
    {"idle_power_w", "thermal_node", "rail", "is_big", "is_little", "ipc"}
)
GPU_REQUIRED = frozenset({"name", "gpu_type", "opps", "ceff_w_per_v2hz", "leakage"})
GPU_OPTIONAL = frozenset({"idle_power_w", "thermal_node", "rail"})
MEMORY_REQUIRED = frozenset()
MEMORY_OPTIONAL = frozenset(
    {"name", "base_power_w", "activity_power_w", "leakage", "thermal_node", "rail"}
)
THERMAL_NODE_KEYS = frozenset({"name", "capacitance_j_per_k"})
THERMAL_LINK_KEYS = frozenset({"a", "b", "conductance_w_per_k"})
THERMAL_REQUIRED = frozenset({"nodes", "links"})
THERMAL_OPTIONAL = frozenset({"power_split"})
SENSOR_REQUIRED = frozenset({"name", "node"})
SENSOR_OPTIONAL = frozenset({"noise_std_c", "quantization_c", "offset_c"})
SOFTWARE_KEYS = frozenset({"thermal", "t_limit_c"})
THERMAL_CONFIG_REQUIRED = frozenset({"kind", "sensor", "cooled"})
THERMAL_CONFIG_OPTIONAL = frozenset(
    {"polling_s", "trips", "sustainable_power_w", "switch_on_temp_c",
     "control_temp_c"}
)
TRIP_REQUIRED = frozenset({"temp_c"})
TRIP_OPTIONAL = frozenset({"hyst_c", "trip_type"})


def _as_data(value, where: str):
    """Deep-normalise ``value`` into JSON-native data (dict/list/scalar).

    Mappings become plain dicts, sequences become lists; anything that
    would not survive a JSON round-trip is rejected so that equality and
    serialisation of definitions are trivially well-defined.
    """
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(f"{where}: mapping keys must be str: {key!r}")
            out[key] = _as_data(item, f"{where}.{key}")
        return out
    if isinstance(value, (list, tuple)):
        return [_as_data(item, f"{where}[]") for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"{where}: {value!r} is not JSON-native data (dict/list/str/number)"
    )


def _check_keys(data: Mapping, required: frozenset, optional: frozenset,
                what: str) -> None:
    missing = required - set(data)
    if missing:
        raise ConfigurationError(f"{what}: missing key(s) {sorted(missing)}")
    unknown = set(data) - required - optional
    if unknown:
        raise ConfigurationError(
            f"{what}: unknown key(s) {sorted(unknown)}; "
            f"have {sorted(required | optional)}"
        )


def _opp_table(data: Mapping, what: str) -> OppTable:
    """Compile an OPP block: a voltage ladder or explicit (MHz, V) points."""
    keys = set(data)
    if keys == set(OPP_LADDER_KEYS):
        return voltage_ladder(
            tuple(data["freqs_mhz"]), data["v_min"], data["v_max"]
        )
    if keys == set(OPP_POINTS_KEYS):
        pairs = []
        for entry in data["points_mhz_v"]:
            if len(entry) != 2:
                raise ConfigurationError(
                    f"{what}: each OPP point must be [freq_mhz, voltage_v]"
                )
            pairs.append((mhz(entry[0]), entry[1]))
        return OppTable.from_pairs(pairs)
    raise ConfigurationError(
        f"{what}: an 'opps' block needs either {sorted(OPP_LADDER_KEYS)} "
        f"(ladder) or {sorted(OPP_POINTS_KEYS)} (explicit points); got "
        f"{sorted(keys)}"
    )


def _leakage(data: Mapping, what: str) -> LeakageParams:
    _check_keys(data, LEAKAGE_REQUIRED, LEAKAGE_OPTIONAL, what)
    return LeakageParams(**data)


def _cluster_spec(data: Mapping, platform: str) -> ClusterSpec:
    what = f"platform {platform!r}: cluster {data.get('name')!r}"
    _check_keys(data, CLUSTER_REQUIRED, CLUSTER_OPTIONAL, what)
    kwargs = dict(data)
    kwargs["opps"] = _opp_table(kwargs["opps"], what)
    kwargs["leakage"] = _leakage(kwargs["leakage"], f"{what} leakage")
    return ClusterSpec(**kwargs)


def _gpu_spec(data: Mapping, platform: str) -> GpuSpec:
    what = f"platform {platform!r}: gpu {data.get('name')!r}"
    _check_keys(data, GPU_REQUIRED, GPU_OPTIONAL, what)
    kwargs = dict(data)
    kwargs["opps"] = _opp_table(kwargs["opps"], what)
    kwargs["leakage"] = _leakage(kwargs["leakage"], f"{what} leakage")
    return GpuSpec(**kwargs)


def _memory_spec(data: Mapping, platform: str) -> MemorySpec:
    what = f"platform {platform!r}: memory"
    _check_keys(data, MEMORY_REQUIRED, MEMORY_OPTIONAL, what)
    kwargs = dict(data)
    if "leakage" in kwargs:
        kwargs["leakage"] = _leakage(kwargs["leakage"], f"{what} leakage")
    return MemorySpec(**kwargs)


def _thermal_spec(data: Mapping, platform: str) -> ThermalNetworkSpec:
    what = f"platform {platform!r}: thermal"
    _check_keys(data, THERMAL_REQUIRED, THERMAL_OPTIONAL, what)
    nodes = []
    for node in data["nodes"]:
        _check_keys(node, THERMAL_NODE_KEYS, frozenset(), f"{what} node")
        nodes.append(ThermalNodeSpec(**node))
    links = []
    for link in data["links"]:
        _check_keys(link, THERMAL_LINK_KEYS, frozenset(), f"{what} link")
        links.append(
            ThermalLinkSpec(link["a"], link["b"], link["conductance_w_per_k"])
        )
    return ThermalNetworkSpec(
        nodes=tuple(nodes),
        links=tuple(links),
        power_split={
            rail: dict(split)
            for rail, split in data.get("power_split", {}).items()
        },
    )


def _sensor_spec(data: Mapping, platform: str) -> SensorSpec:
    what = f"platform {platform!r}: sensor {data.get('name')!r}"
    _check_keys(data, SENSOR_REQUIRED, SENSOR_OPTIONAL, what)
    return SensorSpec(**data)


@dataclass(frozen=True, eq=True)
class PlatformDef:
    """A device described entirely as data (see module docstring).

    ``clusters``/``gpu``/``memory``/``thermal``/``sensors`` hold nested
    dicts in the documented schema; ``software`` holds the per-platform
    software defaults (``thermal``: the stock kernel thermal policy or
    ``None``; ``t_limit_c``: the proposed governor's default limit).
    """

    name: str
    clusters: tuple
    gpu: Mapping
    memory: Mapping
    thermal: Mapping
    sensors: tuple
    board_power_w: float = 0.0
    default_ambient_c: float = 25.0
    initial_temp_c: float | None = None
    extras: Mapping = field(default_factory=dict)
    software: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ConfigurationError(
                f"platform name {self.name!r} must match {_NAME_RE.pattern} "
                "(it becomes run ids and store directory names)"
            )
        where = f"platform {self.name!r}"
        object.__setattr__(
            self, "clusters",
            tuple(_as_data(c, f"{where}.clusters") for c in self.clusters),
        )
        object.__setattr__(self, "gpu", _as_data(self.gpu, f"{where}.gpu"))
        object.__setattr__(self, "memory", _as_data(self.memory, f"{where}.memory"))
        object.__setattr__(
            self, "thermal", _as_data(self.thermal, f"{where}.thermal")
        )
        object.__setattr__(
            self, "sensors",
            tuple(_as_data(s, f"{where}.sensors") for s in self.sensors),
        )
        object.__setattr__(self, "extras", _as_data(self.extras, f"{where}.extras"))
        software = _as_data(self.software, f"{where}.software")
        _check_keys(software, frozenset(), SOFTWARE_KEYS, f"{where}.software")
        object.__setattr__(self, "software", software)

    # -- compilation --------------------------------------------------------

    def compile(self) -> PlatformSpec:
        """Build the :class:`PlatformSpec` this definition describes.

        All structural validation (thermal-node references, rail splits,
        sensor placement...) happens in the spec's ``__post_init__``.
        """
        return PlatformSpec(
            name=self.name,
            clusters=tuple(_cluster_spec(c, self.name) for c in self.clusters),
            gpu=_gpu_spec(self.gpu, self.name),
            memory=_memory_spec(self.memory, self.name),
            thermal=_thermal_spec(self.thermal, self.name),
            sensors=tuple(_sensor_spec(s, self.name) for s in self.sensors),
            board_power_w=self.board_power_w,
            default_ambient_c=self.default_ambient_c,
            initial_temp_c=self.initial_temp_c,
            extras=copy.deepcopy(dict(self.extras)),
        )

    def stock_thermal_config(self):
        """Compile the platform's stock kernel thermal policy.

        Returns a :class:`repro.kernel.kernel.ThermalConfig`, or ``None``
        when the definition declares no stock policy (the platform then
        runs unmanaged under the ``stock`` scenario policy).
        """
        data = self.software.get("thermal")
        if data is None:
            return None
        # Imported here: the kernel layer consumes soc specs, so importing
        # it at soc module load would be circular.
        from repro.kernel.kernel import ThermalConfig
        from repro.kernel.thermal.zone import TripPoint

        what = f"platform {self.name!r}: software.thermal"
        _check_keys(data, THERMAL_CONFIG_REQUIRED, THERMAL_CONFIG_OPTIONAL, what)
        kwargs = dict(data)
        kwargs["cooled"] = tuple(kwargs["cooled"])
        trips = []
        for trip in kwargs.pop("trips", ()):
            _check_keys(trip, TRIP_REQUIRED, TRIP_OPTIONAL, f"{what} trip")
            trips.append(TripPoint(**trip))
        return ThermalConfig(trips=tuple(trips), **kwargs)

    @property
    def default_t_limit_c(self) -> float:
        """The proposed governor's default temperature limit (degC)."""
        return float(self.software.get("t_limit_c", DEFAULT_T_LIMIT_C))

    def validate(self) -> PlatformSpec:
        """Compile hardware *and* software blocks; raises on any error."""
        spec = self.compile()
        config = self.stock_thermal_config()
        if config is not None and config.sensor not in {
            s["name"] for s in self.sensors
        }:
            raise ConfigurationError(
                f"platform {self.name!r}: stock thermal policy senses "
                f"{config.sensor!r}, which is not a declared sensor"
            )
        if self.default_t_limit_c <= 0.0:
            raise ConfigurationError(
                f"platform {self.name!r}: t_limit_c must be positive"
            )
        return spec

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable form (see :meth:`from_dict`)."""
        return copy.deepcopy(
            {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
            | {"clusters": list(self.clusters), "sensors": list(self.sensors)}
        )

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlatformDef":
        """Inverse of :meth:`to_dict`; rejects missing and unknown fields."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"PlatformDef must be a JSON object, got {type(data).__name__}"
            )
        fields = dataclass_fields(cls)
        required = frozenset(
            f.name for f in fields
            if f.default is MISSING and f.default_factory is MISSING
        )
        _check_keys(data, required, frozenset(f.name for f in fields),
                    "PlatformDef")
        kwargs = dict(data)
        for key in ("clusters", "sensors"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

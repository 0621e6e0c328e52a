"""Declarative campaign grids.

A :class:`CampaignSpec` is a named cartesian product of :class:`Axis`
values over the fields of :class:`~repro.sim.experiment.Scenario`:

    spec = CampaignSpec(
        name="horizon-sweep",
        base={
            "platform": "pixel-xl",
            "apps": (AppSpec.catalog("stickman"), AppSpec.batch("bml")),
            "policy": "proposed",
            "duration_s": 30.0,
        },
        axes=(Axis("governor.horizon_s", (10.0, 30.0, 60.0)),),
    )
    runs = spec.expand()   # tuple of CampaignRun, one frozen Scenario each

Axes may range over the scenario scalars (``platform``, ``policy``,
``seed``, ``duration_s``, ``t_limit_c``, ``ambient_c``), over whole app
mixes (``apps``: each value is a tuple of :class:`AppSpec`), over fault
plans (``faults.plan``: built-in plan names, plan dicts or
:class:`~repro.faults.plan.FaultPlan` objects) and over any
:class:`~repro.core.governor.GovernorConfig` field via a ``governor.``
prefix.  Expansion is deterministic: run indices follow the product order
of the axes as given, and every run gets a stable, content-derived id.

Specs round-trip through :meth:`CampaignSpec.to_dict` /
:meth:`CampaignSpec.from_dict`, which is also the JSON file format the
``repro campaign`` CLI consumes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from typing import Mapping, Sequence

from repro.core.governor import GovernorConfig
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, resolve_plan
from repro.sim.experiment import AppSpec, Scenario

#: Scenario fields an axis (or the base) may set directly.
SCALAR_AXES = (
    "platform", "policy", "seed", "duration_s", "t_limit_c", "ambient_c",
)

#: Axis names addressing a GovernorConfig field start with this prefix.
GOVERNOR_PREFIX = "governor."

#: Axis name sweeping the scenario's fault plan.
FAULTS_AXIS = "faults.plan"

_CAMPAIGN_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")


def _governor_field_names() -> frozenset[str]:
    return frozenset(f.name for f in dataclass_fields(GovernorConfig))


def canonical_json(data) -> str:
    """The canonical (sorted, compact) JSON used for hashing and dedup."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _normalize_apps_value(value) -> tuple[AppSpec, ...]:
    """Coerce one ``apps`` value into a tuple of AppSpec."""
    if isinstance(value, AppSpec):
        value = (value,)
    if isinstance(value, Mapping):
        raise ConfigurationError(
            "an 'apps' value must be a sequence of AppSpec (or their dicts), "
            "not a single mapping"
        )
    try:
        items = tuple(value)
    except TypeError:
        raise ConfigurationError(
            f"an 'apps' value must be a sequence of AppSpec; got {value!r}"
        ) from None
    out = []
    for item in items:
        if isinstance(item, AppSpec):
            out.append(item)
        elif isinstance(item, Mapping):
            out.append(AppSpec.from_dict(item))
        else:
            raise ConfigurationError(
                f"an 'apps' entry must be an AppSpec or its dict; got {item!r}"
            )
    if not out:
        raise ConfigurationError("an 'apps' value needs at least one app")
    return tuple(out)


def _require_keys(data, keys: Sequence[str], what: str) -> None:
    """Reject ``data`` unless it is a mapping holding every key in ``keys``."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{what} must be a JSON object, got {type(data).__name__}"
        )
    missing = [key for key in keys if key not in data]
    if missing:
        raise ConfigurationError(f"{what}: missing key(s) {missing}")


def _as_list(value, what: str) -> tuple:
    """``value`` as a tuple, when it is a list (or tuple) as the JSON format
    requires; anything else is a :class:`ConfigurationError` naming ``what``."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{what} must be a list, got {type(value).__name__}")
    return tuple(value)


def _jsonable_axis_value(name: str, value):
    if name == "apps":
        return [spec.to_dict() for spec in value]
    if name == FAULTS_AXIS:
        return value.to_dict()
    return value


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a scenario (or governor) field and its values."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ConfigurationError(
                f"axis 'name' must be a string, got {type(self.name).__name__}"
            )
        if self.name.startswith(GOVERNOR_PREFIX):
            fld = self.name[len(GOVERNOR_PREFIX):]
            if fld not in _governor_field_names():
                raise ConfigurationError(
                    f"unknown governor field {fld!r}; have "
                    f"{sorted(_governor_field_names())}"
                )
        elif self.name not in SCALAR_AXES + ("apps", FAULTS_AXIS):
            raise ConfigurationError(
                f"unknown axis {self.name!r}; have "
                f"{SCALAR_AXES + ('apps', FAULTS_AXIS)} and "
                f"'{GOVERNOR_PREFIX}<field>'"
            )
        values = _as_list(self.values, f"axis {self.name!r} 'values'")
        if not values:
            raise ConfigurationError(f"axis {self.name!r} needs at least one value")
        if self.name == "apps":
            values = tuple(_normalize_apps_value(v) for v in values)
        elif self.name == FAULTS_AXIS:
            values = tuple(resolve_plan(v) for v in values)
        object.__setattr__(self, "values", values)
        canon = [canonical_json(_jsonable_axis_value(self.name, v)) for v in values]
        if len(set(canon)) != len(canon):
            raise ConfigurationError(
                f"axis {self.name!r} has duplicate values: they would expand "
                "into identical scenarios"
            )

    def to_dict(self) -> dict:
        """JSON-serialisable form (see :meth:`from_dict`)."""
        return {
            "name": self.name,
            "values": [_jsonable_axis_value(self.name, v) for v in self.values],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Axis":
        """Inverse of :meth:`to_dict` (``apps`` dicts become AppSpecs)."""
        _require_keys(data, ("name", "values"), "axis")
        return cls(name=data["name"], values=data["values"])


@dataclass(frozen=True)
class CampaignRun:
    """One expanded grid point: a stable id plus its frozen scenario."""

    index: int
    run_id: str
    scenario: Scenario


@dataclass(frozen=True)
class CampaignSpec:
    """A named grid of scenarios: base fields plus swept axes."""

    name: str
    axes: tuple[Axis, ...]
    base: Mapping

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ConfigurationError(
                f"campaign 'name' must be a string, got {type(self.name).__name__}"
            )
        if not _CAMPAIGN_NAME_RE.match(self.name):
            raise ConfigurationError(
                f"campaign name {self.name!r} must match "
                f"{_CAMPAIGN_NAME_RE.pattern} (it becomes a directory name)"
            )
        axes = tuple(
            ax if isinstance(ax, Axis) else Axis.from_dict(ax)
            for ax in _as_list(self.axes, "campaign 'axes'")
        )
        names = [ax.name for ax in axes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate axis names in {names}")
        object.__setattr__(self, "axes", axes)

        if not isinstance(self.base, Mapping):
            raise ConfigurationError(
                f"campaign 'base' must be a JSON object, got {type(self.base).__name__}"
            )
        base = dict(self.base)
        allowed = set(SCALAR_AXES) | {"apps", "governor", "faults"}
        unknown = set(base) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown base field(s) {sorted(unknown)}; have {sorted(allowed)}"
            )
        if "apps" in base:
            base["apps"] = _normalize_apps_value(base["apps"])
        if base.get("faults") is not None:
            base["faults"] = resolve_plan(base["faults"]).to_dict()
        governor = base.get("governor")
        if isinstance(governor, GovernorConfig):
            base["governor"] = governor.to_dict()
        elif governor is not None:
            unknown_gov = set(governor) - _governor_field_names()
            if unknown_gov:
                raise ConfigurationError(
                    f"unknown governor field(s) {sorted(unknown_gov)} in base"
                )
            base["governor"] = dict(governor)
        object.__setattr__(self, "base", base)

        axis_fields = {
            ax.name for ax in axes if not ax.name.startswith(GOVERNOR_PREFIX)
        }
        if "apps" not in axis_fields and "apps" not in base:
            raise ConfigurationError(
                "the campaign needs 'apps' in the base or as an axis"
            )
        if "platform" not in axis_fields and "platform" not in base:
            raise ConfigurationError(
                "the campaign needs 'platform' in the base or as an axis"
            )

    @property
    def size(self) -> int:
        """Number of runs the grid expands into."""
        total = 1
        for ax in self.axes:
            total *= len(ax.values)
        return total

    def expand(self) -> tuple[CampaignRun, ...]:
        """Materialise the grid as frozen scenarios with stable run ids."""
        combos = itertools.product(*(ax.values for ax in self.axes))
        runs: list[CampaignRun] = []
        seen: dict[str, int] = {}
        for index, combo in enumerate(combos):
            fields = {k: v for k, v in self.base.items() if k != "governor"}
            governor = dict(self.base.get("governor") or {})
            for axis, value in zip(self.axes, combo):
                if axis.name.startswith(GOVERNOR_PREFIX):
                    governor[axis.name[len(GOVERNOR_PREFIX):]] = value
                elif axis.name == FAULTS_AXIS:
                    fields["faults"] = value
                else:
                    fields[axis.name] = value
            if governor:
                fields["governor"] = GovernorConfig.from_dict(governor)
            scenario = Scenario.from_dict(fields)
            digest = hashlib.sha256(
                canonical_json(scenario.to_dict()).encode()
            ).hexdigest()
            if digest in seen:
                raise ConfigurationError(
                    f"runs {seen[digest]} and {index} expand into the same "
                    "scenario; drop the redundant axis value"
                )
            seen[digest] = index
            run_id = (
                f"{index:03d}-{scenario.platform}-{scenario.policy}"
                f"-s{scenario.seed}-{digest[:6]}"
            )
            runs.append(CampaignRun(index=index, run_id=run_id, scenario=scenario))
        return tuple(runs)

    def to_dict(self) -> dict:
        """JSON-serialisable form — also the CLI's spec-file format."""
        base = dict(self.base)
        if "apps" in base:
            base["apps"] = [spec.to_dict() for spec in base["apps"]]
        return {
            "name": self.name,
            "base": base,
            "axes": [ax.to_dict() for ax in self.axes],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`; rejects missing and unknown keys."""
        _require_keys(data, ("name",), "campaign spec")
        unknown = set(data) - {"name", "base", "axes"}
        if unknown:
            raise ConfigurationError(
                f"unknown campaign field(s) {sorted(unknown)}"
            )
        return cls(
            name=data["name"], axes=data.get("axes", ()), base=data.get("base", {})
        )

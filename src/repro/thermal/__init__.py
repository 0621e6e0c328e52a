"""Thermal substrate: RC networks, state-space simulation, sensors."""

from repro.thermal.describe import describe_network
from repro.thermal.model import ThermalModel
from repro.thermal.rc_network import (
    AMBIENT,
    ThermalLinkSpec,
    ThermalNetworkSpec,
    ThermalNodeSpec,
)
from repro.thermal.sensors import SensorSpec, TemperatureSensor

__all__ = [
    "AMBIENT",
    "describe_network",
    "SensorSpec",
    "TemperatureSensor",
    "ThermalLinkSpec",
    "ThermalModel",
    "ThermalNetworkSpec",
    "ThermalNodeSpec",
]

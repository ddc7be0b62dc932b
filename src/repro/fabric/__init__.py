"""Photonic fabric models: switches, transceivers, reconfiguration
delays, and fault/heterogeneity conditions."""

from .degradation import (
    PRISTINE,
    FabricHealth,
    FaultEvent,
    hotspot,
    random_failures,
    uniform_degradation,
)
from .ocs import OpticalCircuitSwitch, SwitchStatistics
from .reconfiguration import (
    ConstantReconfigurationDelay,
    PerPortReconfigurationDelay,
    ReconfigurationModel,
    TableReconfigurationDelay,
    configuration_from_matching,
    configuration_from_topology,
    reconfiguration_model_from_dict,
    touched_ports,
)
from .transceiver import Transceiver
from .wavelength import WavelengthSwitchedFabric

__all__ = [
    "FabricHealth",
    "PRISTINE",
    "FaultEvent",
    "uniform_degradation",
    "random_failures",
    "hotspot",
    "OpticalCircuitSwitch",
    "WavelengthSwitchedFabric",
    "SwitchStatistics",
    "Transceiver",
    "ReconfigurationModel",
    "ConstantReconfigurationDelay",
    "PerPortReconfigurationDelay",
    "TableReconfigurationDelay",
    "configuration_from_matching",
    "configuration_from_topology",
    "reconfiguration_model_from_dict",
    "touched_ports",
]

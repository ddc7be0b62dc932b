"""Photonic fabric models: reconfiguration delays over circuit
configurations, and fault/heterogeneity conditions."""

from .degradation import (
    PRISTINE,
    FabricHealth,
    FaultEvent,
    hotspot,
    random_failures,
    uniform_degradation,
)
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

__all__ = [
    "FabricHealth",
    "PRISTINE",
    "FaultEvent",
    "uniform_degradation",
    "random_failures",
    "hotspot",
    "ReconfigurationModel",
    "ConstantReconfigurationDelay",
    "PerPortReconfigurationDelay",
    "TableReconfigurationDelay",
    "configuration_from_matching",
    "configuration_from_topology",
    "reconfiguration_model_from_dict",
    "touched_ports",
]

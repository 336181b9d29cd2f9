"""Fluid (flow-level) traffic engine: max-min fair shares over time."""

from .aimd import AimdFluidSimulation
from .engine import (DeviceIndex, FluidFlow, FluidResult, FluidRunState,
                     FluidSimulation, decode_device,
                     flow_link_matrix_from_paths, path_devices,
                     table_devices)
from .vectorized import (FlowLinkMatrix, max_min_fair_allocation,
                         waterfill)

__all__ = [
    "AimdFluidSimulation",
    "DeviceIndex",
    "FlowLinkMatrix",
    "FluidFlow",
    "FluidResult",
    "FluidRunState",
    "FluidSimulation",
    "decode_device",
    "flow_link_matrix_from_paths",
    "path_devices",
    "table_devices",
    "max_min_fair_allocation",
    "waterfill",
]

"""Fluid (flow-level) traffic engine: max-min fair shares over time."""

from .aimd import AimdFluidSimulation
from .engine import (FluidFlow, FluidResult, FluidRunState, FluidSimulation,
                     decode_device, flatten_path_devices,
                     flow_link_matrix_from_paths, path_devices)
from .vectorized import (FlowLinkMatrix, max_min_fair_allocation,
                         waterfill)

__all__ = [
    "AimdFluidSimulation",
    "FlowLinkMatrix",
    "FluidFlow",
    "FluidResult",
    "FluidRunState",
    "FluidSimulation",
    "decode_device",
    "flatten_path_devices",
    "flow_link_matrix_from_paths",
    "path_devices",
    "max_min_fair_allocation",
    "waterfill",
]

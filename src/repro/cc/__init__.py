"""repro.cc — the pluggable rate-control lab.

Two layers (see DESIGN.md "Congestion-control plug-ins & rate-control
lab"):

1. the plug-in API (:mod:`repro.cc.api`): the
   :class:`CongestionController` interface, the shared RFC 6298
   :class:`RttEstimator`, and the string-keyed :data:`CONTROLLERS`
   table, filled here with the three classics (:mod:`repro.cc.classic`);
2. the evaluation harness (:mod:`repro.cc.lab`, import as a
   submodule): every registered controller head-to-head across the
   fault x weather x churn scenario matrix — the `repro cc-lab` CLI.
   It is not imported here: it pulls in the network stack, which the
   registry (imported by :mod:`repro.transport.tcp` itself) must not.
"""

from .api import (CONTROLLERS, CongestionController, RttEstimator,
                  controller_names, make_controller, resolve_controller)
from .classic import BbrController, NewRenoController, VegasController
from .factory import ControllerFlowFactory

CONTROLLERS.update(newreno=NewRenoController, vegas=VegasController,
                   bbr=BbrController)

__all__ = [
    "CONTROLLERS",
    "CongestionController",
    "RttEstimator",
    "controller_names",
    "make_controller",
    "resolve_controller",
    "NewRenoController",
    "VegasController",
    "BbrController",
    "ControllerFlowFactory",
]

"""repro.cc — the pluggable rate-control lab.

Two layers (see DESIGN.md "Congestion-control plug-ins & rate-control
lab"):

1. the plug-in API (:mod:`repro.cc.api`): the
   :class:`CongestionController` interface and the shared RFC 6298
   :class:`RttEstimator`; the three classics (:mod:`repro.cc.classic`)
   and :data:`CONTROLLERS`, the constant table of their names a flow
   picks from (``TcpFlow(..., controller="vegas")``);
2. the evaluation harness (:mod:`repro.cc.lab`, import as a
   submodule): every controller head-to-head across the
   fault x weather x churn scenario matrix — the `repro cc-lab` CLI.
   It is not imported here: it pulls in the network stack, which the
   controllers (imported by :mod:`repro.transport.tcp` itself) must not.
"""

from .api import CongestionController, RttEstimator
from .classic import (CONTROLLERS, BbrController, NewRenoController,
                      VegasController)

__all__ = [
    "CONTROLLERS",
    "CongestionController",
    "RttEstimator",
    "NewRenoController",
    "VegasController",
    "BbrController",
]

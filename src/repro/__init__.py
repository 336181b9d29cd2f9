"""repro: a pure-Python reproduction of Hypatia (IMC 2020).

Hypatia is a framework for simulating and visualizing the network behaviour
of LEO mega-constellations (Starlink, Kuiper, Telesat).  This package
reimplements the full system from scratch:

* :mod:`repro.geo` / :mod:`repro.orbits` — geodesy and orbital mechanics
  (Keplerian elements, orbital shells, TLE export);
* :mod:`repro.constellations` — paper Table 1's shells and satellites;
* :mod:`repro.ground` — the 100-city ground segment and visibility;
* :mod:`repro.topology` / :mod:`repro.routing` — +Grid ISLs, GSLs,
  time-varying shortest-path forwarding state;
* :mod:`repro.simulation` / :mod:`repro.transport` — packet-level
  discrete-event simulation with TCP NewReno, TCP Vegas, UDP, ping;
* :mod:`repro.fluid` — flow-level max-min engine and Fig. 10's AIMD model;
* :mod:`repro.faults` — deterministic, seeded fault schedules (outages,
  link cuts, stochastic loss) applied across every engine;
* :mod:`repro.traffic` — gravity-model demand matrices and seeded
  stochastic flow workloads with flow-completion-time reporting;
* :mod:`repro.analysis` / :mod:`repro.viz` — the paper's metrics and
  visualization data exports;
* :mod:`repro.core` — the :class:`~repro.core.hypatia.Hypatia` facade.

Quickstart::

    from repro import Hypatia
    hypatia = Hypatia.from_shell_name("K1")
    rtt = hypatia.routing.pair_rtt_s(hypatia.snapshot(0.0),
                                     *hypatia.pair("Manila", "Dalian"))
"""

from .core.hypatia import Hypatia
from .core.workloads import PAPER_FOCUS_PAIRS, random_permutation_pairs
from .faults import FaultEvent, FaultKind, FaultSchedule
from .traffic import (
    FlowArrivalProcess,
    FlowRequest,
    TrafficMatrix,
    WorkloadSchedule,
    WorkloadSpawner,
)

__version__ = "1.0.0"

__all__ = [
    "Hypatia",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "FlowArrivalProcess",
    "FlowRequest",
    "TrafficMatrix",
    "WorkloadSchedule",
    "WorkloadSpawner",
    "PAPER_FOCUS_PAIRS",
    "random_permutation_pairs",
    "__version__",
]

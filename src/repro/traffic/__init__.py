"""Workload generation: gravity-model demand and stochastic flow churn.

The traffic layer turns "who talks to whom, how much, and when" into
plain data every engine consumes:

* :class:`TrafficMatrix` — (N, N) offered load between ground stations;
  gravity-model (population-weighted) or the paper's §5.4 permutation.
* :class:`FlowArrivalProcess` / :class:`WorkloadSchedule` — seeded
  Poisson flow arrivals with exponential/lognormal/Pareto sizes; a
  schedule is a sorted list of :class:`FlowRequest` s, JSON
  round-trippable and picklable (it crosses the sweep process boundary
  inside :class:`repro.sweep.NetworkSpec`).
* :class:`WorkloadSpawner` — runs a schedule as finite TCP transfers on
  the packet simulator, recording flow-completion times; the fluid
  engines take ``schedule.as_fluid_flows()`` directly.
"""

from .arrivals import (FlowArrivalProcess, FlowRequest, WorkloadSchedule,
                       SIZE_DISTRIBUTIONS)
from .matrix import TrafficMatrix
from .spawner import FCT_BUCKETS, WorkloadSpawner

__all__ = [
    "TrafficMatrix",
    "FlowArrivalProcess",
    "FlowRequest",
    "WorkloadSchedule",
    "WorkloadSpawner",
    "SIZE_DISTRIBUTIONS",
    "FCT_BUCKETS",
]

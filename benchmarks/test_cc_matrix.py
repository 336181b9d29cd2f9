"""The congestion-control gate: classic parity + the cc-lab matrix.

Two always-on guarantees ride in ``make check`` through this harness:

1. **Classic parity** — the plug-in refactor of NewReno/Vegas/BBR is
   bit-identical to the frozen seed classes
   (``tests/_seed_transport.py``) on full anchor scenarios: byte-equal
   cwnd and RTT traces and equal loss/retransmission counters.
2. **The lab earns its keep** — the learned (bandit) controller matches
   or beats the best classic's FCT p50 in at least one scenario of the
   fault x weather x churn matrix, and the matrix is deterministic:
   ``workers=2`` reproduces the serial report byte-for-byte.

Lab wall-time goes into ``results/cc_matrix.txt``; performance
regressions are judged by ``benchmarks/e2e/compare.py``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.cc.lab import build_scenarios, lab_network, run_lab
from repro.constellations.builder import Constellation
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation
from repro.orbits.shell import Shell
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.topology.network import LeoNetwork
from repro.transport.tcp import TcpFlow

from _common import scaled, write_result
from _seed_transport import (SeedTcpBbrFlow, SeedTcpNewRenoFlow,
                             SeedTcpVegasFlow)

_SITES = [
    ("Quito", 0.0, -78.5),
    ("Nairobi", -1.3, 36.8),
    ("Singapore", 1.35, 103.8),
    ("Honolulu", 21.3, -157.9),
    ("Sydney", -33.9, 151.2),
    ("Madrid", 40.4, -3.7),
]

#: The anchor scenarios: one long-lived flow per classic over the
#: 10x10 test shell, long enough to exercise slow start, fast recovery,
#: RTOs, and (for BBR) the full startup/drain/probe state machine.
ANCHORS = [
    ("newreno", SeedTcpNewRenoFlow, {"max_packets": 900}),
    ("vegas", SeedTcpVegasFlow, {}),
    ("bbr", SeedTcpBbrFlow, {"delayed_ack_count": 2}),
]


def _anchor_network() -> LeoNetwork:
    shell = Shell(name="X1", num_orbits=10, satellites_per_orbit=10,
                  altitude_m=600_000.0, inclination_deg=53.0)
    stations = [
        GroundStation(gid=i, name=name,
                      position=GeodeticPosition(lat, lon, 0.0))
        for i, (name, lat, lon) in enumerate(_SITES)
    ]
    return LeoNetwork(Constellation([shell]), stations,
                      min_elevation_deg=10.0)


def _run_anchor(flow_class, **kwargs):
    sim = PacketSimulator(_anchor_network(), link_config=LinkConfig(
        gsl_queue_packets=25, isl_queue_packets=25))
    flow = flow_class(0, 3, **kwargs).install(sim)
    sim.run(12.0)
    return flow


def test_classic_parity_gate():
    """Refactored classics == seed flows, byte for byte (always gated)."""
    lines = ["# controller  cwnd_events  snd_una  retx  frexmit  rto"]
    for name, seed_class, kwargs in ANCHORS:
        seed_flow = _run_anchor(seed_class, **kwargs)
        new_flow = _run_anchor(TcpFlow, controller=name, **kwargs)
        for log in ("cwnd_log", "rtt_log"):
            st, sv = getattr(seed_flow, log).as_arrays()
            nt, nv = getattr(new_flow, log).as_arrays()
            np.testing.assert_array_equal(
                st, nt, err_msg=f"{name}: {log} times diverged from seed")
            np.testing.assert_array_equal(
                sv, nv, err_msg=f"{name}: {log} values diverged from seed")
        for counter in ("snd_una", "retransmissions", "fast_retransmits",
                        "timeouts"):
            assert getattr(seed_flow, counter) == \
                getattr(new_flow, counter), \
                f"{name}: {counter} diverged from seed"
        lines.append(
            f"{name:10s}  {len(new_flow.cwnd_log):11d}  "
            f"{new_flow.snd_una:7d}  {new_flow.retransmissions:4d}  "
            f"{new_flow.fast_retransmits:7d}  {new_flow.timeouts:3d}")
    write_result("cc_classic_parity", lines)


def test_cc_lab_matrix():
    """The full lab: learned beats a classic somewhere, deterministically."""
    duration_s = scaled(8.0, 16.0)
    seed = 0
    base = lab_network("8x8")
    scenarios = build_scenarios(base, duration_s=duration_s, seed=seed)

    start = time.perf_counter()
    report = run_lab(scenarios=scenarios, seed=seed, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_lab(scenarios=scenarios, seed=seed, workers=2)
    parallel_s = time.perf_counter() - start
    assert (json.dumps(report.as_dict(), sort_keys=True)
            == json.dumps(parallel.as_dict(), sort_keys=True)), \
        "cc-lab matrix is not deterministic across process-pool widths"

    versus = report.learned_vs_best_classic()
    assert versus, "no scenario produced comparable learned/classic cells"
    wins = [s for s, row in versus.items() if row["wins"]]
    assert wins, (
        "the learned controller beat no classic anywhere; per-scenario "
        f"p50s: { {s: row['learned_fct_p50_s'] for s, row in versus.items()} }")

    lines = report.format_lines()
    lines.append("")
    lines.append(f"serial {serial_s:.2f}s, workers=2 {parallel_s:.2f}s, "
                 f"{len(report.cells)} cells, duration {duration_s:g}s")
    write_result("cc_matrix", lines)

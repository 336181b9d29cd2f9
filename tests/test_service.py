"""The live-service determinism contract (`repro.service`).

The backbone guarantee: a simulation checkpointed at an epoch boundary,
restored (in this or any process), and advanced to the horizon produces
stats, reports, and per-flow FCT arrays bit-identical to one that never
stopped — across the packet engine and the max-min fluid engine.
Plus the compatibility guards (format version, spec hash), RNG stream
survival through mid-fault-window checkpoints, sweep warm-starts, live
mutation equivalence, and the JSON-over-TCP server.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import random
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constellations.builder import Constellation
from repro.faults import FaultEvent, FaultSchedule
from repro.faults.injector import LinkFaultInjector
from repro.fluid.engine import FluidSimulation
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation
from repro.ground.weather import RainEvent, WeatherModel
from repro.orbits.shell import Shell
from repro.service import (CHECKPOINT_FORMAT_VERSION, Checkpoint,
                           CheckpointError, CheckpointSpecError,
                           CheckpointVersionError, LiveSimulationService,
                           ServiceClient, ServiceClientError, ServiceError,
                           ServiceServer, load_checkpoint,
                           read_checkpoint_header, resume_sweep,
                           save_checkpoint, spec_fingerprint,
                           sweep_with_checkpoint)
from repro.service.checkpoint import CHECKPOINT_MAGIC
from repro.sweep.engine import sweep_timelines
from repro.sweep.spec import NetworkSpec
from repro.topology.network import LeoNetwork
from repro.traffic import (FlowArrivalProcess, FlowRequest, TrafficMatrix,
                           WorkloadSchedule)

pytestmark = pytest.mark.service

HORIZON_S = 12.0
EPOCH_S = 1.0

_SITES = [
    ("Quito", 0.0, -78.5),
    ("Nairobi", -1.3, 36.8),
    ("Singapore", 1.35, 103.8),
    ("Honolulu", 21.3, -157.9),
    ("Sydney", -33.9, 151.2),
    ("Madrid", 40.4, -3.7),
]


def _small_spec(faults=None) -> NetworkSpec:
    """An 8x8 +Grid shell with six ground stations, as a spec."""
    shell = Shell(name="X1", num_orbits=8, satellites_per_orbit=8,
                  altitude_m=600_000.0, inclination_deg=53.0)
    stations = [
        GroundStation(gid=i, name=name,
                      position=GeodeticPosition(lat, lon, 0.0))
        for i, (name, lat, lon) in enumerate(_SITES)
    ]
    network = LeoNetwork(Constellation([shell]), stations,
                         min_elevation_deg=10.0, faults=faults)
    return NetworkSpec.from_network(network)


def _small_workload(seed: int = 11, start_s: float = 0.0,
                    horizon_s: float = HORIZON_S) -> WorkloadSchedule:
    """~24 finite flows spread over most of the horizon."""
    rng = random.Random(seed)
    requests = []
    for _ in range(24):
        src, dst = rng.sample(range(len(_SITES)), 2)
        requests.append(FlowRequest(
            t_start_s=start_s + rng.uniform(0.0, horizon_s * 0.7),
            src_gid=src, dst_gid=dst,
            size_bytes=rng.randint(20_000, 120_000)))
    return WorkloadSchedule(requests, seed=seed)


def _make_service(engine: str, faults=None, workload=None
                  ) -> LiveSimulationService:
    spec = _small_spec(faults=faults)
    spec = spec.with_workload(_small_workload()
                              if workload is None else workload)
    return LiveSimulationService(spec, engine=engine,
                                 horizon_s=HORIZON_S, epoch_s=EPOCH_S)


def _report_json(service: LiveSimulationService) -> str:
    """The canonical parity form: the deterministic report, serialized."""
    return json.dumps(service.report().as_dict(deterministic=True),
                      sort_keys=True)


#: Demand-driven routing *work* accounting.  Mid-run installs compute
#: their destination trees at install time instead of inside a refresh
#: batch, so live-mutation equivalence is stated over everything else
#: (outcomes stay bit-identical; see the driver's module docstring).
_ROUTING_WORK_KEYS = frozenset([
    "trees_computed", "dijkstra_calls", "transit_builds",
    "transit_cache_hits", "csr_rebuilds_avoided",
])


def _outcome_json(service: LiveSimulationService) -> str:
    """`_report_json` minus the routing-work counters."""
    payload = service.report().as_dict(deterministic=True)
    summary = payload.get("summary")
    if isinstance(summary, dict):
        for key in _ROUTING_WORK_KEYS:
            summary.pop(key, None)
    return json.dumps(payload, sort_keys=True)


def _round_trip(service: LiveSimulationService, path) -> LiveSimulationService:
    service.save(str(path))
    return LiveSimulationService.resume(str(path))


ENGINES = ["packet", "fluid"]
#: Test ids keep the suffix they had while the fluid engine still had a
#: second kernel, so results stay comparable across PRs.
ENGINE_IDS = ["packet-vectorized", "fluid-vectorized"]


# ----------------------------------------------------------------------
# Checkpoint container + compatibility guards
# ----------------------------------------------------------------------

class TestCheckpointContainer:
    def test_header_round_trip(self, tmp_path):
        spec = _small_spec()
        path = tmp_path / "c.ckpt"
        ckpt = Checkpoint(spec=spec, engine="packet", time_s=3.5,
                          payload={"x": np.arange(4)},
                          meta={"note": "hello"})
        header = save_checkpoint(str(path), ckpt)
        assert header["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert header["spec_hash"] == spec_fingerprint(spec)
        assert header["time_s"] == 3.5
        assert header["meta"] == {"note": "hello"}
        # Header reads back without unpickling anything.
        assert read_checkpoint_header(str(path)) == header
        loaded = load_checkpoint(str(path))
        assert loaded.engine == "packet"
        assert np.array_equal(loaded.payload["x"], np.arange(4))
        assert spec_fingerprint(loaded.spec) == spec_fingerprint(spec)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("cannot pickle this")

        spec = _small_spec()
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), Checkpoint(
            spec=spec, engine="packet", time_s=1.0, payload={"x": 1}))
        good = path.read_bytes()
        with pytest.raises(RuntimeError, match="cannot pickle this"):
            save_checkpoint(str(path), Checkpoint(
                spec=spec, engine="packet", time_s=2.0,
                payload={"x": Unpicklable()}))
        assert path.read_bytes() == good
        assert [entry.name for entry in tmp_path.iterdir()] == ["c.ckpt"]

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="bad magic"):
            read_checkpoint_header(str(path))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_version_mismatch_fails_clearly(self, tmp_path):
        path = tmp_path / "future.ckpt"
        ckpt = Checkpoint(spec=_small_spec(), engine="packet", time_s=0.0,
                          payload={},
                          format_version=CHECKPOINT_FORMAT_VERSION + 1)
        save_checkpoint(str(path), ckpt)
        with pytest.raises(CheckpointVersionError,
                           match="does not match this build"):
            load_checkpoint(str(path))
        # The header itself stays readable for forensics.
        header = read_checkpoint_header(str(path))
        assert header["format_version"] == CHECKPOINT_FORMAT_VERSION + 1

    def test_v1_packet_checkpoint_is_refused(self, tmp_path):
        """Format v1 held 3-field pending-event tuples; this build's
        scheduler would mis-dispatch them, so the header gate must stop
        the load before anything is unpickled."""
        assert CHECKPOINT_FORMAT_VERSION == 3
        service = _make_service("packet")
        service.advance_epoch(1)
        ckpt = service.checkpoint()
        ckpt.format_version = 1
        path = tmp_path / "v1.ckpt"
        save_checkpoint(str(path), ckpt)
        with pytest.raises(CheckpointVersionError, match="format v1"):
            LiveSimulationService.resume(str(path))

    def test_v2_fluid_checkpoint_is_refused(self, tmp_path):
        """Format v2 fluid states carry no ``flow_class`` (and per-flow
        pair lists this build no longer reads): the header gate must
        stop the load rather than let ``advance`` fail later."""
        service = _make_service("fluid")
        service.advance_epoch(1)
        ckpt = service.checkpoint()
        assert service.state.flow_class.shape == (len(service.fluid.flows),)
        ckpt.format_version = 2
        path = tmp_path / "v2.ckpt"
        save_checkpoint(str(path), ckpt)
        with pytest.raises(CheckpointVersionError, match="format v2"):
            LiveSimulationService.resume(str(path))

    def test_spec_mismatch_fails_clearly(self, tmp_path):
        path = tmp_path / "spec.ckpt"
        spec = _small_spec()
        save_checkpoint(str(path), Checkpoint(
            spec=spec, engine="packet", time_s=0.0, payload={}))
        other = spec.with_workload(_small_workload(seed=99))
        with pytest.raises(CheckpointSpecError,
                           match="different network spec"):
            load_checkpoint(str(path), expected_spec=other)
        # The matching spec passes the same gate.
        load_checkpoint(str(path), expected_spec=spec)

    def test_loads_checkpoint_written_with_kernel_key(self, tmp_path):
        """Builds that still had a second fluid kernel stamped ``kernel``
        into the header and onto the pickled objects; those files must
        keep loading and resume bit-identically."""
        baseline = _make_service("fluid")
        baseline.run_to_horizon()

        service = _make_service("fluid")
        service.advance_epoch(5)
        service.kernel = service.fluid.kernel = "reference"
        ckpt = service.checkpoint()
        legacy_header = dict(ckpt.header(), kernel="reference")
        ckpt.header = lambda: legacy_header
        path = tmp_path / "legacy.ckpt"
        save_checkpoint(str(path), ckpt)

        assert read_checkpoint_header(str(path))["kernel"] == "reference"
        assert "kernel" not in load_checkpoint(str(path)).header()
        restored = LiveSimulationService.resume(str(path))
        assert restored.clock_s == 5.0
        assert "kernel" not in restored.status()
        restored.run_to_horizon()
        assert _report_json(restored) == _report_json(baseline)

    def test_truncated_body_fails_clearly(self, tmp_path):
        """A file cut short inside the pickle used to surface as a raw
        ``EOFError`` / ``UnpicklingError``."""
        path = tmp_path / "cut.ckpt"
        save_checkpoint(str(path), Checkpoint(
            spec=_small_spec(), engine="packet", time_s=0.0,
            payload={"x": np.arange(1000)}))
        whole = path.read_bytes()
        for keep in (len(whole) - 1, len(whole) - 4000):
            path.write_bytes(whole[:keep])
            assert read_checkpoint_header(str(path))["engine"] == "packet"
            with pytest.raises(CheckpointError,
                               match="body cannot be unpickled"):
                load_checkpoint(str(path))

    def test_damaged_body_only_raises_checkpoint_errors(self, tmp_path):
        """300 seeded mutations of a fluid-service checkpoint's body
        (bit flip / truncation / 8 random bytes): 16 used to escape as
        ``UnicodeDecodeError``, ``AttributeError`` (after the unpickle,
        on ``body["spec"]`` or its fingerprint), ``ValueError``,
        ``TypeError`` or ``MemoryError``.  A mutant may still load —
        detecting those needs a body checksum — but nothing other than a
        :class:`CheckpointError` may come back."""
        path = tmp_path / "fluid.ckpt"
        service = _make_service("fluid")
        service.advance_to(4.0)
        service.save(str(path))
        whole = path.read_bytes()
        header_end = len(CHECKPOINT_MAGIC) + 8
        body_start = header_end + int.from_bytes(
            whole[len(CHECKPOINT_MAGIC):header_end], "big")
        rng = random.Random(0)
        refused = 0
        for _ in range(300):
            data = bytearray(whole)
            kind = rng.randrange(3)
            position = rng.randrange(body_start, len(data))
            if kind == 0:
                data[position] ^= 1 << rng.randrange(8)
            elif kind == 1:
                del data[position:]
            else:
                data[position:position + 8] = rng.randbytes(8)
            path.write_bytes(bytes(data))
            try:
                load_checkpoint(str(path))
            except CheckpointError as error:
                assert str(path) in str(error)
                refused += 1
        assert refused > 100

    def test_body_naming_a_removed_class_fails_clearly(self, tmp_path,
                                                       monkeypatch):
        """Packet checkpoints from builds that still had the transport
        shim classes pickle their flows as
        ``repro.transport.tcp.TcpNewRenoFlow``; loading one must name
        that cause instead of raising ``AttributeError``."""
        import repro.transport.tcp as tcp

        class TcpNewRenoFlow:
            pass
        TcpNewRenoFlow.__module__ = tcp.__name__
        TcpNewRenoFlow.__qualname__ = "TcpNewRenoFlow"
        path = tmp_path / "old.ckpt"
        with monkeypatch.context() as patch:
            patch.setattr(tcp, "TcpNewRenoFlow", TcpNewRenoFlow,
                          raising=False)
            save_checkpoint(str(path), Checkpoint(
                spec=_small_spec(), engine="packet", time_s=0.0,
                payload={"flows": [TcpNewRenoFlow()]}))
            load_checkpoint(str(path))  # loadable while the class exists
        with pytest.raises(CheckpointError,
                           match="cannot be unpickled by this build.*"
                                 "TcpNewRenoFlow"):
            load_checkpoint(str(path))
        with pytest.raises(CheckpointError):
            LiveSimulationService.resume(str(path))

    def test_spec_fingerprint_is_content_hash(self):
        assert spec_fingerprint(_small_spec()) == \
            spec_fingerprint(_small_spec())
        with_faults = _small_spec(faults=FaultSchedule(
            [FaultEvent.satellite_outage(3, 2.0, 5.0)], seed=1))
        assert spec_fingerprint(with_faults) != \
            spec_fingerprint(_small_spec())

    def test_fingerprint_of_a_fixed_spec_is_pinned(self):
        """Workload + faults + weather, hashed by the build before
        ``_canonical`` answered plain leaves first and cached field
        names: old checkpoints must keep passing the spec gate."""
        spec = replace(
            _small_spec(faults=_FAULTS).with_workload(_small_workload()),
            weather=WeatherModel([RainEvent(
                gid=2, start_s=1.0, end_s=6.0,
                elevation_penalty_deg=12.5)]))
        assert spec_fingerprint(spec) == (
            "c4c3edd6a2b75b9763cf743ea32456a7"
            "7a9cec91727bb054cd53d354ccfba88a")

    def test_header_hash_is_checked_against_the_pickled_spec(self,
                                                             tmp_path):
        """``spec_hash=`` lets a caller skip the fingerprint on save;
        the load recomputes it, so a wrong one cannot slip through."""
        path = tmp_path / "tampered.ckpt"
        for engine in ("packet", "sweep"):
            save_checkpoint(str(path), Checkpoint(
                spec=_small_spec(), engine=engine, time_s=0.0, payload={},
                spec_hash="0" * 64))
            with pytest.raises(CheckpointSpecError,
                               match="corrupt or tampered"):
                load_checkpoint(str(path))
        with pytest.raises(CheckpointSpecError, match="corrupt or tampered"):
            resume_sweep(str(path))
        with pytest.raises(TypeError):  # the check has no off switch
            load_checkpoint(str(path), check_spec=False)


#: An ISL cut, a lossy uplink and a satellite outage inside the horizon.
_FAULTS = FaultSchedule([
    FaultEvent.isl_cut(35, 34, 3.0, 9.0),
    FaultEvent.packet_loss(5.0, 12.0, 0.4, gid=1),
    FaultEvent.satellite_outage(7, 2.0, 4.5)], seed=3)


class TestFingerprintMemo:
    """The service fingerprints a spec once per spec *object*."""

    @pytest.fixture
    def fingerprinted(self, monkeypatch):
        """The specs ``spec_fingerprint`` was asked to hash, in order."""
        from repro.service import driver
        specs = []

        def counting(spec):
            specs.append(spec)
            return spec_fingerprint(spec)
        monkeypatch.setattr(driver, "spec_fingerprint", counting)
        return specs

    def test_recomputed_only_when_the_spec_was_replaced(self,
                                                        fingerprinted):
        service = _make_service("fluid")
        first = service.checkpoint().spec_hash
        service.advance_epoch(2)
        assert service.checkpoint().spec_hash == first
        assert len(fingerprinted) == 1
        service.inject_fault(FaultEvent.satellite_outage(3, 4.0, 6.0))
        faulted = service.checkpoint().spec_hash
        service.attach_workload(_small_workload(seed=5, start_s=3.0,
                                                horizon_s=6.0))
        attached = service.checkpoint().spec_hash
        assert service.checkpoint().spec_hash == attached
        assert len(fingerprinted) == 3
        assert len({first, faulted, attached}) == 3
        assert attached == spec_fingerprint(service.spec)

    def test_memo_is_not_pickled_and_a_restored_service_rehashes(
            self, fingerprinted, tmp_path):
        service = _make_service("fluid")
        service.advance_epoch(3)
        restored = _round_trip(service, tmp_path / "a.ckpt")
        assert service._fingerprinted[0] is service.spec
        assert "_fingerprinted" not in service.__getstate__()
        assert "_fingerprinted" not in vars(restored)
        header = restored.save(str(tmp_path / "b.ckpt"))
        assert fingerprinted == [service.spec, restored.spec]
        assert header["spec_hash"] == spec_fingerprint(restored.spec)
        load_checkpoint(str(tmp_path / "b.ckpt"))

    def test_faulted_fluid_steps_leave_the_fingerprint_alone(self):
        """The engine evaluates the spec's own schedule object every
        step; anything cached on it would land in ``vars(schedule)`` and
        change every later checkpoint's ``spec_hash``."""
        service = _make_service("fluid", faults=_FAULTS)
        assert service.network.fault_view is service.spec.faults
        before = spec_fingerprint(service.spec)
        service.advance_epoch(6)
        assert service.state.next_index == 6
        assert spec_fingerprint(service.spec) == before
        assert set(vars(service.spec.faults)) == {"events", "seed"}


# ----------------------------------------------------------------------
# Checkpoint -> restore -> continue is bit-identical
# ----------------------------------------------------------------------

class TestRoundTripDeterminism:
    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_epoch_boundary_round_trip(self, engine, tmp_path):
        baseline = _make_service(engine)
        baseline.run_to_horizon()

        interrupted = _make_service(engine)
        interrupted.advance_epoch(5)
        restored = _round_trip(interrupted, tmp_path / "mid.ckpt")
        assert restored.clock_s == 5.0
        restored.run_to_horizon()

        assert _report_json(restored) == _report_json(baseline)
        assert np.array_equal(restored.fct_values(),
                              baseline.fct_values(), equal_nan=True)

    def test_aimd_epoch_boundary_round_trip(self, tmp_path):
        """The AIMD engine's extra run state (sending rates, holdoffs,
        drop-tail backlogs) rides in the checkpoint like max-min's."""
        baseline = _make_service("aimd")
        baseline.run_to_horizon()
        assert baseline.report().as_dict()["kind"] == "fluid.aimd"

        interrupted = _make_service("aimd")
        interrupted.advance_epoch(5)
        restored = _round_trip(interrupted, tmp_path / "mid.ckpt")
        assert (restored.engine, restored.clock_s) == ("aimd", 5.0)
        restored.run_to_horizon()

        assert np.array_equal(restored.state.rates, baseline.state.rates)
        assert baseline.state.rates.any()
        assert np.array_equal(restored.fct_values(), baseline.fct_values())
        assert len(baseline.fct_values()) > 0
        assert _report_json(restored) == _report_json(baseline)

    def test_every_pending_record_kind_round_trips(self, tmp_path):
        """A packet checkpoint taken while tx-finish and arrival records
        (bound method + packet + node fields) and RTO, delayed-ACK and
        forwarding timers are all pending resumes ≡ never stopping."""
        from repro.cc.lab import lab_network
        from repro.simulation.simulator import LinkConfig, PacketSimulator
        from repro.transport.tcp import TcpFlow

        spec = lab_network("8x8")

        def build():
            sim = PacketSimulator(spec.build(), LinkConfig(
                isl_rate_bps=2e6, gsl_rate_bps=2e6,
                isl_queue_packets=25, gsl_queue_packets=25))
            flows = [TcpFlow(src, (src + 3) % 6, delayed_ack_count=2
                             ).install(sim) for src in range(6)]
            return sim, flows

        def outcome(sim, flows):
            summary = sim.report(include_series=False).as_dict(
                deterministic=True)["summary"]
            return json.dumps({
                "summary": summary,
                "flows": [(flow.snd_una, flow.retransmissions,
                           flow.timeouts, flow.cwnd_log.as_dict(),
                           flow.rtt_log.as_dict()) for flow in flows],
                "devices": [(device.name, device.stats.packets_sent,
                             device.stats.busy_time_s.hex())
                            for device in sim.iter_devices()],
            }, sort_keys=True)

        baseline_sim, baseline_flows = build()
        baseline_sim.run(1.5)

        sim, flows = build()
        sim.run(0.45)
        pending = {getattr(record[2], "func", record[2]).__name__
                   for record in sim.scheduler._queue}
        assert pending >= {"_finish_transmission", "_receive", "_on_rto",
                           "_on_delack_timer", "_update"}
        path = tmp_path / "pending.ckpt"
        save_checkpoint(str(path), Checkpoint(
            spec=spec, engine="packet", time_s=sim.now,
            payload={"sim": sim, "flows": flows}))
        payload = load_checkpoint(str(path)).payload
        payload["sim"].run(1.5)
        assert outcome(payload["sim"], payload["flows"]) == outcome(
            baseline_sim, baseline_flows)
        assert baseline_sim.stats.packets_dropped_queue > 0

    def test_double_restore_same_file(self, tmp_path):
        """One checkpoint file seeds any number of identical futures."""
        service = _make_service("packet")
        service.advance_epoch(4)
        service.save(str(tmp_path / "c.ckpt"))
        futures = []
        for _ in range(2):
            restored = LiveSimulationService.resume(str(tmp_path / "c.ckpt"))
            restored.run_to_horizon()
            futures.append(_report_json(restored))
        assert futures[0] == futures[1]

    def test_resume_checks_spec(self, tmp_path):
        service = _make_service("packet")
        service.save(str(tmp_path / "c.ckpt"))
        other = _small_spec().with_workload(_small_workload(seed=99))
        with pytest.raises(CheckpointSpecError):
            LiveSimulationService.resume(str(tmp_path / "c.ckpt"),
                                         expected_spec=other)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ServiceError, match="unknown engine 'warp'"):
            LiveSimulationService(
                _small_spec().with_workload(_small_workload()),
                engine="warp", horizon_s=HORIZON_S)

    def test_fluid_report_needs_horizon(self):
        service = _make_service("fluid")
        service.advance_epoch(2)
        with pytest.raises(ServiceError, match="horizon"):
            service.report()


@st.composite
def _boundary_scenario(draw):
    engine = draw(st.sampled_from(ENGINES))
    epoch = draw(st.integers(min_value=1,
                             max_value=int(HORIZON_S / EPOCH_S) - 1))
    return engine, epoch


_BASELINES: dict = {}


def _baseline_outputs(engine: str):
    if engine not in _BASELINES:
        service = _make_service(engine)
        service.run_to_horizon()
        _BASELINES[engine] = (_report_json(service), service.fct_values())
    return _BASELINES[engine]


class TestRandomBoundaryProperty:
    @given(_boundary_scenario())
    @settings(max_examples=10, deadline=None)
    def test_round_trip_at_any_event_boundary(self, scenario):
        engine, epoch = scenario
        expected_report, expected_fct = _baseline_outputs(engine)
        service = _make_service(engine)
        service.advance_epoch(epoch)
        # In-memory pickle round trip == file round trip (same bytes
        # path), without hypothesis needing a per-example tmp dir.
        blob = pickle.dumps(service.checkpoint())
        restored = LiveSimulationService.from_checkpoint(
            pickle.loads(blob))
        restored.run_to_horizon()
        assert _report_json(restored) == expected_report
        assert np.array_equal(restored.fct_values(), expected_fct,
                              equal_nan=True)


# ----------------------------------------------------------------------
# RNG stream positions survive mid-window checkpoints
# ----------------------------------------------------------------------

class TestRngStreamSurvival:
    def test_injector_stream_position_survives_pickle(self):
        event = FaultEvent.packet_loss(0.0, 1_000.0, 0.3, isl=(3, 4))
        injector = LinkFaultInjector("isl-3-4", [event], seed=7)
        for i in range(137):  # mid-window: stream position 137
            injector.drop_reason(float(i % 900))
        clone = pickle.loads(pickle.dumps(injector))
        tail = [injector.drop_reason(float(i)) for i in range(200)]
        clone_tail = [clone.drop_reason(float(i)) for i in range(200)]
        assert tail == clone_tail

    def test_injector_extend_keeps_draw_sequence(self):
        """Injecting a future window == having baked it in from t=0."""
        e1 = FaultEvent.packet_loss(0.0, 50.0, 0.4, isl=(3, 4))
        e2 = FaultEvent.packet_loss(80.0, 90.0, 0.9, isl=(3, 4))
        live = LinkFaultInjector("isl-3-4", [e1], seed=7)
        baked = LinkFaultInjector("isl-3-4", [e1, e2], seed=7)
        draws_live = [live.drop_reason(t / 10.0) for t in range(300)]
        draws_baked = [baked.drop_reason(t / 10.0) for t in range(300)]
        assert draws_live == draws_baked  # e2 not active yet
        live.extend([e2], now_s=60.0)
        after_live = [live.drop_reason(80.0 + t / 100.0)
                      for t in range(300)]
        after_baked = [baked.drop_reason(80.0 + t / 100.0)
                       for t in range(300)]
        assert after_live == after_baked

    def test_injector_extend_rejects_past_windows(self):
        injector = LinkFaultInjector("isl-0-1", [], seed=0)
        with pytest.raises(ValueError, match="future windows"):
            injector.extend(
                [FaultEvent.packet_loss(5.0, 9.0, 0.5, isl=(0, 1))],
                now_s=7.0)

    def test_arrival_stream_position_survives_pickle(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = demand[2, 3] = demand[1, 2] = 400_000.0
        process = FlowArrivalProcess(TrafficMatrix(demand),
                                     mean_size_bytes=50_000.0, seed=5)
        whole = process.generate(40.0).requests

        stream = process.stream()
        head = stream.take_until(13.0)
        stream = pickle.loads(pickle.dumps(stream))  # mid-stream cut
        tail = stream.take_until(40.0)
        assert tuple(head) + tuple(tail) == \
            tuple(r for r in whole if r.t_start_s < 40.0)

    def test_mid_fault_window_checkpoint_round_trip(self, tmp_path):
        """The satellite regression: checkpoint inside an active
        stochastic-loss window; neither the loss RNG nor packet
        outcomes rewind or skip."""
        events = [FaultEvent.packet_loss(2.0, 10.0, 0.2, gid=1),
                  FaultEvent.packet_loss(3.0, 9.0, 0.15, isl=(10, 11))]
        faults = FaultSchedule(events, seed=13)
        baseline = _make_service("packet", faults=faults)
        baseline.run_to_horizon()

        interrupted = _make_service("packet", faults=faults)
        interrupted.advance_epoch(5)  # t=5: both windows are open
        restored = _round_trip(interrupted, tmp_path / "midfault.ckpt")
        restored.run_to_horizon()
        assert _report_json(restored) == _report_json(baseline)
        assert np.array_equal(restored.fct_values(),
                              baseline.fct_values(), equal_nan=True)

    def test_mid_arrival_stream_checkpoint_round_trip(self, tmp_path):
        """Arrival-process RNG cursors ride inside the checkpoint."""
        demand = np.zeros((len(_SITES), len(_SITES)))
        demand[0, 2] = demand[3, 4] = demand[5, 1] = 300_000.0
        process = FlowArrivalProcess(TrafficMatrix(demand),
                                     mean_size_bytes=40_000.0, seed=21)

        def build():
            service = _make_service("packet")
            service.attach_arrivals(process)
            return service

        baseline = build()
        baseline.run_to_horizon()
        interrupted = build()
        interrupted.advance_epoch(6)
        restored = _round_trip(interrupted, tmp_path / "arrivals.ckpt")
        restored.run_to_horizon()
        assert _report_json(restored) == _report_json(baseline)
        assert np.array_equal(restored.fct_values(),
                              baseline.fct_values(), equal_nan=True)


# ----------------------------------------------------------------------
# Live mutation == baked in from t=0
# ----------------------------------------------------------------------

class TestLiveMutation:
    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_attach_workload_equals_baked(self, engine):
        extra = _small_workload(seed=31, start_s=4.0, horizon_s=6.0)
        baked = _make_service(
            engine, workload=_small_workload().merged(extra))
        baked.run_to_horizon()

        live = _make_service(engine)
        live.advance_epoch(3)  # extra's first start is >= 4.0
        live.attach_workload(extra)
        live.run_to_horizon()
        assert _outcome_json(live) == _outcome_json(baked)

    def test_inject_fault_equals_baked(self):
        events = [FaultEvent.satellite_outage(5, 6.0, 9.0),
                  FaultEvent.packet_loss(7.0, 10.0, 0.25, gid=2)]
        baked = _make_service("packet",
                              faults=FaultSchedule(events, seed=0))
        baked.run_to_horizon()

        live = _make_service("packet")
        live.advance_epoch(4)
        assert live.inject_fault(events) == 2
        live.run_to_horizon()
        assert _outcome_json(live) == _outcome_json(baked)

    def test_mutations_guard_the_past(self):
        service = _make_service("packet")
        service.advance_epoch(5)
        with pytest.raises(ServiceError, match="past"):
            service.inject_fault(
                FaultEvent.satellite_outage(1, 2.0, 8.0))
        late = WorkloadSchedule(
            [FlowRequest(1.0, 0, 1, 10_000)], seed=0)
        with pytest.raises(ServiceError, match="shift_to_now"):
            service.attach_workload(late)
        # shift_to_now re-bases the same schedule onto the future.
        handle = service.attach_workload(late, shift_to_now=True)
        assert service.detach_workload(handle)["handle"] == handle
        with pytest.raises(ServiceError, match="unknown workload handle"):
            service.detach_workload(handle)

    def test_cannot_advance_backwards(self):
        service = _make_service("packet")
        service.advance_epoch(3)
        with pytest.raises(ServiceError, match="backwards"):
            service.advance_to(1.0)

    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    @pytest.mark.parametrize("clock_s", [0.5, 1.5, 2.5, 3.5])
    def test_advance_epoch_from_mid_epoch_clock(self, engine, clock_s):
        """advance_epoch walks advance_to's floor grid: from a mid-epoch
        clock it stops at the next boundary, then one epoch at a time
        (banker's rounding used to jump 1.5 -> 3.0 and 3.5 -> 5.0)."""
        service = _make_service(engine)
        service.advance_to(clock_s)
        boundary = float(np.floor(clock_s)) + 1.0
        assert service.advance_epoch()["time_s"] == boundary
        assert service.advance_epoch(2)["time_s"] == boundary + 2.0

    def test_attach_then_checkpoint_round_trip(self, tmp_path):
        """Mutations compose with the checkpoint contract: mutate,
        checkpoint, restore, finish == mutate and never stop."""
        extra = _small_workload(seed=41, start_s=3.0, horizon_s=5.0)
        baseline = _make_service("packet")
        baseline.advance_epoch(2)
        baseline.attach_workload(extra)
        baseline.run_to_horizon()

        interrupted = _make_service("packet")
        interrupted.advance_epoch(2)
        interrupted.attach_workload(extra)
        interrupted.advance_epoch(4)
        restored = _round_trip(interrupted, tmp_path / "mutated.ckpt")
        restored.run_to_horizon()
        assert _report_json(restored) == _report_json(baseline)


class TestOutOfRangeGids:
    """A request naming a station the network lacks is refused before
    anything is installed.  It used to be accepted, after which every
    ``advance`` of a fluid session raised (and checkpoints carried the
    request); on the packet engine the requests sorted before the bad
    one ran as flows no status, FCT or report ever showed."""

    ALL_ENGINES = ["packet", "fluid", "aimd"]
    #: Six stations: gid 99 does not exist.  The good request sorts
    #: first, so a per-request install would have started it.
    BAD = WorkloadSchedule([FlowRequest(4.0, 0, 1, 30_000),
                            FlowRequest(5.0, 0, 99, 1_000)], seed=5)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_rejected_attach_leaves_no_trace(self, engine):
        untouched = _make_service(engine)
        service = _make_service(engine)
        for each in (untouched, service):
            each.advance_epoch(3)
        with pytest.raises(ServiceError, match="outside"):
            service.attach_workload(self.BAD)
        ten_stations = FlowArrivalProcess(
            TrafficMatrix.gravity(count=10, total_offered_bps=1e6), seed=3)
        with pytest.raises(ServiceError, match="10 stations"):
            service.attach_arrivals(ten_stations)
        assert service.spec == untouched.spec
        for each in (untouched, service):
            each.advance_epoch(2)  # used to raise on the fluid engines
        assert service.status() == untouched.status()
        for each in (untouched, service):
            each.run_to_horizon()
        assert _report_json(service) == _report_json(untouched)
        assert service.metrics_dict() == untouched.metrics_dict()

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_constructor_rejects_it_too(self, engine):
        with pytest.raises(ServiceError, match="outside"):
            _make_service(engine,
                          workload=_small_workload().merged(self.BAD))

    def test_no_ghost_flow_over_the_wire(self):
        """``ok: false`` means nothing happened: the packet session
        processes the events of one that never got the command."""
        untouched = _make_service("packet")
        untouched.advance_epoch(6)
        with _ServerThread(_make_service("packet")) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                client.advance(3)
                with pytest.raises(ServiceClientError):
                    client.command("attach_workload",
                                   workload=self.BAD.as_dict())
                assert client.advance(3) == untouched.status()
                assert client.metrics() == untouched.metrics_dict()
                client.stop()


# ----------------------------------------------------------------------
# Sweep warm-start
# ----------------------------------------------------------------------

class TestSweepWarmStart:
    PAIRS = [(0, 1), (2, 3), (4, 5)]
    TIMES = np.arange(0.0, 13.0, 1.0)

    def _full(self, spec):
        return sweep_timelines(spec, self.PAIRS, self.TIMES)

    @pytest.mark.parametrize("workers", [None, 4])
    def test_resumed_sweep_equals_serial_full_pass(self, workers,
                                                   tmp_path):
        spec = _small_spec()
        expected = self._full(spec)
        path = tmp_path / "sweep.ckpt"
        header = sweep_with_checkpoint(spec, self.PAIRS, self.TIMES,
                                       str(path), checkpoint_index=5)
        assert header["engine"] == "sweep"
        resumed = resume_sweep(str(path), workers=workers)
        assert set(resumed) == set(expected)
        for pair in expected:
            assert np.array_equal(resumed[pair].distances_m,
                                  expected[pair].distances_m,
                                  equal_nan=True)
            assert resumed[pair].paths == expected[pair].paths

    def test_checkpoint_at_the_last_index_resumes_without_a_pool(
            self, tmp_path, monkeypatch):
        from repro.sweep import engine
        spec = _small_spec()
        expected = self._full(spec)
        path = tmp_path / "done.ckpt"
        header = sweep_with_checkpoint(
            spec, self.PAIRS, self.TIMES, str(path),
            checkpoint_index=len(self.TIMES))
        assert header["time_s"] == self.TIMES[-1]

        def no_pool(*args, **kwargs):
            raise AssertionError("nothing left to compute")
        monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(engine, "_compute_chunk", no_pool)
        resumed = resume_sweep(str(path), workers=4)
        assert list(resumed) == self.PAIRS
        for pair in self.PAIRS:
            assert np.array_equal(resumed[pair].distances_m,
                                  expected[pair].distances_m)
            assert resumed[pair].paths == expected[pair].paths
            assert np.array_equal(resumed[pair].times_s, self.TIMES)

    def test_parent_layout_payload_still_resumes(self, tmp_path):
        """The sweep payload as every earlier build wrote it — ``pairs``,
        the full ``times_s``, ``next_index`` and a ``prefix`` of
        ``(distances, paths)`` tuples — saved by hand."""
        spec = _small_spec()
        expected = self._full(spec)
        cut = 5
        path = tmp_path / "by-hand.ckpt"
        header = save_checkpoint(str(path), Checkpoint(
            spec=spec, engine="sweep", time_s=float(self.TIMES[cut]),
            payload={
                "pairs": list(self.PAIRS),
                "times_s": self.TIMES,
                "next_index": cut,
                "prefix": {pair: (expected[pair].distances_m[:cut],
                                  expected[pair].paths[:cut])
                           for pair in self.PAIRS},
            }))
        assert header["format_version"] == CHECKPOINT_FORMAT_VERSION == 3
        written = sweep_with_checkpoint(spec, self.PAIRS, self.TIMES,
                                        str(tmp_path / "written.ckpt"),
                                        checkpoint_index=cut)
        assert written["time_s"] == header["time_s"]
        payload = load_checkpoint(str(tmp_path / "written.ckpt")).payload
        assert sorted(payload) == ["next_index", "pairs", "prefix",
                                   "times_s"]
        assert payload["pairs"] == self.PAIRS
        assert payload["next_index"] == cut
        assert isinstance(payload["prefix"][self.PAIRS[0]], tuple)
        for resumed in (resume_sweep(str(path)),
                        resume_sweep(str(path), workers=2)):
            for pair in self.PAIRS:
                assert np.array_equal(resumed[pair].distances_m,
                                      expected[pair].distances_m)
                assert resumed[pair].paths == expected[pair].paths

    def test_sweep_checkpoint_rejects_service_resume(self, tmp_path):
        spec = _small_spec()
        path = tmp_path / "sweep.ckpt"
        sweep_with_checkpoint(spec, self.PAIRS, self.TIMES, str(path),
                              checkpoint_index=3)
        with pytest.raises(CheckpointError, match="not a live service"):
            LiveSimulationService.resume(str(path))
        # A damaged body can leave any object where the payload dict was.
        damaged = Checkpoint(spec=spec, engine="packet", time_s=0.0,
                             payload=["service"])
        with pytest.raises(CheckpointError, match="payload is a 'list'"):
            LiveSimulationService.from_checkpoint(damaged)
        service = _make_service("packet")
        service.save(str(tmp_path / "svc.ckpt"))
        with pytest.raises(CheckpointError, match="not a sweep"):
            resume_sweep(str(tmp_path / "svc.ckpt"))


# ----------------------------------------------------------------------
# The JSON-over-TCP server
# ----------------------------------------------------------------------

class _ServerThread:
    """A ServiceServer on a background event loop, for client tests."""

    def __init__(self, service: LiveSimulationService, pace: float = 0.0):
        self.ready = threading.Event()
        self.port = 0

        def runner() -> None:
            async def main() -> None:
                server = ServiceServer(service, pace=pace)
                await server.start()
                self.port = server.port
                self.ready.set()
                await server.wait_closed()
            asyncio.run(main())

        self.thread = threading.Thread(target=runner, daemon=True)

    def __enter__(self) -> "_ServerThread":
        self.thread.start()
        assert self.ready.wait(timeout=10.0), "server never came up"
        return self

    def __exit__(self, *exc_info) -> None:
        self.thread.join(timeout=10.0)


class TestServerClient:
    def test_command_session(self, tmp_path):
        service = _make_service("packet")
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                status = client.status()
                assert status["engine"] == "packet"
                assert status["time_s"] == 0.0
                assert client.advance(3)["time_s"] == 3.0
                header = client.checkpoint(str(tmp_path / "live.ckpt"))
                assert header["time_s"] == 3.0
                metrics = client.metrics()
                assert set(metrics) >= {"counters", "gauges",
                                        "histograms"}
                report = client.report(deterministic=True)
                assert report["kind"] == "packet"
                with pytest.raises(ServiceClientError,
                                   match="unknown command"):
                    client.command("warp")
                with pytest.raises(ServiceClientError,
                                   match="epochs must be"):
                    client.command("advance", epochs=-1)
                assert client.stop()["time_s"] == 3.0
        # The checkpoint written over the wire restores like any other.
        restored = LiveSimulationService.resume(str(tmp_path / "live.ckpt"))
        assert restored.clock_s == 3.0

    def test_checkpoint_into_a_missing_directory_is_answered(self,
                                                             tmp_path):
        """``save_checkpoint``'s ``open`` raised ``FileNotFoundError``
        past the handler's caught tuple: the client saw EOF."""
        service = _make_service("packet")
        target = tmp_path / "missing" / "x.ckpt"
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceClientError,
                                   match="FileNotFoundError"):
                    client.checkpoint(str(target))
                assert client.status()["time_s"] == 0.0  # same connection
                client.stop()
        assert not list(tmp_path.rglob("*.tmp"))
        assert not target.parent.exists()

    @pytest.mark.parametrize("line", [
        b"[1]", b'"status"', b"null",
        b'{"cmd": "advance", "epochs": 1e400}',
        b'{"cmd": "advance", "epochs": 1.5}',
        b'{"cmd": "advance", "epochs": "2"}',
        b'{"cmd": "advance", "epochs": 1' + b"0" * 400 + b"}",
    ])
    def test_bad_line_gets_an_error_and_the_connection_survives(self, line):
        """Non-object commands and non-integer epochs used to raise past
        the handler's caught tuple: the client saw EOF, not ok:false."""
        service = _make_service("packet")
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                client._stream.write(line + b"\n")
                client._stream.flush()
                response = json.loads(client._stream.readline())
                assert response["ok"] is False
                assert response["error"].split(":")[0] in (
                    "ServiceError", "OverflowError")
                assert client.status()["time_s"] == 0.0
                assert client.advance(2.0)["time_s"] == 2.0
                client.stop()

    def test_overlong_line_is_answered_and_only_its_connection_closed(self):
        """A line past the stream limit used to raise out of the handler
        (``readline`` sat outside the ``try``): the client saw EOF."""
        service = _make_service("packet")
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                sender = threading.Thread(
                    target=client._sock.sendall,
                    args=(b"x" * (1 << 20) + b"\n",), daemon=True)
                sender.start()
                response = json.loads(client._stream.readline())
                assert response["ok"] is False
                assert "exceeds" in response["error"]
                assert client._stream.readline() == b""  # closed, cleanly
                sender.join(timeout=10.0)
                assert not sender.is_alive()
            assert server.thread.is_alive()
            with ServiceClient("127.0.0.1", server.port) as client:
                assert client.status()["time_s"] == 0.0
                client.stop()

    @pytest.mark.parametrize("newline_already_buffered", [True, False])
    def test_overlong_line_is_skipped_exactly(self,
                                              newline_already_buffered):
        """Whether the over-long line's newline is in the buffer when the
        limit trips or arrives later, exactly that line is discarded."""
        from repro.service.server import _read_line

        async def scenario():
            reader = asyncio.StreamReader(limit=64)
            rest = b"x" * 500 + b"\n" + b"next\n"
            reader.feed_data(b"x" * 500)
            if newline_already_buffered:
                reader.feed_data(rest)
            task = asyncio.ensure_future(_read_line(reader))
            await asyncio.sleep(0)
            if not newline_already_buffered:
                reader.feed_data(rest)
            reader.feed_eof()
            with pytest.raises(ServiceError, match="exceeds"):
                await task
            return [await _read_line(reader), await _read_line(reader)]

        assert asyncio.run(scenario()) == [b"next\n", b""]

    def test_live_mutation_over_the_wire(self):
        service = _make_service("packet")
        extra = _small_workload(seed=51, start_s=2.0, horizon_s=4.0)
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                client.advance(1)
                handle = client.command(
                    "attach_workload",
                    workload=extra.as_dict())["handle"]
                injected = client.command("inject_fault", events=[
                    FaultEvent.satellite_outage(3, 5.0, 8.0).as_dict(),
                ])["injected"]
                assert injected == 1
                detached = client.command("detach_workload",
                                          handle=handle)
                assert detached["handle"] == handle
                client.command("run_to_horizon")
                assert client.status()["done"]
                client.stop()

    def test_out_of_range_isl_injection_is_refused(self):
        """A wire ``inject_fault`` naming an ISL endpoint beyond the
        constellation used to be accepted and never matched a link."""
        service = _make_service("packet")
        beyond = service.network.num_satellites + 5
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceClientError,
                                   match="ValueError.*endpoint out of "
                                         "range"):
                    client.command("inject_fault", events=[
                        FaultEvent.isl_cut(0, beyond, 5.0, 8.0).as_dict()])
                assert client.status()["time_s"] == 0.0
                assert service.network.faults is None
                client.stop()

    def test_paced_server_advances_by_itself(self):
        service = _make_service("packet")
        with _ServerThread(service, pace=50.0) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                deadline = 30.0
                import time
                start = time.monotonic()
                while (client.status()["time_s"] < 2.0
                       and time.monotonic() - start < deadline):
                    time.sleep(0.05)
                assert client.status()["time_s"] >= 2.0
                client.stop()

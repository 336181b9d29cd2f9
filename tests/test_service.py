"""The live-service determinism contract (`repro.service`).

The backbone guarantee: a simulation checkpointed at an epoch boundary,
restored (in this or any process) by replaying its spec and mutation
log, and advanced to the horizon produces stats, reports, and per-flow
FCT arrays bit-identical to one that never stopped — across the packet
engine and the fluid engines.  Plus the compatibility guards (format,
header fields, spec hash), the tamper and damage checks (log records,
state digest), RNG stream survival through mid-fault-window
checkpoints, live mutation equivalence, and the JSON-over-TCP server.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import pickle
import random
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.constellations.builder import Constellation
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.faults.injector import LinkFaultInjector
from repro.fluid.engine import FluidSimulation
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation
from repro.orbits.shell import Shell
from repro.service import (CHECKPOINT_FORMAT, CheckpointError,
                           CheckpointSpecError, CheckpointVersionError,
                           LiveSimulationService, ServiceClient,
                           ServiceClientError, ServiceError, ServiceServer,
                           load_checkpoint, read_checkpoint_header)
from repro.service.checkpoint import ENGINES
from repro.sweep.spec import NetworkSpec
from repro.topology.gsl import GslPolicy
from repro.topology.network import LeoNetwork
from repro.traffic import FlowRequest, WorkloadSchedule

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


def _union(first: WorkloadSchedule,
           second: WorkloadSchedule) -> WorkloadSchedule:
    """Both schedules' requests as one, with ``first``'s seed."""
    return WorkloadSchedule(first.requests + second.requests,
                            seed=first.seed)


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


def _document(path) -> dict:
    """The JSON document of the checkpoint file at ``path``."""
    return json.loads(path.read_text(encoding="utf-8"))


def _rewrite(path, **fields) -> None:
    """Change some top-level fields of the checkpoint file at ``path``."""
    path.write_text(json.dumps({**_document(path), **fields}),
                    encoding="utf-8")


def _saved(engine: str, path, epochs: int = 0) -> LiveSimulationService:
    """A service advanced ``epochs`` epochs and saved to ``path``."""
    service = _make_service(engine)
    if epochs:
        service.advance_epoch(epochs)
    service.save(str(path))
    return service


def _forbid_building(monkeypatch) -> None:
    """Make reading a spec or building a service fail loudly: the guard
    tests prove a file is refused before either happens."""
    def built(*args, **kwargs):
        raise AssertionError("the checkpoint's spec was read")
    monkeypatch.setattr(NetworkSpec, "from_dict", built)
    monkeypatch.setattr(LiveSimulationService, "__init__", built)


#: Every field a checkpoint document has.
_DOCUMENT_FIELDS = {"format", "engine", "horizon_s", "epoch_s",
                    "link_capacity_bps", "time_s", "meta", "spec_hash",
                    "spec", "log", "state_digest"}


#: Test ids keep the suffix they had while the fluid engine still had a
#: second kernel, so results stay comparable across PRs.
ENGINE_IDS = ["packet-vectorized", "fluid-vectorized"]


# ----------------------------------------------------------------------
# Checkpoint files + compatibility guards
# ----------------------------------------------------------------------

class TestCheckpointContainer:
    """The checkpoint file and every guard of its load (the class keeps
    the name it had while a container class existed, and several tests
    the names they had while the body was a pickle, so test ids are
    stable)."""

    def test_header_round_trip(self, tmp_path):
        service = _make_service("packet")
        service.advance_to(3.5)
        path = tmp_path / "c.ckpt"
        header = service.save(str(path), meta={"note": "hello"})
        assert header["format"] == CHECKPOINT_FORMAT
        assert header["spec_hash"] == service.initial_spec.fingerprint()
        assert header["time_s"] == 3.5
        assert (header["horizon_s"], header["epoch_s"]) == (HORIZON_S,
                                                            EPOCH_S)
        assert header["meta"] == {"note": "hello"}
        assert header["state_digest"] == service.state_digest()
        # One JSON document: the header plus the spec and the log.
        document = _document(path)
        assert set(document) == _DOCUMENT_FIELDS
        assert document["spec"] == service.initial_spec.as_dict()
        assert document["log"] == []
        # The header reads back without building anything.
        assert read_checkpoint_header(str(path)) == header
        loaded = load_checkpoint(str(path))
        assert isinstance(loaded, LiveSimulationService)
        assert (loaded.engine, loaded.clock_s) == ("packet", 3.5)
        assert loaded.initial_spec.fingerprint() == header["spec_hash"]
        assert loaded.meta == {"note": "hello"}

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "c.ckpt"
        service = _saved("packet", path)
        good = path.read_bytes()
        service.advance_epoch(1)
        with pytest.raises(TypeError, match="not JSON serializable"):
            service.save(str(path), meta={"handle": object()})
        assert path.read_bytes() == good
        assert [entry.name for entry in tmp_path.iterdir()] == ["c.ckpt"]

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            read_checkpoint_header(str(path))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_version_mismatch_fails_clearly(self, tmp_path):
        path = tmp_path / "future.ckpt"
        _saved("packet", path)
        _rewrite(path, format="repro-service-replay/2")
        for read in (load_checkpoint, read_checkpoint_header):
            with pytest.raises(CheckpointVersionError,
                               match="is not this build's"):
                read(str(path))
        # The file itself stays plain JSON for forensics.
        assert _document(path)["format"] == "repro-service-replay/2"

    @pytest.mark.parametrize("case", ["v13-pickle", "other-format",
                                      "no-format"])
    def test_foreign_format_is_refused(self, tmp_path, monkeypatch, case):
        """A pickled checkpoint of the last build that wrote them (magic,
        length-prefixed JSON header, pickle body), a document of another
        format, and one with no format are refused before anything is
        built; each older pickle format (v1-v12) was a case of the
        first."""
        path = tmp_path / f"{case}.ckpt"
        _saved("packet", path, epochs=1)
        document = _document(path)
        if case == "v13-pickle":
            header = json.dumps({"format_version": 13, "engine": "packet",
                                 "time_s": 1.0, "meta": {}}).encode()
            path.write_bytes(b"REPRO-CKPT\n" + len(header).to_bytes(8, "big")
                             + header + b"\x80\x04N.")
            error, message = CheckpointError, "not a JSON document"
        elif case == "other-format":
            _rewrite(path, format="repro-service-replay/0")
            error, message = CheckpointVersionError, "is not this build's"
        else:
            del document["format"]
            path.write_text(json.dumps(document), encoding="utf-8")
            error, message = CheckpointError, "no 'format' field"
        _forbid_building(monkeypatch)
        for read in (load_checkpoint, read_checkpoint_header,
                     LiveSimulationService.resume):
            with pytest.raises(error, match=message):
                read(str(path))

    def test_identical_services_write_identical_bytes(self, tmp_path):
        """Two services of each engine, built from one spec in one
        process and advanced to the same epochs, write byte-identical
        checkpoints: no wall-clock time and no process-global id reaches
        the document or its state digest."""
        spec = _small_spec().with_workload(_small_workload())
        for engine in ENGINES:
            services = [LiveSimulationService(spec, engine=engine,
                                              horizon_s=HORIZON_S,
                                              epoch_s=EPOCH_S)
                        for _ in range(2)]
            for epoch in (2.0, 4.0):
                files = []
                for index, service in enumerate(services):
                    service.advance_to(epoch)
                    path = tmp_path / f"{engine}-{epoch}-{index}.ckpt"
                    service.save(str(path))
                    files.append(path.read_bytes())
                assert files[0] == files[1], (engine, epoch)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_encoding_per_save_writes_the_same_bytes(self, tmp_path,
                                                         monkeypatch,
                                                         engine):
        """A save encodes the log once, for the digest and the file, and
        a service fingerprints its spec once; the file and the digest
        are byte for byte what encoding every field afresh gives."""
        if engine == "fluid":
            service = _mutated_service()
        else:
            service = _make_service("packet")
            service.advance_epoch(2)
            service.attach_workload(_small_workload(seed=5, horizon_s=4.0),
                                    shift_to_now=True)
            service.inject_fault(FaultEvent.packet_loss(3.0, 6.0, 0.3,
                                                        gid=1))
            service.advance_to(5.0)
        dumps, fingerprint = json.dumps, NetworkSpec.fingerprint
        encoded, hashed = [], []

        def counting_dumps(value, *args, **kwargs):
            encoded.append(value is service.log)
            return dumps(value, *args, **kwargs)

        def counting_fingerprint(spec):
            hashed.append(spec)
            return fingerprint(spec)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        monkeypatch.setattr(NetworkSpec, "fingerprint", counting_fingerprint)
        headers = [service.save(str(tmp_path / name))
                   for name in ("a.ckpt", "b.ckpt")]
        monkeypatch.undo()
        assert sum(encoded) == 2 and hashed == [service.initial_spec]

        def encode(value):
            return json.dumps(value, sort_keys=True, separators=(",", ":"))

        digest = hashlib.sha256(encode({
            "status": service.status(), "log": service.log,
            "link_capacity_bps": service.link_capacity_bps,
            "handles": sorted(service._attached),
            "packets": (None if service.sim is None
                        else service.sim.stats.as_dict()),
        }).encode("utf-8"))
        if service.state is not None:
            digest.update(service.state.residual_bits.tobytes())
        digest.update(service.fct_values().tobytes())
        assert headers[1]["state_digest"] == digest.hexdigest() \
            == service.state_digest()
        assert headers[0] == headers[1]
        expected = (encode({**headers[1], "log": service.log})[:-1]
                    + ',"spec":' + encode(service.initial_spec.as_dict())
                    + "}")
        for name in ("a.ckpt", "b.ckpt"):
            assert (tmp_path / name).read_text() == expected

    def test_fluid_checkpoint_holds_no_router_state(self, tmp_path):
        """A checkpoint holds the spec, the mutation log and scalars: no
        router cache, snapshot or engine array reaches the file.  (A
        pickled fluid service once held its router's last
        ``TopologySnapshot``; that file was 33 698 bytes.)  The restored
        service's router is the replay's own, and resumes
        bit-identically (``TestRoundTripDeterminism``)."""
        service = _make_service("fluid")
        service.advance_epoch(4)
        path = tmp_path / "fluid.ckpt"
        service.save(str(path))
        document = _document(path)
        assert set(document) == _DOCUMENT_FIELDS
        assert document["log"] == []
        assert path.stat().st_size <= 33_698
        restored = LiveSimulationService.resume(str(path))
        assert np.array_equal(restored.state.residual_bits,
                              service.state.residual_bits)

    @pytest.mark.parametrize("field,value", [
        ("engine", "bogus"), ("engine", "aimd"), ("time_s", "abc"),
        ("time_s", None), ("meta", [1, 2]), ("horizon_s", 0.0),
        ("epoch_s", 2), ("link_capacity_bps", -1.0), ("spec_hash", None),
        ("state_digest", 7)],
        ids=["engine-bogus", "engine-aimd", "time_s-abc", "time_s-null",
             "meta-list", "horizon_s-zero", "epoch_s-int",
             "link_capacity_bps-negative", "spec_hash-null",
             "state_digest-int"])
    def test_malformed_header_field_is_refused_before_unpickling(
            self, tmp_path, monkeypatch, field, value):
        """One patched header field of a valid checkpoint is refused,
        naming it, before the spec is read or anything is built (the
        name is the one the test had while the body was a pickle)."""
        path = tmp_path / "patched.ckpt"
        _saved("packet", path, epochs=1)
        _rewrite(path, **{field: value})
        _forbid_building(monkeypatch)
        for read in (load_checkpoint, read_checkpoint_header):
            with pytest.raises(CheckpointError, match=f"field '{field}'"):
                read(str(path))

    @pytest.mark.parametrize("damage,message", [
        (lambda whole: whole[:len(whole) // 2], "not a JSON document"),
        (lambda whole: b"", "not a JSON document"),
        (lambda whole: whole[:-1], "not a JSON document"),
        (lambda whole: b"{oops", "not a JSON document"),
        (lambda whole: b"\xff" + whole, "not a JSON document"),
        (lambda whole: b"[]", "no 'format' field"),
    ], ids=["length-cut", "length-zero", "header-cut", "header-not-json",
            "header-not-utf8", "header-not-object"])
    def test_damaged_header_is_refused_before_unpickling(
            self, tmp_path, monkeypatch, damage, message):
        """Each way the document can be cut or garbled is a
        ``CheckpointError`` naming it, before anything is built."""
        path = tmp_path / "damaged.ckpt"
        _saved("packet", path)
        path.write_bytes(damage(path.read_bytes()))
        _forbid_building(monkeypatch)
        for read in (load_checkpoint, read_checkpoint_header):
            with pytest.raises(CheckpointError, match=message):
                read(str(path))

    def test_spec_mismatch_fails_clearly(self, tmp_path):
        path = tmp_path / "spec.ckpt"
        spec = _saved("packet", path).initial_spec
        other = spec.with_workload(_small_workload(seed=99))
        with pytest.raises(CheckpointSpecError,
                           match="different network spec"):
            load_checkpoint(str(path), expected_spec=other)
        # The matching spec passes the same gate.
        load_checkpoint(str(path), expected_spec=spec)

    def test_loads_checkpoint_written_with_kernel_key(self, tmp_path):
        """Builds that still had a second fluid kernel stamped ``kernel``
        into their checkpoint headers.  A top-level key this build does
        not read, that one say, is carried in the header and changes
        nothing: the file resumes bit-identically."""
        baseline = _make_service("fluid")
        baseline.run_to_horizon()

        path = tmp_path / "legacy.ckpt"
        _saved("fluid", path, epochs=5)
        _rewrite(path, kernel="reference")

        assert read_checkpoint_header(str(path))["kernel"] == "reference"
        restored = LiveSimulationService.resume(str(path))
        assert restored.clock_s == 5.0
        assert "kernel" not in restored.status()
        restored.run_to_horizon()
        assert _report_json(restored) == _report_json(baseline)

    def test_truncated_body_fails_clearly(self, tmp_path):
        """A file cut short anywhere is not a JSON document (a cut pickle
        body used to surface as a raw ``EOFError`` /
        ``UnpicklingError``)."""
        path = tmp_path / "cut.ckpt"
        _saved("packet", path)
        whole = path.read_bytes()
        for keep in (len(whole) - 1, len(whole) - 4000):
            path.write_bytes(whole[:keep])
            for read in (load_checkpoint, read_checkpoint_header):
                with pytest.raises(CheckpointError,
                                   match="not a JSON document"):
                    read(str(path))
    def test_spec_fingerprint_is_content_hash(self):
        assert _small_spec().fingerprint() == _small_spec().fingerprint()
        with_faults = _small_spec(faults=FaultSchedule(
            [FaultEvent.satellite_outage(3, 2.0, 5.0)], seed=1))
        assert with_faults.fingerprint() != _small_spec().fingerprint()

    def test_fingerprint_of_a_fixed_spec_is_pinned(self):
        """Workload + faults (rain included), pinned since format v9 — the
        explicit field record plus packed request arrays: checkpoints of
        one build must keep passing the spec gate of the next."""
        rain = FaultSchedule([FaultEvent.gsl_attenuation(2, 1.0, 6.0, 12.5)])
        spec = _small_spec(faults=_FAULTS.merged(rain)).with_workload(
            _small_workload())
        assert spec.fingerprint() == (
            "d432eca9560f03ee1b0ff90280ca3364"
            "4bfc4a7b328b5f7a302f09982c02bb3c")

    def test_header_hash_is_checked_against_the_pickled_spec(self,
                                                             tmp_path):
        """The load recomputes ``spec_hash`` from the document's spec, so
        a wrong hash, or a spec edited under the right one, cannot slip
        through (the name is the one the test had while the spec came
        from a pickle)."""
        path = tmp_path / "tampered.ckpt"
        for engine in ("packet", "fluid"):
            _saved(engine, path)
            _rewrite(path, spec_hash="0" * 64)
            with pytest.raises(CheckpointSpecError,
                               match="corrupt or tampered"):
                load_checkpoint(str(path))
        _saved("fluid", path)
        spec = _document(path)["spec"]
        spec["ground_stations"][2]["name"] = "Atlantis"
        _rewrite(path, spec=spec)
        with pytest.raises(CheckpointSpecError, match="corrupt or tampered"):
            LiveSimulationService.resume(str(path))
        with pytest.raises(TypeError):  # the check has no off switch
            load_checkpoint(str(path), check_spec=False)


#: An ISL cut, a lossy uplink and a satellite outage inside the horizon.
_FAULTS = FaultSchedule([
    FaultEvent.isl_cut(35, 34, 3.0, 9.0),
    FaultEvent.packet_loss(5.0, 12.0, 0.4, gid=1),
    FaultEvent.satellite_outage(7, 2.0, 4.5)], seed=3)


def _changed(value):
    """A different value of ``value``'s type (a dataclass: its first
    field changed)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.25
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return tuple(_changed(item) for item in value)
    first = dataclasses.fields(value)[0].name
    return dataclasses.replace(
        value, **{first: _changed(getattr(value, first))})


#: One fault event of every kind, every target shape among them.
_EVERY_KIND = (
    FaultEvent.satellite_outage(7, 2.0, 4.5),
    FaultEvent.isl_cut(34, 35, 3.0, 9.0),
    FaultEvent.gsl_cut(0, 1.0, 2.0),
    FaultEvent.gsl_attenuation(2, 1.0, 6.0, 12.5),
    FaultEvent.packet_loss(5.0, 12.0, 0.4, gid=1),
)

#: The last request of the workload, staying last when its start moves;
#: its endpoints stay distinct when either is changed.
_PROBE = FlowRequest(t_start_s=100.0, src_gid=0, dst_gid=2,
                     size_bytes=50_000)

#: Builds a spec with faults and a workload, prints its fingerprint.
_FINGERPRINT_SCRIPT = """
from repro.constellations.builder import Constellation
from repro.faults import FaultEvent, FaultSchedule
from repro.ground.stations import ground_stations_from_cities
from repro.orbits.shell import Shell
from repro.sweep.spec import NetworkSpec
from repro.topology.network import LeoNetwork
from repro.traffic import FlowArrivalProcess, TrafficMatrix

faults = FaultSchedule.storms(6, 10.0, seed=2, probability=0.5).merged(
    FaultSchedule([FaultEvent.isl_cut(3, 4, 1.0, 5.0),
                   FaultEvent.satellite_outage(9, 0.0, float("inf"))]))
network = LeoNetwork(
    Constellation([Shell("X1", 8, 8, 600_000.0, 53.0)]),
    ground_stations_from_cities(count=6), min_elevation_deg=10.0,
    faults=faults)
workload = FlowArrivalProcess(
    TrafficMatrix.gravity(count=6, total_offered_bps=1e8),
    seed=4).generate(10.0)
spec = NetworkSpec.from_network(network).with_workload(workload)
print(spec.fingerprint())
"""


class TestSpecFingerprint:
    """``NetworkSpec.fingerprint`` hashes an explicit record of the
    spec's fields, so these tests stand in for the coverage a reflective
    hash gave for free: a field the record leaves out fails them."""

    @staticmethod
    def _spec(probe=_PROBE):
        """A spec with every field set; ``probe`` is its last request."""
        spec = _small_spec(faults=FaultSchedule(_EVERY_KIND, seed=3))
        workload = _small_workload()
        return spec.with_workload(WorkloadSchedule(
            workload.requests + (probe,), seed=workload.seed))

    def test_every_spec_field_reaches_the_fingerprint(self):
        spec = self._spec()
        shell = spec.shells[0]
        variants = {
            "shells": (shell, dataclasses.replace(shell, name="X2")),
            "epoch_offset_s": spec.epoch_offset_s + 1.0,
            "ground_stations": spec.ground_stations[:-1],
            "min_elevation_deg": spec.min_elevation_deg + 1.0,
            "isl_builder": "single_ring",
            "gsl_policy": GslPolicy.NEAREST_ONLY,
            "faults": None,
            "workload": None,
        }
        base = spec.fingerprint()
        for field in dataclasses.fields(NetworkSpec):
            changed = dataclasses.replace(
                spec, **{field.name: variants[field.name]})
            assert changed.fingerprint() != base, field.name

    def test_every_shell_and_station_field_reaches_the_fingerprint(self):
        spec = self._spec()
        base = spec.fingerprint()
        shell, station = spec.shells[0], spec.ground_stations[0]
        for field in dataclasses.fields(Shell):
            changed = dataclasses.replace(
                shell, **{field.name: _changed(getattr(shell, field.name))})
            assert dataclasses.replace(spec, shells=(changed,)) \
                .fingerprint() != base, field.name
        position = station.position
        changed_stations = [
            (field.name, dataclasses.replace(station, **{
                field.name: _changed(getattr(station, field.name))}))
            for field in dataclasses.fields(GroundStation) if field.compare
        ] + [
            (field.name, dataclasses.replace(station, position=(
                dataclasses.replace(position, **{
                    field.name: _changed(getattr(position, field.name))}))))
            for field in dataclasses.fields(GeodeticPosition)]
        for name, changed in changed_stations:
            stations = (changed,) + spec.ground_stations[1:]
            assert dataclasses.replace(spec, ground_stations=stations) \
                .fingerprint() != base, name

    def test_every_request_field_and_both_seeds_reach_the_fingerprint(self):
        spec = self._spec()
        base = spec.fingerprint()
        for field in dataclasses.fields(FlowRequest):
            changed = dataclasses.replace(_PROBE, **{
                field.name: _changed(getattr(_PROBE, field.name))})
            assert self._spec(probe=changed).fingerprint() != base, \
                field.name
        faults, workload = spec.faults, spec.workload
        reseeded = [
            dataclasses.replace(spec, faults=FaultSchedule(
                faults.events, seed=faults.seed + 1)),
            spec.with_workload(WorkloadSchedule(
                workload.requests, seed=workload.seed + 1)),
        ]
        for changed in reseeded:
            assert changed.fingerprint() != base

    def test_every_fault_field_in_as_dict_reaches_the_fingerprint(self):
        """Per kind, each field its ``as_dict`` records; a field no
        kind records would be one the fingerprint never sees."""
        spec = self._spec()
        base = spec.fingerprint()
        covered = set()
        for event in _EVERY_KIND:
            others = [other for other in _EVERY_KIND if other is not event]
            for field in dataclasses.fields(FaultEvent):
                if field.name not in event.as_dict():
                    continue
                if field.name == "kind":
                    candidates = [{"kind": kind} for kind in FaultKind
                                  if kind is not event.kind]
                else:
                    candidates = [{field.name: _changed(
                        getattr(event, field.name))}]
                for change in candidates:
                    try:
                        changed = dataclasses.replace(event, **change)
                    except ValueError:
                        continue  # no such event of this kind
                    faults = FaultSchedule(others + [changed], seed=3)
                    assert dataclasses.replace(spec, faults=faults) \
                        .fingerprint() != base, (event.kind, field.name)
                    covered.add(field.name)
                    break
        assert covered == {field.name
                           for field in dataclasses.fields(FaultEvent)}

    def test_spec_round_trips_through_json(self):
        """``from_dict(as_dict())`` through JSON text is the same spec,
        every field set; the relay flag and a fault at ``inf`` included."""
        spec = self._spec()
        spec = dataclasses.replace(spec, ground_stations=spec.ground_stations
                                   + (dataclasses.replace(
                                       spec.ground_stations[0], gid=6,
                                       is_relay=True),),
                                   faults=spec.faults.merged(FaultSchedule(
                                       [FaultEvent.satellite_outage(
                                           9, 0.0, float("inf"))])))
        for spec in (spec, _small_spec()):
            clone = NetworkSpec.from_dict(json.loads(json.dumps(
                spec.as_dict())))
            assert clone == spec
            assert clone.fingerprint() == spec.fingerprint()

    @pytest.mark.parametrize("edit, complaint", [
        (dict.clear, "a network spec has no 'shells' field"),
        (lambda record: record.pop("faults"),
         "a network spec has no 'faults' field"),
        (lambda record: record["shells"][0].pop("altitude_m"),
         "shells[0]: a shell has no 'altitude_m' field"),
        (lambda record: record["ground_stations"][2].update(
            latitude_deg=None),
         "ground_stations[2]: latitude_deg must be a number"),
        (lambda record: record["faults"]["events"][1].pop("end_s"),
         "events[1]: a fault event has no 'end_s' field"),
        (lambda record: record["workload"]["flows"][3].pop("src_gid"),
         "flows[3]: a flow request has no 'src_gid' field"),
        (lambda record: record.update(isl_builder=["plus_grid"]),
         "isl_builder must be a name"),
    ], ids=["empty", "no-faults", "no-altitude", "null-latitude",
            "event-without-end", "flow-without-source", "builder-a-list"])
    def test_spec_from_dict_names_the_field(self, edit, complaint):
        """``from_dict({})`` raised ``KeyError: 'faults'`` and
        ``from_dict([])`` a ``TypeError``; the checkpoint loader wrapped
        both, so only the message was wrong."""
        record = json.loads(json.dumps(self._spec().as_dict()))
        edit(record)
        with pytest.raises(ValueError, match=re.escape(complaint)):
            NetworkSpec.from_dict(record)
        with pytest.raises(ValueError,
                           match="a network spec must be a JSON object"):
            NetworkSpec.from_dict([])

    def test_fingerprint_is_process_independent(self):
        """Equal in processes with different ``PYTHONHASHSEED``s, equal
        to this process's, and unchanged by the pickle round trip a
        parallel sweep gives its spec."""
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        printed = set()
        for hash_seed in ("0", "1"):
            env["PYTHONHASHSEED"] = hash_seed
            result = subprocess.run(
                [sys.executable, "-c", _FINGERPRINT_SCRIPT], env=env,
                capture_output=True, text=True, timeout=120, check=True)
            printed.add(result.stdout.strip())
        here = []
        scope = {"print": here.append}
        exec(_FINGERPRINT_SCRIPT, scope)
        spec = scope["spec"]
        assert len(spec.faults) > 1 and len(spec.workload) > 0
        assert printed == set(here)
        assert pickle.loads(pickle.dumps(spec)).fingerprint() == \
            spec.fingerprint()

    def test_mutations_leave_the_stamped_spec_alone(self, tmp_path):
        """``inject_fault`` and ``attach_workload`` only append to the
        log: every checkpoint, and a restored service's, stamps the spec
        the service was built from."""
        service = _make_service("fluid")
        initial = service.initial_spec.fingerprint()

        def stamped():
            return service.save(str(tmp_path / "x.ckpt"))["spec_hash"]

        service.advance_epoch(2)
        assert stamped() == initial
        service.inject_fault(FaultEvent.satellite_outage(3, 4.0, 6.0))
        service.attach_workload(_small_workload(seed=5, start_s=3.0,
                                                horizon_s=6.0))
        assert stamped() == initial
        assert [entry[1] for entry in service.log] == [
            "inject_fault", "attach_workload"]
        restored = _round_trip(service, tmp_path / "a.ckpt")
        assert restored.initial_spec.fingerprint() == initial
        assert restored.log == service.log
        header = restored.save(str(tmp_path / "b.ckpt"))
        assert header["spec_hash"] == initial

    def test_faulted_fluid_steps_leave_the_fingerprint_alone(self):
        """The engine evaluates the spec's own schedule object every
        step; doing so must not change any later checkpoint's
        ``spec_hash``."""
        service = _make_service("fluid", faults=_FAULTS)
        assert service.network.fault_view is service.initial_spec.faults
        before = service.initial_spec.fingerprint()
        service.advance_epoch(6)
        assert service.state.next_index == 6
        assert service.initial_spec.fingerprint() == before

# ----------------------------------------------------------------------
# A damaged or tampered checkpoint is refused, never misread
# ----------------------------------------------------------------------

def _mutated_service() -> LiveSimulationService:
    """A fluid service at t=5 whose log holds every command: two
    attaches, an injection of two faults, and a detach."""
    service = _make_service("fluid")
    service.advance_epoch(2)
    service.attach_workload(_small_workload(seed=5, horizon_s=4.0),
                            shift_to_now=True)
    service.advance_to(2.5)
    late = service.attach_workload(_small_workload(seed=6, start_s=4.0,
                                                   horizon_s=4.0))
    service.advance_epoch(1)
    service.inject_fault([FaultEvent.satellite_outage(9, 4.0, 8.0),
                          FaultEvent.isl_cut(34, 35, 3.5, 6.0)])
    service.detach_workload(late)
    service.advance_to(5.0)
    return service


_TAMPER: dict = {}


def _tamper_source(tmp_path_factory):
    """``(file bytes, state digest, scratch path)`` of
    :func:`_mutated_service`'s checkpoint, made once."""
    if not _TAMPER:
        directory = tmp_path_factory.mktemp("tamper")
        service = _mutated_service()
        service.save(str(directory / "source.ckpt"))
        _TAMPER.update(whole=(directory / "source.ckpt").read_bytes(),
                       digest=service.state_digest(),
                       path=directory / "tampered.ckpt")
    return _TAMPER["whole"], _TAMPER["digest"], _TAMPER["path"]


def _edit_args(entry) -> None:
    """Change a log entry's argument, keeping it well-formed."""
    command, args = entry[1], entry[2]
    if command == "attach_workload":
        args["flows"][0]["size_bytes"] += 1
    elif command == "detach_workload":
        entry[2] = args - 1
    else:
        args[0]["end_s"] += 1.0


class TestTamperedCheckpoint:
    """Damage to a checkpoint is refused with a :class:`CheckpointError`
    and nothing else: the document's JSON, its header fields and log
    records are checked before anything is built, ``spec_hash`` covers
    the spec, and ``state_digest`` covers the log and the replayed
    state."""

    def test_the_source_round_trips(self, tmp_path_factory):
        whole, digest, path = _tamper_source(tmp_path_factory)
        assert [entry[1] for entry in json.loads(whole)["log"]] == [
            "attach_workload", "attach_workload", "inject_fault",
            "detach_workload"]
        path.write_bytes(whole)
        assert load_checkpoint(str(path)).state_digest() == digest

    @given(damage=st.tuples(st.sampled_from(["flip", "cut"]),
                            st.integers(min_value=0),
                            st.integers(min_value=0, max_value=7)))
    @settings(max_examples=60, deadline=None)
    def test_byte_damage_raises_only_checkpoint_errors(
            self, tmp_path_factory, damage):
        """A bit flip or a cut anywhere is refused; a flip the reader
        cannot tell from the original (a key whose value it defaults)
        restores the same service."""
        whole, digest, path = _tamper_source(tmp_path_factory)
        kind, position, bit = damage
        data = bytearray(whole)
        position %= len(data)
        if kind == "flip":
            data[position] ^= 1 << bit
        else:
            del data[position:]
        path.write_bytes(bytes(data))
        try:
            restored = load_checkpoint(str(path))
        except CheckpointError as error:
            assert str(path) in str(error)
        else:
            assert restored.state_digest() == digest

    @given(edit=st.sampled_from(["drop", "swap", "clock", "args",
                                 "digest"]),
           index=st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_log_and_digest_edits_are_refused(self, tmp_path_factory,
                                              edit, index):
        """A dropped, reordered or edited log entry, or an edited
        ``state_digest``: the spec still hashes right, so each is a
        :class:`CheckpointError` from the log check or the replay, never
        a spec error."""
        whole, _, path = _tamper_source(tmp_path_factory)
        document = json.loads(whole)
        log = document["log"]
        if edit == "drop":
            del log[index]
        elif edit == "swap":
            other = (index + 1) % len(log)
            log[index], log[other] = log[other], log[index]
        elif edit == "clock":
            log[index][0] += 0.25
        elif edit == "args":
            _edit_args(log[index])
        else:
            document["state_digest"] = "0" * 64
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(CheckpointError) as refused:
            load_checkpoint(str(path))
        assert not isinstance(refused.value, CheckpointSpecError)

    @pytest.mark.parametrize("edit", [
        lambda spec: spec.update(min_elevation_deg=11.0),
        lambda spec: spec["ground_stations"][0].update(name="Quitoo"),
        lambda spec: spec["workload"]["flows"][3].update(size_bytes=1),
        lambda spec: spec.update(faults={"seed": 0, "events": []}),
        lambda spec: spec["shells"][0].update(num_orbits="eight"),
    ], ids=["elevation", "station", "flow", "faults", "malformed"])
    def test_edited_spec_raises_a_spec_error(self, tmp_path_factory,
                                             edit):
        whole, _, path = _tamper_source(tmp_path_factory)
        document = json.loads(whole)
        edit(document["spec"])
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(CheckpointSpecError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("record", [
        "attach", [2.0, "attach_workload"], [2.0, "warp", {}],
        ["2.0", "detach_workload", 1], [2, "detach_workload", 1],
        [99.0, "detach_workload", 1], [1.0, "detach_workload", 1],
        [4.0, "attach_workload", []], [4.0, "detach_workload", 1.5],
        [4.0, "inject_fault", {"kind": "isl_cut"}],
        [4.0, "inject_fault", [{"kind": "warp"}]],
    ], ids=["not-a-list", "two-fields", "unknown-command", "clock-text",
            "clock-int", "clock-past-time", "clock-backwards",
            "workload-list", "handle-fraction", "events-object",
            "event-kind"])
    def test_malformed_log_records_are_refused_before_replay(
            self, tmp_path_factory, monkeypatch, record):
        whole, _, path = _tamper_source(tmp_path_factory)
        document = json.loads(whole)
        document["log"].append(record)
        path.write_text(json.dumps(document), encoding="utf-8")

        def built(*args, **kwargs):
            raise AssertionError("a service was built")
        monkeypatch.setattr(LiveSimulationService, "__init__", built)
        with pytest.raises(CheckpointError,
                           match="log entry 4 is malformed"):
            load_checkpoint(str(path))


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

    def test_every_pending_record_kind_round_trips(self, tmp_path):
        """A packet checkpoint taken while tx-finish and arrival records
        (bound method + packet + node fields) and RTO and forwarding
        timers are all pending resumes ≡ never stopping: the replay
        reaches the same pending events by running to the same clock."""
        from repro.cc.lab import lab_network

        spec = lab_network("8x8").with_workload(WorkloadSchedule(
            [FlowRequest(0.0, src, (src + 3) % 6, 5_000_000)
             for src in range(6)], seed=1))

        def service():
            return LiveSimulationService(spec, horizon_s=1.5)

        def outcome(service):
            return json.dumps({
                "report": service.report().as_dict(deterministic=True),
                "devices": [(device.name, device.stats.packets_sent,
                             device.stats.busy_time_s.hex())
                            for device in service.sim.iter_devices()],
            }, sort_keys=True)

        baseline = service()
        baseline.run_to_horizon()
        interrupted = service()
        interrupted.advance_to(0.45)
        pending = {getattr(record[2], "func", record[2]).__name__
                   for record in interrupted.sim.scheduler._queue}
        assert pending >= {"_finish_transmission", "_receive", "_on_rto",
                           "_update"}
        restored = _round_trip(interrupted, tmp_path / "pending.ckpt")
        restored.run_to_horizon()
        assert outcome(restored) == outcome(baseline)
        assert baseline.sim.stats.packets_dropped_queue > 0

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

    def test_aimd_engine_rejected(self):
        """The AIMD fluid model runs long-running flows for Fig. 10
        only; a service names the packet or the max-min engine."""
        with pytest.raises(ServiceError,
                           match="unknown engine 'aimd'.*packet, fluid"):
            _make_service("aimd")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0,
                                     -1.0])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_link_capacity_must_be_finite_and_positive(self, engine, bad):
        """A service used to build, advance and save with any capacity,
        then refuse to resume its own checkpoint (and write NaN as
        non-standard JSON)."""
        with pytest.raises(ServiceError, match="finite and positive"):
            LiveSimulationService(
                _small_spec().with_workload(_small_workload()),
                engine=engine, horizon_s=HORIZON_S, link_capacity_bps=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0,
                                     -1.0])
    def test_horizon_and_epoch_must_be_finite_and_positive(self, bad):
        spec = _small_spec().with_workload(_small_workload())
        for times in ({"horizon_s": bad}, {"epoch_s": bad}):
            with pytest.raises(ServiceError, match="finite and positive"):
                LiveSimulationService(spec, engine="packet", **times)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_advance_to_refuses_a_time_that_is_not_finite(self, engine):
        """``advance_to(nan)`` used to set the clock to NaN, after which
        every ``advance_epoch`` failed to convert it to an integer."""
        service = _make_service(engine)
        service.advance_epoch(1)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ServiceError, match="not finite"):
                service.advance_to(bad)
            assert service.clock_s == EPOCH_S
        assert service.advance_epoch(1)["time_s"] == 2 * EPOCH_S

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
    def test_round_trip_at_any_event_boundary(self, tmp_path_factory,
                                              scenario):
        engine, epoch = scenario
        expected_report, expected_fct = _baseline_outputs(engine)
        service = _make_service(engine)
        service.advance_epoch(epoch)
        restored = _round_trip(
            service, tmp_path_factory.mktemp("boundary") / "b.ckpt")
        restored.run_to_horizon()
        assert _report_json(restored) == expected_report
        assert np.array_equal(restored.fct_values(), expected_fct,
                              equal_nan=True)


# ----------------------------------------------------------------------
# RNG stream positions survive mid-window checkpoints
# ----------------------------------------------------------------------

class TestRngStreamSurvival:
    def test_injector_extend_keeps_draw_sequence(self):
        """Injecting a future window == having baked it in from t=0."""
        e1 = FaultEvent.packet_loss(0.0, 50.0, 0.4, gid=3)
        e2 = FaultEvent.packet_loss(80.0, 90.0, 0.9, gid=3)
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
                [FaultEvent.packet_loss(5.0, 9.0, 0.5, gid=0)],
                now_s=7.0)

    def test_mid_fault_window_checkpoint_round_trip(self, tmp_path):
        """The satellite regression: checkpoint inside an active
        stochastic-loss window; neither the loss RNG nor packet
        outcomes rewind or skip."""
        events = [FaultEvent.packet_loss(2.0, 10.0, 0.2, gid=1),
                  FaultEvent.packet_loss(3.0, 9.0, 0.15, gid=2)]
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


# ----------------------------------------------------------------------
# Live mutation == baked in from t=0
# ----------------------------------------------------------------------

class TestLiveMutation:
    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_attach_workload_equals_baked(self, engine):
        extra = _small_workload(seed=31, start_s=4.0, horizon_s=6.0)
        baked = _make_service(
            engine, workload=_union(_small_workload(), extra))
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

    def test_attach_after_a_resume_gets_fresh_flow_ids(self, tmp_path):
        """The simulator numbers its flows itself and the replay installs
        them again in order, so a workload attached after a resume
        cannot collide with a restored flow — in any process, with no
        restore-time fixup."""
        service = _make_service("packet")
        service.advance_epoch(3)
        restored = _round_trip(service, tmp_path / "c.ckpt")
        before = {flow for _, flow in restored.sim._handlers}
        assert before == {flow for _, flow in service.sim._handlers}
        restored.attach_workload(_small_workload(seed=5, start_s=4.0,
                                                 horizon_s=4.0))
        added = {flow for _, flow in restored.sim._handlers} - before
        assert len(added) == 24
        assert min(added) > max(before)
        restored.run_to_horizon()

    def test_attach_then_checkpoint_round_trip(self, tmp_path):
        """Mutations compose with the checkpoint contract on every
        engine: mutate, checkpoint, restore, mutate again, checkpoint
        the restored service, restore that, finish == mutate and never
        stop."""
        extra = _small_workload(seed=41, start_s=3.0, horizon_s=5.0)
        later = _small_workload(seed=43, start_s=7.0, horizon_s=3.0)
        outage = FaultEvent.satellite_outage(12, 5.0, 8.0)

        def first_half(service):
            service.advance_epoch(2)
            handle = service.attach_workload(extra)
            service.inject_fault(outage)
            service.advance_epoch(4)
            return handle

        def second_half(service, handle):
            service.detach_workload(handle)
            service.attach_workload(later)
            service.advance_epoch(1)

        for engine in ENGINES:
            baseline = _make_service(engine)
            second_half(baseline, first_half(baseline))
            baseline.run_to_horizon()

            interrupted = _make_service(engine)
            handle = first_half(interrupted)
            restored = _round_trip(interrupted, tmp_path / "mutated.ckpt")
            assert restored.log == interrupted.log
            second_half(restored, handle)
            again = _round_trip(restored, tmp_path / "again.ckpt")
            assert len(again.log) == 4
            again.run_to_horizon()
            assert _report_json(again) == _report_json(baseline), engine
            assert np.array_equal(again.fct_values(),
                                  baseline.fct_values()), engine

    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_detach_cancels_only_unstarted_flows(self, engine, tmp_path):
        """Detaching mid-transfer lets the started flow drain and
        complete; only the flow that has not started is cancelled, and
        it is never counted as started."""
        base = WorkloadSchedule([FlowRequest(0.0, 2, 3, 20_000)], seed=0)
        running, future = (FlowRequest(0.5, 0, 1, 1_000_000),
                           FlowRequest(5.0, 1, 0, 200_000))
        service = _make_service(engine, workload=base)
        handle = service.attach_workload(
            WorkloadSchedule([running, future], seed=0))
        service.advance_to(1.0)
        if engine == "packet":
            (spawner,) = service._spawners[1:]
            in_flight, unstarted = spawner.flows
            assert in_flight.snd_nxt > 0
            assert in_flight.completed_at_s is None
        else:
            in_flight, unstarted = 1, 2
            assert 0.0 < service.state.residual_bits[in_flight] < 8e6
        assert service.detach_workload(handle) == {"handle": handle,
                                                   "cancelled": 1}
        restored = _round_trip(service, tmp_path / "detached.ckpt")
        for live in (service, restored):
            live.run_to_horizon()
        assert _report_json(restored) == _report_json(service)
        assert restored.state_digest() == service.state_digest()
        if engine == "packet":
            assert in_flight.completed_at_s is not None
            assert unstarted.snd_nxt == 0
            assert spawner.fcts_s == [in_flight.completed_at_s
                                      - running.t_start_s]
            assert (spawner.started, spawner.active) == (1, 0)
            counters = service.metrics_dict()["counters"]
            assert counters["traffic.flows_started"] == 2.0
            assert counters["traffic.flows_completed"] == 2.0
            series = service.metrics.series("traffic.active_flows")
            assert series.values[-1] == 0.0
        else:
            fct = service.state.fct_s
            assert np.isfinite(fct[in_flight])
            assert service.state.delivered_bits[in_flight] == 8e6
            assert np.isnan(fct[unstarted])
            assert service.state.delivered_bits[unstarted] == 0.0

    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_cancelled_flows_are_not_offered(self, engine, tmp_path):
        """A flow cancelled by a detach counts neither as offered volume
        nor as a finite flow: every flow that was offered completes, so
        the report reads all of the offered bits delivered.  A packet
        report taken before the detach counts the flows started so far,
        in its ``fct`` section and its counter alike."""
        base = WorkloadSchedule([FlowRequest(0.0, 2, 3, 20_000)], seed=0)
        running, future = (FlowRequest(0.5, 0, 1, 1_000_000),
                           FlowRequest(5.0, 1, 0, 200_000))
        service = _make_service(engine, workload=base)
        handle = service.attach_workload(
            WorkloadSchedule([running, future], seed=0))
        service.advance_to(1.0)
        offered = (20_000 + 1_000_000) * 8.0
        if engine == "packet":
            fct = service.report().extras["fct"]
            counters = service.metrics_dict()["counters"]
            assert fct["flows_finite"] == 2
            assert fct["offered_bits"] == offered
            assert counters["traffic.offered_bytes"] == offered / 8.0
        service.detach_workload(handle)
        restored = _round_trip(service, tmp_path / "detached.ckpt")
        for live in (service, restored):
            live.run_to_horizon()
        report = service.report()
        fct = report.extras["fct"]
        assert fct["flows_finite"] == fct["flows_completed"] == 2
        assert fct["offered_bits"] == fct["delivered_bits"] == offered
        assert _report_json(restored) == _report_json(service)
        if engine == "packet":
            counters = service.metrics_dict()["counters"]
            assert counters["traffic.offered_bytes"] == offered / 8.0
        else:
            assert report.summary["flows_finite"] == 2.0
            assert report.summary["offered_load_bps"] == (
                report.summary["delivered_load_bps"])


class TestOutOfRangeGids:
    """A request naming a station the network lacks is refused before
    anything is installed.  It used to be accepted, after which every
    ``advance`` of a fluid session raised (and checkpoints carried the
    request); on the packet engine the requests sorted before the bad
    one ran as flows no status, FCT or report ever showed."""

    #: Six stations: gid 99 does not exist.  The good request sorts
    #: first, so a per-request install would have started it.
    BAD = WorkloadSchedule([FlowRequest(4.0, 0, 1, 30_000),
                            FlowRequest(5.0, 0, 99, 1_000)], seed=5)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rejected_attach_leaves_no_trace(self, engine):
        untouched = _make_service(engine)
        service = _make_service(engine)
        for each in (untouched, service):
            each.advance_epoch(3)
        with pytest.raises(ServiceError, match="outside"):
            service.attach_workload(self.BAD)
        assert service.log == untouched.log == []
        for each in (untouched, service):
            each.advance_epoch(2)  # used to raise on the fluid engines
        assert service.status() == untouched.status()
        for each in (untouched, service):
            each.run_to_horizon()
        assert _report_json(service) == _report_json(untouched)
        assert service.metrics_dict() == untouched.metrics_dict()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_constructor_rejects_it_too(self, engine):
        with pytest.raises(ServiceError, match="outside"):
            _make_service(engine,
                          workload=_union(_small_workload(), self.BAD))

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

    def test_a_refused_flow_size_leaves_checkpoints_working(self, tmp_path):
        """A size past int64 used to be accepted by ``attach_workload``,
        after which every save raised ``OverflowError`` in the spec
        fingerprint.  Now the request itself is refused."""
        huge = {"seed": 0, "flows": [{
            "t_start_s": 5.0, "src_gid": 0, "dst_gid": 1,
            "size_bytes": 2 ** 70}]}
        service = _make_service("fluid")
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                client.advance(2)
                with pytest.raises(ServiceClientError, match="64 bits"):
                    client.command("attach_workload", workload=huge)
                for name in ("a.ckpt", "b.ckpt"):
                    header = client.checkpoint(str(tmp_path / name))
                    assert header["time_s"] == 2.0
                client.stop()
        restored = LiveSimulationService.resume(str(tmp_path / "b.ckpt"))
        assert restored.initial_spec == _make_service("fluid").initial_spec
        assert restored.log == []

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

    def test_deeply_nested_line_is_answered(self):
        """100 000 ``[`` then as many ``]`` fit under ``MAX_LINE_BYTES``,
        and ``json.loads`` raises ``RecursionError`` on them, which used
        to escape the handler: the client saw EOF."""
        from repro.service.server import MAX_LINE_BYTES
        line = b"[" * 100_000 + b"]" * 100_000
        assert len(line) < MAX_LINE_BYTES
        service = _make_service("packet")
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                client._stream.write(line + b"\n")
                client._stream.flush()
                response = json.loads(client._stream.readline())
                assert response["ok"] is False
                assert response["error"].startswith("RecursionError")
                assert client.status()["time_s"] == 0.0
                client.stop()

    @pytest.mark.parametrize("field, command", [
        ("deterministic", {"cmd": "report", "deterministic": "false"}),
        ("include_series", {"cmd": "metrics", "include_series": 0}),
        ("shift_to_now", {"cmd": "attach_workload", "shift_to_now": "no",
                          "workload": _small_workload(seed=3).as_dict()}),
        ("epochs", {"cmd": "advance", "epochs": True}),
    ], ids=["deterministic", "include_series", "shift_to_now", "epochs"])
    def test_a_flag_takes_only_a_json_boolean(self, field, command):
        """``bool(...)`` read ``"deterministic": "false"`` as true, and a
        boolean passed the integer check of ``epochs`` (``true``: one
        epoch).  Each is a ``ServiceError``, and nothing runs."""
        service = _make_service("fluid")
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                fields = dict(command)
                with pytest.raises(ServiceClientError,
                                   match=f"ServiceError: {field} must be"):
                    client.command(fields.pop("cmd"), **fields)
                assert client.status()["time_s"] == 0.0
                client.stop()
        assert service.log == []

    @pytest.mark.parametrize("workload, complaint", [
        ({**_small_workload(seed=3).as_dict(), "seed": 1.5},
         "workload seed must be an integer"),
        ({**_small_workload(seed=3).as_dict(), "seed": True},
         "workload seed must be an integer"),
        ({"flows": 5}, "'flows' must be a list"),
        ({"flows": [1, 2]}, "flow request must be a JSON object"),
        ([], "workload must be a JSON object"),
    ], ids=["fractional-seed", "boolean-seed", "flows-not-a-list",
            "flow-not-an-object", "workload-not-an-object"])
    def test_attach_workload_refuses_a_malformed_payload(self, workload,
                                                         complaint):
        """``int(payload["seed"])`` ran a seed of 1.5 (or ``true``) as 1,
        and a non-list ``flows`` or a non-object record was a
        ``TypeError``.  Each is now a ``ValueError`` naming the field,
        and nothing is attached."""
        service = _make_service("packet")
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceClientError,
                                   match=f"ValueError: .*{complaint}"):
                    client.command("attach_workload", workload=workload)
                assert client.status()["time_s"] == 0.0
                client.stop()
        assert service.log == []

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

    @pytest.mark.parametrize("handle", [1.5, True, "1"],
                             ids=["fraction", "boolean", "string"])
    def test_detach_refuses_a_handle_its_replay_would(self, handle):
        """``int(command["handle"])`` detached workload 1 for each of
        these, while a checkpoint replay refuses the same log entry.
        The server parses with the replay's parser: ``ok: false``,
        nothing detached, nothing logged."""
        service = _make_service("fluid")
        extra = _small_workload(seed=51, start_s=2.0, horizon_s=4.0)
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                assert client.command(
                    "attach_workload", workload=extra.as_dict())[
                        "handle"] == 1
                log = [list(entry) for entry in service.log]
                with pytest.raises(ServiceClientError,
                                   match="ValueError: workload handle "
                                         "must be an integer"):
                    client.command("detach_workload", handle=handle)
                assert service.log == log
                assert client.command("detach_workload",
                                      handle=1)["handle"] == 1
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

    def test_impossible_fault_numbers_are_refused(self):
        """``json`` parses ``NaN``: a NaN window never fired yet was
        answered "injected", and ``"satellite": 3.5`` cut satellite 3's
        GSLs but kept its ISLs.  Each is ``ok: false`` on a connection
        that stays open, and nothing is installed."""
        nan = float("nan")
        service = _make_service("packet")
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                for record in [
                    {"start_s": nan, "end_s": 8.0, "satellite": 3},
                    {"start_s": 5.0, "end_s": nan, "satellite": 3},
                    {"start_s": 5.0, "end_s": 8.0, "satellite": 3.5},
                    {"start_s": 5.0, "end_s": 8.0, "satellite": True},
                ]:
                    with pytest.raises(ServiceClientError,
                                       match="ValueError"):
                        client.command("inject_fault", events=[
                            {"kind": "satellite_outage", **record}])
                with pytest.raises(ServiceClientError, match="ValueError"):
                    client.command("inject_fault", events=[{
                        "kind": "gsl_attenuation", "start_s": 5.0,
                        "end_s": 8.0, "gid": 1,
                        "elevation_penalty_deg": nan}])
                assert client.status()["time_s"] == 0.0
                assert service.network.faults is None
                client.stop()

    def test_non_object_fault_records_are_answered(self):
        """``FaultEvent.from_dict`` read a non-object record with
        ``.get`` and raised ``AttributeError``, which the handler did not
        catch: the connection closed without an answer.  Both lines are
        now answered, and the connection keeps serving."""
        service = _make_service("packet")
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                for events in ([1], "x"):
                    with pytest.raises(ServiceClientError,
                                       match="ValueError: a fault event "
                                             "must be a JSON object"):
                        client.command("inject_fault", events=events)
                assert client.status()["time_s"] == 0.0
                assert service.network.faults is None
                client.stop()

    def test_an_error_family_is_answered_by_its_type(self, monkeypatch):
        """The handler answers whole error families (``LookupError``,
        ``AttributeError``, ...), not only the six types it listed, and
        keeps the connection."""
        service = _make_service("packet")
        status = service.status
        calls = []

        def flaky_status():
            calls.append(None)
            if len(calls) == 1:
                raise LookupError("no such thing")
            return status()

        monkeypatch.setattr(service, "status", flaky_status)
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceClientError,
                                   match="LookupError: no such thing"):
                    client.status()
                assert client.status()["time_s"] == 0.0
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

    def test_pacer_keeps_absolute_deadlines(self, monkeypatch):
        """Epoch k is due k intervals after the pacer started, on a fake
        clock: compute time is absorbed instead of piling up as lag, and
        an epoch that overruns its slot is followed at once."""
        now = [0.0]
        compute_s = [0.1, 0.8, 0.1, 0.1]
        advanced_at = []

        class Paced:
            epoch_s = 1.0

            @property
            def done(self):
                return len(advanced_at) == len(compute_s)

            def advance_epoch(self):
                advanced_at.append(now[0])
                now[0] += compute_s[len(advanced_at) - 1]

        async def fake_sleep(delay):
            assert delay >= 0.0
            now[0] += delay

        async def scenario():
            monkeypatch.setattr(asyncio.get_running_loop(), "time",
                                lambda: now[0])
            monkeypatch.setattr(asyncio, "sleep", fake_sleep)
            await ServiceServer(Paced(), pace=2.0)._pace_epochs()

        asyncio.run(scenario())
        # Slots at 0.5 s intervals; the 0.8 s epoch overran the third.
        assert advanced_at == pytest.approx([0.5, 1.0, 1.8, 2.0])

    def test_fields_a_kind_ignores_are_refused(self):
        """An ISL cut carrying a loss rate, a GSL cut carrying a penalty,
        loss on an ISL and the retired corruption kind are each
        ``ok: false`` on a connection that stays open."""
        service = _make_service("packet")
        window = {"start_s": 5.0, "end_s": 8.0}
        with _ServerThread(service) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                for record, message in [
                    ({"kind": "isl_cut", "isl": [1, 2], "rate": 0.3},
                     "isl_cut carries no rate"),
                    ({"kind": "gsl_cut", "gid": 1,
                      "elevation_penalty_deg": 5.0},
                     "gsl_cut carries no elevation_penalty_deg"),
                    ({"kind": "packet_loss", "isl": [1, 2], "rate": 0.3},
                     "packet_loss cannot target a isl"),
                    ({"kind": "packet_corruption", "gid": 1, "rate": 0.3},
                     "'packet_corruption' is not a valid FaultKind"),
                ]:
                    with pytest.raises(ServiceClientError, match=message):
                        client.command("inject_fault",
                                       events=[{**window, **record}])
                    assert client.status()["time_s"] == 0.0
                assert service.network.faults is None
                client.stop()

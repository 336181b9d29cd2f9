"""Tests for the CLI, TLE file I/O, and GEO support."""

import json
import signal

import numpy as np
import pytest

from repro.cli import main
from repro.constellations.builder import Constellation
from repro.constellations.definitions import (
    GEO_ALTITUDE_M,
    geostationary_belt,
)
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation
from repro.orbits.tle import generate_tle, write_tle_file
from repro.orbits.kepler import KeplerianElements
from repro.routing.engine import RoutingEngine
from repro.topology.network import LeoNetwork

from _orbit_oracle import TLEFormatError, read_tle_file


class _Hung(BaseException):
    """Raised by the alarm; no ``except Exception`` in the CLI eats it."""


def _within(seconds, call):
    """``call()``, failing the test if it has not returned in time."""
    def expire(signum, frame):
        raise _Hung(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestTleFileIo:
    def _tles(self):
        elements = [
            KeplerianElements.circular(600_000.0, 53.0, raan_deg=i * 30.0)
            for i in range(4)
        ]
        return [generate_tle(el, f"sat-{i}", catalog_number=i)
                for i, el in enumerate(elements)]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "constellation.tle"
        tles = self._tles()
        write_tle_file(tles, path)
        loaded = read_tle_file(path)
        assert loaded == tles

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "bad.tle"
        tles = self._tles()
        write_tle_file(tles, path)
        content = path.read_text().splitlines()
        path.write_text("\n".join(content[:-1]) + "\n")
        with pytest.raises(TLEFormatError):
            read_tle_file(path)

    def test_rejects_corrupted_checksum(self, tmp_path):
        path = tmp_path / "bad.tle"
        tles = self._tles()
        write_tle_file(tles, path)
        content = path.read_text()
        # Flip a digit inside the first line-2 inclination field.
        corrupted = content.replace(" 53.0000", " 54.0000", 1)
        path.write_text(corrupted)
        with pytest.raises(TLEFormatError):
            read_tle_file(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "spaced.tle"
        tles = self._tles()[:1]
        path.write_text("\n" + "\n\n".join(tles[0].as_lines()) + "\n\n")
        assert read_tle_file(path) == tles


class TestGeoSupport:
    def test_belt_stationary_in_ecef(self):
        belt = Constellation([geostationary_belt(4)])
        p0 = belt.positions_ecef_m(0.0)
        p1 = belt.positions_ecef_m(1800.0)
        # Two-body GEO drifts only meters per hour in ECEF.
        drift = np.linalg.norm(p1 - p0, axis=1)
        assert (drift < 50.0).all()

    def test_geo_radius(self):
        belt = Constellation([geostationary_belt(1)])
        radius = np.linalg.norm(belt.positions_ecef_m(0.0)[0])
        assert radius == pytest.approx(42_164_000, rel=0.001)

    def test_geo_latency_hundreds_of_ms(self):
        """Paper §2.4: GEO bent-pipe connections incur hundreds of ms."""
        belt = Constellation([geostationary_belt(6)])
        stations = [
            GroundStation(0, "quito", GeodeticPosition(0.0, -78.5)),
            GroundStation(1, "manaus", GeodeticPosition(-3.1, -60.0)),
        ]
        network = LeoNetwork(belt, stations, min_elevation_deg=10.0,
                             isl_builder="none")
        engine = RoutingEngine(network)
        rtt = engine.pair_rtt_s(network.snapshot(0.0), 0, 1)
        assert np.isfinite(rtt)
        assert rtt > 0.4  # ~2 x (up + down) at 35,786 km

    def test_validation(self):
        with pytest.raises(ValueError):
            geostationary_belt(0)

    def test_altitude_constant(self):
        assert GEO_ALTITUDE_M == 35_786_000.0


class TestCli:
    def test_info_table(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Starlink" in out and "Telesat" in out
        assert "4409" in out

    def test_info_single_shell(self, capsys):
        assert main(["info", "T1"]) == 0
        out = capsys.readouterr().out
        assert "98.98" in out

    def test_rtt_command(self, capsys):
        assert main(["rtt", "K1", "Manila", "Dalian",
                     "--duration", "4", "--step", "2"]) == 0
        out = capsys.readouterr().out
        assert "RTT min/median/max" in out
        assert "connected" in out

    def test_tles_command(self, tmp_path, capsys):
        output = tmp_path / "t1.tle"
        assert main(["tles", "T1", "-o", str(output)]) == 0
        loaded = read_tle_file(output)
        assert len(loaded) == 351

    def test_czml_command(self, tmp_path, capsys):
        import json
        output = tmp_path / "t1.czml"
        assert main(["czml", "T1", "-o", str(output),
                     "--duration", "60", "--step", "30"]) == 0
        document = json.loads(output.read_text())
        assert len(document) == 1 + 351

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    def test_packet_report_traces_only_when_asked(self, traced, tmp_path,
                                                  monkeypatch, capsys):
        """A packet report used to run under a ring-buffer tracer with or
        without ``--trace``; now only ``--trace`` installs one."""
        from repro.core.hypatia import Hypatia
        from repro.obs import NULL_TRACER

        built = []
        build = Hypatia.build_packet_simulator

        def recording(self, **kwargs):
            built.append(build(self, **kwargs))
            return built[-1]

        monkeypatch.setattr(Hypatia, "build_packet_simulator", recording)
        report, trace = tmp_path / "report.json", tmp_path / "trace.jsonl"
        argv = ["report", "T1", "Manila", "Dalian", "--duration", "0.2",
                "-o", str(report)]
        assert main(argv + (["--trace", str(trace)] if traced else [])) == 0
        (sim,) = built
        document = json.loads(report.read_text())
        if not traced:
            assert sim.tracer is NULL_TRACER
            assert "trace" not in document
            assert not trace.exists()
            return
        retained = document["trace"]["retained"]
        assert retained > 0
        assert len(trace.read_text().splitlines()) == retained
        assert (f"wrote {retained} trace events to {trace}"
                in capsys.readouterr().out)

    def test_sky_command(self, capsys):
        assert main(["sky", "K1", "Saint Petersburg", "--time", "0"]) == 0
        out = capsys.readouterr().out
        assert "above horizon" in out

    def test_unknown_shell_errors(self, capsys):
        assert main(["info", "Z9"]) == 2
        assert "unknown shell" in capsys.readouterr().err

    def test_usage_errors_print_without_repr_quotes(self, capsys):
        """A ``KeyError`` formats as the repr of its message."""
        assert main(["info", "XX"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown shell 'XX'")
        assert main(["report", "K1"]) == 2
        assert capsys.readouterr().err.startswith("error: report needs")

    @pytest.mark.parametrize("argv", [
        ["rtt", "K1", "Paris", "Paris"],
        ["rtt", "K1", "Manila", "Dalian", "--step", "0"],
        ["sweep", "K1", "--cities", "1"],
        ["faults", "K1", "-o", "faults.json", "--sat-outage-prob", "2"],
        ["faults", "K1", "-o", "faults.json", "--mean-duration", "0"],
        ["faults", "K1", "-o", "faults.json", "--duration", "-5"],
        ["traffic", "-o", "workload.json", "--cities", "1"],
        ["cc-lab", "--duration", "0"],
        ["cc-lab", "--workers", "-3"],
        ["sky", "K1", "Paris", "--time", "nan"],
        ["report", "K1", "Manila", "Dalian", "--duration", "-1"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_bad_numbers_are_usage_errors(self, argv, capsys, tmp_path,
                                          monkeypatch):
        """A command's ``ValueError`` used to escape as a traceback."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,payload,complaint", [
        (["report", "K1", "--engine", "fluid", "--workload", "s.json"],
         {"flows": [1, 2]}, "must be a JSON object"),
        (["report", "K1", "--engine", "fluid", "--workload", "s.json"],
         {"flows": 5}, "must be a list"),
        (["report", "K1", "--engine", "fluid", "--workload", "s.json"],
         [{"flows": []}], "must be a JSON object"),
        (["report", "K1", "--engine", "fluid", "--workload", "s.json"],
         {"flows": [], "seed": 2.5}, "seed must be an integer"),
        (["sweep", "K1", "--cities", "5", "--duration", "2",
          "--faults", "s.json"], {"events": 7}, "must be a list"),
        (["sweep", "K1", "--cities", "5", "--duration", "2",
          "--faults", "s.json"], "events", "must be a JSON object"),
        (["report", "K1", "Manila", "Dalian", "--duration", "1",
          "--faults", "s.json"], {"events": [], "seed": 1.5},
         "seed must be an integer"),
        (["report", "K1", "Manila", "Dalian", "--duration", "1",
          "--faults", "s.json"], {"events": [], "seed": True},
         "seed must be an integer"),
        (["report", "K1", "Manila", "Dalian", "--duration", "1",
          "--faults", "s.json"], {"events": [{}]},
         "events[0]: a fault event has no 'kind' field"),
        (["report", "K1", "Manila", "Dalian", "--duration", "1",
          "--faults", "s.json"],
         {"events": [{"kind": "gsl_cut", "gid": 0, "start_s": 0.0,
                      "end_s": 1.0},
                     {"kind": "isl_cut", "isl": [1, 2], "end_s": 3.0}]},
         "events[1]: a fault event has no 'start_s' field"),
    ], ids=["flows-not-objects", "flows-not-a-list", "workload-not-object",
            "fractional-workload-seed", "events-not-a-list",
            "faults-not-object", "fractional-fault-seed", "boolean-seed",
            "event-without-kind", "event-without-start"])
    def test_malformed_schedule_files_are_usage_errors(
            self, argv, payload, complaint, capsys, tmp_path, monkeypatch):
        """Each used to escape as a ``TypeError`` traceback (exit 1), or
        — a fractional or boolean seed — to run with the seed
        truncated.  An event without a field printed only the bare
        ``KeyError`` key (``error: start_s``)."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_text(json.dumps(payload))
        assert _within(30, lambda: main(argv)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert complaint in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["rtt", "K1", "Manila", "Dalian", "--duration", "inf"],
        ["rtt", "K1", "Manila", "Dalian", "--duration", "nan"],
        ["rtt", "K1", "Manila", "Dalian", "--step", "nan"],
        ["traffic", "-o", "workload.json", "--duration", "inf"],
        ["traffic", "-o", "workload.json", "--mean-size", "nan"],
        ["traffic", "-o", "workload.json", "--distance-exponent", "nan"],
        ["report", "K1", "Manila", "Dalian", "--duration", "inf"],
        ["report", "K1", "Manila", "Dalian", "--duration", "nan"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_non_finite_numbers_are_usage_errors(self, argv, capsys,
                                                 tmp_path, monkeypatch):
        """An infinite duration used to overflow (``rtt``) or loop
        forever (``traffic``, the packet ``report``); a NaN one slipped
        past ``<= 0`` checks (a NaN distance exponent wrote a
        population-only workload)."""
        monkeypatch.chdir(tmp_path)
        assert _within(30, lambda: main(argv)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "finite" in captured.err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["checkpoint", "K1", "--horizon", "nan"],
        ["checkpoint", "K1", "--horizon", "inf"],
        ["checkpoint", "K1", "--epoch", "nan"],
        ["checkpoint", "K1", "--epoch", "inf"],
        ["checkpoint", "K1", "--at", "nan"],
        ["checkpoint", "K1", "--at", "inf"],
        ["serve", "K1", "--horizon", "nan", "--port", "0"],
        ["serve", "K1", "--port", "0", "--pace", "nan"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_non_finite_service_times_are_refused(self, argv, capsys,
                                                  tmp_path, monkeypatch):
        """A NaN horizon, epoch or ``--at`` used to checkpoint at
        ``t=0.0s of nans`` (exit 0), and an infinite horizon wrote a
        checkpoint that ``repro resume`` ran forever."""
        monkeypatch.chdir(tmp_path)
        argv = argv + ["--cities", "8"] + (
            ["-o", "a.ckpt"] if argv[0] == "checkpoint" else [])
        assert _within(30, lambda: main(argv)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "finite" in captured.err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["rtt", "K1", "Manila", "Dalian", "--routing", "scratch"],
        ["sweep", "K1", "--routing", "incremental"],
        ["report", "K1", "Manila", "Dalian", "--engine", "fluid",
         "--kernel", "reference"],
        ["serve", "K1", "--engine", "fluid", "--kernel", "vectorized"],
    ])
    def test_removed_parity_switches_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["report", "K1", "Manila", "Dalian", "--engine", "aimd"],
        ["report", "K1", "Manila", "Dalian", "--engine", "maxmin"],
        ["serve", "K1", "--engine", "aimd"],
        ["checkpoint", "K1", "--engine", "aimd", "-o", "a.ckpt"],
    ], ids=lambda argv: f"{argv[0]}-{argv[argv.index('--engine') + 1]}")
    def test_engines_are_packet_and_fluid(self, argv, capsys):
        """Every command names the two engines the same way."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("statement,error", [
        ("from repro.transport import TcpNewRenoFlow", ImportError),
        ("from repro.transport.tcp import TcpNewRenoFlow", ImportError),
        ("import repro.transport.bbr", ImportError),
        ("import repro.transport.vegas", ImportError),
        ("import repro.obs.bench", ImportError),
        ("from repro.cli import main; main(['bench-report'])", SystemExit),
        ("import repro.cc.learned", ImportError),
        ("import repro.cc.factory", ImportError),
    ], ids=["transport.TcpNewRenoFlow", "tcp.TcpNewRenoFlow",
            "transport.bbr", "transport.vegas", "obs.bench",
            "cli-bench-report", "cc.learned", "cc.factory"])
    def test_superseded_names_stay_removed(self, statement, error, capsys):
        """The transport shim classes and the ``bench-report`` stack were
        replaced by ``TcpFlow(controller=...)`` and
        ``benchmarks/e2e/compare.py``; no alias may bring them back."""
        with pytest.raises(error) as caught:
            exec(statement, {})
        if error is SystemExit:
            assert caught.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["localhost", "localhost:", ":x"])
    def test_checkpoint_connect_needs_a_port(self, target, tmp_path,
                                             capsys):
        """Used to die with ``ValueError: invalid literal for int()``."""
        argv = ["checkpoint", "--connect", target,
                "-o", str(tmp_path / "x.ckpt")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--connect wants HOST:PORT" in err and target in err

"""Tests for the Hypatia facade and workload builders."""

import numpy as np
import pytest

from repro import Hypatia, PAPER_FOCUS_PAIRS, random_permutation_pairs
from repro.core.workloads import gid_by_name
from repro.fluid.engine import FluidFlow
from repro.topology.gsl import GslPolicy
from repro.ground.stations import relay_grid_between
from repro.geo.coordinates import GeodeticPosition


class TestWorkloads:
    def test_permutation_is_derangement(self):
        pairs = random_permutation_pairs(100, seed=42)
        assert len(pairs) == 100
        sources = [s for s, _ in pairs]
        destinations = [d for _, d in pairs]
        assert sorted(sources) == list(range(100))
        assert sorted(destinations) == list(range(100))
        assert all(s != d for s, d in pairs)

    def test_permutation_deterministic(self):
        assert random_permutation_pairs(50, seed=7) == \
            random_permutation_pairs(50, seed=7)

    def test_permutation_seed_sensitivity(self):
        assert random_permutation_pairs(50, seed=1) != \
            random_permutation_pairs(50, seed=2)

    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            random_permutation_pairs(1)

    def test_focus_pairs_resolvable(self):
        from repro.ground.stations import ground_stations_from_cities
        stations = ground_stations_from_cities(count=100)
        pairs = [(gid_by_name(stations, src), gid_by_name(stations, dst))
                 for src, dst in PAPER_FOCUS_PAIRS.values()]
        assert len(pairs) == len(PAPER_FOCUS_PAIRS)
        for src, dst in pairs:
            assert 0 <= src < 100 and 0 <= dst < 100

    def test_gid_by_name_unknown(self):
        from repro.ground.stations import ground_stations_from_cities
        with pytest.raises(KeyError):
            gid_by_name(ground_stations_from_cities(count=5), "Gotham")


class TestHypatiaFacade:
    def test_from_shell_name_defaults(self):
        hypatia = Hypatia.from_shell_name("K1", num_cities=20)
        assert hypatia.network.min_elevation_deg == 30.0
        assert hypatia.constellation.num_satellites == 34 * 34
        assert len(hypatia.ground_stations) == 20

    def test_operator_default_elevations(self):
        assert Hypatia.from_shell_name(
            "T1", num_cities=5).network.min_elevation_deg == 10.0
        assert Hypatia.from_shell_name(
            "S1", num_cities=5).network.min_elevation_deg == 25.0

    def test_elevation_override(self):
        hypatia = Hypatia.from_shell_name("K1", num_cities=5,
                                          min_elevation_deg=35.0)
        assert hypatia.network.min_elevation_deg == 35.0

    def test_pair_lookup(self):
        hypatia = Hypatia.from_shell_name("K1", num_cities=100)
        src, dst = hypatia.pair("Manila", "Dalian")
        assert hypatia.ground_stations[src].name == "Manila"
        assert hypatia.ground_stations[dst].name == "Dalian"

    def test_bent_pipe_mode_has_no_isls(self):
        hypatia = Hypatia.from_shell_name("K1", num_cities=5,
                                          isl_builder="none")
        assert len(hypatia.network.isl_pairs) == 0

    def test_extra_stations_get_consecutive_gids(self):
        relays = relay_grid_between(GeodeticPosition(48.86, 2.35),
                                    GeodeticPosition(55.76, 37.62),
                                    rows=2, columns=2)
        hypatia = Hypatia.from_shell_name("K1", num_cities=10,
                                          extra_stations=relays)
        assert len(hypatia.ground_stations) == 14
        assert [s.gid for s in hypatia.ground_stations] == list(range(14))
        assert sum(s.is_relay for s in hypatia.ground_stations) == 4

    def test_compute_timelines(self):
        hypatia = Hypatia.from_shell_name("K1", num_cities=100)
        pair = hypatia.pair("Manila", "Dalian")
        timelines = hypatia.compute_timelines([pair], duration_s=3.0,
                                              step_s=1.0)
        tl = timelines[pair]
        assert len(tl.times_s) == 3
        assert np.isfinite(tl.rtts_s).all()
        # Paper Fig. 3(b): Manila-Dalian RTT is in the 25-48 ms band.
        assert (tl.rtts_s > 0.020).all()
        assert (tl.rtts_s < 0.060).all()

    def test_build_packet_simulator(self):
        hypatia = Hypatia.from_shell_name("K1", num_cities=10)
        sim = hypatia.build_packet_simulator()
        assert sim.network is hypatia.network

    def test_build_fluid_modes(self):
        """The facade builds the max-min engine only; the AIMD model of
        Fig. 10 is built as ``AimdFluidSimulation`` directly."""
        hypatia = Hypatia.from_shell_name("K1", num_cities=10)
        flows = [FluidFlow(0, 5)]
        from repro.fluid.engine import FluidSimulation
        for built in (hypatia.build_fluid_simulation(flows),
                      hypatia.build_fluid_simulation(flows, mode="maxmin")):
            assert type(built) is FluidSimulation
        for mode in ("aimd", "quantum"):
            with pytest.raises(ValueError, match="'maxmin' only"):
                hypatia.build_fluid_simulation(flows, mode=mode)

    def test_gsl_policy_passthrough(self):
        hypatia = Hypatia.from_shell_name(
            "K1", num_cities=5, gsl_policy=GslPolicy.NEAREST_ONLY)
        snap = hypatia.snapshot(0.0)
        for edges in snap.gsl_edges.values():
            assert len(edges.satellite_ids) <= 1


class TestEpochOffset:
    def test_offset_is_pure_time_shift(self):
        base = Hypatia.from_shell_name("K1", num_cities=5)
        shifted = Hypatia.from_shell_name("K1", num_cities=5,
                                          epoch_offset_s=50.0)
        p_base = base.constellation.positions_ecef_m(50.0)
        p_shift = shifted.constellation.positions_ecef_m(0.0)
        np.testing.assert_allclose(p_base, p_shift, atol=1e-6)

    def test_position_service_honors_offset(self):
        from repro.simulation.positions import PositionService
        base = Hypatia.from_shell_name("K1", num_cities=5)
        shifted = Hypatia.from_shell_name("K1", num_cities=5,
                                          epoch_offset_s=30.0)
        service_base = PositionService(base.network, quantum_s=0.0)
        service_shift = PositionService(shifted.network, quantum_s=0.0)
        np.testing.assert_allclose(service_base.position_m(7, 30.0),
                                   service_shift.position_m(7, 0.0),
                                   atol=1e-6)

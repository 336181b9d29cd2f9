"""Environment contract tests (repro.cc.env) and learned-controller
checkpoint/restore parity through the live service."""

import json
import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.env import EnvSpec, ExternalController, RateControlEnv
from repro.constellations.builder import Constellation
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation
from repro.orbits.shell import Shell
from repro.service import LiveSimulationService
from repro.service.driver import ServiceError
from repro.sweep.spec import NetworkSpec
from repro.topology.network import LeoNetwork
from repro.traffic import FlowRequest, WorkloadSchedule

pytestmark = pytest.mark.cc

_SITES = [
    ("Quito", 0.0, -78.5),
    ("Nairobi", -1.3, 36.8),
    ("Singapore", 1.35, 103.8),
    ("Honolulu", 21.3, -157.9),
    ("Sydney", -33.9, 151.2),
    ("Madrid", 40.4, -3.7),
]


def _network_spec(workload=None) -> NetworkSpec:
    # 8x8 is the smallest lab shell where every site pair has a route.
    shell = Shell(name="X1", num_orbits=8, satellites_per_orbit=8,
                  altitude_m=600_000.0, inclination_deg=53.0)
    stations = [
        GroundStation(gid=i, name=name,
                      position=GeodeticPosition(lat, lon, 0.0))
        for i, (name, lat, lon) in enumerate(_SITES)
    ]
    network = LeoNetwork(Constellation([shell]), stations,
                         min_elevation_deg=10.0)
    spec = NetworkSpec.from_network(network)
    if workload is not None:
        spec = spec.with_workload(workload)
    return spec


def _env_spec(**overrides) -> EnvSpec:
    defaults = dict(network=_network_spec(), src_gid=0, dst_gid=3,
                    decision_interval_s=0.2, horizon_s=2.0)
    defaults.update(overrides)
    return EnvSpec(**defaults)


def _stream(spec: EnvSpec, seed: int, actions) -> np.ndarray:
    observations = RateControlEnv(spec, seed=seed).rollout(list(actions))
    return np.array([astuple(obs) for obs in observations], dtype=float)


class TestEnvBasics:
    def test_reset_returns_initial_observation(self):
        env = RateControlEnv(_env_spec())
        obs = env.reset()
        assert obs.time_s == 0.0
        assert obs.cwnd_packets == 10.0
        assert not obs.done

    def test_step_before_reset_rejected(self):
        with pytest.raises(RuntimeError, match="reset"):
            RateControlEnv(_env_spec()).step(1.0)

    def test_bad_actions_rejected(self):
        env = RateControlEnv(_env_spec())
        env.reset()
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive finite"):
                env.step(bad)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="action_mode"):
            _env_spec(action_mode="teleport")
        with pytest.raises(ValueError, match="decision interval"):
            _env_spec(decision_interval_s=0.0)

    def test_cwnd_action_applies_and_clamps(self):
        spec = _env_spec(max_cwnd=25.0)
        env = RateControlEnv(spec)
        env.reset()
        obs, _, _, _ = env.step(2.0)
        assert obs.cwnd_packets == 20.0
        obs, _, _, _ = env.step(100.0)
        assert obs.cwnd_packets == 25.0  # clamped
        env.flow.in_recovery = False
        obs, _, _, _ = env.step(1e-9)
        assert obs.cwnd_packets == spec.min_cwnd

    def test_delivery_observed(self):
        env = RateControlEnv(_env_spec(horizon_s=4.0))
        observations = env.rollout([1.0] * 20)
        delivered = sum(obs.acked_packets for obs in observations)
        assert delivered > 0
        assert any(np.isfinite(obs.rtt_mean_s) for obs in observations)

    def test_done_at_horizon(self):
        env = RateControlEnv(_env_spec(horizon_s=1.0))
        observations = env.rollout([1.0] * 50)
        assert observations[-1].done
        assert observations[-1].time_s <= 1.0 + 1e-9

    def test_done_on_completion(self):
        env = RateControlEnv(_env_spec(max_packets=20, horizon_s=10.0))
        observations = env.rollout([1.0] * 50)
        assert observations[-1].done
        assert env.flow.completed_at_s is not None

    def test_pacing_mode(self):
        env = RateControlEnv(_env_spec(
            action_mode="pacing", initial_pacing_rate_bps=2e6,
            horizon_s=2.0))
        env.reset()
        assert isinstance(env.controller, ExternalController)
        assert env.controller.paced
        env.step(2.0)
        assert env.controller.pacing_rate_bps == 4e6

    def test_reward_is_finite(self):
        env = RateControlEnv(_env_spec(horizon_s=2.0))
        env.reset()
        for _ in range(5):
            _, reward, done, _ = env.step(1.5)
            assert np.isfinite(reward)
            if done:
                break


class TestEnvDeterminism:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           actions=st.lists(
               st.floats(min_value=0.5, max_value=4.0,
                         allow_nan=False, allow_infinity=False),
               min_size=1, max_size=6))
    def test_same_spec_seed_actions_same_observations(self, seed, actions):
        """The env contract: rollouts are pure in (spec, seed, actions)."""
        spec = _env_spec()
        first = _stream(spec, seed, actions)
        second = _stream(spec, seed, actions)
        np.testing.assert_array_equal(first, second)

    def test_background_workload_deterministic(self):
        rng = random.Random(5)
        requests = [
            FlowRequest(t_start_s=rng.uniform(0.0, 1.0),
                        src_gid=1, dst_gid=4,
                        size_bytes=rng.randint(20_000, 60_000))
            for _ in range(4)
        ]
        spec = _env_spec(network=_network_spec(
            WorkloadSchedule(requests, seed=5)), horizon_s=2.0)
        actions = [1.25, 0.8, 2.0, 1.0, 1.5]
        np.testing.assert_array_equal(_stream(spec, 3, actions),
                                      _stream(spec, 3, actions))


def _service_spec() -> NetworkSpec:
    rng = random.Random(17)
    requests = []
    for _ in range(16):
        src, dst = rng.sample(range(len(_SITES)), 2)
        requests.append(FlowRequest(t_start_s=rng.uniform(0.0, 6.0),
                                    src_gid=src, dst_gid=dst,
                                    size_bytes=rng.randint(20_000, 60_000)))
    return _network_spec(WorkloadSchedule(requests, seed=17))


def _parity_form(service: LiveSimulationService) -> str:
    return json.dumps(service.report().as_dict(deterministic=True),
                      sort_keys=True)


@pytest.mark.service
class TestLearnedControllerService:
    def test_controller_requires_packet_engine(self):
        with pytest.raises(ServiceError, match="packet"):
            LiveSimulationService(_service_spec(), engine="fluid",
                                  controller="bandit")

    def test_checkpoint_restore_continue_parity(self, tmp_path):
        """A mid-run learned controller (shared bandit brain included)
        survives checkpoint -> restore -> continue bit-identically."""
        horizon = 10.0
        reference = LiveSimulationService(
            _service_spec(), horizon_s=horizon, epoch_s=1.0,
            controller="bandit")
        reference.advance_to(horizon)

        service = LiveSimulationService(
            _service_spec(), horizon_s=horizon, epoch_s=1.0,
            controller="bandit")
        service.advance_to(5.0)
        path = str(tmp_path / "cc.ckpt")
        service.save(path)
        restored = LiveSimulationService.resume(path)
        restored.advance_to(horizon)

        assert _parity_form(restored) == _parity_form(reference)

    def test_per_controller_fct_rows(self):
        service = LiveSimulationService(
            _service_spec(), horizon_s=10.0, epoch_s=1.0,
            controller="bandit")
        service.advance_to(10.0)
        fct = service.report().as_dict()["fct"]
        assert set(fct["by_controller"]) == {"bandit"}
        row = fct["by_controller"]["bandit"]
        assert row["flows_completed"] > 0
        assert row["fct_p50_s"] <= row["fct_p99_s"]

"""Tests for the deterministic fault-injection subsystem (repro.faults).

Covers the schedule semantics, per-layer wiring (topology snapshots,
packet devices, fluid capacities, sweep spec, viz, CLI), seeded storms
(rain is an attenuation fault), and the determinism contract: identical
seeds produce byte-identical reports, serially and across sweep
workers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.faults.injector import LinkFaultInjector
from repro.topology.network import LeoNetwork

pytestmark = pytest.mark.faults

NAN = float("nan")


# ----------------------------------------------------------------------
# Schedule semantics
# ----------------------------------------------------------------------

class TestFaultEvent:
    def test_active_interval_end_exclusive(self):
        event = FaultEvent.satellite_outage(3, 5.0, 10.0)
        assert not event.active_at(4.999)
        assert event.active_at(5.0)
        assert event.active_at(9.999)
        assert not event.active_at(10.0)

    def test_isl_pair_normalized_by_constructor(self):
        event = FaultEvent.isl_cut(7, 2, 0.0, 1.0)
        assert event.isl == (2, 7)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            FaultEvent.satellite_outage(0, 5.0, 5.0)

    def test_rejects_missing_target(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.SATELLITE_OUTAGE, 0.0, 1.0)

    def test_rejects_multiple_targets(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.PACKET_LOSS, 0.0, 1.0, isl=(0, 1), gid=2,
                       rate=0.5)

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            FaultEvent.packet_loss(0.0, 1.0, rate=0.0, gid=0)
        with pytest.raises(ValueError):
            FaultEvent.packet_loss(0.0, 1.0, rate=1.5, gid=0)

    def test_rejects_a_kind_its_target_cannot_carry(self):
        with pytest.raises(ValueError, match="cannot target a satellite"):
            FaultEvent(FaultKind.PACKET_LOSS, 0.0, 1.0, satellite=3,
                       rate=0.5)
        with pytest.raises(ValueError, match="cannot target a gid"):
            FaultEvent(FaultKind.ISL_CUT, 0.0, 1.0, gid=3)

    @pytest.mark.parametrize("record,message", [
        ({"start_s": NAN}, "must end after it starts"),
        ({"end_s": NAN}, "must end after it starts"),
        ({"satellite": 3.5}, "satellite must be an integer"),
        ({"satellite": True}, "satellite must be an integer"),
        ({"kind": "gsl_cut", "satellite": None, "gid": False},
         "gid must be an integer"),
        ({"kind": "isl_cut", "satellite": None, "isl": [3, 4.5]},
         "isl endpoint must be an integer"),
        ({"kind": "gsl_attenuation", "satellite": None, "gid": 1,
          "elevation_penalty_deg": NAN}, "penalty must be non-negative"),
    ], ids=["nan-start", "nan-end", "fractional-satellite",
            "bool-satellite", "bool-gid", "fractional-isl",
            "nan-penalty"])
    def test_rejects_impossible_numbers(self, record, message):
        """Outside input (``inject_fault``, ``--faults`` files) reaches
        the event through ``from_dict``: a NaN window never fired, a
        fractional target was truncated to a different satellite."""
        fields = {"kind": "satellite_outage", "start_s": 5.0,
                  "end_s": 8.0, "satellite": 3, **record}
        with pytest.raises(ValueError, match=message):
            FaultEvent.from_dict(fields)
        with pytest.raises(ValueError, match=message):
            FaultSchedule.from_dict({"events": [fields]})
        kwargs = {key: value for key, value in fields.items()
                  if value is not None}
        kind = FaultKind(kwargs.pop("kind"))
        isl = kwargs.pop("isl", None)
        with pytest.raises(ValueError, match=message):
            FaultEvent(kind, isl=tuple(isl) if isl else None, **kwargs)

    @pytest.mark.parametrize("payload,message", [
        ({"events": [], "seed": 1.5}, "seed must be an integer"),
        ({"events": [], "seed": True}, "seed must be an integer"),
        ({"events": 7}, "'events' must be a list"),
        ({"events": {"kind": "isl_cut"}}, "'events' must be a list"),
        ([], "must be a JSON object"),
    ], ids=["fractional-seed", "boolean-seed", "events-not-a-list",
            "events-an-object", "not-an-object"])
    def test_schedule_from_dict_refuses_malformed_payloads(self, payload,
                                                           message):
        """The fault seed drives every loss stream: ``int(seed)`` ran
        1.5 as 1 and ``true`` as 1.  A non-list ``events`` was a
        ``TypeError`` past the CLI's ``ValueError`` handler."""
        with pytest.raises(ValueError, match=message):
            FaultSchedule.from_dict(payload)
        assert FaultSchedule.from_dict(
            {"events": [], "seed": 7.0}).seed == 7

    @pytest.mark.parametrize("record,message", [
        ({"kind": "isl_cut", "isl": [1, 2], "rate": 0.3},
         "isl_cut carries no rate"),
        ({"kind": "satellite_outage", "satellite": 3,
          "elevation_penalty_deg": 5.0},
         "satellite_outage carries no elevation_penalty_deg"),
        ({"kind": "packet_loss", "gid": 1, "rate": 0.3,
          "elevation_penalty_deg": 5.0},
         "packet_loss carries no elevation_penalty_deg"),
        ({"kind": "gsl_attenuation", "gid": 1, "rate": 0.5,
          "elevation_penalty_deg": 5.0},
         "gsl_attenuation carries no rate"),
    ], ids=["isl-cut-rate", "outage-penalty", "loss-penalty",
            "attenuation-rate"])
    def test_rejects_fields_its_kind_ignores(self, record, message):
        """Two events whose ``as_dict()`` forms (and so spec
        fingerprints) are equal must compare equal, so a field the kind
        ignores is refused, not carried along silently."""
        fields = {"start_s": 0.0, "end_s": 1.0, **record}
        with pytest.raises(ValueError, match=message):
            FaultEvent.from_dict(fields)
        kwargs = dict(fields, kind=FaultKind(fields["kind"]))
        if "isl" in kwargs:
            kwargs["isl"] = tuple(kwargs["isl"])
        with pytest.raises(ValueError, match=message):
            FaultEvent(**kwargs)
        assert FaultEvent.from_dict(FaultEvent.isl_cut(
            1, 2, 0.0, 1.0).as_dict()) == FaultEvent.isl_cut(1, 2, 0.0, 1.0)

    @pytest.mark.parametrize("record,message", [
        ({"kind": "packet_loss", "isl": [3, 4], "rate": 0.5},
         "packet_loss cannot target a isl"),
        ({"kind": "packet_corruption", "gid": 0, "rate": 0.5},
         "'packet_corruption' is not a valid FaultKind"),
    ], ids=["isl-loss", "corruption"])
    def test_retired_loss_targets_refused(self, record, message):
        """Loss acts on station uplinks only, and corruption is not a
        kind: schedule JSON carrying either is refused, not dropped."""
        with pytest.raises(ValueError, match=message):
            FaultSchedule.from_dict({"events": [
                {"start_s": 0.0, "end_s": 1.0, **record}]})

    def test_integral_float_target_reads_as_int(self):
        event = FaultEvent.from_dict({"kind": "satellite_outage",
                                      "start_s": 5.0, "end_s": 8.0,
                                      "satellite": 3.0})
        assert event == FaultEvent.satellite_outage(3, 5.0, 8.0)
        assert type(event.satellite) is int

    def test_dict_round_trip(self):
        events = [
            FaultEvent.satellite_outage(3, 5.0, 10.0),
            FaultEvent.isl_cut(1, 2, 0.0, 4.0),
            FaultEvent.gsl_cut(2, 1.0, 4.0),
            FaultEvent.gsl_attenuation(0, 2.0, 9.0, 25.0),
            FaultEvent.packet_loss(2.0, 8.0, 0.25, gid=5),
        ]
        for event in events:
            clone = FaultEvent.from_dict(
                json.loads(json.dumps(event.as_dict())))
            assert clone == event


class TestFaultSchedule:
    def _schedule(self):
        return FaultSchedule([
            FaultEvent.satellite_outage(3, 5.0, 10.0),
            FaultEvent.isl_cut(1, 2, 0.0, 4.0),
            FaultEvent.gsl_cut(2, 1.0, 4.0),
            FaultEvent.gsl_attenuation(0, 2.0, 9.0, 25.0),
            FaultEvent.packet_loss(2.0, 8.0, 0.25, gid=1),
            FaultEvent.packet_loss(2.0, 8.0, 0.5, gid=0),
        ], seed=7)

    def test_time_queries(self):
        schedule = self._schedule()
        assert schedule.failed_satellites_at(6.0) == {3}
        assert schedule.failed_satellites_at(10.0) == frozenset()
        assert schedule.cut_isls_at(1.0) == {(1, 2)}
        assert schedule.cut_isls_at(4.0) == frozenset()
        assert schedule.cut_gids_at(2.0) == {2}
        assert schedule.elevation_penalty_deg(0, 3.0) == 25.0
        assert schedule.elevation_penalty_deg(0, 9.5) == 0.0

    def test_events_stored_sorted_regardless_of_input_order(self):
        schedule = self._schedule()
        shuffled = FaultSchedule(list(reversed(schedule.events)), seed=7)
        assert shuffled.events == schedule.events
        assert shuffled == schedule

    def test_json_round_trip(self, tmp_path):
        schedule = self._schedule()
        path = str(tmp_path / "faults.json")
        schedule.to_json(path)
        assert FaultSchedule.from_json(path) == schedule

    def test_from_dict_rejects_payload_without_events(self):
        with pytest.raises(ValueError):
            FaultSchedule.from_dict({"bad": True})

    @pytest.mark.parametrize("key", ["kind", "start_s", "end_s"])
    def test_missing_event_field_is_named_with_its_index(self, key):
        """A record without a field was a bare ``KeyError``."""
        records = [event.as_dict() for event in self._schedule().events]
        del records[1][key]
        with pytest.raises(ValueError,
                           match=rf"events\[1\]: .*'{key}' field"):
            FaultSchedule.from_dict({"events": records})

    @pytest.mark.parametrize("key,value", [
        ("start_s", None), ("end_s", [1]), ("rate", {}), ("isl", 5),
        ("elevation_penalty_deg", "x"), ("start_s", 10 ** 400)])
    def test_mistyped_event_field_is_named(self, key, value):
        """``float(None)`` or ``tuple(5)`` was a ``TypeError``."""
        record = FaultEvent.isl_cut(1, 2, 0.0, 5.0).as_dict()
        record[key] = value
        with pytest.raises(ValueError, match=rf"events\[0\]: {key}"):
            FaultSchedule.from_dict({"events": [record]})

    def test_merged_keeps_seed_and_unions_events(self):
        a = FaultSchedule([FaultEvent.gsl_cut(0, 0.0, 1.0)], seed=3)
        b = FaultSchedule([FaultEvent.gsl_cut(1, 0.0, 1.0)], seed=9)
        merged = a.merged(b)
        assert merged.seed == 3
        assert len(merged) == 2

    def test_combined_rate_is_product_form(self):
        schedule = self._schedule()
        events = (FaultEvent.packet_loss(0.0, 1.0, 0.5, gid=0),
                  FaultEvent.packet_loss(0.0, 1.0, 0.2, gid=0))
        assert schedule.combined_rate(events, 0.5) == pytest.approx(
            1.0 - 0.5 * 0.8)

    def test_capacity_factor(self):
        schedule = self._schedule()
        num_sats = 10

        def factor(device, time_s):
            return schedule.capacity_factors([device], num_sats, time_s)[0]

        # Cut ISL and outaged satellite's links: zero capacity.
        assert factor((1, 2), 1.0) == 0.0
        assert factor((2, 1), 1.0) == 0.0
        assert factor((3, 4), 6.0) == 0.0
        assert factor(("gsl", 3), 6.0) == 0.0
        # Cut station, lossy station uplinks; loss never touches an ISL.
        assert factor(("gsl", 12), 2.0) == 0.0
        assert factor(("gsl", 10), 4.0) == pytest.approx(0.5)
        assert factor(("gsl", 11), 4.0) == pytest.approx(0.75)
        assert factor((3, 4), 2.0) == 1.0
        # Healthy link, and everything after recovery.
        assert factor((5, 6), 1.0) == 1.0
        assert factor((1, 2), 11.0) == 1.0

    def test_synthetic_is_deterministic_and_covers_kinds(self):
        kwargs = dict(num_satellites=200, num_stations=50,
                      duration_s=120.0, seed=11,
                      satellite_outage_probability=0.2,
                      gsl_cut_probability=0.3, loss_probability=0.3)
        a = FaultSchedule.synthetic(**kwargs)
        b = FaultSchedule.synthetic(**kwargs)
        assert a == b
        kinds = {event.kind for event in a}
        assert FaultKind.SATELLITE_OUTAGE in kinds
        assert FaultKind.GSL_CUT in kinds
        assert FaultKind.PACKET_LOSS in kinds
        assert FaultSchedule.synthetic(
            num_satellites=200, num_stations=50, duration_s=120.0,
            seed=12, satellite_outage_probability=0.2,
            gsl_cut_probability=0.3, loss_probability=0.3) != a

    def test_synthetic_validates_probabilities(self):
        with pytest.raises(ValueError):
            FaultSchedule.synthetic(10, 5, 60.0,
                                    satellite_outage_probability=1.5)

    @pytest.mark.parametrize("kwargs,message", [
        ({"duration_s": -5.0}, "duration_s must be positive"),
        ({"duration_s": NAN}, "duration_s must be positive"),
        ({"mean_duration_s": 0.0}, "mean_duration_s must be positive"),
    ])
    def test_generators_validate_durations(self, kwargs, message):
        """``mean_duration_s=0`` divided by zero; a negative run length
        surfaced as an event that "must end after it starts"."""
        arguments = {"duration_s": 60.0, **kwargs}
        with pytest.raises(ValueError, match=message):
            FaultSchedule.synthetic(10, 5, **arguments)
        with pytest.raises(ValueError, match=message):
            FaultSchedule.storms(5, **arguments)


#: ``(gid, start_s, end_s)`` of the storm schedule the weather model this
#: generator replaced drew for ``storms(100, 100.0, seed=11,
#: probability=0.3, mean_duration_s=200.0, penalty_deg=15.0)`` —
#: the schedule ``benchmarks/test_extension_weather.py`` reports on.
STORMS_SEED_11 = [
    (14, 1.500073694960491, 101.0),
    (88, 3.508053663065558, 7.119300490612272),
    (71, 3.8696471693782653, 101.0),
    (56, 7.3398553388424155, 26.22774519051064),
    (39, 8.714419835217013, 89.5832547919673),
    (64, 15.41353189260608, 101.0),
    (75, 17.543339676585923, 101.0),
    (81, 17.625377537281718, 101.0),
    (66, 18.980066596326004, 101.0),
    (15, 19.020826279792914, 74.42016954067998),
    (34, 20.971741472961114, 101.0),
    (76, 22.83963373251252, 101.0),
    (42, 24.638794889312997, 45.9435463830673),
    (80, 26.9193928028841, 101.0),
    (27, 28.903994731420212, 43.46620349627376),
    (8, 30.34012626245255, 49.3496873561535),
    (83, 36.214515669948085, 101.0),
    (52, 39.42746370720543, 101.0),
    (48, 42.0755617246421, 89.94683428521449),
    (16, 46.393446122328456, 101.0),
    (6, 51.19086390418055, 101.0),
    (96, 54.60953590853206, 101.0),
    (58, 60.12838435819388, 101.0),
    (38, 62.94549122340241, 101.0),
    (92, 63.61845215770129, 101.0),
    (72, 70.4579460558377, 101.0),
    (46, 73.18942157143503, 101.0),
    (55, 77.26896897728231, 101.0),
    (43, 79.70215118439741, 101.0),
    (79, 91.73601784925751, 101.0),
    (68, 95.01358523086452, 101.0),
    (49, 97.09290562186915, 101.0),
    (11, 98.21934207987782, 101.0),
    (54, 98.93016975101723, 101.0),
    (23, 99.76562004630843, 101.0),
]


class TestStorms:
    def test_storms_reproduce_the_weather_model_draws(self):
        storms = FaultSchedule.storms(100, 100.0, seed=11, probability=0.3,
                                      mean_duration_s=200.0,
                                      penalty_deg=15.0)
        assert [(e.gid, e.start_s, e.end_s) for e in storms] == \
            STORMS_SEED_11
        assert {e.kind for e in storms} == {FaultKind.GSL_ATTENUATION}
        assert {e.elevation_penalty_deg for e in storms} == {15.0}

    def test_merged_storms_keep_the_explicit_seed(self):
        explicit = FaultSchedule([FaultEvent.packet_loss(
            0.0, 5.0, 0.1, gid=0)], seed=7)
        storms = FaultSchedule.storms(8, 60.0, seed=2, probability=1.0)
        merged = explicit.merged(storms)
        assert merged.seed == 7
        assert merged.num_events == 1 + 8
        assert merged.loss_events_for_gid(0) == explicit.events

    def test_storms_validate_arguments(self):
        with pytest.raises(ValueError, match="probability must be in"):
            FaultSchedule.storms(5, 60.0, probability=1.5)
        with pytest.raises(ValueError, match="penalty_deg must be positive"):
            FaultSchedule.storms(5, 60.0, penalty_deg=0.0)


# ----------------------------------------------------------------------
# The per-device Bernoulli injector
# ----------------------------------------------------------------------

class TestLinkFaultInjector:
    def _events(self, rate=0.5):
        return [FaultEvent.packet_loss(10.0, 20.0, rate, gid=3)]

    def test_no_drops_outside_window(self):
        injector = LinkFaultInjector("isl-3-4", self._events(rate=1.0))
        assert all(injector.drop_reason(t) is None
                   for t in (0.0, 9.99, 20.0, 100.0))

    def test_rate_one_always_drops_inside_window(self):
        injector = LinkFaultInjector("isl-3-4", self._events(rate=1.0))
        assert all(injector.drop_reason(15.0) == "loss" for _ in range(20))

    def test_same_seed_same_stream(self):
        a = LinkFaultInjector("isl-3-4", self._events(), seed=5)
        b = LinkFaultInjector("isl-3-4", self._events(), seed=5)
        assert [a.drop_reason(15.0) for _ in range(200)] == \
            [b.drop_reason(15.0) for _ in range(200)]

    def test_streams_differ_across_devices_and_seeds(self):
        a = [LinkFaultInjector("isl-3-4", self._events(),
                               seed=5).drop_reason(15.0)
             for _ in range(1)]
        outcomes_by_name = [
            [LinkFaultInjector(name, self._events(), seed=5).drop_reason(15.0)
             for _ in range(64)]
            for name in ("isl-3-4", "isl-4-3")
        ]
        assert outcomes_by_name[0] != outcomes_by_name[1]
        del a

    def test_stream_not_consumed_while_inactive(self):
        """Draws only happen inside fault windows, so adding pre-window
        traffic cannot perturb in-window outcomes."""
        a = LinkFaultInjector("isl-3-4", self._events(), seed=5)
        b = LinkFaultInjector("isl-3-4", self._events(), seed=5)
        for _ in range(100):
            a.drop_reason(1.0)  # outside [10, 20): no RNG consumption
        assert [a.drop_reason(15.0) for _ in range(50)] == \
            [b.drop_reason(15.0) for _ in range(50)]

    def test_non_stochastic_events_filtered(self):
        injector = LinkFaultInjector("isl-0-1", [
            FaultEvent.isl_cut(0, 1, 0.0, 10.0)])
        assert not injector.has_events


# ----------------------------------------------------------------------
# Topology integration: snapshots exclude faulted elements
# ----------------------------------------------------------------------

class TestSnapshotFaultMasking:
    def test_outage_removes_isls_and_gsls_then_recovers(
            self, small_constellation, small_stations):
        faults = FaultSchedule([FaultEvent.satellite_outage(5, 3.0, 7.0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        baseline = LeoNetwork(small_constellation, small_stations,
                              min_elevation_deg=10.0)
        during = network.snapshot(5.0)
        assert all(5 not in (a, b) for a, b in during.isl_pairs)
        assert 5 not in {int(s) for e in during.gsl_edges.values()
                         for s in e.satellite_ids}
        for t in (0.0, 7.0, 9.0):  # before, at recovery, after
            assert np.array_equal(network.snapshot(t).isl_pairs,
                                  baseline.snapshot(t).isl_pairs)

    def test_isl_cut_removes_one_link(self, small_constellation,
                                      small_stations):
        baseline = LeoNetwork(small_constellation, small_stations,
                              min_elevation_deg=10.0)
        pair = tuple(int(x) for x in baseline.isl_pairs[0])
        faults = FaultSchedule([FaultEvent.isl_cut(*pair, 0.0, 2.0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        cut = {tuple(p) for p in network.snapshot(1.0).isl_pairs}
        full = {tuple(p) for p in baseline.snapshot(1.0).isl_pairs}
        assert full - cut == {pair}
        assert {tuple(p) for p in network.snapshot(2.0).isl_pairs} == full

    def test_gsl_cut_disconnects_station(self, small_constellation,
                                         small_stations):
        faults = FaultSchedule([FaultEvent.gsl_cut(2, 1.0, 4.0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        assert network.snapshot(0.0).gsl_edges[2].is_connected
        assert not network.snapshot(2.0).gsl_edges[2].is_connected
        assert network.snapshot(4.0).gsl_edges[2].is_connected

    def test_attenuation_shrinks_visible_set(self, small_constellation,
                                             small_stations):
        faults = FaultSchedule([
            FaultEvent.gsl_attenuation(0, 1.0, 4.0, 35.0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        before = len(network.snapshot(0.9).gsl_edges[0].satellite_ids)
        during = len(network.snapshot(1.1).gsl_edges[0].satellite_ids)
        assert during < before

    def test_out_of_range_targets_rejected(self, small_constellation,
                                           small_stations):
        """Constructor and ``set_faults`` are one path: same message for
        a bad satellite, gid or ISL endpoint (the ISL case used to be
        accepted silently and never matched a link), nothing installed."""
        good = FaultSchedule([FaultEvent.gsl_cut(2, 1.0, 4.0)])
        live = LeoNetwork(small_constellation, small_stations,
                          min_elevation_deg=10.0, faults=good)
        num_sats = small_constellation.num_satellites
        for event, message in [
            (FaultEvent.satellite_outage(999, 0.0, 1.0),
             "fault satellite 999 out of range"),
            (FaultEvent.gsl_cut(99, 0.0, 1.0), "fault gid 99 out of range"),
            (FaultEvent.isl_cut(0, num_sats + 5, 0.0, 10.0),
             f"fault isl (0, {num_sats + 5}) has an endpoint out of range"),
            (FaultEvent.isl_cut(3, num_sats, 0.0, 1.0),
             f"fault isl (3, {num_sats}) has an endpoint out of range"),
        ]:
            bad = FaultSchedule([event])
            with pytest.raises(ValueError) as at_construction:
                LeoNetwork(small_constellation, small_stations,
                           min_elevation_deg=10.0, faults=bad)
            with pytest.raises(ValueError) as on_live_network:
                live.set_faults(bad)
            assert str(at_construction.value) == message
            assert str(on_live_network.value) == message
            assert live.faults is good and live.fault_view is good
        live.set_faults(FaultSchedule([
            FaultEvent.isl_cut(0, num_sats - 1, 0.0, 10.0)]))


class TestMidRunRerouteAndRecovery:
    def test_outage_reroutes_then_recovery_restores_path(
            self, small_constellation, small_stations):
        """The acceptance scenario: a mid-run satellite outage of an
        on-path satellite visibly reroutes the pair at the next
        forwarding tick, and recovery restores the original path."""
        from repro.sweep import sweep_timelines
        from repro.topology.dynamic_state import snapshot_times
        times = snapshot_times(10.0, 1.0)
        baseline = LeoNetwork(small_constellation, small_stations,
                              min_elevation_deg=10.0)
        pair = (0, 3)
        base_tl = sweep_timelines(baseline, [pair], times)[pair]
        # Fail a satellite that is on the pair's path at t in [3, 7).
        victims = [n for n in base_tl.paths[3]
                   if n < baseline.num_satellites]
        victim = victims[len(victims) // 2]
        faults = FaultSchedule([
            FaultEvent.satellite_outage(victim, 3.0, 7.0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        fault_tl = sweep_timelines(network, [pair], times)[pair]
        # Unaffected before the outage...
        assert fault_tl.paths[:3] == base_tl.paths[:3]
        # ...rerouted (victim-free) while it lasts...
        for t_index in range(3, 7):
            path = fault_tl.paths[t_index]
            if path is not None:
                assert victim not in path
            assert path != base_tl.paths[t_index] or \
                victim not in (base_tl.paths[t_index] or ())
        assert fault_tl.paths[3] != base_tl.paths[3]
        # ...with a visible RTT/hop change at the outage tick...
        changed = (fault_tl.hop_counts()[3] != base_tl.hop_counts()[3]
                   or fault_tl.rtts_s[3] != base_tl.rtts_s[3])
        assert changed
        # ...and recovery restores the original (baseline) path.
        assert fault_tl.paths[7:] == base_tl.paths[7:]
        assert np.allclose(fault_tl.distances_m[7:],
                           base_tl.distances_m[7:])


# ----------------------------------------------------------------------
# Packet simulator integration: fault drops, partition, metrics
# ----------------------------------------------------------------------

def _lossy_network(constellation, stations, rate=0.5, seed=9):
    faults = FaultSchedule([
        FaultEvent.packet_loss(1.0, 4.0, rate, gid=0)], seed=seed)
    return LeoNetwork(constellation, stations, min_elevation_deg=10.0,
                      faults=faults)


class TestPacketFaultDrops:
    def test_drops_counted_under_fault_reason(self, small_constellation,
                                              small_stations):
        from repro.obs.trace import PKT_DROP, RingBufferTracer
        from repro.simulation.simulator import PacketSimulator
        from repro.transport.ping import PingSession
        network = _lossy_network(small_constellation, small_stations)
        tracer = RingBufferTracer()
        sim = PacketSimulator(network, tracer=tracer)
        PingSession(0, 3, interval_s=0.01).install(sim)
        sim.run(6.0)
        stats = sim.stats
        assert stats.packets_dropped_fault > 0
        assert stats.packets_dropped >= stats.packets_dropped_fault
        # Queue drops and fault drops are partitioned, not conflated.
        drops = [e for e in tracer.events_of(PKT_DROP)
                 if e.reason == "fault"]
        assert len(drops) == stats.packets_dropped_fault
        # All fault drops happened inside the schedule window, on the
        # faulted device.
        assert all(1.0 <= e.time_s < 4.0 for e in drops)
        assert all(e.link == f"gsl-{network.gs_node_id(0)}" for e in drops)

    def test_report_partitions_drop_reasons(self, small_constellation,
                                            small_stations):
        from repro.simulation.simulator import PacketSimulator
        from repro.transport.ping import PingSession
        network = _lossy_network(small_constellation, small_stations)
        sim = PacketSimulator(network)
        PingSession(0, 3, interval_s=0.01).install(sim)
        sim.run(6.0)
        summary = sim.report().as_dict()["summary"]
        assert summary["packets_dropped_fault"] > 0
        partition = (summary["packets_dropped_no_route"]
                     + summary["packets_dropped_queue"]
                     + summary["packets_dropped_ttl"]
                     + summary["packets_dropped_no_handler"]
                     + summary["packets_dropped_fault"])
        assert summary["packets_dropped"] == partition

    def test_no_faults_no_behavior_change(self, small_constellation,
                                          small_stations):
        """An empty schedule is inert: identical results to no schedule."""
        from repro.simulation.simulator import PacketSimulator
        from repro.transport.ping import PingSession
        results = []
        for faults in (None, FaultSchedule()):
            network = LeoNetwork(small_constellation, small_stations,
                                 min_elevation_deg=10.0, faults=faults)
            sim = PacketSimulator(network)
            PingSession(0, 3, interval_s=0.01).install(sim)
            sim.run(3.0)
            results.append(json.dumps(
                sim.report().as_dict(deterministic=True), sort_keys=True))
        assert results[0] == results[1]

    def test_probe_records_faults_series(self, small_constellation,
                                         small_stations):
        from repro.obs import MetricsRegistry
        from repro.simulation.simulator import PacketSimulator
        from repro.transport.ping import PingSession
        network = _lossy_network(small_constellation, small_stations)
        sim = PacketSimulator(network)
        registry = MetricsRegistry()
        sim.attach_probe(registry=registry, interval_s=1.0)
        PingSession(0, 3, interval_s=0.01).install(sim)
        sim.run(6.0)
        active = registry.series_logs["faults.active_events"]
        dropped = registry.series_logs["faults.packets_dropped"]
        assert max(active.values) == 1.0  # window [1, 4) spans samples
        assert min(active.values) == 0.0
        assert dropped.values[-1] == float(sim.stats.packets_dropped_fault)


# ----------------------------------------------------------------------
# Determinism regression (the tentpole contract)
# ----------------------------------------------------------------------

class TestDeterminism:
    def _run_report_json(self, constellation, stations):
        from repro.simulation.simulator import PacketSimulator
        from repro.transport.ping import PingSession
        network = _lossy_network(constellation, stations, seed=21)
        sim = PacketSimulator(network)
        PingSession(0, 3, interval_s=0.01).install(sim)
        PingSession(1, 4, interval_s=0.02).install(sim)
        sim.run(6.0)
        return json.dumps(sim.report().as_dict(deterministic=True),
                          sort_keys=True)

    def test_identical_seed_byte_identical_reports(
            self, small_constellation, small_stations):
        first = self._run_report_json(small_constellation, small_stations)
        second = self._run_report_json(small_constellation, small_stations)
        assert first == second

    def test_deterministic_dict_strips_wall_clock_keys(
            self, small_constellation, small_stations):
        """The one wall-clock section of a report is the span profile's
        ``phases``; the deterministic form drops it and nothing else."""
        from repro.obs import spans
        from repro.simulation.simulator import PacketSimulator
        from repro.transport.ping import PingSession
        network = _lossy_network(small_constellation, small_stations)
        sim = PacketSimulator(network)
        PingSession(0, 3, interval_s=0.01).install(sim)
        with spans.profiled():
            sim.run(2.0)
            report = sim.report()
        full = report.as_dict()
        deterministic = report.as_dict(deterministic=True)
        assert "phases" in full and "phases" not in deterministic
        # Everything else is untouched.
        del full["phases"]
        assert full == deterministic

    def test_sweep_parallel_equals_serial_under_faults(
            self, small_constellation, small_stations):
        from repro.sweep import sweep_timelines
        from repro.topology.dynamic_state import snapshot_times
        faults = FaultSchedule([
            FaultEvent.satellite_outage(5, 3.0, 7.0),
            FaultEvent.gsl_cut(2, 2.0, 5.0),
            FaultEvent.isl_cut(0, 1, 0.0, 9.0),
        ], seed=13)
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        pairs = [(0, 3), (1, 4), (2, 5)]
        times = snapshot_times(10.0, 0.5)
        serial = sweep_timelines(network, pairs, times, workers=1)
        parallel = sweep_timelines(network, pairs, times, workers=4)
        for pair in pairs:
            assert np.array_equal(serial[pair].distances_m,
                                  parallel[pair].distances_m)
            assert serial[pair].paths == parallel[pair].paths


# ----------------------------------------------------------------------
# Fluid engines: faulted links are zero-capacity
# ----------------------------------------------------------------------

class TestFluidFaults:
    def _network(self, constellation, stations):
        faults = FaultSchedule([FaultEvent.gsl_cut(0, 3.0, 7.0)])
        return LeoNetwork(constellation, stations,
                          min_elevation_deg=10.0, faults=faults)

    def test_maxmin_zeroes_cut_window(self, small_constellation,
                                      small_stations):
        from repro.fluid.engine import FluidFlow, FluidSimulation
        network = self._network(small_constellation, small_stations)
        result = FluidSimulation(network, [FluidFlow(0, 3)]).run(
            10.0, step_s=1.0)
        rates = result.flow_rates_bps[:, 0]
        assert (rates[3:7] == 0.0).all()
        assert rates[0] > 0.0 and rates[8] > 0.0

    def test_aimd_zeroes_cut_window(self, small_constellation,
                                    small_stations):
        from repro.fluid.aimd import AimdFluidSimulation
        from repro.fluid.engine import FluidFlow
        network = self._network(small_constellation, small_stations)
        result = AimdFluidSimulation(network, [FluidFlow(0, 3)]).run(
            10.0, step_s=1.0)
        rates = result.flow_rates_bps[:, 0]
        assert (rates[3:7] == 0.0).all()
        assert rates[0] > 0.0 and rates[8] > 0.0

    def test_maxmin_scales_lossy_link_capacity(self, small_constellation,
                                               small_stations):
        from repro.fluid.engine import FluidFlow, FluidSimulation
        faults = FaultSchedule([
            FaultEvent.packet_loss(0.0, 100.0, 0.5, gid=0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        clean = LeoNetwork(small_constellation, small_stations,
                           min_elevation_deg=10.0)
        lossy_rate = FluidSimulation(network, [FluidFlow(0, 3)]).run(
            2.0, step_s=1.0).flow_rates_bps[0, 0]
        clean_rate = FluidSimulation(clean, [FluidFlow(0, 3)]).run(
            2.0, step_s=1.0).flow_rates_bps[0, 0]
        assert lossy_rate == pytest.approx(clean_rate * 0.5)


# ----------------------------------------------------------------------
# Viz: the utilization map marks faulted links
# ----------------------------------------------------------------------

class TestVizFaultMarking:
    def test_no_faults_keeps_previous_shape(self, small_constellation):
        from repro.viz.utilization_map import utilization_map
        segments = utilization_map(small_constellation,
                                   {(2, 3): 0.5, (3, 2): 0.25}, 0.0)
        assert len(segments) == 1
        assert segments[0].utilization == 0.5


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestFaultsCli:
    def test_faults_generator_writes_loadable_schedule(self, tmp_path,
                                                       capsys):
        from repro.cli import main
        path = str(tmp_path / "faults.json")
        code = main(["faults", "K1", "-o", path, "--seed", "7",
                     "--duration", "120", "--sat-outage-prob", "0.1"])
        assert code == 0
        schedule = FaultSchedule.from_json(path)
        assert schedule.seed == 7
        assert schedule.num_events > 0
        out = capsys.readouterr().out
        assert "fault events" in out

    def test_report_accepts_faults_flag(self, tmp_path, capsys):
        from repro.cli import main
        spec = str(tmp_path / "faults.json")
        FaultSchedule([FaultEvent.gsl_cut(0, 1.0, 3.0)],
                      seed=2).to_json(spec)
        out_path = str(tmp_path / "report.json")
        code = main(["report", "K1", "Manila", "Dalian",
                     "--engine", "fluid", "--duration", "2",
                     "--faults", spec, "-o", out_path])
        assert code == 0
        payload = json.loads(open(out_path).read())
        assert payload["kind"] == "fluid.maxmin"
        assert "loaded fault schedule: 1 events" in capsys.readouterr().out

"""Property-based tests (hypothesis) on core invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.fluid import max_min_fair_allocation
from repro.geo.coordinates import (
    GeodeticPosition,
    ecef_to_geodetic,
    geodetic_to_ecef,
)
from repro.geo.distance import central_angle_rad, great_circle_distance_m
from repro.orbits.kepler import KeplerianElements, wrap_angle
from repro.orbits.tle import generate_tle
from repro.simulation.events import EventScheduler

from _fluid_oracle import max_min_fair_allocation as oracle_allocation
from _orbit_oracle import (
    eccentric_to_mean_anomaly,
    eci_to_ecef,
    mean_to_eccentric_anomaly,
    orbital_period_s,
    parse_tle,
    propagate_to_eci,
    semi_major_axis_from_period,
)

finite_angle = st.floats(min_value=-100.0, max_value=100.0,
                         allow_nan=False, allow_infinity=False)
latitude = st.floats(min_value=-89.9, max_value=89.9)
longitude = st.floats(min_value=-179.9, max_value=179.9)
altitude = st.floats(min_value=0.0, max_value=2_000_000.0)
eccentricity = st.floats(min_value=0.0, max_value=0.9)


class TestAngleProperties:
    @given(finite_angle)
    def test_wrap_angle_in_range(self, angle):
        wrapped = wrap_angle(angle)
        assert 0.0 <= wrapped < 2 * math.pi

    @given(finite_angle)
    def test_wrap_angle_idempotent(self, angle):
        wrapped = wrap_angle(angle)
        assert wrap_angle(wrapped) == pytest.approx(wrapped, abs=1e-12)

    @given(finite_angle)
    def test_wrap_preserves_angle_mod_two_pi(self, angle):
        wrapped = wrap_angle(angle)
        assert math.cos(wrapped) == pytest.approx(math.cos(angle), abs=1e-6)
        assert math.sin(wrapped) == pytest.approx(math.sin(angle), abs=1e-6)


class TestKeplerProperties:
    @given(st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
           eccentricity)
    def test_keplers_equation_round_trip(self, mean_anomaly, ecc):
        big_e = mean_to_eccentric_anomaly(mean_anomaly, ecc)
        back = eccentric_to_mean_anomaly(big_e, ecc)
        assert back == pytest.approx(mean_anomaly, abs=1e-8)

    @given(st.floats(min_value=6.6e6, max_value=5e7))
    def test_period_axis_inverse(self, semi_major_axis):
        period = orbital_period_s(semi_major_axis)
        assert semi_major_axis_from_period(period) == pytest.approx(
            semi_major_axis, rel=1e-10)

    @given(altitude, st.floats(min_value=0.0, max_value=180.0),
           st.floats(min_value=0.0, max_value=359.99),
           st.floats(min_value=0.0, max_value=359.99))
    @settings(max_examples=30)
    def test_circular_orbit_radius_invariant(self, alt, incl, raan, anomaly):
        assume(alt > 100_000.0)
        el = KeplerianElements.circular(alt, incl, raan, anomaly)
        for t in [0.0, 1000.0]:
            state = propagate_to_eci(el, t)
            assert state.radius_m == pytest.approx(el.semi_major_axis_m,
                                                   rel=1e-9)


class TestGeoProperties:
    @given(latitude, longitude, altitude)
    @settings(max_examples=50)
    def test_geodetic_ecef_round_trip(self, lat, lon, alt):
        original = GeodeticPosition(lat, lon, alt)
        back = ecef_to_geodetic(geodetic_to_ecef(original))
        assert back.latitude_deg == pytest.approx(lat, abs=1e-7)
        assert back.longitude_deg == pytest.approx(lon, abs=1e-7)
        assert back.altitude_m == pytest.approx(alt, abs=1e-2)

    @given(latitude, longitude, latitude, longitude)
    def test_great_circle_symmetry(self, lat1, lon1, lat2, lon2):
        a = GeodeticPosition(lat1, lon1)
        b = GeodeticPosition(lat2, lon2)
        assert great_circle_distance_m(a, b) == pytest.approx(
            great_circle_distance_m(b, a), rel=1e-12)

    @given(latitude, longitude, latitude, longitude, latitude, longitude)
    @settings(max_examples=50)
    def test_triangle_inequality(self, lat1, lon1, lat2, lon2, lat3, lon3):
        a = GeodeticPosition(lat1, lon1)
        b = GeodeticPosition(lat2, lon2)
        c = GeodeticPosition(lat3, lon3)
        assert central_angle_rad(a, c) <= (
            central_angle_rad(a, b) + central_angle_rad(b, c) + 1e-9)

    @given(st.floats(min_value=-1e7, max_value=1e7),
           st.floats(min_value=-1e7, max_value=1e7),
           st.floats(min_value=-1e7, max_value=1e7),
           st.floats(min_value=0.0, max_value=1e5))
    def test_eci_to_ecef_preserves_norm(self, x, y, z, t):
        position = np.array([x, y, z])
        converted = eci_to_ecef(position, t)
        assert np.linalg.norm(converted) == pytest.approx(
            np.linalg.norm(position), rel=1e-12, abs=1e-9)


class TestTleProperties:
    @given(altitude, st.floats(min_value=0.0, max_value=179.99),
           st.floats(min_value=0.0, max_value=359.99),
           st.floats(min_value=0.0, max_value=359.99))
    @settings(max_examples=40)
    def test_tle_round_trip_any_circular_orbit(self, alt, incl, raan,
                                               anomaly):
        assume(alt > 150_000.0)
        el = KeplerianElements.circular(alt, incl, raan, anomaly)
        tle = generate_tle(el, "prop-test")
        parsed, _, _ = parse_tle(*tle.as_lines())
        assert parsed.semi_major_axis_m == pytest.approx(
            el.semi_major_axis_m, rel=1e-6)
        assert parsed.inclination_rad == pytest.approx(
            el.inclination_rad, abs=2e-5)
        assert parsed.raan_rad == pytest.approx(el.raan_rad, abs=2e-5)


class TestMaxMinProperties:
    @st.composite
    def _scenario(draw):
        num_links = draw(st.integers(min_value=1, max_value=6))
        capacities = {
            i: draw(st.floats(min_value=0.1, max_value=100.0))
            for i in range(num_links)
        }
        num_flows = draw(st.integers(min_value=1, max_value=10))
        flows = []
        for _ in range(num_flows):
            size = draw(st.integers(min_value=1, max_value=num_links))
            flows.append(list(draw(st.permutations(range(num_links))))[:size])
        return capacities, flows

    @given(_scenario())
    @settings(max_examples=60)
    def test_feasible_and_nonnegative(self, scenario):
        capacities, flows = scenario
        rates = oracle_allocation(capacities, flows)
        assert (rates >= 0.0).all()
        loads = {link: 0.0 for link in capacities}
        for flow, rate in zip(flows, rates):
            for link in flow:
                loads[link] += rate
        for link, load in loads.items():
            assert load <= capacities[link] * (1 + 1e-6)

    @given(_scenario())
    @settings(max_examples=60)
    def test_every_flow_has_a_saturated_link(self, scenario):
        """Pareto optimality: each flow's rate is limited by some link
        that is (numerically) fully used."""
        capacities, flows = scenario
        rates = oracle_allocation(capacities, flows)
        loads = {link: 0.0 for link in capacities}
        for flow, rate in zip(flows, rates):
            for link in flow:
                loads[link] += rate
        for flow in flows:
            assert any(loads[link] >= capacities[link] * (1 - 1e-6)
                       for link in flow)

    # --- Repeated links + demand caps, against both kernels (ISSUE 6).

    @st.composite
    def _rich_scenario(draw):
        """Random capacities/paths/demands where loop paths (repeated
        link traversals) are common."""
        num_links = draw(st.integers(min_value=1, max_value=6))
        capacities = {
            i: draw(st.floats(min_value=0.1, max_value=100.0))
            for i in range(num_links)
        }
        num_flows = draw(st.integers(min_value=1, max_value=10))
        flows = [
            draw(st.lists(st.integers(min_value=0,
                                      max_value=num_links - 1),
                          min_size=1, max_size=6))
            for _ in range(num_flows)
        ]
        demands = draw(st.one_of(
            st.none(),
            st.lists(st.floats(min_value=0.05, max_value=150.0),
                     min_size=num_flows, max_size=num_flows)))
        return capacities, flows, demands

    @pytest.mark.parametrize("allocate", ["reference", "vectorized"])
    @given(_rich_scenario())
    @settings(max_examples=60)
    def test_multiplicity_weighted_feasibility(self, allocate, scenario):
        """Per link, ``sum(rate * traversal_multiplicity) <= capacity`` —
        the invariant the old set-based allocator violated."""
        kernel = (oracle_allocation if allocate == "reference"
                  else max_min_fair_allocation)
        capacities, flows, demands = scenario
        rates = kernel(capacities, flows, demands)
        assert (rates >= 0.0).all()
        loads = {link: 0.0 for link in capacities}
        for flow, rate in zip(flows, rates):
            for link in flow:  # one entry per traversal
                loads[link] += rate
        for link, load in loads.items():
            assert load <= capacities[link] * (1 + 1e-6)

    @pytest.mark.parametrize("allocate", ["reference", "vectorized"])
    @given(_rich_scenario())
    @settings(max_examples=60)
    def test_pareto_optimal(self, allocate, scenario):
        """No flow can be raised without lowering a flow with an equal or
        smaller rate: every flow is demand-capped or has a saturated
        on-path link where its rate is maximal."""
        kernel = (oracle_allocation if allocate == "reference"
                  else max_min_fair_allocation)
        capacities, flows, demands = scenario
        rates = kernel(capacities, flows, demands)
        loads = {link: 0.0 for link in capacities}
        on_link = {link: [] for link in capacities}
        for i, (flow, rate) in enumerate(zip(flows, rates)):
            for link in flow:
                loads[link] += rate
            for link in set(flow):
                on_link[link].append(i)
        for i, flow in enumerate(flows):
            if demands is not None and rates[i] >= demands[i] * (1 - 1e-6):
                continue
            saturated = [link for link in flow
                         if loads[link] >= capacities[link] * (1 - 1e-6)]
            assert saturated, f"flow {i} unconstrained"
            assert any(
                rates[i] >= max(rates[j] for j in on_link[link]) - 1e-6
                for link in saturated)

    @given(_rich_scenario())
    @settings(max_examples=80)
    def test_vectorized_kernel_matches_oracle(self, scenario):
        capacities, flows, demands = scenario
        expected = oracle_allocation(capacities, flows, demands)
        got = max_min_fair_allocation(capacities, flows, demands)
        assert np.array_equal(expected, got)

    # --- The two waterfill kernels, each called directly, and both
    # entries (``waterfill`` on arrays, ``waterfill_lists`` on lists)
    # against each other and the oracle: whatever SMALL_SOLVE_ENTRIES is,
    # both sides of it are covered.

    @st.composite
    def _kernel_scenario(draw):
        """Loop paths, link-less rows, zero and infinite capacities,
        finite and infinite caps from a few inexact fractions (so ties
        are common), an ``active`` subset in shuffled order and
        multiplicities 1-50."""
        num_links = draw(st.integers(min_value=1, max_value=6))
        fractions = [0.0, 0.1, 0.3, 0.7, 1.1, 10 / 3, np.inf]
        capacities = {
            i: draw(st.one_of(st.sampled_from(fractions),
                              st.floats(min_value=0.0, max_value=100.0)))
            for i in range(num_links)
        }
        flows = draw(st.lists(
            st.lists(st.integers(min_value=0, max_value=num_links - 1),
                     max_size=6),
            min_size=1, max_size=10))
        demands = np.array(draw(st.lists(
            st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.35, np.inf]),
                      st.floats(min_value=0.0, max_value=150.0)),
            min_size=len(flows), max_size=len(flows))))
        active = np.array(draw(st.permutations(range(len(flows))))[
            :draw(st.integers(min_value=1, max_value=len(flows)))])
        copies = draw(st.one_of(st.none(), st.lists(
            st.integers(min_value=1, max_value=50),
            min_size=len(active), max_size=len(active))))
        return capacities, flows, demands, active, copies

    def test_scalar_kernel_equals_array_kernel_equals_oracle(
            self, monkeypatch):
        """Both of the array kernel's column numberings run: the active
        rows' columns already count 0, 1, 2, ... as they first appear
        (kept as they are), or not (renumbered)."""
        from repro.fluid import vectorized
        in_order = vectorized._in_first_appearance_order
        taken = []

        def spy(cols):
            taken.append(in_order(cols))
            return taken[-1]
        monkeypatch.setattr(vectorized, "_in_first_appearance_order", spy)
        numbered = set()

        @given(TestMaxMinProperties._kernel_scenario())
        @settings(max_examples=300, deadline=None)
        def check(scenario):
            del taken[:]
            expected = self._check_kernels(scenario)
            assert taken == [expected]
            numbered.add(expected)

        check()
        assert numbered == {True, False}

    @staticmethod
    def _check_kernels(scenario) -> bool:
        """scalar ≡ array ≡ oracle on one scenario; returns whether the
        active rows' columns were already in first-appearance order."""
        from repro.fluid.vectorized import (FlowLinkMatrix,
                                            _waterfill_arrays,
                                            _waterfill_scalars, waterfill,
                                            waterfill_lists)
        capacities, flows, demands, active, copies = scenario
        matrix = FlowLinkMatrix.from_paths(capacities, flows)
        columns = [column for row in active.tolist()
                   for column in matrix.link_index[
                       matrix.indptr[row]:matrix.indptr[row + 1]].tolist()]
        weights = None if copies is None else np.array(copies)
        # The oracle sees every row repeated ``copies`` times in place;
        # ``first`` is where each row's first copy lands.
        repeat = np.ones(len(active), int) if copies is None else weights
        first = np.cumsum(repeat) - repeat

        def outcome(solve):
            try:
                return solve()
            except ValueError as error:
                return str(error)

        rows, caps = active.tolist(), demands[active].tolist()
        scalars, lists, arrays, public, oracle = (
            outcome(solve) for solve in (
                lambda: np.array(_waterfill_scalars(
                    *matrix._as_lists(), rows, caps, copies)),
                lambda: np.array(waterfill_lists(matrix, rows, caps,
                                                 copies)),
                lambda: _waterfill_arrays(matrix, demands[active], active,
                                          weights),
                lambda: waterfill(matrix, demands, active, weights),
            lambda: oracle_allocation(
                capacities,
                [flows[i] for i in np.repeat(active, repeat)],
                np.repeat(demands[active], repeat))))
        if isinstance(oracle, str):
            assert "no links and infinite demand" in oracle \
                or "unconstrained" in oracle
            assert scalars == lists == arrays == public
            # Same text as the oracle, whose flow numbers count copies.
            assert scalars == oracle or copies is not None
            assert scalars.split(" has ")[-1] == oracle.split(" has ")[-1]
        else:
            assert np.array_equal(np.repeat(oracle[first], repeat), oracle)
            for got in (scalars, lists, arrays, public):
                assert got.tobytes() == oracle[first].tobytes()
        return (list(dict.fromkeys(columns))
                == list(range(len(set(columns)))))


event_time = st.floats(min_value=0.0, max_value=1000.0,
                       allow_nan=False, allow_infinity=False)
probe_time = st.floats(min_value=-100.0, max_value=1100.0,
                       allow_nan=False, allow_infinity=False)


@st.composite
def fault_events(draw):
    kind = draw(st.sampled_from(list(FaultKind)))
    start = draw(event_time)
    end = start + draw(st.floats(min_value=1e-3, max_value=200.0))
    if kind is FaultKind.SATELLITE_OUTAGE:
        return FaultEvent.satellite_outage(
            draw(st.integers(min_value=0, max_value=99)), start, end)
    if kind is FaultKind.ISL_CUT:
        a = draw(st.integers(min_value=0, max_value=99))
        b = draw(st.integers(min_value=0, max_value=99).filter(
            lambda x: x != a))
        return FaultEvent.isl_cut(a, b, start, end)
    if kind is FaultKind.GSL_CUT:
        return FaultEvent.gsl_cut(
            draw(st.integers(min_value=0, max_value=99)), start, end)
    if kind is FaultKind.GSL_ATTENUATION:
        return FaultEvent.gsl_attenuation(
            draw(st.integers(min_value=0, max_value=99)), start, end,
            draw(st.floats(min_value=0.1, max_value=90.0)))
    rate = draw(st.floats(min_value=1e-6, max_value=1.0))
    return FaultEvent.packet_loss(
        start, end, rate, gid=draw(st.integers(min_value=0, max_value=99)))


@st.composite
def rain_events(draw):
    start = draw(event_time)
    return FaultEvent.gsl_attenuation(
        gid=draw(st.integers(min_value=0, max_value=9)),
        start_s=start,
        end_s=start + draw(st.floats(min_value=1e-3, max_value=200.0)),
        elevation_penalty_deg=draw(st.floats(min_value=0.0, max_value=90.0,
                                             exclude_min=True)))


class TestFaultScheduleProperties:
    @given(fault_events(), probe_time)
    def test_no_activity_outside_half_open_interval(self, event, t):
        assert event.active_at(t) == (event.start_s <= t < event.end_s)

    @given(st.lists(fault_events(), max_size=12), probe_time)
    @settings(max_examples=60)
    def test_schedule_queries_confined_to_active_events(self, events, t):
        schedule = FaultSchedule(events)
        active = schedule.active_at(t)
        assert all(e.active_at(t) for e in active)
        assert set(active) == {e for e in events if e.active_at(t)}
        for sat in schedule.failed_satellites_at(t):
            assert any(e.kind is FaultKind.SATELLITE_OUTAGE
                       and e.satellite == sat for e in active)
        if not active:
            assert not schedule.failed_satellites_at(t)
            assert not schedule.cut_isls_at(t)
            assert not schedule.cut_gids_at(t)

    @given(st.lists(fault_events(), max_size=12), st.randoms(),
           st.integers(min_value=0, max_value=9), probe_time)
    @settings(max_examples=60)
    def test_stacking_is_order_independent(self, events, rng, gid, t):
        shuffled = list(events)
        rng.shuffle(shuffled)
        a, b = FaultSchedule(events), FaultSchedule(shuffled)
        assert a.events == b.events
        assert a == b
        assert a.elevation_penalty_deg(gid, t) == pytest.approx(
            b.elevation_penalty_deg(gid, t))

    @given(st.lists(fault_events(), min_size=1, max_size=12),
           st.integers(min_value=0, max_value=11),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_batch_capacity_factors_equal_the_per_device_queries(
            self, events, pick, fraction):
        """``capacity_factors`` evaluates the active sets once for the
        batch; every factor must equal what the per-device public
        queries give, on the devices the events hit and their
        neighbours, at a time inside one event's window."""
        schedule = FaultSchedule(events)
        probe = events[pick % len(events)]
        t = probe.start_s + fraction * (probe.end_s - probe.start_s)
        num_sats = 100
        devices = [("gsl", 0), (0, 1)]
        for event in events:
            if event.satellite is not None:
                sat = event.satellite
                devices += [("gsl", sat), (sat, (sat + 1) % num_sats),
                            ((sat + 1) % num_sats, sat)]
            elif event.isl is not None:
                devices += [event.isl, event.isl[::-1]]
            else:
                devices += [("gsl", num_sats + event.gid),
                            ("gsl", event.gid)]

        def per_device(device):
            failed = schedule.failed_satellites_at(t)
            if device[0] == "gsl":
                node = device[1]
                if node < num_sats:
                    return 0.0 if node in failed else 1.0
                gid = node - num_sats
                if gid in schedule.cut_gids_at(t):
                    return 0.0
                return 1.0 - schedule.combined_rate(
                    schedule.loss_events_for_gid(gid), t)
            a, b = device
            if a in failed or b in failed \
                    or (min(a, b), max(a, b)) in schedule.cut_isls_at(t):
                return 0.0
            return 1.0

        expected = [per_device(device) for device in devices]
        assert schedule.capacity_factors(devices, num_sats, t) == expected
        assert [schedule.capacity_factors([device], num_sats, t)[0]
                for device in devices] == expected
        assert set(vars(schedule)) == {"events", "seed"}

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8),
           st.randoms())
    def test_combined_rate_order_independent_and_bounded(self, rates, rng):
        events = tuple(FaultEvent.packet_loss(0.0, 1.0, r, gid=0)
                       for r in rates if r > 0.0)
        shuffled = list(events)
        rng.shuffle(shuffled)
        schedule = FaultSchedule()
        combined = schedule.combined_rate(events, 0.5)
        assert combined == pytest.approx(
            schedule.combined_rate(tuple(shuffled), 0.5))
        assert 0.0 <= combined <= 1.0
        if any(e.rate == 1.0 for e in events):
            assert combined == 1.0

    @given(st.integers(min_value=0, max_value=2**31), st.integers(
        min_value=1, max_value=300), st.integers(min_value=1, max_value=50))
    @settings(max_examples=25)
    def test_synthetic_reproducible_and_sorted(self, seed, num_sats,
                                               num_stations):
        kwargs = dict(num_satellites=num_sats, num_stations=num_stations,
                      duration_s=200.0, seed=seed,
                      satellite_outage_probability=0.3,
                      gsl_cut_probability=0.3, loss_probability=0.3)
        a = FaultSchedule.synthetic(**kwargs)
        assert a == FaultSchedule.synthetic(**kwargs)
        assert a.seed == seed
        starts = [event.start_s for event in a]
        assert starts == sorted(starts)
        for event in a:
            if event.satellite is not None:
                assert 0 <= event.satellite < num_sats
            if event.gid is not None:
                assert 0 <= event.gid < num_stations

    @given(st.lists(fault_events(), max_size=10),
           st.lists(fault_events(), max_size=10))
    @settings(max_examples=40)
    def test_dict_round_trip_any_schedule(self, events_a, events_b):
        schedule = FaultSchedule(events_a, seed=3).merged(
            FaultSchedule(events_b, seed=8))
        assert FaultSchedule.from_dict(schedule.as_dict()) == schedule


class TestWeatherModelProperties:
    """Rain as ``GSL_ATTENUATION`` events (class name kept for stable
    test ids)."""

    @given(rain_events(), probe_time)
    def test_no_penalty_outside_half_open_interval(self, event, t):
        rain = FaultSchedule([event])
        active = event.start_s <= t < event.end_s
        assert event.active_at(t) == active
        expected = event.elevation_penalty_deg if active else 0.0
        assert rain.elevation_penalty_deg(event.gid, t) == \
            pytest.approx(expected)

    @given(st.lists(rain_events(), max_size=10), st.randoms(),
           st.integers(min_value=0, max_value=9), probe_time)
    @settings(max_examples=60)
    def test_penalty_stacking_order_independent(self, events, rng, gid, t):
        shuffled = list(events)
        rng.shuffle(shuffled)
        a, b = FaultSchedule(events), FaultSchedule(shuffled)
        assert a.elevation_penalty_deg(gid, t) == \
            b.elevation_penalty_deg(gid, t)
        expected = sum(e.elevation_penalty_deg for e in events
                       if e.gid == gid and e.active_at(t))
        assert a.elevation_penalty_deg(gid, t) == pytest.approx(expected)

    @given(st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=25)
    def test_synthetic_reproducible(self, seed, num_stations):
        a = FaultSchedule.storms(num_stations, 300.0, seed=seed,
                                 probability=0.5)
        assert a == FaultSchedule.storms(num_stations, 300.0, seed=seed,
                                         probability=0.5)
        assert all(event.kind is FaultKind.GSL_ATTENUATION
                   and 0 <= event.gid < num_stations
                   and 0.0 <= event.start_s < event.end_s <= 301.0
                   for event in a)


class TestSchedulerProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=50))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sched = EventScheduler()
        fired = []
        for delay in delays:
            sched.schedule(delay, lambda: fired.append(sched.now))
        sched.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestSnapshotTimesProperties:
    """The snapshot grid (paper §3.1): ticks 0, step, 2*step, ... strictly
    below the duration, robust to float rounding in ``duration / step``.

    Defining property: ``snapshot_times(d, s)`` is exactly the ticks
    ``k * s`` (evaluated in float64) that compare ``< d`` — the naive
    ``arange(ceil(d / s)) * s`` can both overshoot (8.2 / 0.1 rounds the
    quotient up, so the last tick lands at 8.200000000000001 >= d) and
    the ceil can round a tick short.
    """

    # (duration, step) -> expected tick count, including the historically
    # awkward float combinations from the regression reports.
    NAMED_CASES = [
        (0.7, 0.1, 7),
        (8.2, 0.1, 82),
        (1e4, 0.1, 100_000),
        (1.0, 0.1, 10),
        (0.35, 0.1, 4),
    ]

    def test_named_awkward_combos(self):
        from repro.topology.dynamic_state import snapshot_times
        for duration, step, expected in self.NAMED_CASES:
            times = snapshot_times(duration, step)
            assert len(times) == expected, (duration, step)
            assert times[-1] < duration

    @given(st.floats(min_value=1e-2, max_value=1e4),
           st.floats(min_value=1e-3, max_value=1e2))
    @settings(max_examples=300, deadline=None)
    def test_grid_confinement_and_ceil_consistency(self, duration, step):
        from repro.topology.dynamic_state import snapshot_times
        assume(duration / step <= 3e5)  # keep the grid test-sized
        times = snapshot_times(duration, step)
        # Strictly inside [0, duration), starting at 0, on the exact grid.
        assert times[0] == 0.0
        assert np.all(times < duration)
        assert np.array_equal(times, np.arange(len(times)) * step)
        # Ceil-consistent count: exactly the k with float64 k*step < d
        # (the count can differ from ceil(d/s) by the rounding of the
        # quotient, never by more than one tick), checked scalar-wise
        # around the boundary.
        approx = int(np.ceil(duration / step))
        assert abs(len(times) - approx) <= 1
        for k in range(max(len(times) - 2, 0), len(times) + 2):
            inside = np.float64(k) * np.float64(step) < duration
            assert inside == (k < len(times))

    @given(st.floats(max_value=0.0, allow_nan=False),
           st.floats(min_value=1e-3, max_value=1e2))
    def test_nonpositive_duration_rejected(self, duration, step):
        from repro.topology.dynamic_state import snapshot_times
        with pytest.raises(ValueError):
            snapshot_times(duration, step)


# ----------------------------------------------------------------------
# Incremental routing: every repair path against the from-scratch engine
# ----------------------------------------------------------------------

_WALK_SATELLITES = 8
_WALK_STATIONS = 4          # gid 3 is a relay
_WALK_LINKS = [(a, b) for a in range(_WALK_SATELLITES)
               for b in range(a + 1, _WALK_SATELLITES)]
_WALK_GSLS = [(gid, sat) for gid in range(_WALK_STATIONS)
              for sat in range(_WALK_SATELLITES)]
# Few distinct lengths, so exact float ties between paths are common.
_walk_length = st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.5])


def _walk_network():
    from repro.constellations.builder import Constellation
    from repro.ground.stations import GroundStation
    from repro.orbits.shell import Shell
    from repro.topology.network import LeoNetwork
    shell = Shell(name="W", num_orbits=2, satellites_per_orbit=4,
                  altitude_m=600_000.0, inclination_deg=53.0)
    stations = [GroundStation(gid=gid, name=f"gs{gid}",
                              position=GeodeticPosition(10.0 * gid, 0.0, 0.0),
                              is_relay=gid == 3)
                for gid in range(_WALK_STATIONS)]
    # The snapshots below carry their own (random) links; the network
    # only supplies the node numbering.
    return LeoNetwork(Constellation([shell]), stations,
                      min_elevation_deg=10.0, isl_builder="none")


@st.composite
def graph_walks(draw):
    """Snapshots of one random small graph: every step reweights all
    links and toggles a few of them (ISLs and GSLs alike)."""
    links = set(draw(st.lists(st.sampled_from(_WALK_LINKS), unique=True,
                              min_size=3, max_size=14)))
    gsls = set(draw(st.lists(st.sampled_from(_WALK_GSLS), unique=True,
                             min_size=2, max_size=10)))
    steps = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        links ^= set(draw(st.lists(st.sampled_from(_WALK_LINKS),
                                   unique=True, max_size=2)))
        gsls ^= set(draw(st.lists(st.sampled_from(_WALK_GSLS),
                                  unique=True, max_size=2)))
        steps.append((
            {link: draw(_walk_length) for link in sorted(links)},
            {gsl: draw(_walk_length) for gsl in sorted(gsls)}))
    return steps


def _walk_snapshot(index, link_lengths, gsl_lengths):
    from repro.topology.gsl import GslEdges
    from repro.topology.network import TopologySnapshot
    gsl_edges = {}
    for gid in range(_WALK_STATIONS):
        visible = sorted(sat for station, sat in gsl_lengths
                         if station == gid)
        gsl_edges[gid] = GslEdges(
            gid=gid, satellite_ids=np.array(visible, dtype=np.int64),
            lengths_m=np.array([gsl_lengths[gid, sat] for sat in visible],
                               dtype=np.float64))
    return TopologySnapshot(
        time_s=float(index),
        satellite_positions_m=np.zeros((_WALK_SATELLITES, 3)),
        isl_pairs=np.array(sorted(link_lengths),
                           dtype=np.int64).reshape(-1, 2),
        isl_lengths_m=np.array([link_lengths[link]
                                for link in sorted(link_lengths)],
                               dtype=np.float64),
        gsl_edges=gsl_edges,
        num_satellites=_WALK_SATELLITES,
        num_ground_stations=_WALK_STATIONS,
        relay_gids=frozenset({3}))


class TestIncrementalRoutingProperties:
    """Whatever the delta and whichever repair it takes, the incremental
    router equals a fresh from-scratch engine bit for bit."""

    NETWORK = None

    @given(graph_walks(),
           st.lists(st.integers(min_value=0, max_value=_WALK_STATIONS - 1),
                    unique=True, min_size=1),
           st.sampled_from([0.0, 0.1, 2.0]),
           st.booleans(),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_update_equals_from_scratch(self, steps, destinations,
                                              sparse_share,
                                              never_give_up, data):
        from unittest import mock

        from repro.routing import incremental
        from repro.routing.engine import RoutingEngine
        cls = type(self)
        if cls.NETWORK is None:
            cls.NETWORK = _walk_network()
        network = cls.NETWORK
        router = incremental.IncrementalRouter(network)
        # On graphs this small the give-up bound is a violation or two:
        # lift it in half the runs so the settle sees real work.
        share = 1.0 if never_give_up else incremental.MAX_VIOLATED_SHARE
        with mock.patch.multiple(incremental, MAX_VIOLATED_SHARE=share,
                                 SPARSE_DELTA_SHARE=sparse_share):
            for index, (link_lengths, gsl_lengths) in enumerate(steps):
                snapshot = _walk_snapshot(index, link_lengths, gsl_lengths)
                # The same set in a fresh order each step: still repairs.
                order = data.draw(st.permutations(destinations))
                engine = RoutingEngine(network)
                expected = engine.route_to_many(snapshot, order)
                repaired = router.route_to_many(snapshot, order)
                assert repaired.dst_gids == tuple(sorted(destinations))
                assert expected.dst_gids == repaired.dst_gids
                assert np.array_equal(expected.distance_m,
                                      repaired.distance_m)
                assert np.array_equal(expected.next_hop, repaired.next_hop)
                # The same snapshot and set again, in another order: the
                # remembered answer itself, from either engine.
                again = data.draw(st.permutations(destinations))
                assert router.route_to_many(snapshot, again) is repaired
                assert engine.route_to_many(snapshot, again) is expected
        counters = router.inc_perf
        solves = router.perf.dijkstra_calls
        assert solves == 1 + counters.fallbacks_large_delta
        assert counters.repairs + solves == len(steps)
        if never_give_up:
            assert counters.fallbacks_large_delta == 0


class TestIngressRuleProperties:
    """One ingress rule: every distance query agrees bit for bit, and
    all agree with networkx Dijkstra on the snapshot graph."""

    NETWORK = None

    @given(graph_walks())
    @settings(max_examples=100, deadline=None)
    def test_distance_queries_agree(self, steps):
        import networkx as nx

        from repro.routing.engine import RoutingEngine
        cls = type(self)
        if cls.NETWORK is None:
            cls.NETWORK = _walk_network()
        engine = RoutingEngine(cls.NETWORK)
        gids = range(_WALK_STATIONS)
        pairs = [(src, dst) for src in gids for dst in gids if src != dst]
        for index, (link_lengths, gsl_lengths) in enumerate(steps):
            snapshot = _walk_snapshot(index, link_lengths, gsl_lengths)
            multi = engine.route_to_many(snapshot, gids)
            _, distances = engine.paths_and_distances(multi, snapshot, pairs)
            graph = snapshot.to_networkx()
            for (src, dst), distance in zip(pairs, distances.tolist()):
                assert engine.pair_distance_m(snapshot, src, dst) == distance
                assert multi.routing_for(dst).source_ingress(
                    snapshot.gsl_edges[src])[1] == distance
                # Third-party non-relay stations cannot forward.
                view = nx.restricted_view(
                    graph, [snapshot.gs_node_id(gid) for gid in gids
                            if gid not in (src, dst)
                            and gid not in snapshot.relay_gids], ())
                try:
                    expected = nx.shortest_path_length(
                        view, snapshot.gs_node_id(src),
                        snapshot.gs_node_id(dst), weight="distance_m")
                except nx.NetworkXNoPath:
                    expected = math.inf
                assert distance == pytest.approx(expected, rel=1e-9)


#: WGS84, written out here so the station positions below do not come
#: from the product's own ellipsoid constants or conversion.
_WGS84_A_M = 6_378_137.0
_WGS84_F = 1.0 / 298.257223563


def _station_frame(latitude_deg, longitude_deg):
    """ECEF position of a sea-level station and its geodetic-normal up
    vector (the ellipsoid normal ``ground/visibility.py`` measures
    elevation against)."""
    lat, lon = math.radians(latitude_deg), math.radians(longitude_deg)
    e2 = _WGS84_F * (2.0 - _WGS84_F)
    n = _WGS84_A_M / math.sqrt(1.0 - e2 * math.sin(lat) ** 2)
    up = np.array([math.cos(lat) * math.cos(lon),
                   math.cos(lat) * math.sin(lon),
                   math.sin(lat)])
    position = np.array([n * up[0], n * up[1], n * (1.0 - e2) * up[2]])
    return position, up


def _walker_network(data, faults=None):
    """A random 1-3-shell Walker constellation (the draws of
    ``test_random_walker_shells_match_loop_oracle``) with 2-6 random
    sea-level stations and a random minimum elevation, as
    ``(network, sites, min_elevation_deg)``."""
    from repro.constellations.builder import Constellation
    from repro.ground.stations import GroundStation
    from repro.orbits.shell import Shell
    from repro.topology.network import LeoNetwork

    shells = [Shell(
        name=f"W{index}",
        num_orbits=data.draw(st.integers(4, 20)),
        satellites_per_orbit=data.draw(st.integers(4, 20)),
        altitude_m=data.draw(st.floats(400_000.0, 1_500_000.0)),
        inclination_deg=data.draw(st.floats(30.0, 98.0)),
        phase_offset_rel=data.draw(st.floats(0.0, 1.0,
                                             exclude_max=True)))
        for index in range(data.draw(st.integers(1, 3)))]
    constellation = Constellation(
        shells, epoch_offset_s=data.draw(st.floats(
            -1e7, 1e7, allow_nan=False, allow_infinity=False)))
    sites = data.draw(st.lists(st.tuples(latitude, longitude),
                               min_size=2, max_size=6))
    stations = [GroundStation(gid=gid, name=f"gs{gid}",
                              position=GeodeticPosition(lat, lon, 0.0))
                for gid, (lat, lon) in enumerate(sites)]
    min_elevation_deg = data.draw(st.floats(0.0, 45.0))
    network = LeoNetwork(constellation, stations,
                         min_elevation_deg=min_elevation_deg, faults=faults)
    return network, sites, min_elevation_deg


def _dense_walker(data):
    """One random Walker shell dense enough to cover 2-5 random stations
    between ±55° latitude most of the time, as ``(constellation,
    stations)``: unlike :func:`_walker_network`'s draws, most of these
    route flows."""
    from repro.constellations.builder import Constellation
    from repro.ground.stations import GroundStation
    from repro.orbits.shell import Shell

    shell = Shell(
        name="W0", num_orbits=data.draw(st.integers(10, 20)),
        satellites_per_orbit=data.draw(st.integers(10, 20)),
        altitude_m=data.draw(st.floats(500_000.0, 1_200_000.0)),
        inclination_deg=data.draw(st.floats(50.0, 90.0)),
        phase_offset_rel=data.draw(st.floats(0.0, 1.0, exclude_max=True)))
    constellation = Constellation([shell], epoch_offset_s=data.draw(
        st.floats(0.0, 1e5)))
    sites = data.draw(st.lists(st.tuples(st.floats(-55.0, 55.0), longitude),
                               min_size=2, max_size=5))
    stations = [GroundStation(gid=gid, name=f"gs{gid}",
                              position=GeodeticPosition(lat, lon, 0.0))
                for gid, (lat, lon) in enumerate(sites)]
    return constellation, stations


def _ranges_and_elevations(satellites, frame):
    """Slant ranges (m) and elevations (deg) of every satellite from one
    station frame."""
    position, up = frame
    delta = satellites - position
    ranges = np.linalg.norm(delta, axis=1)
    return ranges, np.degrees(np.arcsin(delta @ up / ranges))


def _assert_gsls(edges, satellites, frame, elevation_deg, dead=()):
    """``edges`` are exactly the satellites at or above
    ``elevation_deg`` (to 1e-9 deg) that are not ``dead``, at their
    slant ranges."""
    ranges, elevations = _ranges_and_elevations(satellites, frame)
    linked = np.asarray(edges.satellite_ids)
    assert not set(linked.tolist()) & set(dead)
    assert (elevations[linked] >= elevation_deg - 1e-9).all()
    assert set(np.flatnonzero(elevations >= elevation_deg + 1e-9)) \
        - set(dead) <= set(linked)
    np.testing.assert_allclose(edges.lengths_m, ranges[linked], rtol=1e-9)


class TestIndependentGeometry:
    """Random Walker shells and random stations, checked against
    geometry recomputed here: every GSL is above the minimum elevation
    and every satellite above it gets a GSL, and every routed distance
    is its path's length and no shorter than the chord between its
    endpoints — healthy, and under a random fault schedule."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gsls_and_routed_distances(self, data):
        from repro.routing.engine import RoutingEngine

        network, sites, min_elevation_deg = _walker_network(data)
        snapshot = network.snapshot(data.draw(st.floats(0.0, 6000.0)))
        satellites = snapshot.satellite_positions_m
        frames = [_station_frame(lat, lon) for lat, lon in sites]

        for gid, frame in enumerate(frames):
            _assert_gsls(snapshot.gsl_edges[gid], satellites, frame,
                         min_elevation_deg)

        def node_position(node):
            if node < network.num_satellites:
                return satellites[node]
            return frames[node - network.num_satellites][0]

        engine = RoutingEngine(network)
        gids = list(range(len(sites)))
        pairs = [(src, dst) for src in gids for dst in gids if src != dst]
        multi = engine.route_to_many(snapshot, gids)
        paths, distances = engine.paths_and_distances(multi, snapshot,
                                                      pairs)
        for (src, dst), path, distance in zip(pairs, paths, distances):
            if path is None:
                assert distance == math.inf
                continue
            length = sum(
                float(np.linalg.norm(node_position(b) - node_position(a)))
                for a, b in zip(path, path[1:]))
            assert distance == pytest.approx(length, rel=1e-9)
            chord = float(np.linalg.norm(frames[dst][0] - frames[src][0]))
            assert distance >= chord * (1.0 - 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_fault_schedule(self, data):
        """Outages, ISL cuts, GSL cuts and attenuation, some active at the
        snapshot instant and some not: the ISLs are the healthy ones
        minus every link touching an outaged satellite and every cut
        one, in order; a cut station has no GSL; every other station
        links exactly the live satellites at or above its minimum
        elevation plus its summed active penalty (capped at 90°)."""
        from repro.topology.network import LeoNetwork

        healthy, sites, min_elevation_deg = _walker_network(data)
        num_satellites = healthy.num_satellites
        grid = healthy.isl_pairs
        time_s = data.draw(st.floats(300.0, 6000.0))

        def window():
            """A ``[start, end)`` holding ``time_s``, or wholly before
            or after it."""
            where = data.draw(st.sampled_from(["active", "before",
                                               "after"]))
            if where == "active":
                return (time_s - data.draw(st.floats(0.0, 200.0)),
                        time_s + data.draw(st.floats(1e-3, 200.0)))
            if where == "before":
                end = time_s - data.draw(st.floats(0.0, 100.0))
                return end - data.draw(st.floats(1e-3, 100.0)), end
            start = time_s + data.draw(st.floats(1e-3, 100.0))
            return start, start + data.draw(st.floats(1e-3, 100.0))

        gids = st.integers(0, len(sites) - 1)
        events = []
        for _ in range(data.draw(st.integers(0, 6))):
            events.append(FaultEvent.satellite_outage(
                data.draw(st.integers(0, num_satellites - 1)), *window()))
        for _ in range(data.draw(st.integers(0, 6)) if len(grid) else 0):
            a, b = grid[data.draw(st.integers(0, len(grid) - 1))].tolist()
            events.append(FaultEvent.isl_cut(a, b, *window()))
        for _ in range(data.draw(st.integers(0, 2))):
            events.append(FaultEvent.gsl_cut(data.draw(gids), *window()))
        for _ in range(data.draw(st.integers(0, 4))):
            events.append(FaultEvent.gsl_attenuation(
                data.draw(gids), *window(),
                data.draw(st.floats(0.5, 60.0))))

        def active(event):
            return event.start_s <= time_s < event.end_s

        outaged = {event.satellite for event in events
                   if event.kind is FaultKind.SATELLITE_OUTAGE
                   and active(event)}
        cut_isls = {event.isl for event in events
                    if event.kind is FaultKind.ISL_CUT and active(event)}
        cut_gids = {event.gid for event in events
                    if event.kind is FaultKind.GSL_CUT and active(event)}
        penalty = [sum(event.elevation_penalty_deg for event in events
                       if event.kind is FaultKind.GSL_ATTENUATION
                       and event.gid == gid and active(event))
                   for gid in range(len(sites))]

        network = LeoNetwork(healthy.constellation, healthy.ground_stations,
                             min_elevation_deg=min_elevation_deg,
                             faults=FaultSchedule(events))
        snapshot = network.snapshot(time_s)
        satellites = snapshot.satellite_positions_m
        expected = [pair for pair in grid.tolist()
                    if not set(pair) & outaged and tuple(pair) not in cut_isls]
        assert snapshot.isl_pairs.tolist() == expected
        np.testing.assert_allclose(
            snapshot.isl_lengths_m,
            np.linalg.norm(satellites[snapshot.isl_pairs[:, 0]]
                           - satellites[snapshot.isl_pairs[:, 1]], axis=1)
            if len(expected) else np.empty(0), rtol=1e-12)
        for gid, (lat, lon) in enumerate(sites):
            edges = snapshot.gsl_edges[gid]
            if gid in cut_gids:
                assert len(edges.satellite_ids) == 0
                continue
            _assert_gsls(edges, satellites, _station_frame(lat, lon),
                         min(90.0, min_elevation_deg + penalty[gid]),
                         dead=outaged)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_permanent_outage_removes_only_its_links(self, data):
        """A satellite dead from 0 to inf: its snapshot is the healthy
        one with that satellite's ISLs and GSLs removed, every remaining
        link, length and position in the healthy order."""
        from repro.topology.network import LeoNetwork

        healthy, _, min_elevation_deg = _walker_network(data)
        victim = data.draw(st.integers(0, healthy.num_satellites - 1))
        dead = LeoNetwork(
            healthy.constellation, healthy.ground_stations,
            min_elevation_deg=min_elevation_deg,
            faults=FaultSchedule([FaultEvent.satellite_outage(
                victim, 0.0, math.inf)]))
        for time_s in (0.0, data.draw(st.floats(0.0, 6000.0))):
            before, after = healthy.snapshot(time_s), dead.snapshot(time_s)
            assert np.array_equal(after.satellite_positions_m,
                                  before.satellite_positions_m)
            keep = (before.isl_pairs != victim).all(axis=1) \
                if len(before.isl_pairs) else np.empty(0, dtype=bool)
            assert np.array_equal(after.isl_pairs, before.isl_pairs[keep])
            assert np.array_equal(after.isl_lengths_m,
                                  before.isl_lengths_m[keep])
            assert list(after.gsl_edges) == list(before.gsl_edges)
            for gid, edges in before.gsl_edges.items():
                alive = edges.satellite_ids != victim
                assert np.array_equal(after.gsl_edges[gid].satellite_ids,
                                      edges.satellite_ids[alive])
                assert np.array_equal(after.gsl_edges[gid].lengths_m,
                                      edges.lengths_m[alive])


class TestIncrementalWalk:
    """``RoutingEngine.path_table`` given the previous walk walks only
    the rows whose path can have moved.  On random Walker networks under
    random fault schedules — outages and GSL cuts disconnect pairs and
    move ingress satellites — over snapshots repaired one from the next,
    with destination sets that stay, grow, shrink and reorder, pair
    sets that change, and updates that no walk reads, it equals the full
    walk of the same trees at every step.  It keeps exactly the rows
    whose path did not change and reads no next hop the update
    re-derived (``router._moved``) — none when the destination set
    changed, the update solved afresh or the previous walk is two
    updates old: those walks start cold."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_incremental_walk_equals_full_walk(self, data):
        from repro.routing.engine import path_tuples
        from repro.topology.dynamic_state import make_routing_engine
        from repro.topology.network import LeoNetwork

        healthy, sites, min_elevation_deg = _walker_network(data)
        grid = healthy.isl_pairs
        gids = list(range(len(sites)))

        def window():
            start = data.draw(st.floats(0.0, 60.0))
            return start, start + data.draw(st.floats(0.5, 60.0))

        events = []
        for _ in range(data.draw(st.integers(0, 4))):
            events.append(FaultEvent.satellite_outage(data.draw(
                st.integers(0, healthy.num_satellites - 1)), *window()))
        for _ in range(data.draw(st.integers(0, 4)) if len(grid) else 0):
            a, b = grid[data.draw(st.integers(0, len(grid) - 1))].tolist()
            events.append(FaultEvent.isl_cut(a, b, *window()))
        for _ in range(data.draw(st.integers(0, 2))):
            events.append(FaultEvent.gsl_cut(data.draw(st.sampled_from(gids)),
                                             *window()))
        network = LeoNetwork(healthy.constellation, healthy.ground_stations,
                             min_elevation_deg=min_elevation_deg,
                             faults=FaultSchedule(events))
        router = make_routing_engine(network)
        pool = [(src, dst) for src in gids for dst in gids if src != dst]
        walk = pairs = paths = destinations = None
        time_s = data.draw(st.floats(0.0, 30.0))
        for _ in range(data.draw(st.integers(2, 6))):
            time_s += data.draw(st.sampled_from([0.5, 1.0, 4.0, 30.0]))
            if pairs is None or data.draw(st.booleans()):
                new_pairs = data.draw(st.lists(st.sampled_from(pool),
                                               min_size=1, max_size=12))
            else:
                new_pairs = pairs
            needed = {dst for _, dst in new_pairs}
            if (destinations is None or not needed <= set(destinations)
                    or data.draw(st.booleans())):
                destinations = data.draw(st.permutations(sorted(
                    needed | set(data.draw(st.lists(st.sampled_from(gids),
                                                    max_size=2))))))
            # An update no walk reads: the previous walk is then two
            # updates old.
            unread = walk is not None and data.draw(st.booleans())
            if unread:
                router.route_to_many(network.snapshot(time_s - 0.25),
                                     destinations)
            snapshot = network.snapshot(time_s)
            multi = router.route_to_many(snapshot, destinations)
            full = router.path_table(multi, snapshot, new_pairs)
            previous = previous_row = None
            if walk is not None:
                previous = walk
                if new_pairs is not pairs:
                    row_of = {pair: row for row, pair in enumerate(pairs)}
                    previous_row = np.array([row_of.get(pair, -1)
                                             for pair in new_pairs])
                    previous = walk.take(previous_row)
            got = router.path_table(multi, snapshot, new_pairs, previous)
            assert np.array_equal(got.table, full.table)
            assert np.array_equal(got.counts, full.counts)
            assert np.array_equal(got.distances, full.distances)
            assert not full.kept.any()
            new_paths = path_tuples(got.table, got.counts, got.kept, paths,
                                    previous_row)
            assert new_paths == path_tuples(full.table, full.counts,
                                            full.kept, None)
            if previous is not None:
                # Kept are exactly the rows whose path is the one they
                # had and reads no next hop the update re-derived — when
                # the walk is one repair old with the same destination
                # set; otherwise no row is kept.
                old = path_tuples(previous.table, previous.counts,
                                  np.zeros(len(previous.counts), bool), None)
                moved = router._moved
                reused = (not unread and moved is not None
                          and previous.dst_gids == multi.dst_gids)
                num_nodes = network.num_nodes
                expected = []
                for row, path in enumerate(old):
                    tree = multi.dst_gids.index(new_pairs[row][1])
                    expected.append(
                        reused and path is not None
                        and path == new_paths[row]
                        and not np.isin([tree * num_nodes + node
                                         for node in path[1:]], moved).any())
                assert got.kept.tolist() == expected
            walk, pairs, paths = got, new_pairs, new_paths


class TestWarmPathsMany:
    """A warm ``IncrementalRouter.paths_many`` on a random dense Walker
    shell, over random sequences of ISL cuts, ISL heals and moving
    snapshots, with pair lists that repeat pairs: every step equals a
    fresh ``RoutingEngine``'s, every pair whose path equals the previous
    call's gets back that very tuple, and the next hops the update
    recorded as re-derived (``router._moved``) cover every next hop that
    changed."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_warm_paths_many_equals_fresh(self, data):
        from repro.routing.engine import RoutingEngine
        from repro.routing.incremental import IncrementalRouter
        from repro.topology.network import LeoNetwork

        constellation, stations = _dense_walker(data)
        network = LeoNetwork(constellation, stations,
                             min_elevation_deg=data.draw(st.floats(0.0, 20.0)))
        gid = st.integers(0, len(stations) - 1)
        pairs = data.draw(st.lists(st.tuples(gid, gid), min_size=1,
                                   max_size=10))
        pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=3))
        router = IncrementalRouter(network)
        time_s = data.draw(st.floats(0.0, 6000.0))
        grid = network.snapshot(time_s).isl_pairs
        cut = set()
        paths = hops = None
        for _ in range(data.draw(st.integers(2, 8))):
            action = data.draw(st.sampled_from(["cut", "heal", "move"]))
            if action == "cut":
                cut.add(data.draw(st.integers(0, len(grid) - 1)))
            elif action == "heal" and cut:
                cut.discard(data.draw(st.sampled_from(sorted(cut))))
            else:
                time_s += data.draw(st.sampled_from([0.5, 1.0, 5.0]))
            snapshot = network.snapshot(time_s)
            dead = grid[sorted(cut)]
            keep = ~(snapshot.isl_pairs[:, np.newaxis]
                     == dead[np.newaxis]).all(axis=2).any(axis=1)
            snapshot = dataclasses.replace(
                snapshot, isl_pairs=snapshot.isl_pairs[keep],
                isl_lengths_m=snapshot.isl_lengths_m[keep])
            got = router.paths_many(snapshot, pairs)
            assert got == RoutingEngine(network).paths_many(snapshot, pairs)
            if paths is not None:
                for old, new in zip(paths, got):
                    assert (new is old) == (new == old)
            current = router._prev_result.next_hop
            if hops is not None and router._moved is not None:
                changed = np.flatnonzero(hops.reshape(-1)
                                         != current.reshape(-1))
                assert np.isin(changed, router._moved).all()
            hops, paths = current.copy(), got


class TestFluidMaxMinInvariants:
    """A finite, staggered workload on a random dense Walker shell
    (:func:`_dense_walker`: most draws route flows) under a random fault
    schedule, run by ``FluidSimulation``; its first flow is in play at a
    snapshot instant, so no example checks nothing.  At every
    snapshot the device loads are recomputed from the recorded paths and
    rates, and the allocation is checked to be max-min fair: no device
    carries more than its fault-scaled capacity, each load is the one
    recorded, and every flow in play crosses a saturated device on which
    no flow is faster."""

    CAPACITY_BPS = 1e6
    DURATION_S = 20.0
    STEP_S = 5.0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_snapshot_allocations_are_max_min_fair(self, data):
        from repro.fluid.engine import FluidFlow, FluidSimulation, \
            path_devices
        from repro.topology.network import LeoNetwork

        constellation, stations = _dense_walker(data)
        min_elevation_deg = data.draw(st.floats(0.0, 20.0))
        healthy = LeoNetwork(constellation, stations,
                             min_elevation_deg=min_elevation_deg)
        num_satellites = healthy.num_satellites
        grid = healthy.isl_pairs
        gids = st.integers(0, len(stations) - 1)

        def window():
            start = data.draw(st.floats(0.0, self.DURATION_S))
            return start, start + data.draw(st.floats(1.0, 15.0))

        events = []
        for _ in range(data.draw(st.integers(1, 3))):
            events.append(FaultEvent.packet_loss(
                *window(), data.draw(st.floats(0.1, 0.9)),
                gid=data.draw(gids)))
        for _ in range(data.draw(st.integers(0, 3))):
            events.append(FaultEvent.satellite_outage(
                data.draw(st.integers(0, num_satellites - 1)), *window()))
        for _ in range(data.draw(st.integers(0, 3)) if len(grid) else 0):
            a, b = grid[data.draw(st.integers(0, len(grid) - 1))].tolist()
            events.append(FaultEvent.isl_cut(a, b, *window()))
        for _ in range(data.draw(st.integers(0, 1))):
            events.append(FaultEvent.gsl_cut(data.draw(gids), *window()))
        for _ in range(data.draw(st.integers(0, 2))):
            events.append(FaultEvent.gsl_attenuation(
                data.draw(gids), *window(), data.draw(st.floats(1.0, 30.0))))
        faults = FaultSchedule(events)
        network = LeoNetwork(healthy.constellation, healthy.ground_stations,
                             min_elevation_deg=min_elevation_deg,
                             faults=faults)

        # The first flow is in play at a snapshot instant: it starts on
        # or less than a step before it, and no link carries its size
        # in one step.  The others start and end anywhere.
        instants = np.arange(0.0, self.DURATION_S, self.STEP_S).tolist()
        instant = data.draw(st.sampled_from(instants))
        outlasting_bytes = self.CAPACITY_BPS * self.STEP_S / 8.0
        flows = []
        for index in range(data.draw(st.integers(1, 8))):
            src, dst = data.draw(st.lists(gids, min_size=2, max_size=2,
                                          unique=True))
            if index == 0:
                size = data.draw(st.floats(outlasting_bytes, 2e6))
                start = max(instant - data.draw(st.floats(
                    0.0, self.STEP_S, exclude_max=True)), 0.0)
            else:
                size = data.draw(st.floats(1e4, 2e6))
                start = data.draw(st.floats(0.0, self.DURATION_S))
            flows.append(FluidFlow(src, dst, size_bytes=size,
                                   start_s=start))
        result = FluidSimulation(
            network, flows, link_capacity_bps=self.CAPACITY_BPS).run(
                self.DURATION_S, step_s=self.STEP_S)
        event("a flow eligible at a snapshot: " + str(any(
            record.eligible.any() for record in result.snapshots)))
        event("some rate positive: "
              + str(bool((result.flow_rates_bps > 0.0).any())))

        for t_index, time_s in enumerate(result.times_s.tolist()):
            rates = result.flow_rates_bps[t_index].tolist()
            # The devices of each flow in play: routed, and started by
            # the snapshot instant (to the engine's 1 ns tolerance).
            devices = [
                None if path is None or flow.start_s > time_s + 1e-9
                else path_devices(path, num_satellites)
                for flow, path in zip(flows, result.flow_paths[t_index])]
            loads, fastest = {}, {}
            for rate, on in zip(rates, devices):
                if on is None:
                    assert rate == 0.0
                for device in on or ():
                    loads[device] = loads.get(device, 0.0) + rate
                    fastest[device] = max(fastest.get(device, 0.0), rate)
            recorded = result.device_load_bps[t_index]
            assert set(recorded) == set(loads)
            for device, load in loads.items():
                assert load == pytest.approx(recorded[device], rel=1e-9,
                                             abs=1e-6), device
            keys = list(loads)
            capacity = dict(zip(keys, (
                self.CAPACITY_BPS * factor for factor in
                faults.capacity_factors(keys, num_satellites, time_s))))
            for device, load in loads.items():
                assert load <= capacity[device] * (1 + 1e-9) + 1e-6, device
            saturated = {device for device, load in loads.items()
                         if load >= capacity[device] * (1 - 1e-9) - 1e-6}
            for flow, rate, on in zip(flows, rates, devices):
                assert on is None or any(
                    device in saturated
                    and rate >= fastest[device] * (1 - 1e-9)
                    for device in on), (flow, rate)


class TestFluidClassHistory:
    """A fluid run keeps, per snapshot, one rate and one path per flow
    class among the step's candidates; ``FluidResult`` expands them per
    flow on read.  On random Walker scenarios — static flows or churn,
    with or without a fault schedule or a frozen topology, extended
    mid-run or not, max-min or AIMD (each flow its own class) — the
    expansion must equal the per-flow history recorded alongside
    (``_fluid_oracle.PerFlowRecording``) bit for bit, path tuple for
    path tuple, and so must the run's summary and metric series.  A
    max-min run whose late flows are attached at a snapshot boundary
    must equal the same flows built from t = 0, delivered bits
    included."""

    CAPACITY_BPS = 1e6
    DURATION_S = 15.0
    STEP_S = 2.5

    @staticmethod
    def _network(data):
        """A :func:`_dense_walker` scenario, with or without a random
        outage and ISL cut."""
        from repro.topology.network import LeoNetwork

        constellation, stations = _dense_walker(data)
        faults = None
        if data.draw(st.booleans()):
            num_satellites = constellation.num_satellites
            satellite = data.draw(st.integers(0, num_satellites - 1))
            faults = FaultSchedule([
                FaultEvent.satellite_outage(satellite, 3.0, 9.0),
                FaultEvent.isl_cut(satellite, (satellite + 1)
                                   % num_satellites, 5.0, 12.0)])
        return LeoNetwork(constellation, stations,
                          min_elevation_deg=data.draw(st.floats(0.0, 20.0)),
                          faults=faults), len(stations)

    @pytest.mark.parametrize("kind, extension", [
        ("static", None), ("static", "static"), ("static", "dynamic"),
        ("churn", None), ("churn", "static"), ("churn", "dynamic"),
        ("aimd", None), ("aimd", "static")])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_expansion_equals_the_per_flow_history(self, kind, extension,
                                                   data):
        """``kind``: static flows, churn (finite sizes, staggered
        starts) or AIMD; ``extension``: flows attached at a random
        snapshot boundary — none, static or dynamic ones."""
        from repro.fluid.aimd import AimdFluidSimulation
        from repro.fluid.engine import FluidFlow, FluidSimulation
        from repro.obs import MetricsRegistry
        from _fluid_oracle import PerFlowRecording

        network, num_sites = self._network(data)
        freeze_at_s = data.draw(st.one_of(
            st.none(), st.floats(0.0, self.DURATION_S)))
        # A few endpoint pairs, so classes have several members.
        pairs = data.draw(st.lists(
            st.lists(st.integers(0, num_sites - 1), min_size=2, max_size=2,
                     unique=True), min_size=1, max_size=3))
        steps = round(self.DURATION_S / self.STEP_S)
        extend_at = data.draw(st.integers(1, steps - 1))

        def flows(count, dynamic, earliest_s):
            drawn = []
            for _ in range(count):
                src, dst = data.draw(st.sampled_from(pairs))
                demand = (np.inf if kind == "aimd" else data.draw(
                    st.sampled_from([np.inf, 3e5])))
                if not dynamic:
                    drawn.append(FluidFlow(src, dst, demand_bps=demand))
                    continue
                drawn.append(FluidFlow(
                    src, dst, demand_bps=demand,
                    size_bytes=data.draw(st.one_of(
                        st.none(), st.floats(1e4, 2e6))),
                    start_s=data.draw(st.floats(earliest_s,
                                                self.DURATION_S))))
            return drawn

        base = flows(data.draw(st.integers(1, 8)), kind == "churn", 0.0)
        late = [] if extension is None else flows(
            data.draw(st.integers(1, 4)), extension == "dynamic",
            extend_at * self.STEP_S)

        if kind == "aimd":
            class Recorded(PerFlowRecording, AimdFluidSimulation):
                pass
            simulation = Recorded(network, base,
                                  link_capacity_bps=self.CAPACITY_BPS,
                                  freeze_topology_at_s=freeze_at_s)
        else:
            class Recorded(PerFlowRecording, FluidSimulation):
                pass
            simulation = Recorded(network, base,
                                  link_capacity_bps=self.CAPACITY_BPS,
                                  freeze_topology_at_s=freeze_at_s,
                                  metrics=MetricsRegistry())
        state = simulation.start_run(self.DURATION_S, step_s=self.STEP_S)
        if extension is not None:
            simulation.advance(state, max_steps=extend_at)
            simulation.extend_flows(state, late)
        simulation.advance(state)
        got = simulation.finish(state)

        rates, paths = simulation.per_flow(len(base) + len(late))
        assert got.flow_rates_bps.tobytes() == rates.tobytes()
        assert len(got.flow_paths) == len(paths)
        for got_row, row in zip(got.flow_paths, paths):
            assert len(got_row) == len(row)
            assert all(a is b for a, b in zip(got_row, row))
        summary = got.perf_summary()
        assert summary["mean_rate_bps"] == float(rates.mean())
        assert summary["flows_ever_connected"] == float(
            (rates > 0.0).any(axis=0).sum())
        if kind != "aimd":
            # Each snapshot's series are over the flows it knew.
            series = simulation.metrics.series_logs
            assert series["fluid.mean_rate_bps"].values == [
                float(row.mean()) for row in simulation.recorded_rates]
            assert series["fluid.connected_flows"].values == [
                int((row > 0.0).sum()) for row in simulation.recorded_rates]

        if extension == "dynamic":
            expected = FluidSimulation(
                network, base + late, link_capacity_bps=self.CAPACITY_BPS,
                freeze_topology_at_s=freeze_at_s).run(
                    self.DURATION_S, step_s=self.STEP_S)
            assert got.flow_rates_bps.tobytes() == (
                expected.flow_rates_bps.tobytes())
            assert got.flow_paths == expected.flow_paths
            assert ([list(loads.items()) for loads in got.device_load_bps]
                    == [list(loads.items())
                        for loads in expected.device_load_bps])
            for name in ("flow_delivered_bits", "flow_fct_s",
                         "flow_offered_bits"):
                assert getattr(got, name).tobytes() == (
                    getattr(expected, name).tobytes()), name


class TestFluidEventLoopDifferential:
    """A max-min step solves its snapshot on arrays, then runs one event
    loop whose first interval takes the snapshot rates.  On random
    dense Walker shells under a random fault schedule, with a staggered
    finite workload and more flows attached at a random snapshot
    boundary, it must equal ``_fluid_oracle.RescanningFluidSimulation``
    — which re-solves over every candidate at every event, the snapshot
    instant included — bit for bit: rates, paths, loads in dict order,
    FCTs, delivered and residual bits, and the solve count.  Starts on
    and just after snapshot instants, transfers shorter than a step and
    a frozen topology over dying devices make the snapshot interval end
    in a completion or an arrival, and hold active flows at rate 0."""

    CAPACITY_BPS = 1e6
    DURATION_S = 6.0
    STEP_S = 2.0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_the_rescanning_loop(self, data):
        from repro.fluid.engine import _TIME_EPS_S, FluidFlow, \
            FluidSimulation
        from repro.topology.network import LeoNetwork
        from _fluid_oracle import RescanningFluidSimulation

        constellation, stations = _dense_walker(data)
        min_elevation_deg = data.draw(st.floats(0.0, 20.0))
        healthy = LeoNetwork(constellation, stations,
                             min_elevation_deg=min_elevation_deg)
        grid = healthy.isl_pairs
        gids = st.integers(0, len(stations) - 1)

        def window():
            start = data.draw(st.floats(0.0, self.DURATION_S))
            return start, start + data.draw(st.floats(0.5, 4.0))

        events = [FaultEvent.satellite_outage(data.draw(st.integers(
            0, healthy.num_satellites - 1)), *window())]
        for _ in range(data.draw(st.integers(0, 2)) if len(grid) else 0):
            a, b = grid[data.draw(st.integers(0, len(grid) - 1))].tolist()
            events.append(FaultEvent.isl_cut(a, b, *window()))
        for _ in range(data.draw(st.integers(0, 1))):
            events.append(FaultEvent.packet_loss(
                *window(), data.draw(st.floats(0.1, 0.9)),
                gid=data.draw(gids)))
        # A few endpoint pairs, so classes have several members.  One
        # endpoint's GSL is cut over a later snapshot instant: frozen
        # before the cut, its flows keep their path at rate 0.
        pairs = data.draw(st.lists(
            st.lists(gids, min_size=2, max_size=2, unique=True),
            min_size=1, max_size=3))
        steps = round(self.DURATION_S / self.STEP_S)
        cut_from = (data.draw(st.integers(1, steps - 1)) * self.STEP_S
                    - data.draw(st.floats(0.0, self.STEP_S / 4)))
        events.append(FaultEvent.gsl_cut(
            data.draw(st.sampled_from(pairs))[0], cut_from,
            cut_from + data.draw(st.floats(0.5, 4.0))))
        network = LeoNetwork(constellation, stations,
                             min_elevation_deg=min_elevation_deg,
                             faults=FaultSchedule(events))
        freeze_at_s = data.draw(st.one_of(
            st.none(), st.floats(0.0, self.STEP_S / 2)))
        attach_at = data.draw(st.integers(1, steps - 1))

        def flows(count, first_step):
            drawn = []
            for _ in range(count):
                src, dst = data.draw(st.sampled_from(pairs))
                instant = data.draw(st.integers(first_step, steps - 1)) \
                    * self.STEP_S
                start = instant + data.draw(st.one_of(
                    st.sampled_from([0.0, 0.5 * _TIME_EPS_S,
                                     2.0 * _TIME_EPS_S, 1e-6, 1e-3]),
                    st.floats(0.0, self.STEP_S, exclude_max=True)))
                drawn.append(FluidFlow(
                    src, dst,
                    demand_bps=data.draw(st.sampled_from(
                        [np.inf, 3e5, 1e6 / 3])),
                    size_bytes=data.draw(st.one_of(
                        st.floats(1e2, 2e4), st.floats(1e2, 1e6))),
                    start_s=start))
            return drawn

        base = flows(data.draw(st.integers(1, 6)), 0)
        late = flows(data.draw(st.integers(1, 4)), attach_at)

        def run(engine):
            simulation = engine(network, base,
                                link_capacity_bps=self.CAPACITY_BPS,
                                freeze_topology_at_s=freeze_at_s)
            state = simulation.start_run(self.DURATION_S,
                                         step_s=self.STEP_S)
            simulation.advance(state, max_steps=attach_at)
            simulation.extend_flows(state, late)
            simulation.advance(state)
            return state, simulation.finish(state)

        state, got = run(FluidSimulation)
        expected_state, expected = run(RescanningFluidSimulation)
        assert got.flow_rates_bps.tobytes() == (
            expected.flow_rates_bps.tobytes())
        assert got.flow_paths == expected.flow_paths
        assert ([list(loads.items()) for loads in got.device_load_bps]
                == [list(loads.items())
                    for loads in expected.device_load_bps])
        for name in ("flow_fct_s", "flow_delivered_bits",
                     "flow_offered_bits"):
            assert getattr(got, name).tobytes() == (
                getattr(expected, name).tobytes()), name
        assert state.residual_bits.tobytes() == (
            expected_state.residual_bits.tobytes())
        assert (got.perf["allocations_solved"]
                == expected.perf["allocations_solved"])

        # What ended each snapshot interval, and who sat at rate 0.
        starts = np.array([flow.start_s for flow in base + late])
        ends = starts + got.flow_fct_s
        for time_s, record in zip(got.times_s.tolist(), state.snapshots):
            step_end = time_s + self.STEP_S
            arriving = starts[(starts > time_s + _TIME_EPS_S)
                              & (starts < step_end)]
            first_arrival = arriving.min() if arriving.size else step_end
            ending = ends[(ends > time_s) & (ends < step_end)]
            first_end = ending.min() if ending.size else step_end
            if min(first_end, first_arrival) < step_end:
                event("snapshot interval ends in: "
                      + ("completion" if first_end <= first_arrival
                         else "arrival"))
            rows = record.row_of_cand[record.eligible]
            if any(record.row_paths[row] is not None
                   and record.row_rates[row] == 0.0
                   for row in rows.tolist()):
                event("an active flow at rate 0")


#: JSON-shaped values: what a malformed document may hold anywhere.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=6)


def _json_paths(document, prefix=()):
    """The path of every value inside a JSON document."""
    if isinstance(document, dict):
        items = list(document.items())
    elif isinstance(document, list):
        items = list(enumerate(document))
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


class TestDocumentLoaders:
    """``FaultSchedule.from_dict``, ``NetworkSpec.from_dict``,
    ``TrafficMatrix.from_dict`` and the service's three command parsers
    (``checkpoint._COMMANDS``: a live command's argument or a replayed
    log entry's) read outside documents.  From a valid
    document — every fault kind; for the spec, a workload too — random
    field deletions and values replaced by random JSON-shaped ones come
    out as a loaded object or a ``ValueError``, never a ``KeyError``,
    ``TypeError`` or anything else."""

    @staticmethod
    def _documents():
        from repro.constellations.builder import Constellation
        from repro.ground.stations import GroundStation
        from repro.orbits.shell import Shell
        from repro.sweep.spec import NetworkSpec
        from repro.topology.network import LeoNetwork
        from repro.traffic import FlowRequest, TrafficMatrix, \
            WorkloadSchedule

        faults = FaultSchedule([
            FaultEvent.satellite_outage(3, 5.0, 10.0),
            FaultEvent.isl_cut(1, 2, 0.0, 4.0),
            FaultEvent.gsl_cut(2, 1.0, 4.0),
            FaultEvent.gsl_attenuation(0, 2.0, 9.0, 25.0),
            FaultEvent.packet_loss(2.0, 8.0, 0.25, gid=1)], seed=7)
        stations = [GroundStation(gid=gid, name=f"gs{gid}",
                                  position=GeodeticPosition(lat, lon, 0.0),
                                  is_relay=gid == 2)
                    for gid, (lat, lon) in enumerate(
                        [(0.0, -78.5), (40.4, -3.7), (1.35, 103.8)])]
        network = LeoNetwork(Constellation([Shell(
            name="X1", num_orbits=4, satellites_per_orbit=4,
            altitude_m=600_000.0, inclination_deg=53.0)]), stations,
            min_elevation_deg=10.0, faults=faults)
        from repro.service.checkpoint import _COMMANDS

        workload = WorkloadSchedule([FlowRequest(0.5, 0, 1, 1000),
                                     FlowRequest(1.0, 1, 0, 2000)], seed=3)
        spec = NetworkSpec.from_network(network).with_workload(workload)
        matrix = TrafficMatrix(np.array([[0.0, 1e6], [2e6, 0.0]]))
        return [(FaultSchedule.from_dict, faults.as_dict()),
                (NetworkSpec.from_dict, spec.as_dict()),
                (TrafficMatrix.from_dict, matrix.as_dict()),
                (_COMMANDS["attach_workload"], workload.as_dict()),
                (_COMMANDS["detach_workload"], 1),
                (_COMMANDS["inject_fault"], faults.as_dict()["events"])]

    @settings(max_examples=300, deadline=1000)
    @given(st.data())
    def test_only_value_errors_come_out(self, data):
        import copy

        load, document = data.draw(st.sampled_from(self._documents()))
        document = copy.deepcopy(document)
        for _ in range(data.draw(st.integers(1, 3))):
            paths = list(_json_paths(document))
            if not paths or data.draw(st.integers(0, 9)) == 0:
                document = data.draw(json_values)
                continue
            path = data.draw(st.sampled_from(paths))
            parent = document
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(json_values)
        try:
            load(document)
        except ValueError:
            event("refused")
        else:
            event("loaded")

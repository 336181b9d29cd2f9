"""Controller-evaluation lab tests (repro.cc.lab) and the cc-lab CLI."""

import json

import pytest

from repro.cc.lab import (CLASSIC_CONTROLLERS, CcLabReport, LabScenario,
                          build_scenarios, lab_network, run_cell, run_lab)
from repro.cli import main
from repro.faults import FaultKind

pytestmark = pytest.mark.cc


@pytest.fixture(scope="module")
def base_spec():
    return lab_network("8x8")


@pytest.fixture(scope="module")
def small_report(base_spec) -> CcLabReport:
    """A 2-scenario x 2-controller matrix, shared by the read-only
    assertions below."""
    scenarios = build_scenarios(base_spec, duration_s=4.0, seed=1,
                                fault_axis=("clean",),
                                weather_axis=("clear",),
                                churn_axis=("light", "heavy"))
    return run_lab(scenarios=scenarios,
                   controllers=("newreno", "bandit"), seed=1)


class TestLabNetwork:
    def test_shell_syntax(self):
        spec = lab_network("6x6")
        assert sum(s.num_orbits * s.satellites_per_orbit
                   for s in spec.shells) == 36
        assert len(spec.ground_stations) == 6

    def test_bad_shell_rejected(self):
        with pytest.raises(ValueError, match="8x8"):
            lab_network("not-a-shell")


class TestScenarioMatrix:
    def test_full_matrix_is_eight_scenarios(self, base_spec):
        scenarios = build_scenarios(base_spec, duration_s=4.0, seed=0)
        assert len(scenarios) == 8
        assert len({s.name for s in scenarios}) == 8
        for scenario in scenarios:
            assert set(scenario.axes_dict) == {"fault", "weather", "churn"}
            assert scenario.spec.workload is not None
            assert scenario.spec.workload.num_flows > 0

    def test_axes_control_impairments(self, base_spec):
        (clean,) = build_scenarios(base_spec, duration_s=4.0, seed=0,
                                   fault_axis=("clean",),
                                   weather_axis=("clear",),
                                   churn_axis=("light",))
        (faulty,) = build_scenarios(base_spec, duration_s=4.0, seed=0,
                                    fault_axis=("faulty",),
                                    weather_axis=("storm",),
                                    churn_axis=("heavy",))
        assert clean.spec.faults is None
        # The fault axis's three events plus the storms, one schedule.
        kinds = [event.kind for event in faulty.spec.faults]
        rain = kinds.count(FaultKind.GSL_ATTENUATION)
        assert rain > 0 and len(kinds) - rain == 3
        # Heavier churn offers strictly more load at the same seed.
        assert (faulty.spec.workload.offered_bits
                > clean.spec.workload.offered_bits)

    def test_bad_axis_values_rejected(self, base_spec):
        for kwargs in ({"fault_axis": ("broken",)},
                       {"weather_axis": ("hail",)},
                       {"churn_axis": ("medium",)}):
            with pytest.raises(ValueError, match="axis value"):
                build_scenarios(base_spec, duration_s=4.0, **kwargs)

    def test_scenarios_deterministic_per_seed(self, base_spec):
        a = build_scenarios(base_spec, duration_s=4.0, seed=9,
                            fault_axis=("faulty",), weather_axis=("storm",),
                            churn_axis=("light",))[0]
        b = build_scenarios(base_spec, duration_s=4.0, seed=9,
                            fault_axis=("faulty",), weather_axis=("storm",),
                            churn_axis=("light",))[0]
        assert a.spec.workload.as_dict() == b.spec.workload.as_dict()
        assert a.spec.faults == b.spec.faults


class TestRunCell:
    def test_cell_accounting(self, base_spec):
        (scenario,) = build_scenarios(base_spec, duration_s=4.0, seed=2,
                                      fault_axis=("clean",),
                                      weather_axis=("clear",),
                                      churn_axis=("light",))
        cell = run_cell(scenario, "newreno")
        assert cell.scenario == scenario.name
        assert cell.controller == "newreno"
        assert 0 < cell.flows_completed <= cell.flows_offered
        assert 0.0 < cell.delivered_bits <= cell.offered_bits
        assert 0.0 < cell.delivered_fraction <= 1.0
        assert cell.fct_p50_s <= cell.fct_p90_s <= cell.fct_p99_s
        round_trip = json.dumps(cell.as_dict())
        assert "fct_p50_s" in round_trip


class TestLabReport:
    def test_cells_cover_matrix(self, small_report):
        assert len(small_report.cells) == 4
        assert small_report.scenarios == ["clean-clear-light",
                                          "clean-clear-heavy"]
        assert small_report.controllers == ["newreno", "bandit"]

    def test_winners_and_versus_rows(self, small_report):
        winners = small_report.winners()
        assert set(winners) == set(small_report.scenarios)
        assert set(winners.values()) <= {"newreno", "bandit"}
        versus = small_report.learned_vs_best_classic()
        for scenario, row in versus.items():
            assert row["best_classic"] in CLASSIC_CONTROLLERS
            cell = small_report.cell(scenario, "bandit")
            assert row["learned_fct_p50_s"] == cell.fct_p50_s
            assert row["wins"] == (row["learned_fct_p50_s"]
                                   <= row["best_classic_fct_p50_s"])

    def test_report_serializes(self, small_report, tmp_path):
        path = tmp_path / "lab.json"
        small_report.to_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["kind"] == "cc_lab_report"
        assert len(payload["cells"]) == 4
        assert payload["winners"]
        lines = small_report.format_lines()
        assert lines[0].startswith("scenario")
        assert any("best classic" in line for line in lines)

    def test_serial_equals_workers(self, base_spec):
        scenarios = build_scenarios(base_spec, duration_s=4.0, seed=4,
                                    fault_axis=("faulty",),
                                    weather_axis=("clear",),
                                    churn_axis=("light", "heavy"))
        serial = run_lab(scenarios=scenarios,
                         controllers=("newreno", "bandit"), seed=4,
                         workers=1)
        parallel = run_lab(scenarios=scenarios,
                           controllers=("newreno", "bandit"), seed=4,
                           workers=2)
        assert (json.dumps(serial.as_dict(), sort_keys=True)
                == json.dumps(parallel.as_dict(), sort_keys=True))

    def test_axis_overrides_require_built_scenarios(self, small_report):
        with pytest.raises(ValueError, match="axis overrides"):
            run_lab(scenarios=[], fault_axis=("clean",))


class TestCcLabCli:
    def test_cli_smoke(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["cc-lab", "--shell", "8x8", "--duration", "2",
                     "--seed", "1", "--controllers", "newreno,bandit",
                     "-o", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "scenario" in printed and "winner" in printed
        payload = json.loads(out.read_text())
        assert len(payload["cells"]) == 16  # 8 scenarios x 2 controllers

    def test_cli_rejects_unknown_controller(self, capsys):
        assert main(["cc-lab", "--controllers", "warp-drive"]) == 2
        assert "unknown controller" in capsys.readouterr().err

    def test_cli_rejects_bad_shell(self, capsys):
        assert main(["cc-lab", "--shell", "banana"]) == 2

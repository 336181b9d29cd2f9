"""Controller-evaluation lab tests (repro.cc.lab) and the cc-lab CLI."""

import json

import pytest

from repro.cc.lab import (CcLabReport, build_scenarios, lab_network,
                          run_cell, run_lab)
from repro.cli import main
from repro.faults import FaultKind

pytestmark = pytest.mark.cc


@pytest.fixture(scope="module")
def base_spec():
    return lab_network("8x8")


def _scenarios(base_spec, *names, duration_s=4.0, seed=0):
    """The named scenarios of the eight-scenario matrix, in ``names``
    order."""
    by_name = {scenario.name: scenario for scenario in build_scenarios(
        base_spec, duration_s=duration_s, seed=seed)}
    return [by_name[name] for name in names]


@pytest.fixture(scope="module")
def small_report(base_spec) -> CcLabReport:
    """A 2-scenario x 2-controller matrix, shared by the read-only
    assertions below."""
    scenarios = _scenarios(base_spec, "clean-clear-light",
                           "clean-clear-heavy", seed=1)
    return run_lab(scenarios=scenarios,
                   controllers=("newreno", "vegas"), seed=1)


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
        clean, faulty = _scenarios(base_spec, "clean-clear-light",
                                   "faulty-storm-heavy")
        assert faulty.axes_dict == {"fault": "faulty", "weather": "storm",
                                    "churn": "heavy"}
        assert clean.spec.faults is None
        # The fault axis's three events plus the storms, one schedule.
        kinds = [event.kind for event in faulty.spec.faults]
        rain = kinds.count(FaultKind.GSL_ATTENUATION)
        assert rain > 0 and len(kinds) - rain == 3
        # Heavier churn offers strictly more load at the same seed.
        assert (faulty.spec.workload.offered_bits
                > clean.spec.workload.offered_bits)

    def test_scenarios_deterministic_per_seed(self, base_spec):
        (a,) = _scenarios(base_spec, "faulty-storm-light", seed=9)
        (b,) = _scenarios(base_spec, "faulty-storm-light", seed=9)
        assert a.spec.workload.as_dict() == b.spec.workload.as_dict()
        assert a.spec.faults == b.spec.faults


class TestRunCell:
    def test_cell_accounting(self, base_spec):
        (scenario,) = _scenarios(base_spec, "clean-clear-light", seed=2)
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
        assert small_report.controllers == ["newreno", "vegas"]

    def test_winners(self, small_report):
        winners = small_report.winners()
        assert set(winners) == set(small_report.scenarios)
        for scenario, winner in winners.items():
            p50s = [small_report.cell(scenario, name).fct_p50_s
                    for name in small_report.controllers]
            assert small_report.cell(scenario, winner).fct_p50_s == min(p50s)

    def test_report_serializes(self, small_report, tmp_path):
        path = tmp_path / "lab.json"
        small_report.to_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["kind"] == "cc_lab_report"
        assert len(payload["cells"]) == 4
        assert payload["winners"]
        lines = small_report.format_lines()
        assert lines[0].startswith("scenario")
        assert lines[0].endswith("winner")
        assert len(lines) == 1 + len(small_report.scenarios)

    def test_serial_equals_workers(self, base_spec):
        scenarios = _scenarios(base_spec, "faulty-clear-light",
                               "faulty-clear-heavy", seed=4)
        serial = run_lab(scenarios=scenarios,
                         controllers=("newreno", "bbr"), seed=4,
                         workers=1)
        parallel = run_lab(scenarios=scenarios,
                           controllers=("newreno", "bbr"), seed=4,
                           workers=2)
        assert (json.dumps(serial.as_dict(), sort_keys=True)
                == json.dumps(parallel.as_dict(), sort_keys=True))

    def test_no_controllers_refused(self, base_spec):
        with pytest.raises(ValueError, match="controllers is empty"):
            run_lab(scenarios=[], controllers=[])


class TestCcLabCli:
    def test_cli_smoke(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["cc-lab", "--shell", "8x8", "--duration", "2",
                     "--seed", "1", "--controllers", "newreno,vegas",
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

    def test_cli_rejects_empty_controller_list(self, capsys):
        """``--controllers ,`` names nothing; it used to run an empty
        matrix and exit 0."""
        assert main(["cc-lab", "--controllers", ","]) == 2
        assert "controllers is empty" in capsys.readouterr().err

    def test_cli_bad_duration_names_the_given_value(self, capsys):
        """The error used to quote the internal 0.75x workload horizon
        (-0.75) instead of what the user typed."""
        assert main(["cc-lab", "--duration", "-1"]) == 2
        err = capsys.readouterr().err
        assert "got -1.0" in err and "0.75" not in err

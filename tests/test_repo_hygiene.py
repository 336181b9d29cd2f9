"""Repository hygiene: examples compile, benchmarks compile, docs exist."""

import py_compile
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _python_files(directory: str):
    return sorted((REPO_ROOT / directory).glob("*.py"))


class TestExamplesCompile:
    @pytest.mark.parametrize("path", _python_files("examples"),
                             ids=lambda p: p.name)
    def test_example_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_at_least_three_examples(self):
        assert len(_python_files("examples")) >= 3

    def test_examples_have_docstrings_and_main(self):
        for path in _python_files("examples"):
            source = path.read_text()
            assert source.lstrip().startswith(
                ("#!/usr/bin/env python3", '"""')), path.name
            assert '__main__' in source, path.name


class TestBenchmarksCompile:
    @pytest.mark.parametrize("path", _python_files("benchmarks"),
                             ids=lambda p: p.name)
    def test_benchmark_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    def test_every_paper_figure_has_a_benchmark(self):
        names = {p.name for p in _python_files("benchmarks")}
        expected = {
            "test_table1_shells.py", "test_fig2_scalability.py",
            "test_fig3_rtt_fluctuations.py", "test_fig4_cwnd.py",
            "test_fig5_newreno_vegas.py", "test_fig6_rtt_vs_geodesic.py",
            "test_fig7_rtt_variation.py", "test_fig8_path_changes.py",
            "test_fig9_timestep.py", "test_fig10_unused_bandwidth.py",
            "test_fig11_trajectories.py", "test_fig12_ground_view.py",
            "test_fig13_path_evolution.py", "test_fig14_15_utilization.py",
            "test_fig16_17_bent_pipe_paths.py",
            "test_fig18_bent_pipe_rtt.py", "test_fig19_bent_pipe_tcp.py",
        }
        missing = expected - names
        assert not missing, f"figures without benchmarks: {missing}"


class TestDocumentation:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = REPO_ROOT / name
            assert path.exists(), name
            assert len(path.read_text()) > 1000, name

    def test_design_covers_every_experiment(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for token in ["Table 1", "Fig. 2", "Fig. 9", "Fig. 10",
                      "Fig. 16/17", "Fig. 19"]:
            assert token in design, token

    def test_public_modules_have_docstrings(self):
        import importlib
        import repro
        for module_name in [
            "repro.geo", "repro.orbits", "repro.constellations",
            "repro.ground", "repro.topology", "repro.routing",
            "repro.simulation", "repro.transport", "repro.fluid",
            "repro.analysis", "repro.viz", "repro.core",
        ]:
            module = importlib.import_module(module_name)
            assert module.__doc__, module_name


class TestAnalysisHasCallers:
    def test_every_exported_function_is_used_outside_tests(self):
        """The paper's statistics live in ``repro.analysis`` *and* are
        what the product, the figure benchmarks or the examples compute
        them with — an exported function nothing but ``tests/`` calls is
        a second implementation waiting to drift."""
        import inspect
        import re

        import repro.analysis as analysis
        sources = [path.read_text()
                   for directory in ("src", "benchmarks", "examples")
                   for path in sorted((REPO_ROOT / directory).rglob("*.py"))
                   if "analysis" not in path.relative_to(REPO_ROOT).parts]
        unused = [name for name in analysis.__all__
                  if inspect.isfunction(getattr(analysis, name))
                  and not any(re.search(rf"\b{name}\b", source)
                              for source in sources)]
        assert not unused, unused

"""Repository hygiene: examples compile, benchmarks compile, docs exist."""

import ast
import py_compile
import re
from collections import Counter
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


def _span(node):
    """0-based slice of a statement's source lines, decorators included."""
    first = min([node.lineno]
                + [d.lineno for d in getattr(node, "decorator_list", [])])
    return slice(first - 1, node.end_lineno)


def _words(lines):
    return Counter(re.findall(r"\w+", "\n".join(lines)))


def _is_export(path, node):
    """An ``__all__`` list, or a re-export import of an ``__init__.py``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return path.name == "__init__.py"
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _public_definitions(tree):
    """``(qualified name, node)`` of every public module-level function,
    class and method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        members = [(node.name, node)]
        if isinstance(node, ast.ClassDef):
            members += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef)]
        for qualified, member in members:
            if not member.name.startswith("_"):
                yield qualified, member


class TestAnalysisHasCallers:
    def test_every_exported_function_is_used_outside_tests(self):
        """``src/`` is what the product runs: every public module-level
        function, class and method under ``src/repro`` is named — word
        match — somewhere in ``src/`` (``__all__`` lists, ``__init__.py``
        re-exports and its own defining statement aside),
        ``benchmarks/``, ``examples/`` or README.md.  A public name
        nothing but ``tests/`` calls is a second implementation waiting
        to drift; oracles live under ``tests/``."""
        mentions = _words((REPO_ROOT / "README.md").read_text().splitlines())
        defined = {}  # "file:qualified name" -> (name, mentions of itself)
        for directory in ("src", "benchmarks", "examples"):
            for path in sorted((REPO_ROOT / directory).rglob("*.py")):
                source = path.read_text()
                lines = source.splitlines()
                if directory == "src":
                    tree = ast.parse(source)
                    for node in tree.body:
                        if _is_export(path, node):
                            span = _span(node)
                            lines[span] = [""] * len(lines[span])
                    for qualified, member in _public_definitions(tree):
                        key = f"{path.relative_to(REPO_ROOT)}:{qualified}"
                        defined[key] = (
                            member.name,
                            _words(lines[_span(member)])[member.name])
                mentions += _words(lines)
        unused = [key for key, (name, own) in defined.items()
                  if mentions[name] <= own]
        assert not unused, unused

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


_DOTTED_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _code_mentions(root):
    """Identifiers ``root`` names in code: ``Name`` ids, ``Attribute``
    attrs, import alias names and string constants that are dotted
    identifier paths (split on ``.``).  Bare string statements —
    docstrings — and comments name nothing."""
    found = Counter()
    stack = [root]
    while stack:
        node = stack.pop()
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and _DOTTED_PATH.fullmatch(node.value)):
            found.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return found


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
        function, class and method under ``src/repro`` is named by code
        somewhere in ``src/`` (``__all__`` lists, ``__init__.py``
        re-exports and its own definition aside), ``benchmarks/`` or
        ``examples/`` — see ``_code_mentions``; README.md, docstrings and
        comments describe the product, they do not run it.  A public
        name nothing but ``tests/`` calls is a second implementation
        waiting to drift; oracles live under ``tests/``.  Same-named
        definitions are pooled: a name counts as used only when
        mentioned more often than inside all of its definitions
        together, so two unused twins cannot vouch for each other."""
        mentions = Counter()
        defined = {}  # "file:qualified name" -> (name, mentions of itself)
        for directory in ("src", "benchmarks", "examples"):
            for path in sorted((REPO_ROOT / directory).rglob("*.py")):
                tree = ast.parse(path.read_text())
                if directory == "src":
                    tree.body = [node for node in tree.body
                                 if not _is_export(path, node)]
                    for qualified, member in _public_definitions(tree):
                        key = f"{path.relative_to(REPO_ROOT)}:{qualified}"
                        defined[key] = (member.name,
                                        _code_mentions(member)[member.name])
                mentions += _code_mentions(tree)
        own = Counter()
        for name, count in defined.values():
            own[name] += count
        unused = [key for key, (name, _) in defined.items()
                  if mentions[name] <= own[name]]
        assert not unused, unused


# (file, callable, parameter) that no product call sets, and why it stays.
_UNSET_OPTIONS_KEPT = {
    ("src/repro/cli.py", "main", "argv"):
        "the tests drive the CLI in-process",
    ("src/repro/service/driver.py", "LiveSimulationService.resume",
     "expected_spec"):
        "a safety check on a checkpoint file, which is outside input",
    ("src/repro/obs/spans.py", "SpanProfiler.__init__", "capacity"):
        "the tests shrink the memory bound to reach the dropped-span path",
    ("src/repro/obs/spans.py", "SpanProfiler.__init__", "clock"):
        "the tests substitute a fake clock to pin span durations",
}


def _defaulted_parameters(path, tree):
    """``(key, callable name, signature, parameter)`` for every
    parameter of a public function or method (explicit ``__init__``
    included) that has a default.  A method's callable name is its own name, an
    ``__init__``'s is its class's; ``signature`` is the positional
    parameter names a call fills, ``self``/``cls`` dropped."""
    rel = path.relative_to(REPO_ROOT)
    members = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            members.append((node.name, node.name, node, False))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    continue
                if sub.name == "__init__":
                    members.append((f"{node.name}.__init__", node.name, sub,
                                    True))
                elif not sub.name.startswith("_"):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in sub.decorator_list)
                    members.append((f"{node.name}.{sub.name}", sub.name, sub,
                                    not static))
    for qualified, name, func, bound in members:
        args = func.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if bound:
            positional = positional[1:]
        defaulted = list(zip(positional[len(positional)
                                        - len(args.defaults):],
                             args.defaults))
        defaulted += [(a.arg, d) for a, d in zip(args.kwonlyargs,
                                                 args.kw_defaults)
                      if d is not None]
        for param, _ in defaulted:
            yield (str(rel), qualified, param), name, positional, param


def _calls_by_name(tree):
    """Every call in ``tree`` under the callable name it invokes: the
    ``Name`` or ``Attribute`` it calls, its class for ``cls(...)``, and
    each direct base class for ``super().__init__(...)``."""
    calls = []

    def visit(node, cls_name, bases):
        if isinstance(node, ast.ClassDef):
            cls_name = node.name
            bases = [b.id if isinstance(b, ast.Name) else b.attr
                     for b in node.bases
                     if isinstance(b, (ast.Name, ast.Attribute))]
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names = [cls_name if func.id == "cls" and cls_name
                         else func.id]
            elif (isinstance(func, ast.Attribute) and func.attr == "__init__"
                    and isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Name)
                    and func.value.func.id == "super"):
                names = bases
            elif isinstance(func, ast.Attribute):
                names = [func.attr]
            else:
                names = []
            calls.extend((name, node) for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, cls_name, bases)

    visit(tree, None, [])
    return calls


def _sets(call, signature, param):
    """Whether ``call`` passes ``param``: by keyword, positionally at its
    index in ``signature``, or through ``*args`` / ``**kwargs``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    index = signature.index(param) if param in signature else None
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return index is not None and index >= position
        if position == index:
            return True
    return False


class TestOptionsHaveCallers:
    def test_every_defaulted_parameter_is_set_outside_tests(self):
        """A default is an option: its other settings run code, or set
        numbers, that the product never uses.  Every defaulted parameter
        of a public callable under ``src/repro`` must be set by some call
        in ``src/``, ``benchmarks/`` or ``examples/`` (see
        ``_defaulted_parameters``, ``_calls_by_name`` and ``_sets``);
        same-named callables are pooled, and calls in ``tests/`` never
        count, so a value only a test passes is an option the product
        does not have.  The exemptions in ``_UNSET_OPTIONS_KEPT`` each
        say why they stay."""
        options = []
        calls = {}
        for directory in ("src", "benchmarks", "examples"):
            for path in sorted((REPO_ROOT / directory).rglob("*.py")):
                tree = ast.parse(path.read_text())
                if directory == "src":
                    options += _defaulted_parameters(path, tree)
                for name, call in _calls_by_name(tree):
                    calls.setdefault(name, []).append(call)
        unset = {key for key, name, signature, param in options
                 if not any(_sets(call, signature, param)
                            for call in calls.get(name, ()))}
        named = sorted(unset.symmetric_difference(_UNSET_OPTIONS_KEPT))
        assert not named, "\n".join(
            f"{path}:{qualified}({param})"
            + (" is exempt but set"
               if (path, qualified, param) in _UNSET_OPTIONS_KEPT else "")
            for path, qualified, param in named)

"""Tests of the top-level package surface (exports, exceptions, metadata)."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import repro
from repro import exceptions


class TestPackageSurface:
    def test_version_is_defined(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    def test_all_is_sorted_and_unique(self):
        assert list(repro.__all__) == sorted(set(repro.__all__))

    @pytest.mark.parametrize("module", [
        "repro.circuit", "repro.core", "repro.mor", "repro.analysis",
        "repro.linalg", "repro.passivity", "repro.validation", "repro.io",
        "repro.cli", "repro.perf", "repro.perf.workloads",
    ])
    def test_subpackages_import_cleanly(self, module):
        assert importlib.import_module(module) is not None

    def test_linalg_does_not_import_analysis(self):
        # linalg is the substrate every other subpackage builds on; an
        # import of repro.analysis from it (even a lazy one) is a layering
        # inversion.
        linalg_dir = Path(importlib.import_module("repro.linalg").__file__)
        offenders = []
        for path in sorted(linalg_dir.parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}"
                             for alias in node.names]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                offenders += [f"{path.name}: {name}" for name in names
                              if name.startswith("repro.analysis")]
        assert offenders == []

    def test_obs_imports_only_stdlib_and_itself(self):
        # repro.obs promises to be a stdlib-only leaf every layer can
        # import; inside it, tracing may import metrics and so on.
        obs_dir = Path(importlib.import_module("repro.obs").__file__).parent
        offenders = []
        for path in sorted(obs_dir.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue  # relative imports stay inside repro.obs
                offenders += [
                    f"{path.name}: {name}" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names
                    and not (name + ".").startswith("repro.obs.")]
        assert offenders == []

    def test_public_callables_have_docstrings(self):
        undocumented = [
            name for name in repro.__all__
            if callable(getattr(repro, name))
            and not inspect.getdoc(getattr(repro, name))
        ]
        assert undocumented == []


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if (inspect.isclass(obj) and issubclass(obj, Exception)
                    and obj is not exceptions.ReproError):
                if obj.__module__ == "repro.exceptions":
                    assert issubclass(obj, exceptions.ReproError), name

    def test_netlist_parse_error_formats_location(self):
        err = exceptions.NetlistParseError("bad token", line_number=7,
                                           line="R1 a b oops")
        assert "line 7" in str(err)
        assert "R1 a b oops" in str(err)

    def test_budget_error_carries_sizes(self):
        err = exceptions.ResourceBudgetExceeded("too big",
                                                required_bytes=100,
                                                budget_bytes=10)
        assert err.required_bytes == 100
        assert err.budget_bytes == 10

    def test_catching_base_class_catches_all(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.SingularSystemError("singular")
        with pytest.raises(exceptions.ReproError):
            raise exceptions.NetlistParseError("parse")

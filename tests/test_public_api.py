"""Public API surface tests: exports exist, docstrings present."""

from __future__ import annotations

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.signal",
    "repro.data",
    "repro.augment",
    "repro.core",
    "repro.discord",
    "repro.baselines",
    "repro.metrics",
    "repro.eval",
    "repro.viz",
    "repro.validation",
    "repro.jobs",
    "repro.serve",
    "repro.runtime",
    "repro.obs",
    "repro.pipeline",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExports:
    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_package_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and package.__doc__.strip()

    def test_public_callables_documented(self, package_name):
        """Every public class/function reachable from __all__ has a docstring."""
        package = importlib.import_module(package_name)
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__ and obj.__doc__.strip(), (
                    f"{package_name}.{name} lacks a docstring"
                )


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_headline_imports(self):
        from repro import TriAD, TriADConfig, TriADDetection  # noqa: F401

    def test_cli_importable(self):
        from repro.cli import build_parser, main  # noqa: F401

        parser = build_parser()
        assert parser.prog == "repro"

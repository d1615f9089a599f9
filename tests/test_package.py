"""Package-level contract tests."""

import repro
from repro import (
    CalibrationError,
    ConfigurationError,
    GeometryError,
    ReproError,
    SolverError,
)


class TestPackage:
    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_exception_hierarchy(self):
        for exc in (ConfigurationError, SolverError, GeometryError, CalibrationError):
            assert issubclass(exc, ReproError)
        assert issubclass(ReproError, Exception)

    def test_subpackages_import(self):
        import repro.baselines
        import repro.channel
        import repro.core
        import repro.experiments
        import repro.optim
        import repro.spectral

        assert repro.core.RoArrayEstimator.name == "ROArray"

    def test_public_api_exports(self):
        from repro.baselines import ArrayTrackEstimator, SpotFiEstimator
        from repro.core import RoArrayEstimator

        for cls in (RoArrayEstimator, SpotFiEstimator, ArrayTrackEstimator):
            assert hasattr(cls, "analyze")
            assert hasattr(cls, "estimate_direct_path")
            assert isinstance(cls.name, str)

    def test_every_all_name_resolves_once(self):
        """Each module's ``__all__`` lists names the module really has,
        each once — a deleted name left in an export list fails here."""
        import collections
        import importlib
        import pkgutil

        problems = []
        checked = 0
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            names = getattr(module, "__all__", None)
            if names is None:
                continue
            checked += 1
            for name, count in collections.Counter(names).items():
                if count > 1:
                    problems.append(f"{info.name}.__all__ lists {name!r} {count} times")
                if not hasattr(module, name):
                    problems.append(f"{info.name}.__all__ names missing {name!r}")
        assert checked >= 10
        assert not problems, "\n".join(problems)

    def test_every_imported_public_name_is_in_all(self):
        """The reverse of the check above: each public name a package
        ``__init__`` binds with ``from … import`` is listed in its
        ``__all__``, so ``from package import *`` exports what the
        package imports for its callers."""
        import ast
        import importlib
        import pkgutil
        from pathlib import Path

        problems = []
        checked = 0
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if not info.ispkg:
                continue
            module = importlib.import_module(info.name)
            names = getattr(module, "__all__", None)
            if names is None:
                continue
            checked += 1
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            for node in tree.body:
                if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if not bound.startswith("_") and bound not in names:
                        problems.append(f"{info.name} imports {bound!r} but omits it from __all__")
        assert checked >= 10
        assert not problems, "\n".join(problems)

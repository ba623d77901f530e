"""Repository-level hygiene checks.

Cheap guards that keep the non-library artifacts (examples, benchmarks)
importable and the public API surface intact without executing their heavy
payloads.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

EXAMPLE_FILES = sorted((REPO_ROOT / "examples").glob("*.py"))
BENCH_FILES = sorted((REPO_ROOT / "benchmarks").glob("*.py"))

PUBLIC_MODULES = [
    "repro",
    "repro.analysis",
    "repro.control",
    "repro.core",
    "repro.devtools",
    "repro.errors",
    "repro.floorplan",
    "repro.platform",
    "repro.power",
    "repro.serving",
    "repro.sim",
    "repro.solver",
    "repro.thermal",
    "repro.units",
    "repro.workloads",
]


class TestArtifactsParse:
    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.name for p in EXAMPLE_FILES]
    )
    def test_example_parses_and_has_main(self, path):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        assert "main" in names, f"{path.name} should define main()"

    @pytest.mark.parametrize(
        "path", BENCH_FILES, ids=[p.name for p in BENCH_FILES]
    )
    def test_benchmark_parses(self, path):
        ast.parse(path.read_text(), filename=str(path))

    def test_every_figure_has_a_benchmark(self):
        slugs = {p.name for p in BENCH_FILES}
        for fig in ("fig01", "fig02", "fig06a", "fig06b", "fig07", "fig08",
                    "fig09", "fig10", "fig11"):
            assert any(fig in s for s in slugs), f"missing benchmark for {fig}"


class TestPublicApi:
    @pytest.mark.parametrize("module", PUBLIC_MODULES)
    def test_module_imports_and_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name}"

    def test_docstrings_on_public_packages(self):
        for module in PUBLIC_MODULES:
            mod = importlib.import_module(module)
            assert mod.__doc__, f"{module} lacks a module docstring"


class TestImportCost:
    def test_cli_import_loads_no_heavy_scipy_submodules(self):
        """``scipy.linalg``/``scipy.optimize`` load only where they are used.

        Every CLI process pays for what ``import repro.cli`` drags in; the
        reference thermal model and the scipy solver backend import them
        on first use instead.  A fresh interpreter is needed because this
        test process has usually imported them already.
        """
        probe = (
            "import sys, repro.cli; "
            "print(' '.join(m for m in ('scipy.linalg', 'scipy.optimize') "
            "if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout.split() == []

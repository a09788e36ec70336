"""Every name a conicstab module exports, or the benchmark tracer binds, must exist."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

MODULES = [
    "conicstab",
    "conicstab.cli",
    "conicstab.cones",
    "conicstab.constab",
    "conicstab.det",
    "conicstab.linalg",
    "conicstab.poly",
    "conicstab.tolerances",
    "conicstab.unistab",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [sym for sym in getattr(module, "__all__", ()) if not hasattr(module, sym)]
    assert missing == []


def test_bench_tracer_binds_every_layer():
    # The benchmark's tracer rebinds entry points by name and raises if one
    # is gone; a rename in the package must fail here, not only in a traced
    # benchmark run.
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.Tracer().install()"],
        cwd=root / "bench",
        env=env,
        check=True,
        timeout=120,
    )

"""Every name a conicstab module exports through ``__all__`` must exist."""

import importlib

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

"""Every name a conicstab module exports, or the benchmark tracer binds, must exist.

Every module-level private helper of the package must be used in it.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pathlib
import re
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


def test_every_tolerance_is_read():
    # A ToleranceProfile field that no module reads can be set and does
    # nothing; every field is documented in the class docstring, and no
    # removed one still is.
    from conicstab.tolerances import ToleranceProfile

    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "conicstab"
    text = "\n".join(p.read_text() for p in src.glob("*.py") if p.name != "tolerances.py")
    names = [f.name for f in dataclasses.fields(ToleranceProfile)]
    assert [n for n in names if not re.search(rf"\.{n}\b", text)] == []
    documented = re.findall(r"^(\w+) : ", inspect.cleandoc(ToleranceProfile.__doc__), re.M)
    assert [n for n in names if n not in documented] == []
    assert [n for n in documented if n not in names] == []


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


def test_bench_tracer_names_exist():
    # Every function in the tracer's ENTRY_POINTS and every method in its
    # METHODS must exist on its module or class.  A layer with several
    # names still binds when one of them is renamed away, so the install
    # above does not catch that; the tables are read here without
    # installing, so nothing is rebound.
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    script = (
        "import json, tracing\n"
        "missing = [f'{home.__name__}.{name}' for home, names in tracing.ENTRY_POINTS.values()\n"
        "           for name in names if not hasattr(home, name)]\n"
        "missing += [f'{cls.__name__}.{name}' for classes, names in tracing.METHODS.values()\n"
        "            for cls in classes for name in names if not hasattr(cls, name)]\n"
        "print(json.dumps(missing))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=root / "bench",
        env=env,
        check=True,
        timeout=120,
        capture_output=True,
        text=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("workload", ["sampling_sweep", "hko_pairs", "certificates"])
def test_bench_tracer_reaches_every_expected_layer(workload):
    # One traced pass of each workload must record calls to every layer it
    # is expected to reach (``layers.EXPECTED_CALLS``: det.expand on
    # certificates, unistab.roots and linalg.eigh on sampling_sweep, ...), so
    # a refactor that routes around a traced entry point fails here, not
    # only in a traced benchmark run.
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    script = (
        "import json, tracing, worker, workloads\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install([workloads])\n"
        f"worker.measure(workloads.{workload}(1), 0, tracer)\n"
        f"print(json.dumps(tracing.missing_calls(tracer.summary(), {workload!r})))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=root / "bench",
        env=env,
        check=True,
        timeout=120,
        capture_output=True,
        text=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []


def _private_definitions_unreferenced():
    """Module-level private functions and classes of ``src/conicstab`` that nothing else names.

    A definition counts as referenced when another top-level statement of its
    own module names it, or another module imports it from its module and a
    statement there names it.  Its own body (a recursive call) does not count.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "conicstab"
    trees = {p.stem: ast.parse(p.read_text()) for p in src.glob("*.py")}

    def names_in(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
        }

    used = {}  # (module, name) -> referenced
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                others = set().union(*(names_in(n) for n in tree.body if n is not node))
                used[mod, node.name] = node.name in others
    for mod, tree in trees.items():
        imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
        rest = set().union(*(names_in(n) for n in tree.body if n not in imports))
        for node in imports:
            for alias in node.names:
                if (node.module, alias.name) in used and (alias.asname or alias.name) in rest:
                    used[node.module, alias.name] = True
    return sorted(f"{mod}.{name}" for (mod, name), ok in used.items() if not ok)


def test_every_private_helper_is_used():
    # Delete kernels, wrappers and aliases that nothing in src/ calls: a
    # helper orphaned by a deletion fails here.
    assert _private_definitions_unreferenced() == []


def test_eigensolves_stay_in_linalg_and_the_univariate_predicates():
    # The samplers' screens decide "lambda_min >= t" from pivots
    # (linalg.min_eig_at_least), so an eigensolve may appear only in linalg's
    # one Hermitian solver and in the Bezoutian eigenvalues that the
    # univariate predicates read inertia from (unistab._bezout_eigs).
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "conicstab"
    homes = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                else:
                    names = {getattr(node, "attr", None), getattr(node, "id", None)}
                if names & {"eigvalsh", "eigh"}:
                    homes.add((path.name, getattr(top, "name", None)))
    assert {home for home in homes if home[0] != "linalg.py"} == {("unistab.py", "_bezout_eigs")}

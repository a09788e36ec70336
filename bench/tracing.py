"""Per-layer tracing of conicstab from outside the package.

The tracer rebinds each entry point listed in ``ENTRY_POINTS`` at every
module that holds a reference to it (the package imports most of these
names directly, e.g. ``constab`` calls its own ``roots`` and
``_roots_batch`` bindings), and wraps the methods in ``METHODS`` on every
class that defines them.  Each call opens a span (layer, start, end,
parent span, operation id); spans stay in memory and are written out when
the run ends.  Self time is a span's duration minus its direct children.

The metrics derived from the spans, and the layers each workload must
call, are listed in ``layers.py``.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

import conicstab.cli
import conicstab.cones
import conicstab.constab
import conicstab.det
import conicstab.linalg
import conicstab.poly
import conicstab.unistab
from layers import EXPECTED_CALLS, LAYER_METRICS

MODULES = [
    conicstab.cli,
    conicstab.cones,
    conicstab.constab,
    conicstab.det,
    conicstab.linalg,
    conicstab.poly,
    conicstab.unistab,
]

OP_LAYER = "bench.op"  # the benchmark's own span around one operation

# layer -> (module, function names): rebound wherever the function object is held.
ENTRY_POINTS = {
    "unistab.roots_batch": (conicstab.unistab, ["_roots_batch"]),
    "unistab.roots": (conicstab.unistab, ["roots"]),
    "unistab.predicates": (
        conicstab.unistab,
        ["is_stable_univariate", "is_real_rooted", "interlacing", "wronskian_sign_leq0"],
    ),
    "constab.falsify": (conicstab.constab, ["falsify_k_stability"]),
    "constab.hyper": (conicstab.constab, ["hyperbolicity_check"]),
    "constab.improj": (conicstab.constab, ["imaginary_projection_sample"]),
    "constab.pencil": (conicstab.constab, ["pencil_hko_check"]),
    "constab.wronskian": (conicstab.constab, ["wronskian_certificate"]),
    "constab.linear": (conicstab.constab, ["linear_k_stability"]),
    "poly.parse": (conicstab.poly, ["parse"]),
    "linalg.eigh": (conicstab.linalg, ["hermitian_eigh"]),
    "det.expand": (conicstab.det, ["expand_det_polynomial"]),
    "det.certify": (conicstab.det, ["thm54_certify"]),
    "det.khatri_rao": (conicstab.det, ["khatri_rao"]),
    "cli.main": (conicstab.cli, ["main"]),
}

_CONE_CLASSES = [
    c for c in vars(conicstab.cones).values()
    if isinstance(c, type) and issubclass(c, conicstab.cones.Cone)
]

# layer -> (classes, method names): wrapped on each class that defines the method.
METHODS = {
    "poly.eval": ([conicstab.poly.MultiPoly], ["__call__"]),
    "poly.restrict_line": ([conicstab.poly.MultiPoly], ["restrict_line"]),
    "poly.fiber": ([conicstab.poly.MultiPoly], ["as_univariate_in", "substitute_partial"]),
    "poly.algebra": ([conicstab.poly.MultiPoly], ["__add__", "__mul__", "scale"]),
    "cones.draw": (_CONE_CLASSES, ["interior_from_normals"]),
    "cones.margin_batch": (_CONE_CLASSES, ["interior_margin_batch"]),
    "cones.margin": (_CONE_CLASSES, ["interior_margin"]),
    "cones.dual_margin": (_CONE_CLASSES, ["dual_margin"]),
}


def _rows(arg_index):
    return lambda args: int(np.shape(args[arg_index])[0])


def _points(args):
    shape = np.shape(args[1])
    return int(shape[0]) if len(shape) == 2 else 1


# layer -> {counter: f(args)} counted before the call, so raising calls count too.
INPUT_COUNTS = {
    "unistab.roots_batch": {"rows": _rows(0)},
    "cones.draw": {"rows": _rows(1)},
    "cones.margin_batch": {"rows": _rows(1)},
    "poly.eval": {"points": _points},
    # Work the dense eigensolver is asked for, labelled as computed (n^3 per call).
    "linalg.eigh": {"ops_computed": lambda args: int(np.shape(args[0])[0]) ** 3},
}


def _verdict_counts(v):
    return {"draws": v.samples, "witnesses": int(v.status == "falsified")}


# layer -> f(result) -> {counter: value}, counted after a successful call.
OUTPUT_COUNTS = {
    "constab.falsify": _verdict_counts,
    "constab.hyper": _verdict_counts,
}

class Tracer:
    """Span recorder; ``enabled`` gates recording so checks stay untraced."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_raised = array("b")
        self.counts: dict[tuple[str, str], int] = {}
        self.stack: list[int] = []
        self.op_id = -1
        self.enabled = False
        self.rebound: dict[str, int] = {}

    def layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def open(self, lid: int) -> int:
        idx = len(self.span_start)
        self.span_layer.append(lid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_raised.append(0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int, raised: bool) -> None:
        self.span_end[idx] = time.perf_counter()
        self.span_raised[idx] = int(raised)
        self.stack.pop()

    def count(self, layer: str, key: str, value: int) -> None:
        self.counts[(layer, key)] = self.counts.get((layer, key), 0) + value

    def wrap(self, layer: str, fn):
        lid = self.layer_id(layer)
        before = INPUT_COUNTS.get(layer, {})
        after = OUTPUT_COUNTS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            for key, measure in before.items():
                tracer.count(layer, key, measure(args))
            idx = tracer.open(lid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, raised=True)
                raise
            tracer.close(idx, raised=False)
            if after is not None:
                for key, value in after(out).items():
                    tracer.count(layer, key, value)
            return out

        return traced

    def install(self, extra_modules=()) -> None:
        """Rebind every entry point in the package and in ``extra_modules``."""
        modules = MODULES + list(extra_modules)
        for layer, (home, names) in ENTRY_POINTS.items():
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self.rebound[layer] = self.rebound.get(layer, 0) + 1
        for layer, (classes, names) in METHODS.items():
            for cls in classes:
                for name in names:
                    if name in vars(cls):
                        setattr(cls, name, self.wrap(layer, vars(cls)[name]))
                        self.rebound[layer] = self.rebound.get(layer, 0) + 1
        missing = [layer for layer in list(ENTRY_POINTS) + list(METHODS) if not self.rebound.get(layer)]
        if missing:
            raise RuntimeError(f"no binding found to trace for: {', '.join(missing)}")
        self.layer_id(OP_LAYER)

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        self.enabled = True
        return self.open(self._layer_ids[OP_LAYER])

    def end_op(self, idx: int, raised: bool) -> None:
        self.close(idx, raised)
        self.enabled = False

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, self_s, raised and counters per layer, from the spans."""
        layer = np.frombuffer(self.span_layer, dtype=np.uint16)
        start = np.frombuffer(self.span_start)
        end = np.frombuffer(self.span_end)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        raised = np.frombuffer(self.span_raised, dtype=np.int8)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n_layers = len(self.layers)
        out = {}
        calls = np.bincount(layer, minlength=n_layers)
        selfs = np.bincount(layer, weights=self_time, minlength=n_layers)
        raises = np.bincount(layer, weights=raised, minlength=n_layers)
        for lid, name in enumerate(self.layers):
            out[name] = {"calls": int(calls[lid]), "self_s": float(selfs[lid]), "raised": int(raises[lid])}
        for (name, key), value in self.counts.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "raised": 0})[key] = value
        # Scalar root solves made directly from the sampling module.
        roots_id = self._layer_ids["unistab.roots"]
        constab_ids = [i for i, name in enumerate(self.layers) if name.startswith("constab.")]
        from_constab = (layer == roots_id) & has_parent
        from_constab[from_constab] = np.isin(layer[parent[from_constab]], constab_ids)
        out["unistab.roots"]["calls_from_constab"] = int(np.count_nonzero(from_constab))
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                layers=np.array(self.layers),
                layer=np.frombuffer(self.span_layer, dtype=np.uint16),
                start=np.frombuffer(self.span_start),
                end=np.frombuffer(self.span_end),
                parent=np.frombuffer(self.span_parent, dtype=np.int32),
                op=np.frombuffer(self.span_op, dtype=np.int32),
                raised=np.frombuffer(self.span_raised, dtype=np.int8),
            )


def layer_metrics(summary: dict, n_ops: int, ops_per_s_untraced: float, ops_per_s_traced: float) -> dict[str, float]:
    """The LAYER_METRICS values, normalised per traced operation."""

    def get(layer, key):
        return summary.get(layer, {}).get(key, 0)

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    draws = get("constab.falsify", "draws") + get("constab.hyper", "draws")
    witnesses = get("constab.falsify", "witnesses") + get("constab.hyper", "witnesses")
    out = {}
    for name in LAYER_METRICS:
        if name == "unistab.rows_per_draw":
            out[name] = ratio(get("unistab.roots_batch", "rows"), draws)
        elif name == "constab.draw_yield":
            out[name] = ratio(draws, get("cones.draw", "rows"))
        elif name == "constab.confirm_yield":
            out[name] = ratio(witnesses, get("unistab.roots", "calls_from_constab"))
        elif name == "trace.ops_per_s_untraced":
            out[name] = ops_per_s_untraced
        elif name == "trace.ops_per_s_traced":
            out[name] = ops_per_s_traced
        elif name == "trace.overhead":
            out[name] = ratio(ops_per_s_untraced, ops_per_s_traced) - 1.0
        else:
            layer, key = name.rsplit(".", 1)
            out[name] = ratio(get(layer, key), n_ops)
    return out


def missing_calls(summary: dict, workload: str) -> list[str]:
    return [layer for layer in EXPECTED_CALLS[workload] if summary.get(layer, {}).get("calls", 0) == 0]

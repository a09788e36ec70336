"""Per-layer metrics of the traced run and what each should move.

``LAYER_METRICS`` maps each metric the traced run reports to the end-to-end
metrics (and workloads) it should move.  Counts and self times are per
traced operation.  ``EXPECTED_CALLS`` lists, per workload, the layers that
must record calls: a zero there means an import site was not rebound, and
the traced run fails instead of reporting it.

Standard library only: ``run.py`` reads this without importing conicstab.
"""

from __future__ import annotations

# metric -> [(end-to-end metric it should move, workload), ...]
LAYER_METRICS = {
    "unistab.roots_batch.calls": [("draws_per_s", "sampling_sweep"), ("ops_per_s", "hko_pairs")],
    "unistab.roots_batch.rows": [("draws_per_s", "sampling_sweep"), ("op_ms_p90", "sampling_sweep"), ("ops_per_s", "hko_pairs")],
    "unistab.roots_batch.self_s": [("draws_per_s", "sampling_sweep"), ("op_ms_p90", "sampling_sweep"), ("ops_per_s", "hko_pairs")],
    "unistab.rows_per_draw": [("falsify_ms_p50", "sampling_sweep")],
    "unistab.roots.calls": [("op_ms_p50", "certificates"), ("falsify_ms_p50", "sampling_sweep")],
    "unistab.roots.self_s": [("op_ms_p50", "certificates"), ("falsify_ms_p50", "sampling_sweep")],
    "unistab.roots.raised": [("op_ms_p50", "certificates"), ("falsify_ms_p50", "sampling_sweep")],
    "unistab.predicates.calls": [("op_ms_p50", "certificates")],
    "unistab.predicates.self_s": [("op_ms_p50", "certificates")],
    "constab.falsify.calls": [("draws_per_s", "sampling_sweep"), ("ops_per_s", "hko_pairs")],
    "constab.falsify.self_s": [("draws_per_s", "sampling_sweep"), ("ops_per_s", "hko_pairs")],
    "constab.hyper.self_s": [("draws_per_s", "sampling_sweep")],
    "constab.improj.self_s": [("ops_per_s", "sampling_sweep")],
    "constab.pencil.self_s": [("ops_per_s", "hko_pairs")],
    "constab.wronskian.self_s": [("ops_per_s", "hko_pairs")],
    "constab.linear.self_s": [("ops_per_s", "certificates")],
    "constab.linear.raised": [("fail_ratio", "certificates")],
    "constab.draw_yield": [("ops_per_s", "hko_pairs")],
    "constab.confirm_yield": [("falsify_ms_p50", "sampling_sweep")],
    "poly.eval.calls": [("draws_per_s", "sampling_sweep")],
    "poly.eval.points": [("draws_per_s", "sampling_sweep")],
    "poly.eval.self_s": [("draws_per_s", "sampling_sweep")],
    "poly.restrict_line.calls": [("falsify_ms_p50", "sampling_sweep")],
    "poly.restrict_line.self_s": [("falsify_ms_p50", "sampling_sweep")],
    "poly.fiber.calls": [("falsify_ms_p50", "sampling_sweep")],
    "poly.fiber.self_s": [("falsify_ms_p50", "sampling_sweep")],
    "poly.algebra.calls": [("op_ms_p90", "certificates")],
    "poly.algebra.self_s": [("op_ms_p90", "certificates")],
    "poly.parse.self_s": [("op_ms_p50", "hko_pairs")],
    "cones.draw.calls": [("ops_per_s", "hko_pairs")],
    "cones.draw.rows": [("ops_per_s", "hko_pairs")],
    "cones.draw.self_s": [("ops_per_s", "hko_pairs")],
    "cones.margin_batch.calls": [("draws_per_s", "sampling_sweep")],
    "cones.margin_batch.rows": [("draws_per_s", "sampling_sweep")],
    "cones.margin_batch.self_s": [("draws_per_s", "sampling_sweep")],
    "cones.margin.calls": [("falsify_ms_p50", "sampling_sweep"), ("ops_per_s", "certificates")],
    "cones.margin.self_s": [("falsify_ms_p50", "sampling_sweep"), ("ops_per_s", "certificates")],
    "cones.dual_margin.calls": [("falsify_ms_p50", "sampling_sweep"), ("ops_per_s", "certificates")],
    "cones.dual_margin.self_s": [("falsify_ms_p50", "sampling_sweep"), ("ops_per_s", "certificates")],
    "linalg.eigh.calls": [("ops_per_s", "certificates"), ("op_ms_p90", "certificates"), ("falsify_ms_p50", "sampling_sweep")],
    "linalg.eigh.self_s": [("ops_per_s", "certificates"), ("op_ms_p90", "certificates"), ("falsify_ms_p50", "sampling_sweep")],
    "linalg.eigh.raised": [("ops_per_s", "certificates")],
    "linalg.eigh.ops_computed": [("ops_per_s", "certificates"), ("op_ms_p90", "certificates")],
    "det.expand.calls": [("op_ms_p90", "certificates")],
    "det.expand.self_s": [("op_ms_p90", "certificates")],
    "det.certify.calls": [("op_ms_p90", "certificates")],
    "det.certify.self_s": [("op_ms_p90", "certificates")],
    "det.khatri_rao.calls": [("op_ms_p90", "certificates")],
    "det.khatri_rao.self_s": [("op_ms_p90", "certificates")],
    "cli.main.calls": [("op_ms_p50", "hko_pairs")],
    "cli.main.self_s": [("op_ms_p50", "hko_pairs")],
    "bench.op.self_s": [],
    "trace.ops_per_s_untraced": [],
    "trace.ops_per_s_traced": [],
    "trace.overhead": [],
}

# Layers that must record calls on each workload (see the module docstring).
EXPECTED_CALLS = {
    "sampling_sweep": [
        "unistab.roots_batch", "unistab.roots", "constab.falsify", "constab.hyper",
        "constab.improj", "poly.eval", "poly.restrict_line", "poly.fiber", "cones.draw",
        "cones.margin_batch", "cones.margin", "linalg.eigh",
    ],
    "hko_pairs": [
        "unistab.roots_batch", "constab.falsify", "constab.pencil", "constab.wronskian",
        "poly.eval", "poly.algebra", "poly.parse", "cones.draw", "cli.main",
    ],
    "certificates": [
        "unistab.roots", "unistab.predicates", "constab.linear", "poly.algebra",
        "cones.margin", "cones.dual_margin", "linalg.eigh", "det.expand", "det.certify",
        "det.khatri_rao",
    ],
}


def metric_unit(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    if name.startswith("trace.ops_per_s"):
        return "1/s"
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith("_yield") or name.endswith("rows_per_draw"):
        return "ratio"
    return "count/op"

"""One benchmark process: import conicstab, build a workload, warm up, measure.

``run.py`` starts this script from the root of a checkout with ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread.  It prints ``READY`` once set-up
(import, input generation, one untimed warm-up operation) is done; with
``--role setup`` it stops there.  With ``--role measure`` it then runs the
workload's operation list in whole passes, one operation at a time, until
``--seconds`` have elapsed, and prints one JSON line of raw results.
``attempted`` and ``failed`` count the operations of one pass; latencies
cover every pass.

With ``--trace 1`` the first third of the time runs untraced and the rest
traced, so the tracing overhead is measured inside the same process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from speed import REFERENCE_EVERY_S, reference_slice, scaled


def measure(ops, seconds: float, tracer=None) -> dict:
    # Imported here: workloads imports conicstab, whose origin main() checks first.
    from workloads import FALSIFIED, NOT_FALSIFIED, CheckFailed, KnownMiss

    lat_ms: list[float] = []
    refs = [reference_slice()]
    op_ref: list[int] = []  # index of the speed probe taken just before each operation
    since_ref = 0.0
    nf_verdicts = nf_draws = 0
    nf_ops: list[int] = []  # positions in lat_ms of not_falsified sampling calls
    falsified_ops: list[int] = []  # ... and of falsified ones
    # failed counts the first pass only: every later pass repeats the same
    # operations and must repeat their outcomes, so the count depends on the
    # seed alone and not on how many passes fit in the time.
    failed = wrong = nondeterministic = 0
    failures: dict[str, str] = {}
    first_pass = None
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        records = []
        pass_failed = 0
        for i, op in enumerate(ops):
            span = tracer.begin_op(i) if tracer else None
            err = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising operation is a counted failure
                err = exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op(span, raised=err is not None)
            lat_ms.append(dt * 1e3)
            op_ref.append(len(refs) - 1)
            since_ref += dt
            if err is not None:
                pass_failed += 1
                record = ["raised", type(err).__name__]
                failures.setdefault(op.name, f"raised {type(err).__name__}: {err}")
            else:
                try:
                    record = op.check(out)
                except CheckFailed as exc:
                    pass_failed += 1
                    wrong += 1
                    record = ["wrong", str(exc)]
                    failures.setdefault(op.name, f"wrong output: {exc}")
                except KnownMiss as exc:
                    pass_failed += 1
                    record = ["miss", str(exc)]
                    failures.setdefault(op.name, str(exc))
                if op.sampling and out.status == NOT_FALSIFIED:
                    nf_verdicts += 1
                    nf_draws += out.samples
                    nf_ops.append(len(lat_ms) - 1)
                elif op.sampling and out.status == FALSIFIED:
                    falsified_ops.append(len(lat_ms) - 1)
            records.append([op.name, record])
            if since_ref >= REFERENCE_EVERY_S:
                refs.append(reference_slice())
                since_ref = 0.0
        if first_pass is None:
            first_pass = records
            failed = pass_failed
        elif records != first_pass:
            diff = [a[0] for a, b in zip(records, first_pass) if a != b]
            nondeterministic += len(diff)
            for name in diff:
                failures.setdefault(name, "outcome differs between passes")
        passes += 1
        if time.perf_counter() >= deadline:
            break
    refs.append(reference_slice())
    scaled_ms = [scaled(lat, 0.5 * (refs[k] + refs[k + 1])) for lat, k in zip(lat_ms, op_ref)]
    digest = hashlib.sha256(json.dumps(first_pass, sort_keys=True).encode()).hexdigest()[:16]
    return {
        "passes": passes,
        "ops_per_pass": len(ops),
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "nondeterministic": nondeterministic,
        "failures": failures,
        "lat_ms": lat_ms,
        "scaled_ms": scaled_ms,
        "reference_s": refs,
        "nf_verdicts": nf_verdicts,
        "nf_draws": nf_draws,
        "nf_time_s": sum(scaled_ms[i] for i in nf_ops) / 1e3,
        "falsified_ms": [scaled_ms[i] for i in falsified_ops],
        "verdict_digest": digest,
        "records": first_pass,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    import conicstab

    src = os.path.abspath("src")
    if not os.path.abspath(conicstab.__file__).startswith(src + os.sep):
        print(f"error: conicstab imported from {conicstab.__file__}, not from ./src", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    ops[0].check(ops[0].run())  # untimed warm-up; a failure here aborts the run
    print("READY", flush=True)
    print(f"REFERENCE {sorted(reference_slice() for _ in range(5))[2]!r}", flush=True)
    if args.role == "setup":
        return 0

    if not args.trace:
        result = measure(ops, args.seconds)
    else:
        import tracing

        untraced = measure(ops, args.seconds / 3)
        tracer = tracing.Tracer()
        tracer.install([workloads])
        result = measure(ops, args.seconds * 2 / 3, tracer)
        summary = tracer.summary()
        if args.trace_file:
            tracer.write(args.trace_file)
        missing = tracing.missing_calls(summary, args.workload)
        if missing:
            print(
                f"error: traced run recorded no calls to {', '.join(missing)} on "
                f"{args.workload}; an import site was not rebound",
                file=sys.stderr,
            )
            return 3
        rate = lambda r: len(r["scaled_ms"]) / (sum(r["scaled_ms"]) / 1e3)  # noqa: E731
        result["layers"] = tracing.layer_metrics(summary, len(result["lat_ms"]), rate(untraced), rate(result))
        result["untraced_digest"] = untraced["verdict_digest"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

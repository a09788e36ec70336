"""Benchmark for conicstab: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload sampling_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one client in one process sends its next
operation only after the previous one completes.  BLAS is pinned to one
thread in every benchmark process.  ``setup_s`` is the median over
``SETUP_STARTS`` fresh processes of the time from process start to the
first timed operation (interpreter start, imports, input generation and one
untimed warm-up operation).  The last process also measures: it repeats the
workload's operation list in whole passes until ``--seconds`` have passed,
checks every output, and reports per-operation latencies.  ``attempted``
and ``failed`` count the distinct operations of the seeded list (one pass);
every later pass must repeat the first pass's outcomes, so both numbers
depend on the seed alone, not on how many passes fit in ``--seconds``.
With ``--trace 1`` it reports the per-layer metrics of ``layers.LAYER_METRICS`` instead.
Times are scaled by the speed probe of ``speed.py``; unscaled values are
printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit and sample count, the workload's
``verdict_digest`` and ``fail_ratio``, and the extra sampling metrics.  A
full report goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time

BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_PIN)  # before numpy loads (speed imports it), in this process too

import layers  # noqa: E402
import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sampling_sweep", "hko_pairs", "certificates")
SETUP_STARTS = 5
RUN_LIMIT_S = 170.0  # a run is abandoned, with an error, after this long
OUT_DIR = ".bench_out"
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every process
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class _Worker:
    """A worker process whose output lines are read by a thread, so every wait has a timeout."""

    def __init__(self, role: str, workload: str, seed: int, seconds: float, trace: int,
                 trace_file: str | None):
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ]
        if trace_file:
            cmd += ["--trace-file", trace_file]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env())
        self.lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def readline(self, deadline: float) -> str:
        try:
            line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise BenchError("worker did not answer in time") from None
        if line is None:
            raise BenchError(f"worker exited early (exit {self.proc.wait()})")
        return line

    def wait_ready(self, deadline: float) -> tuple[float, float]:
        """Seconds from start to READY, and the speed probe the worker took after it."""
        if self.readline(deadline).strip() != "READY":
            raise BenchError("worker did not report READY")
        ready = time.perf_counter() - self.started
        probe = self.readline(deadline).split()
        if len(probe) != 2 or probe[0] != "REFERENCE":
            raise BenchError("worker did not report its speed probe")
        return ready, float(probe[1])

    def finish(self, deadline: float) -> str:
        """The last line the worker prints before exiting with code 0."""
        last = ""
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchError("worker did not finish in time") from None
            if line is None:
                break
            last = line
        code = self.proc.wait()
        if code != 0:
            raise BenchError(f"worker exited with {code}")
        return last

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups, probes = [], []
    trace_file = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.npz") if trace else None
    for k in range(SETUP_STARTS):
        measuring = k == SETUP_STARTS - 1
        worker = _Worker("measure" if measuring else "setup", workload, seed, seconds, trace,
                         trace_file if measuring else None)
        try:
            ready, probe = worker.wait_ready(deadline)
            setups.append(ready)
            probes.append(probe)
            out = worker.finish(deadline)
        finally:
            worker.stop()
    result = json.loads(out)
    result["setup_starts_s"] = setups
    result["setup_reference_s"] = probes
    return result


def _latency_metrics(lat_ms: list[float], setup_s: list[float], rss_mb: float) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": rss_mb,
    }


def summarize(workload: str, seed: int, seconds: float, trace: int, r: dict) -> dict:
    """Derive the metrics, print them, save the report; returns the result line."""
    n = len(r["lat_ms"])
    setup_scaled = [speed.scaled(t, p) for t, p in zip(r["setup_starts_s"], r["setup_reference_s"])]
    e2e = _latency_metrics(r["scaled_ms"], setup_scaled, r["peak_rss_mb"])
    raw = _latency_metrics(r["lat_ms"], r["setup_starts_s"], r["peak_rss_mb"])
    fail_ratio = r["failed"] / r["attempted"]
    correct = r["wrong"] == 0 and r["nondeterministic"] == 0
    if trace and r["untraced_digest"] != r["verdict_digest"]:
        correct = False
        r["failures"]["(tracing)"] = "traced and untraced passes gave different outcomes"

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}  "
          f"(closed loop, 1 client, BLAS threads pinned to 1)")
    print(f"  verdict_digest {r['verdict_digest']}  ({r['ops_per_pass']} ops per pass, "
          f"{r['passes']} passes, identical on every pass: {r['nondeterministic'] == 0})")
    print(f"  fail_ratio     {fail_ratio:.6f} ratio  ({r['failed']} of {r['attempted']} operations per pass; "
          f"{r['wrong']} wrong outputs over {n} timed operations)")
    for name, why in sorted(r["failures"].items()):
        print(f"    failed: {name}: {why}")
    extra = {}
    if not trace:
        counts = {
            "setup_s": f"median of {SETUP_STARTS} process starts",
            "peak_rss_mb": "measuring process",
        }
        for name, value in e2e.items():
            unit = END_TO_END_UNITS[name]
            print(f"  {name:14} {value:.6g} {unit}  (n={counts.get(name, f'{n} operations')}; "
                  f"unscaled {raw[name]:.6g} {unit})")
        if r["nf_time_s"] > 0:
            extra["draws_per_s"] = r["nf_draws"] / r["nf_time_s"]
            print(f"  {'draws_per_s':14} {extra['draws_per_s']:.6g} 1/s  "
                  f"({r['nf_draws']} draws in {r['nf_verdicts']} not_falsified verdicts)")
        if r["falsified_ms"]:
            extra["falsify_ms_p50"] = statistics.median(r["falsified_ms"])
            print(f"  {'falsify_ms_p50':14} {extra['falsify_ms_p50']:.6g} ms  "
                  f"(n={len(r['falsified_ms'])} falsified verdicts)")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        metrics = {}
        for name, value in r["layers"].items():
            unit = layers.metric_unit(name)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:28} {value:.6g} {unit}  (n={n} traced operations)")

    os.makedirs(OUT_DIR, exist_ok=True)
    report = dict(r, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  blas_pin=BLAS_PIN, fail_ratio=fail_ratio, end_to_end=e2e, end_to_end_unscaled=raw,
                  sampling=extra)
    with open(os.path.join(OUT_DIR, f"report-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(report, fh)
    return {"correct": correct, "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="conicstab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "conicstab", "__init__.py")):
        print("error: run from the root of a conicstab checkout (src/conicstab not found)", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            r = run_workload(name, args.seed, args.seconds, args.trace)
            lines[name] = summarize(name, args.seed, args.seconds, args.trace, r)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        line = lines[names[0]]
    else:
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

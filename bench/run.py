"""lyapstein benchmark: time to a checked verdict on four seeded workloads.

Usage (from the repository root)::

    python3 bench/run.py --workload catalog --seed 1 --seconds 8 --trace 0

Workloads: ``catalog``, ``psd-random``, ``mmatrix``, ``operator-desk``
(see ``workloads.py`` and ``BENCHMARK.json`` for what each runs and why).

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Set-up is timed in ``SETUP_RUNS`` fresh processes (the set-up-only ones
and the measured one) and reported as the median; the measured process
is a closed loop with one client that runs the workload in whole passes
(at least two, see ``worker.py``).  Every call's time is scaled to the
reference host by a host-speed probe timed around it, and an instance's
latency is the median of its scaled calls over the passes.
``--trace 1`` runs one pass untraced, then one pass twice traced on
exactly the same instances, and reports the per-module metrics of the
first traced pass, the tracing overhead, and any count that differs
between the two traced passes as a span error.

Every process gets BLAS threads capped at the number of usable CPUs.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 if any
output failed its check and 2 if the benchmark could not run at all.
Full results, spans and the environment go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402  (pure stdlib; needs the bench directory on the path)

WORKLOAD_NAMES = ("catalog", "psd-random", "mmatrix", "operator-desk")
# End-to-end metrics printed by every run but reported only with the per-module
# metrics of --trace 1, where no bound applies: both ratios are 0 on some
# workloads, and the tail is one order statistic of the run's samples.
UNBOUNDED = ("latency_tail_ms", "undecided_ratio", "failed_ratio")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, tag: str, *extra: str) -> dict:
    """Run one worker to completion; returns its result with the set-up time
    added, as measured (``setup_raw_s``) and scaled to the reference host."""
    out = OUT / f"{args.workload}-{args.seed}-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out), *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), timeout=WORKER_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} timed out after {WORKER_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"worker {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(out.read_text())
    result["setup_raw_s"] = result["ready"] - start
    result["setup_s"] = result["setup_raw_s"] * result["setup_speed"]
    return result


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it: (value, percentile)."""
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def per_instance(calls: list[list[float]]) -> list[float]:
    """Each instance's latency: the median of its calls."""
    return [statistics.median(times) for times in calls]


def end_to_end(main: dict, setups: list[float]) -> dict:
    """Metrics of one run, from the scaled call times (see ``worker.measure``)."""
    latency = per_instance(main["scaled"])
    tail_value, tail_pct = tail([t for times in main["scaled"] for t in times])
    n = main["attempted"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "instances_per_s": (len(latency) / sum(latency), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latency), "ms"),
        "latency_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "undecided_ratio": (main["undecided"] / n, "ratio"),
        "failed_ratio": (main["failed"] / n, "ratio"),
    }, tail_pct


def report_run(args, main: dict, metrics: dict, tail_pct: float) -> None:
    raw = per_instance(main["raw"])
    print(f"workload {args.workload} seed {args.seed}: {len(main['keys'])} instances, "
          f"{main['calls']} calls in {len(main['pass_s'])} passes, "
          f"{main['busy_s']:.2f} s timed "
          f"(passes {', '.join(f'{t:.2f}' for t in main['pass_s'])} s)")
    print(f"  host speed {main['host_speed']:.3f} of the reference host; unscaled: "
          f"instances_per_s {len(raw) / sum(raw):.6g}, "
          f"latency_p50_ms {1e3 * statistics.median(raw):.6g}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{tail_pct:.1f}: {TAIL_BEYOND} of {main['calls']} calls beyond it)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_RUNS} processes)"
        print(f"  {name:<18s} {value:.6g} {unit}{note}")
    print(f"  env: {json.dumps(main['env'], sort_keys=True)}")
    print_problems(main)


def print_problems(result: dict) -> None:
    for item in [{"instance": "warmup", "problems": result["warmup_problems"]}] + result["problems"]:
        if item["problems"]:
            print(f"  FAILED {item['instance']}: {'; '.join(item['problems'])[:500]}")


def run_plain(args) -> tuple[dict, dict]:
    setups = [spawn(args, f"setup{i}", "--setup-only")["setup_s"]
              for i in range(SETUP_RUNS - 1)]
    main = spawn(args, "main")
    metrics, tail_pct = end_to_end(main, setups + [main["setup_s"]])
    report_run(args, main, metrics, tail_pct)
    return main, metrics


def run_traced(args) -> tuple[dict, dict]:
    base = spawn(args, "untraced", "--passes", "1")
    traced = [spawn(args, f"traced{k}", "--passes", "1", "--trace", "1",
                    "--spans", str(OUT / f"spans-{args.workload}-{args.seed}-{k}.jsonl"))
              for k in (1, 2)]
    first, second = (t["trace"] for t in traced)
    c1, c2 = tracing.counts(first), tracing.counts(second)
    mismatched = sorted(k for k in c1.keys() | c2.keys() if c1.get(k) != c2.get(k))
    layers = tracing.layer_metrics(first)
    layers["trace.overhead_ratio"] = traced[0]["busy_s"] / base["busy_s"] - 1.0
    layers["trace.span_errors"] = first["span_errors"] + second["span_errors"] + len(mismatched)
    untraced, _ = end_to_end(base, [base["setup_s"]])
    for name in UNBOUNDED:
        layers[name] = untraced[name][0]
    print(f"workload {args.workload} seed {args.seed} traced: {base['attempted']} instances, "
          f"untraced {base['busy_s']:.2f} s, traced {traced[0]['busy_s']:.2f} s "
          f"and {traced[1]['busy_s']:.2f} s")
    for name, value in layers.items():
        print(f"  {name:<52s} {value:.6g}")
    if mismatched:
        print(f"  counts differ between the two traced runs: {', '.join(mismatched)}")
    print(f"  env: {json.dumps(base['env'], sort_keys=True)}")
    for result in [base] + traced:
        print_problems(result)
    units = {name: untraced[name][1] if name in untraced else tracing.unit(name)
             for name in layers}
    merged = dict(base)
    merged["failed"] = max(r["failed"] for r in [base] + traced)
    merged["warmup_problems"] = [p for r in [base] + traced for p in r["warmup_problems"]]
    return merged, {k: (v, units[k]) for k, v in layers.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "lyapstein" / "__init__.py").is_file():
        print(f"error: no lyapstein sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        main_result, metrics = run_traced(args) if args.trace else run_plain(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace == 0:
        metrics = {k: v for k, v in metrics.items() if k not in UNBOUNDED}
    correct = main_result["failed"] == 0 and not main_result["warmup_problems"]
    summary = {"correct": correct, "attempted": main_result["attempted"],
               "failed": main_result["failed"],
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "env": main_result["env"]}, indent=1))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

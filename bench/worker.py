"""One measured process of the lyapstein benchmark (started by ``run.py``).

It imports the program, generates the seeded inputs, builds the first
pass's list of instances (writing their input files) and runs one untimed
warm-up instance; that is its set-up, and it records the moment set-up
ends.  Unless ``--setup-only`` is given it then runs whole passes as one
closed-loop client, timing each call and checking each output after the
clock stops.  It stops after at least ``MIN_PASSES`` passes once the
timed seconds reach ``--seconds``, after exactly ``--passes`` passes, or
after exactly ``--count`` calls.  With ``--trace 1`` the module
wrappers are installed first.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MAX_PROBLEMS = 20
# Each instance is timed at least twice, in passes some seconds apart, so that
# its latency is not set by one stretch of a slow host.
MIN_PASSES = 2
REPEAT_S = 0.05
MAX_REPEATS = 5
# The host-speed probe: PROBES runs of it between consecutive calls.  Its
# nominal time is its median on the reference host (2 vCPUs of an Intel Xeon,
# numpy 2.4.6 with scipy-openblas 0.3.31) when that host runs at full speed.
PROBES = 3
PROBE_ROUNDS = 25
PROBE_MATS = [m + m.T for m in np.random.default_rng(20230508).standard_normal((8, 4, 4))]
PROBE_NOMINAL_S = 0.002
SETUP_PROBES = 7  # right after set-up ends, to scale the set-up time


def environment() -> dict:
    import scipy

    def blas(mod):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps.get('name')} {deps.get('version')}"
        except Exception:  # older show_config without dict mode: leave it unrecorded
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np), "scipy_blas": blas(scipy),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--count", type=int)
    p.add_argument("--passes", type=int)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, SRC)
        first = wl.instances(0)
        warm = wl.warmup()
        warm_problems, _ = warm.check(warm.run())
        result = {"ready": time.monotonic(), "warmup_problems": warm_problems,
                  "setup_speed": host_speed([probe() for _ in range(SETUP_PROBES)])}
        if not args.setup_only:
            result.update(measure(wl, first, args, tracer))
            result["env"] = environment()
            if tracer is not None:
                result["trace"] = tracer.summary()
                if args.spans:
                    tracer.dump(args.spans)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result))
    return 0


def probe() -> float:
    """Seconds the host takes right now for a fixed numpy kernel.

    The kernel is the kind of step the program spends its time in (small
    symmetric eigendecompositions driven from Python) but no lyapstein
    code, so a change to the program never changes it.
    """
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        for m in PROBE_MATS:
            w, q = np.linalg.eigh(m)
            (q * np.maximum(w, 0.0)) @ q.T
    return time.perf_counter() - start


def host_speed(samples: list[float]) -> float:
    """Host speed relative to the reference host: 1 there, 0.5 at half speed."""
    return PROBE_NOMINAL_S / statistics.median(samples)


def measure(wl, first, args, tracer) -> dict:
    """Run whole passes of ``wl``, the first being ``first``; returns every
    timing and the checks, with the calls grouped by position in the list.

    Every call is timed, and also *scaled*: multiplied by the host speed
    from ``PROBES`` probes just before and just after it, which turns it
    into the time the call would take on the reference host at full speed
    (unless the workload is not ``scaled``).  In a timed run an instance
    that is done within ``REPEAT_S`` is called again, up to ``MAX_REPEATS``
    calls a pass.  A replay
    (``--passes`` or ``--count``) makes exactly one call per instance and
    pass, so that two traced replays make the same calls.  An instance is
    attempted once a pass whatever its calls; it failed, or was undecided,
    if any call was.
    """
    raw = [[] for _ in first]
    scaled = [[] for _ in first]
    pass_s, problems = [], []
    tally = {"attempted": 0, "failed": 0, "undecided": 0, "calls": 0}
    replay = args.passes is not None or args.count is not None
    probes = [probe() for _ in range(PROBES)]

    def call(index, inst) -> tuple[float, bool, list]:
        if tracer is not None:
            tracer.begin_instance(tally["calls"], inst.key)
        start = time.perf_counter()
        try:
            out = inst.run()
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_instance()
        tally["calls"] += 1
        before = probes[-PROBES:]
        probes.extend(probe() for _ in range(PROBES))
        raw[index].append(elapsed)
        speed = host_speed(before + probes[-PROBES:]) if wl.scaled else 1.0
        scaled[index].append(elapsed * speed)
        if error is not None:
            return elapsed, False, [f"raised: {error}"]
        try:
            found, was_undecided = inst.check(out)
        except Exception:
            found, was_undecided = [f"checker raised: {traceback.format_exc(limit=3)}"], False
        return elapsed, was_undecided, found

    done = False
    while not done:
        instances = wl.instances(len(pass_s)) if pass_s else first
        pass_s.append(0.0)
        for index, inst in enumerate(instances):
            spent = calls = 0
            undecided, found = False, []
            while calls == 0 or (not replay and spent < REPEAT_S and calls < MAX_REPEATS):
                elapsed, was_undecided, problems_found = call(index, inst)
                spent += elapsed
                calls += 1
                undecided = undecided or was_undecided
                found = found or problems_found
            pass_s[-1] += spent
            tally["attempted"] += 1
            tally["undecided"] += undecided
            if found:
                tally["failed"] += 1
                if len(problems) < MAX_PROBLEMS:
                    problems.append({"instance": inst.key, "problems": found})
            if args.count is not None and tally["calls"] >= args.count:
                done = True
                break
        if args.passes is not None:
            done = len(pass_s) >= args.passes
        elif args.count is None:
            done = len(pass_s) >= MIN_PASSES and sum(pass_s) >= args.seconds
    reached = [k for k, times in enumerate(raw) if times]
    return {"keys": [first[k].key for k in reached], "raw": [raw[k] for k in reached],
            "scaled": [scaled[k] for k in reached], "pass_s": pass_s, "busy_s": sum(pass_s),
            "host_speed": host_speed(probes), "problems": problems, **tally}


if __name__ == "__main__":
    sys.exit(main())

"""The traced run wraps every binding site once and repeats its counts exactly.

Each test runs in a fresh interpreter, because installed wrappers stay for
the life of the process.  Run with ``python -m pytest bench/test_tracing.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _python(code: str) -> str:
    env = {"PYTHONPATH": f"{SRC}:{BENCH}", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_binding_site_is_wrapped_once():
    out = _python(
        "import numpy as np\n"
        "from lyapstein import conefeas, operators, symspace\n"
        "import tracing\n"
        "original = symspace.smat\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "assert conefeas.smat is symspace.smat is operators.smat\n"
        "assert symspace.smat.__wrapped__ is original\n"
        "tracer.begin_instance(0, 'probe')\n"
        "conefeas.smat(np.zeros(3))\n"
        "symspace.smat(np.zeros(3))\n"
        "tracer.end_instance()\n"
        "symspace.smat(np.zeros(3))  # outside an instance: not counted\n"
        "print(tracer.counters['symspace.smat'][0])\n")
    assert out.strip() == "2"


def test_counts_repeat_across_traced_runs(tmp_path):
    summaries = []
    for k in (1, 2):
        out = tmp_path / f"traced{k}.json"
        subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload", "psd-random",
                        "--seed", "3", "--seconds", "1", "--count", "3", "--trace", "1",
                        "--out", str(out)], check=True, timeout=120,
                       env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"})
        summaries.append(json.loads(out.read_text()))
    first, second = (s["trace"] for s in summaries)
    assert summaries[0]["failed"] == 0
    assert tracing.counts(first) == tracing.counts(second)
    assert first["spans"]["conefeas.psd_intersection"]["calls"] == 3
    assert first["counters"]["symspace.smat"]["calls"] > 0
    assert first["span_errors"] == 0 and 0.0 < first["coverage"] <= 1.0

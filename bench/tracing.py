"""Per-module tracing from outside the program, for the traced benchmark run.

``Tracer.install`` replaces each traced lyapstein function at *every*
module attribute bound to it (``conefeas.smat`` as well as
``symspace.smat``), and the dense kernels at their numpy/scipy entry
points, so every call is seen exactly once.  Nothing is recorded outside
an instance, so the benchmark's own numpy work (input generation, the
evidence checker) never counts.

Two kinds of record:

* spans, for the module functions in ``SPANS``: name, start, end, parent
  span and instance id, kept in memory and written out by ``dump``.  A
  call nested inside a span of the same name (``make_operator`` calling
  ``lyapunov``) is not a new span, so counts are of outermost calls.
* counters, for the leaf kernels in ``COUNTERS`` (hundreds of thousands
  of calls per run): calls, seconds and matrices decomposed, summed.  A
  kernel called from inside another counted kernel is not counted again.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

SPANS = {
    "cli.main": [("lyapstein.cli", "main")],
    "catalog.run_entry": [("lyapstein.catalog", "run_entry")],
    "monotonicity.decide_trivial_operator": [("lyapstein.monotonicity", "decide_trivial_operator")],
    "monotonicity.decide_range_operator": [("lyapstein.monotonicity", "decide_range_operator")],
    "conefeas.collect_psd_witness_samples": [("lyapstein.conefeas", "collect_psd_witness_samples")],
    "conefeas.psd_intersection": [("lyapstein.conefeas", "psd_intersection")],
    "conefeas.orthant_intersection": [("lyapstein.conefeas", "orthant_intersection")],
    "matclass.classify": [("lyapstein.matclass", "classify")],
    "matclass.verify_sim": [("lyapstein.matclass", "verify_sim")],
    "matclass.check_m_equivalences": [("lyapstein.matclass", "check_m_equivalences")],
    "groupinv.group_inverse": [("lyapstein.groupinv", "group_inverse")],
    "groupinv.group_inverse_exists_audit": [("lyapstein.groupinv", "group_inverse_exists_audit")],
    "groupinv.index_of": [("lyapstein.groupinv", "index_of")],
    "groupinv.nonneg_on_range": [("lyapstein.groupinv", "nonneg_on_range")],
    "operators.build": [("lyapstein.operators", "make_operator"),
                        ("lyapstein.operators", "lyapunov"),
                        ("lyapstein.operators", "stein")],
    "operators.solve": [("lyapstein.operators", "solve")],
    "operators.structure": [("lyapstein.operators", "is_idempotent"),
                            ("lyapstein.operators", "l_idempotent_expected"),
                            ("lyapstein.operators", "s_idempotent_expected"),
                            ("lyapstein.operators", "detect_k_potency"),
                            ("lyapstein.operators", "z_operator_spot_check")],
}

COUNTERS = {
    "symspace.smat": [("lyapstein.symspace", "smat")],
    "symspace.svec": [("lyapstein.symspace", "svec")],
    "numkernel.eigh": [("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh")],
    "numkernel.svd": [("numpy.linalg", "svd")],
    "numkernel.qr": [("numpy.linalg", "qr"), ("scipy.linalg", "qr")],
    "numkernel.eig": [("numpy.linalg", "eig"), ("numpy.linalg", "eigvals")],
    "numkernel.lp": [("scipy.optimize", "linprog")],
}


def _batch(args, kwargs) -> int:
    """Matrices in a (possibly stacked) eigendecomposition argument."""
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    count = 1
    for dim in shape[:-2]:
        count *= dim
    return count


def _fast_path(tracer, args, kwargs, verdict):
    tracer.tally["verdicts"] += 1
    tracer.tally["fast_path"] += verdict.fast_path is not None


def _samples(tracer, args, kwargs, samples):
    tracer.tally["sample_starts"] += kwargs.get("starts", args[2] if len(args) > 2 else 16)
    tracer.tally["samples"] += len(samples)


def _psd(tracer, args, kwargs, decision):
    tracer.tally["psd_undecided"] += decision.status.value == "undecided"


HOOKS = {
    "monotonicity.decide_trivial_operator": _fast_path,
    "monotonicity.decide_range_operator": _fast_path,
    "conefeas.collect_psd_witness_samples": _samples,
    "conefeas.psd_intersection": _psd,
}


def _rebind(owner: str, original, wrapper) -> None:
    """Point the owner module and every lyapstein module attribute bound to ``original`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == owner or mod_name.startswith("lyapstein")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


class Tracer:
    """Spans and counters of one traced process; ``install`` it once, before any instance."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, instance]
        self.stack: list[int] = []
        self.active: set[str] = set()
        self.instance: int | None = None
        self.instance_span = -1
        self.in_kernel = False
        self.counters = {name: [0, 0.0, 0] for name in COUNTERS}  # calls, seconds, matrices
        self.tally: Counter = Counter()
        self.errors = 0
        self.keys: list[str] = []  # instance keys, by instance id
        self.kernel_calls: list[dict] = []  # per instance: counter calls made inside it
        self.kernel_calls_at_start: dict = {}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every binding site of every traced function."""
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, targets in table.items():
                for module, attr in targets:
                    original = getattr(importlib.import_module(module), attr)
                    _rebind(module, original, make(name, original))

    def _span(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.instance is None or name in self.active:
                return fn(*args, **kwargs)
            sid = self._open(name)
            self.active.add(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.active.discard(name)
                self._close(sid)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        slot = self.counters[name]
        batched = name == "numkernel.eigh"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.instance is None or self.in_kernel:
                return fn(*args, **kwargs)
            self.in_kernel = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += time.perf_counter() - start
                slot[0] += 1
                slot[2] += _batch(args, kwargs) if batched else 1
                self.in_kernel = False

        return wrapper

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.instance])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        if not self.stack or self.stack.pop() != sid:
            self.errors += 1

    def begin_instance(self, index: int, key: str) -> None:
        if self.stack:
            self.errors += 1
            self.stack.clear()
        self.keys.append(key)
        self.kernel_calls_at_start = {k: v[0] for k, v in self.counters.items()}
        self.instance = index
        self.instance_span = self._open("instance")

    def end_instance(self) -> None:
        self._close(self.instance_span)
        if self.stack:
            self.errors += 1
            self.stack.clear()
        self.instance = None
        self.active.clear()
        self.kernel_calls.append({k: v[0] - self.kernel_calls_at_start[k]
                                  for k, v in self.counters.items()})

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for sid, name, start, end, parent, instance in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "instance": instance}) + "\n")

    # -- summary --------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls / inclusive / self seconds, counters, tallies, coverage."""
        child_time: defaultdict = defaultdict(float)
        errors = self.errors
        for sid, name, start, end, parent, _ in self.spans:
            if end is None or end < start:
                errors += 1
                continue
            if parent is not None:
                child_time[parent] += end - start
        spans: dict = {}
        per_instance = [{"key": key, "s": 0.0, "calls": dict(kernels)}
                        for key, kernels in zip(self.keys, self.kernel_calls)]
        inst_time = covered = 0.0
        for sid, name, start, end, parent, instance in self.spans:
            if end is None or end < start:
                continue
            dur = end - start
            if name == "instance":
                inst_time += dur
                covered += child_time[sid]
                per_instance[instance]["s"] = dur
                continue
            rec = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child_time[sid]
            calls = per_instance[instance]["calls"]
            calls[name] = calls.get(name, 0) + 1
        return {"spans": spans,
                "counters": {k: {"calls": v[0], "s": v[1], "mats": v[2]}
                             for k, v in self.counters.items()},
                "tally": dict(self.tally),
                "instances": per_instance,
                "coverage": covered / inst_time if inst_time > 0 else 0.0,
                "span_errors": errors}


def counts(summary: dict) -> dict:
    """Everything in a summary that must repeat exactly for the same inputs."""
    out = {f"{k}.calls": v["calls"] for k, v in summary["spans"].items()}
    out.update({f"{k}.calls": v["calls"] for k, v in summary["counters"].items()})
    out.update({f"{k}.mats": v["mats"] for k, v in summary["counters"].items()})
    out.update({f"tally.{k}": v for k, v in summary["tally"].items()})
    return out


def unit(name: str) -> str:
    """Unit of a per-module metric, read off its name."""
    if name.endswith((".calls", ".mats", "span_errors")):
        return "count"
    return "s" if name.endswith(("_s", ".s")) else "ratio"


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    spans, ctr, tally = summary["spans"], summary["counters"], summary["tally"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {"cli.main.self_s": span("cli.main", "self_s")}
    for name in ("catalog.run_entry", "conefeas.collect_psd_witness_samples",
                 "conefeas.psd_intersection", "conefeas.orthant_intersection",
                 "matclass.classify", "groupinv.group_inverse", "operators.build"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.s"] = span(name, "s")
    for name in ("monotonicity.decide_trivial_operator", "monotonicity.decide_range_operator",
                 "matclass.verify_sim"):
        out[f"{name}.s"] = span(name, "s")
        out[f"{name}.self_s"] = span(name, "self_s")
    for name in ("matclass.check_m_equivalences", "groupinv.group_inverse_exists_audit",
                 "groupinv.nonneg_on_range", "operators.solve", "operators.structure"):
        out[f"{name}.s"] = span(name, "s")
    out["groupinv.index_of.calls"] = span("groupinv.index_of", "calls")
    out["monotonicity.fast_path_ratio"] = ratio(tally.get("fast_path", 0),
                                                tally.get("verdicts", 0))
    out["conefeas.collect_psd_witness_samples.hit_ratio"] = ratio(
        tally.get("samples", 0), tally.get("sample_starts", 0))
    out["conefeas.psd_intersection.undecided_ratio"] = ratio(
        tally.get("psd_undecided", 0), span("conefeas.psd_intersection", "calls"))
    out["symspace.smat.calls"] = ctr["symspace.smat"]["calls"]
    out["symspace.svec.calls"] = ctr["symspace.svec"]["calls"]
    out["numkernel.eigh.calls"] = ctr["numkernel.eigh"]["calls"]
    out["numkernel.eigh.mats"] = ctr["numkernel.eigh"]["mats"]
    out["numkernel.eigh.s"] = ctr["numkernel.eigh"]["s"]
    for name in ("svd", "qr", "lp"):
        out[f"numkernel.{name}.calls"] = ctr[f"numkernel.{name}"]["calls"]
        out[f"numkernel.{name}.s"] = ctr[f"numkernel.{name}"]["s"]
    out["numkernel.eig.calls"] = ctr["numkernel.eig"]["calls"]
    out["trace.coverage"] = summary["coverage"]
    return out

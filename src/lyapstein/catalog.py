"""Registry of worked examples and counterexamples, re-verified on demand.

``data/catalog.json`` stores inputs and claims only — base matrices,
closed-form operator images, membership chains, expected verdicts — and
every claim is recomputed from scratch by the analysis modules when an
entry runs.  The summary table of trivial range monotonicity over the
four structured matrix classes (square roots of -I and I, skew bases,
symmetric bases) is regenerated the same way: Yes cells from fast-path /
general-decider agreement on class representatives, No cells from
verified witness entries.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import conefeas, groupinv, monotonicity, operators
from .conefeas import ConeBudget
from .monotonicity import Verdict
from .numkernel import DEFAULT_TOL, Tolerances, numerical_rank
from .symspace import sym_basis


class ReproductionError(RuntimeError):
    """A catalog claim failed to re-verify."""


@lru_cache(maxsize=1)
def load_catalog() -> dict:
    path = importlib.resources.files("lyapstein").joinpath("data/catalog.json")
    with path.open("r") as f:
        return json.load(f)


def entry_ids() -> list[str]:
    return [entry["id"] for entry in load_catalog()["entries"]]


def _entry(entry_id: str) -> dict:
    for entry in load_catalog()["entries"]:
        if entry["id"] == entry_id:
            return entry
    raise KeyError(f"unknown catalog entry {entry_id!r}")


@dataclass(frozen=True)
class CheckResult:
    kind: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class EntryReport:
    entry_id: str
    operator: str
    passed: bool
    checks: tuple[CheckResult, ...]


def _close(a, b, tol: Tolerances) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return bool(np.linalg.norm(a - b) <= tol.feas_tol * (1.0 + np.linalg.norm(b)))


def _run_check(op, check: dict, tol: Tolerances, budget: ConeBudget,
               verdict_cache: dict) -> CheckResult:
    kind = check["type"]
    if kind == "basis_action":
        worst = 0.0
        for e, img in zip(sym_basis(op.n), check["images"]):
            worst = max(worst, float(np.linalg.norm(operators.apply(op, e) - np.asarray(img))))
        return CheckResult(kind, worst <= tol.feas_tol, f"max deviation {worst:.3e}")
    if kind == "apply_equals":
        got = operators.apply(op, np.asarray(check["x"], float))
        ok = _close(got, check["y"], tol)
        return CheckResult(kind, ok, f"residual {np.linalg.norm(got - np.asarray(check['y'])):.3e}")
    if kind == "in_kernel":
        got = operators.apply(op, np.asarray(check["x"], float))
        res = float(np.linalg.norm(got))
        return CheckResult(kind, res <= tol.feas_tol, f"image norm {res:.3e}")
    if kind == "psd":
        lam = float(np.linalg.eigvalsh(np.asarray(check["x"], float))[0])
        return CheckResult(kind, lam >= -tol.feas_tol, f"min eigenvalue {lam:.3e}")
    if kind == "not_psd":
        lam = float(np.linalg.eigvalsh(np.asarray(check["x"], float))[0])
        return CheckResult(kind, lam < -tol.feas_tol, f"min eigenvalue {lam:.3e}")
    if kind == "nonzero":
        norm = float(np.linalg.norm(np.asarray(check["x"], float)))
        return CheckResult(kind, norm > tol.feas_tol, f"norm {norm:.3e}")
    if kind == "operator_singular":
        rank = numerical_rank(op.mat, tol)
        return CheckResult(kind, rank < op.dim, f"rank {rank} of {op.dim}")
    if kind == "k_potency":
        rep = operators.detect_k_potency(op, tol=tol)
        ok = (rep.found and rep.k == check["k"]
              and abs(rep.alpha - check["alpha"]) <= tol.feas_tol * (1.0 + abs(check["alpha"])))
        return CheckResult(kind, ok, f"found k={rep.k}, alpha={rep.alpha}")
    if kind == "group_inverse_exists":
        gi = groupinv.group_inverse(op.mat, tol)
        return CheckResult(kind, gi.exists == check["value"],
                           f"exists={gi.exists}, index={gi.index}")
    if kind == "group_inverse_is_multiple":
        gi = groupinv.group_inverse(op.mat, tol)
        if not gi.exists:
            return CheckResult(kind, False, "group inverse does not exist")
        dev = float(np.linalg.norm(gi.inverse - check["alpha"] * op.mat))
        ok = dev <= tol.feas_tol * (1.0 + op.norm)
        return CheckResult(kind, ok, f"deviation from {check['alpha']}*T: {dev:.3e}")
    if kind == "trivial_verdict":
        verdict = _trivial_verdict(op, tol, budget, verdict_cache)
        return CheckResult(kind, verdict.trivially_range_monotone.value == check["value"],
                           f"got {verdict.trivially_range_monotone.value}")
    if kind == "range_verdict":
        trivial = _trivial_verdict(op, tol, budget, verdict_cache)
        full = monotonicity.decide_range_operator(op, tol, budget, trivial=trivial)
        got = full.range_monotone
        if check["value"] == "not_refuted":
            ok = got in (Verdict.YES, Verdict.UNDECIDED)
        else:
            ok = got.value == check["value"]
        return CheckResult(kind, ok, f"got {got.value}")
    raise ValueError(f"unknown check type {kind!r}")


def _trivial_verdict(op, tol, budget, cache):
    if "trivial" not in cache:
        cache["trivial"] = monotonicity.decide_trivial_operator(op, tol, budget)
    return cache["trivial"]


def run_entry(entry_id: str, tol: Tolerances = DEFAULT_TOL,
              budget: ConeBudget = conefeas.DEFAULT_BUDGET) -> EntryReport:
    """Re-verify one catalog entry; unknown ids raise ``KeyError``."""
    entry = _entry(entry_id)
    op = operators.make_operator(entry["operator"], np.asarray(entry["matrix"], float))
    cache: dict = {}
    results = tuple(_run_check(op, check, tol, budget, cache) for check in entry["checks"])
    return EntryReport(entry_id, entry["operator"], all(r.passed for r in results), results)


def run_all(tol: Tolerances = DEFAULT_TOL,
            budget: ConeBudget = conefeas.DEFAULT_BUDGET) -> list[EntryReport]:
    return [run_entry(entry_id, tol, budget) for entry_id in entry_ids()]


@dataclass(frozen=True)
class TableCell:
    answer: str
    witness_entries: tuple[str, ...]
    representatives_checked: int


@dataclass(frozen=True)
class SummaryTable:
    rows: tuple[dict, ...]  # matrix_class -> {"lyapunov": TableCell, "stein": TableCell}


def _certify_yes(kind: str, matrices, tol: Tolerances, budget: ConeBudget) -> int:
    """Fast path and general decider must independently agree on Yes."""
    for m in matrices:
        a = np.asarray(m, float)
        hits = monotonicity.structural_fast_paths(a, tol)
        if not any(h.operator == kind and h.conclusion == "trivial" for h in hits):
            raise ReproductionError(
                f"no structural fast path certifies the {kind} operator for a class representative")
        op = operators.make_operator(kind, a)
        general = monotonicity.decide_trivial_operator(op, tol, budget, use_fast_paths=False)
        if general.trivially_range_monotone is not Verdict.YES:
            raise ReproductionError(
                f"general decider returned {general.trivially_range_monotone.value} "
                f"for a {kind} representative certified Yes by structure")
    return len(list(matrices))


def _verify_no(entry_ids_for_cell, reports: dict, tol, budget) -> None:
    for entry_id in entry_ids_for_cell:
        if entry_id not in reports:
            reports[entry_id] = run_entry(entry_id, tol, budget)
        report = reports[entry_id]
        if not report.passed:
            failing = [c.kind for c in report.checks if not c.passed]
            raise ReproductionError(f"witness entry {entry_id!r} failed checks: {failing}")


def reproduce_table(tol: Tolerances = DEFAULT_TOL,
                    budget: ConeBudget = conefeas.DEFAULT_BUDGET) -> SummaryTable:
    """Regenerate the four-class summary table, re-verifying every cell.

    Raises :class:`ReproductionError` on the first cell whose recomputed
    content does not support the recorded answer.
    """
    table = load_catalog()["table"]
    reports: dict = {}
    rows = []
    for row in table["rows"]:
        out = {"matrix_class": row["matrix_class"]}
        for kind in ("lyapunov", "stein"):
            cell = row[kind]
            answer = cell["answer"]
            reps = cell.get("yes_representatives", [])
            witnesses = tuple(cell.get("witness_entries", []))
            checked = 0
            if answer == "yes":
                checked = _certify_yes(kind, reps, tol, budget)
            elif answer == "no":
                _verify_no(witnesses, reports, tol, budget)
            elif answer == "yes_order2_no_higher":
                checked = _certify_yes(kind, reps, tol, budget)
                _verify_no(witnesses, reports, tol, budget)
                _verify_no([cell["order2_entry"]], reports, tol, budget)
            else:
                raise ReproductionError(f"unknown cell answer {answer!r}")
            out[kind] = TableCell(answer, witnesses, checked)
        rows.append(out)
    return SummaryTable(tuple(rows))

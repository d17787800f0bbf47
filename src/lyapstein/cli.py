"""Command-line interface.

Subcommands
-----------
classify    M-matrix taxonomy of a square matrix (plus the singular-
            irreducible property checks and the invertible-M equivalence
            audit where they apply)
operator    build a Lyapunov/Stein operator; ``--analyze`` adds
            idempotency, k-potency, group-inverse audit, a Z-operator
            spot check and the monotonicity verdicts with witnesses
solve       solve ``T(X) = Q`` with a stability preflight
groupinv    group inverse of a square matrix
feas        cone-triviality decision for a subspace (psd or orthant)
reproduce   re-verify catalog entries or regenerate the summary table

Matrix files are JSON ``{"n": 2, "rows": [[1, -1], [-1, 1]]}`` or plain
text (first line the order, then the rows).  ``--json`` switches the
report to machine-readable JSON with identical numeric content; with a
fixed ``--seed`` the output is byte-identical across runs.

Each report's ``result`` is the analysis module's result dataclass,
serialized field by field (see ``docs/formats.md``); the human printers
read the same plain data as ``--json``.

Exit codes: 0 success (including honest "undecided"), 2 parse error,
3 capability error, 4 singular operator in ``solve``, 5 reproduction
mismatch, 6 inconsistency (two computations that must agree did not, for
example a solution failing its re-checks), 7 non-convergence (an
eigenvalue iteration or LP solve returned no usable answer).
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import sys

import numpy as np

from . import catalog, conefeas, groupinv, matclass, monotonicity, operators
from .conefeas import ConeBudget, SubspaceSpec
from .numkernel import CapabilityError, InconsistencyError, NonConvergenceError, Tolerances
from .operators import SingularOperatorError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPABILITY = 3
EXIT_SINGULAR = 4
EXIT_MISMATCH = 5
EXIT_INCONSISTENT = 6
EXIT_NONCONVERGENCE = 7


class ParseError(ValueError):
    pass


def _fmt(x: float) -> str:
    s = f"{float(x):.12g}"
    return "0" if s in ("-0", "-0.0") else s


def _fields(obj, drop: str | None = None, **extra) -> dict:
    """A result dataclass's fields by name, less ``drop``, plus ``extra``."""
    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name != drop}
    return {**fields, **extra}


def _jsonable(obj):
    """Plain data with floats normalized to 12 significant digits.

    Non-finite values become null (strict JSON has no NaN/Infinity).
    """
    if isinstance(obj, float):
        if not np.isfinite(obj):
            return None
        return float(_fmt(obj))
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(_fields(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def load_matrix(path: str) -> np.ndarray:
    """Read a matrix file (JSON object or plain text)."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            doc = json.loads(text)
            rows = np.array(doc["rows"], dtype=float)
            if "n" in doc and int(doc["n"]) != rows.shape[0]:
                raise ParseError(f"{path}: declared n={doc['n']} but {rows.shape[0]} rows")
        else:
            lines = [ln for ln in text.splitlines() if ln.strip()]
            n = int(lines[0].split()[0])
            rows = np.array([[float(v) for v in ln.split()] for ln in lines[1:n + 1]])
            if rows.shape[0] != n:
                raise ParseError(f"{path}: expected {n} rows, found {rows.shape[0]}")
        if rows.ndim != 2 or len({len(r) for r in rows}) > 1:
            raise ParseError(f"{path}: rows are not rectangular")
        if not np.all(np.isfinite(rows)):
            raise ParseError(f"{path}: non-finite entries")
        return rows
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"cannot parse matrix file {path}: {exc}") from exc


def load_subspace(path: str) -> SubspaceSpec:
    """Read a basis file: {"ambient": "vec"|"sym", "n": ..., "vectors"|"matrices": ...}."""
    try:
        with open(path) as f:
            doc = json.load(f)
        ambient = doc["ambient"]
        n = int(doc["n"])
        if ambient == "vec":
            return conefeas.subspace_from_vectors([np.array(v, float) for v in doc["vectors"]], n)
        if ambient == "sym":
            return conefeas.subspace_from_matrices([np.array(m, float) for m in doc["matrices"]], n)
        raise ParseError(f"{path}: unknown ambient {ambient!r}")
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"cannot parse basis file {path}: {exc}") from exc


def _print_matrix(m, indent="  "):
    m = np.asarray(m, dtype=float)
    for row in m:
        print(indent + "  ".join(f"{_fmt(v):>16s}" for v in row))


def _emit(report: dict, as_json: bool, human) -> None:
    """Serialize ``report`` once; print it as JSON or hand it to ``human``."""
    report = _jsonable(report)
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        human(report)


def _tolerances(args) -> Tolerances:
    return Tolerances(rank_tol=args.tol_rank, psd_tol=args.tol_psd, feas_tol=args.tol_feas)


def _budget(args) -> ConeBudget:
    return ConeBudget(seed=args.seed)


# ---------------------------------------------------------------- classify

def cmd_classify(args) -> int:
    tol = _tolerances(args)
    a = load_matrix(args.matrix)
    report = matclass.classify(a, tol)
    sim = audit = None
    if report.m_class is matclass.MClass.SINGULAR_M and report.is_irreducible:
        sim = matclass.verify_sim(a, tol)
        sim = _fields(sim, "witnesses", all_true=sim.all_true)
    elif report.is_z:
        audit = matclass.check_m_equivalences(a, tol)
    result = _fields(report, "spectrum",
                     eigenvalues=[[v.real, v.imag] for v in report.spectrum.values],
                     sim=sim, equivalence_audit=audit)
    out = {"command": "classify", "input": args.matrix, "tolerances": tol, "result": result}

    def human(rep):
        r = rep["result"]
        names = {"not_z": "not a Z-matrix", "invertible_m": "invertible M-matrix",
                 "singular_m": "singular M-matrix", "z_not_m": "Z-matrix but not an M-matrix"}
        headline = names[r["m_class"]]
        if r["m_class"] == "singular_m" and r["is_irreducible"]:
            headline = "singular irreducible M-matrix"
            if r["sim"] and r["sim"]["all_true"]:
                headline += "; all SIM properties verified"
        if r["equivalence_audit"]:
            headline += "; equivalence audit: " + \
                ("consistent" if r["equivalence_audit"]["consistent"] else "INCONSISTENT")
        print(headline)
        print(f"  rank: {r['rank']}   irreducible: {r['is_irreducible']}")
        if r["is_z"]:
            print(f"  shift s: {_fmt(r['s'])}   rho(B): {_fmt(r['rho_b'])}")
        print(f"  positive stable: {r['positive_stable']}   Schur stable: {r['schur_stable']}")
        print("  eigenvalues: " + ", ".join(
            f"{_fmt(re)}{'+' if im >= 0 else '-'}{_fmt(abs(im))}j" if im else _fmt(re)
            for re, im in r["eigenvalues"]))
        if r["perron_vector"] is not None:
            print("  perron vector: " + "  ".join(_fmt(v) for v in r["perron_vector"]))
        if r["sim"]:
            print("  SIM checks:")
            for k, v in r["sim"].items():
                if k != "all_true":
                    print(f"    {k}: {v}")

    _emit(out, args.json, human)
    return EXIT_OK


# ---------------------------------------------------------------- operator

def cmd_operator(args) -> int:
    tol = _tolerances(args)
    a = load_matrix(args.matrix)
    op = operators.make_operator(args.kind, a)
    result = {"kind": args.kind, "n": op.n, "dim": op.dim, "operator_norm": op.norm}
    if not args.analyze:
        result["coordinate_matrix"] = op.mat
    else:
        idem_expected = (operators.l_idempotent_expected(a, tol)
                         if args.kind == "lyapunov"
                         else operators.s_idempotent_expected(a, tol))
        z_ok, z_counter = operators.z_operator_spot_check(op, seed=args.seed, tol=tol)
        result.update({
            "idempotent": {"operational": operators.is_idempotent(op, tol),
                           "closed_form": idem_expected},
            "k_potency": operators.detect_k_potency(op, tol=tol),
            "group_inverse": _fields(groupinv.group_inverse(op.mat, tol), "inverse",
                                     audit=groupinv.group_inverse_exists_audit(op.mat, tol)),
            "z_operator_spot_check": {"ok": z_ok, "trials": 100, "counterexample": z_counter},
            "monotonicity": monotonicity.analyze_operator(op, tol, _budget(args)),
        })
    out = {"command": "operator", "input": args.matrix,
           "tolerances": tol, "seed": args.seed, "result": result}

    def human(rep):
        r = rep["result"]
        print(f"{r['kind']} operator on symmetric matrices of order {r['n']} "
              f"(coordinate dimension {r['dim']})")
        if not args.analyze:
            print("coordinate matrix:")
            _print_matrix(r["coordinate_matrix"])
            return
        idem = r["idempotent"]
        print(f"  idempotent: {idem['operational']} "
              f"(closed-form criterion: {idem['closed_form']})")
        pot = r["k_potency"]
        if pot["found"]:
            print(f"  k-potency: T^{pot['k']} = {_fmt(pot['alpha'])} * T")
        else:
            print("  k-potency: none up to k=6")
        gi = r["group_inverse"]
        print(f"  group inverse: {'exists' if gi['exists'] else 'does not exist'} "
              f"(index {gi['index']}; existence audit "
              f"{'unanimous' if len(set(gi['audit'].values())) == 1 else 'SPLIT'})")
        print(f"  Z-operator spot check: {'ok' if r['z_operator_spot_check']['ok'] else 'VIOLATED'}")
        mono = r["monotonicity"]
        print(f"  trivially range monotone: {mono['trivially_range_monotone']}"
              + (f"  [{mono['fast_path']}]" if mono["fast_path"] else ""))
        print(f"  range monotone: {mono['range_monotone']}")
        if mono["witness"] is not None:
            print("  witness:")
            _print_matrix(mono["witness"])
        if mono["certificate"] is not None:
            print("  certificate:")
            _print_matrix(mono["certificate"])

    _emit(out, args.json, human)
    return EXIT_OK


# ---------------------------------------------------------------- solve

def cmd_solve(args) -> int:
    tol = _tolerances(args)
    a = load_matrix(args.matrix_a)
    q = load_matrix(args.matrix_q)
    op = operators.make_operator(args.kind, a)
    from .numkernel import general_eigenvalues
    spectrum = general_eigenvalues(a, tol)
    margin = tol.rank_tol * (1.0 + spectrum.spectral_radius)
    preflight = {"positive_stable": spectrum.is_positive_stable(margin),
                 "schur_stable": spectrum.is_schur_stable(margin)}
    try:
        x, residual = operators._solve(op, q, spectrum, tol)
    except SingularOperatorError as exc:
        out = {"command": "solve", "kind": args.kind, "error": "singular_operator",
               "stability_preflight": preflight, "kernel": exc.kernel}
        def human_err(rep):
            print("operator is singular; no unique solution")
            print("kernel basis:")
            for k in rep["kernel"]:
                _print_matrix(k)
                print()
        _emit(out, args.json, human_err)
        return EXIT_SINGULAR
    from .symspace import psd_classify
    out = {"command": "solve", "kind": args.kind, "tolerances": tol,
           "stability_preflight": preflight,
           "result": {"x": x, "residual": residual,
                      "solution_class": psd_classify(x, tol).classification.value}}

    def human(rep):
        r = rep["result"]
        pf = rep["stability_preflight"]
        print(f"stability preflight: positive stable {pf['positive_stable']}, "
              f"Schur stable {pf['schur_stable']}")
        print(f"solution X (residual {_fmt(r['residual'])}, class {r['solution_class']}):")
        _print_matrix(r["x"])

    _emit(out, args.json, human)
    return EXIT_OK


# ---------------------------------------------------------------- groupinv

def cmd_groupinv(args) -> int:
    tol = _tolerances(args)
    a = load_matrix(args.matrix)
    out = {"command": "groupinv", "input": args.matrix, "tolerances": tol,
           "result": groupinv.group_inverse(a, tol)}

    def human(rep):
        r = rep["result"]
        if not r["exists"]:
            print(f"group inverse does not exist (index {r['index']})")
        else:
            print(f"group inverse (index {r['index']}, axiom residuals "
                  + ", ".join(_fmt(v) for v in r["residuals"]) + "):")
            _print_matrix(r["inverse"])

    _emit(out, args.json, human)
    return EXIT_OK


# ---------------------------------------------------------------- feas

def cmd_feas(args) -> int:
    tol = _tolerances(args)
    spec = load_subspace(args.basis)
    if args.cone == "orthant":
        if spec.ambient != "vec":
            raise ParseError("orthant feasibility expects a vector-ambient basis file")
        decision = conefeas.orthant_intersection(spec, tol)
    else:
        if spec.ambient != "sym":
            raise ParseError("psd feasibility expects a symmetric-ambient basis file")
        decision = conefeas.psd_intersection(spec, tol)
    out = {"command": "feas", "cone": args.cone, "input": args.basis,
           "tolerances": tol, "result": decision}

    def human(rep):
        r = rep["result"]
        print(f"{args.cone} intersection: {r['status']}")
        for name in ("witness", "certificate"):
            if r[name] is not None:
                print(f"{name}:")
                val = np.asarray(r[name])
                if val.ndim == 1:
                    print("  " + "  ".join(_fmt(v) for v in val))
                else:
                    _print_matrix(val)

    _emit(out, args.json, human)
    return EXIT_OK


# ---------------------------------------------------------------- reproduce

def cmd_reproduce(args) -> int:
    tol = _tolerances(args)
    budget = _budget(args)
    if args.table:
        try:
            table = catalog.reproduce_table(tol, budget)
        except catalog.ReproductionError as exc:
            print(f"table reproduction failed: {exc}", file=sys.stderr)
            return EXIT_MISMATCH
        out = {"command": "reproduce", "mode": "table", "seed": args.seed, "result": table}

        def human(rep):
            print(f"{'matrix class':<28s} {'Lyapunov':<28s} {'Stein'}")
            for row in rep["result"]["rows"]:
                def cell(c):
                    text = {"yes": "Yes", "no": "No",
                            "yes_order2_no_higher": "Yes (n=2) / No (n>=3)"}[c["answer"]]
                    if c["witness_entries"]:
                        text += " [" + ", ".join(c["witness_entries"]) + "]"
                    return text
                print(f"{row['matrix_class']:<28s} {cell(row['lyapunov']):<28s} "
                      f"{cell(row['stein'])}")

        _emit(out, args.json, human)
        return EXIT_OK

    ids = catalog.entry_ids() if args.all else [args.entry]
    reports = []
    for entry_id in ids:
        try:
            reports.append(catalog.run_entry(entry_id, tol, budget))
        except KeyError:
            print(f"unknown catalog entry {entry_id!r}; known ids: "
                  + ", ".join(catalog.entry_ids()), file=sys.stderr)
            return EXIT_PARSE
    out = {"command": "reproduce", "mode": "all" if args.all else "entry",
           "seed": args.seed,
           "result": {"entries": reports, "all_passed": all(r.passed for r in reports)}}

    def human(rep):
        for entry in rep["result"]["entries"]:
            print(f"{'PASS' if entry['passed'] else 'FAIL'} {entry['id']}")
            for c in entry["checks"]:
                mark = "ok" if c["passed"] else "FAIL"
                print(f"    [{mark}] {c['kind']}: {c['detail']}")

    _emit(out, args.json, human)
    return EXIT_OK if out["result"]["all_passed"] else EXIT_MISMATCH


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyapstein",
        description="matrix classes and range monotonicity of Lyapunov/Stein operators")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
        p.add_argument("--tol-rank", dest="tol_rank", type=float, default=1e-9)
        p.add_argument("--tol-psd", dest="tol_psd", type=float, default=1e-9)
        p.add_argument("--tol-feas", dest="tol_feas", type=float, default=1e-7)

    p = sub.add_parser("classify", help="M-matrix classification")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("operator", help="operator construction and analysis")
    p.add_argument("kind", choices=["lyapunov", "stein"])
    p.add_argument("matrix")
    p.add_argument("--analyze", action="store_true")
    common(p)
    p.set_defaults(func=cmd_operator)

    p = sub.add_parser("solve", help="solve T(X) = Q")
    p.add_argument("kind", choices=["lyapunov", "stein"])
    p.add_argument("matrix_a")
    p.add_argument("matrix_q")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("groupinv", help="group inverse")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=cmd_groupinv)

    p = sub.add_parser("feas", help="cone-triviality of a subspace")
    p.add_argument("cone", choices=["psd", "orthant"])
    p.add_argument("basis")
    common(p)
    p.set_defaults(func=cmd_feas)

    p = sub.add_parser("reproduce", help="re-verify catalog entries / summary table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--entry")
    group.add_argument("--all", action="store_true")
    group.add_argument("--table", action="store_true")
    common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except catalog.ReproductionError as exc:
        print(f"reproduction mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

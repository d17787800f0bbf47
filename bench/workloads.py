"""Seeded workloads for the lyapstein benchmark.

Each workload turns ``--seed`` into inputs, runs the program on them one
call at a time, and checks every output.  An *instance* is one such call:
``run()`` is the timed part, ``check(output)`` returns the problems found
(empty when the output is right) and whether any verdict is
``undecided``.  Checks use the claims stored in the catalog, the
construction of the inputs and the numpy-only checker in ``evidence``;
they never call a lyapstein decider.  A workload's ``scaled`` says
whether the worker scales its call times by the host-speed probe (see
``worker.probe``).

``instances(p)`` builds the list of pass ``p``, drawn from
``default_rng([seed, p])``: the same seed gives the same inputs.  Every
pass has the same composition, so the instance at one position of the
list is the same kind of call in every pass (the same call, in
``catalog``), and the benchmark takes its latency over the passes.  No
draw is ever dropped for what the program did with it; the only
rejection is the input-side oracle margin on one- and two-dimensional
PSD subspaces (as in acceptance criterion 8).
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from lyapstein import cli, conefeas, groupinv, operators
from lyapstein.conefeas import ConeBudget, ConeStatus
from lyapstein.numkernel import DEFAULT_TOL

import evidence

WARMUP_STREAM = 10**6  # rng stream of the untimed warm-up instance, disjoint from the list


def interleave(items: list, stride: int = 4) -> list:
    """Fixed reordering ``items[0::4] + items[1::4] + ...``.

    Cheap and expensive instances of a pass come out mixed, so that no
    stretch of machine noise lands on one kind of instance only.
    """
    return [x for start in range(stride) for x in items[start::stride]]


@dataclass
class Instance:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], bool]]


def _write_matrix(path: Path, m) -> str:
    m = np.asarray(m, float)
    path.write_text(json.dumps({"n": m.shape[0], "rows": m.tolist()}))
    return str(path)


def _cli(argv: list[str]) -> dict:
    """Run ``lyapstein`` in-process; returns exit code and parsed JSON report."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    text = out.getvalue()
    return {"rc": rc, "report": json.loads(text) if text.strip() else None,
            "stderr": err.getvalue()[-300:]}


def _cli_problems(out: dict, expected_rc: int = 0) -> list[str]:
    if out["rc"] != expected_rc:
        return [f"exit code {out['rc']} (stderr: {out['stderr'].strip()})"]
    if out["report"] is None:
        return ["no JSON report"]
    return []


def _rank(m) -> int:
    return evidence.orthonormal_range(m).shape[1]


# ---------------------------------------------------------------- catalog

class Catalog:
    """The paper's catalog through the CLI: 13 ``operator --analyze`` calls,
    ``reproduce --all`` and ``reproduce --table`` per pass."""

    scaled = True

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        data = json.loads((src / "lyapstein" / "data" / "catalog.json").read_text())
        self.entries = data["entries"]
        self.table = {row["matrix_class"]: row for row in data["table"]["rows"]}
        self.files = [_write_matrix(workdir / f"catalog-{i}.json", e["matrix"])
                      for i, e in enumerate(self.entries)]

    def warmup(self) -> Instance:
        return self._table()

    def instances(self, p: int) -> list[Instance]:
        return interleave([self._analyze(i) for i in range(len(self.entries))]
                          + [self._reproduce_all(), self._table()])

    def _analyze(self, i: int) -> Instance:
        entry, path = self.entries[i], self.files[i]
        argv = ["operator", entry["operator"], path, "--analyze", "--json",
                "--seed", str(self.seed)]
        return Instance(f"analyze/{entry['id']}", lambda: _cli(argv),
                        lambda out: self._check_analyze(entry, out))

    def _check_analyze(self, entry: dict, out: dict):
        problems = _cli_problems(out)
        if problems:
            return problems, False
        result = out["report"]["result"]
        mono = result["monotonicity"]
        got = {"trivial_verdict": mono["trivially_range_monotone"],
               "range_verdict": mono["range_monotone"]}
        for claim in entry["checks"]:
            kind = claim["type"]
            if kind not in got:
                continue
            ok = (got[kind] in ("yes", "undecided") if claim["value"] == "not_refuted"
                  else got[kind] == claim["value"])
            if not ok:
                problems.append(f"{kind}: got {got[kind]}, catalog claims {claim['value']}")
        kind, a = entry["operator"], np.asarray(entry["matrix"], float)
        t = evidence.operator_matrix(kind, a)
        if mono["witness"] is not None:
            x = np.asarray(mono["witness"], float)
            problems += evidence.check_operator_witness(kind, a, x, evidence.orthonormal_range(t))
            if mono["range_monotone"] == "no" and not np.linalg.eigvalsh(x)[0] < 0.0:
                problems.append("range refutation witness is PSD")
        if mono["certificate"] is not None:
            problems += evidence.check_certificate(mono["certificate"],
                                                   evidence.orthonormal_range(t @ t))
        gi = result["group_inverse"]
        exists = _rank(t @ t) == _rank(t)
        if gi["exists"] != exists:
            problems.append(f"group inverse exists={gi['exists']}, rank test says {exists}")
        if set(gi["audit"].values()) != {exists}:
            problems.append(f"existence audit {gi['audit']} is not unanimous on {exists}")
        undecided = "undecided" in got.values()
        return problems, undecided

    def _reproduce_all(self) -> Instance:
        argv = ["reproduce", "--all", "--json", "--seed", str(self.seed)]

        def check(out):
            problems = _cli_problems(out)
            if problems:
                return problems, False
            entries = out["report"]["result"]["entries"]
            if len(entries) != len(self.entries):
                problems.append(f"{len(entries)} entries reproduced of {len(self.entries)}")
            problems += [f"entry {e['id']} failed" for e in entries if not e["passed"]]
            return problems, False

        return Instance("reproduce/all", lambda: _cli(argv), check)

    def _table(self) -> Instance:
        argv = ["reproduce", "--table", "--json"]

        def check(out):
            problems = _cli_problems(out)
            if problems:
                return problems, False
            rows = out["report"]["result"]["rows"]
            if len(rows) != len(self.table):
                problems.append(f"{len(rows)} table rows, catalog has {len(self.table)}")
            for row in rows:
                claim = self.table.get(row["matrix_class"])
                for kind in ("lyapunov", "stein"):
                    if claim is None or row[kind]["answer"] != claim[kind]["answer"]:
                        problems.append(f"table cell {row['matrix_class']}/{kind} "
                                        f"answers {row[kind]['answer']}")
            return problems, False

        return Instance("reproduce/table", lambda: _cli(argv), check)


# ---------------------------------------------------------------- psd-random

FAMILY_SEED = 20230508  # fixed: every seed sees the same family up to congruence
ORACLE_MARGIN = 1e-5


def _random_symmetric(rng, n):
    m = np.triu(rng.standard_normal((n, n)))
    return 0.5 * (m + m.T)


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def oracle_psd(mats, band=1e-10):
    """Acceptance criterion 8's oracle: (nontrivial, margin) for 1- or 2-dim spans."""
    if len(mats) == 1:
        w = np.linalg.eigvalsh(mats[0])
        nontrivial = w[0] >= -band * max(1, abs(w[-1])) or w[-1] <= band * max(1, abs(w[0]))
        margin = min(abs(w[0]), abs(w[-1])) if w[0] < 0 < w[-1] else max(abs(w[0]), abs(w[-1]))
        return bool(nontrivial), float(margin)
    thetas = np.arange(0.0, 2 * np.pi, 1e-3)
    stack = np.cos(thetas)[:, None, None] * mats[0] + np.sin(thetas)[:, None, None] * mats[1]
    peak = float(np.linalg.eigvalsh(stack)[:, 0].max())
    return peak >= 0.0, abs(peak)


def psd_family():
    """One subspace per (order n in 2..5, dimension k in 1..n(n+1)/2).

    Order 6 is left out: its 21 members cost twice the rest together, and
    two timed passes of them would not fit a run.

    Spans of dimension 1 and 2 carry the angle-sweep oracle's verdict;
    draws inside its margin are redrawn, the one input-side rejection.
    """
    rng = np.random.default_rng(FAMILY_SEED)
    family = []
    for n in range(2, 6):
        for k in range(1, n * (n + 1) // 2 + 1):
            while True:
                mats = [_random_symmetric(rng, n) for _ in range(k)]
                if k > 2:
                    family.append((n, mats, None))
                    break
                nontrivial, margin = oracle_psd(mats)
                if margin >= ORACLE_MARGIN:
                    family.append((n, mats, nontrivial))
                    break
    return family


class PsdRandom:
    """``feas psd``'s calls (``subspace_from_matrices`` + ``psd_intersection``)
    on the fixed family, moved per seed and pass by a random orthogonal
    congruence and a random change of basis; both preserve every verdict."""

    scaled = True

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.family = psd_family()
        self.budget = ConeBudget(seed=seed)

    def warmup(self) -> Instance:
        member = self.family[4]  # order 3, dimension 2: quick, and it carries an oracle verdict
        return self._instance("warmup", member, np.random.default_rng([self.seed, WARMUP_STREAM]))

    def instances(self, p: int) -> list[Instance]:
        rng = np.random.default_rng([self.seed, p])
        return interleave([self._instance(f"{i}", member, rng)
                           for i, member in enumerate(self.family)])

    def _instance(self, key, member, rng) -> Instance:
        n, base, oracle = member
        g = _random_orthogonal(rng, n)
        k = len(base)
        mix = _random_orthogonal(rng, k) * rng.uniform(0.5, 2.0, size=k)
        rotated = [g @ m @ g.T for m in base]
        mats = [sum(mix[i, j] * rotated[j] for j in range(k)) for i in range(k)]

        def run():
            spec = conefeas.subspace_from_matrices(mats, n)
            return conefeas.psd_intersection(spec, DEFAULT_TOL, self.budget)

        def check(dec):
            basis = evidence.span_of_matrices(mats)
            status = dec.status
            problems = []
            if (dec.witness is not None) != (status is ConeStatus.NONTRIVIAL_WITNESS):
                problems.append(f"status {status.value} with witness={dec.witness is not None}")
            if (dec.certificate is not None) != (status is ConeStatus.TRIVIAL_CERTIFIED):
                problems.append(f"status {status.value} with certificate="
                                f"{dec.certificate is not None}")
            if dec.witness is not None:
                problems += evidence.check_psd_witness(dec.witness, basis)
            if dec.certificate is not None:
                problems += evidence.check_certificate(dec.certificate, basis)
            if oracle is not None and status is not ConeStatus.UNDECIDED \
                    and (status is ConeStatus.NONTRIVIAL_WITNESS) != oracle:
                problems.append(f"{status.value} contradicts the angle-sweep oracle")
            return problems, status is ConeStatus.UNDECIDED

        return Instance(f"n{n}k{k}/{key}", run, check)


# ---------------------------------------------------------------- mmatrix

# Four audit calls below and four larger SIM calls above put the median in
# the middle of nine order-8 SIM calls: their cost varies by input (a slot
# holds one input per pass), so the median needs many of them.
SIM_ORDERS = (8,) * 9 + (9, 10, 11, 12)
AUDIT_ORDERS = (6, 12)


def _irreducible_nonnegative(rng, n):
    b = np.where(rng.random((n, n)) < 0.5, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    np.fill_diagonal(b, 0.0)
    cycle = np.arange(n)
    b[cycle, (cycle + 1) % n] = rng.uniform(0.1, 1.0, n)  # strongly connected digraph
    return b


class MMatrix:
    """In-process ``classify --json``: singular irreducible M-matrices
    (``verify_sim`` path) and invertible / Z-not-M matrices (equivalence
    audit path).  Classes hold by construction, with a 10-50% shift margin."""

    scaled = True

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.workdir = workdir

    def warmup(self) -> Instance:
        rng = np.random.default_rng([self.seed, WARMUP_STREAM])
        return self._audit(rng, 4, "invertible_m", "warmup")

    def instances(self, p: int) -> list[Instance]:
        rng = np.random.default_rng([self.seed, p])
        out = [self._sim(rng, n, f"{p}-{i}") for i, n in enumerate(SIM_ORDERS)]
        for n in AUDIT_ORDERS:
            out.append(self._audit(rng, n, "invertible_m", p))
            out.append(self._audit(rng, n, "z_not_m", p))
        return interleave(out)

    def _classify(self, a, name: str):
        path = _write_matrix(self.workdir / f"{name}.json", a)
        return lambda: _cli(["classify", path, "--json"])

    def _sim(self, rng, n: int, tag) -> Instance:
        b = _irreducible_nonnegative(rng, n)
        a = np.max(np.abs(np.linalg.eigvals(b))) * np.eye(n) - b

        def check(out):
            problems = _cli_problems(out)
            if problems:
                return problems, False
            res = out["report"]["result"]
            if res["m_class"] != "singular_m" or not res["is_irreducible"]:
                return [f"classified {res['m_class']}, irreducible={res['is_irreducible']}"], False
            if not (res["sim"] and res["sim"]["all_true"]):
                problems.append(f"SIM properties not all verified: {res['sim']}")
            if res["perron_vector"] is None:
                problems.append("no Perron vector")
            else:
                problems += evidence.check_perron(a, res["perron_vector"])
            return problems, False

        return Instance(f"sim/n{n}", self._classify(a, f"sim-{tag}-{n}"), check)

    def _audit(self, rng, n: int, expected: str, tag) -> Instance:
        b = _irreducible_nonnegative(rng, n)
        rho = np.max(np.abs(np.linalg.eigvals(b)))
        shift = rng.uniform(0.1, 0.5)
        a = rho * (1.0 + shift if expected == "invertible_m" else 1.0 - shift) * np.eye(n) - b
        want = expected == "invertible_m"

        def check(out):
            problems = _cli_problems(out)
            if problems:
                return problems, False
            res = out["report"]["result"]
            if res["m_class"] != expected:
                problems.append(f"classified {res['m_class']}, constructed {expected}")
            audit = res["equivalence_audit"]
            if audit is None or not audit["consistent"]:
                problems.append(f"equivalence audit missing or inconsistent: {audit}")
            elif set(audit["items"].values()) != {want}:
                problems.append(f"equivalence items {audit['items']} are not all {want}")
            return problems, False

        return Instance(f"{expected}/n{n}", self._classify(a, f"{expected}-{tag}-{n}"), check)


# ---------------------------------------------------------------- operator-desk

# Five solves of each kind at n = 50 put the median inside one block of
# like-sized calls, so it is not the cost of a single instance.  The group
# inverse stops at n = 40 (d = 820): at n = 50 it alone takes 7 s a pass.
SOLVE_ORDERS = (20, 30, 40) + (50,) * 5
GROUP_INVERSE_ORDERS = (20, 30, 40)


class OperatorDesk:
    """Desk-scale dense operators, d = n(n+1)/2 from 210 to 1275:
    ``solve --json`` for Lyapunov (positive stable A) and Stein (Schur
    stable A) with positive definite Q, and ``group_inverse`` plus its
    existence audit on the singular Lyapunov operator of a skew A."""

    # Its time is in two-thread LAPACK on matrices up to 1275 x 1275, which the
    # single-thread host-speed probe does not follow: scaling by it made the
    # spread of repeated calls wider, so this workload reports times as measured.
    scaled = False

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.workdir = workdir

    def warmup(self) -> Instance:
        rng = np.random.default_rng([self.seed, WARMUP_STREAM])
        return self._solve(rng, "lyapunov", SOLVE_ORDERS[0], "warmup")

    def instances(self, p: int) -> list[Instance]:
        rng = np.random.default_rng([self.seed, p])
        out = []
        for i, n in enumerate(SOLVE_ORDERS):
            out += [self._solve(rng, "lyapunov", n, f"{p}-{i}"),
                    self._solve(rng, "stein", n, f"{p}-{i}")]
        out += [self._group_inverse(rng, n) for n in GROUP_INVERSE_ORDERS]
        return interleave(out)

    def _solve(self, rng, kind: str, n: int, tag) -> Instance:
        m = rng.standard_normal((n, n)) / np.sqrt(n)
        eig = np.linalg.eigvals(m)
        if kind == "lyapunov":
            a = m + (0.5 - eig.real.min()) * np.eye(n)  # spectrum in Re >= 0.5
        else:
            a = m * (0.9 / np.abs(eig).max())  # spectral radius 0.9
        p = rng.standard_normal((n, n))
        q = p @ p.T / n + np.eye(n)
        pa = _write_matrix(self.workdir / f"desk-{kind}-{tag}-{n}-a.json", a)
        pq = _write_matrix(self.workdir / f"desk-{kind}-{tag}-{n}-q.json", q)
        argv = ["solve", kind, pa, pq, "--json"]
        stable = "positive_stable" if kind == "lyapunov" else "schur_stable"

        def check(out):
            problems = _cli_problems(out)
            if problems:
                return problems, False
            rep = out["report"]
            if not rep["stability_preflight"][stable]:
                problems.append(f"preflight says not {stable}")
            if rep["result"]["solution_class"] != "positive_definite":
                problems.append(f"solution class {rep['result']['solution_class']}")
            problems += evidence.check_solve(kind, a, q, rep["result"]["x"])
            return problems, False

        return Instance(f"solve-{kind}/n{n}", lambda: _cli(argv), check)

    def _group_inverse(self, rng, n: int) -> Instance:
        k = rng.standard_normal((n, n))
        s = (k - k.T) / (2.0 * np.sqrt(n))
        probe = np.random.default_rng(rng.integers(2**32))

        def run():
            op = operators.lyapunov(s)
            return (groupinv.group_inverse(op.mat, DEFAULT_TOL),
                    groupinv.group_inverse_exists_audit(op.mat, DEFAULT_TOL))

        def check(out):
            gi, audit = out
            # L_S is skew-adjoint for skew S, hence normal: index exactly 1 (I is in the kernel)
            problems = []
            if not gi.exists or gi.index != 1:
                problems.append(f"group inverse exists={gi.exists}, index={gi.index}")
            flags = [audit.complementary_subspaces, audit.range_of_square_equals_range,
                     audit.null_of_square_equals_null, audit.axioms_solvable]
            if not all(flags):
                problems.append(f"existence audit {flags}")
            if gi.inverse is not None:
                problems += evidence.check_group_inverse(
                    evidence.operator_matrix("lyapunov", s), gi.inverse, probe)
            return problems, False

        return Instance(f"groupinv/n{n}", run, check)


WORKLOADS = {"catalog": Catalog, "psd-random": PsdRandom, "mmatrix": MMatrix,
             "operator-desk": OperatorDesk}

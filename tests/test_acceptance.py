"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every tolerance is pinned here, none deferred.
"""

import io
import itertools
import json
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from lyapstein import catalog, cli, conefeas, groupinv, matclass, monotonicity, operators
from lyapstein.conefeas import ConeStatus
from lyapstein.monotonicity import Verdict
from lyapstein.numkernel import InconsistencyError, general_eigenvalues
from lyapstein.operators import apply, lyapunov, op_power, stein
from lyapstein.symspace import sym_dim

from conftest import orthant_slice_extreme_rays

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def announce(num, name, ok):
    print(f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def well_conditioned(rng, n, cap=40.0):
    while True:
        p = rng.standard_normal((n, n))
        s = np.linalg.svd(p, compute_uv=False)
        if s[0] / s[-1] <= cap:
            return p


def block_rotations(n):
    out = np.zeros((n, n))
    for i in range(0, n, 2):
        out[i:i + 2, i:i + 2] = J2
    return out


def test_criterion_1_operator_identities():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    ok = True
    cases = [J2]
    for _ in range(20):
        n = int(rng.choice([2, 4]))
        p = well_conditioned(rng, n)
        cases.append(p @ block_rotations(n) @ np.linalg.inv(p))
    for a in cases:
        l = lyapunov(a)
        s = stein(a)
        ok &= np.linalg.norm(op_power(l, 3).mat + 4 * l.mat) <= 1e-8 * l.norm
        ok &= np.linalg.norm(op_power(s, 2).mat - 2 * s.mat) <= 1e-8 * s.norm
    for _ in range(20):
        n = int(rng.choice([2, 4]))
        signs = np.diag(rng.choice([-1.0, 1.0], size=n))
        p = well_conditioned(rng, n)
        a = p @ signs @ np.linalg.inv(p)
        l = lyapunov(a)
        ok &= np.linalg.norm(op_power(l, 3).mat - 4 * l.mat) <= 1e-8 * l.norm
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    announce(1, f"operator identities, {elapsed:.2f}s", ok)


def test_criterion_2_summary_table():
    start = time.perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["reproduce", "--table", "--json"])
    doc = json.loads(buf.getvalue())
    rows = {r["matrix_class"]: (r["lyapunov"], r["stein"])
            for r in doc["result"]["rows"]}
    expected = {
        "square_is_minus_identity": ("yes", "yes"),
        "square_is_identity": ("no", "yes"),
        "skew_symmetric": ("yes", "yes_order2_no_higher"),
        "symmetric": ("no", "no"),
    }
    ok = code == 0
    for cls, (l_ans, s_ans) in expected.items():
        l_cell, s_cell = rows[cls]
        ok &= l_cell["answer"] == l_ans and s_cell["answer"] == s_ans
        for cell, ans in ((l_cell, l_ans), (s_cell, s_ans)):
            if ans != "yes":
                ok &= len(cell["witness_entries"]) >= 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    announce(2, f"summary table, {elapsed:.2f}s", ok)


def test_criterion_3_catalog():
    start = time.perf_counter()
    reports = catalog.run_all()
    ok = all(r.passed for r in reports)
    ids = {r.entry_id for r in reports}
    ok &= {"ex31", "remstein", "illus_st(a)", "illus_st(b)", "illus_lyst",
           "invlyo", "tilde-extension", "skewssteinorder2", "skewsstein1",
           "skewsstein2", "skewsstein3_n5", "skewsstein3_n6",
           "symstein"} <= ids
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    announce(3, f"catalog of {len(reports)} entries, {elapsed:.2f}s", ok)


def test_criterion_4_singular_irreducible_m():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    ok = True
    instances = []
    for _ in range(50):
        n = int(rng.integers(2, 7))
        b = rng.uniform(0.05, 1.0, size=(n, n))
        rho = general_eigenvalues(b).spectral_radius
        instances.append(rho * np.eye(n) - b)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        t = rng.uniform(0.05, 1.0, size=(n, n))
        t /= t.sum(axis=0)
        instances.append(np.eye(n) - t.T)
    for a in instances:
        n = a.shape[0]
        sim = matclass.verify_sim(a)
        ok &= sim.all_true
        from lyapstein.numkernel import numerical_rank
        ok &= numerical_rank(a) == n - 1
        perron = sim.witnesses["perron_vector"]
        ok &= float(np.min(perron)) > 1e-9
        ok &= float(np.linalg.norm(a @ perron)) <= 1e-7
        ok &= max(sim.witnesses["group_inverse_residuals"]) <= 1e-8
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    announce(4, f"singular irreducible M on {len(instances)} instances, {elapsed:.2f}s", ok)


def test_criterion_5_idempotency_characterizations():
    rng = np.random.default_rng(105)
    disagreements = 0
    cases = []
    for _ in range(200):
        n = int(rng.integers(1, 5))
        cases.append(rng.uniform(-2.0, 2.0, size=(n, n)))
    for n in (1, 2, 3, 4):
        for bits in itertools.product([0.0, 0.5], repeat=n):
            cases.append(np.diag(bits))
    for _ in range(50):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n + 1))
        v = well_conditioned(rng, n)
        p = v @ np.diag([1.0] * r + [0.0] * (n - r)) @ np.linalg.inv(v)
        cases.append(p if rng.random() < 0.5 else -p)  # A^2 = A or A^2 = -A
    for a in cases:
        if operators.is_idempotent(lyapunov(a)) != operators.l_idempotent_expected(a):
            disagreements += 1
        if operators.is_idempotent(stein(a)) != operators.s_idempotent_expected(a):
            disagreements += 1
    announce(5, f"idempotency agreement on {len(cases)} bases, "
                f"{disagreements} disagreements", disagreements == 0)


def test_criterion_6_group_inverse_audit():
    rng = np.random.default_rng(106)
    ok = True
    mats = []
    for _ in range(100):
        n = int(rng.choice([2, 3]))
        mats.append(rng.standard_normal((sym_dim(n), sym_dim(n))))
    for _ in range(50):
        n = int(rng.choice([2, 3]))
        d = sym_dim(n)
        r = int(rng.integers(1, d))
        v = well_conditioned(rng, d)
        core = np.zeros((d, d))
        core[:r, :r] = well_conditioned(rng, r)
        mats.append(v @ core @ np.linalg.inv(v))  # singular, index 1
    for _ in range(50):
        n = int(rng.choice([2, 3]))
        d = sym_dim(n)
        v = well_conditioned(rng, d)
        mats.append(v @ np.triu(rng.standard_normal((d, d)), k=1)
                    @ np.linalg.inv(v))  # nilpotent, index > 1
    for entry in catalog.load_catalog()["entries"]:
        mats.append(operators.make_operator(
            entry["operator"], np.asarray(entry["matrix"], float)).mat)
    for m in mats:
        try:
            groupinv.group_inverse_exists_audit(m)
        except InconsistencyError:
            ok = False
    # structural guarantees: nilpotent base kills the Lyapunov operator's
    # inverse; symmetric, skew, and square-root-of-(+-I) bases keep it
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    ok &= not groupinv.group_inverse_exists_audit(lyapunov(nil).mat).exists
    structured = [J2, np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])]
    for _ in range(5):
        n = int(rng.integers(2, 5))
        s = rng.standard_normal((n, n))
        structured.append(0.5 * (s + s.T))
        k = rng.standard_normal((n, n))
        structured.append(k - k.T)
    for a in structured:
        for make in (lyapunov, stein):
            ok &= groupinv.group_inverse_exists_audit(make(a).mat).exists
    announce(6, f"group-inverse audit on {len(mats)} operators", ok)


def test_criterion_7_stability_solvability():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 6))
        r = rng.standard_normal((n, n))
        shift = -general_eigenvalues(r).min_real_part + rng.uniform(0.3, 1.0)
        a = r + shift * np.eye(n)
        g = rng.standard_normal((n, n))
        q = g @ g.T + 0.2 * np.eye(n)
        x = operators.solve(lyapunov(a), q)
        ok &= float(np.linalg.eigvalsh(x)[0]) > 0.0
        ok &= np.linalg.norm(apply(lyapunov(a), x) - q) <= 1e-8 * np.linalg.norm(q)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        r = rng.standard_normal((n, n))
        rho = general_eigenvalues(r).spectral_radius
        if rho < 1e-6:
            continue
        a = r * (rng.uniform(0.2, 0.85) / rho)
        g = rng.standard_normal((n, n))
        q = g @ g.T + 0.2 * np.eye(n)
        x = operators.solve(stein(a), q)
        ok &= float(np.linalg.eigvalsh(x)[0]) > 0.0
        ok &= np.linalg.norm(apply(stein(a), x) - q) <= 1e-8 * np.linalg.norm(q)
    announce(7, "stability solvability, 100 solves", ok)


def _oracle_psd(mats, band=1e-10):
    if len(mats) == 1:
        w = np.linalg.eigvalsh(mats[0])
        nontrivial = w[0] >= -band * max(1, abs(w[-1])) \
            or w[-1] <= band * max(1, abs(w[0]))
        margin = min(abs(w[0]), abs(w[-1])) if (w[0] < 0 < w[-1]) else max(abs(w[0]), abs(w[-1]))
        return nontrivial, margin
    thetas = np.arange(0.0, 2 * np.pi, 1e-3)
    stack = (np.cos(thetas)[:, None, None] * mats[0]
             + np.sin(thetas)[:, None, None] * mats[1])
    mins = np.linalg.eigvalsh(stack)[:, 0]
    peak = float(mins.max())
    return peak >= 0.0, abs(peak)


def test_criterion_8_cone_oracle_equivalence():
    rng = np.random.default_rng(108)
    start = time.perf_counter()
    contradictions = 0
    undecided = 0
    total = 0
    while total < 200:
        n = 2 if total % 2 == 0 else 3
        dim = 1 + (total % 4 < 2)
        mats = [np.triu(rng.standard_normal((n, n))) for _ in range(dim)]
        mats = [0.5 * (m + m.T) for m in mats]
        nontrivial, margin = _oracle_psd(mats)
        if margin < 1e-5:
            continue  # regenerate borderline draws the oracle cannot vouch for
        total += 1
        spec = conefeas.subspace_from_matrices(mats, n)
        dec = conefeas.psd_intersection(spec)
        if dec.status is ConeStatus.UNDECIDED:
            undecided += 1
        elif (dec.status is ConeStatus.NONTRIVIAL_WITNESS) != nontrivial:
            contradictions += 1
    ok = contradictions == 0 and undecided <= 10
    orthant_mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        spec = conefeas.subspace_from_vectors(
            [rng.standard_normal(n) for _ in range(k)], n)
        comp = conefeas._complement_basis(spec.basis, conefeas.DEFAULT_TOL)
        rays = orthant_slice_extreme_rays(comp.T, n)
        dec = conefeas.orthant_intersection(spec)
        if (dec.status is ConeStatus.NONTRIVIAL_WITNESS) != bool(rays):
            orthant_mismatches += 1
    ok &= orthant_mismatches == 0
    elapsed = time.perf_counter() - start
    announce(8, f"cone oracles: {contradictions} contradictions, "
                f"{undecided}/200 undecided, {orthant_mismatches} orthant "
                f"mismatches, {elapsed:.1f}s", ok)


def test_criterion_9_reduction_validity():
    rng = np.random.default_rng(109)
    ok = True
    ops = []
    for entry in catalog.load_catalog()["entries"]:
        ops.append(operators.make_operator(entry["operator"],
                                           np.asarray(entry["matrix"], float)))
    for _ in range(200):
        n = int(rng.choice([2, 3]))
        d = sym_dim(n)
        kind = rng.random()
        if kind < 0.5:
            mat = rng.standard_normal((d, d))
        elif kind < 0.8:
            r = int(rng.integers(1, d))
            v = well_conditioned(rng, d)
            core = np.zeros((d, d))
            core[:r, :r] = well_conditioned(rng, r)
            mat = v @ core @ np.linalg.inv(v)
        else:
            v = well_conditioned(rng, d)
            mat = v @ np.triu(rng.standard_normal((d, d)), k=1) @ np.linalg.inv(v)
        ops.append(operators.operator_from_matrix(mat, n))
    yes_count = 0
    for op in ops:
        verdict = monotonicity.decide_trivial_operator(op)
        if verdict.trivially_range_monotone is Verdict.YES:
            yes_count += 1
            hit = monotonicity.randomized_trivial_refuter(op, samples=100_000, seed=9)
            ok &= hit is None
        else:
            hit = monotonicity.randomized_trivial_refuter(op, samples=2_000, seed=9)
            if hit is not None:
                ok &= verdict.trivially_range_monotone is Verdict.NO
    announce(9, f"reduction validity on {len(ops)} operators "
                f"({yes_count} certified Yes)", ok)


def test_criterion_10_determinism():
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code_a = cli.main(["reproduce", "--all", "--json", "--seed", "123"])
        text = buf.getvalue()
        buf2 = io.StringIO()
        import tempfile, os
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "a.json")
            with open(path, "w") as f:
                json.dump({"n": 2, "rows": [[1, 0], [0, 2]]}, f)
            with redirect_stdout(buf2):
                code_b = cli.main(["operator", "stein", path, "--analyze",
                                   "--json", "--seed", "123"])
        text += buf2.getvalue().replace(path, "matrix.json")
        assert code_a == 0 and code_b == 0
        outputs.append(text)
    announce(10, "seeded determinism", outputs[0] == outputs[1])

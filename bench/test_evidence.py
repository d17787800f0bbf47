"""The benchmark's evidence checker accepts sound evidence and rejects corrupted evidence.

Run with ``python -m pytest bench/test_evidence.py``.
"""

import sys
from pathlib import Path

import numpy as np

import evidence

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def _subspace_with_psd_element():
    """Span of diag(1, 0, 0) and an indefinite matrix: meets the PSD cone at e1 e1^T."""
    mats = [np.diag([1.0, 0.0, 0.0]), np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])]
    return mats, evidence.span_of_matrices(mats)


def test_psd_witness_accepted_and_corruption_rejected():
    mats, basis = _subspace_with_psd_element()
    witness = np.diag([1.0, 0.0, 0.0])
    assert evidence.check_psd_witness(witness, basis) == []
    outside = witness.copy()
    outside[2, 2] = 0.25  # PSD but no longer in the subspace
    outside /= np.trace(outside)
    assert any("subspace" in p for p in evidence.check_psd_witness(outside, basis))
    indefinite = 0.5 * mats[0] + 0.3 * mats[1]  # in the subspace, but not PSD
    indefinite /= np.trace(indefinite)
    assert any("eigenvalue" in p for p in evidence.check_psd_witness(indefinite, basis))
    assert any("trace" in p for p in evidence.check_psd_witness(2.0 * witness, basis))


def test_certificate_accepted_and_corruption_rejected():
    # trace-zero subspace: the identity is orthogonal to it and positive definite
    mats = [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
    basis = evidence.span_of_matrices(mats)
    assert evidence.check_certificate(np.eye(2), basis) == []
    tilted = np.array([[1.0, 0.2], [0.2, 1.0]])  # positive definite, not orthogonal
    assert any("inner product" in p for p in evidence.check_certificate(tilted, basis))
    singular = np.diag([1.0, 0.0])
    problems = evidence.check_certificate(singular, evidence.span_of_matrices(mats[1:]))
    assert any("eigenvalue" in p for p in problems)


def test_operator_witness_and_solve_residual():
    a = np.array([[1.0, 1.0], [0.0, 0.0]])  # catalog entry ex31: L_A has diag(1, 0) in range
    x = np.diag([0.5, 0.0])
    assert evidence.check_operator_witness("lyapunov", a, x) == []
    assert any("zero" in p for p in evidence.check_operator_witness("lyapunov", a, 0.0 * x))
    flipped = np.diag([-0.5, 0.0])  # in range, but T(X) = diag(-1, 0) is not PSD
    assert any("T(witness)" in p for p in evidence.check_operator_witness("lyapunov", a, flipped))
    off_range = np.diag([0.0, 1.0])
    assert any("range" in p for p in evidence.check_operator_witness("lyapunov", a, off_range))

    stable = np.array([[2.0, 1.0], [0.0, 3.0]])
    q = np.eye(2)
    t = evidence.operator_matrix("lyapunov", stable)
    x = np.linalg.solve(t, evidence.svec(q))
    x_mat = np.array([[x[0], x[1] / np.sqrt(2)], [x[1] / np.sqrt(2), x[2]]])
    assert evidence.check_solve("lyapunov", stable, q, x_mat) == []
    assert evidence.check_solve("lyapunov", stable, q, x_mat + 1e-3) != []


def test_perron_and_group_inverse():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert evidence.check_perron(a, [0.5, 0.5]) == []
    assert evidence.check_perron(a, [0.6, 0.4]) != []
    assert evidence.check_perron(a, [-0.5, -0.5]) != []
    rng = np.random.default_rng(0)
    assert evidence.check_group_inverse(a, a / 4.0, rng) == []
    assert evidence.check_group_inverse(a, a / 2.0, rng) != []


def test_workload_check_rejects_corrupted_program_output(tmp_path):
    """A real psd-random instance passes its check; a corrupted copy of its evidence fails it."""
    import dataclasses

    import workloads

    inst = workloads.PsdRandom(0, tmp_path, None).warmup()
    decision = inst.run()
    assert inst.check(decision) == ([], False)
    if decision.witness is not None:
        bad = dataclasses.replace(decision, witness=decision.witness + 0.1 * np.eye(decision.witness.shape[0]))
    else:
        bad = dataclasses.replace(decision, certificate=-decision.certificate)
    problems, _ = inst.check(bad)
    assert problems

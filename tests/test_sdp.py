"""The interior-point engine and the PSD-triviality decision built on it."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lyapstein import cli, conefeas, sdp
from lyapstein.conefeas import ConeStatus, SubspaceSpec
from lyapstein.numkernel import DEFAULT_TOL, complement_basis, range_basis
from lyapstein.symspace import smat, svec, sym_dim

from conftest import random_orthogonal, random_symmetric, well_conditioned

# statuses the previous PSD pipeline (Dykstra starts plus eigenvalue ascent)
# gave on gaussian_family(), one letter each: n(ontrivial), t(rivial), u(ndecided)
PREVIOUS_STATUSES = (
    "nnnnntnntttnnttnttnttnntttttnttnnnunntnnntttttntnnnntnnnnttnnttnttntntnntnnntnn"
    "ttnnnnttttntnnttttnnnnnntttntnnnntntnntnt")


def gaussian_family():
    """120 subspaces: 30 per order 3-6, each spanned by a random number of Gaussian svec columns."""
    rng = np.random.default_rng(5)
    family = []
    for n in range(3, 7):
        d = sym_dim(n)
        for _ in range(30):
            k = int(rng.integers(1, d + 1))
            family.append(conefeas.subspace_from_coordinates(rng.standard_normal((d, k)), n))
    return family


def near_boundary_family(count=300):
    """Subspaces a distance eps in [1e-10, 1e-2] from the boundary case.

    Even draws hold a low-rank PSD matrix moved by eps times a random
    symmetric matrix, plus random directions; odd draws are the orthogonal
    complement of a matrix with eigenvalues (+-eps, positive, ...) plus
    random directions.
    """
    rng = np.random.default_rng(12)
    family = []
    for i in range(count):
        n = int(rng.integers(2, 6))
        d = sym_dim(n)
        eps = 10.0 ** rng.uniform(-10, -2)
        q = random_orthogonal(rng, n)
        if i % 2 == 0:
            rank = int(rng.integers(1, n))
            lam = np.concatenate([rng.uniform(0.5, 2.0, rank), np.zeros(n - rank)])
            member = q @ np.diag(lam) @ q.T + eps * random_symmetric(rng, n)
            others = [random_symmetric(rng, n) for _ in range(int(rng.integers(0, d - 1)))]
            family.append(conefeas.subspace_from_matrices([member] + others, n))
        else:
            lam = np.concatenate([[eps * rng.choice([-1.0, 1.0])], rng.uniform(0.5, 2.0, n - 1)])
            normals = [q @ np.diag(lam) @ q.T] + [random_symmetric(rng, n)
                                                  for _ in range(int(rng.integers(0, d - 2)))]
            perp = range_basis(np.column_stack([svec(m) for m in normals]))
            family.append(SubspaceSpec("sym", n, complement_basis(perp)))
    return family


def assert_evidence(dec, spec):
    """Exactly the evidence the status calls for, re-verified with numpy."""
    assert (dec.witness is not None) == (dec.status is ConeStatus.NONTRIVIAL_WITNESS)
    assert (dec.certificate is not None) == (dec.status is ConeStatus.TRIVIAL_CERTIFIED)
    b = spec.basis
    if dec.witness is not None:
        w = dec.witness
        assert abs(np.trace(w) - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(w)[0] >= -DEFAULT_TOL.feas_tol
        coords = svec(w)
        assert np.linalg.norm(coords - b @ (b.T @ coords)) <= 1e-9 * max(1.0, np.linalg.norm(w))
    if dec.certificate is not None:
        p = dec.certificate
        assert np.linalg.eigvalsh(p)[0] > DEFAULT_TOL.feas_tol
        assert np.linalg.norm(b.T @ svec(p)) <= 1e-9 * max(1.0, np.linalg.norm(p))


@pytest.fixture
def ipm_steps(monkeypatch):
    """Steps taken by each interior-point solve that psd_intersection starts."""
    steps = []
    original = conefeas.interior_point

    def counting(*args, **kwargs):
        steps.append(0)
        for it in original(*args, **kwargs):
            steps[-1] = it.iteration
            yield it

    monkeypatch.setattr(conefeas, "interior_point", counting)
    return steps


class TestEngine:
    def test_min_eigenvalue_program(self, rng):
        # minimize <C, X> over tr X = 1, X PSD: the optimum is lambda_min(C),
        # and the dual y = lambda_min(C) - 1 is a strictly feasible start
        for n in (2, 4, 7):
            c = random_symmetric(rng, n)
            lam = np.linalg.eigvalsh(c)[0]
            a_psd = svec(np.eye(n))[None]
            start = sdp.Iterate(np.eye(n) / n, np.zeros(0), np.array([lam - 1.0]),
                                c - (lam - 1.0) * np.eye(n), np.zeros(0))
            iterates = list(sdp.interior_point(a_psd, np.zeros((1, 0)), np.ones(1), svec(c),
                                               np.zeros(0), start, 1e-12))
            last = iterates[-1]
            assert len(iterates) < sdp.MAX_ITER
            assert last.mu < 1e-12
            assert_allclose(np.trace(last.x), 1.0, atol=1e-10)
            assert_allclose(np.sum(c * last.x), lam, atol=1e-10)
            assert_allclose(last.y[0], lam, atol=1e-10)

    def test_iteration_cap_exits_7(self, tmp_path, capsys, monkeypatch):
        spec = gaussian_family()[34]  # needs several interior-point steps
        path = tmp_path / "basis.json"
        mats = [smat(col).tolist() for col in spec.basis.T]
        path.write_text(json.dumps({"ambient": "sym", "n": spec.n, "matrices": mats}))
        monkeypatch.setattr(sdp, "MAX_ITER", 1)
        assert cli.main(["feas", "psd", str(path)]) == cli.EXIT_NONCONVERGENCE == 7
        assert "non-convergence" in capsys.readouterr().err

    def test_singular_factorization_is_undecided(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", singular)
        dec = conefeas.psd_intersection(gaussian_family()[34])
        assert dec.status is ConeStatus.UNDECIDED
        assert dec.witness is None and dec.certificate is None


class TestPsdDecision:
    def test_gaussian_family_matches_previous_statuses(self, ipm_steps):
        for spec, before in zip(gaussian_family(), PREVIOUS_STATUSES, strict=True):
            dec = conefeas.psd_intersection(spec)
            assert_evidence(dec, spec)
            if before != "u":  # an earlier undecided may become decided
                assert dec.status.value[0] == before
            assert dec.status is not ConeStatus.UNDECIDED
        assert ipm_steps and max(ipm_steps) < sdp.MAX_ITER

    def test_near_boundary_family_verifies(self, ipm_steps):
        for spec in near_boundary_family():
            dec = conefeas.psd_intersection(spec)
            assert dec.status is not ConeStatus.UNDECIDED
            assert_evidence(dec, spec)
        assert ipm_steps and max(ipm_steps) < sdp.MAX_ITER

    def test_congruence_invariance(self, rng, ipm_steps):
        # S -> G S G^T for invertible G maps S cap PSD onto (G S G^T) cap PSD
        for spec in gaussian_family():
            g = well_conditioned(rng, spec.n, cond_cap=10.0)
            moved = conefeas.subspace_from_matrices(
                [g @ smat(col) @ g.T for col in spec.basis.T], spec.n)
            dec = conefeas.psd_intersection(moved)
            assert_evidence(dec, moved)
            assert dec.status is conefeas.psd_intersection(spec).status
        assert max(ipm_steps) < sdp.MAX_ITER

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lyapstein.numkernel import (
    DEFAULT_TOL,
    Tolerances,
    complement_basis,
    general_eigenvalues,
    lp_solve,
    null_basis,
    numerical_rank,
    qr_column_pivoted,
    range_basis,
    sym_eigen,
)

from conftest import random_symmetric


class TestTolerances:
    def test_defaults_positive(self):
        tol = Tolerances()
        assert tol.rank_tol == 1e-9 and tol.max_iter >= 1

    @pytest.mark.parametrize("field", ["rank_tol", "psd_tol", "feas_tol", "eq_tol"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            Tolerances(**{field: 0.0})

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError):
            Tolerances(max_iter=0)


class TestQr:
    def test_identity_rank(self):
        q, r, perm, rank = qr_column_pivoted(np.eye(3))
        assert rank == 3

    def test_rank_one_symmetric(self):
        assert numerical_rank([[1.0, -1.0], [-1.0, 1.0]]) == 1

    def test_single_column(self):
        assert numerical_rank([[0.0, 1.0], [0.0, 0.0]]) == 1

    def test_reconstruction(self, rng):
        m = rng.standard_normal((5, 4))
        q, r, perm, rank = qr_column_pivoted(m)
        assert_allclose(q @ r, m[:, perm], atol=1e-12 * np.linalg.norm(m))

    def test_zero_matrix_rank_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0


class TestSubspaces:
    def test_rank_one_range(self):
        basis = range_basis([[1.0, -1.0], [-1.0, 1.0]])
        assert basis.shape == (2, 1)
        direction = np.array([1.0, -1.0]) / np.sqrt(2)
        assert_allclose(abs(basis[:, 0] @ direction), 1.0, atol=1e-12)

    def test_zero_matrix(self):
        assert range_basis(np.zeros((3, 3))).shape == (3, 0)
        assert null_basis(np.zeros((3, 3))).shape == (3, 3)

    def test_invertible(self, rng):
        m = rng.standard_normal((2, 2)) + 3 * np.eye(2)
        assert range_basis(m).shape == (2, 2)
        assert null_basis(m).shape == (2, 0)

    def test_dimensions_sum(self, rng):
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            if rng.random() < 0.5:
                m[:, 0] = m[:, 1]  # force rank deficiency half the time
            assert range_basis(m).shape[1] + null_basis(m).shape[1] == 4

    def test_complement_edges(self, rng):
        # no columns: the complement is the whole space; full rank: nothing
        assert range_basis(np.zeros((3, 0))).shape == (3, 0)
        assert_allclose(complement_basis(np.zeros((3, 0))), np.eye(3))
        assert_allclose(complement_basis(np.zeros((3, 2))), np.eye(3))
        assert complement_basis(rng.standard_normal((3, 3))).shape == (3, 0)

    @pytest.mark.parametrize("shape", [(6, 2), (5, 5), (3, 5)])
    def test_range_and_complement_split_the_space(self, rng, shape):
        m = rng.standard_normal(shape)
        m[:, 0] = m[:, -1]  # rank deficient when square
        both = np.hstack([range_basis(m), complement_basis(m)])
        assert both.shape == (shape[0], shape[0])
        assert_allclose(both.T @ both, np.eye(shape[0]), atol=1e-12)
        assert_allclose(complement_basis(m).T @ m, 0.0, atol=1e-12)


class TestSymEigen:
    def test_diagonal(self):
        w, v = sym_eigen(np.diag([3.0, 1.0]))
        assert_allclose(w, [1.0, 3.0])

    def test_swap(self):
        w, _ = sym_eigen([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(w, [-1.0, 1.0])

    def test_rank_one(self):
        # characteristic polynomial x^2 - 2x by hand: eigenvalues 0, 2
        w, _ = sym_eigen([[1.0, -1.0], [-1.0, 1.0]])
        assert_allclose(w, [0.0, 2.0], atol=1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            sym_eigen([[0.0, 1.0], [0.0, 0.0]])

    def test_residual_and_orthogonality(self, rng):
        s = random_symmetric(rng, 6)
        w, v = sym_eigen(s)
        assert_allclose(s @ v, v * w, atol=1e-10 * (1 + np.linalg.norm(s)))
        assert_allclose(v.T @ v, np.eye(6), atol=1e-12)

    def test_reconstruction_property(self, rng):
        for n in range(2, 9):
            s = random_symmetric(rng, n)
            w, v = sym_eigen(s)
            rel = np.linalg.norm((v * w) @ v.T - s) / np.linalg.norm(s)
            assert rel <= 1e-8


class TestGeneralEigenvalues:
    def test_rotation_generator(self):
        spec = general_eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
        assert_allclose(sorted(spec.values.imag), [-1.0, 1.0], atol=1e-12)
        assert_allclose(spec.values.real, 0.0, atol=1e-12)

    def test_swap(self):
        spec = general_eigenvalues([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(np.sort(spec.values.real), [-1.0, 1.0], atol=1e-12)

    def test_jordan_block(self):
        spec = general_eigenvalues([[1.0, 1.0], [0.0, 1.0]])
        assert_allclose(spec.values, [1.0, 1.0], atol=1e-7)

    def test_conjugate_closed(self, rng):
        for _ in range(20):
            m = rng.standard_normal((5, 5))
            vals = general_eigenvalues(m).values
            assert_allclose(np.sort_complex(vals), np.sort_complex(vals.conj()),
                            atol=1e-8 * (1 + np.max(np.abs(vals))))

    def test_char_poly_matches_det(self, rng):
        # product of (x - lam_i) at x=0 is (-1)^n det(M), for n <= 4
        for n in (2, 3, 4):
            for _ in range(10):
                m = rng.standard_normal((n, n))
                vals = general_eigenvalues(m).values
                prod = np.prod(-vals)
                det = (-1) ** n * np.linalg.det(m)
                assert_allclose(prod.real, det, atol=1e-8 * (1 + abs(det)))
                assert abs(prod.imag) <= 1e-8 * (1 + abs(det))

    def test_rank_agrees_with_gram_eigencount(self, rng):
        for n in range(2, 7):
            m = rng.standard_normal((n, n))
            if rng.random() < 0.5:
                m[:, -1] = m[:, 0] - m[:, 1] if n > 1 else m[:, 0]
            w, _ = sym_eigen(m.T @ m)
            gram_rank = int(np.sum(w > DEFAULT_TOL.rank_tol * max(w.max(), 1e-300)))
            assert numerical_rank(m) == gram_rank


def _bisection_newton_roots(coeffs):
    """Real roots of a monic polynomial with all-real simple roots.

    Scans for sign changes on a Cauchy-bound bracket, bisects each one,
    then polishes with Newton steps.  Independent of any eigenvalue code.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    deriv = np.polyder(coeffs)
    bound = 1.0 + np.max(np.abs(coeffs[1:])) / abs(coeffs[0])
    grid = np.linspace(-bound, bound, 4001)
    vals = np.polyval(coeffs, grid)
    roots = []
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = np.polyval(coeffs, mid)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            x = 0.5 * (a + b)
            for _ in range(5):
                x = x - np.polyval(coeffs, x) / np.polyval(deriv, x)
            roots.append(x)
    return np.sort(roots)


def _companion(coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    n = len(coeffs) - 1
    c = np.zeros((n, n))
    c[1:, :-1] = np.eye(n - 1)
    c[:, -1] = -coeffs[:0:-1]
    return c


class TestCompanionRoots:
    def test_matches_root_oracle(self, rng):
        for degree in (2, 3, 4, 5):
            for _ in range(5):
                roots = np.sort(rng.uniform(-3, 3, size=degree))
                while np.min(np.diff(roots), initial=1.0) < 0.3:
                    roots = np.sort(rng.uniform(-3, 3, size=degree))
                coeffs = np.poly(roots)
                oracle = _bisection_newton_roots(coeffs)
                assert len(oracle) == degree
                assert_allclose(oracle, roots, atol=1e-8)
                eigen = np.sort(general_eigenvalues(_companion(coeffs)).values.real)
                assert_allclose(eigen, oracle, atol=1e-6)


class TestLpSolve:
    def test_identity_program(self):
        # maximize t subject to x >= t e, x >= t e, x <= e: optimum 1 at x = e
        n = 2
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_ub = np.zeros((2 * n, n + 1))
        a_ub[:n, :n] = -np.eye(n)
        a_ub[:n, -1] = 1.0
        a_ub[n:, :n] = -np.eye(n)
        a_ub[n:, -1] = 1.0
        res = lp_solve(c, a_ub=a_ub, b_ub=np.zeros(2 * n),
                       bounds=[(-1, 1)] * (n + 1))
        assert res.status == "optimal"
        assert_allclose(-res.objective, 1.0, atol=1e-9)

    def test_singular_z_program(self):
        # same program with the rank-one M-matrix: Ax > 0 is impossible
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        n = 2
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_ub = np.zeros((2 * n, n + 1))
        a_ub[:n, :n] = -np.eye(n)
        a_ub[:n, -1] = 1.0
        a_ub[n:, :n] = -a
        a_ub[n:, -1] = 1.0
        res = lp_solve(c, a_ub=a_ub, b_ub=np.zeros(2 * n),
                       bounds=[(-1, 1)] * (n + 1))
        assert res.status == "optimal"
        assert_allclose(-res.objective, 0.0, atol=1e-9)

    def test_empty_constraints(self):
        res = lp_solve(np.zeros(2), bounds=[(0, 1)] * 2)
        assert res.status == "optimal" and res.objective == 0.0

    def test_unbounded_reported(self):
        res = lp_solve([-1.0], bounds=[(0, None)])
        assert res.status == "unbounded"

    def test_infeasible_reported(self):
        res = lp_solve([1.0], a_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0],
                       bounds=[(None, None)])
        assert res.status == "infeasible"


def _vertex_enumeration_optimum(c, a_ub, b_ub, lo, hi):
    """Brute-force LP oracle over a box: enumerate basic feasible points."""
    import itertools
    n = len(c)
    rows = [np.asarray(r, dtype=float) for r in a_ub]
    rhs = list(np.asarray(b_ub, dtype=float))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows += [e, -e]
        rhs += [hi, -lo]
    rows = np.array(rows)
    rhs = np.array(rhs)
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        sub = rows[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, rhs[list(subset)])
        if np.all(rows @ x <= rhs + 1e-8):
            val = float(c @ x)
            if best is None or val < best:
                best = val
    return best


class TestLpAgainstVertexOracle:
    def test_random_programs(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 7))
            c = rng.standard_normal(n)
            a_ub = rng.standard_normal((m, n))
            b_ub = rng.standard_normal(m) + 1.0
            oracle = _vertex_enumeration_optimum(c, a_ub, b_ub, -2.0, 2.0)
            res = lp_solve(c, a_ub=a_ub, b_ub=b_ub, bounds=[(-2.0, 2.0)] * n)
            if oracle is None:
                assert res.status == "infeasible"
            else:
                assert res.status == "optimal"
                assert_allclose(res.objective, oracle, atol=1e-7)

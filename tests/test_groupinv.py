import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from lyapstein import groupinv, operators
from lyapstein.numkernel import (
    DEFAULT_TOL,
    InconsistencyError,
    lp_solve,
    null_basis,
    numerical_rank,
    range_basis,
)

from conftest import orthant_slice_extreme_rays, random_symmetric, well_conditioned

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])
RANK_ONE = np.array([[1.0, -1.0], [-1.0, 1.0]])


def matrix_of_index(rng, k, extra):
    """``V diag(N_k, B) V^-1``: a nilpotent Jordan block of order ``k`` (index
    ``k``) beside an invertible ``B`` of order ``extra``."""
    n = max(k + extra, 1)
    core = np.zeros((n, n))
    core[:k, :k] = np.eye(k, k=1)
    if n > k:
        core[k:, k:] = well_conditioned(rng, n - k, cond_cap=10.0)
    v = well_conditioned(rng, n, cond_cap=10.0)
    return v @ core @ np.linalg.inv(v)


def two_svd_audit(m, tol=DEFAULT_TOL):
    """The audit's first three flags from separate range and null SVDs."""
    n = m.shape[0]
    r, k = range_basis(m, tol), null_basis(m, tol)
    m2 = m @ m
    scale = np.linalg.norm(m2)
    rank_m2 = numerical_rank(m2 / scale if scale > 0 else m2, tol)
    return (numerical_rank(np.hstack([r, k]), tol) == n, rank_m2 == r.shape[1],
            n - rank_m2 == k.shape[1])


def spectral_group_inverse(s):
    """Oracle for symmetric input: invert the nonzero eigenvalues."""
    w, v = np.linalg.eigh(s)
    inv = np.where(np.abs(w) > 1e-9 * np.max(np.abs(w)), 1.0 / np.where(w == 0, 1, w), 0.0)
    return (v * inv) @ v.T


class TestIndex:
    def test_invertible(self, rng):
        m = rng.standard_normal((3, 3)) + 4 * np.eye(3)
        assert groupinv.index_of(m) == 0

    def test_nilpotent(self):
        assert groupinv.index_of(NILPOTENT) == 2

    def test_rank_one_symmetric(self):
        # A^2 = 2A, so the rank sequence stabilizes immediately
        assert groupinv.index_of(RANK_ONE) == 1

    def test_similar_to_single_nilpotent_entry(self):
        # M = V E12 V^-1 has M^2 = 0 up to rounding; judged against its own
        # norm that rounding noise would count as rank and inflate the index
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(3, 6))
            v = rng.standard_normal((n, n))
            e12 = np.zeros((n, n))
            e12[0, 1] = 1.0
            assert groupinv.index_of(v @ e12 @ np.linalg.inv(v)) == 2


class TestGroupInverse:
    def test_idempotent_is_its_own(self):
        p = np.diag([1.0, 0.0])
        res = groupinv.group_inverse(p)
        assert res.exists
        assert_allclose(res.inverse, p, atol=1e-12)

    def test_nilpotent_has_none(self):
        res = groupinv.group_inverse(NILPOTENT)
        assert not res.exists and res.index == 2
        assert res.inverse is None

    def test_similar_nilpotent_rank_one_has_none(self):
        # F C is 1 x 1 rounding noise: relative to its own size it passed as
        # invertible and gave entries near 3.7e33
        v = np.array([[1.0, 2.0], [0.3, -1.7]])
        m = v @ NILPOTENT @ np.linalg.inv(v)
        res = groupinv.group_inverse(m)
        assert not res.exists and res.index == 2
        assert res.inverse is None and res.residuals is None
        assert not groupinv.group_inverse_exists_audit(m).exists

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 4), extra=st.integers(0, 4))
    def test_index_residuals_and_audit(self, seed, k, extra):
        m = matrix_of_index(np.random.default_rng(seed), k, extra)
        res = groupinv.group_inverse(m)
        assert res.index == groupinv.index_of(m)
        assert res.exists == (res.index <= 1)
        if res.exists:
            x = res.inverse
            assert res.residuals == (float(np.linalg.norm(m @ x @ m - m)),
                                     float(np.linalg.norm(x @ m @ x - x)),
                                     float(np.linalg.norm(m @ x - x @ m)))
        audit = groupinv.group_inverse_exists_audit(m)
        assert (audit.complementary_subspaces, audit.range_of_square_equals_range,
                audit.null_of_square_equals_null) == two_svd_audit(m)
        assert audit.axioms_solvable == res.exists

    def test_rank_one_spectral(self):
        res = groupinv.group_inverse(RANK_ONE)
        assert res.exists
        assert_allclose(res.inverse, RANK_ONE / 4, atol=1e-12)
        assert_allclose(res.inverse, spectral_group_inverse(RANK_ONE), atol=1e-12)

    def test_zero_matrix(self):
        res = groupinv.group_inverse(np.zeros((2, 2)))
        assert res.exists
        assert_allclose(res.inverse, np.zeros((2, 2)))

    def test_axiom_residuals_random_index_one(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n + 1))
            v = well_conditioned(rng, n)
            core = np.zeros((n, n))
            core[:r, :r] = well_conditioned(rng, r)
            m = v @ core @ np.linalg.inv(v)
            res = groupinv.group_inverse(m)
            assert res.exists
            scale = np.linalg.norm(m)
            assert res.residuals[0] <= 1e-8 * max(1.0, scale)
            assert res.residuals[2] <= 1e-8 * max(1.0, scale * np.linalg.norm(res.inverse))

    def test_symmetric_matches_spectral_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s = random_symmetric(rng, n)
            if rng.random() < 0.5:
                w, v = np.linalg.eigh(s)
                w[0] = 0.0  # force singularity
                s = (v * w) @ v.T
                s = 0.5 * (s + s.T)
            res = groupinv.group_inverse(s)
            assert res.exists
            rel = np.linalg.norm(res.inverse - spectral_group_inverse(s))
            assert rel <= 1e-8 * (1 + np.linalg.norm(res.inverse))

    def test_uniqueness_under_permutation_conjugation(self, rng):
        # conjugating by a permutation permutes the pivoting order; the
        # group inverse must transform covariantly
        for _ in range(20):
            n = 5
            v = well_conditioned(rng, n)
            core = np.zeros((n, n))
            core[:3, :3] = well_conditioned(rng, 3)
            m = v @ core @ np.linalg.inv(v)
            p = np.zeros((n, n))
            p[np.arange(n), rng.permutation(n)] = 1.0
            direct = groupinv.group_inverse(m).inverse
            conjugated = groupinv.group_inverse(p @ m @ p.T).inverse
            assert_allclose(p @ direct @ p.T, conjugated,
                            atol=1e-8 * (1 + np.linalg.norm(direct)))


class TestExistenceAudit:
    def test_rotation_lyapunov_exists(self):
        op = operators.lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        audit = groupinv.group_inverse_exists_audit(op.mat)
        assert audit.exists
        assert audit.range_of_square_equals_range and audit.null_of_square_equals_null

    def test_nilpotent_lyapunov_all_false(self):
        op = operators.lyapunov(NILPOTENT)
        audit = groupinv.group_inverse_exists_audit(op.mat)
        assert not audit.exists
        assert not audit.axioms_solvable

    def test_symmetric_random_all_true(self, rng):
        audit = groupinv.group_inverse_exists_audit(random_symmetric(rng, 5))
        assert audit.exists and audit.axioms_solvable


    def test_axioms_flag_is_group_inverse_existence(self):
        # 2000 matrices of index 0-8: the audit decides existence as group_inverse does
        rng = np.random.default_rng(11)
        for _ in range(2000):
            m = matrix_of_index(rng, int(rng.integers(0, 9)), int(rng.integers(0, 5)))
            try:
                axioms = groupinv.group_inverse_exists_audit(m).axioms_solvable
            except InconsistencyError as exc:
                axioms = exc.details["axioms_solvable"]
            assert axioms == groupinv.group_inverse(m).exists

    def test_audit_does_not_form_the_inverse(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(groupinv, "group_inverse", lambda *args: calls.append(args))
        for m in (NILPOTENT, RANK_ONE, np.zeros((3, 3)), matrix_of_index(rng, 3, 2)):
            groupinv.group_inverse_exists_audit(m)
        assert calls == []


class TestNormality:
    def test_skew_lyapunov_normal(self):
        op = operators.lyapunov(np.array([[0.0, 2.0], [-2.0, 0.0]]))
        assert groupinv.is_normal(op.mat)
        assert groupinv.normality_implies_group_inverse_check(op.mat)

    def test_symmetric_stein_self_adjoint(self, rng):
        op = operators.stein(random_symmetric(rng, 3))
        assert_allclose(op.mat, op.mat.T, atol=1e-12 * (1 + np.linalg.norm(op.mat)))
        assert groupinv.normality_implies_group_inverse_check(op.mat)

    def test_non_normal_vacuous(self):
        assert not groupinv.is_normal(NILPOTENT)
        assert groupinv.normality_implies_group_inverse_check(NILPOTENT)


class TestNonnegOnRange:
    def test_rank_one_vacuous(self):
        res = groupinv.group_inverse(RANK_ONE)
        rep = groupinv.nonneg_on_range(RANK_ONE, res.inverse)
        # range meets the orthant only at zero
        assert rep.ok and rep.witness is None and rep.min_component == 0.0

    def test_centering_matrix(self):
        a = np.eye(3) - np.full((3, 3), 1 / 3)
        res = groupinv.group_inverse(a)
        rep = groupinv.nonneg_on_range(a, res.inverse)
        assert rep.ok

    def test_identity(self):
        rep = groupinv.nonneg_on_range(np.eye(3), np.eye(3))
        assert rep.ok and rep.min_component == 0.0 and rep.witness is None

    def test_negative_witness(self):
        # A = A# = diag(1, -1): e2 lies in the range and A# e2 = -e2
        a = np.diag([1.0, -1.0])
        rep = groupinv.nonneg_on_range(a, a)
        assert not rep.ok and rep.min_component == -1.0
        assert_allclose(rep.witness, [0.0, 1.0])

    def test_coordinate_ray_in_range(self):
        # A = U V^T with e1 a column of U, so e1 lies in range(A); a rounding-
        # level null-basis entry must not hide the ray e1 from the decision
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(3, 6))
            u = np.column_stack([np.eye(n)[:, 0], rng.standard_normal((n, n - 2))])
            a = u @ rng.standard_normal((n, n - 1)).T
            res = groupinv.group_inverse(a)
            if not res.exists or np.min(res.inverse[:, 0]) >= -1e-7:
                continue
            checked += 1
            rep = groupinv.nonneg_on_range(a, res.inverse)
            assert not rep.ok
            x = rep.witness
            q = null_basis(a.T).T
            assert np.min(x) >= -1e-12 and abs(np.sum(x) - 1.0) <= 1e-9
            assert np.linalg.norm(q @ x) <= 1e-9
            assert np.min(res.inverse @ x) < 0.0
        assert checked > 200

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), data=st.data())
    def test_matches_ray_enumeration(self, seed, n, data):
        # generic A = U V^T of rank r: the LP value is the least entry of A# r
        # over the unit-1-norm extreme rays r of range(A) cap the orthant
        r = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, r)) @ rng.standard_normal((n, r)).T
        res = groupinv.group_inverse(a)
        if not res.exists:
            return
        rays = orthant_slice_extreme_rays(null_basis(a.T).T, n)
        want = min((float(np.min(res.inverse @ ray)) for ray in rays), default=0.0)
        rep = groupinv.nonneg_on_range(a, res.inverse)
        assert rep.ok == (want >= -DEFAULT_TOL.feas_tol)
        assert abs(rep.min_component - want) <= 1e-9 * (1.0 + abs(want))
        assert (rep.witness is None) == rep.ok


def _nonneg_on_range_reference(a, a_sharp, tol=DEFAULT_TOL):
    """Reference: the same LPs with range(A) written as null(A^T)^perp."""
    n = a.shape[0]
    a_eq = np.vstack([null_basis(a.T, tol).T, np.ones((1, n))])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[-1] = 1.0
    best = None
    for i, row in enumerate(a_sharp):
        res = lp_solve(row, a_eq=a_eq, b_eq=b_eq, bounds=[(0.0, None)] * n, tol=tol)
        if i == 0 and res.status == "infeasible":
            break
        if best is None or res.objective < best.objective:
            best = res
    if best is None:
        return True, None, 0.0
    ok = best.objective >= -tol.feas_tol
    return ok, None if ok else best.x, best.objective


class TestNonnegOnRangeComplement:
    def test_matches_null_of_transpose_route(self):
        # orders 2-7, every rank, a third of the draws entrywise nonnegative:
        # range(A)'s complement basis decides exactly as null(A^T) did
        rng = np.random.default_rng(17)
        checked = refuted = 0
        for i in range(120):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, n + 1))
            u, v = rng.standard_normal((n, r)), rng.standard_normal((n, r))
            a = np.abs(u) @ np.abs(v).T if i % 3 == 0 else u @ v.T
            res = groupinv.group_inverse(a)
            if not res.exists:
                continue
            checked += 1
            ok, witness, least = _nonneg_on_range_reference(a, res.inverse)
            rep = groupinv.nonneg_on_range(a, res.inverse)
            assert rep.ok == ok
            assert abs(rep.min_component - least) <= 1e-9 * (1.0 + abs(least))
            if witness is None:
                assert rep.witness is None
            else:
                refuted += 1
                assert_allclose(rep.witness, witness, atol=1e-9)
        assert checked == 120 and refuted > 50


class TestExtremeRays:
    def test_whole_orthant(self):
        rays = orthant_slice_extreme_rays(np.zeros((0, 3)), 3)
        assert sorted(tuple(r) for r in rays) == sorted(tuple(r) for r in np.eye(3))

    def test_diagonal_slice(self):
        # x1 = x2 plane: rays (1,1,0)/2 and (0,0,1)
        rays = orthant_slice_extreme_rays(np.array([[1.0, -1.0, 0.0]]), 3)
        as_set = sorted(tuple(np.round(r, 12)) for r in rays)
        assert as_set == [(0.0, 0.0, 1.0), (0.5, 0.5, 0.0)]

    def test_trivial_slice(self):
        # x1 = -x2 admits no nonzero nonnegative point
        rays = orthant_slice_extreme_rays(np.array([[1.0, 1.0]]), 2)
        assert rays == []

    def test_rounding_noise_column(self):
        # the first column is rounding noise next to ||q||_2, so e1 is a ray
        rays = orthant_slice_extreme_rays(np.array([[6e-15, 1.0, -1.0]]), 3)
        as_set = sorted(tuple(np.round(r, 12)) for r in rays)
        assert as_set == [(0.0, 0.5, 0.5), (1.0, 0.0, 0.0)]

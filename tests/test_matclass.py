import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from lyapstein import matclass
from lyapstein.matclass import MClass
from lyapstein.numkernel import CapabilityError, general_eigenvalues

from conftest import random_permutation_matrix

RANK_ONE_Z = np.array([[1.0, -1.0], [-1.0, 1.0]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def circulant_shift(n):
    t = np.zeros((n, n))
    for i in range(n):
        t[(i + 1) % n, i] = 1.0
    return t


def random_column_stochastic(rng, n):
    t = rng.uniform(0.05, 1.0, size=(n, n))
    return t / t.sum(axis=0)


class TestZMatrix:
    def test_examples(self):
        assert matclass.is_z_matrix(RANK_ONE_Z)
        assert not matclass.is_z_matrix(SWAP)
        assert matclass.is_z_matrix(np.diag([3.0, -1.0, 0.5]))

    def test_decompose(self):
        s, b = matclass.z_decompose(RANK_ONE_Z)
        assert s == 1.0
        assert_allclose(b, SWAP)
        s, b = matclass.z_decompose(np.eye(2))
        assert s == 1.0 and np.all(b == 0)
        s, b = matclass.z_decompose(np.diag([2.0, 1.0]))
        assert s == 2.0
        assert_allclose(b, np.diag([0.0, 1.0]))

    def test_decompose_rejects_non_z(self):
        with pytest.raises(ValueError):
            matclass.z_decompose(SWAP)

    def test_shift_invariance_of_m_test(self):
        # comparing s with rho(B) is representation independent: adding t
        # to the shift adds t to the radius of the nonnegative part
        s, b = matclass.z_decompose(RANK_ONE_Z)
        rho = general_eigenvalues(b).spectral_radius
        s2 = s + 1.0
        b2 = s2 * np.eye(2) - RANK_ONE_Z
        rho2 = general_eigenvalues(b2).spectral_radius
        assert_allclose(s - rho, s2 - rho2, atol=1e-12)


class TestClassify:
    def test_singular_irreducible(self):
        rep = matclass.classify(RANK_ONE_Z)
        assert rep.m_class is MClass.SINGULAR_M
        assert rep.is_irreducible
        assert_allclose([rep.s, rep.rho_b], [1.0, 1.0])
        assert rep.perron_vector is not None
        assert rep.rank == 1

    def test_invertible(self):
        rep = matclass.classify(2 * np.eye(2) - SWAP)
        assert rep.m_class is MClass.INVERTIBLE_M
        assert rep.positive_stable

    def test_not_z(self):
        rep = matclass.classify(SWAP)
        assert rep.m_class is MClass.NOT_Z
        assert not rep.schur_stable

    def test_z_not_m(self):
        rep = matclass.classify(0.5 * np.eye(2) - SWAP)
        assert rep.m_class is MClass.Z_NOT_M

    def test_permutation_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            b = rng.uniform(0.0, 1.0, size=(n, n))
            shift = rng.uniform(0.5, 2.0)
            a = shift * np.eye(n) - b
            p = random_permutation_matrix(rng, n)
            rep1 = matclass.classify(a)
            rep2 = matclass.classify(p @ a @ p.T)
            assert rep1.m_class is rep2.m_class
            assert rep1.is_irreducible == rep2.is_irreducible
            assert_allclose(rep1.rho_b, rep2.rho_b, atol=1e-9)
            assert rep1.rank == rep2.rank


class TestIrreducibility:
    def test_two_cycle(self):
        assert matclass.is_irreducible(RANK_ONE_Z)

    def test_missing_back_edge(self):
        assert not matclass.is_irreducible(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_block_diagonal(self):
        a = np.zeros((4, 4))
        a[:2, :2] = RANK_ONE_Z
        a[2:, 2:] = RANK_ONE_Z
        assert not matclass.is_irreducible(a)

    def test_order_one_convention(self):
        assert matclass.is_irreducible(np.zeros((1, 1)))


class TestPerron:
    def test_symmetric_case(self):
        assert_allclose(matclass.perron_null_vector(RANK_ONE_Z), [0.5, 0.5])

    def test_circulant(self):
        a = np.eye(3) - circulant_shift(3)
        assert_allclose(matclass.perron_null_vector(a), np.full(3, 1 / 3), atol=1e-12)

    def test_stochastic_against_power_iteration(self, rng):
        t = random_column_stochastic(rng, 4)
        # I - T: null vector is the stationary distribution, T y = y
        a = np.eye(4) - t
        x = matclass.perron_null_vector(a)
        assert np.all(x > 1e-9)
        assert np.linalg.norm(a @ x) <= 1e-10
        y = np.full(4, 0.25)
        for _ in range(4000):
            y = t @ y
        assert_allclose(x, y / y.sum(), atol=1e-8)
        # I - T^T: columns of T sum to one, so the null vector is uniform
        x2 = matclass.perron_null_vector(np.eye(4) - t.T)
        assert_allclose(x2, np.full(4, 0.25), atol=1e-10)

    def test_rejects_non_sim(self):
        with pytest.raises(ValueError):
            matclass.perron_null_vector(np.eye(2))


class TestVerifySim:
    def test_rank_one(self):
        sim = matclass.verify_sim(RANK_ONE_Z)
        assert sim.all_true

    def test_circulant(self):
        sim = matclass.verify_sim(np.eye(3) - circulant_shift(3))
        assert sim.all_true

    def test_random_stochastic(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            t = random_column_stochastic(rng, n)
            sim = matclass.verify_sim(np.eye(n) - t.T)
            assert sim.all_true

    def test_rejects_invertible(self):
        with pytest.raises(ValueError):
            matclass.verify_sim(2 * np.eye(2) - SWAP)

    def test_order_one_zero_matrix(self):
        # the order-one irreducibility convention makes [[0]] a singular
        # irreducible M-matrix with perron vector [1]; every check is vacuous
        # or exact
        sim = matclass.verify_sim(np.zeros((1, 1)))
        assert sim.all_true

    def test_order_twenty(self):
        # no order cap: the range of a singular irreducible M-matrix meets the
        # orthant only at zero, which one infeasible LP decides at any order
        assert matclass.verify_sim(np.eye(20) - np.full((20, 20), 1 / 20)).all_true

    def test_classifies_only_maximal_submatrices(self, rng, monkeypatch):
        # one classify of the input plus one per maximal proper principal
        # submatrix: n + 1 calls, not 2^n - 1
        n = 12
        a = np.eye(n) - random_column_stochastic(rng, n).T
        calls = []
        classify = matclass.classify

        def counting(m, tol=matclass.DEFAULT_TOL):
            calls.append(m.shape[0])
            return classify(m, tol)

        monkeypatch.setattr(matclass, "classify", counting)
        assert matclass.verify_sim(a).all_true
        assert len(calls) == n + 1
        assert sorted(calls) == [n - 1] * n + [n]


def _all_proper_principal_submatrices_invertible_m(a):
    """Reference: classify every one of the 2^n - 2 proper principal submatrices."""
    n = a.shape[0]
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            idx = np.array(subset)
            if matclass.classify(a[np.ix_(idx, idx)]).m_class is not MClass.INVERTIBLE_M:
                return False
    return True


class TestProperPrincipalSubmatrices:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7),
           density=st.sampled_from([1.0, 0.6, 0.3]),
           reducible=st.booleans(),
           offset=st.sampled_from([0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.3, -0.3]))
    def test_maximal_submatrices_decide_all(self, seed, n, density, reducible, offset):
        # Z-matrices (rho(B) + offset (1 + rho(B))) I - B: the offset puts the
        # shift at rho(B), inside the singular band, just outside it, or far off
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < density)
        if reducible:
            k = int(rng.integers(1, n))
            b[k:, :k] = 0.0
        rho = general_eigenvalues(b).spectral_radius
        a = (rho + offset * (1.0 + rho)) * np.eye(n) - b
        ok, failing = matclass._proper_principal_submatrices_invertible_m(a)
        assert ok == _all_proper_principal_submatrices_invertible_m(a)
        assert ok == (not failing)
        assert all(len(subset) == n - 1 for subset in failing)

    def test_reducible_singular_block(self):
        # A = rho(C) I - [[C, E], [0, D]] with C positive and rho(D) < rho(C):
        # exactly the maximal submatrices that keep all of C's block are singular
        rng = np.random.default_rng(7)
        c = rng.uniform(0.5, 1.0, size=(3, 3))
        b = np.zeros((5, 5))
        b[:3, :3] = c
        b[:3, 3:] = rng.uniform(0.0, 1.0, size=(3, 2))
        b[3:, 3:] = rng.uniform(0.0, 0.2, size=(2, 2))
        a = general_eigenvalues(c).spectral_radius * np.eye(5) - b
        assert matclass.classify(a).m_class is MClass.SINGULAR_M
        assert not matclass.is_irreducible(a)
        ok, failing = matclass._proper_principal_submatrices_invertible_m(a)
        assert not ok
        assert failing == [(0, 1, 2, 3), (0, 1, 2, 4)]
        assert not _all_proper_principal_submatrices_invertible_m(a)


class TestSemiconvergent:
    def test_idempotent(self):
        assert matclass.is_semiconvergent(np.diag([1.0, 0.0]))

    def test_alternating(self):
        assert not matclass.is_semiconvergent(SWAP)

    def test_contraction(self):
        assert matclass.is_semiconvergent(0.5 * np.eye(3))

    def test_defective_unit_eigenvalue(self):
        assert not matclass.is_semiconvergent(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_sim_normalized_part(self):
        # for a singular M-matrix rho(B) I - B the matrix B / rho(B) is
        # semi-convergent exactly when the powers of the chain settle
        b = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert not matclass.is_semiconvergent(b)  # periodic chain
        b2 = np.full((3, 3), 1 / 3)
        assert matclass.is_semiconvergent(b2)


class TestEquivalences:
    def test_invertible_all_true(self):
        audit = matclass.check_m_equivalences(2 * np.eye(2) - SWAP)
        assert audit.consistent
        assert all(audit.items.values())
        assert audit.inverse_positive is True
        # hand inverse: (1/3) [[2, 1], [1, 2]] > 0
        inv = np.linalg.inv(2 * np.eye(2) - SWAP)
        assert_allclose(inv, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3)

    def test_singular_all_false(self):
        audit = matclass.check_m_equivalences(RANK_ONE_Z)
        assert audit.consistent
        assert not any(audit.items.values())

    def test_reducible_diagonal(self):
        audit = matclass.check_m_equivalences(np.eye(2))
        assert audit.consistent and all(audit.items.values())
        assert audit.inverse_positive is None  # vacuous for reducible input

    def test_rejects_non_z(self):
        with pytest.raises(ValueError):
            matclass.check_m_equivalences(SWAP)

    def test_order_cap(self):
        with pytest.raises(CapabilityError):
            matclass.check_m_equivalences(np.eye(13))

    def test_no_disagreements_on_margin_bounded_random(self, rng):
        # 200 random Z-matrices with |s - rho(B)| bounded away from zero
        for _ in range(200):
            n = int(rng.integers(2, 7))
            b = rng.uniform(0.0, 1.0, size=(n, n))
            rho = general_eigenvalues(b).spectral_radius
            margin = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.5)
            a = (rho + margin) * np.eye(n) - b
            audit = matclass.check_m_equivalences(a)  # must not raise
            assert audit.consistent


class TestNeumann:
    def test_hand_inverse(self):
        rep = matclass.neumann_inverse_check(2 * np.eye(2) - SWAP)
        assert rep.relative_error <= 1e-7
        assert_allclose(rep.inverse_estimate,
                        np.array([[2.0, 1.0], [1.0, 2.0]]) / 3, atol=1e-6)

    def test_diagonal(self):
        rep = matclass.neumann_inverse_check(np.diag([2.0, 3.0]))
        assert_allclose(rep.inverse_estimate, np.diag([0.5, 1 / 3]), atol=1e-9)

    def test_slow_ratio_converges_within_cap(self):
        a = 1.01 * np.eye(2) - SWAP  # rho/s about 0.99
        rep = matclass.neumann_inverse_check(a)
        assert rep.relative_error <= 1e-6
        assert rep.terms_used < 10_000

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            matclass.neumann_inverse_check(RANK_ONE_Z)


class TestMonotonicityOfInverse:
    def test_random_invertible_m_inverse_nonnegative(self, rng):
        # monotonicity: A^-1 y >= 0 for y >= 0
        for _ in range(10):
            n = int(rng.integers(2, 7))
            b = rng.uniform(0.0, 1.0, size=(n, n))
            rho = general_eigenvalues(b).spectral_radius
            a = (rho + rng.uniform(0.1, 1.0)) * np.eye(n) - b
            inv = np.linalg.inv(a)
            for _ in range(100):
                y = rng.uniform(0.0, 1.0, size=n)
                assert np.min(inv @ y) >= -1e-7

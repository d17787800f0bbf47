import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lyapstein import operators
from lyapstein.numkernel import CapabilityError
from lyapstein.operators import (
    SingularOperatorError,
    adjoint,
    apply,
    compose,
    detect_k_potency,
    is_idempotent,
    l_idempotent_expected,
    lyapunov,
    op_power,
    operator_from_matrix,
    orthogonal_covariance_check,
    s_idempotent_expected,
    solve,
    stein,
    z_operator_spot_check,
)
from lyapstein.symspace import svec, sym_dim

from conftest import random_orthogonal, random_symmetric

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestConstruction:
    def test_lyapunov_closed_form(self, rng):
        # A = [[1, 1], [0, 0]] maps X to [[2(x11+x12), x12+x22], [., 0]]
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        op = lyapunov(a)
        for _ in range(10):
            x = random_symmetric(rng, 2)
            expected = np.array([
                [2 * (x[0, 0] + x[0, 1]), x[0, 1] + x[1, 1]],
                [x[0, 1] + x[1, 1], 0.0]])
            assert_allclose(apply(op, x), expected, atol=1e-12)

    def test_stein_closed_form(self, rng):
        # A = [[1, 1], [0, 1]] maps [[a, b], [b, c]] to -[[2b+c, c], [c, 0]]
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        op = stein(a)
        for _ in range(10):
            x = random_symmetric(rng, 2)
            b, c = x[0, 1], x[1, 1]
            expected = -np.array([[2 * b + c, c], [c, 0.0]])
            assert_allclose(apply(op, x), expected, atol=1e-12)

    def test_stein_of_zero_is_identity(self):
        op = stein(np.zeros((3, 3)))
        assert_allclose(op.mat, np.eye(sym_dim(3)), atol=1e-14)

    def test_materialization_soundness(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n))
            x = random_symmetric(rng, n)
            scale = 1 + np.linalg.norm(a) * np.linalg.norm(x)
            assert np.linalg.norm(apply(lyapunov(a), x) - (a @ x + x @ a.T)) \
                <= 1e-10 * scale
            assert np.linalg.norm(apply(stein(a), x) - (x - a @ x @ a.T)) \
                <= 1e-10 * scale * (1 + np.linalg.norm(a))

    def test_linearity_in_base(self, rng):
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        t, s = 1.7, -0.4
        assert_allclose(lyapunov(t * a + s * b).mat,
                        t * lyapunov(a).mat + s * lyapunov(b).mat, atol=1e-12)

    def test_zero_operator_characterizations(self, rng):
        assert np.linalg.norm(lyapunov(np.zeros((3, 3))).mat) == 0.0
        assert np.linalg.norm(stein(np.eye(3)).mat) <= 1e-14
        assert np.linalg.norm(stein(-np.eye(3)).mat) <= 1e-14
        for _ in range(20):
            a = rng.standard_normal((3, 3)) * rng.uniform(0.1, 3)
            assert np.linalg.norm(lyapunov(a).mat) > 1e-8  # zero only for A=0
            if min(np.linalg.norm(a - np.eye(3)), np.linalg.norm(a + np.eye(3))) > 0.1:
                assert np.linalg.norm(stein(a).mat) > 1e-8

    def test_identity_operator_characterizations(self):
        assert_allclose(lyapunov(0.5 * np.eye(4)).mat, np.eye(sym_dim(4)), atol=1e-14)

    def test_size_guard_refuses_before_allocating(self):
        # order 108 is the first over the limit; order 200 would need 3.2 GB
        tracemalloc.start()
        try:
            for n in (108, 200):
                for make in (lyapunov, stein):
                    with pytest.raises(CapabilityError):
                        make(np.eye(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_size_guard_admits_desk_scale(self):
        # order 50: d = 1275, a 13 MB coordinate matrix
        assert lyapunov(np.eye(50)).dim == sym_dim(50)


class TestAlgebra:
    def test_image_of_identity(self, rng):
        a = rng.standard_normal((4, 4))
        assert_allclose(apply(lyapunov(a), np.eye(4)), a + a.T, atol=1e-12)

    def test_power_one_is_identity_operation(self):
        op = lyapunov(J)
        assert op_power(op, 1) is op

    def test_cube_of_rotation_lyapunov(self):
        op = lyapunov(J)
        assert_allclose(op_power(op, 3).mat, -4.0 * op.mat, atol=1e-12)

    def test_compose_matches_repeated_apply(self, rng):
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        op1, op2 = lyapunov(a), stein(b)
        x = random_symmetric(rng, 3)
        assert_allclose(apply(compose(op1, op2), x), apply(op1, apply(op2, x)),
                        atol=1e-10)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose(lyapunov(J), lyapunov(np.eye(3)))
        with pytest.raises(ValueError):
            apply(lyapunov(J), np.eye(3))

    def test_non_symmetric_operand_rejected(self):
        with pytest.raises(ValueError):
            apply(lyapunov(J), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            solve(lyapunov(np.eye(2)), np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestAdjoint:
    def test_coordinate_transpose_exact(self, rng):
        a = rng.standard_normal((4, 4))
        op = lyapunov(a)
        assert np.array_equal(adjoint(op).mat, op.mat.T)

    def test_adjoint_is_operator_of_transpose(self, rng):
        a = rng.standard_normal((3, 3))
        for make in (lyapunov, stein):
            assert_allclose(adjoint(make(a)).mat, make(a.T).mat, atol=1e-12)

    def test_skew_base_gives_skew_adjoint_operator(self, rng):
        a = rng.standard_normal((3, 3))
        a = a - a.T
        op = lyapunov(a)
        assert_allclose(adjoint(op).mat, -op.mat, atol=1e-12)

    def test_symmetric_base_gives_self_adjoint_stein(self, rng):
        op = stein(random_symmetric(rng, 3))
        assert_allclose(adjoint(op).mat, op.mat, atol=1e-12)

    def test_involution(self):
        op = stein(SWAP)
        assert np.array_equal(adjoint(adjoint(op)).mat, op.mat)


class TestIdempotency:
    def test_mixed_half_diagonal_is_not_idempotent(self):
        # the (1,2) coordinate is scaled by 1/2, so squaring changes it;
        # closed form and operational test agree on the failure
        a = np.diag([0.5, 0.0])
        assert not is_idempotent(lyapunov(a))
        assert not l_idempotent_expected(a)

    def test_half_identity_and_zero_are_idempotent(self):
        for a in (np.zeros((3, 3)), 0.5 * np.eye(3)):
            assert is_idempotent(lyapunov(a))
            assert l_idempotent_expected(a)

    def test_projection_stein(self):
        a = np.diag([1.0, 0.0])  # A^2 = A
        assert is_idempotent(stein(a))
        assert s_idempotent_expected(a)

    def test_half_identity_is_identity_operator(self):
        op = lyapunov(0.5 * np.eye(3))
        assert is_idempotent(op)

    def test_agreement_on_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            a = rng.uniform(-2, 2, size=(n, n))
            assert is_idempotent(lyapunov(a)) == l_idempotent_expected(a)
            assert is_idempotent(stein(a)) == s_idempotent_expected(a)


class TestKPotency:
    def test_rotation_lyapunov(self):
        rep = detect_k_potency(lyapunov(J))
        assert rep.found and rep.k == 3
        assert_allclose(rep.alpha, -4.0, atol=1e-12)

    def test_rotation_stein(self):
        rep = detect_k_potency(stein(J))
        assert rep.found and rep.k == 2
        assert_allclose(rep.alpha, 2.0, atol=1e-12)

    def test_involution_lyapunov(self):
        rep = detect_k_potency(lyapunov(SWAP))
        assert rep.found and rep.k == 3
        assert_allclose(rep.alpha, 4.0, atol=1e-12)

    def test_generic_not_potent(self, rng):
        a = rng.standard_normal((3, 3))
        rep = detect_k_potency(lyapunov(a))
        assert not rep.found

    def test_nilpotency_transfer(self, rng):
        for n in (2, 3, 4):
            a = np.triu(rng.standard_normal((n, n)), k=1)
            op = lyapunov(a)
            assert np.linalg.norm(op_power(op, 2 * n - 1).mat) \
                <= 1e-8 * max(1.0, op.norm)


class TestZOperatorProperty:
    def test_lyapunov_and_stein_pass(self, rng):
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            ok, _ = z_operator_spot_check(lyapunov(a), trials=100, seed=1)
            assert ok
            ok, _ = z_operator_spot_check(stein(a), trials=100, seed=2)
            assert ok

    def test_constructed_violation_found(self):
        # X -> <X, E11> E22 is positive on orthogonal pairs supported on
        # the first/second coordinate axes
        e11 = np.diag([1.0, 0.0])
        e22 = np.diag([0.0, 1.0])
        mat = np.outer(svec(e22), svec(e11))
        op = operator_from_matrix(mat, 2)
        ok, counterexample = z_operator_spot_check(op, trials=100, seed=3)
        assert not ok
        x, y = counterexample
        assert np.trace(x @ y) <= 1e-7
        assert np.trace(apply(op, x) @ y) > 1e-7


class TestSolve:
    def test_identity_base(self):
        x = solve(lyapunov(np.eye(2)), 2 * np.eye(2))
        assert_allclose(x, np.eye(2), atol=1e-12)

    def test_diagonal_base(self):
        x = solve(lyapunov(np.diag([1.0, 2.0])), np.diag([2.0, 8.0]))
        assert_allclose(x, np.diag([1.0, 2.0]), atol=1e-12)

    def test_stein_contraction(self):
        x = solve(stein(0.5 * np.eye(2)), 3 * np.eye(2))
        assert_allclose(x, 4 * np.eye(2), atol=1e-12)

    def test_singular_reports_kernel(self):
        with pytest.raises(SingularOperatorError) as err:
            solve(lyapunov(J), np.eye(2))
        kernel = err.value.kernel
        assert len(kernel) == 1
        # the kernel is spanned by the identity: L(I) = A + A^T = 0 for skew A
        k = kernel[0]
        assert_allclose(k / k[0, 0], np.eye(2), atol=1e-9)


class TestOrthogonalCovariance:
    def test_identity_conjugation(self, rng):
        a = rng.standard_normal((3, 3))
        x = random_symmetric(rng, 3)
        assert orthogonal_covariance_check(a, np.eye(3), x)

    def test_random_rotation(self, rng):
        a = rng.standard_normal((3, 3))
        x = random_symmetric(rng, 3)
        p = random_orthogonal(rng, 3)
        assert orthogonal_covariance_check(a, p, x)

    def test_permutation(self, rng):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert orthogonal_covariance_check(a, p, random_symmetric(rng, 2))

    def test_rejects_non_orthogonal(self, rng):
        with pytest.raises(ValueError):
            orthogonal_covariance_check(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]),
                                        np.eye(2))

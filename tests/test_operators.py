import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from lyapstein import cli, operators
from lyapstein.numkernel import DEFAULT_TOL, CapabilityError, InconsistencyError, numerical_rank
from lyapstein.operators import (
    SingularOperatorError,
    adjoint,
    apply,
    compose,
    detect_k_potency,
    is_idempotent,
    l_idempotent_expected,
    lyapunov,
    make_operator,
    op_power,
    operator_from_matrix,
    orthogonal_covariance_check,
    s_idempotent_expected,
    solve,
    stein,
    z_operator_spot_check,
)
from lyapstein.symspace import smat, svec, sym_dim

from conftest import random_orthogonal, random_symmetric, well_conditioned

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
KINDS = ("lyapunov", "stein")


def column_loop(action, n):
    """Reference build: the action applied to one basis element per column."""
    d = sym_dim(n)
    mat = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        mat[:, j] = svec(action(smat(e)))
    return mat


def ill_conditioned_draws(count):
    """Seeded draws of orders 2-6, alternating kinds: ``diag(U(0.2, 1))`` (x0.9
    for Stein) plus ``30 N(0, 1)`` strictly above the diagonal.  Most of these
    operators have cond(T) far beyond 1e10."""
    for s in range(count):
        rng = np.random.default_rng([7, s])
        n = int(rng.integers(2, 7))
        kind = KINDS[s % 2]
        a = np.diag(rng.uniform(0.2, 1.0, n) * (0.9 if kind == "stein" else 1.0))
        yield kind, a + 30.0 * np.triu(rng.standard_normal((n, n)), 1)


def desk_pair(rng, kind, n):
    """A positive stable (Lyapunov) or Schur stable (Stein) A and a positive definite Q."""
    m = rng.standard_normal((n, n)) / np.sqrt(n)
    eig = np.linalg.eigvals(m)
    if kind == "lyapunov":
        a = m + (0.5 - eig.real.min()) * np.eye(n)
    else:
        a = m * (0.9 / np.abs(eig).max())
    p = rng.standard_normal((n, n))
    return a, p @ p.T / n + np.eye(n)


@pytest.fixture
def materialize_calls(monkeypatch):
    """Count the coordinate-matrix builds."""
    calls = []
    build = operators._materialize

    def counted(action, n):
        calls.append(n)
        return build(action, n)

    monkeypatch.setattr(operators, "_materialize", counted)
    return calls


def diagonalizable(rng, eigenvalues):
    """``V diag(eigenvalues) V^-1`` with a well-conditioned ``V``."""
    v = well_conditioned(rng, len(eigenvalues), cond_cap=10.0)
    return v @ np.diag(eigenvalues) @ np.linalg.inv(v)


def assert_singular(op, rng):
    with pytest.raises(SingularOperatorError) as err:
        solve(op, random_symmetric(rng, op.n))
    kernel = err.value.kernel
    assert kernel
    for k in kernel:
        assert np.linalg.norm(apply(op, k)) <= DEFAULT_TOL.feas_tol
    # the rank oracle agrees: sigma_min(T) <= min |mu| and sigma_max(T) >= max |mu|
    assert numerical_rank(op.mat) < op.dim


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), log_scale=st.floats(-3, 3))
    def test_row_build_matches_column_loop(self, seed, n, log_scale):
        a = np.random.default_rng(seed).standard_normal((n, n)) * 10.0 ** log_scale
        assert np.array_equal(lyapunov(a).mat, column_loop(lambda x: a @ x + x @ a.T, n))
        assert np.array_equal(stein(a).mat, column_loop(lambda x: x - a @ x @ a.T, n))


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

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), kind=st.sampled_from(KINDS))
    def test_well_conditioned_matches_dense_solve(self, seed, n, kind):
        # mu_ij in [1, 4] (Lyapunov) or [0.36, 1.64] (Stein)
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.5, 2.0, n) if kind == "lyapunov" else rng.uniform(-0.8, 0.8, n)
        op = make_operator(kind, diagonalizable(rng, lam))
        q = random_symmetric(rng, n)
        expected = np.linalg.solve(op.mat, svec(q))
        assert np.linalg.norm(svec(solve(op, q)) - expected) <= 1e-9 * np.linalg.norm(expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), kind=st.sampled_from(KINDS))
    def test_planted_pair_is_singular(self, seed, n, kind):
        # (l, -l) makes l_i + l_j = 0; (l, 1/l) makes 1 - l_i l_j = 0
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-2.0, 2.0, n)
        pivot = rng.uniform(0.3, 2.0)
        lam[:2] = (pivot, -pivot) if kind == "lyapunov" else (pivot, 1.0 / pivot)
        assert_singular(make_operator(kind, diagonalizable(rng, lam)), rng)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    def test_skew_lyapunov_and_orthogonal_stein_are_singular(self, seed, n):
        rng = np.random.default_rng(seed)
        k = rng.standard_normal((n, n))
        assert_singular(lyapunov(k - k.T), rng)
        assert_singular(stein(random_orthogonal(rng, n)), rng)

    @pytest.mark.parametrize("kind, upper", [("lyapunov", [1.0, 2.0, 3.0]),
                                             ("stein", [1.0, 1.0, 1.0])])
    def test_non_normal_rank_deficient_operator_is_solved(self, kind, upper):
        # every eigenvalue is 0.5, so no mu is near 0, yet the x30 off-diagonal
        # entries make the coordinate matrix numerically rank deficient
        a = 0.5 * np.eye(3)
        a[np.triu_indices(3, 1)] = 30.0 * np.array(upper)
        op = make_operator(kind, a)
        assert numerical_rank(op.mat) < op.dim
        q = np.eye(3)
        x = solve(op, q)
        assert np.linalg.norm(apply(op, x) - q) <= DEFAULT_TOL.feas_tol * np.linalg.norm(q)
        assert np.linalg.eigvalsh(x)[0] > 0.0

    def test_unverifiable_solution_is_not_called_singular(self):
        # nonsingular, but so ill-conditioned that the computed X fails the
        # re-checks (here: not positive definite, though A is stable and Q > 0)
        a = 0.5 * np.eye(4)
        a[np.triu_indices(4, 1)] = 30.0
        with pytest.raises(InconsistencyError):
            solve(lyapunov(a), np.eye(4))

    def test_general_operator_rejected(self):
        for op in (operator_from_matrix(np.eye(3), 2), compose(lyapunov(J), stein(J))):
            with pytest.raises(ValueError):
                solve(op, np.eye(2))


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


class TestLazyBuild:
    """The coordinate matrix is built on first read of ``.mat``, once."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_desk_solve_never_builds(self, kind, rng, tmp_path, capsys, materialize_calls):
        a, q = desk_pair(rng, kind, 50)
        op = make_operator(kind, a)
        assert op.dim == sym_dim(50)
        solve(op, q)
        paths = []
        for name, m in (("a", a), ("q", q)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"n": 50, "rows": m.tolist()}))
        assert cli.main(["solve", kind, str(paths[0]), str(paths[1]), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["solution_class"] \
            == "positive_definite"
        assert materialize_calls == []

    def test_singular_solve_builds_once_for_the_kernel(self, materialize_calls):
        with pytest.raises(SingularOperatorError):
            solve(lyapunov(J), np.eye(2))
        assert materialize_calls == [2]

    @pytest.mark.parametrize("kind", KINDS)
    def test_analyze_builds_once(self, kind, rng, tmp_path, capsys, materialize_calls):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"n": 3, "rows": rng.standard_normal((3, 3)).tolist()}))
        assert cli.main(["operator", kind, str(path), "--analyze", "--json"]) == 0
        capsys.readouterr()
        assert materialize_calls == [3]

    def test_cached(self, materialize_calls):
        op = stein(J)
        assert op.mat is op.mat and op.norm == np.linalg.norm(op.mat)
        assert materialize_calls == [2]

    def test_lazy_matches_eager_and_action_residual(self):
        # 300 operators of orders 1-12 at scales 1e-3..1e3: the cached build is
        # bit-identical to an eager one, and the residual through the action
        # agrees with the one through the coordinate matrix to rounding in Q
        rng = np.random.default_rng(5)
        for draw in range(300):
            n = int(rng.integers(1, 13))
            kind = KINDS[draw % 2]
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            op = make_operator(kind, a)
            eager = operators._materialize(
                (lambda x: a @ x + x @ a.T) if kind == "lyapunov" else (lambda x: x - a @ x @ a.T),
                n)
            assert np.array_equal(op.mat, eager)
            x = random_symmetric(rng, n)
            q = apply(op, x) + random_symmetric(rng, n)  # as at a solution, Q ~ T(X)
            assert abs(operators._residual(op, x, q) - np.linalg.norm(apply(op, x) - q)) \
                <= 1e-12 * (1.0 + np.linalg.norm(q))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_ill_conditioned_verdicts_match_coordinate_residual(self, monkeypatch):
        # solved / singular / refused, and the solution itself, as when the
        # residual was taken through the coordinate matrix
        def outcome(op, q):
            try:
                return solve(op, q)
            except (SingularOperatorError, InconsistencyError) as exc:
                return type(exc)

        draws = [make_operator(kind, a) for kind, a in ill_conditioned_draws(300)]
        action = [outcome(op, np.eye(op.n)) for op in draws]
        monkeypatch.setattr(operators, "_residual",
                            lambda op, x, q: float(np.linalg.norm(apply(op, x) - q)))
        coordinate = [outcome(op, np.eye(op.n)) for op in draws]
        assert sum(isinstance(v, np.ndarray) for v in action) > 0
        assert sum(v is InconsistencyError for v in action) > 0
        for got, want in zip(action, coordinate):
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want)
            else:
                assert got is want

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lyapstein import catalog, conefeas, groupinv, monotonicity, operators
from lyapstein.monotonicity import (
    Verdict,
    analyze_operator,
    decide_trivial_matrix,
    decide_trivial_operator,
    inverse_class_check,
    randomized_trivial_refuter,
    structural_fast_paths,
)
from lyapstein.numkernel import DEFAULT_TOL, null_basis, range_basis
from lyapstein.operators import apply, lyapunov, s_idempotent_expected, stein
from lyapstein.symspace import svec

from conftest import random_permutation_matrix

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
RANK_ONE_Z = np.array([[1.0, -1.0], [-1.0, 1.0]])


class TestMatrixVerdicts:
    def test_singular_irreducible_m_fast_path(self):
        v = decide_trivial_matrix(RANK_ONE_Z)
        assert v.trivially_range_monotone is Verdict.YES
        assert v.range_monotone is Verdict.YES
        assert v.fast_path == "singular_irreducible_m"

    def test_identity_refuted(self):
        v = decide_trivial_matrix(np.eye(2))
        assert v.trivially_range_monotone is Verdict.NO
        x = v.witness
        assert np.min(np.eye(2) @ x) >= -1e-7 and np.linalg.norm(x) > 0.9

    def test_index_two_refuted(self):
        v = decide_trivial_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert v.trivially_range_monotone is Verdict.NO
        assert_allclose(v.witness, [1.0, 0.0], atol=1e-9)

    def test_sim_matrices_always_yes(self, rng):
        from lyapstein.numkernel import general_eigenvalues
        for _ in range(10):
            n = int(rng.integers(2, 6))
            b = rng.uniform(0.05, 1.0, size=(n, n))
            rho = general_eigenvalues(b).spectral_radius
            v = decide_trivial_matrix(rho * np.eye(n) - b)
            assert v.trivially_range_monotone is Verdict.YES

    def test_general_route_agrees_without_fast_path(self):
        # certified through the cone machinery for a matrix with no fast path
        a = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        v = decide_trivial_matrix(a)
        assert v.trivially_range_monotone is Verdict.NO  # e3 direction is fixed PSD


class TestOperatorTrivialVerdicts:
    def test_rotation_lyapunov_yes(self):
        v = decide_trivial_operator(lyapunov(J))
        assert v.trivially_range_monotone is Verdict.YES
        assert v.fast_path == "square_is_minus_identity"

    def test_involution_stein_yes_general_route(self):
        v = decide_trivial_operator(stein(SWAP), use_fast_paths=False)
        assert v.trivially_range_monotone is Verdict.YES
        assert v.certificate is not None

    def test_involution_lyapunov_no(self):
        v = decide_trivial_operator(lyapunov(SWAP))
        assert v.trivially_range_monotone is Verdict.NO
        x = v.witness
        assert np.linalg.eigvalsh(apply(lyapunov(SWAP), x))[0] >= -1e-7
        assert np.linalg.norm(x) > 0.9

    def test_zero_base(self):
        # Lyapunov of 0 is the zero operator: trivially range monotone;
        # Stein of 0 is the identity: not trivially, but range monotone
        vl = analyze_operator(lyapunov(np.zeros((2, 2))))
        assert vl.trivially_range_monotone is Verdict.YES
        vs = analyze_operator(stein(np.zeros((2, 2))))
        assert vs.trivially_range_monotone is Verdict.NO
        assert vs.range_monotone is Verdict.YES
        assert vs.fast_path == "idempotent_operator"

    def test_witness_invariants(self):
        op = stein(np.diag([1.0, 2.0]))
        v = decide_trivial_operator(op)
        assert v.trivially_range_monotone is Verdict.NO
        x = v.witness
        assert_allclose(np.linalg.norm(x), 1.0, atol=1e-9)
        # in the range and mapped inside the cone
        coords = svec(x)
        from lyapstein.numkernel import range_basis
        basis = range_basis(op.mat)
        assert np.linalg.norm(coords - basis @ (basis.T @ coords)) <= 1e-7
        assert np.linalg.eigvalsh(apply(op, x))[0] >= -1e-7


class TestOperatorRangeVerdicts:
    def test_range_monotone_but_not_trivially(self):
        v = analyze_operator(lyapunov(np.array([[1.0, 1.0], [0.0, 0.0]])))
        assert v.trivially_range_monotone is Verdict.NO
        assert v.range_monotone in (Verdict.YES, Verdict.UNDECIDED)  # never refuted
        assert_allclose(v.witness, np.diag([1.0, 0.0]), atol=1e-7)

    def test_stein_unit_triangular_refuted(self):
        v = analyze_operator(stein(np.array([[1.0, 1.0], [0.0, 1.0]])))
        assert v.range_monotone is Verdict.NO
        assert_allclose(v.witness, np.diag([-1.0, 0.0]), atol=1e-7)

    def test_stein_diagonal_refuted(self):
        v = analyze_operator(stein(np.diag([1.0, 2.0])))
        assert v.range_monotone is Verdict.NO
        assert_allclose(v.witness, np.diag([0.0, -1.0]), atol=1e-7)

    @pytest.mark.parametrize("op, refuted", [
        (lyapunov(np.array([[1.0, 1.0], [0.0, 0.0]])), False),  # index defect, not refuted
        (stein(np.array([[1.0, 1.0], [0.0, 1.0]])), True),  # index defect, refuted
        (stein(np.diag([1.0, 2.0])), True),  # PSD-path witness
    ])
    def test_index_defect_computed_once(self, op, refuted, monkeypatch):
        calls = []
        defect = monotonicity._index_defect_image

        def counting(m, tol):
            calls.append(m.shape)
            return defect(m, tol)

        monkeypatch.setattr(monotonicity, "_index_defect_image", counting)
        v = analyze_operator(op)
        assert calls == [op.mat.shape]
        assert (v.range_monotone is Verdict.NO) == refuted

    def test_no_group_inverse_in_the_range_search(self, monkeypatch):
        # singular operators whose range search reaches the sampler; every
        # No it returns is re-checked here from the definition
        gi_calls, sampled = [], []
        group_inverse = groupinv.group_inverse
        collect = conefeas.collect_psd_witness_samples

        def counting_gi(*args, **kwargs):
            gi_calls.append(1)
            return group_inverse(*args, **kwargs)

        def counting_samples(*args, **kwargs):
            sampled.append(1)
            return collect(*args, **kwargs)

        monkeypatch.setattr(groupinv, "group_inverse", counting_gi)
        monkeypatch.setattr(conefeas, "collect_psd_witness_samples", counting_samples)
        rng = np.random.default_rng(31)
        refuted = 0
        for i in range(24):
            n = int(rng.integers(2, 5))
            v = rng.standard_normal((n, n))
            lam = rng.standard_normal(n)
            lam[1] = -lam[0] if i % 2 == 0 else 1.0 / lam[0]  # mu_01 = 0: singular
            make = lyapunov if i % 2 == 0 else stein
            op = make(v @ np.diag(lam) @ np.linalg.inv(v))
            verdict = analyze_operator(op)
            if verdict.range_monotone is Verdict.NO:
                refuted += 1
                x = verdict.witness
                basis = range_basis(op.mat)
                assert np.linalg.norm(svec(x) - basis @ (basis.T @ svec(x))) <= 1e-7
                assert np.linalg.eigvalsh(x)[0] <= -1e-3
                assert np.linalg.eigvalsh(apply(op, x))[0] >= -1e-7
        assert gi_calls == []
        assert sampled and refuted > 12

    def test_range_decider_needs_the_trivial_verdict(self):
        with pytest.raises(TypeError):
            monotonicity.decide_range_operator(stein(SWAP))

    def test_refutation_witness_relations(self):
        op = lyapunov(SWAP)
        v = analyze_operator(op)
        assert v.range_monotone is Verdict.NO
        x = v.witness
        assert np.linalg.eigvalsh(x)[0] <= -1e-3
        assert np.linalg.eigvalsh(apply(op, x))[0] >= -1e-7


def _null_route_defect_image(m, tol=DEFAULT_TOL):
    """Reference: the defect from its own null(M^2) basis, a second SVD of M^2."""
    kernel2 = null_basis(m @ m, tol)
    if kernel2.shape[1] == 0:
        return None
    images = m @ kernel2
    norms = np.linalg.norm(images, axis=0)
    j = int(np.argmax(norms))
    if norms[j] <= tol.feas_tol:
        return None
    return images[:, j] / norms[j]


class TestIndexDefectImage:
    def test_bit_identical_to_separate_routes(self):
        # full-rank, rank-deficient and index-defect inputs: one SVD of M^2
        # gives the same bits as range_basis(M^2) and the null(M^2) route
        rng = np.random.default_rng(5)
        defects = 0
        for i in range(400):
            n = int(rng.integers(2, 9))
            if i % 3 == 0:
                m = rng.standard_normal((n, n))
            elif i % 3 == 1:
                r = int(rng.integers(0, n))
                m = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
            else:
                v = rng.standard_normal((n, n))
                e = np.diag(rng.standard_normal(n))
                k = int(rng.integers(2, n + 1))
                e[:k, :k] = np.diag(np.ones(k - 1), 1)  # a nilpotent block of order k
                m = v @ e @ np.linalg.inv(v)
            m2, range2, defect = monotonicity._index_defect_image(m, DEFAULT_TOL)
            want = _null_route_defect_image(m)
            assert np.array_equal(m2, m @ m)
            assert np.array_equal(range2, range_basis(m @ m))
            if want is None:
                assert defect is None
            else:
                assert np.array_equal(defect, want)
                defects += 1
        assert defects > 50

    @pytest.mark.parametrize("op", [
        stein(np.array([[1.0, 1.0], [0.0, 1.0]])),  # index defect
        stein(np.diag([1.0, 2.0])),  # PSD-path witness
        stein(SWAP),  # certified trivial
    ])
    def test_one_svd_per_decision(self, op, monkeypatch):
        # past the fast paths, the decider's own linear algebra is one SVD of
        # T^2; the cone routines' SVDs are theirs and are not counted here
        calls, counting = [], [True]
        svd = np.linalg.svd

        def counting_svd(m, *args, **kwargs):
            if counting[0]:
                calls.append(np.shape(m))
            return svd(m, *args, **kwargs)

        def paused(fn):
            def run(*args, **kwargs):
                counting[0] = False
                try:
                    return fn(*args, **kwargs)
                finally:
                    counting[0] = True
            return run

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for name in ("subspace_from_coordinates", "psd_intersection"):
            monkeypatch.setattr(conefeas, name, paused(getattr(conefeas, name)))
        decide_trivial_operator(op, use_fast_paths=False)
        assert calls == [op.mat.shape]


class TestFastPaths:
    def test_square_minus_identity(self):
        hits = structural_fast_paths(J)
        rules = {(h.operator, h.conclusion, h.rule) for h in hits}
        assert ("lyapunov", "trivial", "square_is_minus_identity") in rules
        assert ("stein", "trivial", "square_is_minus_identity") in rules

    def test_skew_order3_lyapunov_only(self):
        a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        hits = structural_fast_paths(a)
        assert any(h.operator == "lyapunov" and h.conclusion == "trivial" for h in hits)
        assert not any(h.operator == "stein" and h.conclusion == "trivial" for h in hits)

    def test_zero_matrix_no_trivial_paths(self):
        hits = structural_fast_paths(np.zeros((2, 2)))
        assert not any(h.conclusion == "trivial" for h in hits)
        # range conclusions do fire (zero operator / identity operator)
        assert any(h.conclusion == "range" for h in hits)

    def test_stein_range_rule_is_the_idempotency_criterion(self):
        # the square_is_plus_minus_self rule fires exactly when
        # s_idempotent_expected holds, band edges included
        rng = np.random.default_rng(9)
        fired = 0
        for i in range(300):
            n = int(rng.integers(1, 5))
            v = rng.standard_normal((n, n))
            p = v @ np.diag(rng.integers(0, 2, n).astype(float)) @ np.linalg.inv(v)
            a = p if i % 3 else -p  # A^2 = A or A^2 = -A
            a = a + rng.choice([0.0, 1e-12, 1e-9, 1e-6, 1e-2]) * rng.standard_normal((n, n))
            rule = ("stein", "range", "square_is_plus_minus_self")
            hit = rule in {(h.operator, h.conclusion, h.rule) for h in structural_fast_paths(a)}
            assert hit == s_idempotent_expected(a)
            fired += hit
        assert 50 < fired < 300

    def test_no_structural_negatives(self, rng):
        # fast paths only ever assert Yes; counterexample classes get nothing
        hits = structural_fast_paths(SWAP)
        assert not any(h.operator == "lyapunov" and h.conclusion == "trivial"
                       for h in hits)


class TestInverseClasses:
    def test_rotation(self):
        rep = inverse_class_check(J)
        assert rep.source_rule == "square_is_minus_identity"
        assert rep.ok

    def test_involution(self):
        rep = inverse_class_check(SWAP)
        assert rep.source_rule == "square_is_identity"
        assert rep.ok and rep.lyapunov_verdict is None

    def test_skew_group_inverse(self):
        rep = inverse_class_check(2.5 * J)  # invertible skew: A# = A^-1
        assert rep.source_rule == "skew_symmetric"
        assert rep.ok

    def test_rejects_other_classes(self):
        with pytest.raises(ValueError):
            inverse_class_check(np.diag([1.0, 2.0]))

    def test_rejects_zero(self):
        # A = 0 is not skew for structural_fast_paths, whose class the check reads
        with pytest.raises(ValueError):
            inverse_class_check(np.zeros((2, 2)))


class TestReductionValidity:
    def test_refuter_agrees_on_catalog(self):
        for entry in catalog.load_catalog()["entries"]:
            op = operators.make_operator(entry["operator"],
                                         np.asarray(entry["matrix"], float))
            verdict = decide_trivial_operator(op)
            hit = randomized_trivial_refuter(op, samples=20_000, seed=11)
            if hit is not None:
                assert verdict.trivially_range_monotone is Verdict.NO, entry["id"]
            if verdict.trivially_range_monotone is Verdict.YES:
                assert hit is None, entry["id"]

    def test_refuter_agrees_on_random(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 4))
            from lyapstein.symspace import sym_dim
            d = sym_dim(n)
            mat = rng.standard_normal((d, d))
            op = operators.operator_from_matrix(mat, n)
            verdict = decide_trivial_operator(op)
            hit = randomized_trivial_refuter(op, samples=5_000,
                                             seed=int(rng.integers(1 << 31)))
            if hit is not None:
                assert verdict.trivially_range_monotone is Verdict.NO
            if verdict.trivially_range_monotone is Verdict.YES:
                assert hit is None


class TestImplicationsAndInvariance:
    def test_trivial_yes_implies_range_yes(self):
        for entry in catalog.load_catalog()["entries"]:
            op = operators.make_operator(entry["operator"],
                                         np.asarray(entry["matrix"], float))
            v = analyze_operator(op)
            if v.trivially_range_monotone is Verdict.YES:
                assert v.range_monotone is Verdict.YES

    def test_permutation_invariance(self, rng):
        for a in (SWAP, np.diag([1.0, 2.0]), J):
            p = random_permutation_matrix(rng, 2)
            for make in (lyapunov, stein):
                v1 = decide_trivial_operator(make(a))
                v2 = decide_trivial_operator(make(p @ a @ p.T))
                assert v1.trivially_range_monotone == v2.trivially_range_monotone


class TestEdgesAndScale:
    def test_order_one_operators(self):
        v = analyze_operator(lyapunov(np.array([[2.0]])))
        assert v.trivially_range_monotone is Verdict.NO  # T is 4x on a 1-dim space
        v = analyze_operator(stein(np.array([[0.0]])))
        assert v.range_monotone is Verdict.YES  # the identity operator

    def test_larger_orders_certify_quickly(self, rng):
        def block_rotations(n):
            out = np.zeros((n, n))
            for i in range(0, n, 2):
                out[i, i + 1], out[i + 1, i] = 1.0, -1.0
            return out

        for n in (6, 8):
            p = rng.standard_normal((n, n))
            while np.linalg.cond(p) > 20:
                p = rng.standard_normal((n, n))
            a = p @ block_rotations(n) @ np.linalg.inv(p)
            v = decide_trivial_operator(stein(a), use_fast_paths=False)
            assert v.trivially_range_monotone is Verdict.YES
        k = rng.standard_normal((9, 9))
        k = k - k.T
        v = decide_trivial_operator(lyapunov(k), use_fast_paths=False)
        assert v.trivially_range_monotone is Verdict.YES

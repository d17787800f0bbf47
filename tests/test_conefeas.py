import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from lyapstein import conefeas, operators
from lyapstein.conefeas import ConeBudget, ConeStatus, SubspaceSpec
from lyapstein.numkernel import DEFAULT_TOL
from lyapstein.symspace import psd_project, smat, svec

from conftest import orthant_slice_extreme_rays, random_symmetric


def oracle_psd_nontrivial(mats, sweep_step=1e-3, band=0.0):
    """Brute-force PSD-triviality oracle for subspaces of dimension 1 or 2.

    Dimension 1: sign analysis of the spanning matrix's eigenvalues.
    Dimension 2: sweep the smallest eigenvalue of the unit circle of the
    span; nontrivial iff the sweep maximum clears ``band``.
    Returns (nontrivial, margin).
    """
    if len(mats) == 1:
        w = np.linalg.eigvalsh(mats[0])
        margin = max(-w[-1], w[0])  # >= 0 when one-signed
        nontrivial = w[0] >= band or w[-1] <= -band
        return nontrivial, abs(margin)
    thetas = np.arange(0.0, 2 * np.pi, sweep_step)
    stack = (np.cos(thetas)[:, None, None] * mats[0]
             + np.sin(thetas)[:, None, None] * mats[1])
    mins = np.linalg.eigvalsh(stack)[:, 0]
    peak = float(mins.max())
    return peak >= band, abs(peak)


class TestSubspaceSpec:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            SubspaceSpec("vec", 2, np.array([[1.0], [1.0]]))

    def test_rejects_unknown_ambient(self):
        with pytest.raises(ValueError):
            SubspaceSpec("cone", 2, np.zeros((2, 0)))

    def test_constructors_orthonormalize(self, rng):
        vs = [rng.standard_normal(4) for _ in range(2)]
        spec = conefeas.subspace_from_vectors(vs + [vs[0] + vs[1]], 4)
        assert spec.dim == 2  # dependent vector dropped


class TestOrthantIntersection:
    def test_trivial_with_certificate(self):
        spec = conefeas.subspace_from_vectors([np.array([1.0, -1.0])], 2)
        dec = conefeas.orthant_intersection(spec)
        assert dec.status is ConeStatus.TRIVIAL_CERTIFIED
        assert_allclose(dec.certificate / dec.certificate[0], [1.0, 1.0], atol=1e-9)

    def test_coordinate_axis_witness(self):
        spec = conefeas.subspace_from_vectors([np.array([1.0, 0.0])], 2)
        dec = conefeas.orthant_intersection(spec)
        assert dec.status is ConeStatus.NONTRIVIAL_WITNESS
        assert_allclose(dec.witness, [1.0, 0.0], atol=1e-9)

    def test_full_space_witness(self):
        spec = conefeas.subspace_from_vectors([np.eye(2)[0], np.eye(2)[1]], 2)
        assert conefeas.orthant_intersection(spec).status is ConeStatus.NONTRIVIAL_WITNESS

    def test_zero_subspace_trivial(self):
        spec = conefeas.subspace_from_vectors([], 3)
        dec = conefeas.orthant_intersection(spec)
        assert dec.status is ConeStatus.TRIVIAL_CERTIFIED
        assert np.all(dec.certificate >= 1.0 - 1e-9)

    def test_witness_invariants(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            spec = conefeas.subspace_from_vectors(
                [rng.standard_normal(n) for _ in range(k)], n)
            dec = conefeas.orthant_intersection(spec)
            if dec.status is ConeStatus.NONTRIVIAL_WITNESS:
                y = dec.witness
                assert np.min(y) >= -1e-7
                assert_allclose(np.sum(y), 1.0, atol=1e-9)
                # inside the subspace
                proj = spec.basis @ (spec.basis.T @ y)
                assert np.linalg.norm(proj - y) <= 1e-7
            else:
                z = dec.certificate
                assert np.min(z) >= 1e-7
                assert np.linalg.norm(spec.basis.T @ z) <= 1e-7

    def test_matches_support_enumeration(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            spec = conefeas.subspace_from_vectors(
                [rng.standard_normal(n) for _ in range(k)], n)
            comp = conefeas._complement_basis(spec.basis, conefeas.DEFAULT_TOL)
            rays = orthant_slice_extreme_rays(comp.T, n)
            dec = conefeas.orthant_intersection(spec)
            assert (dec.status is ConeStatus.NONTRIVIAL_WITNESS) == bool(rays)

    def test_scale_invariance(self, rng):
        vs = [rng.standard_normal(4) for _ in range(2)]
        spec1 = conefeas.subspace_from_vectors(vs, 4)
        spec2 = conefeas.subspace_from_vectors([7.3 * v for v in vs[::-1]], 4)
        s1 = conefeas.orthant_intersection(spec1).status
        s2 = conefeas.orthant_intersection(spec2).status
        assert s1 == s2


class TestPsdIntersection:
    def test_identity_span_witness(self):
        spec = conefeas.subspace_from_matrices([np.eye(2)], 2)
        dec = conefeas.psd_intersection(spec)
        assert dec.status is ConeStatus.NONTRIVIAL_WITNESS
        assert_allclose(dec.witness, np.eye(2) / 2, atol=1e-7)

    def test_trace_zero_span_certified(self):
        spec = conefeas.subspace_from_matrices(
            [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])], 2)
        dec = conefeas.psd_intersection(spec)
        assert dec.status is ConeStatus.TRIVIAL_CERTIFIED
        assert_allclose(dec.certificate, np.eye(2))

    def test_stein_square_range_certified(self):
        # range of the square of the Stein operator of the rotation
        # generator meets the cone only at zero
        op = operators.stein(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        m2 = op.mat @ op.mat
        from lyapstein.numkernel import range_basis
        spec = conefeas.subspace_from_coordinates(range_basis(m2), 2)
        dec = conefeas.psd_intersection(spec)
        assert dec.status is ConeStatus.TRIVIAL_CERTIFIED

    def test_witness_certificate_exclusive(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 4))
            dim = int(rng.integers(1, 3))
            spec = conefeas.subspace_from_matrices(
                [random_symmetric(rng, n) for _ in range(dim)], n)
            dec = conefeas.psd_intersection(spec)
            assert (dec.witness is None) or (dec.certificate is None)
            if dec.status is ConeStatus.NONTRIVIAL_WITNESS:
                assert dec.witness is not None and dec.certificate is None
            if dec.status is ConeStatus.TRIVIAL_CERTIFIED:
                assert dec.certificate is not None and dec.witness is None

    def test_matches_oracle_small(self, rng):
        undecided = 0
        for trial in range(60):
            n = 2 if trial % 2 == 0 else 3
            dim = 1 + trial % 2
            mats = [random_symmetric(rng, n) for _ in range(dim)]
            nontrivial, margin = oracle_psd_nontrivial(mats)
            if margin < 1e-5:
                continue  # borderline instance, oracle itself unreliable
            spec = conefeas.subspace_from_matrices(mats, n)
            dec = conefeas.psd_intersection(spec)
            if dec.status is ConeStatus.UNDECIDED:
                undecided += 1
                continue
            assert (dec.status is ConeStatus.NONTRIVIAL_WITNESS) == nontrivial
        assert undecided <= 3

    def test_scale_invariance(self, rng):
        mats = [random_symmetric(rng, 3) for _ in range(2)]
        spec1 = conefeas.subspace_from_matrices(mats, 3)
        spec2 = conefeas.subspace_from_matrices([5.0 * m for m in mats[::-1]], 3)
        assert conefeas.psd_intersection(spec1).status \
            == conefeas.psd_intersection(spec2).status

    def test_witness_invariants(self, rng):
        spec = conefeas.subspace_from_matrices(
            [np.eye(3), random_symmetric(rng, 3, 0.1)], 3)
        dec = conefeas.psd_intersection(spec)
        assert dec.status is ConeStatus.NONTRIVIAL_WITNESS
        w = dec.witness
        assert_allclose(np.trace(w), 1.0, atol=1e-9)
        assert np.linalg.eigvalsh(w)[0] >= -1e-7
        coords = svec(w)
        proj = spec.basis @ (spec.basis.T @ coords)
        assert np.linalg.norm(proj - coords) <= 1e-7


def random_psd_spec(seed):
    """Span of 1..n(n+1)/2 random symmetric matrices of order 2-4, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    k = int(rng.integers(1, n * (n + 1) // 2 + 1))
    return conefeas.subspace_from_matrices([random_symmetric(rng, n) for _ in range(k)], n)


def single_start_hits(spec, starts, iters):
    """The kernel run on one start at a time: {start index: hit matrix}."""
    hits = {}
    for i in range(len(starts)):
        for w in conefeas._dykstra_hits(spec.basis, spec.n, starts[i:i + 1], iters,
                                        DEFAULT_TOL).values():
            hits[i] = w
    return hits


def reference_dykstra(basis, n, start, iters, tol=DEFAULT_TOL):
    """One Dykstra run from one start, tested every iteration: the kernel's specification.

    Returns the hit matrix or None.
    """
    s_id = svec(np.eye(n))
    u = basis @ (basis.T @ s_id)
    uu = u @ u
    if uu <= tol.feas_tol ** 2:
        return None
    x, corr, best_gap, stalled = start, np.zeros_like(start), np.inf, 0
    for _ in range(iters):
        w = basis @ (basis.T @ x)
        a = w + ((1.0 - w @ s_id) / uu) * u
        if np.linalg.eigvalsh(smat(a))[0] >= -tol.feas_tol:
            return smat(a)
        y = a + corr
        x = svec(psd_project(smat(y)))
        corr = y - x
        gap = np.linalg.norm(a - x)
        if gap < best_gap * (1.0 - 1e-3):
            best_gap, stalled = gap, 0
        else:
            stalled += 1
            if stalled >= 200 and gap > 10.0 * tol.feas_tol:
                return None
    return None


class TestBatchedDykstra:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           iters=st.sampled_from([1, 20, 300]))
    def test_batch_matches_single_starts(self, seed, k, iters):
        spec = random_psd_spec(seed)
        starts = conefeas._starts(spec.basis, spec.n, seed, range(k))
        singles = single_start_hits(spec, starts, iters)
        for i, start in enumerate(starts):
            ref = reference_dykstra(spec.basis, spec.n, start, iters)
            assert (ref is not None) == (i in singles)
            if ref is not None:
                assert_allclose(singles[i], ref, rtol=0, atol=1e-12)
        batch = conefeas._dykstra_hits(spec.basis, spec.n, starts, iters, DEFAULT_TOL)
        assert list(batch) == sorted(singles)
        for i, w in batch.items():
            assert_allclose(w, singles[i], rtol=0, atol=1e-12)
        first = conefeas._dykstra_hits(spec.basis, spec.n, starts, iters, DEFAULT_TOL,
                                       first=True)
        assert list(first) == sorted(singles)[:1]

        budget = ConeBudget(starts=k, projection_iters=iters, ascent_iters=50, seed=seed)
        dec = conefeas.psd_intersection(spec, budget=budget)
        if dec.status is ConeStatus.NONTRIVIAL_WITNESS:
            w = singles[min(singles)]  # the lowest-indexed start that hits wins
            assert_allclose(dec.witness, w / np.trace(w), rtol=0, atol=1e-12)
        elif singles:
            assert dec.status is ConeStatus.TRIVIAL_CERTIFIED  # settled before the search

    def test_lowest_start_wins_over_earlier_hits(self):
        # start 0 (I/n) and starts 1, 2 miss; start 3 hits, but only after
        # several higher-indexed starts have hit
        spec = random_psd_spec(165)
        starts = conefeas._starts(spec.basis, spec.n, 0, range(16))
        singles = single_start_hits(spec, starts[:4], 5000)
        assert list(singles) == [3]
        assert not single_start_hits(spec, starts[3:4], 100)
        assert conefeas._dykstra_hits(spec.basis, spec.n, starts[4:], 100, DEFAULT_TOL)
        dec = conefeas.psd_intersection(spec)
        assert dec.status is ConeStatus.NONTRIVIAL_WITNESS
        assert_allclose(dec.witness, singles[3] / np.trace(singles[3]), rtol=0, atol=1e-12)


class TestWitnessBudget:
    @pytest.fixture
    def kernel_starts(self, monkeypatch):
        """Start rows handed to the Dykstra kernel, one array per call."""
        seen = []
        original = conefeas._dykstra_hits

        def recording(basis, n, starts, *args, **kwargs):
            seen.append(np.array(starts))
            return original(basis, n, starts, *args, **kwargs)

        monkeypatch.setattr(conefeas, "_dykstra_hits", recording)
        return seen

    def test_zero_starts_fall_through_to_ascent(self, kernel_starts):
        # diag(1, 0) spans a subspace the identity is not in, and the
        # one-step probe cannot certify; start 0 would hit at once
        spec = conefeas.subspace_from_matrices([np.diag([1.0, 0.0])], 2)
        dec = conefeas.psd_intersection(spec, budget=ConeBudget(starts=0, ascent_iters=50))
        assert dec.status is ConeStatus.UNDECIDED
        assert sum(len(s) for s in kernel_starts) == 0
        dec = conefeas.psd_intersection(spec, budget=ConeBudget(starts=1, ascent_iters=50))
        assert dec.status is ConeStatus.NONTRIVIAL_WITNESS
        assert_allclose(dec.witness, np.diag([1.0, 0.0]), atol=1e-12)

    def test_one_start_runs_only_identity(self, kernel_starts):
        spec = random_psd_spec(165)  # start 0 misses here, start 3 hits
        dec = conefeas.psd_intersection(spec, budget=ConeBudget(starts=1, ascent_iters=50))
        assert dec.status is ConeStatus.UNDECIDED
        rows = np.vstack(kernel_starts)
        assert rows.shape[0] == 1
        assert_allclose(rows[0], svec(np.eye(spec.n)) / spec.n)

    def test_sampler_with_zero_starts_is_empty(self):
        spec = conefeas.subspace_from_matrices([np.eye(3)], 3)
        assert conefeas.collect_psd_witness_samples(spec, starts=0) == []
        assert len(conefeas.collect_psd_witness_samples(spec, starts=1)) == 1

    def test_vanishing_trace_functional_has_no_witness(self):
        spec = conefeas.subspace_from_matrices([np.diag([1.0, -1.0]) + 1e-9 * np.eye(2)], 2)
        u = spec.basis @ (spec.basis.T @ svec(np.eye(2)))
        assert u @ u <= DEFAULT_TOL.feas_tol ** 2
        starts = conefeas._starts(spec.basis, 2, 0, range(4))
        assert conefeas._dykstra_hits(spec.basis, 2, starts, 100, DEFAULT_TOL) == {}
        assert conefeas.collect_psd_witness_samples(spec, starts=4, iters=100) == []
        assert conefeas.psd_intersection(spec).status is ConeStatus.TRIVIAL_CERTIFIED

    def test_sampler_signature(self):
        # positional use, as in collect_psd_witness_samples(spec, tol, starts, iters, seed)
        params = list(inspect.signature(conefeas.collect_psd_witness_samples).parameters)
        assert params == ["spec", "tol", "starts", "iters", "seed"]
        spec = conefeas.subspace_from_matrices([np.eye(2), np.diag([1.0, -1.0])], 2)
        samples = conefeas.collect_psd_witness_samples(spec, DEFAULT_TOL, 3, 50, 0)
        assert 1 <= len(samples) <= 3
        for w in samples:
            assert_allclose(np.trace(w), 1.0, atol=1e-12)
            assert np.linalg.eigvalsh(w)[0] >= -DEFAULT_TOL.feas_tol

import itertools

import numpy as np
import pytest

from lyapstein.numkernel import DEFAULT_TOL


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return 0.5 * (m + m.T)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_permutation_matrix(rng, n):
    p = np.zeros((n, n))
    p[np.arange(n), rng.permutation(n)] = 1.0
    return p


def well_conditioned(rng, n, cond_cap=50.0):
    """Random invertible matrix with a bounded condition number."""
    while True:
        m = rng.standard_normal((n, n))
        s = np.linalg.svd(m, compute_uv=False)
        if s[0] / s[-1] <= cond_cap:
            return m


def orthant_slice_extreme_rays(q, n, tol=DEFAULT_TOL):
    """Reference: extreme rays of ``{x >= 0 : q @ x = 0}`` by support-set enumeration.

    ``q`` may have zero rows (the slice is then the whole orthant).  Exact
    for a pointed polyhedral cone: a support ``S`` carries an extreme ray
    iff the columns of ``q`` restricted to ``S`` have a one-dimensional
    null space whose generator is strictly one-signed on ``S``.  Ranks are
    cut relative to ``||q||_2``, so a column that is rounding noise counts
    as zero.  Rays are returned normalized to unit 1-norm; 2^n supports,
    so small orders only.
    """
    q = np.asarray(q, dtype=float).reshape(-1, n) if np.asarray(q).size else np.zeros((0, n))
    cut = tol.rank_tol * (np.linalg.norm(q, 2) if q.shape[0] else 0.0)
    rays = []
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            if q.shape[0] == 0:
                if size != 1:
                    continue
                gen = np.ones(1)
            else:
                _, sv, vh = np.linalg.svd(q[:, support])
                if size - int(np.count_nonzero(sv > cut)) != 1:
                    continue
                gen = vh[-1]
            if np.min(np.abs(gen)) <= tol.rank_tol * np.max(np.abs(gen)):
                continue  # actual support is smaller; covered by a subset
            if np.all(gen > 0) or np.all(gen < 0):
                ray = np.zeros(n)
                ray[list(support)] = np.abs(gen)
                rays.append(ray / np.sum(ray))
    return rays

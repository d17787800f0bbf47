"""Z-matrix and M-matrix classification, with certificates.

A Z-matrix (nonpositive off-diagonal entries) is written ``A = s I - B``
with ``B >= 0`` and ``s`` the largest diagonal entry, the minimal shift
that keeps ``B`` nonnegative.  Whether ``s`` exceeds, equals, or falls
short of the spectral radius of ``B`` decides the class: invertible
M-matrix, singular M-matrix, or Z-but-not-M.  The comparison is
representation independent, since shifting ``s`` shifts ``rho(B)`` by the
same amount.

``verify_sim`` checks, each by an independent route, the classical
properties of a singular irreducible M-matrix: rank ``n-1``, a strictly
positive null vector, a group inverse that is nonnegative on the range,
invertibility of every proper principal submatrix, almost monotonicity,
and trivial range monotonicity.  Both cone facts rest on one exact orthant
certificate for ``range(A)``: once the index is at most one,
``range(A^2) = range(A)``, so trivial range monotonicity needs no second
intersection.  The submatrix property is decided by the ``n``
maximal proper principal submatrices alone: every smaller one is a
principal submatrix of a maximal one, and a principal submatrix of an
invertible M-matrix is again an invertible M-matrix (Berman & Plemmons,
*Nonnegative Matrices in the Mathematical Sciences*, 1994, ch. 6).  The
same chapter's list of equivalent conditions lets ``check_m_equivalences``
decide "all principal minors positive" from the ``n`` leading ones.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from . import conefeas, groupinv
from .numkernel import (
    DEFAULT_TOL,
    InconsistencyError,
    NonConvergenceError,
    Spectrum,
    Tolerances,
    as_square,
    general_eigenvalues,
    null_basis,
    numerical_rank,
    range_basis,
)

# |s - rho(B)| <= SINGULAR_BAND * (1 + s) is classified as the singular boundary
SINGULAR_BAND = 1e-7


class MClass(enum.Enum):
    NOT_Z = "not_z"
    INVERTIBLE_M = "invertible_m"
    SINGULAR_M = "singular_m"
    Z_NOT_M = "z_not_m"


@dataclass(frozen=True)
class ClassReport:
    is_z: bool
    m_class: MClass
    s: float
    rho_b: float
    is_irreducible: bool
    positive_stable: bool
    schur_stable: bool
    perron_vector: np.ndarray | None
    rank: int
    spectrum: Spectrum
    boundary: bool  # the s vs rho(B) comparison landed inside the singular band


@dataclass(frozen=True)
class SimReport:
    """Singular-irreducible-M property checks, one independent route each."""

    rank_is_n_minus_1: bool
    perron_positive: bool
    group_inverse_exists: bool
    nonneg_on_range: bool
    proper_principal_submatrices_invertible_m: bool
    almost_monotone: bool
    trivially_range_monotone: bool
    witnesses: dict

    @property
    def all_true(self) -> bool:
        return all((self.rank_is_n_minus_1, self.perron_positive,
                    self.group_inverse_exists, self.nonneg_on_range,
                    self.proper_principal_submatrices_invertible_m,
                    self.almost_monotone, self.trivially_range_monotone))


def is_z_matrix(a, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every off-diagonal entry is nonpositive (within ``eq_tol``)."""
    a = as_square(a)
    off = a - np.diag(np.diag(a))
    return bool(np.all(off <= tol.eq_tol))


def z_decompose(a, tol: Tolerances = DEFAULT_TOL):
    """Write a Z-matrix as ``(s, B)`` with ``A = s I - B`` and ``B >= 0``.

    ``s`` is the largest diagonal entry, the minimal valid shift.
    """
    a = as_square(a)
    if not is_z_matrix(a, tol):
        raise ValueError("z_decompose requires a Z-matrix")
    s = float(np.max(np.diag(a)))
    b = s * np.eye(a.shape[0]) - a
    return s, np.maximum(b, 0.0)


def is_irreducible(a) -> bool:
    """Strong connectivity of the digraph of nonzero off-diagonal entries.

    By convention a 1-by-1 matrix is irreducible.
    """
    a = as_square(a)
    n = a.shape[0]
    if n <= 1:
        return True
    adj = a != 0.0
    np.fill_diagonal(adj, False)

    def reaches_all(adjacency):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            nxt = adjacency[frontier].any(axis=0) & ~seen
            seen |= nxt
            frontier = nxt
        return bool(seen.all())

    return reaches_all(adj) and reaches_all(adj.T)


def _collatz_wielandt_check(b, rho: float, tol: Tolerances):
    """Bracket rho(B) with Collatz-Wielandt ratios at a smoothed positive vector."""
    n = b.shape[0]
    x = np.ones(n)
    for _ in range(50):
        x = (b + np.eye(n)) @ x
        x /= np.sum(x)
    bx = b @ x
    ratios = bx / x
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    band = 1e-8 * (1.0 + rho)
    if not (lo - band <= rho <= hi + band):
        raise InconsistencyError(
            "spectral radius falls outside its Collatz-Wielandt bracket",
            {"rho": rho, "lower": lo, "upper": hi})


def classify(a, tol: Tolerances = DEFAULT_TOL) -> ClassReport:
    """Full classification of a square matrix against the M-matrix taxonomy."""
    a = as_square(a)
    n = a.shape[0]
    spectrum = general_eigenvalues(a, tol)
    scale = 1.0 + spectrum.spectral_radius
    margin = tol.rank_tol * scale
    positive_stable = spectrum.is_positive_stable(margin)
    schur_stable = spectrum.is_schur_stable(margin)
    rank = numerical_rank(a, tol)
    irreducible = is_irreducible(a)

    if not is_z_matrix(a, tol):
        return ClassReport(False, MClass.NOT_Z, float("nan"), float("nan"),
                           irreducible, positive_stable, schur_stable, None,
                           rank, spectrum, False)

    s, b = z_decompose(a, tol)
    rho_b = general_eigenvalues(b, tol).spectral_radius
    if is_irreducible(b) and np.linalg.norm(b) > 0:
        _collatz_wielandt_check(b, rho_b, tol)

    band = SINGULAR_BAND * (1.0 + abs(s))
    boundary = abs(s - rho_b) <= band
    if boundary:
        m_class = MClass.SINGULAR_M
    elif s > rho_b:
        m_class = MClass.INVERTIBLE_M
    else:
        m_class = MClass.Z_NOT_M

    perron = None
    if m_class is MClass.SINGULAR_M and irreducible:
        try:
            perron = perron_null_vector(a, tol, _classified=True)
        except (ValueError, InconsistencyError):
            perron = None
    return ClassReport(True, m_class, s, rho_b, irreducible, positive_stable,
                       schur_stable, perron, rank, spectrum, boundary)


def perron_null_vector(a, tol: Tolerances = DEFAULT_TOL, _classified: bool = False) -> np.ndarray:
    """Strictly positive null vector of a singular irreducible M-matrix.

    Normalized to unit 1-norm; requires a one-dimensional null space.
    """
    a = as_square(a)
    if not _classified:
        report = classify(a, tol)
        if report.m_class is not MClass.SINGULAR_M or not report.is_irreducible:
            raise ValueError("perron_null_vector requires a singular irreducible M-matrix")
    kernel = null_basis(a, tol)
    if kernel.shape[1] != 1:
        raise ValueError(f"null space dimension is {kernel.shape[1]}, expected 1")
    x = kernel[:, 0]
    total = np.sum(x)
    if total < 0:
        x = -x
        total = -total
    if total <= 0:
        raise InconsistencyError("null vector has no positive orientation")
    x = x / np.sum(np.abs(x))
    if np.min(x) <= tol.feas_tol:
        raise InconsistencyError("null vector is not strictly positive",
                                 {"min_component": float(np.min(x))})
    return x


def _proper_principal_submatrices_invertible_m(a, tol: Tolerances = DEFAULT_TOL):
    """Is every proper principal submatrix of ``a`` an invertible M-matrix?

    Classifies only the ``n`` maximal ones, of order ``n-1``; the smaller
    ones follow by inheritance (see the module docstring).  For a Z-matrix
    the per-submatrix test only gets easier on a smaller submatrix, so the
    answer equals that of classifying all ``2^n - 2`` of them.  Returns
    ``(ok, failing)`` with ``failing`` the index tuples of the maximal
    submatrices that are not invertible M-matrices.
    """
    n = a.shape[0]
    failing = []
    if n > 1:
        for subset in itertools.combinations(range(n), n - 1):
            idx = np.array(subset)
            if classify(a[np.ix_(idx, idx)], tol).m_class is not MClass.INVERTIBLE_M:
                failing.append(subset)
    return not failing, failing


def verify_sim(a, tol: Tolerances = DEFAULT_TOL) -> SimReport:
    """Verify every singular-irreducible-M property by its own route.

    Proper principal submatrices are checked through the ``n`` maximal
    ones only (inheritance theorem, see the module docstring).
    Nonnegativity of the group inverse on the range is decided by LP
    (:func:`groupinv.nonneg_on_range`): ``range(A)`` of a singular
    irreducible M-matrix meets the orthant only at ``0``, so one
    infeasible LP settles it at any order.  The same orthant certificate
    for ``range(A)`` gives almost monotonicity and, once the index is at
    most one (so ``range(A^2) = range(A)``), trivial range monotonicity.
    """
    a = as_square(a)
    n = a.shape[0]
    report = classify(a, tol)
    if report.m_class is not MClass.SINGULAR_M or not report.is_irreducible:
        raise ValueError("verify_sim requires a singular irreducible M-matrix")

    witnesses: dict = {}
    rank_ok = report.rank == n - 1

    perron = report.perron_vector
    perron_ok = perron is not None and bool(np.min(perron) > tol.feas_tol
                                            and np.linalg.norm(a @ perron) <= tol.feas_tol)
    if perron is not None:
        witnesses["perron_vector"] = perron

    gi = groupinv.group_inverse(a, tol)
    gi_ok = gi.exists and max(gi.residuals) <= tol.eq_tol * (1.0 + np.linalg.norm(a))
    witnesses["group_inverse_residuals"] = gi.residuals

    if gi.exists:
        nonneg_ok = groupinv.nonneg_on_range(a, gi.inverse, tol).ok
    else:
        nonneg_ok = False

    submatrices_ok, failing = _proper_principal_submatrices_invertible_m(a, tol)
    if failing:
        witnesses["failing_submatrices"] = failing

    range_dec = conefeas.orthant_intersection(
        conefeas.SubspaceSpec("vec", n, range_basis(a, tol)), tol)
    almost_ok = range_dec.status is conefeas.ConeStatus.TRIVIAL_CERTIFIED
    witnesses["almost_monotone_certificate"] = range_dec.certificate

    trm_ok = gi.index <= 1 and almost_ok
    witnesses["trivial_range_monotone_certificate"] = range_dec.certificate

    return SimReport(rank_ok, perron_ok, gi_ok, nonneg_ok, submatrices_ok,
                     almost_ok, trm_ok, witnesses)


def is_semiconvergent(x, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Does the power sequence ``X^k`` converge?

    Holds iff the spectral radius is at most 1, the only eigenvalues of
    unit modulus equal 1, and the eigenvalue 1 (when present) is
    semisimple, i.e. ``rank(I - X) == rank((I - X)^2)``.
    """
    x = as_square(x)
    n = x.shape[0]
    spectrum = general_eigenvalues(x, tol)
    band = 1e-8 * (1.0 + spectrum.spectral_radius)
    if spectrum.spectral_radius > 1.0 + band:
        return False
    for lam in spectrum.values:
        if abs(lam) >= 1.0 - band and abs(lam - 1.0) > band * 10:
            return False
    residue = np.eye(n) - x
    return numerical_rank(residue, tol) == numerical_rank(residue @ residue, tol)


@dataclass(frozen=True)
class MEquivalenceAudit:
    """Independent evaluations of the invertible-M characterizations.

    Keys are descriptive (the inverse-nonnegativity item carries no letter
    in the classical list).  ``inverse_positive`` is only populated for
    irreducible input.
    """

    items: dict
    inverse_positive: bool | None
    consistent: bool


def check_m_equivalences(a, tol: Tolerances = DEFAULT_TOL) -> MEquivalenceAudit:
    """Audit the equivalent characterizations of an invertible M-matrix.

    Every item is computed by its own method; they must all agree.  A
    disagreement outside the singular boundary band raises
    :class:`InconsistencyError` naming the dissenting items; a numerically
    singular ``A`` (rank below ``n``) counts as the band, as it may pass
    the shift test while the items that need the inverse fail.
    """
    a = as_square(a)
    n = a.shape[0]
    if not is_z_matrix(a, tol):
        raise ValueError("check_m_equivalences requires a Z-matrix")

    report = classify(a, tol)
    s, rho_b = report.s, report.rho_b

    # (a) by definition: an M-matrix that is numerically invertible
    invertible_m = report.m_class is MClass.INVERTIBLE_M and report.rank == n

    # (b) there is x > 0 with A x > 0: by Gordan's alternative, exactly when
    #     {z >= 0 : 1^T z = 1, A^T z <= 0} is empty, an LP feasibility question
    #     with no margin to compare against a tolerance
    from .numkernel import lp_solve  # local import keeps module init light
    res = lp_solve(np.zeros(n), a_ub=a.T, b_ub=np.zeros(n), a_eq=np.ones((1, n)),
                   b_eq=np.ones(1), bounds=[(0.0, None)] * n, tol=tol)
    positive_image = res.status == "infeasible"

    # (d)/(unlabeled): monotonicity and inverse nonnegativity via the inverse
    invertible = report.rank == n
    if invertible:
        inv = np.linalg.solve(a, np.eye(n))
        inv_floor = float(np.min(inv))
        inverse_nonnegative = inv_floor >= -tol.feas_tol * (1.0 + np.abs(inv).max())
        monotone = inverse_nonnegative
        inverse_positive = bool(inv_floor > tol.feas_tol) if report.is_irreducible else None
    else:
        inverse_nonnegative = False
        monotone = False
        inverse_positive = False if report.is_irreducible else None

    # (f) all principal minors positive: for a Z-matrix the n leading ones
    #     decide it (Berman & Plemmons 1994, ch. 6); signs via slogdet
    p_matrix = all(np.linalg.slogdet(a[:k, :k])[0] > 0 for k in range(1, n + 1))

    # (g) positive stability from the spectrum
    positive_stable = report.positive_stable

    # (h) shift exceeds the spectral radius of the nonnegative part
    spectral_shift = s > rho_b + SINGULAR_BAND * (1.0 + abs(s))

    items = {
        "invertible_m": invertible_m,
        "positive_image": positive_image,
        "monotone": monotone,
        "inverse_nonnegative": inverse_nonnegative,
        "p_matrix": p_matrix,
        "positive_stable": positive_stable,
        "spectral_shift": spectral_shift,
    }
    votes = dict(items)
    if report.is_irreducible:
        votes["inverse_positive"] = bool(inverse_positive)
    consistent = len(set(votes.values())) == 1
    if not consistent and not report.boundary and invertible:
        majority = sum(votes.values()) * 2 >= len(votes)
        dissent = {k: v for k, v in votes.items() if v != majority}
        raise InconsistencyError("invertible-M characterizations disagree", dissent)
    return MEquivalenceAudit(items, inverse_positive, consistent)


@dataclass(frozen=True)
class NeumannReport:
    relative_error: float
    terms_used: int
    inverse_estimate: np.ndarray


def neumann_inverse_check(a, tol: Tolerances = DEFAULT_TOL,
                          target: float | None = None) -> NeumannReport:
    """Compare the inverse of an invertible M-matrix with its geometric series.

    ``A^-1 = (1/s) * sum_m (B/s)^m``; summation stops once the geometric
    tail bound drops below ``target`` (default ``feas_tol``) and the
    result is compared against the direct inverse.
    """
    a = as_square(a)
    report = classify(a, tol)
    if report.m_class is not MClass.INVERTIBLE_M:
        raise ValueError("neumann_inverse_check requires an invertible M-matrix")
    if target is None:
        target = tol.feas_tol
    s, b = z_decompose(a, tol)
    n = a.shape[0]
    ratio = b / s
    q = general_eigenvalues(ratio, tol).spectral_radius
    total = np.eye(n)
    term = np.eye(n)
    terms = 1
    for _ in range(tol.max_iter):
        term = term @ ratio
        total += term
        terms += 1
        tail = np.linalg.norm(term) * q / max(1e-300, 1.0 - q)
        if tail <= target:
            break
    else:
        raise NonConvergenceError("geometric series did not reach its tail bound "
                                  f"within {tol.max_iter} terms")
    estimate = total / s
    direct = np.linalg.solve(a, np.eye(n))
    rel = float(np.linalg.norm(estimate - direct) / max(1e-300, np.linalg.norm(direct)))
    return NeumannReport(rel, terms, estimate)

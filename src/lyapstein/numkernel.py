"""Dense real linear-algebra kernel shared by every analysis module.

Plain ``float64`` numpy arrays are the matrix type throughout the package.
All routines here are pure functions of their inputs; nothing keeps global
state, so concurrent use on distinct data is safe.

Factorizations and eigenvalue work are delegated to LAPACK through
numpy/scipy; the linear-programming entry point wraps scipy's HiGHS
solver.  The contracts (rank thresholds, status taxonomy, error types)
are owned by this module, independent of the backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize


class NonConvergenceError(RuntimeError):
    """An iterative computation exceeded its iteration cap."""


class CapabilityError(RuntimeError):
    """The input is outside the size range this implementation supports."""


class InconsistencyError(RuntimeError):
    """Two computations that must agree produced different answers.

    ``details`` carries the dissenting items for diagnosis.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = dict(details) if details else {}


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    rank_tol
        Relative cutoff for pivot/singular-value magnitudes when deciding
        numerical rank.
    psd_tol
        Relative eigenvalue band for semidefiniteness classification.
    feas_tol
        Residual threshold for feasibility decisions and witnesses.
    eq_tol
        Relative threshold for matrix-equality tests.
    max_iter
        Term cap of the Neumann series in
        :func:`lyapstein.matclass.neumann_inverse_check`.
    """

    rank_tol: float = 1e-9
    psd_tol: float = 1e-9
    feas_tol: float = 1e-7
    eq_tol: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self):
        for name in ("rank_tol", "psd_tol", "feas_tol", "eq_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_TOL = Tolerances()


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-d float array."""
    m = np.array(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(v) -> np.ndarray:
    x = np.array(v, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


def qr_column_pivoted(m, tol: Tolerances = DEFAULT_TOL):
    """Column-pivoted QR with a numerical rank decision.

    Returns ``(q, r, perm, rank)`` with ``m[:, perm] = q @ r`` and the rank
    counted as the number of diagonal entries of ``r`` whose magnitude
    exceeds ``rank_tol`` times the largest one.
    """
    m = as_matrix(m)
    if min(m.shape) == 0:
        return np.zeros((m.shape[0], 0)), np.zeros((0, m.shape[1])), np.arange(m.shape[1]), 0
    q, r, perm = scipy.linalg.qr(m, pivoting=True, mode="economic")
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(diag > tol.rank_tol * diag[0]))
    return q, r, perm, rank


def numerical_rank(m, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank via column-pivoted QR."""
    return qr_column_pivoted(m, tol)[3]


def _svd_split(m, tol: Tolerances, full_matrices: bool = True):
    u, s, vh = np.linalg.svd(as_matrix(m), full_matrices=full_matrices)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > tol.rank_tol * s[0]))
    return u, s, vh, rank


def range_basis(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the range (column space) of ``m``."""
    u, _, _, rank = _svd_split(m, tol, full_matrices=False)
    return u[:, :rank].copy()


def complement_basis(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the orthogonal complement of ``m``'s range.

    The trailing left singular vectors of a full SVD span it exactly, with
    no dependence on the scale of a projector residue; a matrix with no
    columns has the whole space as complement, a full-rank square one none.
    """
    u, _, _, rank = _svd_split(m, tol)
    return u[:, rank:].copy()


def null_basis(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the null space of ``m``."""
    _, _, vh, rank = _svd_split(m, tol)
    return vh[rank:].T.copy()


def require_symmetric(s, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    s = as_square(s)
    scale = 1.0 + np.linalg.norm(s)
    if np.linalg.norm(s - s.T) > tol.eq_tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (s + s.T)


def sym_eigen(s, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``v``.  Non-symmetric input is rejected.
    """
    s = require_symmetric(s, tol)
    w, v = np.linalg.eigh(s)
    return w, v


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a real square matrix, conjugate-closed.

    ``values`` is a complex array sorted by real part then imaginary part
    (a deterministic canonical order).
    """

    values: np.ndarray

    @property
    def spectral_radius(self) -> float:
        if self.values.size == 0:
            return 0.0
        return float(np.max(np.abs(self.values)))

    @property
    def min_real_part(self) -> float:
        return float(np.min(self.values.real))

    def is_positive_stable(self, margin: float) -> bool:
        """All eigenvalues have real part exceeding ``margin``."""
        return bool(np.all(self.values.real > margin))

    def is_schur_stable(self, margin: float) -> bool:
        """All eigenvalues lie strictly inside the unit disc by ``margin``."""
        return bool(np.all(np.abs(self.values) < 1.0 - margin))


def general_eigenvalues(m, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Eigenvalues of a general real square matrix as a :class:`Spectrum`.

    LAPACK's real Schur path guarantees exact conjugate pairing.  Tiny
    imaginary parts (below ``eq_tol`` relative to the scale) are snapped
    to the real axis so that real spectra print cleanly.
    """
    m = as_square(m)
    if m.shape[0] == 0:
        return Spectrum(np.zeros(0, dtype=complex))
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    scale = 1.0 + float(np.max(np.abs(vals))) if vals.size else 1.0
    vals = np.where(np.abs(vals.imag) <= tol.eq_tol * scale, vals.real + 0.0j, vals)
    order = np.lexsort((vals.imag, vals.real))
    return Spectrum(vals[order])


def spectral_radius(m, tol: Tolerances = DEFAULT_TOL) -> float:
    return general_eigenvalues(m, tol).spectral_radius


@dataclass(frozen=True)
class LpResult:
    """Outcome of a dense linear program (minimization convention)."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float
    x: np.ndarray | None


_LP_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def lp_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None,
             tol: Tolerances = DEFAULT_TOL) -> LpResult:
    """Minimize ``c @ x`` subject to ``a_ub x <= b_ub``, ``a_eq x == b_eq``.

    ``bounds`` follows scipy's convention (default: free variables; callers
    are expected to keep the feasible region bounded via box bounds).
    Infeasible and unbounded programs are reported as distinct statuses,
    not errors.
    """
    c = as_vector(c)
    if bounds is None:
        bounds = [(None, None)] * c.size
    res = scipy.optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs",
    )
    status = _LP_STATUS.get(res.status)
    if status is None:
        raise NonConvergenceError(f"LP solver failed: {res.message}")
    if status == "optimal":
        if a_ub is not None:
            viol = np.asarray(a_ub) @ res.x - np.asarray(b_ub, dtype=float).ravel()
            if viol.size and float(np.max(viol)) > tol.feas_tol:
                raise InconsistencyError("LP optimum violates inequality constraints",
                                         {"max_violation": float(np.max(viol))})
        if a_eq is not None:
            viol = np.abs(np.asarray(a_eq) @ res.x - np.asarray(b_eq, dtype=float).ravel())
            if viol.size and float(np.max(viol)) > tol.feas_tol:
                raise InconsistencyError("LP optimum violates equality constraints",
                                         {"max_violation": float(np.max(viol))})
        return LpResult("optimal", float(res.fun), np.asarray(res.x, dtype=float))
    return LpResult(status, float("nan"), None)

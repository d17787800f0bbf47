"""Index and group inverses of square matrices (and operator matrices).

The group inverse of ``M`` is the unique ``X`` with ``MXM = M``,
``XMX = X`` and ``MX = XM``; it exists exactly when ``M`` has index at
most one, i.e. ``rank(M^2) == rank(M)``.  Computation goes through a rank
factorization ``M = C @ F`` built from column-pivoted QR: the inverse
exists iff ``F @ C`` is invertible, and then ``M# = C @ (FC)^-2 @ F``.

Also here: the nonnegativity-on-range test, "does ``x >= 0, x in range(A)``
imply ``A# x >= 0``?", decided exactly by at most ``n`` linear programs
over the unit-1-norm slice of ``range(A)`` intersected with the orthant.
For a singular irreducible M-matrix that slice is empty, so one infeasible
LP settles the question.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import (
    DEFAULT_TOL,
    InconsistencyError,
    Tolerances,
    _svd_split,
    as_square,
    complement_basis,
    lp_solve,
    numerical_rank,
    qr_column_pivoted,
)


def index_of(m, tol: Tolerances = DEFAULT_TOL) -> int:
    """Smallest ``k >= 0`` with ``rank(M^(k+1)) == rank(M^k)``, capped at the order.

    The rank of ``M^k`` is judged against ``rank_tol * ||M||^k``, the scale
    of the rounding noise in the computed power (the Frobenius norm is
    submultiplicative), so a power that is pure noise has rank 0.  Powers of
    ``M / ||M||`` keep that scale at 1 without overflow.
    """
    m = as_square(m)
    n = m.shape[0]
    norm = np.linalg.norm(m)
    unit = m / norm if norm > 0 else m
    power = np.eye(n)
    prev_rank = n
    for k in range(n + 1):
        power = power @ unit
        pivots = np.abs(np.diag(qr_column_pivoted(power, tol)[1]))
        rank = int(np.count_nonzero(pivots > tol.rank_tol))
        if rank == prev_rank:
            return k
        prev_rank = rank
    return n


@dataclass(frozen=True)
class GroupInverseResult:
    exists: bool
    index: int
    inverse: np.ndarray | None
    residuals: tuple[float, float, float] | None  # ||MXM-M||, ||XMX-X||, ||MX-XM||


def _rank_factor(m: np.ndarray, tol: Tolerances):
    """Existence of the group inverse of square ``M``, with the factors that decide it.

    One column-pivoted QR gives both the rank factorization ``M = C @ F``
    and the rank decision.  ``F @ C`` counts as singular when its least
    singular value is within ``rank_tol`` of the largest pivot ``|R_00|``,
    the scale of that decision (relative to ``F @ C``'s own largest one,
    rounding noise would pass for a nilpotent rank-one ``M``).  Returns
    ``(exists, c, f, fc)``; the factors are ``None`` for a numerically zero
    ``M``, which is its own group inverse.
    """
    q, r, _, rank = qr_column_pivoted(m, tol)
    if rank == 0:
        return True, None, None, None
    c = q[:, :rank]
    f = c.T @ m
    fc = f @ c
    exists = np.linalg.svd(fc, compute_uv=False)[-1] > tol.rank_tol * abs(r[0, 0])
    return bool(exists), c, f, fc


def group_inverse(m, tol: Tolerances = DEFAULT_TOL) -> GroupInverseResult:
    """Group inverse via rank factorization; non-existence is a result, not an error.

    Existence is decided by :func:`_rank_factor`.  When the inverse exists
    the index is 0 (full rank) or 1; otherwise, and for ``M = 0``, it comes
    from :func:`index_of`.
    """
    m = as_square(m)
    n = m.shape[0]
    exists, c, f, fc = _rank_factor(m, tol)
    if c is None:
        # zero matrix: its own group inverse
        z = np.zeros_like(m)
        return GroupInverseResult(True, 0 if n == 0 else index_of(m, tol), z, (0.0, 0.0, 0.0))
    if not exists:
        return GroupInverseResult(False, index_of(m, tol), None, None)
    rank = c.shape[1]
    x = c @ np.linalg.solve(fc, np.linalg.solve(fc, f))
    mx = m @ x
    xm = x @ m
    res = (
        float(np.linalg.norm(mx @ m - m)),
        float(np.linalg.norm(xm @ x - x)),
        float(np.linalg.norm(mx - xm)),
    )
    return GroupInverseResult(True, 0 if rank == n else 1, x, res)


@dataclass(frozen=True)
class ExistenceAudit:
    """The four group-inverse existence conditions; the two about ``M^2`` are one comparison."""

    complementary_subspaces: bool
    range_of_square_equals_range: bool
    null_of_square_equals_null: bool
    axioms_solvable: bool

    @property
    def exists(self) -> bool:
        return self.complementary_subspaces


def group_inverse_exists_audit(m, tol: Tolerances = DEFAULT_TOL) -> ExistenceAudit:
    """Check the four existence characterizations and demand unanimity.

    The range and null bases come from one SVD; the axioms' solvability is
    :func:`group_inverse`'s existence decision, without forming the inverse.
    ``n - rank(M^2) == n - rank(M)`` repeats ``rank(M^2) == rank(M)``, so the
    four items rest on three independent computations.  Disagreement raises
    :class:`InconsistencyError` carrying the dissenting items.
    """
    m = as_square(m)
    n = m.shape[0]
    axioms = _rank_factor(m, tol)[0]
    u, _, vh, rank_m = _svd_split(m, tol)
    stacked = np.hstack([u[:, :rank_m], vh[rank_m:].T])
    nullity = vh.shape[0] - rank_m
    del u, vh
    complementary = numerical_rank(stacked, tol) == n
    del stacked
    m2 = m @ m
    scale = np.linalg.norm(m2)
    m2n = m2 / scale if scale > 0 else m2
    rank_m2 = numerical_rank(m2n, tol)
    range_eq = rank_m2 == rank_m
    null_eq = (n - rank_m2) == nullity
    audit = ExistenceAudit(complementary, range_eq, null_eq, axioms)
    flags = {
        "complementary_subspaces": complementary,
        "range_of_square_equals_range": range_eq,
        "null_of_square_equals_null": null_eq,
        "axioms_solvable": axioms,
    }
    if len(set(flags.values())) > 1:
        raise InconsistencyError("group-inverse existence conditions disagree", flags)
    return audit


def is_normal(m, tol: Tolerances = DEFAULT_TOL) -> bool:
    m = as_square(m)
    scale = 1.0 + np.linalg.norm(m) ** 2
    return np.linalg.norm(m @ m.T - m.T @ m) <= tol.eq_tol * scale


def normality_implies_group_inverse_check(m, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Vacuously true for non-normal input; a normal matrix must be group invertible."""
    if not is_normal(m, tol):
        return True
    if not group_inverse(m, tol).exists:
        raise InconsistencyError("normal matrix reported as not group invertible")
    return True


@dataclass(frozen=True)
class NonnegOnRangeReport:
    ok: bool
    witness: np.ndarray | None  # a minimising x when ok is False
    min_component: float  # least entry of A# x over x in range(A), x >= 0, 1^T x = 1 (0 if none)


def nonneg_on_range(a, a_sharp, tol: Tolerances = DEFAULT_TOL) -> NonnegOnRangeReport:
    """Does ``x >= 0, x in range(A)`` imply ``A# x >= 0``?

    Decided by at most ``n`` LPs over the polytope ``P = {x >= 0 : 1^T x = 1,
    x in range(A)}``, the unit-1-norm slice of ``range(A)`` intersected with
    the orthant: LP ``i`` minimises ``(A#)_i x`` over ``P``.  The LPs share
    ``P``, so an infeasible first LP means the cone is ``{0}`` and the
    implication holds vacuously.  Otherwise the least optimum is the least
    entry of ``A# x`` over ``x in P``, attained at a vertex (an extreme ray
    of the cone), and a negative one comes with its minimiser as the witness.
    """
    a = as_square(a)
    a_sharp = as_square(a_sharp)
    n = a.shape[0]
    # membership in range(A) is orthogonality to its complement
    q = complement_basis(a, tol).T
    a_eq = np.vstack([q, np.ones((1, n))])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[-1] = 1.0
    best = None
    for i, row in enumerate(a_sharp):
        res = lp_solve(row, a_eq=a_eq, b_eq=b_eq, bounds=[(0.0, None)] * n, tol=tol)
        if i == 0 and res.status == "infeasible":
            break
        if res.status != "optimal":
            raise InconsistencyError("LPs over one feasible set disagree",
                                     {"row": i, "status": res.status})
        if best is None or res.objective < best.objective:
            best = res
    if best is None:
        return NonnegOnRangeReport(True, None, 0.0)
    ok = best.objective >= -tol.feas_tol
    return NonnegOnRangeReport(ok, None if ok else best.x, best.objective)

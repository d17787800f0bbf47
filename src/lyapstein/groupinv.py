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
    as_square,
    lp_solve,
    null_basis,
    numerical_rank,
    qr_column_pivoted,
    range_basis,
)


def index_of(m, tol: Tolerances = DEFAULT_TOL) -> int:
    """Smallest ``k >= 0`` with ``rank(M^(k+1)) == rank(M^k)``, capped at the order."""
    m = as_square(m)
    n = m.shape[0]
    power = np.eye(n)
    prev_rank = n
    for k in range(n + 1):
        nxt = power @ m
        scale = np.linalg.norm(nxt)
        if scale > 0:
            nxt = nxt / scale
        rank = numerical_rank(nxt, tol)
        if rank == prev_rank:
            return k
        power, prev_rank = nxt, rank
    return n


@dataclass(frozen=True)
class GroupInverseResult:
    exists: bool
    index: int
    inverse: np.ndarray | None
    residuals: tuple[float, float, float] | None  # ||MXM-M||, ||XMX-X||, ||MX-XM||


def group_inverse(m, tol: Tolerances = DEFAULT_TOL) -> GroupInverseResult:
    """Group inverse via rank factorization; non-existence is a result, not an error."""
    m = as_square(m)
    n = m.shape[0]
    idx = index_of(m, tol)
    q, _, perm, rank = qr_column_pivoted(m, tol)
    if rank == 0:
        # zero matrix: its own group inverse
        z = np.zeros_like(m)
        return GroupInverseResult(True, 0 if n == 0 else idx, z, (0.0, 0.0, 0.0))
    c = q[:, :rank]
    f = c.T @ m
    fc = f @ c
    sv = np.linalg.svd(fc, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= tol.rank_tol * sv[0]:
        return GroupInverseResult(False, idx, None, None)
    x = c @ np.linalg.solve(fc, np.linalg.solve(fc, f))
    res = (
        float(np.linalg.norm(m @ x @ m - m)),
        float(np.linalg.norm(x @ m @ x - x)),
        float(np.linalg.norm(m @ x - x @ m)),
    )
    return GroupInverseResult(True, idx, x, res)


@dataclass(frozen=True)
class ExistenceAudit:
    """The four equivalent group-inverse existence conditions, computed independently."""

    complementary_subspaces: bool
    range_of_square_equals_range: bool
    null_of_square_equals_null: bool
    axioms_solvable: bool

    @property
    def exists(self) -> bool:
        return self.complementary_subspaces


def group_inverse_exists_audit(m, tol: Tolerances = DEFAULT_TOL) -> ExistenceAudit:
    """Check the four existence characterizations and demand unanimity.

    Disagreement raises :class:`InconsistencyError` carrying the dissenting
    items.
    """
    m = as_square(m)
    n = m.shape[0]
    m2 = m @ m
    r_basis = range_basis(m, tol)
    n_basis = null_basis(m, tol)
    stacked = np.hstack([r_basis, n_basis]) if n else np.zeros((0, 0))
    complementary = numerical_rank(stacked, tol) == n
    rank_m = r_basis.shape[1]
    scale = np.linalg.norm(m2)
    m2n = m2 / scale if scale > 0 else m2
    rank_m2 = numerical_rank(m2n, tol)
    range_eq = rank_m2 == rank_m
    null_eq = (n - rank_m2) == n_basis.shape[1]
    axioms = group_inverse(m, tol).exists
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
    # range(A) = null(A^T)^perp, so membership is A^T-null-basis^T x = 0
    q = null_basis(a.T, tol).T
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

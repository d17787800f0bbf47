"""Range monotonicity and trivial range monotonicity verdicts.

A matrix ``A`` (operator ``T``) is *range monotone* when ``Ax >= 0`` and
``x in range(A)`` force ``x >= 0`` (``T(X) PSD`` and ``X in range(T)``
force ``X PSD``), and *trivially range monotone* when they force
``x = 0`` (``X = 0``).

The deciders reduce triviality to two checkable facts (see
``docs/reduction.md`` for the short proof):

    T is trivially range monotone
        iff  null(T^2) == null(T)  and  range(T^2) meets the cone only at 0.

A defect in either condition converts directly into a witness
``X = T(W)``; a cone certificate plus the index equality certify a Yes.
Structural fast paths assert only guaranteed-Yes conclusions for the
recognized matrix classes (square roots of +-I, skew-symmetric bases,
idempotent-operator classes); refutations are always instance-level
searches whose witnesses are re-verified before being believed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import conefeas, groupinv, matclass
from .conefeas import ConeBudget, ConeStatus, SubspaceSpec
from .numkernel import DEFAULT_TOL, Tolerances, _svd_split, as_square, range_basis
from .operators import (OperatorKind, OperatorMatrix, apply, is_idempotent, lyapunov,
                        s_idempotent_expected, stein)
from .symspace import smat, svec

# a refutation witness must be macroscopically indefinite, not tolerance-level noise
REFUTATION_MARGIN = 1e-3


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class MonotonicityVerdict:
    trivially_range_monotone: Verdict
    range_monotone: Verdict
    witness: np.ndarray | None = None
    certificate: np.ndarray | None = None
    fast_path: str | None = None


def _first_nonzero_sign(v: np.ndarray) -> float:
    nz = v[np.abs(v) > 1e-12]
    return 1.0 if nz.size == 0 or nz[0] > 0 else -1.0


def decide_trivial_matrix(a, tol: Tolerances = DEFAULT_TOL) -> MonotonicityVerdict:
    """Exact verdict: does ``Ax >= 0, x in range(A)`` force ``x = 0``?

    Fast path: singular irreducible M-matrices are trivially range
    monotone.  Otherwise the reduction decides: index at most one plus a
    trivial intersection of ``range(A^2)`` with the orthant.
    """
    a = as_square(a)
    n = a.shape[0]
    report = matclass.classify(a, tol)
    if report.m_class is matclass.MClass.SINGULAR_M and report.is_irreducible:
        return MonotonicityVerdict(Verdict.YES, Verdict.YES,
                                   fast_path="singular_irreducible_m")

    # index defect: w with A^2 w = 0 but A w != 0 gives the witness x = A w
    a2, range2, x = _index_defect_image(a, tol)
    if x is not None:
        x *= _first_nonzero_sign(x)  # A x = 0, so the sign is free
        return MonotonicityVerdict(Verdict.NO, Verdict.UNDECIDED, witness=x)

    decision = conefeas.orthant_intersection(SubspaceSpec("vec", n, range2), tol)
    if decision.status is ConeStatus.TRIVIAL_CERTIFIED:
        return MonotonicityVerdict(Verdict.YES, Verdict.YES,
                                   certificate=decision.certificate)
    # nonzero y = A^2 w in the orthant: x = A w satisfies A x = y >= 0
    y = decision.witness
    w, *_ = np.linalg.lstsq(a2, y, rcond=None)
    x = a @ w
    x = x / np.linalg.norm(x)
    range_verdict = Verdict.NO if np.min(x) < -tol.feas_tol else Verdict.UNDECIDED
    return MonotonicityVerdict(Verdict.NO, range_verdict, witness=x)


@dataclass(frozen=True)
class FastPathHit:
    operator: str  # "lyapunov" | "stein"
    conclusion: str  # "trivial" | "range"
    rule: str


def structural_fast_paths(a, tol: Tolerances = DEFAULT_TOL) -> list[FastPathHit]:
    """Guaranteed-Yes conclusions available from the shape of ``A`` alone.

    Recognized classes: ``A^2 = -I`` (both operators trivially range
    monotone), ``A^2 = I`` (Stein trivially), nonzero skew-symmetric
    (Lyapunov trivially), diagonal with entries in {0, 1/2} (Lyapunov
    range monotone: the operator scales the (i, j) coordinate by
    ``d_i + d_j``, and a PSD image with a vanishing zero-block forces the
    cross block to vanish, leaving a PSD upper block), ``A^2 = +-A``
    (Stein range monotone via operator idempotency).  Negative answers
    are never asserted structurally.
    """
    a = as_square(a)
    n = a.shape[0]
    norm = float(np.linalg.norm(a))
    band_sq = tol.eq_tol * (1.0 + norm * norm)
    band_lin = tol.eq_tol * (1.0 + norm)
    a2 = a @ a
    eye = np.eye(n)
    hits = []
    if np.linalg.norm(a2 + eye) <= band_sq:
        hits.append(FastPathHit("lyapunov", "trivial", "square_is_minus_identity"))
        hits.append(FastPathHit("stein", "trivial", "square_is_minus_identity"))
    if np.linalg.norm(a2 - eye) <= band_sq:
        hits.append(FastPathHit("stein", "trivial", "square_is_identity"))
    if norm > band_lin and np.linalg.norm(a + a.T) <= band_lin:
        hits.append(FastPathHit("lyapunov", "trivial", "skew_symmetric"))
    off = a - np.diag(np.diag(a))
    diag = np.diag(a)
    if (np.abs(off).max(initial=0.0) <= band_lin
            and np.all((np.abs(diag) <= band_lin) | (np.abs(diag - 0.5) <= band_lin))):
        hits.append(FastPathHit("lyapunov", "range", "diagonal_zero_half"))
    if s_idempotent_expected(a, tol):
        hits.append(FastPathHit("stein", "range", "square_is_plus_minus_self"))
    return hits


def _in_range_residual(x_coords, basis):
    return float(np.linalg.norm(x_coords - basis @ (basis.T @ x_coords)))


def _index_defect_image(m, tol: Tolerances):
    """``(M^2, range(M^2) basis, unit element of null(M) cap range(M) or None)``,
    all from one SVD of ``M^2``; the defect exists when the index exceeds one."""
    m2 = m @ m
    u, _, vh, rank = _svd_split(m2, tol, full_matrices=False)
    defect = None
    if rank < m.shape[0]:
        images = m @ vh[rank:].T.copy()  # M times a basis of null(M^2)
        norms = np.linalg.norm(images, axis=0)
        j = int(np.argmax(norms))
        if norms[j] > tol.feas_tol:
            defect = images[:, j] / norms[j]
    return m2, u[:, :rank].copy(), defect


def decide_trivial_operator(op: OperatorMatrix, tol: Tolerances = DEFAULT_TOL,
                            budget: ConeBudget = conefeas.DEFAULT_BUDGET,
                            use_fast_paths: bool = True) -> MonotonicityVerdict:
    """Does ``T(X) PSD, X in range(T)`` force ``X = 0``?

    Structural fast paths (when the operator is tagged with its base
    matrix) may certify Yes immediately; otherwise the reduction runs:
    an index check plus a PSD-triviality decision on ``range(T^2)``.
    ``UNDECIDED`` propagates from the cone search.
    """
    if use_fast_paths and op.base is not None and op.kind is not OperatorKind.GENERAL:
        for hit in structural_fast_paths(op.base, tol):
            if hit.operator == op.kind.value and hit.conclusion == "trivial":
                return MonotonicityVerdict(Verdict.YES, Verdict.YES, fast_path=hit.rule)

    m2, range2, defect = _index_defect_image(op.mat, tol)
    if defect is not None:
        # X = T(W) with T(X) = 0: in the range, killed by T, nonzero
        sign = _first_nonzero_sign(defect)
        return MonotonicityVerdict(Verdict.NO, Verdict.UNDECIDED,
                                   witness=smat(sign * defect))

    decision = conefeas.psd_intersection(
        conefeas.subspace_from_coordinates(range2, op.n, tol), tol, budget)
    if decision.status is ConeStatus.TRIVIAL_CERTIFIED:
        return MonotonicityVerdict(Verdict.YES, Verdict.YES,
                                   certificate=decision.certificate)
    if decision.status is ConeStatus.UNDECIDED:
        return MonotonicityVerdict(Verdict.UNDECIDED, Verdict.UNDECIDED)

    v = svec(decision.witness)
    w, *_ = np.linalg.lstsq(m2, v, rcond=None)
    x_coords = op.mat @ w
    x_coords = x_coords / np.linalg.norm(x_coords)
    x = smat(x_coords)
    tx_min = float(np.linalg.eigvalsh(apply(op, x))[0])
    range_verdict = Verdict.UNDECIDED
    if float(np.linalg.eigvalsh(x)[0]) <= -REFUTATION_MARGIN and tx_min >= -tol.feas_tol:
        range_verdict = Verdict.NO
    return MonotonicityVerdict(Verdict.NO, range_verdict, witness=x)


def _verify_range_refutation(op: OperatorMatrix, x_coords, basis, tol: Tolerances):
    """Unit-norm X in range(T) with T(X) nearly PSD and a solidly negative eigenvalue."""
    norm = np.linalg.norm(x_coords)
    if norm <= tol.feas_tol:
        return None
    x_coords = x_coords / norm
    if _in_range_residual(x_coords, basis) > tol.feas_tol:
        return None
    x = smat(x_coords)
    if float(np.linalg.eigvalsh(x)[0]) > -REFUTATION_MARGIN:
        return None
    if float(np.linalg.eigvalsh(apply(op, x))[0]) < -tol.feas_tol:
        return None
    return x


def decide_range_operator(op: OperatorMatrix, tol: Tolerances = DEFAULT_TOL,
                          budget: ConeBudget = conefeas.DEFAULT_BUDGET, *,
                          trivial: MonotonicityVerdict) -> MonotonicityVerdict:
    """Does ``T(X) PSD, X in range(T)`` force ``X PSD``?

    ``trivial`` is :func:`decide_trivial_operator`'s verdict.  Yes when
    triviality holds or the operator is idempotent.  A No requires a
    verified witness; the search probes both signs of the triviality
    witness (the index defect, when there is one) and the preimages in
    ``range(T)`` of sampled points of ``range(T)`` cap the PSD cone from
    deterministic seeds.  Anything else is honest ``UNDECIDED``.
    """
    if trivial.trivially_range_monotone is Verdict.YES:
        return MonotonicityVerdict(trivial.trivially_range_monotone, Verdict.YES,
                                   certificate=trivial.certificate,
                                   fast_path=trivial.fast_path or "trivially_range_monotone")
    if is_idempotent(op, tol):
        return MonotonicityVerdict(trivial.trivially_range_monotone, Verdict.YES,
                                   witness=trivial.witness,
                                   fast_path="idempotent_operator")
    if op.base is not None and op.kind is not OperatorKind.GENERAL:
        for hit in structural_fast_paths(op.base, tol):
            if hit.operator == op.kind.value and hit.conclusion == "range":
                return MonotonicityVerdict(trivial.trivially_range_monotone,
                                           Verdict.YES, witness=trivial.witness,
                                           fast_path=hit.rule)

    basis = range_basis(op.mat, tol)

    # a verified range refutation is nonzero, so it also settles triviality
    def refuted(witness):
        return MonotonicityVerdict(Verdict.NO, Verdict.NO, witness=witness)

    # the triviality witness may already be indefinite.  An index-defect
    # witness X has T(X) = 0, so -X is a candidate too; a PSD-path witness
    # has T(X) a nonzero PSD multiple, so -X always fails the check.
    if trivial.witness is not None:
        x_coords = svec(trivial.witness)
        for sign in (1.0, -1.0):
            found = _verify_range_refutation(op, sign * x_coords, basis, tol)
            if found is not None:
                return refuted(found)

    # X = B c with T(B c) = V, B the range basis: X = T#(V) at index <= 1
    samples = conefeas.collect_psd_witness_samples(
        conefeas.subspace_from_coordinates(basis, op.n, tol),
        tol, starts=64, iters=800, seed=budget.seed)
    image = op.mat @ basis
    for v in samples:
        x_coords = basis @ np.linalg.lstsq(image, svec(v), rcond=None)[0]
        found = _verify_range_refutation(op, x_coords, basis, tol)
        if found is not None:
            return refuted(found)

    return MonotonicityVerdict(trivial.trivially_range_monotone, Verdict.UNDECIDED,
                               witness=trivial.witness, certificate=trivial.certificate)


def analyze_operator(op: OperatorMatrix, tol: Tolerances = DEFAULT_TOL,
                     budget: ConeBudget = conefeas.DEFAULT_BUDGET) -> MonotonicityVerdict:
    """Combined trivial + range verdict for one operator."""
    trivial = decide_trivial_operator(op, tol, budget)
    return decide_range_operator(op, tol, budget, trivial=trivial)


@dataclass(frozen=True)
class InverseClassReport:
    source_rule: str
    lyapunov_verdict: MonotonicityVerdict | None
    stein_verdict: MonotonicityVerdict | None

    @property
    def ok(self) -> bool:
        checked = [v for v in (self.lyapunov_verdict, self.stein_verdict) if v is not None]
        return bool(checked) and all(
            v.trivially_range_monotone is Verdict.YES for v in checked)


def inverse_class_check(a, tol: Tolerances = DEFAULT_TOL,
                        budget: ConeBudget = conefeas.DEFAULT_BUDGET) -> InverseClassReport:
    """Trivial range monotonicity inherited by the inverse (or group inverse).

    For ``A^2 = -I`` the inverse ``-A`` generates trivially range monotone
    Lyapunov and Stein operators; for ``A^2 = I`` the inverse ``A``
    generates a trivially range monotone Stein operator; for skew ``A``
    the group inverse (also skew) generates a trivially range monotone
    Lyapunov operator.
    """
    a = as_square(a)
    rules = {hit.rule for hit in structural_fast_paths(a, tol)}
    if "square_is_minus_identity" in rules:
        inv = -a
        lv = decide_trivial_operator(lyapunov(inv), tol, budget, use_fast_paths=False)
        sv = decide_trivial_operator(stein(inv), tol, budget, use_fast_paths=False)
        return InverseClassReport("square_is_minus_identity", lv, sv)
    if "square_is_identity" in rules:
        inv = a
        sv = decide_trivial_operator(stein(inv), tol, budget, use_fast_paths=False)
        return InverseClassReport("square_is_identity", None, sv)
    if "skew_symmetric" in rules:
        gi = groupinv.group_inverse(a, tol)
        if not gi.exists:
            raise ValueError("skew matrix unexpectedly lacks a group inverse")
        lv = decide_trivial_operator(lyapunov(gi.inverse), tol, budget,
                                     use_fast_paths=False)
        return InverseClassReport("skew_symmetric", lv, None)
    raise ValueError("inverse_class_check requires A^2 = +-I or nonzero skew-symmetric A")


def randomized_trivial_refuter(op: OperatorMatrix, samples: int = 100_000,
                               seed: int = 0, tol: Tolerances = DEFAULT_TOL):
    """Definition-level refuter: sample unit-norm X in range(T), accept T(X) near-PSD.

    Returns a witness matrix or None.  Independent of the reduction used
    by :func:`decide_trivial_operator`; used to validate it.
    """
    basis = range_basis(op.mat, tol)
    r = basis.shape[1]
    if r == 0:
        return None
    rng = np.random.default_rng(seed)
    n = op.n
    full, _, scale, _ = conefeas._svec_layout(n)
    batch = 2048
    done = 0
    while done < samples:
        count = min(batch, samples - done)
        done += count
        coeff = rng.standard_normal((count, r))
        coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
        xs = coeff @ basis.T          # unit-norm svec coordinates in range(T)
        txs = xs @ op.mat.T           # svec coordinates of T(X)
        mats = (txs / scale)[:, full].reshape(-1, n, n)
        mins = np.linalg.eigvalsh(mats)[:, 0]
        hits = np.flatnonzero(mins >= -tol.feas_tol)
        if hits.size:
            return smat(xs[hits[0]])
    return None

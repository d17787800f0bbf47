"""Lyapunov and Stein operators on the symmetric space.

For a square matrix ``A`` of order ``n`` the two operators act on
symmetric ``X``:

* Lyapunov:  ``X -> A X + X A^T``
* Stein:     ``X -> X - A X A^T``

An operator stores ``A``; its dense ``d x d`` matrix in svec coordinates
(``d = n(n+1)/2``), column ``j`` being the image of the ``j``-th
coordinate basis element, is built on first read of ``.mat`` and kept.
Because svec is an isometry, the operator adjoint is the plain transpose
of this matrix, and both operators of ``A^T`` coincide with the adjoints
of those of ``A``.

The module also detects structure: idempotency (operationally and via
the closed-form matrix criteria), generalized k-potency (``T^k`` equal to
a scalar multiple of ``T``), and the cross-nonpositivity that makes both
operators behave like Z-matrices on the semidefinite cone.

``T(X) = Q`` is solved on ``A``'s n-by-n Schur form (Bartels & Stewart,
Comm. ACM 15(9), 1972; Stein equations through the bilinear transform),
not through the d-by-d matrix.  On symmetric
matrices the operators' eigenvalues are ``l_i + l_j`` and ``1 - l_i l_j``
over pairs ``i <= j`` of eigenvalues of ``A`` (Horn & Johnson, Topics in
Matrix Analysis, 1991, section 4.4), so the same spectrum decides
singularity: the operator is singular when the smallest of these is
below ``rank_tol`` times the largest.  That rule is one-sided against the
numerical rank of the coordinate matrix: a singular verdict always has
a rank-deficient matrix, but a strongly non-normal ``A`` can give a
numerically rank-deficient matrix that is still solved.  The residual
is re-checked by applying the operator's action to the n-by-n solution,
and definiteness under the stability hypotheses that guarantee it; only
a singular operator builds the coordinate matrix, for its kernel basis.

An operator whose ``d x d`` matrix would exceed ``MAX_DENSE_OPERATOR_BYTES``
(256 MiB, orders above 107) is refused with :class:`CapabilityError` at
construction, before anything is allocated.  The matrix is built by
applying the operator to the basis elements of one upper-triangle row at
a time, ``n`` stacked applications.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .numkernel import (
    DEFAULT_TOL,
    CapabilityError,
    InconsistencyError,
    Tolerances,
    as_square,
    general_eigenvalues,
    null_basis,
    require_symmetric,
)
from .symspace import SQRT2, PsdClass, _triu_indices, psd_classify, smat, svec, sym_dim


# Largest d x d float64 coordinate matrix _materialize will allocate: desk
# scale (order 50, d = 1275, 13 MB) fits with room to spare, order 200
# (d = 20100, 3.2 GB) is refused before any allocation.
MAX_DENSE_OPERATOR_BYTES = 256 * 2**20


class OperatorKind(enum.Enum):
    LYAPUNOV = "lyapunov"
    STEIN = "stein"
    GENERAL = "general"


class SingularOperatorError(RuntimeError):
    """Equation solving hit a singular operator; carries a kernel basis."""

    def __init__(self, message, kernel):
        super().__init__(message)
        self.kernel = kernel  # list of symmetric matrices spanning the null space


@dataclass(frozen=True)
class OperatorMatrix:
    """A linear operator on symmetric matrices of order ``n``.

    ``base`` is the generating matrix when the operator was built as a
    Lyapunov or Stein operator.  ``mat``, the d-by-d coordinate matrix, is
    built from ``base`` on first read and cached; an explicit matrix (a
    general operator, a composition, a power, an adjoint) is stored as given.
    """

    n: int
    kind: OperatorKind = OperatorKind.GENERAL
    base: np.ndarray | None = None

    @functools.cached_property
    def mat(self) -> np.ndarray:
        return _materialize(functools.partial(_ACTIONS[self.kind], self.base), self.n)

    @property
    def dim(self) -> int:
        return sym_dim(self.n)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))


def _explicit(mat: np.ndarray, n: int, kind: OperatorKind = OperatorKind.GENERAL,
              base: np.ndarray | None = None) -> OperatorMatrix:
    """An operator whose coordinate matrix is given: ``mat`` seeds the cache."""
    op = OperatorMatrix(n, kind, base)
    op.__dict__["mat"] = mat
    return op


# The two actions on (stacks of) symmetric X: one table feeds both the
# coordinate matrix and the residual that solve checks.
_ACTIONS = {
    OperatorKind.LYAPUNOV: lambda a, x: a @ x + x @ a.T,
    OperatorKind.STEIN: lambda a, x: x - a @ x @ a.T,
}


def _residual(op: OperatorMatrix, x: np.ndarray, q: np.ndarray) -> float:
    """``||T(X) - Q||`` of a tagged operator, through its action on n-by-n matrices."""
    return float(np.linalg.norm(_ACTIONS[op.kind](op.base, x) - q))


def _check_dense_size(n: int) -> None:
    d = sym_dim(n)
    if d * d * 8 > MAX_DENSE_OPERATOR_BYTES:
        raise CapabilityError(
            f"dense operator of order {n} needs a {d} x {d} float64 matrix "
            f"({d * d * 8} bytes), over the {MAX_DENSE_OPERATOR_BYTES}-byte limit")


def _materialize(action, n: int) -> np.ndarray:
    """Coordinate matrix of ``action``, one upper-triangle row at a time.

    ``action`` must accept a stack of symmetric matrices.  The basis
    elements of row ``i`` (the ``smat`` of consecutive unit coordinate
    vectors) go through it as one ``(n - i, n, n)`` stack, so the loop
    runs ``n`` times instead of ``d``; the columns are bit-identical to
    applying it to each basis element alone.
    """
    d = sym_dim(n)
    (rows, cols), scale = _triu_indices(n)
    mat = np.empty((d, d))
    start = 0
    for i in range(n):
        k = np.arange(n - i)
        basis = np.zeros((n - i, n, n))
        basis[k, i, i + k] = basis[k, i + k, i] = 1.0 / SQRT2
        basis[0, i, i] = 1.0
        mat[:, start:start + n - i] = (action(basis)[:, rows, cols] * scale).T
        start += n - i
    return mat


def _tagged(kind: OperatorKind, a) -> OperatorMatrix:
    a = as_square(a)
    _check_dense_size(a.shape[0])
    return OperatorMatrix(a.shape[0], kind, a)


def lyapunov(a) -> OperatorMatrix:
    """The operator ``X -> A X + X A^T`` in svec coordinates."""
    return _tagged(OperatorKind.LYAPUNOV, a)


def stein(a) -> OperatorMatrix:
    """The operator ``X -> X - A X A^T`` in svec coordinates."""
    return _tagged(OperatorKind.STEIN, a)


def make_operator(kind, a) -> OperatorMatrix:
    kind = OperatorKind(kind) if not isinstance(kind, OperatorKind) else kind
    if kind is OperatorKind.LYAPUNOV:
        return lyapunov(a)
    if kind is OperatorKind.STEIN:
        return stein(a)
    raise ValueError("make_operator builds Lyapunov or Stein operators only")


def operator_from_matrix(mat, n: int) -> OperatorMatrix:
    """Wrap an explicit d-by-d coordinate matrix as a general operator."""
    mat = as_square(mat)
    if mat.shape[0] != sym_dim(n):
        raise ValueError(f"coordinate matrix must have order n(n+1)/2 for n={n}")
    return _explicit(mat, n)


def apply(op: OperatorMatrix, x, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Apply the operator to a symmetric matrix."""
    x = require_symmetric(x, tol)
    if x.shape[0] != op.n:
        raise ValueError(f"operand order {x.shape[0]} != operator order {op.n}")
    return smat(op.mat @ svec(x))


def compose(op1: OperatorMatrix, op2: OperatorMatrix) -> OperatorMatrix:
    """Composition ``op1 after op2``."""
    if op1.n != op2.n:
        raise ValueError("operator orders differ")
    return _explicit(op1.mat @ op2.mat, op1.n)


def op_power(op: OperatorMatrix, k: int) -> OperatorMatrix:
    if k < 1:
        raise ValueError("power must be >= 1")
    if k == 1:
        return op
    return _explicit(np.linalg.matrix_power(op.mat, k), op.n)


def adjoint(op: OperatorMatrix) -> OperatorMatrix:
    """Adjoint under the trace inner product: the coordinate transpose.

    For a tagged operator this is the operator of the transposed base
    matrix, so the tag is preserved.
    """
    base = op.base.T if op.base is not None else None
    return _explicit(op.mat.T.copy(), op.n, op.kind, base)


def is_idempotent(op: OperatorMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Operational test: ``T^2 == T`` within ``eq_tol`` relative to ``||T||``."""
    return bool(np.linalg.norm(op.mat @ op.mat - op.mat)
                <= tol.eq_tol * max(1.0, op.norm))


def l_idempotent_expected(a, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Closed-form criterion: the Lyapunov operator of ``A`` is idempotent
    iff ``A`` is the zero matrix or half the identity.

    The operator acts on the (i, j) coordinate with factor ``d_i + d_j``
    for diagonal ``A``, so idempotency needs every pairwise sum in
    {0, 1}: a mixed diagonal of zeros and halves produces the factor 1/2
    and fails.  (The weaker condition "diagonal with entries in {0, 1/2}"
    is sometimes quoted, but diag(1/2, 0) is a counterexample.)
    """
    a = as_square(a)
    n = a.shape[0]
    band = tol.eq_tol * (1.0 + float(np.abs(a).max(initial=0.0)))
    return bool(np.abs(a).max(initial=0.0) <= band
                or np.abs(a - 0.5 * np.eye(n)).max() <= band)


def s_idempotent_expected(a, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Closed-form criterion: the Stein operator of ``A`` is idempotent
    iff ``A^2 == A`` or ``A^2 == -A``."""
    a = as_square(a)
    return _square_is_plus_minus_self(a, a @ a, tol)


def _square_is_plus_minus_self(a, a2, tol: Tolerances) -> bool:
    """``A^2 == +-A`` within ``eq_tol`` relative to ``1 + ||A||^2``, given ``a2 = A @ A``."""
    band = tol.eq_tol * (1.0 + float(np.linalg.norm(a)) ** 2)
    return bool(np.linalg.norm(a2 - a) <= band or np.linalg.norm(a2 + a) <= band)


@dataclass(frozen=True)
class PotencyReport:
    found: bool
    k: int | None
    alpha: float | None
    residual: float


def detect_k_potency(op: OperatorMatrix, k_max: int = 6,
                     tol: Tolerances = DEFAULT_TOL) -> PotencyReport:
    """Smallest ``k in 2..k_max`` with ``T^k == alpha T`` for some scalar.

    ``alpha`` is the least-squares fit ``<T^k, T> / <T, T>``; a hit
    requires the residual to stay below ``eq_tol`` relative to ``||T||``.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    t = op.mat
    tnorm2 = float(np.sum(t * t))
    if tnorm2 == 0.0:
        return PotencyReport(True, 2, 0.0, 0.0)
    power = t.copy()
    best = None
    for k in range(2, k_max + 1):
        power = power @ t
        alpha = float(np.sum(power * t) / tnorm2)
        residual = float(np.linalg.norm(power - alpha * t))
        if residual <= tol.eq_tol * max(1.0, np.sqrt(tnorm2)):
            return PotencyReport(True, k, alpha, residual)
        if best is None or residual < best[2]:
            best = (k, alpha, residual)
    return PotencyReport(False, best[0], best[1], best[2])


def z_operator_spot_check(op: OperatorMatrix, trials: int = 100, seed: int = 0,
                          tol: Tolerances = DEFAULT_TOL):
    """Sample the Z-operator property on the semidefinite cone.

    Draws pairs ``X, Y >= 0`` with ``<X, Y> = 0`` by splitting a random
    orthonormal basis into disjoint supports, and checks
    ``<T(X), Y> <= feas_tol``.  Returns ``(ok, counterexample)`` where the
    counterexample is the violating ``(X, Y)`` pair, if any.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = op.n
    if n < 2:
        return True, None
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        split = int(rng.integers(1, n))
        wx = rng.uniform(0.5, 1.5, size=split)
        wy = rng.uniform(0.5, 1.5, size=n - split)
        x = (q[:, :split] * wx) @ q[:, :split].T
        y = (q[:, split:] * wy) @ q[:, split:].T
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        if float(np.sum(apply(op, x) * y)) > tol.feas_tol:
            return False, (x, y)
    return True, None


def solve(op: OperatorMatrix, q, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve ``T(X) = Q`` for a Lyapunov or Stein operator on ``A``'s Schur form.

    One eigenvalue computation of ``A`` decides singularity: the operator's
    eigenvalues on the symmetric space are ``mu_ij = l_i + l_j`` (Lyapunov)
    or ``1 - l_i l_j`` (Stein) for ``i <= j``, and it is singular iff
    ``min |mu| <= rank_tol * max |mu|``.  A singular operator raises
    :class:`SingularOperatorError` carrying an orthonormal kernel basis of
    the coordinate matrix.  Since ``sigma_min(T) <= min |mu|`` and
    ``sigma_max(T) >= max |mu|``, every singular verdict is also rank
    deficient by the relative singular-value cut.  The converse fails for
    strongly non-normal ``A``: its operator can be numerically rank
    deficient while no ``mu`` is small.  It is solved, or refused with
    :class:`InconsistencyError` when it is too ill-conditioned for the
    computed solution to pass the checks below.

    A nonsingular Lyapunov operator is solved by Bartels-Stewart
    (:func:`scipy.linalg.solve_continuous_lyapunov`); a Stein operator by
    :func:`scipy.linalg.solve_discrete_lyapunov`, which from order 10 up
    maps it to a Lyapunov equation by the bilinear transform and below that
    solves the ``n^2``-dimensional Kronecker system.  The result is
    symmetrized and its residual ``||T(X) - Q||`` re-checked by applying the
    operator's action to ``X`` (n-by-n products, no coordinate matrix).
    When the operator is a Lyapunov operator of a positive stable matrix
    (or a Stein operator of a Schur stable one) and ``Q`` is positive
    definite, the solution is checked to be positive definite as the
    theory guarantees.  Operators without a base matrix raise ``ValueError``.
    """
    if op.kind is OperatorKind.GENERAL or op.base is None:
        raise ValueError("solve handles Lyapunov or Stein operators only")
    return _solve(op, q, general_eigenvalues(op.base, tol), tol)[0]


def _solve(op: OperatorMatrix, q, spectrum, tol: Tolerances) -> tuple[np.ndarray, float]:
    """:func:`solve` of a tagged operator given ``A``'s spectrum; returns ``(X, ||T(X) - Q||)``."""
    q = require_symmetric(q, tol)
    if q.shape[0] != op.n:
        raise ValueError("right-hand side order mismatch")
    lam = spectrum.values
    (i, j), _ = _triu_indices(op.n)
    mu = np.abs(lam[i] + lam[j] if op.kind is OperatorKind.LYAPUNOV else 1.0 - lam[i] * lam[j])
    if mu.size and mu.min() <= tol.rank_tol * mu.max():
        kernel = [smat(col) for col in null_basis(op.mat, tol).T]
        raise SingularOperatorError("operator is singular", kernel)
    if op.kind is OperatorKind.LYAPUNOV:
        x = scipy.linalg.solve_continuous_lyapunov(op.base, q)
    else:
        x = scipy.linalg.solve_discrete_lyapunov(op.base, q)
    x = 0.5 * (x + x.T)
    residual = _residual(op, x, q)
    if residual > tol.feas_tol * max(1.0, np.linalg.norm(q)):
        raise InconsistencyError("solve residual exceeds tolerance",
                                 {"residual": residual})
    if psd_classify(q, tol).classification is PsdClass.POSITIVE_DEFINITE:
        margin = tol.rank_tol * (1.0 + spectrum.spectral_radius)
        guaranteed = (
            (op.kind is OperatorKind.LYAPUNOV and spectrum.is_positive_stable(margin))
            or (op.kind is OperatorKind.STEIN and spectrum.is_schur_stable(margin))
        )
        if guaranteed and psd_classify(x, tol).classification is not PsdClass.POSITIVE_DEFINITE:
            raise InconsistencyError(
                "stability guarantees a positive definite solution, got something else",
                {"min_eigenvalue": psd_classify(x, tol).min_eigenvalue})
    return x, residual


def orthogonal_covariance_check(a, p, x, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Check conjugation covariance of both operators on one triple.

    For orthogonal ``P``: the Lyapunov/Stein operator of ``P A P^T``
    applied to ``P X P^T`` equals ``P`` conjugating the original image.
    """
    a, p = as_square(a), as_square(p)
    x = as_square(x)
    n = a.shape[0]
    if np.linalg.norm(p @ p.T - np.eye(n)) > tol.eq_tol * n:
        raise ValueError("P is not orthogonal within tolerance")
    conj = p @ a @ p.T
    x_conj = p @ x @ p.T
    scale = 1.0 + np.linalg.norm(a) ** 2 * np.linalg.norm(x)
    ok_l = np.linalg.norm(apply(lyapunov(conj), x_conj) - p @ apply(lyapunov(a), x) @ p.T) \
        <= tol.eq_tol * scale
    ok_s = np.linalg.norm(apply(stein(conj), x_conj) - p @ apply(stein(a), x) @ p.T) \
        <= tol.eq_tol * scale
    return bool(ok_l and ok_s)

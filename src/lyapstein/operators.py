"""Lyapunov and Stein operators on the symmetric space, materialized.

For a square matrix ``A`` of order ``n`` the two operators act on
symmetric ``X``:

* Lyapunov:  ``X -> A X + X A^T``
* Stein:     ``X -> X - A X A^T``

Each is materialized as a dense ``d x d`` matrix in svec coordinates
(``d = n(n+1)/2``), column ``j`` being the image of the ``j``-th
coordinate basis element.  Because svec is an isometry, the operator
adjoint is the plain transpose of this matrix, and both operators of
``A^T`` coincide with the adjoints of those of ``A``.

The module also detects structure: idempotency (operationally and via
the closed-form matrix criteria), generalized k-potency (``T^k`` equal to
a scalar multiple of ``T``), the cross-nonpositivity that makes both
operators behave like Z-matrices on the semidefinite cone, and solvability
of ``T(X) = Q`` under the stability hypotheses that guarantee definite
solutions.

Materialization is refused with :class:`CapabilityError` when the
``d x d`` matrix would exceed ``MAX_DENSE_OPERATOR_BYTES`` (256 MiB,
orders above 107).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .numkernel import (
    DEFAULT_TOL,
    CapabilityError,
    InconsistencyError,
    Tolerances,
    as_square,
    general_eigenvalues,
    null_basis,
    numerical_rank,
    require_symmetric,
)
from .symspace import PsdClass, psd_classify, smat, svec, sym_dim


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

    ``mat`` is the d-by-d coordinate matrix; ``base`` is the generating
    matrix when the operator was built as a Lyapunov or Stein operator.
    """

    mat: np.ndarray
    n: int
    kind: OperatorKind = OperatorKind.GENERAL
    base: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))


def _materialize(action, n: int) -> np.ndarray:
    d = sym_dim(n)
    if d * d * 8 > MAX_DENSE_OPERATOR_BYTES:
        raise CapabilityError(
            f"dense operator of order {n} needs a {d} x {d} float64 matrix "
            f"({d * d * 8} bytes), over the {MAX_DENSE_OPERATOR_BYTES}-byte limit")
    mat = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        mat[:, j] = svec(action(smat(e)))
    return mat


def lyapunov(a) -> OperatorMatrix:
    """The operator ``X -> A X + X A^T`` in svec coordinates."""
    a = as_square(a)
    return OperatorMatrix(_materialize(lambda x: a @ x + x @ a.T, a.shape[0]),
                          a.shape[0], OperatorKind.LYAPUNOV, a)


def stein(a) -> OperatorMatrix:
    """The operator ``X -> X - A X A^T`` in svec coordinates."""
    a = as_square(a)
    return OperatorMatrix(_materialize(lambda x: x - a @ x @ a.T, a.shape[0]),
                          a.shape[0], OperatorKind.STEIN, a)


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
    return OperatorMatrix(mat, n)


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
    return OperatorMatrix(op1.mat @ op2.mat, op1.n)


def op_power(op: OperatorMatrix, k: int) -> OperatorMatrix:
    if k < 1:
        raise ValueError("power must be >= 1")
    if k == 1:
        return op
    return OperatorMatrix(np.linalg.matrix_power(op.mat, k), op.n)


def adjoint(op: OperatorMatrix) -> OperatorMatrix:
    """Adjoint under the trace inner product: the coordinate transpose.

    For a tagged operator this is the operator of the transposed base
    matrix, so the tag is preserved.
    """
    base = op.base.T if op.base is not None else None
    return OperatorMatrix(op.mat.T.copy(), op.n, op.kind, base)


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
    a2 = a @ a
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
    """Solve ``T(X) = Q`` through the d-by-d coordinate system.

    A singular operator raises :class:`SingularOperatorError` carrying an
    orthonormal kernel basis.  When the operator is a Lyapunov operator of
    a positive stable matrix (or a Stein operator of a Schur stable one)
    and ``Q`` is positive definite, the solution is checked to be positive
    definite as the theory guarantees.
    """
    q = require_symmetric(q, tol)
    if q.shape[0] != op.n:
        raise ValueError("right-hand side order mismatch")
    d = op.dim
    if numerical_rank(op.mat, tol) < d:
        kernel = [smat(col) for col in null_basis(op.mat, tol).T]
        raise SingularOperatorError("operator is singular", kernel)
    x_coords = np.linalg.solve(op.mat, svec(q))
    x = smat(x_coords)
    residual = np.linalg.norm(apply(op, x) - q)
    if residual > tol.feas_tol * max(1.0, np.linalg.norm(q)):
        raise InconsistencyError("solve residual exceeds tolerance",
                                 {"residual": float(residual)})
    if op.base is not None and psd_classify(q, tol).classification is PsdClass.POSITIVE_DEFINITE:
        spectrum = general_eigenvalues(op.base, tol)
        margin = tol.rank_tol * (1.0 + spectrum.spectral_radius)
        guaranteed = (
            (op.kind is OperatorKind.LYAPUNOV and spectrum.is_positive_stable(margin))
            or (op.kind is OperatorKind.STEIN and spectrum.is_schur_stable(margin))
        )
        if guaranteed and psd_classify(x, tol).classification is not PsdClass.POSITIVE_DEFINITE:
            raise InconsistencyError(
                "stability guarantees a positive definite solution, got something else",
                {"min_eigenvalue": psd_classify(x, tol).min_eigenvalue})
    return x


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

"""Independent evidence checker for lyapstein outputs, using numpy only.

Every function re-verifies one piece of evidence from first principles:
it applies operators through their defining formulas, takes eigenvalues
and projects onto subspaces, and never calls a lyapstein decider.  Each
returns a list of human-readable problems; an empty list means the
evidence holds.

Tolerances mirror the CLI defaults (``--tol-feas 1e-7``,
``--tol-rank 1e-9``).  Outputs read back from ``--json`` are rounded to 12
significant digits, far inside these bands.
"""

from __future__ import annotations

import numpy as np

FEAS_TOL = 1e-7
RANK_TOL = 1e-9


def svec(x) -> np.ndarray:
    """Isometric coordinates of a symmetric matrix (off-diagonals times sqrt 2)."""
    x = np.asarray(x, dtype=float)
    iu = np.triu_indices(x.shape[0])
    return x[iu] * np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))


def apply_operator(kind: str, a, x) -> np.ndarray:
    """``A X + X A^T`` (Lyapunov) or ``X - A X A^T`` (Stein)."""
    a, x = np.asarray(a, float), np.asarray(x, float)
    if kind == "lyapunov":
        return a @ x + x @ a.T
    if kind == "stein":
        return x - a @ x @ a.T
    raise ValueError(f"unknown operator kind {kind!r}")


def operator_matrix(kind: str, a) -> np.ndarray:
    """Dense coordinate matrix of the operator, column j the image of basis element j."""
    n = np.asarray(a).shape[0]
    iu = np.triu_indices(n)
    cols = []
    for i, j in zip(*iu):
        e = np.zeros((n, n))
        e[i, j] = e[j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
        cols.append(svec(apply_operator(kind, a, e)))
    return np.column_stack(cols)


def orthonormal_range(m) -> np.ndarray:
    """Orthonormal columns spanning the column space of ``m``."""
    u, s, _ = np.linalg.svd(np.asarray(m, float), full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    return u[:, : int(np.count_nonzero(s > RANK_TOL * s[0]))]


def span_of_matrices(mats) -> np.ndarray:
    """Orthonormal basis, in svec coordinates, of the span of symmetric matrices."""
    return orthonormal_range(np.column_stack([svec(m) for m in mats]))


def _min_eig(x) -> float:
    x = np.asarray(x, float)
    return float(np.linalg.eigvalsh(0.5 * (x + x.T))[0])


def _outside(coords, basis) -> float:
    """Norm of the part of ``coords`` orthogonal to the columns of ``basis``."""
    return float(np.linalg.norm(coords - basis @ (basis.T @ coords)))


def check_psd_witness(w, basis) -> list[str]:
    """A PSD witness lies in the subspace, has unit trace and is PSD."""
    w = np.asarray(w, float)
    problems = []
    if abs(np.trace(w) - 1.0) > FEAS_TOL:
        problems.append(f"witness trace {np.trace(w):.3e} is not 1")
    lam = _min_eig(w)
    if lam < -FEAS_TOL:
        problems.append(f"witness min eigenvalue {lam:.3e} < -feas_tol")
    off = _outside(svec(w), basis)
    if off > FEAS_TOL * max(1.0, np.linalg.norm(w)):
        problems.append(f"witness leaves the subspace by {off:.3e}")
    return problems


def check_certificate(p, basis) -> list[str]:
    """A certificate is orthogonal to the subspace and positive definite."""
    p = np.asarray(p, float)
    problems = []
    inner = float(np.linalg.norm(basis.T @ svec(p)))
    if inner > FEAS_TOL * max(1.0, np.linalg.norm(p)):
        problems.append(f"certificate has inner product {inner:.3e} with the subspace")
    lam = _min_eig(p)
    if not lam > 0.0:
        problems.append(f"certificate min eigenvalue {lam:.3e} is not positive")
    return problems


def check_operator_witness(kind: str, a, x, range_basis=None) -> list[str]:
    """An operator witness X is in range(T), is nonzero, and T(X) is PSD."""
    x = np.asarray(x, float)
    if range_basis is None:
        range_basis = orthonormal_range(operator_matrix(kind, a))
    problems = []
    norm = float(np.linalg.norm(x))
    if norm <= FEAS_TOL:
        problems.append(f"witness norm {norm:.3e} is zero")
    off = _outside(svec(x), range_basis)
    if off > FEAS_TOL * max(1.0, norm):
        problems.append(f"witness leaves range(T) by {off:.3e}")
    tx = apply_operator(kind, a, x)
    lam = _min_eig(tx)
    if lam < -FEAS_TOL * max(1.0, np.linalg.norm(tx)):
        problems.append(f"T(witness) min eigenvalue {lam:.3e} is negative")
    return problems


def check_perron(a, p) -> list[str]:
    """A Perron vector is strictly positive and lies in null(A)."""
    a, p = np.asarray(a, float), np.asarray(p, float)
    problems = []
    if not np.min(p) > 0.0:
        problems.append(f"Perron vector has entry {np.min(p):.3e} <= 0")
    res = float(np.linalg.norm(a @ p))
    if res > FEAS_TOL * max(1.0, np.linalg.norm(a) * np.linalg.norm(p)):
        problems.append(f"Perron vector leaves null(A): |A p| = {res:.3e}")
    return problems


def check_solve(kind: str, a, q, x) -> list[str]:
    """The solution of T(X) = Q has residual within feas_tol * max(1, |Q|)."""
    q = np.asarray(q, float)
    res = float(np.linalg.norm(apply_operator(kind, a, x) - q))
    if res > FEAS_TOL * max(1.0, np.linalg.norm(q)):
        return [f"solve residual {res:.3e} exceeds feas_tol * max(1, |Q|)"]
    return []


def check_group_inverse(m, g, rng) -> list[str]:
    """Group-inverse axioms M G M = M, G M G = G, M G = G M on random probes."""
    m, g = np.asarray(m, float), np.asarray(g, float)
    v = rng.standard_normal((m.shape[0], 4))
    nm, ng, nv = np.linalg.norm(m), np.linalg.norm(g), np.linalg.norm(v)
    problems = []
    for name, lhs, rhs, scale in (("MGM = M", m @ (g @ (m @ v)), m @ v, nm * nm * ng),
                                  ("GMG = G", g @ (m @ (g @ v)), g @ v, ng * ng * nm),
                                  ("MG = GM", m @ (g @ v), g @ (m @ v), nm * ng)):
        res = float(np.linalg.norm(lhs - rhs))
        if res > FEAS_TOL * max(1.0, scale) * nv:
            problems.append(f"group-inverse axiom {name} fails by {res:.3e}")
    return problems

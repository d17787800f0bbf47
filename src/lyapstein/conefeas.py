"""Is a linear subspace's intersection with a cone trivial?

Two ambient settings are supported: vectors against the nonnegative
orthant, and symmetric matrices (svec coordinates) against the positive
semidefinite cone.

Orthant decisions are exact, via Stiemke's alternative implemented as two
linear programs: either the subspace contains a nonzero nonnegative
vector (witness), or its orthogonal complement contains a strictly
positive vector (certificate) -- never both.

PSD decisions run two exact shortcuts (a subspace of trace-zero matrices
meets the cone only at 0, certified by the identity; a subspace holding
the identity meets it at I/n), two one-step probes (a certificate probe
in the orthogonal complement and iteration 0 of Dykstra's alternating
projections for a witness), and then one primal-dual interior-point
solve (``sdp``) whose iterates carry a witness or a certificate that is
re-verified before it is returned.  ``UNDECIDED`` is left only for
boundary cases within the tolerances, where the solve runs out of
numerical precision before either piece of evidence verifies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numkernel import (
    DEFAULT_TOL,
    InconsistencyError,
    Tolerances,
    complement_basis,
    lp_solve,
    range_basis,
)
from .sdp import Iterate, interior_point
from .symspace import _triu_indices, smat, svec, sym_dim


@dataclass(frozen=True)
class SubspaceSpec:
    """A linear subspace given by an orthonormal basis.

    ``ambient`` is ``"vec"`` (vectors in R^n) or ``"sym"`` (symmetric
    matrices of order n in svec coordinates).  ``basis`` has one column
    per basis element; zero columns means the zero subspace.
    """

    ambient: str
    n: int
    basis: np.ndarray

    def __post_init__(self):
        if self.ambient not in ("vec", "sym"):
            raise ValueError(f"unknown ambient {self.ambient!r}")
        dim = self.n if self.ambient == "vec" else sym_dim(self.n)
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != dim:
            raise ValueError(f"basis must be {dim}-by-k, got {b.shape}")
        gram = b.T @ b
        if b.shape[1] and np.linalg.norm(gram - np.eye(b.shape[1])) > 1e-7:
            raise ValueError("basis columns must be orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def subspace_from_vectors(vectors, n: int, tol: Tolerances = DEFAULT_TOL) -> SubspaceSpec:
    """Span of the given vectors in R^n (orthonormalized)."""
    cols = np.column_stack([np.asarray(v, dtype=float).ravel() for v in vectors]) \
        if len(vectors) else np.zeros((n, 0))
    return SubspaceSpec("vec", n, range_basis(cols, tol))


def subspace_from_matrices(matrices, n: int, tol: Tolerances = DEFAULT_TOL) -> SubspaceSpec:
    """Span of the given symmetric matrices, in svec coordinates."""
    cols = np.column_stack([svec(m) for m in matrices]) if len(matrices) \
        else np.zeros((sym_dim(n), 0))
    return SubspaceSpec("sym", n, range_basis(cols, tol))


def subspace_from_coordinates(columns, n: int, tol: Tolerances = DEFAULT_TOL) -> SubspaceSpec:
    """Subspace of the symmetric space spanned by svec-coordinate columns."""
    cols = np.asarray(columns, dtype=float).reshape(sym_dim(n), -1)
    return SubspaceSpec("sym", n, range_basis(cols, tol))


class ConeStatus(enum.Enum):
    TRIVIAL_CERTIFIED = "trivial_certified"
    NONTRIVIAL_WITNESS = "nontrivial_witness"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class ConeDecision:
    """Decision with evidence.

    ``witness``: nonzero cone element inside the subspace, normalized to
    unit trace (sym) or unit coordinate sum (vec).
    ``certificate``: element of the orthogonal complement lying strictly
    inside the (self-dual) cone; its inner product with any cone element
    of the subspace forces that element to zero.
    """

    status: ConeStatus
    witness: np.ndarray | None = None
    certificate: np.ndarray | None = None


@dataclass(frozen=True)
class ConeBudget:
    """Seed of the range sampler's random Dykstra starts."""

    seed: int = 0


DEFAULT_BUDGET = ConeBudget()


def orthant_intersection(spec: SubspaceSpec, tol: Tolerances = DEFAULT_TOL) -> ConeDecision:
    """Exact dichotomy for subspace vs. nonnegative orthant (Stiemke).

    Primal LP: maximize the coordinate sum of ``y`` over ``y`` in the
    subspace with ``0 <= y <= 1``; a positive optimum yields a witness.
    Dual LP: find ``z`` in the orthogonal complement with ``z >= 1``
    componentwise; feasibility yields a certificate.  Exactly one side
    succeeds; anything else raises :class:`InconsistencyError`.
    """
    if spec.ambient != "vec":
        raise ValueError("orthant_intersection expects a vector-ambient subspace")
    n, b = spec.n, spec.basis
    k = spec.dim

    witness = None
    if k > 0:
        a_ub = np.vstack([-b, b])
        b_ub = np.concatenate([np.zeros(n), np.ones(n)])
        res = lp_solve(-(b.T @ np.ones(n)), a_ub=a_ub, b_ub=b_ub,
                       bounds=[(None, None)] * k, tol=tol)
        if res.status == "optimal" and -res.objective > tol.feas_tol:
            y = b @ res.x
            witness = y / np.sum(y)

    certificate = None
    comp = complement_basis(b, tol)
    if comp.shape[1] > 0:
        res = lp_solve(np.zeros(comp.shape[1]), a_ub=-comp, b_ub=-np.ones(n),
                       bounds=[(None, None)] * comp.shape[1], tol=tol)
        if res.status == "optimal":
            certificate = comp @ res.x

    if (witness is None) == (certificate is None):
        raise InconsistencyError(
            "Stiemke alternative violated: primal and dual searches "
            f"{'both succeeded' if witness is not None else 'both failed'}")
    if witness is not None:
        return ConeDecision(ConeStatus.NONTRIVIAL_WITNESS, witness=witness)
    return ConeDecision(ConeStatus.TRIVIAL_CERTIFIED, certificate=certificate)


@lru_cache(maxsize=None)
def _svec_layout(n: int):
    """Index maps between svec coordinates and row-major n-by-n entries.

    ``(v / scale)[..., full]`` is :func:`smat` of each row of ``v`` and
    ``x.reshape(-1, n * n)[:, upper] * scale`` is :func:`svec` of each
    matrix of ``x``, with the same arithmetic as those two; ``s_id`` is
    ``svec(I)``.  The arrays are shared by every caller, hence read-only.
    """
    (rows, cols), scale = _triu_indices(n)
    full = np.empty((n, n), dtype=np.intp)
    full[rows, cols] = full[cols, rows] = np.arange(rows.size)
    layout = (full.ravel(), rows * n + cols, scale.copy(), (rows == cols).astype(float))
    for arr in layout:
        arr.flags.writeable = False
    return layout


# relative bound on the rounding error of an eigvalsh eigenvalue (orders <= 50)
_EIG_SLACK = 1e-12


def _row_norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(v * v, axis=1))


def _dykstra_hits(basis, n, starts, iters, tol: Tolerances) -> dict:
    """Dykstra runs between {v in S : tr = 1} and the PSD cone, all starts at once.

    ``starts`` holds one svec start per row.  Every live start advances
    together: per iteration one stacked ``eigvalsh`` tests the affine-side
    iterates for PSD within ``feas_tol`` and one stacked ``eigh`` projects
    the rest onto the cone.  A start leaves the batch when it hits, or
    when the gap between the two projections stalls well above the
    tolerance (an empty or separated intersection).

    The test skips a start whose iterate provably fails it: by Weyl's
    inequality an eigenvalue moves by at most the step's norm, so the last
    computed smallest eigenvalue plus the steps since, plus a slack for
    the rounding of ``eigvalsh`` at both ends, bounds it from above.

    Returns ``{start index: hit matrix}`` in start order; a hit lies in
    the subspace with unit trace by construction.
    """
    full, upper, scale, s_id = _svec_layout(n)
    u = basis @ (basis.T @ s_id)
    uu = float(u @ u)
    if uu <= tol.feas_tol ** 2 or len(starts) == 0:
        return {}  # trace functional (nearly) vanishes on S; handled upstream

    live = np.arange(len(starts))
    x = a = starts
    bound = np.full(len(live), np.inf)  # skip the test while this is < -feas_tol
    hits = {}
    for it in range(iters):
        w = (x @ basis) @ basis.T
        a, prev = w + ((1.0 - w @ s_id) / uu)[:, None] * u, a
        if it:
            bound += (1.0 + _EIG_SLACK) * _row_norms(a - prev)
        check = np.flatnonzero(bound >= -tol.feas_tol)
        if check.size:
            mats = (a[check] / scale)[:, full].reshape(-1, n, n)
            eig = np.linalg.eigvalsh(mats)
            hit = eig[:, 0] >= -tol.feas_tol
            done = check[hit]
            hits.update(zip(live[done].tolist(), mats[hit]))
            if done.size == live.size:
                break
            bound[check] = eig[:, 0] + 2.0 * _EIG_SLACK * (1.0 + np.abs(eig).max(axis=1))
            if done.size:
                keep = np.ones(len(live), dtype=bool)
                keep[done] = False
                live, a, bound = live[keep], a[keep], bound[keep]
                if it:
                    corr, best_gap, stalled = corr[keep], best_gap[keep], stalled[keep]
        if not it:  # batch state, allocated only once iteration 0 has misses
            corr = np.zeros_like(a)
            best_gap = np.full(len(live), np.inf)
            stalled = np.zeros(len(live), dtype=int)
        y = a + corr
        lam, q = np.linalg.eigh((y / scale)[:, full].reshape(-1, n, n))
        x = ((q * np.maximum(lam, 0.0)[:, None, :]) @ q.transpose(0, 2, 1)) \
            .reshape(-1, n * n)[:, upper] * scale
        corr = y - x
        gap = _row_norms(a - x)
        improved = gap < best_gap * (1.0 - 1e-3)
        best_gap = np.where(improved, gap, best_gap)
        stalled = np.where(improved, 0, stalled + 1)
        alive = (stalled < 200) | (gap <= 10.0 * tol.feas_tol)
        if not alive.all():
            if not alive.any():
                break
            live, x, a, bound = live[alive], x[alive], a[alive], bound[alive]
            corr, best_gap, stalled = corr[alive], best_gap[alive], stalled[alive]
    return dict(sorted(hits.items()))


def _starts(basis, n, seed: int, indices) -> np.ndarray:
    """Svec start points, one row per index: I/n for 0, else a seeded random point of S."""
    starts = np.empty((len(indices), basis.shape[0]))
    for row, i in zip(starts, indices):
        row[:] = _svec_layout(n)[3] / n if i == 0 \
            else basis @ np.random.default_rng([seed, i]).standard_normal(basis.shape[1])
    return starts


def _ipm_decision(basis, comp, n, tol: Tolerances) -> ConeDecision:
    """Decide by one interior-point solve, stopping at the first iterate whose evidence verifies.

    Primal: minimize n*z over Y PSD and z >= 0 with Y - z*I in S and
    tr Y = 1.  Dual: maximize t over P = ``comp @ y`` in S-perp with
    P - t*I PSD and tr P <= n.  (Y, z) = (I/n, 1/n) and (P, t) = (0, -1)
    are strictly feasible, and at the optimum n*z = t: either z is 0 and
    Y - z*I is a witness, or t > 0 and P is a certificate.
    """
    s_id = svec(np.eye(n))
    # constraint rows: comp^T (svec Y - z s_id) = 0, then tr Y = 1
    a_psd = np.vstack([-comp.T, s_id])
    a_lin = np.append(comp.T @ s_id, 0.0)[:, None]
    b = np.zeros(a_psd.shape[0])
    b[-1] = 1.0
    start = Iterate(np.eye(n) / n, np.array([1.0 / n]), -b, np.eye(n), np.array([float(n)]))
    # along feasible iterates the gap n*z - t is (n + 1) * mu, and once it is
    # below feas_tol / 2 one of the two tests below passes in exact
    # arithmetic; a floor three orders lower leaves only rounding to blame
    mu_floor = 1e-3 * tol.feas_tol / (n + 1)
    try:
        for it in interior_point(a_psd, a_lin, b, np.zeros(s_id.size), np.array([float(n)]),
                                 start, mu_floor):
            p = smat(comp @ it.y[:-1])
            if np.linalg.eigvalsh(p)[0] > tol.feas_tol:
                return ConeDecision(ConeStatus.TRIVIAL_CERTIFIED, certificate=p)
            # Y - z*I projected into S (which removes the primal residual), unit trace
            v = basis @ (basis.T @ (svec(it.x) - it.xs[0] * s_id))
            trace = float(v @ s_id)
            if trace > 0:
                w = smat(v / trace)
                if np.linalg.eigvalsh(w)[0] >= -tol.feas_tol:
                    return ConeDecision(ConeStatus.NONTRIVIAL_WITNESS, witness=w)
    except np.linalg.LinAlgError:
        pass  # a factorization lost definiteness before either side verified
    return ConeDecision(ConeStatus.UNDECIDED)


def psd_intersection(spec: SubspaceSpec, tol: Tolerances = DEFAULT_TOL,
                     budget: ConeBudget = DEFAULT_BUDGET) -> ConeDecision:
    """Decide whether a subspace of symmetric matrices meets the PSD cone nontrivially.

    Pipeline: the trace shortcut and the identity shortcut; a one-step
    certificate probe (the complement's trace-n slice point nearest the
    identity) and a one-step witness probe (iteration 0 of Dykstra from
    I/n); then one interior-point solve that stops at the first iterate
    whose certificate or witness verifies.  ``UNDECIDED`` means that the
    solve lost numerical definiteness, or closed its duality gap, with
    neither piece of evidence verifying: a boundary case within the
    tolerances.  ``budget`` is not read; it is kept for positional
    callers.
    """
    if spec.ambient != "sym":
        raise ValueError("psd_intersection expects a symmetric-ambient subspace")
    n, basis = spec.n, spec.basis
    s_id = svec(np.eye(n))

    if spec.dim == 0 or np.linalg.norm(basis.T @ s_id) <= tol.feas_tol:
        # every element of S is trace-zero, and a PSD matrix with zero trace is zero
        return ConeDecision(ConeStatus.TRIVIAL_CERTIFIED, certificate=np.eye(n))

    # identity inside S: immediate witness
    inside = basis @ (basis.T @ s_id)
    if np.linalg.norm(inside - s_id) <= tol.feas_tol:
        return ConeDecision(ConeStatus.NONTRIVIAL_WITNESS, witness=np.eye(n) / n)

    # certificate probe: the complement's trace-n matrix nearest the
    # identity; definite means triviality is proven outright (a certificate
    # and a witness can never coexist, so probing first cannot disagree
    # with the witness probe)
    comp = complement_basis(basis, tol)
    u = comp @ (comp.T @ s_id)
    uu = float(u @ u)
    if uu > tol.feas_tol ** 2:
        p = u + ((n - u @ s_id) / uu) * u
        if np.linalg.eigvalsh(smat(p))[0] > tol.feas_tol:
            return ConeDecision(ConeStatus.TRIVIAL_CERTIFIED, certificate=smat(p))

    # witness probe: the trace-one point of S nearest I/n, when it is PSD
    hits = _dykstra_hits(basis, n, s_id[None] / n, 1, tol)
    if hits:
        (w,) = hits.values()
        return ConeDecision(ConeStatus.NONTRIVIAL_WITNESS, witness=w / np.trace(w))

    return _ipm_decision(basis, comp, n, tol)


def collect_psd_witness_samples(spec: SubspaceSpec, tol: Tolerances = DEFAULT_TOL,
                                starts: int = 16, iters: int = 600, seed: int = 0):
    """Approximate elements of (subspace cap PSD cone) from many Dykstra starts.

    Unlike :func:`psd_intersection` this does not stop at the first hit:
    it returns one (unit-trace) sample per successful start, giving the
    refutation searches a variety of cone points to probe.
    """
    if spec.ambient != "sym":
        raise ValueError("expects a symmetric-ambient subspace")
    n, basis = spec.n, spec.basis
    hits = _dykstra_hits(basis, n, _starts(basis, n, seed, range(starts)), iters, tol)
    return [w / np.trace(w) for w in hits.values()]

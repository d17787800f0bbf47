"""A small dense primal-dual interior-point method for semidefinite programs.

One positive semidefinite block ``X`` of order n (in svec coordinates)
plus a vector ``x`` of nonnegative scalars, in standard form:

    primal  minimize    c_psd . svec(X) + c_lin . x
            subject to  a_psd @ svec(X) + a_lin @ x = b,   X PSD,  x >= 0
    dual    maximize    b . y
            subject to  S = smat(c_psd - a_psd.T @ y) PSD,  s = c_lin - a_lin.T @ y >= 0

Steps use the HKM direction (Helmberg, Rendl, Vanderbei & Wolkowicz,
SIAM J. Optim. 6, 1996) with Mehrotra's predictor-corrector (SIAM J.
Optim. 2, 1992).  The caller supplies a strictly feasible start, so there
is no phase one, and reads every iterate as it is produced: it stops the
solve as soon as an iterate carries the evidence it needs.  A singular
factorization raises :class:`numpy.linalg.LinAlgError` to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.linalg

from .numkernel import NonConvergenceError
from .symspace import _triu_indices, smat, svec

# safeguard: Mehrotra's method needs a few tens of steps to reach double
# precision; more means the solve is not converging
MAX_ITER = 50

# fraction of the step to the boundary of the cone that is taken
_STEP_FRACTION = 0.95


@dataclass(frozen=True)
class Iterate:
    """A primal-dual point: ``x`` and ``s`` are n-by-n, ``xs`` and ``ss`` the scalars."""

    x: np.ndarray
    xs: np.ndarray
    y: np.ndarray
    s: np.ndarray
    ss: np.ndarray
    iteration: int = 0

    @property
    def mu(self) -> float:
        """Complementarity gap per cone dimension."""
        gap = float(np.sum(self.x * self.s) + self.xs @ self.ss)
        return gap / (self.x.shape[0] + self.xs.size)


def _sym_kron(x, z) -> np.ndarray:
    """svec coordinate matrix of ``V -> (X V Z + Z V X) / 2`` for symmetric X, Z."""
    (r, c), scale = _triu_indices(x.shape[0])
    ir, ic = np.ix_(r, c), np.ix_(c, r)
    rr, cc = np.ix_(r, r), np.ix_(c, c)
    k = x[ic] * z[ir] + x[cc] * z[rr] + x[rr] * z[cc] + x[ir] * z[ic]
    return k * np.outer(scale, scale) * 0.25


def _max_step(l_inv, dx) -> float:
    """Largest step in (0, 1] that keeps ``L L^T + step * dx`` PSD, times the fraction."""
    lam = np.linalg.eigvalsh(l_inv @ dx @ l_inv.T)[0]
    return 1.0 if lam >= 0 else min(1.0, _STEP_FRACTION / -lam)


def _max_step_lin(v, dv) -> float:
    """Largest step in (0, 1] that keeps ``v + step * dv`` nonnegative, times the fraction."""
    neg = dv < 0
    return min(1.0, _STEP_FRACTION * float(np.min(-v[neg] / dv[neg]))) if neg.any() else 1.0


def interior_point(a_psd, a_lin, b, c_psd, c_lin, start: Iterate,
                   mu_floor: float) -> Iterator[Iterate]:
    """Yield the iterates of an HKM predictor-corrector solve from ``start``.

    The solve returns once the complementarity gap per dimension falls
    below ``mu_floor``, and raises :class:`NonConvergenceError` after
    :data:`MAX_ITER` steps.
    """
    a = np.hstack([a_psd, a_lin])
    c = np.concatenate([c_psd, c_lin])
    d = a_psd.shape[1]
    dims = start.x.shape[0] + start.xs.size
    it = start
    for step in range(1, MAX_ITER + 1):
        mu = it.mu
        if mu < mu_floor:
            return
        l_x_inv = np.linalg.inv(np.linalg.cholesky(it.x))
        l_s_inv = np.linalg.inv(np.linalg.cholesky(it.s))
        s_inv = l_s_inv.T @ l_s_inv
        k = _sym_kron(it.x, s_inv)
        ratio = it.xs / it.ss
        schur = a_psd @ k @ a_psd.T + (a_lin * ratio) @ a_lin.T
        factor = scipy.linalg.cho_factor(schur)

        x_vec = np.concatenate([svec(it.x), it.xs])
        s_vec = np.concatenate([svec(it.s), it.ss])
        r_p = b - a @ x_vec
        r_d = c - s_vec - a.T @ it.y

        def direction(r_c):
            """(dx, ds, dy) for the complementarity right-hand side ``r_c``."""
            scaled = np.concatenate([k @ r_d[:d], ratio * r_d[d:]])
            dy = scipy.linalg.cho_solve(factor, r_p - a @ (r_c - scaled))
            ds = r_d - a.T @ dy
            dx = r_c - np.concatenate([k @ ds[:d], ratio * ds[d:]])
            return dx, ds, dy

        def steps(dx, ds):
            ap = min(_max_step(l_x_inv, smat(dx[:d])), _max_step_lin(it.xs, dx[d:]))
            ad = min(_max_step(l_s_inv, smat(ds[:d])), _max_step_lin(it.ss, ds[d:]))
            return ap, ad

        # predictor: the affine-scaling direction (target mu = 0)
        dx, ds, dy = direction(-x_vec)
        ap, ad = steps(dx, ds)
        mu_aff = float((x_vec + ap * dx) @ (s_vec + ad * ds)) / dims
        sigma = (mu_aff / mu) ** 3

        # corrector: centering toward sigma * mu plus the second-order term
        dxa, dsa = smat(dx[:d]), smat(ds[:d])
        second = dxa @ dsa @ s_inv
        r_c = np.concatenate([
            svec(sigma * mu * s_inv - it.x - 0.5 * (second + second.T)),
            sigma * mu / it.ss - it.xs - dx[d:] * ds[d:] / it.ss])
        dx, ds, dy = direction(r_c)
        ap, ad = steps(dx, ds)
        x_vec = x_vec + ap * dx
        s_vec = s_vec + ad * ds
        it = Iterate(smat(x_vec[:d]), x_vec[d:], it.y + ad * dy, smat(s_vec[:d]),
                     s_vec[d:], step)
        yield it
    if it.mu >= mu_floor:
        raise NonConvergenceError(f"interior-point solve did not converge in {MAX_ITER} steps")

"""Deterministic sparse linear algebra: direct SPD and symmetric-indefinite
solves plus the smallest generalized eigenpair by inverse power iteration.

Everything runs through a sequential sparse LU factorization, so identical
inputs give bit-identical outputs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    pass


class SingularSystemError(np.linalg.LinAlgError):
    pass


class NoConvergenceError(RuntimeError):
    pass


def _factorize(A: sp.spmatrix):
    try:
        return spla.splu(sp.csc_matrix(A))
    except RuntimeError as exc:  # SuperLU reports singularity this way
        raise SingularSystemError(str(exc)) from exc


def _checked_solve(A: sp.spmatrix, b: np.ndarray, error) -> np.ndarray:
    """LU solve of A x = b; raises `error` if A is singular or the relative
    residual ||A x - b|| / ||b|| is not finite or exceeds 1e-10."""
    b = np.asarray(b, dtype=float)
    try:
        lu = _factorize(A)
    except SingularSystemError as exc:
        raise error(str(exc)) from exc
    x = lu.solve(b)
    nb = np.linalg.norm(b)
    if nb > 0:
        resid = np.linalg.norm(A @ x - b) / nb
        if not np.isfinite(resid) or resid > 1e-10:
            raise error(f"relative residual {resid}")
    return x


def spd_solve(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Direct solve for SPD A, relative residual checked <= 1e-10."""
    return _checked_solve(A, b, NotPositiveDefiniteError)


def sym_indef_solve(K: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Direct solve for a symmetric, possibly indefinite, nonsingular system;
    relative residual checked <= 1e-10."""
    return _checked_solve(K, rhs, SingularSystemError)


def gen_eig_smallest(A: sp.spmatrix, M: sp.spmatrix, tol: float = 1e-12,
                     maxit: int = 500, x0: np.ndarray | None = None):
    """Smallest eigenpair of A x = lambda M x by inverse power iteration.

    One factorization of A is reused across iterations; the start vector is
    M times the all-ones vector (or the given x0), so runs are deterministic.
    The returned vector is M-normalized.
    """
    n = A.shape[0]
    lu = _factorize(A)
    x = M @ np.ones(n) if x0 is None else np.array(x0, dtype=float)
    x = x / np.sqrt(abs(x @ (M @ x)))
    lam_old = np.inf
    for _ in range(maxit):
        y = lu.solve(M @ x)
        my = M @ y
        nrm = np.sqrt(abs(y @ my))
        if nrm == 0.0:
            raise NoConvergenceError("inverse iteration collapsed to zero")
        x = y / nrm
        lam = float(x @ (A @ x)) / float(x @ (M @ x))
        if abs(lam - lam_old) <= tol * abs(lam):
            mx = float(x @ (M @ x))
            return lam, x / np.sqrt(mx)
        lam_old = lam
    raise NoConvergenceError(f"no convergence in {maxit} iterations")

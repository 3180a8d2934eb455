"""Deterministic sparse linear algebra: a direct symmetric-indefinite solve
and the smallest generalized eigenpair by inverse power iteration.

SPD matrices get a symmetric factorization without pivoting: a multiple
minimum degree ordering of A + A^T, applied to rows and columns alike, with
unrelaxed supernodes.  With no pivoting, a symmetric matrix is positive
definite exactly when every pivot is positive, so the factorization is its
own certificate: a row interchange (SuperLU's answer to a zero pivot) or a
pivot <= 0 raises NotPositiveDefiniteError.  Symmetric-indefinite (saddle)
systems keep SuperLU's default column ordering with threshold pivoting.

Everything runs through a sequential sparse LU factorization and the inverse
iteration reduces with einsum, not BLAS, so identical inputs give
bit-identical outputs whatever the BLAS thread count.
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


def _factorize(A: sp.spmatrix, **options):
    """SuperLU LU of A in any sparse format: the one conversion to CSC."""
    try:
        return spla.splu(sp.csc_matrix(A), **options)
    except RuntimeError as exc:  # SuperLU reports singularity this way
        raise SingularSystemError(str(exc)) from exc


def _factorize_spd(A: sp.spmatrix):
    """No-pivot LU of symmetric A; raises NotPositiveDefiniteError unless
    every pivot is positive, i.e. unless A is positive definite."""
    lu = _factorize(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    relax=1, options=dict(SymmetricMode=True))
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NotPositiveDefiniteError("zero pivot: rows were interchanged")
    pivots = lu.U.diagonal()
    if not (pivots > 0).all():
        raise NotPositiveDefiniteError(f"pivot {pivots.min()!r} is not positive")
    return lu


def sym_indef_solve(K: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Direct solve for a symmetric, possibly indefinite, nonsingular system;
    raises SingularSystemError if K is singular or the relative residual
    ||K x - rhs|| / ||rhs|| is not finite or exceeds 1e-10."""
    rhs = np.asarray(rhs, dtype=float)
    x = _factorize(K).solve(rhs)
    nb = np.linalg.norm(rhs)
    if nb > 0:
        resid = np.linalg.norm(K @ x - rhs) / nb
        if not np.isfinite(resid) or resid > 1e-10:
            raise SingularSystemError(f"relative residual {resid}")
    return x


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v in a fixed summation order (BLAS ddot splits it by thread)."""
    return float(np.einsum("i,i->", u, v))


def gen_eig_smallest(A: sp.spmatrix, M: sp.spmatrix, tol: float = 1e-12,
                     maxit: int = 500, x0: np.ndarray | None = None):
    """Smallest eigenpair of A x = lambda M x by inverse power iteration.

    A must be SPD (NotPositiveDefiniteError otherwise).  One factorization of
    A is reused across iterations; the start vector is M times the all-ones
    vector (or the given x0), so runs are deterministic.  The returned vector
    is M-normalized.
    """
    n = A.shape[0]
    lu = _factorize_spd(A)
    x = M @ np.ones(n) if x0 is None else np.array(x0, dtype=float)
    x = x / np.sqrt(abs(_dot(x, M @ x)))
    lam_old = np.inf
    for _ in range(maxit):
        y = lu.solve(M @ x)
        nrm = np.sqrt(abs(_dot(y, M @ y)))
        if nrm == 0.0:
            raise NoConvergenceError("inverse iteration collapsed to zero")
        x = y / nrm
        mx = _dot(x, M @ x)
        lam = _dot(x, A @ x) / mx
        if abs(lam - lam_old) <= tol * abs(lam):
            return lam, x / np.sqrt(mx)
        lam_old = lam
    raise NoConvergenceError(f"no convergence in {maxit} iterations")

"""Deterministic sparse linear algebra: a direct saddle-point solve and the
smallest generalized eigenpair by inverse power iteration.

Every system gets one factorization: symmetric LU without pivoting, on a
multiple minimum degree ordering of K + K^T, with unrelaxed supernodes.
Its pivots are the D of K = L D L^T, so by Sylvester's law they have K's
inertia, and the factorization certifies itself: a row interchange
(SuperLU's answer to a zero pivot) or a pivot of the wrong sign raises.
The saddle matrix K = [[A, -B], [-B^T, 0]] can meet a zero pivot, so the
factorization is of the quasi-definite K_d = [[A, -B], [-B^T, -d I]], which
has an L D L^T under every symmetric ordering (Vanderbei, SIAM J. Optim.
5(1), 1995).  d = 1e-10 max|B|^2 / max diag(A) is scaled to the Schur
complement S = B^T A^-1 B, and iterative refinement against the true K
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 12) removes
it, contracting the error by about d / (d + s) per step for the smallest
eigenvalue s of S: a refinement that stalls above roundoff or runs out of
steps means s is not well above d, and raises.

The LU is sequential and the reductions that decide a result (max norms,
einsum dots) avoid BLAS, so identical inputs give bit-identical outputs
whatever the BLAS thread count.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REFINE_STEPS = 10        # a well-posed saddle system needs about three
EIG_TOL = 1e-12          # relative lambda change that ends inverse iteration
EIG_MAXIT = 500


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    pass


class SingularSystemError(np.linalg.LinAlgError):
    pass


class NoConvergenceError(RuntimeError):
    pass


def _factorize(K: sp.spmatrix, positive: int):
    """No-pivot LU of symmetric K, certified to have `positive` pivots > 0
    and the rest < 0 (NotPositiveDefiniteError when all should be > 0,
    SingularSystemError otherwise); the one conversion to CSC."""
    n = K.shape[0]
    error = NotPositiveDefiniteError if positive == n else SingularSystemError
    try:
        lu = spla.splu(sp.csc_matrix(K), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, relax=1,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU reports singularity this way
        raise SingularSystemError(str(exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise error("zero pivot: rows were interchanged")
    pivots = lu.U.diagonal()
    inertia = (int((pivots > 0).sum()), int((pivots < 0).sum()))
    if inertia != (positive, n - positive):
        raise error(f"pivot inertia {inertia}, want {(positive, n - positive)}")
    return lu


def saddle_solve(A: sp.spmatrix, B: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve K x = rhs, K = [[A, -B], [-B^T, 0]] for SPD A and B of full
    column rank (K = A if B has no columns).

    Raises NotPositiveDefiniteError or SingularSystemError (see the module
    docstring), also if ||K x - rhs|| / ||rhs|| is not finite or > 1e-10.
    """
    rhs = np.asarray(rhs, dtype=float)
    nf, m = B.shape
    K = sp.bmat([[A, -B], [-B.T, None]], format="csr")
    if m == 0:
        x = _factorize(K, nf).solve(rhs)
    else:
        diag = A.diagonal().max()
        if not diag > 0:
            raise NotPositiveDefiniteError(f"largest diagonal entry {diag!r}")
        d = 1e-10 * abs(B).max() ** 2 / diag
        lu = _factorize(K - sp.diags(np.r_[np.zeros(nf), np.full(m, d)]), nf)
        x = lu.solve(rhs)
        last = np.abs(x).max()
        # stop when the correction is negligible or stops halving; max norms
        # keep the stop independent of summation order
        for _ in range(REFINE_STEPS):
            dx = lu.solve(rhs - K @ x)
            x = x + dx
            step, scale = np.abs(dx).max(), np.abs(x).max()
            if step <= 1e-15 * scale or 2 * step > last:
                break
            last = step
        else:
            raise SingularSystemError(
                f"refinement still correcting after {REFINE_STEPS} steps")
        if step > 1e-10 * scale:
            raise SingularSystemError(f"refinement stalled at {step / scale:.1e}"
                                      " max|x|: Schur complement below the shift")
    nb = np.linalg.norm(rhs)
    if nb > 0:
        resid = np.linalg.norm(K @ x - rhs) / nb
        if not np.isfinite(resid) or resid > 1e-10:
            raise SingularSystemError(f"relative residual {resid}")
    return x


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v in a fixed summation order (BLAS ddot splits it by thread)."""
    return float(np.einsum("i,i->", u, v))


def gen_eig_smallest(A: sp.spmatrix, M: sp.spmatrix,
                     x0: np.ndarray | None = None):
    """Smallest eigenpair of A x = lambda M x by inverse power iteration.

    A must be SPD (NotPositiveDefiniteError otherwise).  One factorization of
    A is reused across iterations; the start vector is M times the all-ones
    vector (or the given x0), so runs are deterministic.  The returned vector
    is M-normalized.  M x carries into the next solve (three products a step).
    """
    n = A.shape[0]
    lu = _factorize(A, n)
    x = M @ np.ones(n) if x0 is None else np.array(x0, dtype=float)
    x = x / np.sqrt(abs(_dot(x, M @ x)))
    Mx = M @ x
    lam_old = np.inf
    for _ in range(EIG_MAXIT):
        y = lu.solve(Mx)
        nrm = np.sqrt(abs(_dot(y, M @ y)))
        if nrm == 0.0:
            raise NoConvergenceError("inverse iteration collapsed to zero")
        x = y / nrm
        Mx = M @ x
        mx = _dot(x, Mx)
        lam = _dot(x, A @ x) / mx
        if abs(lam - lam_old) <= EIG_TOL * abs(lam):
            return lam, x / np.sqrt(mx)
        lam_old = lam
    raise NoConvergenceError(f"no convergence in {EIG_MAXIT} iterations")

"""Deterministic sparse linear algebra: certified SPD factorizations,
conjugate gradients preconditioned by them, and the smallest generalized
eigenpair by preconditioned LOBPCG.

Each factorization is a symmetric LU without pivoting, on a multiple
minimum degree ordering of A + A^T, with unrelaxed supernodes.
Its pivots are the D of A = L D L^T, so by Sylvester's law they have A's
inertia up to roundoff: a row interchange (SuperLU's answer to a zero pivot)
or a pivot <= 0 raises, yet a singular A can pass (the 384-element L-shape's
B^T B); pcg's curvature and gen_eig_smallest's Rayleigh-quotient floors back it.

A nearby SPD system takes such an LU as the preconditioner of conjugate
gradients (Hestenes & Stiefel, J. Res. Nat. Bur. Standards 49(6), 1952),
which raise NoConvergenceError after PCG_MAXIT steps.  No pivots certify
that system's A, so each search direction p checks it: a curvature p^T A p
<= EIG_SINGULAR |p|^T |A| |p| raises NotPositiveDefiniteError.

The eigenpair comes from single-vector LOBPCG (Knyazev, SIAM J. Sci.
Comput. 23(2), 2001): Rayleigh-Ritz on span{x, T r, p} for the residual
r = A x - lambda M x and the previous step p, with the preconditioner T the
certified LU of A or of a spectrally equivalent SPD matrix (the exact
stiffness for a rule n >= 2 one), so that one factorization serves each
quadrature of a mesh but rule 1.  Each vector carries its products with A
and M, so a step costs one triangular solve and one product with each.  It
stops when the T-norm residual sqrt(r^T T r / lambda) of the M-normalized x
is at most EIG_RESIDUAL; lambda's error is of second order in it.  A foreign
LU certifies nothing about A, so the Rayleigh quotients check it instead.

The LU is sequential and the reductions that decide a result (einsum dots,
the 3x3 Ritz problems) avoid BLAS, so identical inputs give bit-identical
outputs whatever the BLAS thread count.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PCG_TOL = 1e-10          # relative residual at which conjugate gradients stop
PCG_MAXIT = 200          # exp3's rules n >= 2 take at most 72 (rule 2, full)
EIG_RESIDUAL = 1e-9      # LOBPCG stops at T-norm residual sqrt(r^T T r / lam)
EIG_DROP = 1e-8          # M-norm share below which a basis vector is dropped
EIG_SINGULAR = 1e-10     # x^T A x / |x|^T |A| |x| at which A is singular
EIG_MAXIT = 500


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    pass


class SingularSystemError(np.linalg.LinAlgError):
    pass


class NoConvergenceError(RuntimeError):
    pass


def factorize_spd(A: sp.spmatrix):
    """The LU of SPD A, via CSC, certified by its pivot signs up to roundoff
    (NotPositiveDefiniteError; SingularSystemError if empty or exactly singular)."""
    n = A.shape[0]
    if n == 0:
        raise SingularSystemError("empty system: no unknowns to solve for")
    try:
        lu = spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, relax=1,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU reports singularity this way
        raise SingularSystemError(str(exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NotPositiveDefiniteError("zero pivot: rows were interchanged")
    pivots = lu.U.diagonal()
    inertia = (int((pivots > 0).sum()), int((pivots < 0).sum()))
    if inertia != (n, 0):
        raise NotPositiveDefiniteError(f"pivot inertia {inertia}, want {(n, 0)}")
    return lu


def pcg(A: sp.spmatrix, b: np.ndarray, lu) -> np.ndarray:
    """x with ||A x - b|| <= PCG_TOL ||b|| by conjugate gradients
    preconditioned by `lu`, a factorize_spd of A or of a nearby matrix."""
    abs_rows = abs(A) @ np.ones(A.shape[0])
    x, r, p, rz = np.zeros_like(b), np.array(b, dtype=float), 0.0, 1.0
    norm_b = np.sqrt(_dot(b, b))
    for _ in range(PCG_MAXIT):
        if np.sqrt(_dot(r, r)) <= PCG_TOL * norm_b:
            return x
        z = lu.solve(r)
        rz, last = _dot(r, z), rz
        p = z + (rz / last) * p
        Ap = A @ p
        curvature = _dot(p, Ap)
        # sum_i abs_rows_i p_i^2 bounds |p|^T |A| |p|, the scale of p^T A p
        if not curvature > EIG_SINGULAR * _dot(abs_rows, p * p):
            raise NotPositiveDefiniteError(f"curvature {curvature:.3g} along a search "
                                           "direction: A is singular or indefinite")
        x, r = x + rz / curvature * p, r - rz / curvature * Ap
    raise NoConvergenceError(f"PCG residual {np.sqrt(_dot(r, r)) / norm_b:.1e} "
                             f"after {PCG_MAXIT} iterations: the LU is too far off")


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v in a fixed summation order (BLAS ddot splits it by thread)."""
    return float(np.einsum("i,i->", u, v))


def _m_orthonormal(basis, triples):
    """The M-orthonormal `basis` extended by `triples` (v, A v, M v): two
    Gram-Schmidt passes on v, whose summed coefficients A v and M v then
    follow; a v whose M-norm collapses below EIG_DROP times its own is
    dropped."""
    basis = list(basis)
    for v, Av, Mv in triples:
        own, coefs = _dot(v, Mv), [0.0] * len(basis)
        for _ in range(2):
            for k, b in enumerate(basis):
                c = _dot(v, b[2])
                v = v - c * b[0]
                coefs[k] += c
        Av, Mv = (u - sum(c * b[i] for c, b in zip(coefs, basis))
                  for i, u in ((1, Av), (2, Mv)))
        norm2 = _dot(v, Mv)
        if own > 0 and norm2 > EIG_DROP ** 2 * own:
            basis.append([u / np.sqrt(norm2) for u in (v, Av, Mv)])
    return basis


def gen_eig_smallest(A: sp.spmatrix, M: sp.spmatrix, lu,
                     x0: np.ndarray | None = None):
    """Smallest eigenpair of A x = lambda M x by single-vector LOBPCG.

    The preconditioner T is `lu`, a factorize_spd of A or of a spectrally
    equivalent SPD matrix.  A Rayleigh quotient x^T A x <= EIG_SINGULAR
    |x|^T |A| |x|, each step's Ritz value among them, raises
    NotPositiveDefiniteError: A is then indefinite or singular to working
    accuracy.  The start vector is M times the all-ones vector (or the given
    x0), so runs are deterministic.  The returned vector is M-normalized.
    """
    n = A.shape[0]
    abs_rows = abs(A) @ np.ones(n)
    x = M @ np.ones(n) if x0 is None else np.array(x0, dtype=float)
    basis = _m_orthonormal([], [(x, A @ x, M @ x)])
    if not basis:
        raise NoConvergenceError("start vector of M-norm zero")
    x, p, resid = basis[0], None, np.inf
    for _ in range(EIG_MAXIT):
        lam = _dot(x[0], x[1])
        # sum_i abs_rows_i x_i^2 bounds |x|^T |A| |x|, the scale of x^T A x
        floor = EIG_SINGULAR * _dot(abs_rows, x[0] * x[0])
        if not lam > floor:
            raise NotPositiveDefiniteError(
                f"Rayleigh quotient {lam:.3g} <= {floor:.3g}: A is singular "
                "to working accuracy or indefinite")
        r = x[1] - lam * x[2]
        w = lu.solve(r)
        resid = np.sqrt(abs(_dot(r, w)) / lam)
        if resid <= EIG_RESIDUAL:
            # fresh products: the carried ones have drifted by roundoff
            x, mx = x[0], _dot(x[0], M @ x[0])
            return _dot(x, A @ x) / mx, x / np.sqrt(mx)
        S = _m_orthonormal([x], [(w, A @ w, M @ w)]
                           + ([] if p is None else [p]))
        if len(S) == 1:
            raise NoConvergenceError("the search space collapsed onto x")
        # the Ritz vector, whose Ritz value is the next Rayleigh quotient, is
        # its x part plus the step p
        c = np.linalg.eigh([[_dot(s[0], t[1]) for t in S] for s in S])[1][:, 0]
        p = [sum(ck * s[i] for ck, s in zip(c[1:], S[1:])) for i in range(3)]
        x = [c[0] * u + q for u, q in zip(S[0], p)]
    raise NoConvergenceError(f"no convergence in {EIG_MAXIT} iterations "
                             f"(T-norm residual {resid:.1e})")

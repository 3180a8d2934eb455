"""Deterministic sparse linear algebra: a direct saddle-point solve and the
smallest generalized eigenpair by preconditioned LOBPCG.

Each factorization is a symmetric LU without pivoting, on a multiple
minimum degree ordering of K + K^T, with unrelaxed supernodes.
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
steps means s is not well above d, and raises.  A nearby system with the
same B takes K_d's LU as a constraint preconditioner (Keller, Gould & Wathen,
SIAM J. Matrix Anal. Appl. 21(4), 2000) of flexible GMRES corrections (Carson
& Higham, SIAM J. Sci. Comput. 40(2), 2018) that sum x from z_j = LU^-1 v_j:
LU^-1 of the sum of the v_j would amplify roundoff by 1/d.  No pivots certify
that system's A, so the solution's curvature checks it instead.

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

The LU is sequential and the reductions that decide a result (max norms,
einsum dots, the 3x3 Ritz problems, the GMRES back substitution) avoid
BLAS, so identical inputs give bit-identical outputs whatever the BLAS
thread count.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REFINE_STEPS = 10        # a well-posed saddle system needs about three
GMRES_TOL = 1e-8         # relative residual of one GMRES correction
GMRES_MAXIT = 100        # exp3's rules n >= 2 take at most 52 (rule 2, full)
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


def _factorize(K: sp.spmatrix, positive: int):
    """No-pivot LU of symmetric K, certified to have `positive` pivots > 0
    and the rest < 0 (NotPositiveDefiniteError when all should be > 0,
    SingularSystemError otherwise); the one conversion to CSC."""
    n = K.shape[0]
    if n == 0:
        raise SingularSystemError("empty system: no unknowns to solve for")
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


def factorize_saddle(A: sp.spmatrix, B: sp.spmatrix):
    """The certified LU of K_d (module docstring) for SPD A and B of full
    column rank, to saddle_solve the system or a nearby one with that B."""
    diag = A.diagonal().max()
    if not diag > 0:
        raise NotPositiveDefiniteError(f"largest diagonal entry {diag!r}")
    nf, m = B.shape
    d = 1e-10 * abs(B).max() ** 2 / diag
    K = sp.bmat([[A, -B], [-B.T, None]], format="csr")
    return _factorize(K - sp.diags(np.r_[np.zeros(nf), np.full(m, d)]), nf)


def saddle_solve(A: sp.spmatrix, B: sp.spmatrix, rhs: np.ndarray, lu=None,
                 nearby: bool = False) -> np.ndarray:
    """Solve K x = rhs, K = [[A, -B], [-B^T, 0]] for SPD A and B of full
    column rank, refined with `lu`: its factorize_saddle (made if None) or,
    `nearby`, that of a system with the same B, preconditioning GMRES.

    Raises NotPositiveDefiniteError or SingularSystemError (see the module
    docstring), also if ||K x - rhs|| / ||rhs|| is not finite or > 1e-10, and
    NoConvergenceError from GMRES.  `nearby`, a diagonal entry of A or its
    curvature along x's velocity u, u^T A u / |u|^T |A| |u|, below
    EIG_SINGULAR raises NotPositiveDefiniteError.
    """
    rhs = np.asarray(rhs, dtype=float)
    K = sp.bmat([[A, -B], [-B.T, None]], format="csr")
    lu = factorize_saddle(A, B) if lu is None else lu
    solve = (lambda r: _gmres(K, r, lu)) if nearby else lu.solve
    x = solve(rhs)
    last = np.abs(x).max()
    # stop when the correction is negligible or stops halving; max norms
    # keep the stop independent of summation order
    for _ in range(REFINE_STEPS):
        dx = solve(rhs - K @ x)
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
    u = x[:B.shape[0]]
    if nearby and not (A.diagonal().min() > 0 and _dot(u, A @ u)
                       >= EIG_SINGULAR * _dot(abs(A) @ np.abs(u), np.abs(u))):
        raise NotPositiveDefiniteError("A's diagonal or curvature along u")
    nb = np.sqrt(_dot(rhs, rhs))
    if nb > 0:
        r = K @ x - rhs
        resid = np.sqrt(_dot(r, r)) / nb
        if not np.isfinite(resid) or resid > 1e-10:
            raise SingularSystemError(f"relative residual {resid}")
    return x


def _gmres(K: sp.spmatrix, r: np.ndarray, lu) -> np.ndarray:
    """x with ||K x - r|| <= GMRES_TOL ||r|| by GMRES (Saad & Schultz, SIAM
    J. Sci. Stat. Comput. 7(3), 1986) right-preconditioned by `lu`."""
    beta = np.sqrt(_dot(r, r))
    if beta == 0:
        return np.zeros_like(r)
    H = np.zeros((GMRES_MAXIT + 1, GMRES_MAXIT))
    g, rotations, V, Z = [beta], [], [r / beta], []
    for j in range(GMRES_MAXIT):
        Z.append(lu.solve(V[j]))
        w, h = K @ Z[j], H[:, j]
        for i, v in enumerate(V):
            h[i] = _dot(w, v)
            w = w - h[i] * v
        norm = np.sqrt(_dot(w, w))
        for i, (c, s) in enumerate(rotations):
            h[i:i + 2] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        rho = np.hypot(h[j], norm)
        c, s = h[j] / rho, norm / rho
        rotations.append((c, s))
        h[j], g[j:] = rho, [c * g[j], -s * g[j]]
        if abs(g[j + 1]) <= GMRES_TOL * beta:
            y = np.zeros(j + 1)
            for i in range(j, -1, -1):
                y[i] = (g[i] - _dot(H[i, i + 1:j + 1], y[i + 1:])) / H[i, i]
            return sum(yi * z for yi, z in zip(y, Z))
        V.append(w / norm)
    raise NoConvergenceError(f"GMRES residual {abs(g[-1]) / beta:.1e} after "
                             f"{GMRES_MAXIT} iterations: the LU is too far off")


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v in a fixed summation order (BLAS ddot splits it by thread)."""
    return float(np.einsum("i,i->", u, v))


def factorize_spd(A: sp.spmatrix):
    """The certified factorization of SPD A (NotPositiveDefiniteError
    otherwise), to precondition gen_eig_smallest on A and on nearby systems."""
    return _factorize(A, A.shape[0])


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

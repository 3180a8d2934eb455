import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from ratfem import solvers
from ratfem.solvers import (NoConvergenceError, NotPositiveDefiniteError,
                            SingularSystemError, factorize_saddle,
                            factorize_spd, gen_eig_smallest, saddle_solve)


def test_singular_system_raises():
    A = sp.csc_matrix(np.zeros((3, 3)))
    with pytest.raises(SingularSystemError):
        factorize_spd(A)


@pytest.mark.parametrize("dense", [np.diag([1.0, -2.0, 3.0]),
                                   # SuperLU swaps the rows of this one and
                                   # returns a positive U diagonal
                                   np.array([[0.0, 1.0], [1.0, 0.0]])])
def test_indefinite_is_not_positive_definite(dense):
    A = sp.csc_matrix(dense)
    with pytest.raises(NotPositiveDefiniteError):
        gen_eig_smallest(A, sp.eye(A.shape[0], format="csc"), factorize_spd(A))


def _random_saddle(seed, nf=20, m=7):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((nf, nf))
    A = sp.csc_matrix(B @ B.T + nf * np.eye(nf))
    return A, sp.csc_matrix(rng.standard_normal((nf, m))), rng.standard_normal(nf + m)


def test_saddle_solve():
    # [[0, 1], [1, 0]] as a saddle system: its A block has no positive pivot
    with pytest.raises(NotPositiveDefiniteError):
        saddle_solve(sp.csc_matrix([[0.0]]), sp.csc_matrix([[-1.0]]),
                     np.array([1.0, 2.0]))
    assert np.allclose(factorize_spd(sp.eye(3, format="csc")).solve(np.ones(3)),
                       1.0)
    # random gauged saddle system
    A, B, rhs = _random_saddle(1)
    K = sp.bmat([[A, -B], [-B.T, None]], format="csc")
    x = saddle_solve(A, B, rhs)
    assert np.linalg.norm(K @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_saddle_with_indefinite_a_block_raises():
    # -2 sits on the kernel of B^T, so no shift of the pressure block helps
    A = sp.csc_matrix(np.diag([1.0, -2.0, 3.0]))
    B = sp.csc_matrix(np.array([[1.0], [0.0], [0.0]]))
    with pytest.raises(SingularSystemError, match="inertia"):
        saddle_solve(A, B, np.ones(4))


def test_ungauged_saddle_raises():
    # the columns of B sum to zero: constant pressures are in its kernel
    A, B, rhs = _random_saddle(4, m=6)
    B = sp.csc_matrix(np.hstack([B.toarray(), -B.toarray().sum(axis=1, keepdims=True)]))
    with pytest.raises(SingularSystemError):
        saddle_solve(A, B, np.concatenate([rhs, [1.0]]))


@pytest.mark.parametrize("gap, stop", [(1e-7, "stalled"),
                                       (3e-5, "still correcting")])
def test_schur_complement_near_the_shift_raises(gap, stop):
    # two nearly parallel columns of B: the smallest Schur eigenvalue is far
    # below the shift (no progress) or a few times above it (too slow)
    A = sp.csc_matrix(np.diag([2.0, 3.0, 4.0, 5.0]))
    B = sp.csc_matrix(np.array([[1.0, 1.0], [0.0, gap], [1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(SingularSystemError, match=stop):
        saddle_solve(A, B, np.array([1.0, 2.0, 3.0, 4.0, 1.0, 0.0]))


def _nearby_a(A, seed, size=1e-3):
    # A plus a symmetric perturbation of `size` relative to max|A|
    E = np.random.default_rng(seed).standard_normal(A.shape)
    return sp.csr_matrix(A.toarray() + size * abs(A).max() * (E + E.T) / 2)


@pytest.mark.parametrize("seed", range(3))
def test_saddle_solve_with_the_lu_of_a_nearby_system(seed, monkeypatch):
    # the unperturbed system's LU preconditions the GMRES corrections of a
    # system whose A moved by about 1e-3; nothing is factored again
    A, B, rhs = _random_saddle(seed, nf=40, m=12)
    near = _nearby_a(A, seed + 10)
    own = saddle_solve(near, B, rhs)
    lu = factorize_saddle(A, B)

    def factored(*args):
        raise AssertionError("a nearby solve factored its system")
    monkeypatch.setattr(solvers, "_factorize", factored)
    x = saddle_solve(near, B, rhs, lu, nearby=True)
    assert np.abs(x - own).max() <= 1e-12 * np.abs(own).max()
    # one GMRES solve meets its tolerance in the true residual
    K = sp.bmat([[near, -B], [-B.T, None]], format="csr")
    y = solvers._gmres(K, rhs, lu)
    assert np.linalg.norm(K @ y - rhs) <= solvers.GMRES_TOL * np.linalg.norm(rhs)


def test_a_far_off_lu_exhausts_gmres_and_raises():
    # the identity's LU leaves A's spread spectrum (1 to 1e6) on the kernel
    # of B^T to GMRES, which the iteration cap cuts off
    rng = np.random.default_rng(6)
    nf, m = 300, 40
    Q = np.linalg.qr(rng.standard_normal((nf, nf)))[0]
    A = sp.csr_matrix((Q * np.logspace(0, 6, nf)) @ Q.T)
    B = sp.csr_matrix(rng.standard_normal((nf, m)))
    lu = factorize_saddle(sp.identity(nf, format="csr"), B)
    with pytest.raises(NoConvergenceError,
                       match=f"after {solvers.GMRES_MAXIT} iterations"):
        saddle_solve(A, B, rng.standard_normal(nf + m), lu, nearby=True)


def test_a_nearby_a_indefinite_on_the_kernel_of_bt_raises():
    # A minus 1.5 times its largest eigenvalue on the kernel of B^T: the
    # system stays nonsingular and GMRES converges, but the velocity, which
    # lies in that kernel, has negative curvature; B's first column keeps
    # a positive diagonal entry
    A, B, rhs = _random_saddle(3, nf=20, m=5)
    B = sp.csc_matrix(np.hstack([np.eye(20)[:, :1], B.toarray()[:, 1:]]))
    Z = sla.null_space(B.toarray().T)
    lam = np.linalg.eigvalsh(Z.T @ A.toarray() @ Z).max()
    near = sp.csr_matrix(A.toarray() - 1.5 * lam * Z @ Z.T)
    assert near.diagonal().max() > 0
    rhs[20:] = 0.0
    with pytest.raises(NotPositiveDefiniteError, match="curvature"):
        saddle_solve(near, B, rhs, factorize_saddle(A, B), nearby=True)


def test_saddle_solves_are_deterministic():
    A, B, rhs = _random_saddle(7, nf=40, m=12)
    near = _nearby_a(A, 8)
    lu = factorize_saddle(A, B)
    x1 = saddle_solve(near, B, rhs, lu, nearby=True)
    x2 = saddle_solve(near.copy(), B.copy(), rhs.copy(),
                      factorize_saddle(A.copy(), B.copy()), nearby=True)
    assert np.array_equal(x1, x2)
    assert np.array_equal(saddle_solve(near, B, rhs, lu, nearby=True), x1)
    # a system's own LU, passed in, gives the bytes of the one made inside
    assert np.array_equal(saddle_solve(A, B, rhs, lu), saddle_solve(A, B, rhs))


def test_gen_eig_examples():
    A = sp.csc_matrix(np.diag([1.0, 2.0, 3.0]))
    M = sp.eye(3, format="csc")
    lam, x = gen_eig_smallest(A, M, factorize_spd(A))
    assert lam == pytest.approx(1.0, rel=1e-12)
    assert abs(x[0]) == pytest.approx(1.0, rel=1e-10)
    lam, x = gen_eig_smallest(A, A, factorize_spd(A))
    assert lam == pytest.approx(1.0, rel=1e-12)


def test_gen_eig_against_dense():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((30, 30))
    A = B @ B.T + 30 * np.eye(30)
    C = rng.standard_normal((30, 30))
    M = C @ C.T + 30 * np.eye(30)
    lam, x = gen_eig_smallest(sp.csc_matrix(A), sp.csc_matrix(M),
                              factorize_spd(sp.csc_matrix(A)))
    dense = sla.eigh(A, M, eigvals_only=True)[0]
    assert lam == pytest.approx(dense, rel=1e-9)
    assert x @ (M @ x) == pytest.approx(1.0, abs=1e-10)


def test_gen_eig_no_convergence(monkeypatch):
    A = sp.eye(5, format="csc") + sp.diags(np.linspace(0, 1e-4, 5)).tocsc()
    M = sp.eye(5, format="csc")
    monkeypatch.setattr(solvers, "EIG_RESIDUAL", 1e-30)
    monkeypatch.setattr(solvers, "EIG_MAXIT", 2)
    with pytest.raises(NoConvergenceError, match="in 2 iterations .T-norm"):
        gen_eig_smallest(A, M, factorize_spd(A))


def _random_spd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


@pytest.mark.parametrize("seed", range(5))
def test_gen_eig_with_the_lu_of_a_nearby_matrix(seed):
    # the factorization of A + E preconditions the solve of (A, M)
    rng = np.random.default_rng(seed)
    n = 40
    A, M = _random_spd(rng, n), _random_spd(rng, n)
    E = rng.standard_normal((n, n))
    near = A + 2.0 * (E + E.T)
    assert np.linalg.eigvalsh(near).min() > 0
    lu = solvers.factorize_spd(sp.csc_matrix(near))
    lam, x = gen_eig_smallest(sp.csr_matrix(A), sp.csr_matrix(M), lu)
    assert lam == pytest.approx(sla.eigh(A, M, eigvals_only=True)[0], rel=1e-9)
    assert x @ (M @ x) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(A @ x - lam * (M @ x)) <= 1e-6 * lam * np.linalg.norm(M @ x)


def test_gen_eig_of_a_plate_rule_with_the_exact_lu():
    from ratfem.mesh import refine_uniform, unit_square_mesh
    from ratfem.zienkiewicz import assemble_biharmonic
    mesh = refine_uniform(refine_uniform(unit_square_mesh()))
    lu = solvers.factorize_spd(assemble_biharmonic(mesh).A)
    rule = assemble_biharmonic(mesh, quadrature=2)
    lam, _ = gen_eig_smallest(rule.A, rule.M, lu)
    dense = sla.eigh(rule.A.toarray(), rule.M.toarray(), eigvals_only=True)[0]
    assert lam == pytest.approx(dense, rel=1e-9)


def test_m_orthonormal_drops_a_dependent_vector():
    rng = np.random.default_rng(5)
    A, M = _random_spd(rng, 6), _random_spd(rng, 6)
    v, u = rng.standard_normal(6), rng.standard_normal(6)
    basis = solvers._m_orthonormal(
        [], [(t, A @ t, M @ t) for t in (v, -2.0 * v, u)])
    assert len(basis) == 2
    V = np.array([b[0] for b in basis])
    assert np.allclose(V @ M @ V.T, np.eye(2), atol=1e-14)
    for b in basis:
        assert np.allclose(b[1], A @ b[0]) and np.allclose(b[2], M @ b[0])


@pytest.mark.parametrize("dense", [np.diag([1.0, -2.0, 3.0]),
                                   # positive semidefinite: singular
                                   np.diag([1.0, 0.0, 3.0])])
def test_a_foreign_lu_does_not_certify_a(dense):
    lu = solvers.factorize_spd(sp.eye(3, format="csc"))
    with pytest.raises(NotPositiveDefiniteError, match=(
            "Rayleigh quotient .* A is singular to working accuracy "
            "or indefinite")):
        gen_eig_smallest(sp.csr_matrix(dense), sp.eye(3, format="csr"), lu)


def test_a_search_space_without_m_norm_raises():
    # M is singular: T r = (-1/3, 2/3) has no M-norm left beside x = (1, 0)
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(NoConvergenceError, match="collapsed"):
        gen_eig_smallest(A, sp.diags([1.0, 0.0]).tocsr(), factorize_spd(A))


def test_determinism():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((40, 40))
    A = sp.csc_matrix(B @ B.T + 40 * np.eye(40))
    b = rng.standard_normal(40)
    x1 = factorize_spd(A).solve(b)
    x2 = factorize_spd(A.copy()).solve(b.copy())
    assert np.array_equal(x1, x2)

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from felib import curl_matrix, stokes_velocity_system, velocity_dofs
from ratfem import solvers
from ratfem.guzman_neilan import assemble_stokes, solve_stokes
from ratfem.mesh import refine_uniform, unit_square_mesh
from ratfem.solvers import (NoConvergenceError, NotPositiveDefiniteError,
                            SingularSystemError, factorize_spd,
                            gen_eig_smallest, pcg)


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


def _stokes(variant="reduced", quadrature="exact", seed=0):
    """A Stokes system on the 2-level square with a seeded load that is no
    gradient, so that neither u nor p vanishes."""
    c = np.random.default_rng(seed).standard_normal(4)
    return assemble_stokes(
        refine_uniform(refine_uniform(unit_square_mesh())),
        f=lambda x, y: (c[0] + c[1] * y * y, c[2] * x + c[3] * x * y),
        variant=variant, quadrature=quadrature)


def test_saddle_solve():
    assert np.allclose(factorize_spd(sp.eye(3, format="csc")).solve(np.ones(3)),
                       1.0)
    # the stream-function solve and the pressure recovery solve the gauged
    # saddle system K x = rhs, whose A_n and b_n fecore sums from the
    # element tensors, at the dofs of the solved velocity
    for variant in ("full", "reduced"):
        for quadrature in ("exact", 2):
            system = _stokes(variant, quadrature)
            w, p = solve_stokes(system)
            A, b = stokes_velocity_system(system)
            u, spread = velocity_dofs(system, w)
            assert spread <= 1e-13 * np.abs(u).max()
            B = system.B[:, 1:]
            K = sp.bmat([[A, -B], [-B.T, None]], format="csr")
            rhs = np.concatenate([b[system.phase.free], np.zeros(B.shape[1])])
            x = np.concatenate([u[system.phase.free], p[1:] - p[0]])
            assert np.linalg.norm(K @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_saddle_with_indefinite_a_block_raises():
    # A minus twice the smallest eigenvalue of the pencil (D^T A D, D^T D):
    # the stream-function system D^T A D is then indefinite, and its own LU
    # rejects it
    system = _stokes()
    D, _ = curl_matrix(system.tria, "reduced")
    A = stokes_velocity_system(system)[0].toarray()
    shift = 2 * sla.eigh(D.T @ A @ D, D.T @ D, eigvals_only=True)[0]
    system.S = sp.csr_matrix(D.T @ (A - shift * np.eye(A.shape[0])) @ D)
    with pytest.raises(NotPositiveDefiniteError, match="inertia"):
        solve_stokes(system)


def test_ungauged_saddle_raises():
    # B's columns sum to zero (a constant pressure has no divergence), so
    # B^T B is singular: its last pivot is roundoff, negative on this mesh
    # and so rejected, but its sign is luck (it rounds positive on the
    # 384-element L-shape); pinning pressure dof 0 leaves B_1^T B_1 SPD
    system = _stokes()
    assert np.abs(system.B @ np.ones(system.B.shape[1])).max() <= 1e-15
    with pytest.raises(NotPositiveDefiniteError, match="inertia"):
        factorize_spd(system.B.T @ system.B)
    factorize_spd(system.B[:, 1:].T @ system.B[:, 1:])


@pytest.mark.parametrize("seed", range(3))
def test_saddle_solve_with_the_lu_of_a_nearby_system(seed, monkeypatch):
    # the exact system's LU preconditions conjugate gradients on a rule-3
    # system of the same mesh and load; nothing is factored again
    system = _stokes(quadrature=3, seed=seed)
    own = solve_stokes(system)
    lu = factorize_spd(_stokes(seed=seed).S)

    def factored(*args):
        raise AssertionError("a nearby solve factored its system")
    monkeypatch.setattr(solvers, "factorize_spd", factored)
    for got, want in zip(solve_stokes(system, lu), own):
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_a_nearby_a_indefinite_on_the_kernel_of_bt_raises():
    # A minus the median eigenvalue of the pencil (D^T A D, D^T D): on the
    # kernel of B^T, which D spans, half of A's spectrum turns negative, and
    # conjugate gradients on the exact LU meet a direction of negative
    # curvature
    system = _stokes(quadrature=2)
    lu = factorize_spd(system.S)
    D, _ = curl_matrix(system.tria, "reduced")
    A = stokes_velocity_system(system)[0].toarray()
    pencil = sla.eigh(D.T @ A @ D, D.T @ D, eigvals_only=True)
    system.S = sp.csr_matrix(D.T @ (A - np.median(pencil) * np.eye(A.shape[0])) @ D)
    with pytest.raises(NotPositiveDefiniteError, match="curvature"):
        solve_stokes(system, lu)


def test_saddle_solves_are_deterministic():
    lu = factorize_spd(_stokes().S)
    first = solve_stokes(_stokes(quadrature=2), lu)
    again = solve_stokes(_stokes(quadrature=2), factorize_spd(_stokes().S))
    for x, y in zip(first, again):
        assert np.array_equal(x, y)
    # a system's own LU, passed in, gives the bytes of the one made inside
    system = _stokes(quadrature=2)
    for x, y in zip(solve_stokes(system, factorize_spd(system.S)),
                    solve_stokes(system)):
        assert np.array_equal(x, y)


def _random_spd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def _nearby(A, seed, size=1e-3):
    # A plus a symmetric perturbation of `size` relative to max|A|
    E = np.random.default_rng(seed).standard_normal(A.shape)
    return A + size * np.abs(A).max() * (E + E.T) / 2


@pytest.mark.parametrize("seed", range(3))
def test_pcg_with_the_lu_of_a_nearby_matrix(seed):
    rng = np.random.default_rng(seed)
    A = _random_spd(rng, 40)
    near, b = sp.csr_matrix(_nearby(A, seed + 10)), rng.standard_normal(40)
    x = pcg(near, b, factorize_spd(sp.csr_matrix(A)))
    assert np.linalg.norm(near @ x - b) <= 2 * solvers.PCG_TOL * np.linalg.norm(b)
    want = np.linalg.solve(near.toarray(), b)
    assert np.abs(x - want).max() <= 1e-9 * np.abs(want).max()


def test_pcg_along_an_indefinite_direction_raises():
    # A minus its median eigenvalue on the LU of A: half of the spectrum is
    # negative, and a search direction meets it
    rng = np.random.default_rng(4)
    A = _random_spd(rng, 30)
    shifted = A - np.median(np.linalg.eigvalsh(A)) * np.eye(30)
    with pytest.raises(NotPositiveDefiniteError, match="curvature"):
        pcg(sp.csr_matrix(shifted), rng.standard_normal(30),
            factorize_spd(sp.csr_matrix(A)))


def test_a_far_off_lu_exhausts_pcg_and_raises():
    # the identity's LU leaves A's spread spectrum (1 to 1e6) to conjugate
    # gradients, which the iteration cap cuts off
    rng = np.random.default_rng(6)
    n = 300
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = sp.csr_matrix((Q * np.logspace(0, 6, n)) @ Q.T)
    with pytest.raises(NoConvergenceError,
                       match=f"after {solvers.PCG_MAXIT} iterations"):
        pcg(A, rng.standard_normal(n), factorize_spd(sp.identity(n, format="csr")))


def test_pcg_reruns_are_bit_identical():
    rng = np.random.default_rng(7)
    A = _random_spd(rng, 40)
    near, b = sp.csr_matrix(_nearby(A, 8)), rng.standard_normal(40)
    x = pcg(near, b, factorize_spd(sp.csr_matrix(A)))
    assert np.array_equal(x, pcg(near.copy(), b.copy(),
                                 factorize_spd(sp.csr_matrix(A.copy()))))
    # a zero load needs no solve
    assert not pcg(near, np.zeros(40), None).any()


def test_gen_eig_examples():
    A = sp.csc_matrix(np.diag([1.0, 2.0, 3.0]))
    M = sp.eye(3, format="csc")
    lam, x = gen_eig_smallest(A, M, factorize_spd(A))
    assert lam == pytest.approx(1.0, rel=1e-12)
    assert abs(x[0]) == pytest.approx(1.0, rel=1e-10)
    lam, x = gen_eig_smallest(A, A, factorize_spd(A))
    assert lam == pytest.approx(1.0, rel=1e-12)


def test_gen_eig_start_vector_of_m_norm_zero():
    A = sp.csc_matrix(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(NoConvergenceError, match="start vector of M-norm zero"):
        gen_eig_smallest(A, sp.eye(3, format="csc"), factorize_spd(A), np.zeros(3))


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

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from ratfem.solvers import (NoConvergenceError, NotPositiveDefiniteError,
                            SingularSystemError, gen_eig_smallest,
                            sym_indef_solve)


def test_singular_system_raises():
    A = sp.csc_matrix(np.zeros((3, 3)))
    with pytest.raises(SingularSystemError):
        sym_indef_solve(A, np.ones(3))


@pytest.mark.parametrize("dense", [np.diag([1.0, -2.0, 3.0]),
                                   # SuperLU swaps the rows of this one and
                                   # returns a positive U diagonal
                                   np.array([[0.0, 1.0], [1.0, 0.0]])])
def test_indefinite_is_not_positive_definite(dense):
    A = sp.csc_matrix(dense)
    with pytest.raises(NotPositiveDefiniteError):
        gen_eig_smallest(A, sp.eye(A.shape[0], format="csc"))


def test_sym_indef_solve():
    K = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(sym_indef_solve(K, np.array([1.0, 2.0])), [2.0, 1.0])
    assert np.allclose(sym_indef_solve(sp.eye(3, format="csc"), np.ones(3)), 1.0)
    # random gauged saddle system
    rng = np.random.default_rng(1)
    B = rng.standard_normal((20, 20))
    A = B @ B.T + 20 * np.eye(20)
    C = rng.standard_normal((20, 7))
    K = sp.bmat([[sp.csc_matrix(A), C], [C.T, None]], format="csc")
    rhs = rng.standard_normal(27)
    x = sym_indef_solve(K, rhs)
    assert np.linalg.norm(K @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_gen_eig_examples():
    A = sp.csc_matrix(np.diag([1.0, 2.0, 3.0]))
    M = sp.eye(3, format="csc")
    lam, x = gen_eig_smallest(A, M)
    assert lam == pytest.approx(1.0, rel=1e-12)
    assert abs(x[0]) == pytest.approx(1.0, rel=1e-10)
    lam, x = gen_eig_smallest(A, A)
    assert lam == pytest.approx(1.0, rel=1e-12)


def test_gen_eig_against_dense():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((30, 30))
    A = B @ B.T + 30 * np.eye(30)
    C = rng.standard_normal((30, 30))
    M = C @ C.T + 30 * np.eye(30)
    lam, x = gen_eig_smallest(sp.csc_matrix(A), sp.csc_matrix(M))
    dense = sla.eigh(A, M, eigvals_only=True)[0]
    assert lam == pytest.approx(dense, rel=1e-9)
    assert x @ (M @ x) == pytest.approx(1.0, abs=1e-10)


def test_gen_eig_no_convergence():
    A = sp.eye(5, format="csc") + sp.diags(np.linspace(0, 1e-4, 5)).tocsc()
    M = sp.eye(5, format="csc")
    with pytest.raises(NoConvergenceError):
        gen_eig_smallest(A, M, tol=1e-30, maxit=2)


def test_determinism():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((40, 40))
    A = sp.csc_matrix(B @ B.T + 40 * np.eye(40))
    b = rng.standard_normal(40)
    x1 = sym_indef_solve(A, b)
    x2 = sym_indef_solve(A.copy(), b.copy())
    assert np.array_equal(x1, x2)

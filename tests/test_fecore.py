import numpy as np
import pytest

from oracle import duffy_mean
from ratfem.fecore import (assemble_matrix, assemble_vector, lagrange_basis,
                           lagrange_nodes, moment_tensor)
from ratfem.quadrature import integral_mean_combo
from ratfem.ratfun import RatCombo


def test_moment_tensor_basic():
    lam0 = RatCombo.lam(0)
    # second lam0-derivative of lam0^2 is the constant 2; mean of 2*2 is 4
    d2 = (lam0 * lam0).diff(0).diff(0)
    table = moment_tensor([d2], [d2])
    assert table.shape == (1, 1)
    assert table[0, 0] == 4.0


def test_moment_tensor_symmetry():
    from ratfem.zienkiewicz import get_tables
    tab = get_tables()
    rng = np.random.default_rng(0)
    for _ in range(30):
        r, s = rng.integers(0, 12, 2)
        i, j, k, l = rng.integers(0, 3, 4)
        assert tab.Ahat[r, s, i, j, k, l] == tab.Ahat[s, r, k, l, i, j]


def test_bubble_hessian_moment_against_oracle():
    from ratfem.guzman_neilan import get_tables
    tab = get_tables()
    rho4 = tab.rho[3]   # first rational bubble potential
    entry = tab.Rhat[3, 3, 0, 0, 0, 0]   # mean of (d00 rho4)^2
    h00 = rho4.hessian()[0][0]
    ref = sum(float(c) * duffy_mean(a, b) for (a, b), c in (h00 * h00).terms.items())
    assert entry == pytest.approx(ref, rel=1e-9)


def test_lagrange_bases():
    for degree in (1, 2):
        nodes = lagrange_nodes(degree)
        basis = lagrange_basis(degree)
        assert len(nodes) == len(basis)
        for i, phi in enumerate(basis):
            for j, node in enumerate(nodes):
                assert phi.evaluate(node) == (1 if i == j else 0)
        total = basis[0]
        for phi in basis[1:]:
            total = total + phi
        from fractions import Fraction as F
        for pt in [(F(1, 3), F(1, 3), F(1, 3)), (F(1, 2), F(1, 4), F(1, 4)),
                   (F(7, 10), F(1, 10), F(1, 5))]:
            assert total.evaluate(pt) == 1


def test_rhs_moments():
    ones = moment_tensor(lagrange_basis(1), [RatCombo.one()])
    assert np.allclose(ones, 1.0 / 3.0)
    lam0 = moment_tensor(lagrange_basis(1), [RatCombo.lam(0)])
    assert lam0[0, 0] == pytest.approx(1.0 / 6.0)
    # partition of unity: row sums over the Lagrange index give the mean of b
    from ratfem.zienkiewicz import get_tables
    bhat = get_tables().bhat
    basis = get_tables().basis
    for r, b in enumerate(basis):
        mean = integral_mean_combo(b).to_float()
        assert bhat[:, r].sum() == pytest.approx(mean, rel=1e-12, abs=1e-15)


def test_assemble_matrix():
    l2g = np.array([[0, 1, 2]])
    local = np.arange(9.0).reshape(1, 3, 3)
    A = assemble_matrix(l2g, local, 3)
    assert np.allclose(A.toarray(), local[0])
    # two elements sharing dof 1
    l2g = np.array([[0, 1], [1, 2]])
    local = np.ones((2, 2, 2))
    A = assemble_matrix(l2g, local, 3).toarray()
    assert A[1, 1] == 2.0 and A[0, 0] == 1.0 and A[0, 2] == 0.0
    with pytest.raises(IndexError):
        assemble_matrix(np.array([[0, 5]]), np.ones((1, 2, 2)), 3)
    vec = assemble_vector(np.array([[0, 1], [1, 2]]), np.ones((2, 2)), 3)
    assert np.allclose(vec, [1, 2, 1])


def test_global_matrix_symmetry():
    from ratfem.mesh import refine_uniform, unit_square_mesh
    from ratfem.zienkiewicz import assemble_biharmonic
    mesh = refine_uniform(unit_square_mesh())
    system = assemble_biharmonic(mesh)
    gap = abs(system.A - system.A.T).max()
    assert gap <= 1e-12 * abs(system.A).max()


def test_rhs_pipeline_exactness():
    # for a P2 load the nodal-interpolation route reproduces the exact moments
    from ratfem.mesh import Triangulation
    from ratfem.zienkiewicz import assemble_biharmonic, get_tables
    from ratfem.quadrature import integral_mean_combo
    ref = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    f = lambda x, y: x * x + 2 * y   # lam1^2 + 2 lam2 in barycentric
    system = assemble_biharmonic(ref, f=f)
    lam1, lam2 = RatCombo.lam(1), RatCombo.lam(2)
    f_combo = lam1 * lam1 + 2 * lam2
    tab = get_tables()
    area = 0.5
    exact_moments = np.array([
        integral_mean_combo(f_combo * b).to_float() for b in tab.basis])
    expected = np.zeros(system.ndof)
    expected[system.l2g[0]] = area * system.coeffs[0].T @ exact_moments
    scale = np.abs(expected).max()
    assert np.abs(system.b - expected).max() <= 1e-12 * scale


def test_table_recompute_is_bit_reproducible():
    from ratfem import guzman_neilan as gn
    # the uncached builder: every call recomputes
    first = gn._compute_tables.__wrapped__("exact")
    second = gn._compute_tables.__wrapped__("exact")
    assert np.array_equal(first.Rhat, second.Rhat)
    assert np.array_equal(first.Mhat, second.Mhat)
    assert np.array_equal(first.bhat2, second.bhat2)

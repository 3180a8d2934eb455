import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from felib import evaluate
from oracle import duffy_mean
from ratfem.fecore import (P2_NODES, VERTS, assemble_matrix, assemble_vector,
                           lagrange_basis, moment_tensor, scatter_plan)
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
    for degree, nodes in ((1, VERTS), (2, P2_NODES)):
        basis = lagrange_basis(degree)
        assert len(nodes) == len(basis)
        for i, phi in enumerate(basis):
            for j, node in enumerate(nodes):
                assert evaluate(phi, node) == (1 if i == j else 0)
        total = basis[0]
        for phi in basis[1:]:
            total = total + phi
        from fractions import Fraction as F
        for pt in [(F(1, 3), F(1, 3), F(1, 3)), (F(1, 2), F(1, 4), F(1, 4)),
                   (F(7, 10), F(1, 10), F(1, 5))]:
            assert evaluate(total, pt) == 1


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
    def assemble(l2g, local, ndof):
        keep = np.ones(ndof, bool)
        return assemble_matrix(scatter_plan(l2g, l2g, (ndof, ndof), keep, keep), local)
    l2g = np.array([[0, 1, 2]])
    local = np.arange(9.0).reshape(1, 3, 3)
    A = assemble(l2g, local, 3)
    assert np.allclose(A.toarray(), local[0])
    # two elements sharing dof 1
    l2g = np.array([[0, 1], [1, 2]])
    local = np.ones((2, 2, 2))
    A = assemble(l2g, local, 3).toarray()
    assert A[1, 1] == 2.0 and A[0, 0] == 1.0 and A[0, 2] == 0.0
    with pytest.raises(IndexError):
        assemble(np.array([[0, 5]]), np.ones((1, 2, 2)), 3)
    vec = assemble_vector(np.array([[0, 1], [1, 2]]), np.ones((2, 2)), 3)
    assert np.allclose(vec, [1, 2, 1])


def csr_bytes(A):
    return tuple(np.ascontiguousarray(a).tobytes()
                 for a in (A.indptr, A.indices, A.data))


#: Signed zeros, and magnitudes whose sums round differently in another order.
SUMMANDS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 3.0, 1e16, -1e16])


def keep_mask(data, n, label):
    return data.draw(st.one_of(
        st.just(np.ones(n, bool)), st.just(np.zeros(n, bool)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda mask: np.array(mask, dtype=bool))), label=label)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scatter_plan_reproduces_scipy_bytes(data):
    ndof = data.draw(st.integers(1, 7), label="ndof")
    p, L = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    # a few dofs over many slots: repeated dofs in and across elements, and
    # dofs no element uses
    l2g = np.array(data.draw(st.lists(st.integers(0, ndof - 1), min_size=p * L,
                                      max_size=p * L))).reshape(p, L)
    # square blocks on (l2g, l2g) like A and M, or blocks (p, L, 1) on
    # (l2g, element index) like the Stokes B
    if data.draw(st.booleans(), label="rectangular"):
        cols, shape = np.arange(p)[:, None], (ndof, p)
    else:
        cols, shape = l2g, (ndof, ndof)
    K = cols.shape[1]
    local = np.array(data.draw(st.lists(SUMMANDS, min_size=p * L * K,
                                        max_size=p * L * K))).reshape(p, L, K)
    keep_rows = keep_mask(data, shape[0], "keep_rows")
    keep_cols = (keep_rows if cols is l2g and data.draw(st.booleans())
                 else keep_mask(data, shape[1], "keep_cols"))
    plan = scatter_plan(l2g, cols, shape, keep_rows, keep_cols)
    A = assemble_matrix(plan, local)
    ref = sp.coo_matrix((local.ravel(), (np.repeat(l2g, K, axis=1).ravel(),
                                         np.tile(cols, (1, L)).ravel())),
                        shape=shape).tocsr()
    assert csr_bytes(A) == csr_bytes(ref[keep_rows][:, keep_cols])
    pattern = plan[2]
    for array in (*plan[:2], pattern.data, pattern.indices, pattern.indptr):
        assert array.dtype == np.int32 and not array.flags.writeable
    # one row index, then one column index, out of range
    for axis in (0, 1):
        index = [l2g, cols]
        index[axis] = index[axis].copy()
        index[axis].flat[data.draw(st.integers(0, index[axis].size - 1))] = \
            data.draw(st.sampled_from([-1, shape[axis]]))
        with pytest.raises(IndexError):
            scatter_plan(*index, shape, keep_rows, keep_cols)


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

import functools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from felib import evaluate, random_shape_regular_triangle
from oracle import duffy_mean
from ratfem import guzman_neilan, zienkiewicz
from ratfem.fecore import (P2_NODES, VERTS, assemble_matrix, assemble_vector,
                           lagrange_basis, moment_tensor, scatter_plan)
from ratfem.mesh import Triangulation, refine_uniform, unit_square_mesh
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
    from ratfem.guzman_neilan import get_tables, stream_potentials
    tab = get_tables()
    rho4 = stream_potentials()[3]   # first rational bubble potential
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
    from ratfem.zienkiewicz import get_tables, zienkiewicz_basis
    bhat = get_tables().bhat
    basis = zienkiewicz_basis()
    for r, b in enumerate(basis):
        mean = integral_mean_combo(b).to_float()
        assert bhat[:, r].sum() == pytest.approx(mean, rel=1e-12, abs=1e-15)


def test_assemble_matrix():
    def assemble(l2g, local, ndof):
        keep = np.ones(ndof, bool)
        I = np.broadcast_to(np.eye(l2g.shape[1]), local.shape)
        return assemble_matrix(scatter_plan(l2g, l2g, (ndof, ndof), keep, keep),
                               np.arange(len(l2g)), I, local, I)
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
    # each element adds left^T local right, left transposed: blocks (2, 3, 2)
    # from maps (2, 2, 3) and (2, 4, 2) and local tensors (2, 2, 4)
    rng = np.random.default_rng(0)
    left, local, right = (rng.standard_normal(shape)
                          for shape in ((2, 2, 3), (2, 2, 4), (2, 4, 2)))
    rows, cols = np.array([[0, 1, 2], [2, 3, 4]]), np.array([[0, 1], [1, 2]])
    plan = scatter_plan(rows, cols, (5, 3), np.ones(5, bool), np.ones(3, bool))
    expected = np.zeros((5, 3))
    for e in range(2):
        expected[np.ix_(rows[e], cols[e])] += left[e].T @ local[e] @ right[e]
    assert np.allclose(assemble_matrix(plan, np.arange(2), left, local, right).toarray(),
                       expected, rtol=1e-14, atol=1e-14)
    # 1e16, eight ones and -1e16 in each of two interleaved columns of one
    # row: in element order every 1e16 + 1 rounds back to 1e16 (a column sort
    # of the row's 20 summands that is not stable gives other sums)
    local = np.ones((10, 1, 1))
    local[0], local[-1] = 1e16, -1e16
    plan = scatter_plan(np.zeros((10, 1), int), np.tile([1, 0], (10, 1)), (1, 2),
                        np.ones(1, bool), np.ones(2, bool))
    A = assemble_matrix(plan, np.arange(10), np.ones((10, 1, 1)), local,
                        np.ones((10, 1, 2)))
    assert A.toarray().tolist() == [[0.0, 0.0]]
    # identity coefficients: each element adds area * b_T into its dofs
    l2g = np.array([[0, 1], [1, 2]])
    vec = assemble_vector(l2g, np.arange(2), np.array([1.0, 2.0]),
                          np.broadcast_to(np.eye(2), (2, 2, 2)), np.ones((2, 2)), 3)
    assert np.allclose(vec, [1, 3, 2])
    # two elements of one class: its one area and C serve both
    vec = assemble_vector(l2g, np.zeros(2, int), np.array([2.0]), np.eye(2)[None],
                          np.array([[1.0, 2.0], [3.0, 4.0]]), 3)
    assert vec.tolist() == [2.0, 10.0, 8.0]


#: Signed zeros, and magnitudes whose sums round differently in another order.
SUMMANDS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 3.0, 1e16, -1e16])


def keep_mask(data, n, label):
    return data.draw(st.one_of(
        st.just(np.ones(n, bool)), st.just(np.zeros(n, bool)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda mask: np.array(mask, dtype=bool))), label=label)


def selection_map(data, p, r, n, label):
    """A map (p, r, n) whose every column holds at most one nonzero, a power
    of two up to sign: each entry of left^T local right is then one exact
    product, whatever the order of the contraction (up to the sign of a
    zero, which no sum from 0.0 keeps)."""
    rows = data.draw(st.lists(st.integers(0, r - 1), min_size=p * n,
                              max_size=p * n), label=label)
    weights = data.draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5]),
                                 min_size=p * n, max_size=p * n), label=label)
    out = np.zeros((p, n, r))
    out.reshape(-1, r)[np.arange(p * n), rows] = weights
    return out.transpose(0, 2, 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scatter_plan_sums_in_element_order(data):
    ndof = data.draw(st.integers(1, 7), label="ndof")
    p, L = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    # a few dofs over many slots: repeated dofs in and across elements, and
    # dofs no element uses
    l2g = np.array(data.draw(st.lists(st.integers(0, ndof - 1), min_size=p * L,
                                      max_size=p * L))).reshape(p, L)
    # c classes, element e of class inv[e], classes that no element has
    # included: local tensors (c, r, s) mapped to blocks (c, L, L) on (l2g,
    # l2g) like A and M, or as the Stokes B, (c, r, 1) through ones (c, 1, 1)
    # to blocks (c, L, 1) on (l2g, element index)
    c = data.draw(st.integers(1, 5), label="c")
    inv = np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=p,
                                      max_size=p), label="inv"))
    r = data.draw(st.integers(1, 3), label="r")
    if data.draw(st.booleans(), label="rectangular"):
        cols, shape, s = np.arange(p)[:, None], (ndof, p), 1
        right = np.ones((c, 1, 1))
    else:
        cols, shape, s = l2g, (ndof, ndof), data.draw(st.integers(1, 3), label="s")
        right = selection_map(data, c, s, L, "right")
    K = cols.shape[1]
    left = selection_map(data, c, r, L, "left")
    local = np.array(data.draw(st.lists(SUMMANDS, min_size=c * r * s,
                                        max_size=c * r * s))).reshape(c, r, s)
    block = np.stack([left[k].T @ local[k] @ right[k] for k in inv])
    keep_rows = keep_mask(data, shape[0], "keep_rows")
    keep_cols = (keep_rows if cols is l2g and data.draw(st.booleans())
                 else keep_mask(data, shape[1], "keep_cols"))
    plan = scatter_plan(l2g, cols, shape, keep_rows, keep_cols)
    A = assemble_matrix(plan, inv, left, local, right)
    # the pattern is SciPy's
    ref = sp.coo_matrix((block.ravel(), (np.repeat(l2g, K, axis=1).ravel(),
                                         np.tile(cols, (1, L)).ravel())),
                        shape=shape).tocsr()[keep_rows][:, keep_cols]
    for array, expected in ((A.indptr, ref.indptr), (A.indices, ref.indices)):
        assert array.dtype == expected.dtype
        assert array.tobytes() == expected.tobytes()
    # each kept entry sums its summands from 0.0, in element order
    sums = {}
    for e, i, j in np.ndindex(block.shape):
        row, col = l2g[e, i], cols[e, j]
        if keep_rows[row] and keep_cols[col]:
            sums[row, col] = sums.get((row, col), 0.0) + float(block[e, i, j])
    kept_rows, kept_cols = np.flatnonzero(keep_rows), np.flatnonzero(keep_cols)
    expected = [sums[kept_rows[i], kept_cols[A.indices[k]]]
                for i in range(A.shape[0]) for k in range(A.indptr[i], A.indptr[i + 1])]
    assert A.data.tobytes() == np.array(expected, dtype=float).tobytes()
    slot, (indptr, indices, _) = plan
    for array in (slot, indptr, indices):
        assert array.dtype == np.int32 and not array.flags.writeable
    # one row index, then one column index, out of range
    for axis in (0, 1):
        index = [l2g, cols]
        index[axis] = index[axis].copy()
        index[axis].flat[data.draw(st.integers(0, index[axis].size - 1))] = \
            data.draw(st.sampled_from([-1, shape[axis]]))
        with pytest.raises(IndexError):
            scatter_plan(*index, shape, keep_rows, keep_cols)


@functools.cache
def node_gradients():
    """Exact lam-gradients (6, 12, 3) of the Zienkiewicz basis at the P2
    nodes, evaluated from the rational functions, then floated."""
    return np.array([[[float(evaluate(b.diff(m), node)) for m in range(3)]
                      for b in zienkiewicz.zienkiewicz_basis()] for node in P2_NODES])


def reduced_element(name, tri):
    """(V, C, F): one element's Vandermonde, reduced shape coefficients and
    the physical vector field (6, 12, 2) of each basis function at the P2
    nodes whose edge dofs the reduced element interpolates: the gradient for
    the plate, the velocity for Stokes."""
    _, _, G = tri.geometry_arrays()
    normals, tangents = tri.normal4s[tri.s4e], tri.tangent4s[tri.s4e]
    F = node_gradients() @ G[0]
    if name == "zienkiewicz":
        V = zienkiewicz.local_vandermonde_batch(G, normals)
        return V[0], zienkiewicz.shape_coefficients(V, "reduced", normals)[0], F
    V = guzman_neilan.local_vandermonde(G, normals, tangents)
    lam = np.array(P2_NODES, dtype=float)
    P1 = np.zeros((6, 6, 2))
    P1[:, 0:3, 0] = P1[:, 3:6, 1] = lam
    curls = F[:, 6:] @ guzman_neilan.ROT.T
    return (V[0], guzman_neilan.shape_coefficients(V, "reduced", tangents)[0],
            np.concatenate([P1, curls], axis=1))


@pytest.mark.parametrize("name", ["zienkiewicz", "guzman_neilan"])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_reduced_nodal_basis_is_the_full_one_with_interpolated_edge_dofs(
        name, seed):
    tri = random_shape_regular_triangle(np.random.default_rng(seed))
    V, C, F = reduced_element(name, tri)
    # nodal on the nine kept dofs, and it reproduces the polynomial part: the
    # quadratics of the plate, the P1 fields of Stokes, basis functions 0..5
    assert np.abs(V[:9] @ C - np.eye(9)).max() <= 1e-12
    for r in range(6):
        assert np.abs(C @ V[:9, r] - np.eye(12)[r]).max() <= 1e-12
    # along each edge's frame (the plate's normal, the Stokes tangent) every
    # shape function's midpoint value is the average of its endpoint values
    frames = (tri.normal4s if name == "zienkiewicz" else tri.tangent4s)[tri.s4e[0]]
    for j in range(3):
        along = np.einsum("nrc,c,rk->nk", F, frames[j], C)   # (node, shape)
        average = 0.5 * (along[(j + 1) % 3] + along[(j + 2) % 3])
        assert np.abs(along[3 + j] - average).max() <= 1e-11


@pytest.mark.parametrize("variant", ["full", "reduced"])
def test_both_elements_assemble_on_a_mesh_scaled_by_1e15(variant):
    # the bubbles' edge dofs are of order 1e-15 there, yet the Vandermondes
    # are regular; a value dof's shape function keeps its size and a
    # derivative dof's grows by s, so each stiffness entry is the unit
    # mesh's times d_i d_j / s^2, d = 1 for a value dof and s otherwise
    mesh, s = refine_uniform(unit_square_mesh()), 1e15
    big = Triangulation(s * mesh.c4n, mesh.n4e)
    phase = zienkiewicz.mesh_phase(mesh, variant)
    d = np.where(np.arange(phase.ndof) < mesh.num_vertices, 1.0, s)[phase.free]
    for assemble in (lambda m: zienkiewicz.assemble_biharmonic(m, variant).A,
                     lambda m: guzman_neilan.assemble_stokes(m, variant=variant).S):
        A, A_big = assemble(mesh).toarray(), assemble(big).toarray()
        assert np.abs(A_big * s ** 2 / np.outer(d, d) - A).max() <= 1e-12 * np.abs(A).max()


def test_global_matrix_symmetry():
    from ratfem.mesh import refine_uniform, unit_square_mesh
    from ratfem.zienkiewicz import assemble_biharmonic
    mesh = refine_uniform(unit_square_mesh())
    system = assemble_biharmonic(mesh)
    gap = abs(system.A - system.A.T).max()
    assert gap <= 1e-12 * abs(system.A).max()


def test_stokes_load_pipeline_exactness():
    # for a P2 vector load the exact tables reproduce the exact moments
    # against the six P1 fields and the six curl fields
    from ratfem.guzman_neilan import assemble_stokes, stream_potentials
    from ratfem.mesh import Triangulation
    ref = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    f = lambda x, y: (x * x + 2 * y, x * y - 3.0)   # x = lam1, y = lam2
    system = assemble_stokes(ref, f=f)
    lam = [RatCombo.lam(j) for j in range(3)]
    f_x = lam[1] * lam[1] + 2 * lam[2]
    f_y = lam[1] * lam[2] - 3 * RatCombo.one()
    # f . curl rho = f_x d_y rho - f_y d_x rho, with d_x = d_1 - d_0 and
    # d_y = d_2 - d_0 on this triangle
    fields = [f_x * l for l in lam] + [f_y * l for l in lam] + [
        f_x * (rho.diff(2) - rho.diff(0)) - f_y * (rho.diff(1) - rho.diff(0))
        for rho in stream_potentials()]
    exact_moments = np.array(
        [integral_mean_combo(g).to_float() for g in fields])
    # the element's load means, which fecore scatters as |T| C^T b_T
    scale = np.abs(exact_moments).max()
    assert np.abs(system.b_T[0] - exact_moments).max() <= 1e-12 * scale


def test_table_recompute_is_bit_reproducible():
    from ratfem import guzman_neilan as gn
    # the uncached builder: every call recomputes
    first = gn._compute_tables.__wrapped__("exact")
    second = gn._compute_tables.__wrapped__("exact")
    assert np.array_equal(first.Rhat, second.Rhat)
    assert np.array_equal(first.Mhat, second.Mhat)
    assert np.array_equal(first.bhat2, second.bhat2)

import numpy as np
import pytest

from felib import (bary_coords, element_eval, element_geometry, eval_float,
                   hermite_psi, nodal_interpolant,
                   random_shape_regular_triangle)
from ratfem.mesh import Triangulation, refine_uniform, unit_square_mesh
from ratfem.ratfun import RatCombo, bubble
from ratfem.solvers import factorize_spd
from ratfem.zienkiewicz import (assemble_biharmonic, get_tables,
                                local_stiffness, local_vandermonde_batch,
                                shape_coefficients, solve_biharmonic_eigen,
                                zienkiewicz_basis)

REF = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])


def element_setup(tri):
    _, area, G = tri.geometry_arrays()
    GG = np.einsum("eic,ejc->eij", G, G)
    normals = tri.normal4s[tri.s4e]
    V = local_vandermonde_batch(G, normals)
    return area, G, GG, normals, V


def interpolation_dofs(tri, p, grad_p):
    v = tri.c4n[tri.n4e[0]]
    dof = np.empty(12)
    for i in range(3):
        dof[i] = p(*v[i])
        dof[3 + i], dof[6 + i] = grad_p(*v[i])
    for j in range(3):
        mid = (v[(j + 1) % 3] + v[(j + 2) % 3]) / 2
        dof[9 + j] = np.asarray(grad_p(*mid)) @ tri.normal4s[tri.s4e[0, j]]
    return dof


def test_basis_layout():
    basis = zienkiewicz_basis()
    assert len(basis) == 12
    assert basis[0] == RatCombo.lam(2) * RatCombo.lam(2)
    assert basis[5] == RatCombo.lam(0) * RatCombo.lam(0)
    for j in range(3):
        assert basis[9 + j] == bubble(j)
        # single-term rational with the documented multi-indices
        ((alpha, beta),) = basis[9 + j].terms.keys()
        expect_a = tuple(2 - (k == j) for k in range(3))
        expect_b = tuple(1 - (k == j) for k in range(3))
        assert alpha == expect_a and beta == expect_b


def test_ahat_example_and_mass():
    tab = get_tables()
    assert tab.Ahat[5, 5, 0, 0, 0, 0] == 4.0
    # mass table entry: mean of lam0^4 = 2*4!/6! = 1/15
    assert tab.Mhat[5, 5] == pytest.approx(1.0 / 15.0, rel=1e-14)
    assert np.allclose(tab.Mhat, tab.Mhat.T)


def test_local_stiffness_closed_form():
    rng = np.random.default_rng(0)
    tri = random_shape_regular_triangle(rng)
    area, G, GG, normals, V = element_setup(tri)
    A_T = local_stiffness(area, GG, get_tables().Ahat)[0]
    # Laplacian of lam0^2 is the constant 2|grad lam0|^2
    lap = 2.0 * (G[0, 0] @ G[0, 0])
    assert A_T[5, 5] == pytest.approx(area[0] * lap * lap, rel=1e-12)
    # affine functions are in the kernel
    C = shape_coefficients(V, "full")
    dof = interpolation_dofs(tri, lambda x, y: x, lambda x, y: (1.0, 0.0))
    w = C[0] @ dof
    assert np.abs(A_T @ w).max() <= 1e-10 * np.abs(A_T).max()
    eigs = np.linalg.eigvalsh(A_T)
    assert eigs.min() >= -1e-10 * eigs.max()


def test_vandermonde_structure():
    _, _, _, _, V = element_setup(REF)
    V = V[0]
    assert V[0, 5] == 1.0 and V[1, 5] == 0.0 and V[2, 5] == 0.0
    # bubble block: values and gradients invisible to psi_1..psi_9
    assert np.allclose(V[0:9, 9:12], 0.0)
    block = V[9:12, 9:12]
    assert np.allclose(block, np.diag(np.diag(block)))
    assert np.all(np.abs(np.diag(block)) > 0.1)


def test_unisolvence_and_p2_reproduction():
    rng = np.random.default_rng(1)
    basis = zienkiewicz_basis()
    for _ in range(50):
        tri = random_shape_regular_triangle(rng)
        _, _, _, _, V = element_setup(tri)
        C = shape_coefficients(V, "full")[0]
        p = lambda x, y: 1.3 * x * x - 0.7 * x * y + 0.4 * y * y + x - 2 * y + 0.3
        grad_p = lambda x, y: (2.6 * x - 0.7 * y + 1.0, -0.7 * x + 0.8 * y - 2.0)
        w = C @ interpolation_dofs(tri, p, grad_p)
        v = tri.c4n[tri.n4e[0]]
        for _ in range(20):
            lam = rng.dirichlet([1.5, 1.5, 1.5])
            xy = lam @ v
            val = sum(float(c) * eval_float(basis[r], tuple(lam))
                      for r, c in enumerate(w))
            assert abs(val - p(*xy)) <= 1e-11


def test_hermite_functional():
    lam0 = RatCombo.lam(0)
    assert abs(hermite_psi(lam0 * lam0)) <= 1e-14
    assert hermite_psi(lam0 * lam0 * lam0) == pytest.approx(2.0 / 9.0, rel=1e-12)
    basis = zienkiewicz_basis()
    for b in basis[:9]:
        assert abs(hermite_psi(b)) <= 1e-12
    # the bubbles have nonzero psi: 6 * B(mid) = 6/108 exactly
    for b in basis[9:]:
        assert hermite_psi(b) == pytest.approx(1.0 / 18.0, rel=1e-12)
    # affine invariance on a random element
    rng = np.random.default_rng(4)
    tri = random_shape_regular_triangle(rng)
    assert hermite_psi(basis[7], tri.c4n) == pytest.approx(0.0, abs=1e-12)
    assert hermite_psi(basis[10], tri.c4n) == pytest.approx(1.0 / 18.0, rel=1e-10)


def test_bubble_edge_gradient_identity():
    rng = np.random.default_rng(2)
    tri = random_shape_regular_triangle(rng)
    _, _, G = tri.geometry_arrays()
    G = G[0]
    v = tri.c4n[tri.n4e[0]]
    geom = element_geometry(tri, 0)
    for j in range(3):
        B = bubble(j)
        bfj = RatCombo.lam((j + 1) % 3) * RatCombo.lam((j + 2) % 3)
        nu = geom.outward_normals[j]
        tau = geom.tangents[j]
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            xy = (1 - t) * v[(j + 1) % 3] + t * v[(j + 2) % 3]
            lam = bary_coords(v, xy)
            glam = np.array([eval_float(B.diff(k), lam) for k in range(3)])
            grad = G.T @ glam
            assert abs(grad @ tau) <= 1e-10
            expect = -np.linalg.norm(G[j]) * eval_float(bfj, lam)
            assert grad @ nu == pytest.approx(expect, rel=1e-10, abs=1e-12)


def test_c1_conformity_two_elements():
    mesh = unit_square_mesh()
    for variant in ("full", "reduced"):
        system = assemble_biharmonic(mesh, variant=variant)
        shared = int(np.where(~mesh.boundary_edge)[0][0])
        a, b = mesh.n4s[shared]
        pa, pb = mesh.c4n[a], mesh.c4n[b]
        for dof in range(system.phase.ndof):
            u = np.zeros(system.phase.ndof)
            u[dof] = 1.0
            for t in (0.1, 0.3, 0.5, 0.7, 0.9):
                xy = (1 - t) * pa + t * pb
                sides = []
                for e in range(2):
                    lam = bary_coords(mesh.c4n[mesh.n4e[e]], xy)
                    val, grad = element_eval(system, e, u, [lam])
                    sides.append((val[0], grad[0]))
                assert abs(sides[0][0] - sides[1][0]) <= 1e-10
                assert np.abs(sides[0][1] - sides[1][1]).max() <= 1e-10


def test_assembled_nullspace_and_spd():
    mesh = refine_uniform(refine_uniform(unit_square_mesh()))
    system = assemble_biharmonic(mesh)
    # the kernel element by element: C_e^T A_T,e C_e annihilates u[l2g[e]]
    _, area, G = mesh.geometry_arrays()
    GG = np.einsum("eic,ejc->eij", G, G)
    C = system.phase.C
    A_T = local_stiffness(area, GG, get_tables().Ahat)
    A_loc = np.einsum("eri,ers,esj->eij", C, A_T, C)
    for g, gg in [(lambda x, y: 1.0, lambda x, y: np.zeros(2)),
                  (lambda x, y: x, lambda x, y: np.array([1.0, 0.0]))]:
        u = nodal_interpolant(mesh, g, gg)
        Au = np.einsum("eij,ej->ei", A_loc, u[system.phase.l2g])
        resid = np.abs(Au).max() / np.abs(A_loc).max()
        assert resid <= 1e-9
    assert np.linalg.eigvalsh(system.A.toarray()).min() > 0


def test_eigen_solve():
    mesh = refine_uniform(refine_uniform(unit_square_mesh()))
    system = assemble_biharmonic(mesh)
    from ratfem.solvers import gen_eig_smallest
    free = system.phase.free
    M = system.M.tocsc()
    lam, x = gen_eig_smallest(M, M, factorize_spd(M))
    assert lam == pytest.approx(1.0, rel=1e-10)
    lam, vec = solve_biharmonic_eigen(system, factorize_spd(system.A))
    assert vec[free] @ (M @ vec[free]) == pytest.approx(1.0, abs=1e-10)
    prev = lam
    mesh2 = refine_uniform(mesh)
    system2 = assemble_biharmonic(mesh2)
    lam2, _ = solve_biharmonic_eigen(system2, factorize_spd(system2.A))
    assert lam2 <= prev + 1e-8
    # converges toward the clamped-plate eigenvalue of the unit square
    assert 1294.0 < lam2 < prev


def test_reduced_global_dofs_and_affine_normal_derivative():
    mesh = refine_uniform(unit_square_mesh())
    system = assemble_biharmonic(mesh, variant="reduced")
    assert system.phase.ndof == 3 * mesh.num_vertices
    lam, u = solve_biharmonic_eigen(system, factorize_spd(system.A))
    adj = {}
    for e in range(mesh.num_elements):
        for j in range(3):
            adj.setdefault(mesh.s4e[e, j], (e, j))
    for s in range(mesh.num_edges):
        e, j = adj[s]
        v = mesh.c4n[mesh.n4e[e]]
        nu = mesh.normal4s[s]
        i1, i2 = (j + 1) % 3, (j + 2) % 3
        def nd(xy):
            lamb = bary_coords(v, xy)
            _, grad = element_eval(system, e, u, [lamb])
            return grad[0] @ nu
        mid = nd((v[i1] + v[i2]) / 2)
        avg = 0.5 * (nd(v[i1]) + nd(v[i2]))
        assert mid == pytest.approx(avg, abs=1e-10)


def test_gauss_assembly_converges_to_exact():
    mesh = refine_uniform(unit_square_mesh())
    se = assemble_biharmonic(mesh)
    lam, vec = solve_biharmonic_eigen(se, factorize_spd(se.A))
    gaps = []
    for n in (2, 6, 12):
        sg = assemble_biharmonic(mesh, quadrature=n)
        lam_bar, _ = solve_biharmonic_eigen(sg, factorize_spd(sg.A), vec)
        gaps.append(abs(lam - lam_bar) / lam)
    assert gaps[0] > 1e-2            # n = 2 is visibly wrong
    assert gaps[2] < gaps[0] / 100.0  # n = 12 nearly exact
    assert gaps[2] < gaps[1] < gaps[0]
    # mass of the polynomial block is exact already for n = 4 (degree 6)
    tab = get_tables()
    from ratfem.quadrature import gauss_points
    from ratfem.ratfun import combo_values
    bary, w2 = gauss_points(4)
    Vq = combo_values(zienkiewicz_basis()[:9], bary)
    M9 = (Vq * w2[:, None]).T @ Vq
    assert np.allclose(M9, tab.Mhat[:9, :9], atol=1e-14)


def test_reduced_rejects_vanishing_bubble_normal_derivative():
    _, _, _, normals, V = element_setup(REF)
    bad = V.copy()
    bad[:, 9, 9] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        shape_coefficients(bad, "reduced", normals)

import numpy as np
import pytest
import scipy.linalg as sla

from felib import (bary_coords, divergence_pointwise, eval_float,
                   hessian_values, random_shape_regular_triangle,
                   velocity_eval)
from ratfem.fecore import ZeroBubbleDofError, dof_layout, edge_corrections
from ratfem.guzman_neilan import (LAYOUTS, ROT, assemble_stokes,
                                  divergence_l2, get_tables, grad_norm,
                                  local_matrices, local_vandermonde,
                                  shape_coefficients, solve_stokes,
                                  stream_potentials)
from ratfem.mesh import Triangulation, refine_uniform, unit_square_mesh
from ratfem.ratfun import RatCombo, bubble

REF = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])


def element_setup(tri):
    _, area, G = tri.geometry_arrays()
    GG = np.einsum("eic,ejc->eij", G, G)
    normals = tri.normal4s[tri.s4e]
    tangents = tri.tangent4s[tri.s4e]
    V = local_vandermonde(G, normals, tangents)
    return area, G, GG, normals, tangents, V


def test_potentials_are_zienkiewicz_tail():
    rho = stream_potentials()
    assert len(rho) == 6
    lam = [RatCombo.lam(j) for j in range(3)]
    assert rho[0] == lam[0] * lam[0] * lam[1] - lam[0] * lam[1] * lam[1]
    for j in range(3):
        assert rho[3 + j] == bubble(j)


def test_divergence_row_structure():
    area, G, GG, normals, tangents, V = element_setup(REF)
    A_T, B_T = local_matrices(area, G, GG, get_tables())
    assert np.all(B_T[0, 6:] == 0.0)
    assert np.allclose(B_T[0, 0:3], area[0] * G[0, :, 0])
    assert np.allclose(B_T[0, 3:6], area[0] * G[0, :, 1])


def test_local_stiffness_structure():
    rng = np.random.default_rng(0)
    tri = random_shape_regular_triangle(rng)
    area, G, GG, normals, tangents, V = element_setup(tri)
    A_T, B_T = local_matrices(area, G, GG, get_tables())
    A = A_T[0]
    assert np.abs(A - A.T).max() <= 1e-13 * np.abs(A).max()
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() >= -1e-10 * eigs.max()
    assert np.allclose(A[:3, :3], area[0] * GG[0])
    assert np.allclose(A[3:6, 3:6], area[0] * GG[0])
    # constant velocity fields are in the kernel
    C = shape_coefficients(V, "full")[0]
    for const in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        dof = np.concatenate([
            np.full(3, const[0]), np.full(3, const[1]),
            normals[0] @ const, tangents[0] @ const])
        w = C @ dof
        assert np.abs(A @ w).max() <= 1e-10 * np.abs(A).max()


def test_bubble_stiffness_entry_against_oracle():
    from oracle import duffy_mean
    rng = np.random.default_rng(5)
    tri = random_shape_regular_triangle(rng)
    area, G, GG, normals, tangents, V = element_setup(tri)
    A_T, _ = local_matrices(area, G, GG, get_tables())
    rho4 = get_tables().rho[3]
    hess = rho4.hessian()
    combo = RatCombo()
    # |Hess_x B|^2 = sum_ab (G^T H G)_ab^2 expanded in lam-Hessian entries
    Gm = G[0]
    for a in range(2):
        for b in range(2):
            entry = RatCombo()
            for i in range(3):
                for k in range(3):
                    entry = entry + (Gm[i, a] * Gm[k, b]) * hess[i][k]
            combo = combo + entry * entry
    ref = area[0] * sum(
        float(c) * duffy_mean(al, be) for (al, be), c in combo.terms.items())
    assert A_T[0][9, 9] == pytest.approx(ref, rel=1e-8)


def test_vandermonde_examples():
    area, G, GG, normals, tangents, V = element_setup(REF)
    V = V[0]
    assert V[0, 0] == 1.0                       # psi_1(b_1)
    assert np.allclose(V[0:6, 9:12], 0.0)       # curl bubbles vanish at vertices
    # midpoint normal components of curl columns vs direct evaluation
    tab = get_tables()
    v = REF.c4n[REF.n4e[0]]
    for i in range(3):
        mid = (v[(i + 1) % 3] + v[(i + 2) % 3]) / 2
        lam = bary_coords(v, mid)
        for s in range(6):
            glam = np.array([eval_float(tab.rho[s].diff(k), lam) for k in range(3)])
            curl = ROT @ (G[0].T @ glam)
            assert V[6 + i, 6 + s] == pytest.approx(normals[0, i] @ curl, abs=1e-10)
            assert V[9 + i, 6 + s] == pytest.approx(tangents[0, i] @ curl, abs=1e-10)


def test_unisolvence_random_elements():
    rng = np.random.default_rng(1)
    for _ in range(50):
        tri = random_shape_regular_triangle(rng)
        _, _, _, _, _, V = element_setup(tri)
        C = shape_coefficients(V, "full")
        assert np.abs(V[0] @ C[0] - np.eye(12)).max() <= 1e-9


def test_div_curl_is_symbolically_zero():
    # on the reference element the coefficients are rational, so the combo
    # divergence of each curl field collapses exactly
    from fractions import Fraction
    Gm = [[Fraction(-1), Fraction(-1)], [Fraction(1), Fraction(0)],
          [Fraction(0), Fraction(1)]]
    R = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    for rho in stream_potentials():
        div = RatCombo()
        for c in range(2):
            for k in range(3):
                coeff = sum(R[c][m] * Gm[k][m] for m in range(2))
                # d/dx_c of (curl rho)_c with curl = R G^T grad_lam
                for m2 in range(3):
                    div = div + (coeff * Gm[m2][c]) * rho.diff(k).diff(m2)
        assert not div.terms


def test_exact_sequence_curl_membership():
    from ratfem.zienkiewicz import zienkiewicz_basis
    rng = np.random.default_rng(2)
    tab = get_tables()
    G = REF.geometry_arrays()[2][0]
    pts = [tuple(rng.dirichlet([2, 2, 2])) for _ in range(30)]
    # GN velocity basis values at the sample points
    cols = []
    for r in range(6):
        comp, node = divmod(r, 3)
        vals = np.zeros((30, 2))
        vals[:, comp] = [p[node] for p in pts]
        cols.append(vals.ravel())
    for s in range(6):
        vals = []
        for p in pts:
            glam = np.array([eval_float(tab.rho[s].diff(k), p) for k in range(3)])
            vals.append(ROT @ (G.T @ glam))
        cols.append(np.array(vals).ravel())
    basis_matrix = np.column_stack(cols)
    for w in zienkiewicz_basis():
        target = []
        for p in pts:
            glam = np.array([eval_float(w.diff(k), p) for k in range(3)])
            target.append(ROT @ (G.T @ glam))
        target = np.array(target).ravel()
        coeff = np.linalg.lstsq(basis_matrix, target, rcond=None)[0]
        resid = np.linalg.norm(basis_matrix @ coeff - target)
        assert resid <= 1e-9 * max(1.0, np.linalg.norm(target))


def test_reduced_element():
    rng = np.random.default_rng(3)
    tri = random_shape_regular_triangle(rng)
    area, G, GG, normals, tangents, V = element_setup(tri)
    gamma = edge_corrections(V, tangents, (0, 3))[0]
    tab = get_tables()
    v = tri.c4n[tri.n4e[0]]
    for k in range(3):
        coeffs = np.zeros(12)
        coeffs[6 + k] = 1.0
        coeffs[9:12] = -gamma[:, k]
        def vel(xy):
            lam = bary_coords(v, xy)
            vec = np.zeros(2)
            for s in range(6):
                glam = np.array([eval_float(tab.rho[s].diff(m), lam)
                                 for m in range(3)])
                vec += coeffs[6 + s] * (ROT @ (G[0].T @ glam))
            return vec
        for j in range(3):
            tau = tri.tangent4s[tri.s4e[0, j]]
            i1, i2 = (j + 1) % 3, (j + 2) % 3
            mid_t = vel((v[i1] + v[i2]) / 2) @ tau
            avg_t = 0.5 * (vel(v[i1]) + vel(v[i2])) @ tau
            assert mid_t == pytest.approx(avg_t, abs=1e-10)
    mesh = refine_uniform(unit_square_mesh())
    ndof, _, _ = dof_layout(mesh, "reduced", LAYOUTS)
    assert ndof == 2 * mesh.num_vertices + mesh.num_edges


def test_discretely_divfree_is_pointwise_divfree():
    mesh = refine_uniform(refine_uniform(unit_square_mesh()))
    system = assemble_stokes(mesh)
    free = system.free
    kernel = sla.null_space(system.B.toarray().T)
    assert kernel.shape[1] > 0
    rng = np.random.default_rng(4)
    for k in range(min(4, kernel.shape[1])):
        u = np.zeros(system.ndof)
        u[free] = kernel[:, k]
        assert np.abs(system.B.T @ u[free]).max() <= 1e-11
        for e in range(0, mesh.num_elements, 7):
            pts = [tuple(rng.dirichlet([2, 2, 2])) for _ in range(10)]
            div = divergence_pointwise(system, e, u, pts)
            assert np.abs(div).max() <= 1e-9


def test_stokes_zero_load():
    mesh = refine_uniform(unit_square_mesh())
    system = assemble_stokes(mesh, f=None)
    u, p = solve_stokes(system)
    assert np.abs(u).max() <= 1e-12
    assert np.abs(p).max() <= 1e-12


def f52(x, y):
    return (0.0, 100.0 * (1.0 - y + 3.0 * y * y))


def test_pressure_robustness_small_meshes():
    mesh = refine_uniform(refine_uniform(unit_square_mesh()))
    for variant in ("full", "reduced"):
        system = assemble_stokes(mesh, f=f52, variant=variant)
        u, p = solve_stokes(system)
        assert grad_norm(system, u) <= 1e-10
        assert divergence_l2(system, u) <= 1e-11


@pytest.mark.parametrize("quadrature", ["exact", 2])
@pytest.mark.parametrize("variant", ["full", "reduced"])
def test_solve_stokes_gauge(variant, quadrature):
    # f52 plus a rotational part, so that neither u nor p vanishes
    mesh = refine_uniform(refine_uniform(unit_square_mesh()))
    system = assemble_stokes(mesh, f=lambda x, y: (y * y, f52(x, y)[1]),
                             variant=variant, quadrature=quadrature)
    u, p = solve_stokes(system)
    assert np.abs(u).max() > 0 and np.abs(p).max() > 0
    # the pressure has zero area-weighted mean, to roundoff
    areas = system.areas
    assert abs(np.sum(areas * p)) <= 1e-14 * np.abs(p).max() * areas.sum()
    assert np.all(u[~system.free] == 0.0)


def test_pressure_error_first_order():
    from ratfem.experiments import _pressure_error
    errs = []
    mesh = refine_uniform(refine_uniform(unit_square_mesh()))
    for _ in range(3):
        mesh = refine_uniform(mesh)
        system = assemble_stokes(mesh, f=f52, variant="reduced")
        u, p = solve_stokes(system)
        errs.append(_pressure_error(mesh, p))
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= 0.6 * coarse
        assert fine >= 0.4 * coarse


def test_gauss_quadrature_breaks_pressure_robustness():
    mesh = unit_square_mesh()
    for _ in range(4):
        mesh = refine_uniform(mesh)
    exact = assemble_stokes(mesh, f=f52, variant="reduced")
    inexact = assemble_stokes(mesh, f=f52, variant="reduced", quadrature=2)
    u, _ = solve_stokes(inexact)
    assert grad_norm(exact, u) > 4.410009e-05
    # the divergence matrix stays exact under the rule (constant or vanishing
    # integrands), so the inexact velocity remains divergence-free
    assert divergence_l2(exact, u) <= 1e-9
    u12, _ = solve_stokes(assemble_stokes(mesh, f=f52, variant="reduced",
                                          quadrature=12))
    assert grad_norm(exact, u12) < grad_norm(exact, u) / 100


def test_velocity_trace_quadratic_on_edges():
    # velocity values on an edge agree between neighbours (C0 conformity)
    mesh = unit_square_mesh()
    system = assemble_stokes(mesh)
    shared = int(np.where(~mesh.boundary_edge)[0][0])
    a, b = mesh.n4s[shared]
    pa, pb = mesh.c4n[a], mesh.c4n[b]
    rng = np.random.default_rng(6)
    u = rng.standard_normal(system.ndof)
    for t in (0.2, 0.5, 0.8):
        xy = (1 - t) * pa + t * pb
        vals = []
        for e in range(2):
            lam = bary_coords(mesh.c4n[mesh.n4e[e]], xy)
            vals.append(velocity_eval(system, e, u, [lam])[0])
        assert np.abs(vals[0] - vals[1]).max() <= 1e-10


def test_exact_blocks_against_quadrature_reference():
    # the mixed entries with cubic potentials have polynomial integrands, so
    # a tensor rule reproduces the exact values to roundoff; bubble entries
    # converge slowly and are only checked structurally
    from ratfem.quadrature import gauss_points
    rng = np.random.default_rng(17)
    tri = random_shape_regular_triangle(rng)
    _, area, G = tri.geometry_arrays()
    GG = np.einsum("eic,ejc->eij", G, G)
    A_T, _ = local_matrices(area, G, GG, get_tables())
    A_T = A_T[0]
    tab = get_tables()
    bary, w2 = gauss_points(24)
    Hq = hessian_values(tab.rho, bary)
    w = 0.5 * w2
    Gm, ar = G[0], area[0]
    S = np.einsum("ia,qsik,kb->qsab", Gm, Hq, Gm)
    ref = np.zeros((12, 12))
    ref[0:3, 0:3] = ar * GG[0]
    ref[3:6, 3:6] = ar * GG[0]
    ref[6:12, 6:12] = 2 * ar * np.einsum("qrab,qsab,q->rs", S, S, w)
    RS = np.empty_like(S)
    RS[:, :, 0, :] = S[:, :, 1, :]
    RS[:, :, 1, :] = -S[:, :, 0, :]
    M = np.zeros((6, 6))
    for r in range(6):
        comp, node = divmod(r, 3)
        M[r, :] = 2 * ar * np.einsum("c,qsc,q->s", Gm[node, :],
                                     RS[:, :, comp, :], w)
    ref[0:6, 6:12] = M
    ref[6:12, 0:6] = M.T
    assert np.abs(A_T[0:6, 6:9] - ref[0:6, 6:9]).max() < 1e-13
    rel = np.abs(A_T - ref) / (np.abs(A_T) + 1e-12)
    assert rel.max() < 2e-2


def test_reduced_rejects_vanishing_tangential_trace():
    _, _, _, _, tangents, V = element_setup(REF)
    bad = V.copy()
    bad[:, 10, 10] = 0.0
    with pytest.raises(ZeroBubbleDofError):
        edge_corrections(bad, tangents, (0, 3))


def test_constant_field_has_zero_divergence_action():
    mesh = refine_uniform(unit_square_mesh())
    system = assemble_stokes(mesh)
    m, n = mesh.num_vertices, mesh.num_edges
    const = np.array([0.7, -0.3])
    u = np.concatenate([
        np.full(m, const[0]), np.full(m, const[1]),
        mesh.normal4s @ const, mesh.tangent4s @ const])
    # B^T u element by element: the contraction of B_T,e C_e with u[l2g[e]]
    _, area, G = mesh.geometry_arrays()
    GG = np.einsum("eic,ejc->eij", G, G)
    _, B_T = local_matrices(area, G, GG, get_tables())
    bt = np.einsum("eri,er->ei", system.coeffs, B_T)
    assert np.abs(np.einsum("ei,ei->e", bt, u[system.l2g])).max() <= 1e-13

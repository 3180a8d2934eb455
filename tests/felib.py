"""Shared helpers for the element test modules."""

import numpy as np

from ratfem.fecore import lagrange_basis, lagrange_nodes
from ratfem.mesh import Triangulation
from ratfem.quadrature import gauss_points
from ratfem.ratfun import combo_values, gradient_values, hessian_values


def random_shape_regular_triangle(rng, min_angle_deg=20.0, max_tries=200):
    """Random positively oriented triangle with bounded minimal angle."""
    for _ in range(max_tries):
        v = rng.uniform(-1.0, 1.0, size=(3, 2))
        d = np.linalg.det(np.column_stack([v[1] - v[0], v[2] - v[0]]))
        if d < 0:
            v[[1, 2]] = v[[2, 1]]
        tri = Triangulation(v, [[0, 1, 2]]) if abs(d) > 1e-3 else None
        if tri is None:
            continue
        if np.degrees(tri.min_angle()) >= min_angle_deg and tri.areas()[0] > 0.05:
            return tri
    raise RuntimeError("no shape-regular triangle found")


def bary_coords(verts, xy):
    T = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    loc = np.linalg.solve(T, np.asarray(xy, dtype=float) - verts[0])
    return (1.0 - loc[0] - loc[1], loc[0], loc[1])


def _rule_data(basis, n):
    bary, w2 = gauss_points(n)
    return 0.5 * w2, bary, combo_values(basis, bary), \
        gradient_values(basis, bary), hessian_values(basis, bary)


def _p2_load(f, verts):
    """Scalar f at the P2 Lagrange nodes of one element, one call per node."""
    nodes = np.array(lagrange_nodes(2), dtype=float)
    return np.array([f(x, y) for x, y in nodes @ verts])


def gauss_reference_zienkiewicz(tri, n, f):
    """A_T, M_T and b_T of one element by the n-point rule at the points.

    The per-point formula: Laplacians of the basis at every rule point, then
    weighted sums; the load is interpolated in P2 and evaluated per point.
    """
    from ratfem.zienkiewicz import get_tables
    w, bary, Vq, _, Hq = _rule_data(get_tables().basis, n)
    _, area, G = tri.geometry_arrays()
    a, GG = area[0], G[0] @ G[0].T
    D = np.einsum("qrij,ij->qr", Hq, GG)
    A_T = 2.0 * a * (D.T * w) @ D
    M_T = 2.0 * a * (Vq.T * w) @ Vq
    fq = combo_values(lagrange_basis(2), bary) @ _p2_load(f, tri.c4n[tri.n4e[0]])
    b_T = 2.0 * (Vq.T * w) @ fq
    return A_T, M_T, b_T


def gauss_reference_guzman_neilan(tri, n, f):
    """A_T, B_T and b_T of one element by the n-point rule at the points.

    The per-point formula: physical Hessians and curls of the potentials at
    every rule point, and the load f(x, y) = (f_x, f_y) called per point.
    """
    from ratfem.guzman_neilan import ROT, get_tables
    w, bary, _, Gq, Hq = _rule_data(get_tables().rho, n)
    _, area, G = tri.geometry_arrays()
    a, Gm = area[0], G[0]
    GG = Gm @ Gm.T
    S = np.einsum("ia,qsik,kb->qsab", Gm, Hq, Gm)     # physical Hessians
    RS = np.einsum("cd,qsdb->qscb", ROT, S)           # gradients of the curls
    A_T = np.zeros((12, 12))
    A_T[0:3, 0:3] = A_T[3:6, 3:6] = 2.0 * w.sum() * a * GG
    A_T[6:12, 6:12] = 2.0 * a * np.einsum("qrab,qsab,q->rs", S, S, w)
    for r in range(6):
        comp, node = divmod(r, 3)
        A_T[r, 6:12] = A_T[6:12, r] = 2.0 * a * np.einsum(
            "c,qsc,q->s", Gm[node], RS[:, :, comp, :], w)
    B_T = np.zeros(12)
    B_T[0:3] = 2.0 * w.sum() * a * Gm[:, 0]
    B_T[3:6] = 2.0 * w.sum() * a * Gm[:, 1]
    B_T[6:12] = 2.0 * a * np.einsum("qs,q->s", S[:, :, 1, 0] - S[:, :, 0, 1], w)
    xy = bary @ tri.c4n[tri.n4e[0]]
    fq = np.array([f(x, y) for x, y in xy], dtype=float)     # (Q, 2)
    curl = np.einsum("ab,kb,qsk->qsa", ROT, Gm, Gq)
    b_T = np.empty(12)
    b_T[0:3] = 2.0 * (bary.T * w) @ fq[:, 0]
    b_T[3:6] = 2.0 * (bary.T * w) @ fq[:, 1]
    b_T[6:12] = 2.0 * np.einsum("qc,qsc,q->s", fq, curl, w)
    return A_T, B_T, b_T


# -- per-point references for the vectorised evaluators -------------------------
# Each is the per-point formula the vectorised function replaced, and also
# returns the size of its terms (the same sums of absolute values), against
# which the agreement is measured.

def element_eval_reference(system, e, u, bary_pts):
    """Values and physical gradients of element e, one point at a time."""
    from ratfem.zienkiewicz import get_tables
    basis = get_tables().basis
    w = system.coeffs[e] @ u[system.l2g[e]]
    G = system.tria.geometry_arrays()[2][e]
    vals, grads, size = [], [], 0.0
    for pt in bary_pts:
        lam = tuple(float(x) for x in pt)
        terms = np.array([float(c) * basis[r].eval_float(lam)
                          for r, c in enumerate(w)])
        gterms = np.array([[float(c) * basis[r].grad()[k].eval_float(lam)
                            for k in range(3)] for r, c in enumerate(w)])
        vals.append(sum(terms))
        grads.append(G.T @ sum(gterms))
        size = max(size, np.abs(terms).sum(),
                   (np.abs(gterms) @ np.abs(G)).sum(axis=0).max())
    return np.array(vals), np.array(grads), size


def velocity_eval_reference(system, e, u, bary_pts):
    """Guzman-Neilan velocity vectors of element e, one point at a time."""
    from ratfem.guzman_neilan import ROT, get_tables
    rho = get_tables().rho
    w = system.coeffs[e] @ u[system.l2g[e]]
    G = system.tria.geometry_arrays()[2][e]
    out, size = [], 0.0
    for pt in bary_pts:
        lam = tuple(float(x) for x in pt)
        vec, mag = np.zeros(2), np.zeros(2)
        for r in range(6):
            comp, node = divmod(r, 3)
            vec[comp] += w[r] * lam[node]
            mag[comp] += abs(w[r] * lam[node])
        for s in range(6):
            glam = np.array([rho[s].grad()[k].eval_float(lam) for k in range(3)])
            vec += w[6 + s] * (ROT @ (G.T @ glam))
            mag += np.abs(w[6 + s]) * (np.abs(ROT) @ (np.abs(G.T) @ np.abs(glam)))
        out.append(vec)
        size = max(size, mag.max())
    return np.array(out), size


def divergence_pointwise_reference(system, e, u, bary_pts):
    """div u_h of element e, one point at a time."""
    from ratfem.guzman_neilan import get_tables
    rho = get_tables().rho
    w = system.coeffs[e] @ u[system.l2g[e]]
    G = system.tria.geometry_arrays()[2][e]
    out, size = [], 0.0
    for pt in bary_pts:
        lam = tuple(float(x) for x in pt)
        val, mag = 0.0, 0.0
        for r in range(6):
            comp, node = divmod(r, 3)
            val += w[r] * G[node, comp]
            mag += abs(w[r] * G[node, comp])
        for s in range(6):
            H = np.array([[rho[s].hessian()[i][j].eval_float(lam)
                           for j in range(3)] for i in range(3)])
            Sp = G.T @ H @ G
            val += w[6 + s] * (Sp[1, 0] - Sp[0, 1])
            mag += abs(w[6 + s]) * 2 * (np.abs(G.T) @ np.abs(H) @ np.abs(G)).max()
        out.append(val)
        size = max(size, mag)
    return np.array(out), size

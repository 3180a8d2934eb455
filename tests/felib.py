"""Shared helpers for the test modules: random elements, per-point rule
references, and the pointwise evaluators and geometry helpers that only
verification uses."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ratfem.fecore import (P2_NODES, assemble_matrix, assemble_vector,
                           lagrange_basis, scatter_plan)
from ratfem.mesh import DegenerateElementError, Triangulation
from ratfem.quadrature import gauss_points
from ratfem.ratfun import SingularEvaluationError, combo_values, gradient_values

_UPPER = [(i, j) for i in range(3) for j in range(i, 3)]   # Hessian entries
_MIRROR = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])      # (i, j) -> _UPPER index


#: (n4e, c4n) of a triangle with a second one folded onto it, and of a
#: triangle given twice: every element is positively oriented and no edge has
#: more than two elements, but the elements overlap, so area counts twice.
OVERLAPPING_MESHES = [
    ([[0, 1, 2], [0, 1, 3]], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
    ([[0, 1, 2], [0, 1, 2]], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])]
#: Six triangles (0, v_k, v_k+1) around the origin, whose ring vertices sit at
#: 0, 120 and 240 degrees twice (radii 1, then 2): every element is
#: positively oriented and every interior edge is run both ways, but the
#: angles at the origin sum to 4 pi, so the elements cover it twice.
TWICE_COVERED_MESH = (
    [[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)],
    [[0.0, 0.0]] + [[float(r * np.cos(a)), float(r * np.sin(a))]
                    for r in (1.0, 2.0) for a in np.radians([0.0, 120.0, 240.0])])


def evaluate(combo, point) -> Fraction:
    """Exact value of a RatCombo at a barycentric point (triple of rationals).

    At a vertex i the denominator factor (1-lam_i)^b_i vanishes; a term is
    taken as 0 whenever the numerator vanishing order sum(alpha_k, k != i)
    strictly exceeds b_i, otherwise the termwise limit is undefined and
    SingularEvaluationError is raised.  This is the reference for the vertex
    rule of `combo_values`.
    """
    l = tuple(Fraction(x) for x in point)
    if sum(l) != 1:
        raise ValueError(f"barycentric point must sum to 1, got {point}")
    total = Fraction(0)
    for (alpha, beta), coeff in combo.terms.items():
        value = _term_value(alpha, beta, coeff, l)
        if value is not None:
            total += value
    return total


def _term_value(alpha, beta, coeff, l):
    for i in range(3):
        if beta[i] > 0 and l[i] == 1:
            order = sum(alpha[k] for k in range(3) if k != i)
            if order > beta[i]:
                return None
            raise SingularEvaluationError(
                f"term lam^{alpha}/(1-lam)^{beta} singular at vertex {i}")
    num = Fraction(coeff)
    for i in range(3):
        if alpha[i]:
            num *= l[i] ** alpha[i]
        if beta[i]:
            num /= (1 - l[i]) ** beta[i]
    return num


def eval_float(combo, l) -> float:
    """Float value of a RatCombo at one barycentric point."""
    return float(combo_values([combo], [l])[0, 0])


def hessian_values(funcs, bary) -> np.ndarray:
    """Float lam-Hessians of RatCombos at barycentric points -> (Q, L, 3, 3).

    Only the six upper-triangle entries are evaluated, then mirrored.
    """
    parts = [f.hessian()[i][j] for f in funcs for i, j in _UPPER]
    return combo_values(parts, bary).reshape(-1, len(funcs), 6)[:, :, _MIRROR]


def min_angle(tria) -> float:
    """Smallest interior angle (radians) over the elements of a mesh."""
    v = tria.c4n[tria.n4e]
    best = np.inf
    for j in range(3):
        a = v[:, (j + 1) % 3] - v[:, j]
        b = v[:, (j + 2) % 3] - v[:, j]
        cosang = np.sum(a * b, axis=1) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        best = min(best, float(np.arccos(np.clip(cosang, -1, 1)).min()))
    return best


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
        if np.degrees(min_angle(tri)) >= min_angle_deg and tri.areas()[0] > 0.05:
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
    """A vector load f at the P2 Lagrange nodes of one element, one call per
    node: (6, 2)."""
    nodes = np.array(P2_NODES, dtype=float)
    return np.array([f(x, y) for x, y in nodes @ verts])


def gauss_reference_zienkiewicz(tri, n):
    """A_T and M_T of one element by the n-point rule at the points.

    The per-point formula: Laplacians of the basis at every rule point, then
    weighted sums.
    """
    from ratfem.zienkiewicz import zienkiewicz_basis
    w, _, Vq, _, Hq = _rule_data(zienkiewicz_basis(), n)
    _, area, G = tri.geometry_arrays()
    a, GG = area[0], G[0] @ G[0].T
    D = np.einsum("qrij,ij->qr", Hq, GG)
    A_T = 2.0 * a * (D.T * w) @ D
    M_T = 2.0 * a * (Vq.T * w) @ Vq
    return A_T, M_T


def gauss_reference_guzman_neilan(tri, n, f):
    """A_T, B_T and b_T of one element by the n-point rule at the points.

    The per-point formula: physical Hessians and curls of the potentials at
    every rule point; the load f(x, y) = (f_x, f_y) is interpolated in P2
    and evaluated per point (:func:`gauss_stokes_load`).
    """
    from ratfem.guzman_neilan import ROT, stream_potentials
    w, bary, _, _, Hq = _rule_data(stream_potentials(), n)
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
    return A_T, B_T, gauss_stokes_load(tri, n, f)


def gauss_stokes_load(tri, n, f, interpolate=True):
    """Stokes b_T of one element by the n-point rule at the points, for the
    load f(x, y) = (f_x, f_y) interpolated in P2 at the nodes, or with
    `interpolate` False, f called at every rule point itself."""
    from ratfem.guzman_neilan import ROT, stream_potentials
    w, bary, _, Gq, _ = _rule_data(stream_potentials(), n)
    verts = tri.c4n[tri.n4e[0]]
    Gm = tri.geometry_arrays()[2][0]
    if interpolate:
        fq = combo_values(lagrange_basis(2), bary) @ _p2_load(f, verts)
    else:
        fq = np.array([f(x, y) for x, y in bary @ verts], dtype=float)
    curl = np.einsum("ab,kb,qsk->qsa", ROT, Gm, Gq)
    b_T = np.empty(12)
    b_T[0:3] = 2.0 * (bary.T * w) @ fq[:, 0]
    b_T[3:6] = 2.0 * (bary.T * w) @ fq[:, 1]
    b_T[6:12] = 2.0 * np.einsum("qc,qsc,q->s", fq, curl, w)
    return b_T


# -- per-point references for the vectorised evaluators -------------------------
# Each is the per-point formula the vectorised function replaced, and also
# returns the size of its terms (the same sums of absolute values), against
# which the agreement is measured.

def element_eval_reference(system, e, u, bary_pts):
    """Values and physical gradients of element e, one point at a time."""
    from ratfem.zienkiewicz import zienkiewicz_basis
    basis = zienkiewicz_basis()
    w = system.phase.C[e] @ u[system.phase.l2g[e]]
    G = system.tria.geometry_arrays()[2][e]
    vals, grads, size = [], [], 0.0
    for pt in bary_pts:
        lam = tuple(float(x) for x in pt)
        terms = np.array([float(c) * eval_float(basis[r], lam)
                          for r, c in enumerate(w)])
        gterms = np.array([[float(c) * eval_float(basis[r].grad()[k], lam)
                            for k in range(3)] for r, c in enumerate(w)])
        vals.append(sum(terms))
        grads.append(G.T @ sum(gterms))
        size = max(size, np.abs(terms).sum(),
                   (np.abs(gterms) @ np.abs(G)).sum(axis=0).max())
    return np.array(vals), np.array(grads), size


def velocity_eval_reference(system, e, u, bary_pts):
    """Guzman-Neilan velocity vectors of element e, one point at a time."""
    from ratfem.guzman_neilan import ROT, stream_potentials
    rho = stream_potentials()
    w = system.phase.C[e] @ u[system.phase.l2g[e]]
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
            glam = np.array([eval_float(rho[s].grad()[k], lam) for k in range(3)])
            vec += w[6 + s] * (ROT @ (G.T @ glam))
            mag += np.abs(w[6 + s]) * (np.abs(ROT) @ (np.abs(G.T) @ np.abs(glam)))
        out.append(vec)
        size = max(size, mag.max())
    return np.array(out), size


def divergence_pointwise_reference(system, e, u, bary_pts):
    """div u_h of element e, one point at a time."""
    from ratfem.guzman_neilan import stream_potentials
    rho = stream_potentials()
    w = system.phase.C[e] @ u[system.phase.l2g[e]]
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
            H = np.array([[eval_float(rho[s].hessian()[i][j], lam)
                           for j in range(3)] for i in range(3)])
            Sp = G.T @ H @ G
            val += w[6 + s] * (Sp[1, 0] - Sp[0, 1])
            mag += abs(w[6 + s]) * 2 * (np.abs(G.T) @ np.abs(H) @ np.abs(G)).max()
        out.append(val)
        size = max(size, mag)
    return np.array(out), size


# -- verification helpers: pointwise evaluation, geometry, slopes ---------------

def element_eval(system, e, u, bary_pts):
    """Zienkiewicz values and physical gradients of u on element e."""
    from ratfem.zienkiewicz import zienkiewicz_basis
    basis = zienkiewicz_basis()
    w = system.phase.C[e] @ u[system.phase.l2g[e]]
    G = system.tria.geometry_arrays()[2][e]
    glam = np.einsum("qrk,r->qk", gradient_values(basis, bary_pts), w)
    return combo_values(basis, bary_pts) @ w, glam @ G


def hermite_psi(fun, vertices=None):
    """The cubic-Hermite constraint functional on one triangle.

    6 f(mid) - 2 sum_j f(v_j) + sum_k grad f(v_k) . (v_k - mid), evaluated
    with physical gradients; affine-invariant.
    """
    if vertices is None:
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    v = np.asarray(vertices, dtype=float)
    df = np.column_stack([v[1] - v[0], v[2] - v[0]])
    G = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) @ np.linalg.inv(df)
    pts = np.vstack([np.full(3, 1 / 3), np.eye(3)])    # centroid, vertices
    vals = combo_values([fun], pts)[:, 0]
    glam = gradient_values([fun], pts[1:])[:, 0]        # (3 vertices, 3)
    return float(6.0 * vals[0] - 2.0 * vals[1:].sum()
                 + np.einsum("jk,kc,jc->", glam, G, v - v.mean(axis=0)))


def nodal_interpolant(tria, g, grad_g, variant="full"):
    """Zienkiewicz dof vector of a smooth function (value, gradient, normals)."""
    vals = np.array([g(x, y) for x, y in tria.c4n])
    grads = np.array([grad_g(x, y) for x, y in tria.c4n])
    out = [vals, grads[:, 0], grads[:, 1]]
    if variant == "full":
        mids = (tria.c4n[tria.n4s[:, 0]] + tria.c4n[tria.n4s[:, 1]]) / 2.0
        gm = np.array([grad_g(x, y) for x, y in mids])
        out.append(np.sum(gm * tria.normal4s, axis=1))
    return np.concatenate(out)


def divergence_pointwise(system, e, u, bary_pts):
    """Guzman-Neilan div u_h at barycentric points of element e."""
    from ratfem.guzman_neilan import stream_potentials
    rho = stream_potentials()
    G = system.tria.geometry_arrays()[2][e]
    w = system.phase.C[e] @ u[system.phase.l2g[e]]
    S = np.einsum("ia,qsik,kb->qsab", G, hessian_values(rho, bary_pts), G)
    # P1 field r = (comp, node) has divergence G[node, comp]
    return w[:6] @ G.T.ravel() + (S[:, :, 1, 0] - S[:, :, 0, 1]) @ w[6:]


def velocity_eval(system, e, u, bary_pts):
    """Guzman-Neilan velocity vectors at barycentric points of element e."""
    from ratfem.guzman_neilan import ROT, stream_potentials
    rho = stream_potentials()
    G = system.tria.geometry_arrays()[2][e]
    w = system.phase.C[e] @ u[system.phase.l2g[e]]
    lam = np.asarray(bary_pts, dtype=float)
    glam = gradient_values(rho, lam)
    curl = np.einsum("ab,kb,qsk,s->qa", ROT, G, glam, w[6:])
    return lam @ w[:6].reshape(2, 3).T + curl


# -- the Stokes velocity space on all dofs --------------------------------------
# The solver works on element coefficients alone; these helpers rebuild the
# global objects the tests compare against: the velocity stiffness and load
# that fecore's scatter sums from the element tensors, the velocity's
# Guzman-Neilan dofs, and the curl matrix D.

def stokes_velocity_system(system):
    """The velocity stiffness A_n (csr, free x free) and load b_n (on all
    dofs) of a Stokes system, summed from its A_T and b_T by fecore."""
    phase = system.phase
    l2g, free, C, ndof = phase.l2g, phase.free, phase.C, phase.ndof
    plan = scatter_plan(l2g, l2g, (ndof, ndof), free, free)
    return (assemble_matrix(plan, C, system.A_T, C),
            assemble_vector(l2g, phase.area, C, system.b_T, ndof))


def velocity_dofs(system, w):
    """The Guzman-Neilan dofs (all of them) of the velocity with element
    coefficients w (p, 12), each element's from its Vandermonde, and the
    largest disagreement between two elements on a shared dof."""
    from ratfem.guzman_neilan import local_vandermonde
    tria, l2g = system.tria, system.phase.l2g
    V = local_vandermonde(tria.geometry_arrays()[2], tria.normal4s[tria.s4e],
                          tria.tangent4s[tria.s4e])
    local = np.einsum("eij,ej->ei", V[:, :l2g.shape[1]], w)
    u = np.zeros(system.phase.ndof)
    u[l2g] = local
    return u, np.abs(u[l2g] - local).max()


def curl_matrix(mesh, variant):
    """D, dense: the Guzman-Neilan dof values V_GN E C_Z of the curl of every
    Zienkiewicz shape function, where E maps Zienkiewicz 12-basis coefficients
    to Guzman-Neilan ones (the P1 curls of the six quadratics, from their
    gradients at the vertices; the identity on the potentials 6..11); and the
    largest disagreement between two elements on a shared dof."""
    from ratfem import guzman_neilan as gn
    from ratfem import zienkiewicz as zk
    phase, *_ = gn.mesh_phase(mesh, variant)
    plate = zk.mesh_phase(mesh, variant)
    G, ndof, l2g, zl2g = phase.G, phase.ndof, phase.l2g, plate.l2g
    V = gn.local_vandermonde(G, mesh.normal4s[mesh.s4e], mesh.tangent4s[mesh.s4e])
    rot_grads = np.einsum("ab,ekb->eak", gn.ROT, G)
    E = np.zeros((mesh.num_elements, 12, 12))
    E[:, :6, :6] = np.einsum("eck,isk->ecis", rot_grads,
                             zk.get_tables().That_gv[:, :6]).reshape(-1, 6, 6)
    E[:, 6:, 6:] = np.eye(6)
    local = V[:, :l2g.shape[1]] @ E @ plate.C
    D = np.zeros((ndof, plate.ndof))
    D[l2g[:, :, None], zl2g[:, None, :]] = local
    spread = np.abs(D[l2g[:, :, None], zl2g[:, None, :]] - local).max()
    return D[np.ix_(phase.free, plate.free)], spread


@dataclass
class ElementGeometry:
    """Affine data of one element: Jacobian, area, Dlam and edge frames."""

    DF: np.ndarray          # (2,2)
    area: float
    G: np.ndarray           # (3,2), rows are the physical gradients of lam_j
    outward_normals: np.ndarray  # (3,2), edge j opposite vertex j
    tangents: np.ndarray         # (3,2), rotated outward normals


def element_geometry(t, e):
    v = t.c4n[t.n4e[e]]
    df, area, g = (a[e] for a in t.geometry_arrays())
    scale = max(np.linalg.norm(v[1] - v[0]), np.linalg.norm(v[2] - v[0]))
    if 2.0 * area < 1e-14 * scale ** 2:
        raise DegenerateElementError(f"element {e} is degenerate")
    # outward normal of edge f_j is the negative normalized gradient of lam_j
    outward = -g / np.linalg.norm(g, axis=1)[:, None]
    rot_t = np.array([[0.0, -1.0], [1.0, 0.0]])   # R^T for tau = R^T nu
    tangents = outward @ rot_t.T
    return ElementGeometry(df, float(area), g, outward, tangents)


def domain_area(t):
    return float(t.areas().sum())


def fit_slope(points):
    """Least-squares slope of log(y) against log(x)."""
    pts = [(x, y) for x, y in points if y > 0]
    if len(pts) < 2:
        raise ValueError("need at least two positive points for a slope")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])

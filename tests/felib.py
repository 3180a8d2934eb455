"""Shared helpers for the test modules: random elements, per-point rule
references, and the pointwise evaluators and geometry helpers that only
verification uses."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ratfem.fecore import P2_NODES, lagrange_basis
from ratfem.mesh import DegenerateElementError, Triangulation
from ratfem.quadrature import gauss_points
from ratfem.ratfun import SingularEvaluationError, combo_values, gradient_values

_UPPER = [(i, j) for i in range(3) for j in range(i, 3)]   # Hessian entries
_MIRROR = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])      # (i, j) -> _UPPER index


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
    """Scalar f at the P2 Lagrange nodes of one element, one call per node."""
    nodes = np.array(P2_NODES, dtype=float)
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
            glam = np.array([eval_float(rho[s].grad()[k], lam) for k in range(3)])
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
    from ratfem.zienkiewicz import get_tables
    basis = get_tables().basis
    w = system.coeffs[e] @ u[system.l2g[e]]
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
    from ratfem.guzman_neilan import get_tables
    rho = get_tables().rho
    G = system.tria.geometry_arrays()[2][e]
    w = system.coeffs[e] @ u[system.l2g[e]]
    S = np.einsum("ia,qsik,kb->qsab", G, hessian_values(rho, bary_pts), G)
    # P1 field r = (comp, node) has divergence G[node, comp]
    return w[:6] @ G.T.ravel() + (S[:, :, 1, 0] - S[:, :, 0, 1]) @ w[6:]


def velocity_eval(system, e, u, bary_pts):
    """Guzman-Neilan velocity vectors at barycentric points of element e."""
    from ratfem.guzman_neilan import ROT, get_tables
    rho = get_tables().rho
    G = system.tria.geometry_arrays()[2][e]
    w = system.coeffs[e] @ u[system.l2g[e]]
    lam = np.asarray(bary_pts, dtype=float)
    glam = gradient_values(rho, lam)
    curl = np.einsum("ab,kb,qsk,s->qa", ROT, G, glam, w[6:])
    return lam @ w[:6].reshape(2, 3).T + curl


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

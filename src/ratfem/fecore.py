"""Element-type-independent machinery: moment tensors (exact or by a Gauss
rule), load evaluation, reduced-element bubble corrections, shape
coefficients, dof layouts, the mesh phase and triplet assembly.

All exact reference tensors are computed once per process by exact rational
quadrature and floated at the very end, so recomputation is bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .quadrature import gauss_points, integral_mean_combo
from .ratfun import RatCombo, combo_values

_HALF = Fraction(1, 2)
#: Barycentric vertices, then edge midpoints (edge j is opposite vertex j).
VERTS = [(Fraction(1), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1))]
MIDS = [(Fraction(0), _HALF, _HALF),
        (_HALF, Fraction(0), _HALF),
        (_HALF, _HALF, Fraction(0))]


def moment_tensor(left, right, quadrature="exact") -> np.ndarray:
    """Means of pairwise products of two RatCombo families.

    `left` and `right` are arbitrarily nested sequences of RatCombos; the
    result has shape left_shape + right_shape.  Under "exact" every entry is
    the floated exact mean of the product, and a product-level memo avoids
    recomputing symmetric entries.  Under an integer n every entry is the
    n-point Gauss rule's mean (:func:`quadrature.gauss_points`).
    """
    larr = np.asarray(left, dtype=object)
    rarr = larr if right is left else np.asarray(right, dtype=object)
    if quadrature != "exact":
        bary, w2 = gauss_points(int(quadrature))
        L = combo_values(larr.ravel(), bary)
        R = L if right is left else combo_values(rarr.ravel(), bary)
        # einsum sums over q in one fixed order; a BLAS GEMM's order can
        # depend on its thread count, and these tables feed every rule-n result
        return np.einsum("q,qa,qb->ab", w2, L, R).reshape(larr.shape + rarr.shape)
    out = np.empty(larr.shape + rarr.shape)
    memo: dict = {}
    for il in np.ndindex(larr.shape):
        f = larr[il]
        for ir in np.ndindex(rarr.shape):
            g = rarr[ir]
            key = (id(f), id(g)) if id(f) <= id(g) else (id(g), id(f))
            val = memo.get(key)
            if val is None:
                val = memo[key] = integral_mean_combo(f * g).to_float()
            out[il + ir] = val
    return out


def lagrange_nodes(degree: int):
    """Barycentric Lagrange nodes: vertices, then edge midpoints for degree 2."""
    if degree == 1:
        return VERTS
    if degree == 2:
        return VERTS + MIDS
    raise ValueError(f"unsupported Lagrange degree {degree}")


def lagrange_basis(degree: int):
    """Barycentric Lagrange basis matching :func:`lagrange_nodes` ordering."""
    lam = [RatCombo.lam(j) for j in range(3)]
    if degree == 1:
        return lam
    if degree == 2:
        vertex = [2 * (l * l) - l for l in lam]
        edge = [4 * (lam[(j + 1) % 3] * lam[(j + 2) % 3]) for j in range(3)]
        return vertex + edge
    raise ValueError(f"unsupported Lagrange degree {degree}")


def load_values(f, tria, bary, components: int | None = None) -> np.ndarray:
    """A load f(X, Y) at barycentric points `bary` (Q, 3) of every element.

    `f` is called once, on coordinate arrays X, Y of shape (p, Q).  It returns
    an array broadcastable to that shape, or for `components` = k a sequence
    of k such arrays.  The result has shape (p, Q) or (p, k, Q).
    """
    verts = tria.c4n[tria.n4e]                         # (p, 3, 2)
    bary = np.asarray(bary, dtype=float)
    X, Y = verts[:, :, 0] @ bary.T, verts[:, :, 1] @ bary.T
    try:
        vals = f(X, Y)
    except (TypeError, ValueError) as exc:
        raise TypeError("load callbacks are called once per assembly as "
                        f"f(X, Y) on coordinate arrays of shape {X.shape}; "
                        f"this one failed on arrays: {exc}") from exc
    parts = [vals] if components is None else list(vals)
    if len(parts) != (components or 1):
        raise TypeError(f"load callback returned {len(parts)} components, "
                        f"expected {components}")
    try:
        parts = [np.broadcast_to(np.asarray(v, dtype=float), X.shape)
                 for v in parts]
    except ValueError as exc:
        raise TypeError("load callback values must broadcast to the "
                        f"coordinate shape {X.shape}: {exc}") from exc
    out = np.stack(parts, axis=1)
    return out[:, 0] if components is None else out


def edge_corrections(V, frames, rows, error) -> np.ndarray:
    """Bubble weights gamma (p,3,3) that make an edge dof affine.

    Rows 9+j of the Vandermonde V hold a dof on edge j (opposite vertex j):
    a vector quantity taken along frames[:, j] at the edge midpoint.  Rows
    rows[0]+i and rows[1]+i hold its x and y components at vertex i.  For
    cubic column 6+k the weight on bubble j is (that midpoint dof minus the
    endpoint average) divided by the bubble's own dof; `error` is raised if
    that vanishes.
    """
    diag = np.stack([V[:, 9 + j, 9 + j] for j in range(3)], axis=1)
    if np.any(np.abs(diag) < 1e-14):
        raise error("a bubble's own edge dof vanished at an edge midpoint")
    rx, ry = rows
    gamma = np.empty((V.shape[0], 3, 3))
    for j in range(3):
        i1, i2 = (j + 1) % 3, (j + 2) % 3
        avg = 0.5 * (
            frames[:, j, 0, None] * (V[:, rx + i1, 6:9] + V[:, rx + i2, 6:9])
            + frames[:, j, 1, None] * (V[:, ry + i1, 6:9] + V[:, ry + i2, 6:9]))
        gamma[:, j, :] = (V[:, 9 + j, 6:9] - avg) / V[:, 9 + j, 9 + j, None]
    return gamma


def shape_coefficients(V, gamma=None) -> np.ndarray:
    """Coefficient matrices of the nodal shape functions in the 12-basis.

    Full element (gamma None): inv(V), shape (p,12,12).  Reduced element:
    (p,12,9), the identity on the first nine basis functions with cubic
    columns 6..8 corrected by the bubbles with weights -gamma (see
    :func:`edge_corrections`), times inv(V[:, :9, :9]).
    """
    if gamma is None:
        return np.linalg.inv(V)
    red = np.zeros((V.shape[0], 12, 9))
    red[:, :9, :] = np.eye(9)[None, :, :]
    red[:, 9:12, 6:9] = -gamma
    return red @ np.linalg.inv(V[:, :9, :9])


def dof_layout(tria, variant: str, layouts: dict):
    """Global dof count, local-to-global map (p, L) and free-dof mask.

    layouts[variant] lists the dof blocks in global order: "v" is one dof per
    vertex (local order n4e), "e" one per edge (local order s4e).  Every dof
    on a boundary vertex or edge is constrained.
    """
    if variant not in layouts:
        raise ValueError(f"unknown variant {variant!r}")
    entities = {"v": (tria.n4e, tria.num_vertices, tria.boundary_vertex),
                "e": (tria.s4e, tria.num_edges, tria.boundary_edge)}
    ndof, l2g, boundary = 0, [], []
    for block in layouts[variant]:
        local, count, on_boundary = entities[block]
        l2g.append(ndof + local)
        boundary.append(on_boundary)
        ndof += count
    return ndof, np.hstack(l2g), ~np.concatenate(boundary)


def mesh_phase(tria, variant: str, layouts: dict, coefficients):
    """What assembly needs that no quadrature changes: area, G = Dlam, G G^T,
    the shape coefficients C = coefficients(G, normals, tangents) (edge frames
    in local order) and (ndof, l2g, free); read-only, as systems share them."""
    ndof, l2g, free = dof_layout(tria, variant, layouts)
    _, area, G = tria.geometry_arrays()
    C = coefficients(G, tria.normal4s[tria.s4e], tria.tangent4s[tria.s4e])
    GG = np.einsum("eic,ejc->eij", G, G)
    for array in (area, G, GG, C, l2g, free):
        array.setflags(write=False)
    return area, G, GG, C, ndof, l2g, free


def pad_free(free, x) -> np.ndarray:
    """A vector on all dofs: `x` on the free ones, zero on the constrained."""
    full = np.zeros(free.shape[0])
    full[free] = x
    return full


def assemble_matrix(l2g: np.ndarray, local: np.ndarray, ndof: int) -> sp.csr_matrix:
    """Scatter per-element dense blocks into a global sparse matrix.

    l2g is (p, L), local is (p, L, L); duplicate triplets are accumulated by
    the COO -> CSR conversion in a fixed order, so assembly is deterministic.
    """
    p, L = l2g.shape
    if l2g.min() < 0 or l2g.max() >= ndof:
        raise IndexError("dof index out of range")
    rows = np.repeat(l2g, L, axis=1).ravel()
    cols = np.tile(l2g, (1, L)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(ndof, ndof))
    return mat.tocsr()


def assemble_vector(l2g: np.ndarray, local: np.ndarray, ndof: int) -> np.ndarray:
    out = np.zeros(ndof)
    np.add.at(out, l2g.ravel(), local.ravel())
    return out

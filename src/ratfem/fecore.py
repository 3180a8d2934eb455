"""Element-type-independent machinery: moment tensors (exact or by a Gauss
rule), shape coefficients (reduced = full with interpolated edge dofs), dof
layouts, the mesh phase, scatter plans and assembly, which forms blocks once
per element class and sums every sparse and every load entry in element order.

All exact reference tensors are computed once per process by exact rational
quadrature and floated at the very end, so recomputation is bit-reproducible.
"""

from __future__ import annotations

import operator
from collections import namedtuple
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
#: The P2 Lagrange nodes, in :func:`lagrange_basis` (degree 2) order.
P2_NODES = VERTS + MIDS


def quadrature_rule(quadrature):
    """"exact", or the integer n of the n-point Gauss rule; a float, a string
    or a bool is a TypeError, never a truncated or an implied rule."""
    if isinstance(quadrature, bool):
        raise TypeError("a bool is no quadrature rule")
    return quadrature if quadrature == "exact" else operator.index(quadrature)


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
    quadrature = quadrature_rule(quadrature)
    if quadrature != "exact":
        bary, w2 = gauss_points(quadrature)
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


def lagrange_basis(degree: int):
    """Barycentric Lagrange basis in the order of VERTS, or of P2_NODES."""
    lam = [RatCombo.lam(j) for j in range(3)]
    if degree == 1:
        return lam
    if degree == 2:
        vertex = [2 * (l * l) - l for l in lam]
        edge = [4 * (lam[(j + 1) % 3] * lam[(j + 2) % 3]) for j in range(3)]
        return vertex + edge
    raise ValueError(f"unsupported Lagrange degree {degree}")


def shape_coefficients(V, variant: str, frames, rows) -> np.ndarray:
    """Coefficient matrices of the nodal shape functions in the 12-basis.

    Full element: inv(V), shape (p,12,12).  Reduced element: inv(V) R,
    (p,12,9), the full basis with each edge dof interpolated from its
    endpoints.  R is the identity on the first nine dofs; edge dof 9+j (edge
    j, opposite vertex j) is a vector quantity taken along frames[:, j] at the
    midpoint, whose x and y components at vertex i are dofs rows[0]+i and
    rows[1]+i, so row 9+j of R averages them over the edge's endpoints.
    """
    if variant == "full":
        return np.linalg.inv(V)
    R = np.tile(np.eye(12, 9), (V.shape[0], 1, 1))
    for j in range(3):
        for i in ((j + 1) % 3, (j + 2) % 3):
            R[:, 9 + j, [rows[0] + i, rows[1] + i]] = 0.5 * frames[:, j]
    return np.linalg.inv(V) @ R


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


MeshPhase = namedtuple("MeshPhase", "area G GG C ndof l2g free inv plan",
                       defaults=(None,))


def mesh_phase(tria, variant: str, layouts: dict, coefficients) -> MeshPhase:
    """The :class:`MeshPhase`, read-only as systems share it: one row per class
    of the elements whose area, G = Dlam, normals and tangents agree byte for
    byte, inv mapping each element to its class, of area, G, GG = G G^T and
    the shape coefficients C = coefficients(G, normals, tangents) (edge frames
    in local order), which treats each element by itself; the dof layout
    (ndof, l2g, free); and no plan (an element adds its own)."""
    ndof, l2g, free = dof_layout(tria, variant, layouts)
    _, area, G = tria.geometry_arrays()
    normals, tangents = tria.normal4s[tria.s4e], tria.tangent4s[tria.s4e]
    key = np.hstack([area[:, None],
                     *(a.reshape(len(area), 6) for a in (G, normals, tangents))])
    key = key.view(np.dtype((np.void, key.itemsize * key.shape[1])))[:, 0]
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    area, G = area[first], G[first]
    C = coefficients(G, normals[first], tangents[first])
    GG = np.einsum("eic,ejc->eij", G, G)
    for array in (area, G, GG, C, l2g, free, inv):
        array.setflags(write=False)
    return MeshPhase(area, G, GG, C, ndof, l2g, free, inv)


def pad_free(free, x) -> np.ndarray:
    """A vector on all dofs: `x` on the free ones, zero on the constrained."""
    full = np.zeros(free.shape[0])
    full[free] = x
    return full


def scatter_plan(rows: np.ndarray, cols: np.ndarray, shape, keep_rows, keep_cols):
    """(slot, pattern) of local blocks (p, R, K) on rows (p, R) and cols
    (p, K) of a matrix of `shape`, kept on keep_rows x keep_cols.

    Flat local entry k adds to data slot slot[k] of the CSR pattern
    (indptr, indices, kept shape) that every matrix of the plan shares;
    entries outside the kept block go to one extra slot past its end."""
    for index, n in ((rows, shape[0]), (cols, shape[1])):
        if index.min() < 0 or index.max() >= n:
            raise IndexError("dof index out of range")
    # kept rows and columns renumbered in order, -1 where dropped
    r, c = (np.where(keep, np.cumsum(keep) - 1, -1)[index] for keep, index in
            ((keep_rows, rows[:, :, None]), (keep_cols, cols[:, None, :])))
    kept = (r >= 0) & (c >= 0)
    m, n = np.count_nonzero(keep_rows), np.count_nonzero(keep_cols)
    keys, inverse = np.unique((r * n + c)[kept], return_inverse=True)
    slot = np.full(kept.size, keys.size, dtype=np.int32)
    slot[kept.ravel()] = inverse
    row, col = divmod(keys, n)
    indptr = np.r_[0, np.cumsum(np.bincount(row, minlength=m))].astype(np.int32)
    indices = col.astype(np.int32)
    for array in (slot, indptr, indices):
        array.setflags(write=False)
    return slot, (indptr, indices, (m, n))


def assemble_matrix(plan, inv, left, local, right) -> sp.csr_matrix:
    """Sum element e's block, class inv[e]'s left^T local right (R, K) from
    maps left (c, r, R), right (c, s, K) and local tensors (c, r, s), formed
    once per class, into the CSR of a :func:`scatter_plan`: each slot from
    0.0, in element order (without classes, inv = arange(p))."""
    slot, (indptr, indices, shape) = plan
    block = np.einsum("eri,ers,esj->eij", left, local, right, optimize=True)[inv]
    data = np.bincount(slot, block.ravel(), minlength=indices.size + 1)[:-1]
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def assemble_vector(l2g: np.ndarray, inv, area, C, b_T, ndof: int) -> np.ndarray:
    """The load on all dofs: element e's area * C^T b_T, of its class inv[e]'s
    area and C (c rows) and its own b_T (p rows), summed into l2g."""
    local = area[inv, None] * np.einsum("eri,er->ei", C[inv], b_T)
    return np.bincount(l2g.ravel(), local.ravel(), minlength=ndof)

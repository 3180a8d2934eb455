"""Element-type-independent machinery: moment tensors (exact or by a Gauss
rule), reduced-element bubble corrections, shape coefficients, dof layouts,
the mesh phase, scatter plans and assembly, which maps blocks through C and
sums every sparse and every load entry in element order.

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


class ZeroBubbleDofError(ArithmeticError):
    """A bubble's own edge dof vanished (a degenerate element)."""


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
        bary, w2 = gauss_points(operator.index(quadrature))
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


def edge_corrections(V, frames, rows) -> np.ndarray:
    """Bubble weights gamma (p,3,3) that make an edge dof affine.

    Rows 9+j of the Vandermonde V hold a dof on edge j (opposite vertex j):
    a vector quantity taken along frames[:, j] at the edge midpoint.  Rows
    rows[0]+i and rows[1]+i hold its x and y components at vertex i.  For
    cubic column 6+k the weight on bubble j is (that midpoint dof minus the
    endpoint average) divided by the bubble's own dof; ZeroBubbleDofError is
    raised if that vanishes.
    """
    if np.any(np.abs(np.diagonal(V[:, 9:, 9:], axis1=1, axis2=2)) < 1e-14):
        raise ZeroBubbleDofError(
            "a bubble's own edge dof vanished at an edge midpoint")
    rx, ry = rows
    gamma = np.empty((V.shape[0], 3, 3))
    for j in range(3):
        i1, i2 = (j + 1) % 3, (j + 2) % 3
        avg = 0.5 * (
            frames[:, j, 0, None] * (V[:, rx + i1, 6:9] + V[:, rx + i2, 6:9])
            + frames[:, j, 1, None] * (V[:, ry + i1, 6:9] + V[:, ry + i2, 6:9]))
        gamma[:, j, :] = (V[:, 9 + j, 6:9] - avg) / V[:, 9 + j, 9 + j, None]
    return gamma


def shape_coefficients(V, variant: str, frames, rows) -> np.ndarray:
    """Coefficient matrices of the nodal shape functions in the 12-basis.

    Full element: inv(V), shape (p,12,12).  Reduced element: (p,12,9), the
    identity on the first nine basis functions with cubic columns 6..8
    corrected by the bubbles with weights -gamma, the :func:`edge_corrections`
    of (V, frames, rows), times inv(V[:, :9, :9]).
    """
    if variant == "full":
        return np.linalg.inv(V)
    red = np.zeros((V.shape[0], 12, 9))
    red[:, :9, :] = np.eye(9)[None, :, :]
    red[:, 9:12, 6:9] = -edge_corrections(V, frames, rows)
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


MeshPhase = namedtuple("MeshPhase", "area G GG C ndof l2g free first inv plan",
                       defaults=(None,))


def mesh_phase(tria, variant: str, layouts: dict, coefficients) -> MeshPhase:
    """The :class:`MeshPhase`, read-only as systems share it: area, G = Dlam,
    GG = G G^T, the shape coefficients C, the dof layout (ndof, l2g, free), the
    class map (first, inv) of the elements whose area, G, normals and tangents
    agree byte for byte, and no plan (an element adds its own).  C =
    coefficients(G, normals, tangents) (edge frames in local order) runs on
    each class's first element and is gathered by inv: bitwise a per-element
    C, as it treats each by itself."""
    ndof, l2g, free = dof_layout(tria, variant, layouts)
    _, area, G = tria.geometry_arrays()
    normals, tangents = tria.normal4s[tria.s4e], tria.tangent4s[tria.s4e]
    key = np.hstack([area[:, None],
                     *(a.reshape(len(area), 6) for a in (G, normals, tangents))])
    key = key.view(np.dtype((np.void, key.itemsize * key.shape[1])))[:, 0]
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    C = coefficients(G[first], normals[first], tangents[first])[inv]
    GG = np.einsum("eic,ejc->eij", G, G)
    for array in (area, G, GG, C, l2g, free, first, inv):
        array.setflags(write=False)
    return MeshPhase(area, G, GG, C, ndof, l2g, free, first, inv)


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


def assemble_matrix(plan, left, local, right) -> sp.csr_matrix:
    """Sum the element blocks left^T local right, (p, R, K) from maps left
    (p, r, R), right (p, s, K) and local tensors (p, r, s), into the CSR of a
    :func:`scatter_plan`: each slot from 0.0, in element order."""
    slot, (indptr, indices, shape) = plan
    block = np.einsum("eri,ers,esj->eij", left, local, right, optimize=True)
    data = np.bincount(slot, block.ravel(), minlength=indices.size + 1)[:-1]
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def assemble_vector(l2g: np.ndarray, area, C, b_T, ndof: int) -> np.ndarray:
    """The load on all dofs: each element's area * C^T b_T summed into l2g."""
    local = area[:, None] * np.einsum("eri,er->ei", C, b_T)
    return np.bincount(l2g.ravel(), local.ravel(), minlength=ndof)

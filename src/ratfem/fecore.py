"""Element-type-independent machinery: moment tensors (exact or by a Gauss
rule), load evaluation, reduced-element bubble corrections, shape
coefficients, dof layouts, the mesh phase with its scatter plan, and assembly.

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


def mesh_phase(tria, variant: str, layouts: dict, coefficients):
    """What assembly needs that no quadrature changes: area, G = Dlam, G G^T,
    the shape coefficients C = coefficients(G, normals, tangents) (edge frames
    in local order), (ndof, l2g, free) and the :func:`scatter_plan` of the
    free x free block; read-only, as systems share them."""
    ndof, l2g, free = dof_layout(tria, variant, layouts)
    _, area, G = tria.geometry_arrays()
    C = coefficients(G, tria.normal4s[tria.s4e], tria.tangent4s[tria.s4e])
    GG = np.einsum("eic,ejc->eij", G, G)
    for array in (area, G, GG, C, l2g, free):
        array.setflags(write=False)
    plan = scatter_plan(l2g, l2g, (ndof, ndof), free, free)
    return area, G, GG, C, ndof, l2g, free, plan


def pad_free(free, x) -> np.ndarray:
    """A vector on all dofs: `x` on the free ones, zero on the constrained."""
    full = np.zeros(free.shape[0])
    full[free] = x
    return full


def scatter_plan(rows: np.ndarray, cols: np.ndarray, shape, keep_rows, keep_cols):
    """(order, slot, pattern) of local blocks (p, R, K) on rows (p, R) and
    cols (p, K) of a matrix of `shape`, kept on keep_rows x keep_cols.

    Summand k, the flat local entry order[k], adds to data slot slot[k] of
    the CSR `pattern` that every matrix of the plan shares; summands outside
    the kept block are dropped.  Each kept entry sums what
    coo_matrix(...).tocsr()[keep_rows][:, keep_cols] sums, in SciPy's order,
    found by letting it move index tags: COO -> CSR sorts stably by row,
    csr_sort_indices by column, duplicates add left to right, and the kept
    block is SciPy's own extraction of the whole pattern."""
    R, K = rows.shape[1], cols.shape[1]
    for index, n in ((rows, shape[0]), (cols, shape[1])):
        if index.min() < 0 or index.max() >= n:
            raise IndexError("dof index out of range")
    # stable by row: (element, local row) pairs stably by row, each with K columns
    pairs = np.argsort(rows.ravel(), kind="stable")
    by_row = (pairs[:, None] * K + np.arange(K)).ravel()
    row_of = np.repeat(rows.ravel()[pairs], K)
    indptr = np.r_[0, np.cumsum(np.bincount(row_of, minlength=shape[0]))]
    tags = sp.csr_matrix((by_row.astype(float), cols[pairs // R].ravel(), indptr),
                         shape=shape)
    tags.sort_indices()
    first = np.r_[True, (np.diff(tags.indices) != 0) | (np.diff(row_of) != 0)]
    slots = np.cumsum(first, dtype=np.int32)        # slots up to each summand
    whole = sp.csr_matrix((np.arange(slots[-1], dtype=np.int32), tags.indices[first],
                           np.r_[0, slots][tags.indptr]), shape=shape)
    pattern = whole[keep_rows][:, keep_cols]
    remap = np.full(whole.nnz, -1, dtype=np.int32)
    remap[pattern.data] = np.arange(pattern.nnz, dtype=np.int32)
    slot = remap[slots - 1]
    kept = slot >= 0
    plan = tags.data[kept].astype(np.int32), slot[kept], pattern
    for array in (*plan[:2], pattern.data, pattern.indices, pattern.indptr):
        array.setflags(write=False)
    return plan


def assemble_matrix(plan, local: np.ndarray) -> sp.csr_matrix:
    """Sum local blocks into the CSR of a :func:`scatter_plan`, byte for byte
    what coo_matrix(...).tocsr()[keep_rows][:, keep_cols] gives: each slot
    from -0.0 (the additive identity, so signed zeros survive) left to right
    in SciPy's order."""
    order, slot, pattern = plan
    data = np.full(pattern.nnz, -0.0)
    np.add.at(data, slot, local.ravel()[order])
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def assemble_vector(l2g: np.ndarray, local: np.ndarray, ndof: int) -> np.ndarray:
    out = np.zeros(ndof)
    np.add.at(out, l2g.ravel(), local.ravel())
    return out

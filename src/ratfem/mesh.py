"""Conforming triangulations: coarse domains, red refinement, newest-vertex
bisection with Dörfler marking, and per-element affine geometry.

Data layout follows the usual c4n/n4e/n4s/s4e convention: vertex coordinates,
element vertex triples, edge vertex pairs (sorted ascending), and the
element-to-edge table with edge j opposite local vertex j.  Every edge carries
one global unit normal (the 90-degree clockwise rotation of the unit tangent
from its lower- to its higher-numbered vertex) so that edge degrees of freedom
are single-valued across neighbouring elements.

The refinement edge for newest-vertex bisection is the edge between the first
two vertices of each element row.  Edges are numbered in order of first
appearance and new vertices in order of first use, element by element.
"""

from __future__ import annotations

import numpy as np


class DegenerateElementError(ValueError):
    pass


class DegenerateBarycenterError(ValueError):
    pass


class MeshFormatError(ValueError):
    pass


class Triangulation:
    """Immutable conforming triangulation of a polygonal domain."""

    def __init__(self, c4n, n4e):
        self.c4n = np.asarray(c4n, dtype=float)
        self.n4e = np.asarray(n4e, dtype=int)
        if self.c4n.ndim != 2 or self.c4n.shape[1] != 2:
            raise MeshFormatError("c4n must be (m, 2)")
        if self.n4e.ndim != 2 or self.n4e.shape[1] != 3:
            raise MeshFormatError("n4e must be (p, 3)")
        if not np.all(np.isfinite(self.c4n)):
            raise MeshFormatError("vertex coordinates must be finite")
        if np.any((self.n4e < 0) | (self.n4e >= self.c4n.shape[0])):
            raise MeshFormatError(
                f"vertex index outside [0, {self.c4n.shape[0]})")
        self._check_orientation()
        self._build_edges()
        self.c4n.setflags(write=False)
        self.n4e.setflags(write=False)

    # -- construction helpers -------------------------------------------------

    def _check_orientation(self):
        det = _det(self.c4n[self.n4e])
        if np.any(det <= 0):
            bad = int(np.argmin(det))
            raise DegenerateElementError(
                f"element {bad} not positively oriented (det={det[bad]})")

    def _build_edges(self):
        # edge j joins local vertices j+1 and j+2; number edges by first
        # appearance, element by element
        keys = np.sort(self.n4e[:, [[1, 2], [2, 0], [0, 1]]], axis=2)
        uniq, first, inverse, counts = np.unique(
            keys.reshape(-1, 2), axis=0, return_index=True,
            return_inverse=True, return_counts=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.n4s = uniq[order]
        self.s4e = rank[inverse].reshape(-1, 3)
        if np.any(counts > 2):
            raise MeshFormatError("edge shared by more than two elements")
        self.boundary_edge = counts[order] == 1
        self.boundary_vertex = np.zeros(self.c4n.shape[0], dtype=bool)
        self.boundary_vertex[self.n4s[self.boundary_edge]] = True
        tang = self.c4n[self.n4s[:, 1]] - self.c4n[self.n4s[:, 0]]
        tang /= np.linalg.norm(tang, axis=1)[:, None]
        # global normal: clockwise rotation of the min->max tangent
        self.normal4s = np.column_stack([tang[:, 1], -tang[:, 0]])
        self.tangent4s = tang
        self.normal4s.setflags(write=False)
        self.tangent4s.setflags(write=False)

    # -- invariants and queries -----------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.c4n.shape[0]

    @property
    def num_elements(self) -> int:
        return self.n4e.shape[0]

    @property
    def num_edges(self) -> int:
        return self.n4s.shape[0]

    def areas(self) -> np.ndarray:
        return _det(self.c4n[self.n4e]) / 2.0

    def midpoints(self) -> np.ndarray:
        return self.c4n[self.n4e].mean(axis=1)

    def min_angle(self) -> float:
        v = self.c4n[self.n4e]
        best = np.inf
        for j in range(3):
            a = v[:, (j + 1) % 3] - v[:, j]
            b = v[:, (j + 2) % 3] - v[:, j]
            cosang = np.sum(a * b, axis=1) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
            best = min(best, float(np.arccos(np.clip(cosang, -1, 1)).min()))
        return best

    def geometry_arrays(self):
        """Vectorized per-element geometry: DF (p,2,2), area (p,), G=Dlam (p,3,2)."""
        return _affine(self.c4n[self.n4e])


def _det(v):
    """det DF = twice the signed area, for vertex triples v of shape (..., 3, 2)."""
    return ((v[..., 1, 0] - v[..., 0, 0]) * (v[..., 2, 1] - v[..., 0, 1])
            - (v[..., 2, 0] - v[..., 0, 0]) * (v[..., 1, 1] - v[..., 0, 1]))


def _affine(v):
    """DF (p,2,2), area (p,) and G = Dlam (p,3,2) of vertex triples v (p,3,2)."""
    df = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
    det = _det(v)
    inv = np.stack([df[:, 1, 1], -df[:, 0, 1], -df[:, 1, 0], df[:, 0, 0]],
                   axis=1).reshape(-1, 2, 2) / det[:, None, None]
    gref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    g = np.einsum("ik,ekj->eij", gref, inv)
    return df, det / 2.0, g


# -- coarse meshes -------------------------------------------------------------

def unit_square_mesh() -> Triangulation:
    """Two-triangle mesh of (0,1)^2; refinement edges on the diagonal."""
    c4n = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    n4e = [[2, 0, 1], [0, 2, 3]]
    return Triangulation(c4n, n4e)


def lshape_mesh() -> Triangulation:
    """Six-triangle mesh of (-1,1)^2 minus [0,1)^2, reentrant corner at 0."""
    c4n = [[-1.0, -1.0], [0.0, -1.0], [1.0, -1.0],
           [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0],
           [-1.0, 1.0], [0.0, 1.0]]
    n4e = [[4, 0, 1], [0, 4, 3],
           [5, 1, 2], [1, 5, 4],
           [7, 3, 4], [3, 7, 6]]
    return Triangulation(c4n, n4e)


# -- refinement ----------------------------------------------------------------

def refine_uniform(t: Triangulation) -> Triangulation:
    """Red refinement: each triangle splits into four congruent children.

    The midpoint of edge k becomes vertex num_vertices + k.
    """
    mids = (t.c4n[t.n4s[:, 0]] + t.c4n[t.n4s[:, 1]]) / 2.0
    v0, v1, v2 = t.n4e.T
    m12, m02, m01 = (t.num_vertices + t.s4e).T   # edge j is opposite v_j
    children = np.stack([v0, m01, m02, m01, v1, m12,
                         m02, m12, v2, m12, m02, m01], axis=1)
    return Triangulation(np.vstack([t.c4n, mids]), children.reshape(-1, 3))


def dorfler_mark(eta2, theta: float):
    """Greedy minimal set carrying a theta-fraction of the total indicator.

    Elements are taken by decreasing indicator, ties toward the lower element
    index (stable sort), while the sum of those taken before stays below
    theta times the total.
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    eta2 = np.asarray(eta2, dtype=float)
    order = np.argsort(-eta2, kind="stable")
    # np.cumsum adds in sequence, so before[k] is the greedy running sum
    before = np.cumsum(np.concatenate([[0.0], eta2[order]]))[:-1]
    stop = np.flatnonzero(before >= theta * eta2.sum())
    return order[:stop[0] if stop.size else order.size].tolist()


def grading_indicator(t: Triangulation) -> np.ndarray:
    """eta^2(T) = |mid(T)|^-2 |T|^(5/7), grading toward the origin."""
    mid = t.midpoints()
    r2 = np.sum(mid ** 2, axis=1)
    if np.any(r2 == 0.0):
        raise DegenerateBarycenterError("element barycenter at the origin")
    return r2 ** -1 * t.areas() ** (5.0 / 7.0)


def refine_bisect(t: Triangulation, marked) -> Triangulation:
    """Newest-vertex bisection of the marked elements with conforming closure.

    The refinement edge of element (a, b, c) is (a, b), its local edge 2.
    Closure marks the refinement edge of every element with a marked edge.
    A marked element splits at m, the midpoint of (a, b), into (c, a, m) and
    (b, c, m); each child splits again at the midpoint of its refinement edge
    (c, a) or (b, c) when that parent edge is marked.  New vertices are
    numbered in order of first use: element by element, (a, b) before
    (c, a) before (b, c).
    """
    refine = np.zeros(t.num_edges, dtype=bool)
    refine[t.s4e[np.fromiter(marked, dtype=int), 2]] = True
    while (need := refine[t.s4e[:, :2]].any(axis=1)
           & ~refine[t.s4e[:, 2]]).any():
        refine[t.s4e[need, 2]] = True
    marks = refine[t.s4e]
    bc, ca, ab = marks.T
    uses = t.s4e[:, ::-1][marks[:, ::-1]]
    new = uses[np.sort(np.unique(uses, return_index=True)[1])]
    mid = np.full(t.num_edges, -1)
    mid[new] = t.num_vertices + np.arange(new.size)
    mids = (t.c4n[t.n4s[new, 0]] + t.c4n[t.n4s[new, 1]]) / 2.0
    a, b, c = t.n4e.T
    m0, m1, m = mid[t.s4e].T
    kids = np.stack([[a, b, c], [c, a, m], [m, c, m1], [a, m, m1],
                     [b, c, m], [m, b, m0], [c, m, m0]], axis=0)
    keep = np.stack([~ab, ab & ~ca, ca, ca, ab & ~bc, bc, bc], axis=1)
    return Triangulation(np.vstack([t.c4n, mids]),
                         kids.transpose(2, 0, 1)[keep])


# -- text format ----------------------------------------------------------------

def dump_mesh(t: Triangulation) -> str:
    lines = [f"nodes {t.num_vertices} elements {t.num_elements} edges {t.num_edges}"]
    for i in range(t.num_vertices):
        x, y = t.c4n[i]
        lines.append(f"{float(x)!r} {float(y)!r} {int(t.boundary_vertex[i])}")
    for tri in t.n4e:
        lines.append(f"{tri[0]} {tri[1]} {tri[2]}")
    return "\n".join(lines) + "\n"


def _fields(rows, width, kind):
    """The first `width` fields of every row, each converted by `kind`."""
    if any(len(r) < width for r in rows):
        raise MeshFormatError(f"expected {width} fields per line")
    try:
        return [[kind(x) for x in r[:width]] for r in rows]
    except ValueError as exc:
        raise MeshFormatError(f"bad mesh line: {exc}") from None


def load_mesh(text: str) -> Triangulation:
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    head = rows[0] if rows else []
    if len(head) < 6 or head[0] != "nodes" or head[2] != "elements":
        raise MeshFormatError(f"bad header: {' '.join(head)!r}")
    [[m, p]] = _fields([head[1:4:2]], 2, int)
    if len(rows) < 1 + m + p:
        raise MeshFormatError("truncated mesh file")
    return Triangulation(_fields(rows[1:1 + m], 2, float),
                         _fields(rows[1 + m:1 + m + p], 3, int))

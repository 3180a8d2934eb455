"""Per-element loop versions of the mesh connectivity and refinement code.

``ratfem.mesh`` builds edges, refines and marks with array operations; the
plain loops below spell out the numbering rules those operations must
reproduce, and ``test_mesh_reference.py`` requires exact equality between
the two.  The functions work on raw ``c4n``/``n4e`` arrays so that no step of
a reference refinement goes through the array code under test.
"""

import numpy as np


def edges_reference(c4n, n4e):
    """Edge table, boundary masks and global edge frames of (c4n, n4e).

    Edge j of an element joins its local vertices j+1 and j+2; edges are
    numbered in order of first appearance, element by element.
    """
    c4n = np.asarray(c4n, dtype=float)
    n4e = np.asarray(n4e, dtype=int)
    edge_index = {}
    edges = []
    count = []
    s4e = np.empty((n4e.shape[0], 3), dtype=int)
    for e in range(n4e.shape[0]):
        tri = n4e[e]
        for j in range(3):
            a, b = tri[(j + 1) % 3], tri[(j + 2) % 3]
            key = (a, b) if a < b else (b, a)
            idx = edge_index.get(key)
            if idx is None:
                idx = edge_index[key] = len(edges)
                edges.append(key)
                count.append(0)
            count[idx] += 1
            s4e[e, j] = idx
    n4s = np.array(edges, dtype=int)
    boundary_edge = np.array(count) == 1
    boundary_vertex = np.zeros(c4n.shape[0], dtype=bool)
    for (a, b), is_bd in zip(n4s, boundary_edge):
        if is_bd:
            boundary_vertex[a] = True
            boundary_vertex[b] = True
    tang = c4n[n4s[:, 1]] - c4n[n4s[:, 0]]
    tang = tang / np.linalg.norm(tang, axis=1)[:, None]
    return {"n4s": n4s, "s4e": s4e, "boundary_edge": boundary_edge,
            "boundary_vertex": boundary_vertex,
            "normal4s": np.column_stack([tang[:, 1], -tang[:, 0]]),
            "tangent4s": tang}


def refine_uniform_reference(c4n, n4e):
    """Red refinement: the midpoint of edge k is vertex m + k."""
    c4n = np.asarray(c4n, dtype=float)
    n4e = np.asarray(n4e, dtype=int)
    edges = edges_reference(c4n, n4e)
    n4s, s4e = edges["n4s"], edges["s4e"]
    m = c4n.shape[0]
    new_coords = [tuple(p) for p in c4n]
    for a, b in n4s:
        new_coords.append(tuple((c4n[a] + c4n[b]) / 2.0))
    children = []
    for e in range(n4e.shape[0]):
        v0, v1, v2 = n4e[e]
        m12, m02, m01 = m + s4e[e]
        children += [[v0, m01, m02], [m01, v1, m12],
                     [m02, m12, v2], [m12, m02, m01]]
    return np.array(new_coords), np.array(children)


def refine_bisect_reference(c4n, n4e, marked):
    """Newest-vertex bisection with closure, by recursion per element."""
    c4n = np.asarray(c4n, dtype=float)
    n4e = np.asarray(n4e, dtype=int)
    marked = set(int(e) for e in marked)
    if not marked:
        return c4n.copy(), n4e.copy()

    def edge_key(a, b):
        return (a, b) if a < b else (b, a)

    marked_edges = set()
    for e in marked:
        a, b, _ = n4e[e]
        marked_edges.add(edge_key(a, b))

    changed = True
    while changed:
        changed = False
        for e in range(n4e.shape[0]):
            a, b, c = n4e[e]
            if (edge_key(b, c) in marked_edges or edge_key(c, a) in marked_edges) \
                    and edge_key(a, b) not in marked_edges:
                marked_edges.add(edge_key(a, b))
                changed = True

    new_coords = [tuple(p) for p in c4n]
    midpoint_index = {}

    def midpoint(a, b):
        key = edge_key(a, b)
        idx = midpoint_index.get(key)
        if idx is None:
            idx = midpoint_index[key] = len(new_coords)
            new_coords.append(tuple((c4n[a] + c4n[b]) / 2.0))
        return idx

    children = []

    def split(a, b, c):
        if edge_key(a, b) in marked_edges:
            m = midpoint(a, b)
            split(c, a, m)
            split(b, c, m)
        else:
            children.append([a, b, c])

    for e in range(n4e.shape[0]):
        split(*n4e[e])
    return np.array(new_coords), np.array(children)


def dorfler_mark_reference(eta2, theta):
    """Greedy Dörfler marking, stable toward the lower element index."""
    eta2 = np.asarray(eta2, dtype=float)
    order = np.argsort(-eta2, kind="stable")
    total = eta2.sum()
    acc = 0.0
    marked = []
    for e in order:
        if acc >= theta * total:
            break
        marked.append(int(e))
        acc += eta2[e]
    return marked

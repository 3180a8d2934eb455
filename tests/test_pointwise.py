"""The vectorised pointwise evaluators and the shared dof layout.

element_eval, velocity_eval and divergence_pointwise (tests/felib.py)
contract basis values at all points at once; felib also keeps the per-point
formulas they replaced as references.
"""

import numpy as np
import pytest

from felib import (divergence_pointwise, divergence_pointwise_reference,
                   element_eval, element_eval_reference,
                   random_shape_regular_triangle, velocity_eval,
                   velocity_eval_reference)
from ratfem import guzman_neilan as gn
from ratfem import zienkiewicz as zk
from ratfem.fecore import MIDS, VERTS, dof_layout
from ratfem.mesh import lshape_mesh, refine_bisect
from ratfem.ratfun import SingularEvaluationError

VERTEX_POINTS = np.array(VERTS, dtype=float)


def sample(seed):
    """A random element, its 12 random dof values and points on it."""
    rng = np.random.default_rng(seed)
    tri = random_shape_regular_triangle(rng)
    inner = rng.dirichlet([1.0, 1.0, 1.0], size=6)
    t = rng.uniform(0.05, 0.95, 3)
    edge = np.column_stack([np.zeros(3), 1.0 - t, t])   # on the edge lam0 = 0
    pts = np.vstack([np.array(MIDS, dtype=float), inner, edge])
    return tri, rng.standard_normal(12), pts


@pytest.mark.parametrize("variant", ["full", "reduced"])
@pytest.mark.parametrize("seed", range(6))
def test_element_eval_matches_per_point_formula(seed, variant):
    tri, u, pts = sample(seed)
    system = zk.assemble_biharmonic(tri, variant=variant)
    u = u[:system.ndof]
    pts = np.vstack([VERTEX_POINTS, pts])
    vals, grads = element_eval(system, 0, u, pts)
    ref_vals, ref_grads, size = element_eval_reference(system, 0, u, pts)
    assert vals.shape == (len(pts),) and grads.shape == (len(pts), 2)
    assert np.abs(vals - ref_vals).max() <= 1e-12 * size
    assert np.abs(grads - ref_grads).max() <= 1e-12 * size


@pytest.mark.parametrize("variant", ["full", "reduced"])
@pytest.mark.parametrize("seed", range(6))
def test_stokes_evaluators_match_per_point_formulas(seed, variant):
    tri, u, pts = sample(100 + seed)
    system = gn.assemble_stokes(tri, variant=variant)
    u = u[:system.ndof]
    with_vertices = np.vstack([VERTEX_POINTS, pts])
    vel = velocity_eval(system, 0, u, with_vertices)
    ref_vel, size = velocity_eval_reference(system, 0, u, with_vertices)
    assert vel.shape == (len(with_vertices), 2)
    assert np.abs(vel - ref_vel).max() <= 1e-12 * size
    div = divergence_pointwise(system, 0, u, pts)
    ref_div, size = divergence_pointwise_reference(system, 0, u, pts)
    assert div.shape == (len(pts),)
    assert np.abs(div - ref_div).max() <= 1e-12 * size
    # the bubble Hessians have no limit at a vertex: both forms refuse it
    for vertex in VERTEX_POINTS:
        with pytest.raises(SingularEvaluationError):
            divergence_pointwise(system, 0, u, [vertex])
        with pytest.raises(SingularEvaluationError):
            divergence_pointwise_reference(system, 0, u, [vertex])


def on_lshape_boundary(xy):
    """Whether points lie on the boundary of (-1,1)^2 minus [0,1)^2."""
    x, y = xy[..., 0], xy[..., 1]
    return ((np.abs(x) == 1.0) | (np.abs(y) == 1.0)
            | ((x == 0.0) & (y >= 0.0)) | ((y == 0.0) & (x >= 0.0)))


#: Global dof blocks in order: one dof per vertex ("v") or per edge ("e").
LAYOUTS = [(zk, "full", "vvve"), (zk, "reduced", "vvv"),
           (gn, "full", "vvee"), (gn, "reduced", "vve")]


@pytest.mark.parametrize("module, variant, blocks", LAYOUTS)
def test_dof_layout_frees_exactly_the_interior_dofs(module, variant, blocks):
    mesh = lshape_mesh()
    mesh = refine_bisect(mesh, [0, 3])
    mesh = refine_bisect(mesh, range(0, mesh.num_elements, 3))
    ends = mesh.c4n[mesh.n4s]                       # (edges, 2, 2)
    vertex_bd = on_lshape_boundary(mesh.c4n)
    edge_bd = (on_lshape_boundary(ends).all(axis=1)
               & on_lshape_boundary(ends.mean(axis=1)))
    assert vertex_bd.any() and (~vertex_bd).any() and (~edge_bd).any()
    ndof, l2g, free = dof_layout(mesh, variant, module.LAYOUTS)
    expected_free, expected_l2g, offset = [], [], 0
    for block in blocks:
        on_bd, local = ((vertex_bd, mesh.n4e) if block == "v"
                        else (edge_bd, mesh.s4e))
        expected_free.append(~on_bd)
        expected_l2g.append(offset + local)
        offset += len(on_bd)
    assert ndof == offset == len(free)
    assert free.dtype == bool
    assert np.array_equal(free, np.concatenate(expected_free))
    assert np.array_equal(l2g, np.hstack(expected_l2g))


def test_dof_layout_rejects_unknown_variant():
    for module in (zk, gn):
        with pytest.raises(ValueError):
            dof_layout(lshape_mesh(), "mixed", module.LAYOUTS)

"""The array code of ratfem.mesh against the per-element loops in meshref.

Every comparison is exact: coordinate bits, vertex/edge/element numbers,
boundary masks and edge frames.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshref import (dorfler_mark_reference, edges_reference,
                     refine_bisect_reference, refine_uniform_reference)
from ratfem.mesh import (dorfler_mark, grading_indicator, lshape_mesh,
                         refine_bisect, refine_uniform, unit_square_mesh)


def assert_same_mesh(mesh, c4n, n4e):
    """mesh has exactly the vertices, elements and edge data of (c4n, n4e)."""
    assert mesh.c4n.tobytes() == np.asarray(c4n, dtype=float).tobytes()
    assert mesh.c4n.shape == np.shape(c4n)
    assert np.array_equal(mesh.n4e, n4e)
    ref = edges_reference(c4n, n4e)
    for name in ("n4s", "s4e", "boundary_edge", "boundary_vertex"):
        assert np.array_equal(getattr(mesh, name), ref[name]), name
    for name in ("normal4s", "tangent4s"):
        assert getattr(mesh, name).tobytes() == ref[name].tobytes(), name


def bisect_and_check(mesh, marked):
    new = refine_bisect(mesh, marked)
    assert_same_mesh(new, *refine_bisect_reference(mesh.c4n, mesh.n4e, marked))
    return new


@pytest.mark.parametrize("coarse", [unit_square_mesh, lshape_mesh])
def test_refine_uniform_matches_reference(coarse):
    mesh = coarse()
    assert_same_mesh(mesh, mesh.c4n, mesh.n4e)
    for _ in range(4):
        new = refine_uniform(mesh)
        assert_same_mesh(new, *refine_uniform_reference(mesh.c4n, mesh.n4e))
        mesh = new


def test_graded_sequence_matches_reference():
    # the rounds of experiments.graded_lshape_meshes at exp2's defaults
    # (theta 0.5, every second round bisects all elements), budget 10000
    mesh = lshape_mesh()
    rounds = 0
    while 3 * mesh.num_vertices + mesh.num_edges <= 10000:
        eta2 = grading_indicator(mesh)
        marked = dorfler_mark(eta2, 0.5)
        assert marked == dorfler_mark_reference(eta2, 0.5)
        if rounds % 2 == 1:
            marked = list(range(mesh.num_elements))
        mesh = bisect_and_check(mesh, marked)
        rounds += 1
    assert rounds == 14


def _bisected_lshapes():
    meshes = [lshape_mesh()]
    for marked in ([0], [0, 3], range(8), [5]):
        meshes.append(refine_bisect(meshes[-1], marked))
    return meshes


BISECTED = _bisected_lshapes()


@pytest.mark.parametrize("k", range(len(BISECTED)))
def test_bisect_empty_all_and_single_marks(k):
    mesh = BISECTED[k]
    p = mesh.num_elements
    for marked in ([], range(p), [0], [p - 1], [p // 2]):
        bisect_and_check(mesh, marked)


@pytest.mark.parametrize("seed", range(6))
def test_bisect_seeded_random_marks(seed):
    rng = np.random.default_rng(seed)
    mesh = BISECTED[seed % len(BISECTED)]
    for density in (0.05, 0.3, 0.7):
        marked = np.flatnonzero(rng.random(mesh.num_elements) < density)
        mesh = bisect_and_check(mesh, marked)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, len(BISECTED) - 1), data=st.data())
def test_bisect_drawn_marks(k, data):
    mesh = BISECTED[k]
    marked = data.draw(st.lists(st.integers(0, mesh.num_elements - 1),
                                unique=True))
    bisect_and_check(mesh, marked)


@settings(max_examples=200, deadline=None)
@given(eta2=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 0.25, 3.0]),
                               st.floats(0.0, 1e3)), max_size=40),
       theta=st.one_of(st.sampled_from([0.5, 1.0]),
                       st.floats(0.0, 1.0, exclude_min=True)))
def test_dorfler_matches_reference(eta2, theta):
    assert dorfler_mark(eta2, theta) == dorfler_mark_reference(eta2, theta)

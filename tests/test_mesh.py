import hashlib

import numpy as np
import pytest

from felib import domain_area, element_geometry
from ratfem.experiments import ExperimentConfig, graded_lshape_meshes, stokes_mesh
from ratfem.mesh import (DegenerateBarycenterError, DegenerateElementError,
                         MeshFormatError, Triangulation, dorfler_mark,
                         dump_mesh, grading_indicator, load_mesh, lshape_mesh,
                         refine_bisect, refine_uniform, unit_square_mesh)


def test_coarse_meshes():
    sq = unit_square_mesh()
    assert sq.num_vertices == 4 and sq.num_elements == 2
    assert domain_area(sq) == pytest.approx(1.0)
    ls = lshape_mesh()
    assert ls.num_elements == 6
    assert domain_area(ls) == pytest.approx(3.0)
    for mesh in (sq, ls):
        counts = np.zeros(mesh.num_edges, dtype=int)
        for e in range(mesh.num_elements):
            for j in range(3):
                counts[mesh.s4e[e, j]] += 1
        assert np.all(counts[mesh.boundary_edge] == 1)
        assert np.all(counts[~mesh.boundary_edge] == 2)


def test_refine_uniform():
    sq = unit_square_mesh()
    r = refine_uniform(sq)
    assert r.num_elements == 4 * sq.num_elements
    assert domain_area(r) == pytest.approx(1.0, abs=1e-12)
    assert r.num_vertices == sq.num_vertices + sq.num_edges
    parent = sq.areas()
    child = r.areas()
    for e in range(sq.num_elements):
        assert np.allclose(child[4 * e:4 * e + 4], parent[e] / 4)


def test_area_conservation_over_refinements():
    mesh = lshape_mesh()
    for _ in range(3):
        mesh = refine_uniform(mesh)
        assert domain_area(mesh) == pytest.approx(3.0, rel=1e-12)


def test_s4e_consistency():
    mesh = refine_uniform(lshape_mesh())
    for e in range(mesh.num_elements):
        for j in range(3):
            a, b = mesh.n4s[mesh.s4e[e, j]]
            others = set(mesh.n4e[e]) - {mesh.n4e[e, j]}
            assert {a, b} == others


def test_global_edge_frames():
    mesh = refine_uniform(unit_square_mesh())
    t = mesh.c4n[mesh.n4s[:, 1]] - mesh.c4n[mesh.n4s[:, 0]]
    t /= np.linalg.norm(t, axis=1)[:, None]
    # normal is the clockwise rotation of the min-to-max tangent
    assert np.allclose(mesh.normal4s, np.column_stack([t[:, 1], -t[:, 0]]))
    assert np.allclose(mesh.tangent4s, t)
    assert np.allclose(np.sum(mesh.normal4s * mesh.tangent4s, axis=1), 0.0)


def test_dorfler_examples():
    assert dorfler_mark([4, 1, 1, 1, 1], 0.5) == [0]
    assert sorted(dorfler_mark([1, 1, 1], 1.0)) == [0, 1, 2]
    assert dorfler_mark([1, 1], 0.5) == [0]
    assert dorfler_mark([], 0.5) == []
    with pytest.raises(ValueError):
        dorfler_mark([1.0], 0.0)


def test_grading_indicator():
    # area 1/2, barycenter (-1/2,-1/2): unit triangle shifted by (-5/6,-5/6)
    shift = -5.0 / 6.0
    tri = Triangulation(np.array([[0, 0], [1, 0], [0, 1]]) + shift, [[0, 1, 2]])
    assert grading_indicator(tri) == pytest.approx([2 * 0.5 ** (5.0 / 7.0)])
    # homogeneity: scaling coordinates by 2 scales eta^2 by 2^(-2) * 2^(10/7)
    tri2 = Triangulation(2 * (np.array([[0, 0], [1, 0], [0, 1]]) + shift),
                         [[0, 1, 2]])
    factor = 2.0 ** (-2) * 2.0 ** (10.0 / 7.0)
    assert grading_indicator(tri2) == pytest.approx(grading_indicator(tri) * factor)
    centered = Triangulation(
        [[-1.0, -1.0], [1.0, -1.0], [0.0, 2.0]], [[0, 1, 2]])
    with pytest.raises(DegenerateBarycenterError):
        grading_indicator(centered)


def test_refine_bisect_basics():
    ls = lshape_mesh()
    same = refine_bisect(ls, [])
    assert same.num_elements == ls.num_elements
    allb = refine_bisect(ls, range(ls.num_elements))
    assert allb.num_elements >= 2 * ls.num_elements
    assert domain_area(allb) == pytest.approx(3.0, rel=1e-12)
    one = refine_bisect(ls, [0])
    assert one.num_elements > ls.num_elements
    assert domain_area(one) == pytest.approx(3.0, rel=1e-12)


def test_refine_bisect_shape_regularity():
    mesh = lshape_mesh()
    coarse_angle = mesh.min_angle()
    worst = np.inf
    for _ in range(10):
        marked = dorfler_mark(grading_indicator(mesh), 0.5)
        mesh = refine_bisect(mesh, marked)
        worst = min(worst, mesh.min_angle())
    assert worst >= coarse_angle / 2 - 1e-12


def test_element_geometry():
    ref = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    g = element_geometry(ref, 0)
    assert np.allclose(g.DF, np.eye(2))
    assert g.area == pytest.approx(0.5)
    assert np.allclose(g.G, [[-1, -1], [1, 0], [0, 1]])
    tri = Triangulation([[0.2, -0.1], [1.4, 0.3], [0.5, 1.2]], [[0, 1, 2]])
    gg = element_geometry(tri, 0)
    assert np.allclose(gg.G.sum(axis=0), 0.0, atol=1e-14)
    v = tri.c4n[tri.n4e[0]]
    assert np.allclose(gg.G @ (v[1] - v[0]), [-1, 1, 0], atol=1e-13)
    # outward normals have unit length and positive outward component
    mid = v.mean(axis=0)
    for j in range(3):
        edge_mid = (v[(j + 1) % 3] + v[(j + 2) % 3]) / 2
        assert np.linalg.norm(gg.outward_normals[j]) == pytest.approx(1.0)
        assert gg.outward_normals[j] @ (edge_mid - mid) > 0
    with pytest.raises(DegenerateElementError):
        Triangulation([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])


def test_dump_load_roundtrip():
    mesh = refine_uniform(lshape_mesh())
    text = dump_mesh(mesh)
    back = load_mesh(text)
    assert np.array_equal(back.n4e, mesh.n4e)
    assert np.allclose(back.c4n, mesh.c4n)
    with pytest.raises(MeshFormatError):
        load_mesh("garbage 3\n")


def test_grading_indicator_congruent_symmetry():
    # two congruent elements equidistant from the origin get equal indicators
    tri = Triangulation(
        [[1.0, 1.0], [2.0, 1.0], [1.0, 2.0],
         [-1.0, -1.0], [-2.0, -1.0], [-1.0, -2.0]],
        [[0, 1, 2], [3, 4, 5]])
    eta2 = grading_indicator(tri)
    assert eta2[0] == pytest.approx(eta2[1], rel=1e-14)


def mesh_digest(meshes):
    """SHA-256 over the numbering and geometry arrays of a mesh sequence."""
    h = hashlib.sha256()
    for t in meshes:
        for a in (t.c4n, t.n4e, t.n4s, t.s4e, t.boundary_edge,
                  t.boundary_vertex, t.normal4s):
            a = np.ascontiguousarray(a, dtype="<f8")
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    return h.hexdigest()


#: Digest of every mesh the exp2 grading yields up to budget 10000, followed
#: by the 2048-element Stokes mesh.  Vertex, edge and element numbers fix the
#: dof numbering, and with the coordinate bits the order and values of every
#: floating-point sum behind the CSVs, so a rewrite of the mesh layer must
#: leave them alone.
GRADED_AND_STOKES_DIGEST = (
    "fcea2e9b4998a6acc309f1765845daeadc86540769bc661b7b0b56077e12dc31")


def test_mesh_sequence_matches_golden_digest():
    meshes = [m for _, m in graded_lshape_meshes(ExperimentConfig(budget=10000))]
    assert len(meshes) == 6
    meshes.append(stokes_mesh(2048))
    assert mesh_digest(meshes) == GRADED_AND_STOKES_DIGEST


def test_malformed_input_is_a_mesh_format_error():
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    for n4e in ([[0, 1, -1]], [[0, 1, 4]]):
        with pytest.raises(MeshFormatError, match="vertex index"):
            Triangulation(square, n4e)
    for bad in (np.nan, np.inf):
        with pytest.raises(MeshFormatError, match="finite"):
            Triangulation([[0.0, 0.0], [1.0, 0.0], [0.0, bad]], [[0, 1, 2]])
    head = "nodes 3 elements 1 edges 3\n0.0 0.0 1\n1.0 0.0 1\n0.0 1.0 1\n"
    assert load_mesh(head + "0 1 2\n").num_elements == 1
    for tail in ("0 2\n", "0 1 x\n", "0 1 2.5\n"):
        with pytest.raises(MeshFormatError):
            load_mesh(head + tail)
    for text in ("", "nodes x elements 1 edges 3\n", "nodes 3 elements 1 edges 3\n0.0\n"):
        with pytest.raises(MeshFormatError):
            load_mesh(text)

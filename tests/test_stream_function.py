"""The discrete Stokes complex of the two elements.

The Guzman-Neilan curl fields are the curls of Zienkiewicz basis functions
6..11, so the curl maps the clamped singular Zienkiewicz space into the
Guzman-Neilan velocities (Falk & Neilan, SIAM J. Numer. Anal. 51(2), 2013;
Guzman & Neilan, Math. Comp. 83, 2014).  D, the matrix of that map from free
Zienkiewicz dofs to free Guzman-Neilan dofs, is built element by element from
both elements' Vandermondes, shape coefficients and dof layouts
(`felib.curl_matrix`): it spans the kernel of B^T, and D^T A D is the plate
stiffness, since int grad curl psi : grad curl phi = int lap psi lap phi for
clamped psi, phi.
"""

import functools

import numpy as np
import pytest

from felib import curl_matrix, stokes_velocity_system
from ratfem import guzman_neilan as gn
from ratfem import solvers
from ratfem import zienkiewicz as zk
from ratfem.experiments import graded_lshape_meshes
from ratfem.mesh import (Triangulation, lshape_mesh, refine_uniform,
                         unit_square_mesh)


@functools.cache
def meshes():
    square = refine_uniform(refine_uniform(unit_square_mesh()))
    lshape = refine_uniform(refine_uniform(lshape_mesh()))
    graded = next(mesh for _, mesh in graded_lshape_meshes(
        theta=0.5, budget=3000, uniform_interval=2, solve_start=120,
        solve_factor=1.3) if mesh.num_elements > 400)
    return {"square": square, "lshape": lshape, "graded": graded}


CASES = [(name, variant) for name in ("square", "lshape", "graded")
         for variant in ("full", "reduced")]


@pytest.mark.parametrize("name, variant", CASES)
def test_curls_of_the_clamped_plate_space_span_the_discrete_kernel(name, variant):
    mesh = meshes()[name]
    D, spread = curl_matrix(mesh, variant)
    # the curl of a C1 function has one value at each shared dof
    assert spread <= 1e-12 * np.abs(D).max()
    B = gn.assemble_stokes(mesh, variant=variant).B.toarray()
    assert np.abs(B.T @ D).max() <= 1e-15 * np.abs(B).max()
    kernel_dim = B.shape[0] - np.linalg.matrix_rank(B)
    assert np.linalg.matrix_rank(D) == kernel_dim == D.shape[1]


@pytest.mark.parametrize("name, variant", CASES)
def test_the_stream_function_stiffness_is_the_plate_stiffness(name, variant):
    mesh = meshes()[name]
    D, _ = curl_matrix(mesh, variant)
    plate = zk.assemble_biharmonic(mesh, variant=variant).A.toarray()

    def stiffness(quadrature):
        system = gn.assemble_stokes(mesh, variant=variant, quadrature=quadrature)
        return stokes_velocity_system(system)[0].toarray()
    stokes = stiffness("exact")
    assert np.abs(D.T @ stokes @ D - plate).max() <= 1e-15 * np.abs(plate).max()
    # a Gauss rule does not integrate by parts: the identity needs exact means
    rule = stiffness(3)
    assert np.abs(D.T @ rule @ D - plate).max() >= 1e-4 * np.abs(plate).max()


@pytest.mark.parametrize("name, variant", CASES)
def test_the_stokes_solve_takes_this_curl_matrix(name, variant, monkeypatch):
    # the stream-function system, assembled element by element through E C,
    # is D^T A_n D and D^T b_n under exact means and under a rule alike, and
    # the solved velocity's element coefficients are w_T = C_T (D psi)|_T
    mesh = meshes()[name]
    D, _ = curl_matrix(mesh, variant)
    solved = []

    def recorded(*args, _pcg=solvers.pcg):
        solved.append(_pcg(*args))
        return solved[-1]
    monkeypatch.setattr(solvers, "pcg", recorded)
    for quadrature in ("exact", 3):
        system = gn.assemble_stokes(mesh, f=lambda x, y: (y * y, x), variant=variant,
                                    quadrature=quadrature)
        A, b = stokes_velocity_system(system)
        S = D.T @ A.toarray() @ D
        assert np.abs(system.S.toarray() - S).max() <= 1e-14 * np.abs(S).max()
        s = D.T @ b[system.phase.free]
        assert np.abs(system.s - s).max() <= 1e-14 * np.abs(s).max()
        w, _ = gn.solve_stokes(system)
        u = np.zeros(system.phase.ndof)
        u[system.phase.free] = D @ solved[-1]
        expected = np.einsum("eij,ej->ei", system.phase.C, u[system.phase.l2g])
        assert np.abs(w - expected).max() <= 1e-13 * np.abs(w).max()


def grid_mesh(cells):
    """Unit squares at the integer corners `cells`, two triangles each."""
    corners = sorted({(x + dx, y + dy) for x, y in cells
                      for dx in (0, 1) for dy in (0, 1)})
    index = {c: k for k, c in enumerate(corners)}
    n4e = []
    for x, y in cells:
        a, b, c, d = (index[(x, y)], index[(x + 1, y)], index[(x + 1, y + 1)],
                      index[(x, y + 1)])
        n4e += [[a, b, c], [a, c, d]]
    return Triangulation(corners, n4e)


@pytest.mark.parametrize("cells", [
    [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)],
    [(0, 0), (2, 0)]], ids=["hole", "two squares"])
def test_a_mesh_that_is_not_simply_connected_is_rejected(cells):
    # there the curls of the clamped plate space miss part of ker B^T: the
    # flux around the hole, or the second component's pressure constant
    mesh = grid_mesh(cells)
    assert mesh.num_vertices - mesh.num_edges + mesh.num_elements != 1
    with pytest.raises(gn.MultiplyConnectedError, match="simply connected"):
        gn.assemble_stokes(mesh)
    # a 2 x 2 block of such cells is simply connected
    gn.assemble_stokes(grid_mesh([(0, 0), (1, 0), (0, 1), (1, 1)]))

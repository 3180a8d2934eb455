"""Lowest-order Guzman-Neilan mixed element (full and reduced) for Stokes.

Velocity basis: the six P1 hat fields lam_i e_1, lam_i e_2, plus the curls of
six scalar potentials (three cubic differences and three rational bubbles).
Pressure space: piecewise constants.  Discretely divergence-free velocities
are exactly divergence-free because the divergence of every basis field is
elementwise constant (P1 part) or identically zero (curl part).

Degrees of freedom: vector point values at vertices, then normal and
tangential components at edge midpoints, both taken with the global per-edge
frames so they are single-valued across neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np

from . import fecore, zienkiewicz
from .fecore import (MIDS, P2_NODES, assemble_matrix, assemble_vector,
                     lagrange_basis, load_values, moment_tensor, pad_free,
                     scatter_plan)
from .mesh import Triangulation
from .quadrature import gauss_points
from .ratfun import gradient_values

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])   # curl g = ROT grad g


def stream_potentials():
    """The six scalar potentials whose curls extend P1^2 to the velocity space."""
    return zienkiewicz.zienkiewicz_basis()[6:12]


@dataclass(frozen=True)
class GNTables:
    """Reference tables of one quadrature: exact means, or a rule-n's sums.

    The load is sampled at `load_points`: the P2 Lagrange nodes for exact
    tables (the load is interpolated there), the rule points for a rule.
    """
    rho: tuple
    Rhat: np.ndarray      # (6,6,3,3,3,3) Hessian-product means, R_T layout
    Mhat: np.ndarray      # (6,6,2,3,3,3) P1-gradient x Hessian means
    That_gv: np.ndarray   # (3,6,3) potential lam-gradients at vertices
    That_ge: np.ndarray   # (3,6,3) potential lam-gradients at edge midpoints
    val_mid: np.ndarray   # (3,6,2) P1 vector basis values at edge midpoints
    load_points: np.ndarray   # (J,3) barycentric points the load is taken at
    bhat1: np.ndarray     # (J,3) load-point x lam moments
    bhat2: np.ndarray     # (J,3,6) load-point x potential-gradient moments
    mean_one: float       # mean of the constant 1 (2 sum w_q under a rule)


def get_tables(quadrature="exact") -> GNTables:
    """Exact tables, or those of the n-point Gauss rule for an integer n;
    each is built on first use and kept for the process."""
    return _compute_tables("exact" if quadrature == "exact" else int(quadrature))


@cache
def _compute_tables(quadrature) -> GNTables:
    # The potentials are Zienkiewicz basis functions 6..11, so
    # Rhat[r,s,i,j,k,l] = mean(H_r[i,k] H_s[j,l]) is a transpose of Ahat, and
    # Mhat places the Hessian means: P1 field r = (comp, node) is
    # lam_node e_comp, its gradient the constant delta_{i,comp} delta_{k,node}.
    zt = zienkiewicz.get_tables(quadrature)
    Rhat = np.ascontiguousarray(zt.Ahat[6:, 6:].transpose(0, 1, 2, 4, 3, 5))
    Mhat = np.zeros((6, 6, 2, 3, 3, 3))
    for r in range(6):
        comp, node = divmod(r, 3)
        Mhat[r, :, comp, :, node, :] = zt.Hmean[6:]

    if quadrature != "exact":
        # the load is sampled at the rule points instead of interpolated
        exact = get_tables()
        bary, w2 = gauss_points(quadrature)
        Gq = gradient_values(exact.rho, bary)                 # (Q,6,3)
        return replace(exact, Rhat=Rhat, Mhat=Mhat, load_points=bary,
                       bhat1=w2[:, None] * bary,
                       bhat2=w2[:, None, None] * Gq.transpose(0, 2, 1),
                       mean_one=float(w2.sum()))

    rho = stream_potentials()
    val_mid = np.zeros((3, 6, 2))
    val_mid[:, 0:3, 0] = val_mid[:, 3:6, 1] = np.array(MIDS, dtype=float)
    bhat1 = moment_tensor(lagrange_basis(2), lagrange_basis(1))
    bhat2 = moment_tensor(lagrange_basis(2),
                          [[r.diff(k) for r in rho] for k in range(3)])
    return GNTables(rho, Rhat, Mhat, zt.That_gv[:, 6:], zt.That_ge[:, 6:],
                    val_mid, np.array(P2_NODES, dtype=float), bhat1, bhat2, 1.0)


# -- local matrices --------------------------------------------------------------

def local_matrices(area, G, GG, tables):
    """Batched stiffness A_T (p,12,12) and divergence vector B_T (p,12).

    The curl fields are divergence-free, so B_T[:, 6:] is exactly zero under
    every quadrature.
    """
    p = G.shape[0]
    scale = tables.mean_one * area
    RGt = np.einsum("ab,ekb->eak", ROT, G)          # (p,2,3)
    A_T = np.zeros((p, 12, 12))
    A_T[:, 0:3, 0:3] = scale[:, None, None] * GG
    A_T[:, 3:6, 3:6] = A_T[:, 0:3, 0:3]
    A_T[:, 6:12, 6:12] = zienkiewicz.local_stiffness(area, GG, tables.Rhat)
    W = np.einsum("eij,ekl->eijkl", RGt, GG).reshape(p, 54)
    M = area[:, None, None] * (W @ tables.Mhat.reshape(36, 54).T).reshape(p, 6, 6)
    A_T[:, 0:6, 6:12] = M
    A_T[:, 6:12, 0:6] = M.transpose(0, 2, 1)

    B_T = np.zeros((p, 12))
    B_T[:, 0:3] = scale[:, None] * G[:, :, 0]
    B_T[:, 3:6] = scale[:, None] * G[:, :, 1]
    return A_T, B_T


def local_load(f, tria, G, tables) -> np.ndarray:
    """Batched load means b_T (p,12) of the vector field f = (f_x, f_y).

    f is sampled once at the tables' load points; one GEMM against
    [bhat1 | bhat2] gives each component's moments.
    """
    fvals = load_values(f, tria, tables.load_points, components=2)  # (p,2,J)
    p, _, J = fvals.shape
    bload = np.concatenate([tables.bhat1, tables.bhat2.reshape(J, 18)], axis=1)
    T = (fvals.reshape(2 * p, J) @ bload).reshape(p, 2, 21)
    b_T = np.empty((p, 12))
    b_T[:, 0:3] = T[:, 0, :3]
    b_T[:, 3:6] = T[:, 1, :3]
    # f . curl rho = f_x d_y rho - f_y d_x rho, physical gradients G^T grad
    grad = T[:, :, 3:].reshape(p, 2, 3, 6)
    b_T[:, 6:12] = (np.einsum("ek,eks->es", G[:, :, 1], grad[:, 0])
                    - np.einsum("ek,eks->es", G[:, :, 0], grad[:, 1]))
    return b_T


def local_vandermonde(G, normals, tangents) -> np.ndarray:
    """Batched 12x12 Vandermonde of the velocity dofs (exact point tables)."""
    tables = get_tables()
    p = G.shape[0]
    RGt = np.einsum("ab,ekb->eak", ROT, G)
    V = np.empty((p, 12, 12))
    V[:, 0:6, 0:6] = np.eye(6)[None, :, :]
    V[:, 6:9, 0:6] = np.einsum("eic,irc->eir", normals, tables.val_mid)
    V[:, 9:12, 0:6] = np.einsum("eic,irc->eir", tangents, tables.val_mid)
    Tgv = np.einsum("eck,isk->eisc", RGt, tables.That_gv)   # curl rho at vertices
    V[:, 0:3, 6:12] = Tgv[..., 0]
    V[:, 3:6, 6:12] = Tgv[..., 1]
    Tge = np.einsum("eck,isk->eisc", RGt, tables.That_ge)
    V[:, 6:9, 6:12] = np.einsum("eic,eisc->eis", normals, Tge)
    V[:, 9:12, 6:12] = np.einsum("eic,eisc->eis", tangents, Tge)
    return V


def shape_coefficients(V, variant, tangents=None) -> np.ndarray:
    """Shape coefficients (see :func:`fecore.shape_coefficients`); the
    reduced element makes the tangential edge traces affine, with vertex
    values in rows 0..2 (x) and 3..5 (y)."""
    return fecore.shape_coefficients(V, variant, tangents, (0, 3))


# -- global system ---------------------------------------------------------------

@dataclass
class StokesSystem:
    tria: Triangulation
    ndof: int
    l2g: np.ndarray
    free: np.ndarray
    A: "object"            # velocity stiffness, csr free x free
    B: "object"            # divergence matrix, csr free x p
    b: np.ndarray          # load on all dofs
    coeffs: np.ndarray     # (p, 12, L)
    areas: np.ndarray


#: Dof blocks (fecore.dof_layout): vertex vectors, edge normals, tangentials.
LAYOUTS = {"full": "vvee", "reduced": "vve"}


@lru_cache(maxsize=1)
def mesh_phase(tria: Triangulation, variant: str):
    """:func:`fecore.mesh_phase` of this element and the :func:`scatter_plan`
    of B's free rows (blocks (p, L, 1), column e for element e), once per
    (mesh, variant)."""
    phase = fecore.mesh_phase(
        tria, variant, LAYOUTS, lambda G, normals, tangents: shape_coefficients(
            local_vandermonde(G, normals, tangents), variant, tangents))
    ndof, l2g, free = phase[4:7]
    p = tria.num_elements
    return *phase, scatter_plan(l2g, np.arange(p)[:, None], (ndof, p), free,
                                np.ones(p, bool))


def assemble_stokes(tria: Triangulation, f=None, variant: str = "full",
                    quadrature="exact") -> StokesSystem:
    """Assemble the Stokes saddle system for the Guzman-Neilan pair.

    `quadrature` is "exact" or an integer n selecting the tensorized Gauss
    rule.  It only selects the reference tables (:func:`get_tables`): on
    affine elements the rule applied to every local integral (stiffness
    blocks, divergence entries, load) is the same contraction with rule-n
    tables.  The exact basis change is :func:`mesh_phase`'s.  The load `f`
    returns the pair (f_x, f_y); it is called once, as f(X, Y) on coordinate
    arrays of the tables' load points (see :func:`local_load`).
    """
    area, G, GG, C, ndof, l2g, free, plan, plan_B = mesh_phase(tria, variant)
    tables = get_tables(quadrature)

    A_T, B_T = local_matrices(area, G, GG, tables)
    A_loc = np.einsum("eri,ers,esj->eij", C, A_T, C, optimize=True)
    A = assemble_matrix(plan, A_loc)
    B = assemble_matrix(plan_B, np.einsum("eri,er->ei", C, B_T))

    b = np.zeros(ndof)
    if f is not None:
        b_T = local_load(f, tria, G, tables)
        b = assemble_vector(l2g, area[:, None] * np.einsum(
            "eri,er->ei", C, b_T), ndof)

    return StokesSystem(tria, ndof, l2g, free, A, B, b, C, area)


def solve_stokes(system: StokesSystem):
    """Velocity and mean-zero piecewise-constant pressure of the saddle system.

    One pressure value is pinned during the solve (kernel gauge) and the
    result is shifted to zero mean afterwards.
    """
    from .solvers import saddle_solve
    free = system.free
    nf = int(free.sum())
    B = system.B[:, 1:]          # pin pressure dof 0
    rhs = np.concatenate([system.b[free], np.zeros(B.shape[1])])
    sol = saddle_solve(system.A, B, rhs)
    u = pad_free(free, sol[:nf])
    pressure = np.concatenate([[0.0], sol[nf:]])
    # einsum, not a BLAS dot, whose sum order depends on the thread count
    pressure -= np.einsum("i,i->", system.areas, pressure) / system.areas.sum()
    return u, pressure


# -- measurements ------------------------------------------------------------------

def grad_norm(system: StokesSystem, u: np.ndarray) -> float:
    """H1 seminorm sqrt(u' A u) of a velocity u on all dofs that vanishes on
    the constrained ones, taken with this system's stiffness.

    Pass a system assembled with exact quadrature so the measurement does not
    inherit the defect of an inexact solve.
    """
    # A u is padded to all dofs so that the einsum sums the n terms of u' A u
    # in their order (a sum over the free dofs alone rounds differently);
    # einsum, not a BLAS dot, whose sum order depends on the thread count
    Au = pad_free(system.free, system.A @ u[system.free])
    return float(np.sqrt(max(np.einsum("i,i->", u, Au), 0.0)))


def divergence_l2(exact_system: StokesSystem, u: np.ndarray) -> float:
    """L2 norm of div u_h for u on all dofs that vanishes on the constrained
    ones; the elementwise divergence is constant."""
    means = (exact_system.B.T @ u[exact_system.free]) / exact_system.areas
    return float(np.sqrt(np.sum(exact_system.areas * means ** 2)))

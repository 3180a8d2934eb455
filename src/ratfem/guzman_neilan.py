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

from . import fecore, solvers, zienkiewicz
from .fecore import (MIDS, P2_NODES, assemble_matrix, assemble_vector,
                     lagrange_basis, moment_tensor, pad_free, scatter_plan)
from .mesh import Triangulation

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])   # curl g = ROT grad g


def stream_potentials():
    """The six scalar potentials whose curls extend P1^2 to the velocity space."""
    return zienkiewicz.zienkiewicz_basis()[6:12]


@dataclass(frozen=True)
class GNTables:
    """Reference tables of one quadrature: exact means, or a rule-n's sums.

    A rule's tables are the exact ones but for the means Rhat, Mhat, bhat1
    and bhat2.  Under every quadrature the load is interpolated at the P2
    Lagrange nodes, and the bhat tables are that interpolant's moments.
    """
    Rhat: np.ndarray      # (6,6,3,3,3,3) Hessian-product means, R_T layout
    Mhat: np.ndarray      # (6,6,2,3,3,3) P1-gradient x Hessian means
    That_gv: np.ndarray   # (3,6,3) potential lam-gradients at vertices
    That_ge: np.ndarray   # (3,6,3) potential lam-gradients at edge midpoints
    val_mid: np.ndarray   # (3,6,2) P1 vector basis values at edge midpoints
    bhat1: np.ndarray     # (6,3) P2 Lagrange x lam moments
    bhat2: np.ndarray     # (6,3,6) P2 Lagrange x potential-gradient moments


def get_tables(quadrature="exact") -> GNTables:
    """Exact tables, or those of the n-point Gauss rule for an integer n;
    each is built on first use and kept for the process."""
    return _compute_tables(fecore.quadrature_rule(quadrature))


@cache
def _compute_tables(quadrature) -> GNTables:
    # The potentials are Zienkiewicz basis functions 6..11, so
    # Rhat[r,s,i,j,k,l] = mean(H_r[i,k] H_s[j,l]) is a transpose of Ahat, and
    # Mhat places the Hessian means: P1 field r = (comp, node) is
    # lam_node e_comp, its gradient the constant delta_{i,comp} delta_{k,node}.
    zt = zienkiewicz.get_tables(quadrature)
    Mhat = np.zeros((6, 6, 2, 3, 3, 3))
    for r in range(6):
        comp, node = divmod(r, 3)
        Mhat[r, :, comp, :, node, :] = zt.Hmean[6:]
    p2 = lagrange_basis(2)
    grads = [[r.diff(k) for r in stream_potentials()] for k in range(3)]
    means = dict(
        Rhat=np.ascontiguousarray(zt.Ahat[6:, 6:].transpose(0, 1, 2, 4, 3, 5)),
        Mhat=Mhat, bhat1=moment_tensor(p2, lagrange_basis(1), quadrature),
        bhat2=moment_tensor(p2, grads, quadrature))
    if quadrature != "exact":
        return replace(get_tables(), **means)
    val_mid = np.zeros((3, 6, 2))
    val_mid[:, 0:3, 0] = val_mid[:, 3:6, 1] = np.array(MIDS, dtype=float)
    return GNTables(That_gv=zt.That_gv[:, 6:], That_ge=zt.That_ge[:, 6:],
                    val_mid=val_mid, **means)


# -- local matrices --------------------------------------------------------------

def local_matrices(area, G, GG, tables):
    """Batched stiffness A_T (p,12,12).  The P1 block's integrand is
    constant, so it takes no table."""
    p = G.shape[0]
    RGt = np.einsum("ab,ekb->eak", ROT, G)          # (p,2,3)
    A_T = np.zeros((p, 12, 12))
    A_T[:, 0:3, 0:3] = area[:, None, None] * GG
    A_T[:, 3:6, 3:6] = A_T[:, 0:3, 0:3]
    A_T[:, 6:12, 6:12] = zienkiewicz.local_stiffness(area, GG, tables.Rhat)
    W = np.einsum("eij,ekl->eijkl", RGt, GG).reshape(p, 54)
    M = area[:, None, None] * (W @ tables.Mhat.reshape(36, 54).T).reshape(p, 6, 6)
    A_T[:, 0:6, 6:12] = M
    A_T[:, 6:12, 0:6] = M.transpose(0, 2, 1)
    return A_T


def local_divergence(area, G):
    """Batched divergence vector B_T (p,12) under every quadrature: the
    divergences are constant (P1 fields) or zero (curl fields)."""
    B_T = np.zeros((G.shape[0], 12))
    B_T[:, 0:6] = np.einsum("e,ekc->eck", area, G).reshape(-1, 6)
    return B_T


def local_load(f, tria, G, tables) -> np.ndarray:
    """Batched load means b_T (p,12) of the vector field f = (f_x, f_y),
    interpolated in P2 at the nodes.

    f is called once, on coordinate arrays X, Y of shape (p, 6) of every
    element's P2 nodes, and returns two arrays broadcastable to that shape;
    one GEMM against [bhat1 | bhat2] gives each component's moments.
    """
    verts = tria.c4n[tria.n4e]                         # (p, 3, 2)
    bary = np.array(P2_NODES, dtype=float)
    X, Y = verts[:, :, 0] @ bary.T, verts[:, :, 1] @ bary.T
    try:
        vals = f(X, Y)
    except (TypeError, ValueError) as exc:
        raise TypeError("load callbacks are called once per assembly as "
                        f"f(X, Y) on coordinate arrays of shape {X.shape}; "
                        f"this one failed on arrays: {exc}") from exc
    parts = list(vals) if np.iterable(vals) else [vals]
    if len(parts) != 2:
        raise TypeError(f"load callback returned {len(parts)} components, "
                        "expected 2")
    try:
        fvals = np.stack([np.broadcast_to(np.asarray(v, dtype=float), X.shape)
                          for v in parts], axis=1)                 # (p,2,6)
    except ValueError as exc:
        raise TypeError("load callback values must broadcast to the "
                        f"coordinate shape {X.shape}: {exc}") from exc
    p = fvals.shape[0]
    bload = np.concatenate([tables.bhat1, tables.bhat2.reshape(6, 18)], axis=1)
    T = (fvals.reshape(2 * p, 6) @ bload).reshape(p, 2, 21)
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

class MultiplyConnectedError(ValueError):
    """V - E + F is not 1: the curls of the plate space miss part of ker B^T."""


def curl_coefficients(G, C) -> np.ndarray:
    """E C (p, 12, L): 12-basis coefficients of the curls of Zienkiewicz shape
    functions C; E keeps the shared potentials, and a quadratic's curl is P1."""
    E = np.einsum("ab,ekb,isk->eais", ROT, G, zienkiewicz.get_tables().That_gv[:, :6])
    return np.concatenate([np.einsum("ers,esj->erj", E.reshape(-1, 6, 6), C[:, :6]),
                           C[:, 6:]], axis=1)


@dataclass
class StokesSystem:
    tria: Triangulation
    phase: fecore.MeshPhase    # the velocity's, see :func:`mesh_phase`
    B_T: np.ndarray        # element divergence vectors (p, 12)
    B: "object"            # divergence matrix, csr free x p
    stream: fecore.MeshPhase   # the stream function's; its C is E C
    pressure_lu: "object"      # factorize_spd of B_1^T B_1, B_1 = B[:, 1:]
    A_T: np.ndarray        # element stiffnesses (p, 12, 12) of the quadrature
    b_T: np.ndarray        # element load means (p, 12) of the quadrature
    S: "object"            # stream-function stiffness D^T A D, csr
    s: np.ndarray          # its load D^T b, on the free Zienkiewicz dofs


#: Dof blocks (fecore.dof_layout): vertex vectors, edge normals, tangentials.
LAYOUTS = {"full": "vvee", "reduced": "vve"}


@lru_cache(maxsize=1)
def mesh_phase(tria: Triangulation, variant: str):
    """(phase, B_T, B, stream, pressure_lu) once per simply connected (mesh,
    variant) for all rules: this element's :func:`fecore.mesh_phase`, its
    divergence vectors B_T, the read-only divergence matrix B on the free rows
    (column e for element e), the stream function's zienkiewicz.mesh_phase(tria,
    variant, curl_coefficients), whose C is E C and whose class map is this
    one, and the LU of B_1^T B_1, B_1 = B[:, 1:]."""
    if tria.num_vertices - tria.num_edges + tria.num_elements != 1:
        raise MultiplyConnectedError("the Stokes solve needs a simply connected mesh")
    phase = fecore.mesh_phase(
        tria, variant, LAYOUTS, lambda G, normals, tangents: shape_coefficients(
            local_vandermonde(G, normals, tangents), variant, tangents))
    p = tria.num_elements
    B_T = local_divergence(phase.area, phase.G)
    B_T.setflags(write=False)
    plan = scatter_plan(phase.l2g, np.arange(p)[:, None], (phase.ndof, p),
                        phase.free, np.ones(p, bool))
    B = assemble_matrix(plan, phase.C, B_T[..., None], np.ones((p, 1, 1)))
    B.data.setflags(write=False)
    stream = zienkiewicz.mesh_phase(tria, variant, curl_coefficients)
    # one element leaves no pressure unknown beside the pinned one
    pressure_lu = solvers.factorize_spd(B[:, 1:].T @ B[:, 1:]) if p > 1 else None
    return phase, B_T, B, stream, pressure_lu


def assemble_stokes(tria: Triangulation, f=None, variant: str = "full",
                    quadrature="exact") -> StokesSystem:
    """The element tensors A_T, b_T of the Guzman-Neilan pair and the
    stream-function system S = D^T A D, s = D^T b that E C assembles from them.

    `quadrature` is "exact" or an integer n selecting the tensorized Gauss
    rule, which on affine elements only selects the reference tables
    (:func:`get_tables`); the exact basis changes are :func:`mesh_phase`'s,
    and A_T is computed once per class of its class map.  The load `f`
    returns the pair (f_x, f_y); it is called once, as f(X, Y) on coordinate
    arrays of the P2 nodes (see :func:`local_load`).
    """
    phase, B_T, B, stream, pressure_lu = mesh_phase(tria, variant)
    area, G, first, tables = phase.area, phase.G, phase.first, get_tables(quadrature)
    A_T = local_matrices(area[first], G[first], phase.GG[first], tables)[phase.inv]
    b_T = np.zeros((len(area), 12)) if f is None else local_load(f, tria, G, tables)
    return StokesSystem(
        tria, phase, B_T, B, stream, pressure_lu, A_T, b_T,
        assemble_matrix(stream.plan, stream.C, A_T, stream.C),
        assemble_vector(stream.l2g, area, stream.C, b_T, stream.ndof)[stream.free])


def solve_stokes(system: StokesSystem, lu=None):
    """Velocity as 12-basis coefficients w_T = (E C psi)_T per element, psi
    by :func:`solvers.pcg` on S psi = s with `lu`, S's factorize_spd (made if
    None) or a nearby system's, and pressure from B_1^T B_1 p = B_1^T (A u - b),
    summed from the residuals A_T w_T - |T| b_T, with dof 0 pinned (kernel
    gauge), then shifted to zero mean."""
    psi = system.s      # empty where no Zienkiewicz dof is free: w = 0
    if psi.size:
        psi = solvers.pcg(system.S, psi, lu or solvers.factorize_spd(system.S))
    phase, stream, area = system.phase, system.stream, system.phase.area
    w = np.einsum("eri,ei->er", stream.C, pad_free(stream.free, psi)[stream.l2g])
    r = assemble_vector(phase.l2g, np.ones_like(area), phase.C,
                        np.einsum("ers,es->er", system.A_T, w)
                        - area[:, None] * system.b_T, phase.ndof)
    rhs = system.B[:, 1:].T @ r[phase.free]
    pressure = np.concatenate([[0.0], system.pressure_lu.solve(rhs) if rhs.size else rhs])
    # einsum, not a BLAS dot, whose sum order depends on the thread count
    pressure -= np.einsum("i,i->", area, pressure) / area.sum()
    return w, pressure


# -- measurements ------------------------------------------------------------------

def grad_norm(system: StokesSystem, w: np.ndarray) -> float:
    """H1 seminorm sqrt(sum_T w_T^T A_T w_T) of the velocity with element
    coefficients w (p, 12), from this system's element stiffnesses.

    Pass a system assembled with exact quadrature so the measurement does not
    inherit the defect of an inexact solve.
    """
    # einsum, not BLAS, whose sum order depends on the thread count
    return float(np.sqrt(max(np.einsum("ei,eij,ej->", w, system.A_T, w), 0.0)))


def divergence_l2(exact_system: StokesSystem, w: np.ndarray) -> float:
    """L2 norm of div u_h for element coefficients w (p, 12); the divergence
    on T is the constant B_T . w_T / |T|."""
    means = np.einsum("ei,ei->e", exact_system.B_T, w) / exact_system.phase.area
    return float(np.sqrt(np.sum(exact_system.phase.area * means ** 2)))

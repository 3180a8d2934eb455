"""Singular (and reduced singular) Zienkiewicz element for the biharmonic
problem: local bases, exact reference tensors, Vandermonde basis change,
global assembly with clamped-plate constraints, and the eigenvalue solve.

Local basis ordering: six quadratic monomials lam2^2, lam1*lam2, lam1^2,
lam0*lam2, lam0*lam1, lam0^2; three cubic differences lam_j^2 lam_{j+1} -
lam_j lam_{j+1}^2; three rational edge bubbles.  Degrees of freedom are point
values, the two gradient components at the vertices, and normal derivatives
at edge midpoints (global edge normals).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np

from . import fecore, solvers
from .fecore import (MIDS, VERTS, assemble_matrix, lagrange_basis,
                     moment_tensor, pad_free, scatter_plan)
from .mesh import Triangulation
from .ratfun import RatCombo, bubble, combo_values, gradient_values


@cache
def zienkiewicz_basis() -> tuple:
    """The 12 local basis functions of the singular Zienkiewicz space, built
    once per process so that every table shares their kept derivatives."""
    lam = [RatCombo.lam(j) for j in range(3)]
    quad = [lam[2] * lam[2], lam[1] * lam[2], lam[1] * lam[1],
            lam[0] * lam[2], lam[0] * lam[1], lam[0] * lam[0]]
    cubic = [lam[j] * lam[j] * lam[(j + 1) % 3]
             - lam[j] * lam[(j + 1) % 3] * lam[(j + 1) % 3] for j in range(3)]
    bubbles = [bubble(j) for j in range(3)]
    return tuple(quad + cubic + bubbles)


@dataclass(frozen=True)
class ZienkiewiczTables:
    """Reference tables of one quadrature: exact means, or a rule-n's sums.

    Every quadrature shares the exact point-evaluation tables (That_*);
    Ahat, Mhat, bhat and Hmean are means, taken exactly or by the rule.
    """
    Ahat: np.ndarray     # (12,12,3,3,3,3) means of Hessian-entry products
    Mhat: np.ndarray     # (12,12) means of value products
    That_v: np.ndarray   # (3,12) values at vertices
    That_gv: np.ndarray  # (3,12,3) lam-gradients at vertices
    That_ge: np.ndarray  # (3,12,3) lam-gradients at edge midpoints
    bhat: np.ndarray     # (6,12) P2 Lagrange moments, only dumped
    Hmean: np.ndarray    # (12,3,3) means of the lam-Hessian entries


def get_tables(quadrature="exact") -> ZienkiewiczTables:
    """Exact tables, or those of the n-point Gauss rule for an integer n;
    each is built on first use and kept for the process."""
    return _compute_tables(fecore.quadrature_rule(quadrature))


@cache
def _compute_tables(quadrature) -> ZienkiewiczTables:
    basis = zienkiewicz_basis()
    hess = [b.hessian() for b in basis]
    # moment_tensor(hess, hess) is indexed [r, i, j, s, k, l]
    means = dict(
        Ahat=moment_tensor(hess, hess, quadrature).transpose(0, 3, 1, 2, 4, 5).copy(),
        Hmean=moment_tensor(hess, [RatCombo.one()], quadrature)[..., 0],
        Mhat=moment_tensor(basis, basis, quadrature),
        bhat=moment_tensor(lagrange_basis(2), basis, quadrature))
    if quadrature != "exact":
        return replace(get_tables(), **means)
    # every value at a vertex or edge midpoint is dyadic, so floats are exact
    return ZienkiewiczTables(That_v=combo_values(basis, VERTS),
                             That_gv=gradient_values(basis, VERTS),
                             That_ge=gradient_values(basis, MIDS), **means)


# -- local matrices -------------------------------------------------------------

def local_stiffness(area, GG, table) -> np.ndarray:
    """Batched |T| * table : (GG x GG) with GG = G G^T per element, for a
    table (r,r,3,3,3,3) of Hessian-product means such as Ahat."""
    p, r = GG.shape[0], table.shape[0]
    Q = np.einsum("eij,ekl->eijkl", GG, GG).reshape(p, 81)
    return area[:, None, None] * (Q @ table.reshape(r * r, 81).T).reshape(p, r, r)


def local_vandermonde_batch(G, normals) -> np.ndarray:
    """Batched 12x12 Vandermonde: values, gradients, edge normals (exact)."""
    tables = get_tables()
    p = G.shape[0]
    V = np.empty((p, 12, 12))
    V[:, 0:3, :] = tables.That_v[None, :, :]
    Tgv = np.einsum("ekc,irk->eirc", G, tables.That_gv)
    V[:, 3:6, :] = Tgv[..., 0]
    V[:, 6:9, :] = Tgv[..., 1]
    Tge = np.einsum("ekc,irk->eirc", G, tables.That_ge)
    V[:, 9:12, :] = np.einsum("eic,eirc->eir", normals, Tge)
    return V


def shape_coefficients(V, variant: str, normals=None) -> np.ndarray:
    """Shape coefficients (see :func:`fecore.shape_coefficients`); the
    reduced element makes the edge normal derivative affine, with gradients
    in rows 3..5 (x) and 6..8 (y)."""
    return fecore.shape_coefficients(V, variant, normals, (3, 6))


# -- global assembly ------------------------------------------------------------

@dataclass
class BiharmonicSystem:
    tria: Triangulation
    phase: fecore.MeshPhase   # :func:`mesh_phase`'s, shared by every rule
    A: "object"           # csr stiffness (Laplacian products), free x free
    M: "object"           # csr mass, free x free


#: Dof blocks (fecore.dof_layout): vertex values and gradients, edge normals.
LAYOUTS = {"full": "vvve", "reduced": "vvv"}


@lru_cache(maxsize=1)
def mesh_phase(tria: Triangulation, variant: str, curl=None) -> fecore.MeshPhase:
    """:func:`fecore.mesh_phase` with its free x free plan, once per (mesh,
    variant, curl); `curl` maps C to curl(G, C), as for the stream function.
    One entry is cached, so plate and Stokes work on one mesh (no command
    mixes them) rebuild each in turn, at the cost of the plan and of one
    Vandermonde per element class."""
    def coefficients(G, normals, _):
        C = shape_coefficients(local_vandermonde_batch(G, normals), variant, normals)
        return C if curl is None else curl(G, C)
    phase = fecore.mesh_phase(tria, variant, LAYOUTS, coefficients)
    l2g, free = phase.l2g, phase.free
    return phase._replace(plan=scatter_plan(l2g, l2g, (phase.ndof,) * 2, free, free))


def assemble_biharmonic(tria: Triangulation, variant: str = "full",
                        quadrature="exact") -> BiharmonicSystem:
    """Assemble stiffness (Laplacian form) and mass on the free dofs for the
    clamped plate.

    `quadrature` is "exact" or an integer n selecting the tensorized Gauss
    rule.  It only selects the reference tables (:func:`get_tables`): on
    affine elements the rule applied to the stiffness and mass integrands is
    the same contraction with rule-n tables.  The exact basis change is
    :func:`mesh_phase`'s, shared by every quadrature.
    """
    phase = mesh_phase(tria, variant)
    area, C, plan, tables = phase.area, phase.C, phase.plan, get_tables(quadrature)
    # A's local tensors are scattered, and freed, before M's are built
    A = assemble_matrix(plan, C, local_stiffness(area, phase.GG, tables.Ahat), C)
    M = assemble_matrix(plan, C, area[:, None, None] * tables.Mhat[None, :, :], C)
    return BiharmonicSystem(tria, phase, A, M)


def solve_biharmonic_eigen(system: BiharmonicSystem, lu,
                           x0: np.ndarray | None = None):
    """Smallest clamped-plate eigenpair on the free dofs; vector is padded.
    `lu` preconditions the solve (see :func:`solvers.gen_eig_smallest`)."""
    free = system.phase.free
    lam, x = solvers.gen_eig_smallest(system.A, system.M, lu,
                                      None if x0 is None else x0[free])
    return lam, pad_free(free, x)

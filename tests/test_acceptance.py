"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities.  Tolerances are the stated ones; configurations are
fixed here (desk scale) and documented inline.
"""

import itertools
import time

import numpy as np
import pytest

from felib import (bary_coords, divergence_pointwise, element_eval,
                   eval_float, fit_slope, hermite_psi,
                   random_shape_regular_triangle)
from oracle import duffy_mean
from ratfem.exact import ExactValue
from ratfem.experiments import (TAYLOR_HOOD_REF, csv_text, run_exp1_square,
                                run_exp2_lshape, run_exp3_stokes)
from ratfem.quadrature import (compute_J, integral_mean, integral_mean_beta2,
                               integral_mean_poly, is_finite_index)
from ratfem.ratfun import RatCombo


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_quadrature_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    count = 0
    alphas = [a for a in itertools.product(range(7), repeat=3) if sum(a) <= 6]
    betas = list(itertools.product(range(4), repeat=3))
    for alpha in alphas:
        for beta in betas:
            if not is_finite_index(alpha, beta):
                assert integral_mean(alpha, beta).infinite
                continue
            exact = integral_mean(alpha, beta).to_float()
            ref = duffy_mean(alpha, beta)
            rel = abs(exact - ref) / max(abs(exact), 1e-30)
            worst = max(worst, rel)
            count += 1
    assert worst <= 1e-9
    # exhaustive finiteness characterization over entries <= 4
    for alpha in itertools.product(range(5), repeat=3):
        for beta in itertools.product(range(5), repeat=3):
            assert integral_mean(alpha, beta).infinite == (
                not is_finite_index(alpha, beta))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(1, f"{count} finite cases vs oracle, worst rel err {worst:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_2_closed_forms_exact():
    checked = 0
    for alpha in itertools.product(range(7), repeat=3):
        assert integral_mean(alpha, (0, 0, 0)) == integral_mean_poly(alpha)
        checked += 1
        for b2 in range(1, 7):
            beta = (0, 0, b2)
            if is_finite_index(alpha, beta):
                assert integral_mean(alpha, beta) == integral_mean_beta2(alpha, b2)
                checked += 1
    _report(2, f"{checked} exact rational equalities against both closed forms")


def test_criterion_3_pi2_base_cases():
    from fractions import Fraction
    assert compute_J(0, 0, 1, 1) == ExactValue(0, Fraction(1, 3))
    assert compute_J(1, 0, 1, 1) == ExactValue(-2, Fraction(1, 3))
    _report(3, "J(0,0,1,1) = pi^2/3 and J(1,0,1,1) = pi^2/3 - 2 exactly")


def test_criterion_4_zienkiewicz_unisolvence_and_hermite():
    from ratfem.zienkiewicz import (local_vandermonde_batch, shape_coefficients,
                                    zienkiewicz_basis)
    rng = np.random.default_rng(42)
    basis = zienkiewicz_basis()
    worst = 0.0
    for _ in range(200):
        tri = random_shape_regular_triangle(rng)
        _, _, G = tri.geometry_arrays()
        normals = tri.normal4s[tri.s4e]
        V = local_vandermonde_batch(G, normals)
        C = shape_coefficients(V, "full")[0]
        v = tri.c4n[tri.n4e[0]]
        p = lambda x, y: 0.8 * x * x + 1.1 * x * y - 0.5 * y * y - x + 2 * y + 1
        gp = lambda x, y: np.array([1.6 * x + 1.1 * y - 1, 1.1 * x - y + 2])
        dof = np.empty(12)
        for i in range(3):
            dof[i] = p(*v[i])
            dof[3 + i], dof[6 + i] = gp(*v[i])
        for j in range(3):
            mid = (v[(j + 1) % 3] + v[(j + 2) % 3]) / 2
            dof[9 + j] = gp(*mid) @ tri.normal4s[tri.s4e[0, j]]
        w = C @ dof
        for _ in range(20):
            lam = rng.dirichlet([1.5, 1.5, 1.5])
            xy = lam @ v
            val = sum(float(c) * eval_float(basis[r], tuple(lam))
                      for r, c in enumerate(w))
            worst = max(worst, abs(val - p(*xy)))
    assert worst <= 1e-11
    # Hermite constraint on all 12 basis functions.  Membership in the
    # enriched space means the polynomial part satisfies psi = 0; the three
    # rational bubbles have no polynomial part at all (their literal psi is
    # 6 B(mid) = 1/18, pinned in the unit tests).
    worst_psi = 0.0
    for b in zienkiewicz_basis():
        poly_part = RatCombo(
            {key: c for key, c in b.terms.items() if key[1] == (0, 0, 0)})
        worst_psi = max(worst_psi, abs(hermite_psi(poly_part)))
    assert worst_psi <= 1e-12
    _report(4, f"200 elements unisolvent, P2 reproduction err {worst:.2e}, "
               f"Hermite residual {worst_psi:.2e}")


def test_criterion_5_c1_conformity():
    from ratfem.mesh import unit_square_mesh
    from ratfem.zienkiewicz import assemble_biharmonic
    mesh = unit_square_mesh()
    shared = int(np.where(~mesh.boundary_edge)[0][0])
    a, b = mesh.n4s[shared]
    pa, pb = mesh.c4n[a], mesh.c4n[b]
    worst = 0.0
    system = assemble_biharmonic(mesh, variant="full")
    for dof in range(system.phase.ndof):
        u = np.zeros(system.phase.ndof)
        u[dof] = 1.0
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            xy = (1 - t) * pa + t * pb
            sides = []
            for e in range(2):
                lam = bary_coords(mesh.c4n[mesh.n4e[e]], xy)
                val, grad = element_eval(system, e, u, [lam])
                sides.append((val[0], grad[0]))
            worst = max(worst, abs(sides[0][0] - sides[1][0]),
                        np.abs(sides[0][1] - sides[1][1]).max())
    assert worst <= 1e-10

    reduced = assemble_biharmonic(mesh, variant="reduced")
    adj = {}
    for e in range(mesh.num_elements):
        for j in range(3):
            adj.setdefault(mesh.s4e[e, j], (e, j))
    worst_aff = 0.0
    for dof in range(reduced.phase.ndof):
        u = np.zeros(reduced.phase.ndof)
        u[dof] = 1.0
        for s in range(mesh.num_edges):
            e, j = adj[s]
            v = mesh.c4n[mesh.n4e[e]]
            nu = mesh.normal4s[s]
            i1, i2 = (j + 1) % 3, (j + 2) % 3

            def normal_derivative(xy):
                lam = bary_coords(v, xy)
                _, grad = element_eval(reduced, e, u, [lam])
                return grad[0] @ nu

            mid = normal_derivative((v[i1] + v[i2]) / 2)
            avg = 0.5 * (normal_derivative(v[i1]) + normal_derivative(v[i2]))
            worst_aff = max(worst_aff, abs(mid - avg))
    assert worst_aff <= 1e-10
    _report(5, f"value/gradient jumps {worst:.2e}; reduced edge-normal "
               f"affinity residual {worst_aff:.2e}")


def test_criterion_6_guzman_neilan_divergence():
    import scipy.linalg as sla
    from ratfem.guzman_neilan import assemble_stokes, local_divergence
    from ratfem.mesh import refine_uniform, unit_square_mesh
    mesh = refine_uniform(refine_uniform(unit_square_mesh()))
    _, area, G = mesh.geometry_arrays()
    B_T = local_divergence(area, G)
    assert np.all(B_T[:, 6:] == 0.0)

    system = assemble_stokes(mesh)
    free = system.phase.free
    kernel = sla.null_space(system.B.toarray().T)
    assert kernel.shape[1] > 0
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(min(5, kernel.shape[1])):
        u = np.zeros(system.phase.ndof)
        u[free] = kernel[:, k]
        for e in range(mesh.num_elements):
            pts = [tuple(rng.dirichlet([2, 2, 2])) for _ in range(10)]
            div = divergence_pointwise(system, e, u, pts)
            worst = max(worst, np.abs(div).max())
    assert worst <= 1e-9
    _report(6, f"(B_T)_7..12 identically 0; pointwise |div| <= {worst:.2e} "
               f"on {kernel.shape[1]} kernel fields")


def test_criterion_7_pressure_robustness():
    t0 = time.time()
    rows = run_exp3_stokes(variant="reduced", elements=8192, ns=(2, 3, 12))
    err = {r["n"]: r["grad_err"] for r in rows}
    assert err[0] <= 1e-10
    assert any(err[n] > TAYLOR_HOOD_REF for n in (2, 3))
    assert err[12] <= err[2] / 100.0
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    _report(7, f"#T=8192: exact {err[0]:.2e}, n=2 {err[2]:.2e} > "
               f"{TAYLOR_HOOD_REF}, n=12 {err[12]:.2e}, {elapsed:.0f}s")


def test_criterion_8_eigenvalue_quadrature_study():
    t0 = time.time()
    ns = (2, 3, 4, 6, 8)
    rows1 = run_exp1_square(levels=5, ns=ns, variant="full")
    gaps = {(r["level"], r["n"]): r["rel_gap"] for r in rows1 if r["n"] > 0}
    for level in range(1, 6):
        seq = [gaps[(level, n)] for n in ns]
        for a, b in zip(seq, seq[1:]):
            assert b <= 2.0 * a, (level, seq)
        assert seq[-1] < seq[0]
    g4, g5 = gaps[(4, 2)], gaps[(5, 2)]
    stag = abs(g5 - g4) / g4
    assert stag < 0.5

    rows2 = run_exp2_lshape(ns=(2, 8, 11), theta=0.9, uniform_interval=0,
                            budget=2600, solve_start=60, solve_factor=1.9)
    slopes = {}
    for n in (2, 8, 11):
        pts = [(r["ndof"], r["rel_gap"]) for r in rows2 if r["n"] == n]
        slopes[n] = fit_slope(pts[-4:])
    assert -0.75 <= slopes[2] <= -0.3
    assert slopes[8] <= -0.8
    assert slopes[11] <= -0.8
    ndof_max = max(r["ndof"] for r in rows2)
    assert ndof_max <= 1e5
    elapsed = time.time() - t0
    assert elapsed <= 900.0
    _report(8, f"gaps decrease in n; n=2 stagnation change {stag:.1%}; "
               f"graded slopes n=2 {slopes[2]:.2f}, n=8 {slopes[8]:.2f}, "
               f"n=11 {slopes[11]:.2f}; {elapsed:.0f}s")


def test_criterion_9_determinism():
    cfg = dict(levels=2, ns=(2,), variant="full")
    text1 = csv_text({"experiment": "exp1"}, ["n", "level", "ndof", "lambda",
                                              "lambda_bar", "rel_gap"],
                     run_exp1_square(**cfg))
    text2 = csv_text({"experiment": "exp1"}, ["n", "level", "ndof", "lambda",
                                              "lambda_bar", "rel_gap"],
                     run_exp1_square(**cfg))
    assert text1 == text2
    cfg3 = dict(variant="reduced", elements=128, ns=(2,))
    t1 = csv_text({}, ["n", "grad_err", "div_err", "pressure_err"],
                  run_exp3_stokes(**cfg3))
    t2 = csv_text({}, ["n", "grad_err", "div_err", "pressure_err"],
                  run_exp3_stokes(**cfg3))
    assert t1 == t2
    _report(9, "exp1 and exp3 reruns byte-identical (fresh-process rerun "
               "covered in test_cli)")

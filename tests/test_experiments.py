import weakref

import numpy as np
import pytest
import scipy.linalg as sla

from felib import fit_slope
from ratfem import solvers
from ratfem.experiments import (TAYLOR_HOOD_REF, csv_text, eigen_rows,
                                graded_lshape_meshes, run_exp1_square,
                                run_exp2_lshape, run_exp3_stokes,
                                stokes_exact_pressure, stokes_load,
                                stokes_mesh, stokes_rows)
from ratfem.guzman_neilan import assemble_stokes
from ratfem.mesh import lshape_mesh, refine_uniform, unit_square_mesh
from ratfem.zienkiewicz import assemble_biharmonic


def test_fit_slope():
    xs = np.array([10.0, 100.0, 1000.0])
    assert fit_slope(list(zip(xs, xs ** -0.5))) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        fit_slope([(1.0, 0.0)])


def test_stokes_problem_data():
    # the load is the gradient of the exact pressure
    h = 1e-6
    for (x, y) in [(0.3, 0.4), (0.7, 0.1), (0.5, 0.9)]:
        fx, fy = stokes_load(x, y)
        px = (stokes_exact_pressure(x + h, y) - stokes_exact_pressure(x - h, y)) / (2 * h)
        py = (stokes_exact_pressure(x, y + h) - stokes_exact_pressure(x, y - h)) / (2 * h)
        assert fx == pytest.approx(px, abs=1e-6)
        assert fy == pytest.approx(py, abs=1e-4)
    assert TAYLOR_HOOD_REF == 4.410009e-05


def test_pressure_robust_to_roundoff():
    # the load is a gradient, so the exact system's velocity and every
    # system's divergence are exactly zero; what is left is the solver's
    rows = run_exp3_stokes(elements=512, ns=(1, 2), variant="reduced")
    assert [r["n"] for r in rows] == [0, 1, 2]
    assert rows[0]["grad_err"] <= 1e-13
    assert all(r["div_err"] <= 1e-13 for r in rows)


def test_graded_meshes_shrink_and_stay_conforming():
    meshes = [m for _, m in graded_lshape_meshes(
        theta=0.5, budget=800, uniform_interval=2, solve_start=60,
        solve_factor=1.5)]
    assert len(meshes) >= 3
    sizes = [m.num_elements for m in meshes]
    assert sizes == sorted(sizes)
    for m in meshes:
        assert float(m.areas().sum()) == pytest.approx(3.0, rel=1e-12)
    # grading: smallest elements sit near the reentrant corner
    last = meshes[-1]
    d = np.linalg.norm(last.midpoints(), axis=1)
    assert d[np.argmin(last.areas())] < np.median(d)


def test_exp2_exact_eigenvalues_cauchy():
    rows = run_exp2_lshape(ns=(2,), theta=0.9, uniform_interval=0,
                           budget=1800, solve_start=60, solve_factor=1.9)
    lams = [r["lambda"] for r in rows if r["n"] == 0]
    diffs = [abs(a - b) for a, b in zip(lams, lams[1:])]
    assert len(diffs) >= 2
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_one_factorization_per_eigen_mesh(monkeypatch):
    # the exact stiffness's LU preconditions the exact and every rule-n solve
    calls = []
    splu = solvers.spla.splu

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)
    monkeypatch.setattr(solvers.spla, "splu", counted)
    rows = run_exp1_square(levels=2, ns=(2, 5, 11))
    assert [r["n"] for r in rows] == [0, 2, 5, 11] * 2
    assert len(calls) == 2
    calls.clear()
    rows = run_exp2_lshape(budget=400, solve_start=60, ns=(2, 3))
    assert len(calls) == len(rows) // 3 > 1


def test_stokes_rows_factor_rule_1_first_and_only_what_they_solve(monkeypatch):
    # B_1^T B_1 with the mesh phase, then rule 1's own S, whose LU is gone
    # before the exact S's is made; rule 1 alone never factors the exact S
    factored, splu = [], solvers.spla.splu

    class Held:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def counted(A, *args, **kwargs):
        live = [ref() is not None for _, ref, _ in factored]
        held = Held(splu(A, *args, **kwargs))
        factored.append((A, weakref.ref(held), live))
        return held
    monkeypatch.setattr(solvers.spla, "splu", counted)

    def expected(mesh):
        exact = assemble_stokes(mesh, variant="reduced")
        B_1 = exact.B[:, 1:]
        return [B_1.T @ B_1, assemble_stokes(
            mesh, variant="reduced", quadrature=1).S, exact.S]

    def same(A, B):
        return A.shape == B.shape and (A != B).nnz == 0
    mesh = stokes_mesh(128)
    stokes_rows(mesh, (0, 1, 2), "reduced")
    assert [same(A, B) for (A, _, _), B in zip(factored, expected(mesh),
                                                 strict=True)] == [True] * 3
    assert factored[2][2] == [True, False]
    factored.clear()
    mesh = stokes_mesh(128)
    stokes_rows(mesh, (1,), "reduced")
    assert [same(A, B) for (A, _, _), B in zip(factored, expected(mesh)[:2],
                                                 strict=True)] == [True] * 2


@pytest.mark.parametrize("error", [solvers.NoConvergenceError,
                                   solvers.NotPositiveDefiniteError])
def test_a_failing_stokes_row_is_named(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("the solver gave up")
    monkeypatch.setattr(solvers, "pcg", fail)
    # rule 1 runs first
    with pytest.raises(error, match="^n=1, 32 elements: the solver gave up$"):
        stokes_rows(stokes_mesh(32), (0, 1, 2), "reduced")


def test_exp1_exact_rows_approach_the_clamped_plate_from_above():
    # conforming Ritz values bound the clamped plate's first eigenvalue on the
    # unit square, 1294.9339795917 (Bjorstad & Tjostheim, Computing 63, 1999),
    # from above, and fall under refinement
    lams = [r["lambda"] for r in run_exp1_square(levels=5, ns=()) if r["level"] >= 3]
    assert lams == pytest.approx([1310.07, 1296.84, 1295.24], abs=0.005)
    assert lams[0] > lams[1] > lams[2] > 1294.9339795917


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", ["full", "reduced"])
@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("coarse", [unit_square_mesh, lshape_mesh],
                         ids=["square", "lshape"])
def test_rule_rows_match_a_dense_solve_or_raise(coarse, level, variant, n):
    # a rule row is the smallest eigenvalue of its own pencil (A_n, M_n), or
    # NotPositiveDefiniteError where A_n is singular to working accuracy
    mesh = coarse()
    for _ in range(level):
        mesh = refine_uniform(mesh)
    rule = assemble_biharmonic(mesh, variant=variant, quadrature=n)
    A, M = rule.A.toarray(), rule.M.toarray()
    spectrum = np.linalg.eigvalsh(A)
    if spectrum[0] <= 1e-10 * spectrum[-1]:
        with pytest.raises(solvers.NotPositiveDefiniteError):
            eigen_rows(mesh, level, (n,), variant)
    else:
        lam_bar = eigen_rows(mesh, level, (n,), variant)[1]["lambda_bar"]
        assert lam_bar == pytest.approx(sla.eigh(A, M, eigvals_only=True)[0],
                                        rel=1e-10)


def test_csv_text_format():
    text = csv_text({"b": 2, "a": 1}, ["x", "y"],
                    [{"x": 1, "y": 0.5}, {"x": 2, "y": 0.25}])
    lines = text.splitlines()
    assert lines[0].startswith("# ratfem")
    assert lines[1] == "# a = 1" and lines[2] == "# b = 2"
    assert lines[3] == "x,y" and lines[4] == "1,0.5"


@pytest.mark.parametrize("driver, options, message", [
    # n = 0 names the exact system's row of an experiment, so it is no rule
    (run_exp1_square, dict(levels=1, ns=(0,)), "need at least one Gauss point"),
    (run_exp1_square, dict(levels=1, ns=(2, -3)), "need at least one Gauss point"),
    (run_exp3_stokes, dict(elements=8, ns=(-1,)), "need at least one Gauss point"),
    (run_exp3_stokes, dict(elements=0, ns=()), "elements must be >= 1"),
    (run_exp2_lshape, dict(theta=1.5, budget=200, solve_start=0, ns=()),
     r"theta must be in \(0, 1\]"),
])
def test_drivers_raise_where_a_bad_value_is_read(driver, options, message):
    # the command line checks ranges before any work; called from Python, a
    # value that would give a wrong number raises in the layer that reads it
    with pytest.raises(ValueError, match=message):
        driver(**options)


@pytest.mark.parametrize("domain, coarse", [("square", unit_square_mesh),
                                            ("lshape", lshape_mesh)])
def test_exp1_refines_the_configured_domain(domain, coarse):
    rows = run_exp1_square(domain=domain, levels=1, ns=())
    mesh = refine_uniform(coarse())
    assert [r["ndof"] for r in rows] == [3 * mesh.num_vertices + mesh.num_edges]


def test_exp1_rejects_an_unknown_domain():
    with pytest.raises(KeyError):
        run_exp1_square(domain="circle", levels=1, ns=())

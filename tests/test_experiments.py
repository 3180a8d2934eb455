import numpy as np
import pytest

from felib import fit_slope
from ratfem.experiments import (ExperimentConfig, TAYLOR_HOOD_REF, csv_text,
                                graded_lshape_meshes, run_exp2_lshape,
                                stokes_exact_pressure, stokes_load)


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


def test_graded_meshes_shrink_and_stay_conforming():
    cfg = ExperimentConfig(budget=800, solve_start=60, solve_factor=1.5)
    meshes = [m for _, m in graded_lshape_meshes(cfg)]
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
    cfg = ExperimentConfig(ns=(2,), theta=0.9, uniform_interval=0,
                           budget=1800, solve_start=60, solve_factor=1.9)
    rows = run_exp2_lshape(cfg)
    lams = [r["lambda"] for r in rows if r["n"] == 0]
    diffs = [abs(a - b) for a, b in zip(lams, lams[1:])]
    assert len(diffs) >= 2
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_csv_text_format():
    text = csv_text({"b": 2, "a": 1}, ["x", "y"],
                    [{"x": 1, "y": 0.5}, {"x": 2, "y": 0.25}])
    lines = text.splitlines()
    assert lines[0].startswith("# ratfem")
    assert lines[1] == "# a = 1" and lines[2] == "# b = 2"
    assert lines[3] == "x,y" and lines[4] == "1,0.5"

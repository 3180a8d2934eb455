import argparse
import contextlib
import dis
import functools
import hashlib
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from felib import OVERLAPPING_MESHES, TWICE_COVERED_MESH
from ratfem import cli, experiments, guzman_neilan, quadrature, zienkiewicz
from ratfem.cli import main
from ratfem.experiments import EmptySeriesError, emit_svg
from ratfem.ratfun import SingularEvaluationError
from ratfem.solvers import (NoConvergenceError, NotPositiveDefiniteError,
                            SingularSystemError)


def test_quad_value(capsys):
    assert main(["quad", "--alpha", "1,2,2", "--beta", "0,1,1"]) == 0
    out = capsys.readouterr().out
    assert "593/180 - 1/3*pi^2" in out


def test_quad_value_goes_to_out(tmp_path, capsys):
    out = tmp_path / "value.txt"
    assert main(["quad", "--alpha", "1,2,2", "--beta", "0,1,1",
                 "--out", str(out)]) == 0
    assert "593/180 - 1/3*pi^2" in out.read_text()
    assert capsys.readouterr().out == ""


def test_quad_infinite(capsys):
    assert main(["quad", "--alpha", "0,0,0", "--beta", "0,0,2"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_quad_table(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["quad", "--table", "--amax", "1", "--bmax", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a0,a1,a2,b0,b1,b2,q0_num,q0_den,q1_num,q1_den"
    assert "0,0,0,0,0,0,1,1,0,1" in lines
    # J(0,0,1,1) = pi^2/3 appears as alpha=0, beta=(0,1,1)
    assert "0,0,0,0,1,1,0,1,1,3" in lines


def test_config_error_exit_code():
    assert main(["quad", "--alpha", "1,2", "--beta", "0,0,0"]) == 2
    assert main(["quad"]) == 2


def test_mesh_roundtrip(tmp_path, capsys):
    path = tmp_path / "mesh.txt"
    assert main(["mesh", "dump", "--domain", "lshape", "--refine", "1",
                 "--out", str(path)]) == 0
    assert main(["mesh", "load", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "elements 24" in out and "area 3.0" in out


@pytest.mark.parametrize("elements", ["0 1 -1", "0 1 4", "0 2", None])
def test_malformed_mesh_load_is_a_configuration_error(tmp_path, capsys,
                                                      elements):
    path = tmp_path / "mesh.txt"
    path.write_text("nodes 4 elements 2 edges 5\n0.0 0.0 1\n1.0 0.0 1\n"
                    f"1.0 1.0 1\n0.0 1.0 1\n2 0 1\n{elements or '0 2 3'}\n")
    args = ["mesh", "load"] + (["--file", str(path)] if elements else [])
    assert main(args) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("n4e, c4n", OVERLAPPING_MESHES)
def test_overlapping_mesh_load_is_a_configuration_error(tmp_path, capsys, n4e, c4n):
    path = tmp_path / "mesh.txt"
    path.write_text(f"nodes {len(c4n)} elements {len(n4e)} edges 0\n"
                    + "".join(f"{x} {y} 1\n" for x, y in c4n)
                    + "".join(f"{a} {b} {c}\n" for a, b, c in n4e))
    assert main(["mesh", "load", "--file", str(path)]) == 2
    assert "overlapping elements" in capsys.readouterr().err


def test_twice_covered_mesh_load_is_a_configuration_error(tmp_path, capsys):
    n4e, c4n = TWICE_COVERED_MESH
    path = tmp_path / "mesh.txt"
    path.write_text(f"nodes {len(c4n)} elements {len(n4e)} edges 0\n"
                    + "".join(f"{x!r} {y!r} 1\n" for x, y in c4n)
                    + "".join(f"{a} {b} {c}\n" for a, b, c in n4e))
    assert main(["mesh", "load", "--file", str(path)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: the elements around interior vertex 0 turn 2 "
        "times around it\n")


def test_an_edge_of_three_elements_is_a_configuration_error(tmp_path, capsys):
    # three triangles on the edge (0,0)-(1,0): below it, above it, and above
    # it again, reaching higher
    path = tmp_path / "mesh.txt"
    path.write_text("nodes 5 elements 3 edges 0\n0 0 1\n1 0 1\n0.5 1 1\n"
                    "0.5 -1 1\n0.5 2 1\n0 1 2\n1 0 3\n0 1 4\n")
    assert main(["mesh", "load", "--file", str(path)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: edge shared by more than two elements\n")


@pytest.mark.parametrize("argv", [
    ["quad", "--alpha", "1,2,2", "--beta", "0,1,1", "--amax", "3"],
    ["quad", "--alpha", "1,2,2", "--beta", "0,1,1", "--bmax", "0"],
    ["mesh", "dump", "--file", "mesh.txt"],
    ["mesh", "load", "--file", "mesh.txt", "--refine", "3", "--domain", "lshape"],
    ["mesh", "load", "--file", "mesh.txt", "--refine", "0"],
    ["mesh", "load", "--file", "mesh.txt", "--out", "summary.txt"],
])
def test_options_a_mode_never_reads_are_rejected(monkeypatch, capsys, argv):
    def started(*args, **kwargs):
        raise AssertionError("the command started")
    for name in ("integral_mean", "refine_uniform", "dump_mesh", "load_mesh"):
        monkeypatch.setattr(cli, name, started)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


#: Commands whose files cannot be read or written, with their error.
IO_FAILURES = [
    (["mesh", "load", "--file", "{tmp}/missing.txt"], "No such file or directory"),
    (["mesh", "dump", "--out", "{tmp}/missing/mesh.txt"],
     "No such file or directory"),
    (["exp1", "--levels", "1", "--ns", "2", "--out", "{tmp}/exp1.csv",
      "--svg", "{tmp}/missing/exp1.svg"], "No such file or directory"),
    (["exp1", "--levels", "1", "--ns", "2", "--out", "{tmp}/exp1.csv",
      "--svg", "{tmp}"], "Is a directory"),
    (["exp1", "--levels", "1", "--ns", "2", "--out", "{tmp}"], "Is a directory"),
    # the CSV and the SVG would overwrite each other or interleave
    (["exp1", "--levels", "1", "--ns", "2", "--out", "{tmp}/same.txt",
      "--svg", "{tmp}/same.txt"], "--out and --svg name one destination"),
    (["exp1", "--levels", "1", "--ns", "2", "--out", "{tmp}/same.txt",
      "--svg", "{tmp}/./same.txt"], "--out and --svg name one destination"),
    (["exp1", "--levels", "1", "--ns", "2", "--svg", "-"],
     "--out and --svg name one destination: standard output"),
    (["exp1", "--levels", "1", "--ns", "2", "--out", "-", "--svg", "-"],
     "--out and --svg name one destination: standard output"),
]


@pytest.mark.parametrize("args, message", IO_FAILURES,
                         ids=[f"args{k}" for k in range(len(IO_FAILURES))])
def test_io_failures_are_configuration_errors(tmp_path, capsys, args, message):
    assert main([a.format(tmp=tmp_path) for a in args]) == 2
    assert message in capsys.readouterr().err
    # output paths are checked before the run, so no CSV is left behind
    assert not any(tmp_path.iterdir())


def _replace_driver(monkeypatch, name, body):
    """Put `body` in place of the driver `name` that the CLI calls; it keeps
    the driver's signature, from which the parser reads the options."""
    @functools.wraps(getattr(experiments, name))
    def driver(**options):
        return body(**options)
    monkeypatch.setattr(cli, name, driver)


def _raise(error):
    def fail():
        raise error("no factorization")
    return fail


def _vanishing_bubble(element):
    """The element's own degenerate-bubble failure: its reduced shape
    coefficients of a Vandermonde whose bubble edge dofs all vanish, which
    is singular."""
    def fail():
        element.shape_coefficients(np.zeros((1, 12, 12)), "reduced",
                                   np.zeros((1, 3, 2)))
    return fail


BUBBLE_VANISHED = "Singular matrix"


@pytest.mark.parametrize("failure, message", [
    pytest.param(_raise(error), "no factorization", id=error.__name__)
    for error in (NotPositiveDefiniteError, SingularSystemError,
                  NoConvergenceError,
                  # a singular Vandermonde in np.linalg.inv
                  np.linalg.LinAlgError, SingularEvaluationError)] + [
    # both reduced elements raise numpy's LinAlgError; the ids name the
    # failure, a vanishing bubble dof of either element
    pytest.param(_vanishing_bubble(zienkiewicz), BUBBLE_VANISHED,
                 id="ZeroBubbleNormalDerivativeError"),
    pytest.param(_vanishing_bubble(guzman_neilan), BUBBLE_VANISHED,
                 id="ZeroBubbleTangentialTraceError")])
def test_solver_failures_exit_3(monkeypatch, capsys, failure, message):
    def fail(**options):
        failure()
    _replace_driver(monkeypatch, "run_exp1_square", fail)
    assert main(["exp1", "--levels", "1", "--ns", "2"]) == 3
    assert capsys.readouterr().err == f"solver failure: {message}\n"


@pytest.mark.parametrize("element", [zienkiewicz, guzman_neilan],
                         ids=["zienkiewicz", "guzman_neilan"])
def test_both_elements_raise_one_bubble_error(element):
    with pytest.raises(np.linalg.LinAlgError, match=BUBBLE_VANISHED):
        _vanishing_bubble(element)()


def test_programming_errors_keep_their_traceback(monkeypatch):
    def fail(**options):
        return 1 / 0
    _replace_driver(monkeypatch, "run_exp1_square", fail)
    with pytest.raises(ZeroDivisionError):
        main(["exp1", "--levels", "1", "--ns", "2"])


#: A small run of each experiment, with only the options it takes.
OWN_FLAGS = {"exp1": ["--levels", "1"], "exp2": ["--budget", "100"],
             "exp3": ["--elements", "8"]}


@pytest.mark.parametrize("which", ["exp1", "exp2", "exp3"])
def test_rules_below_one_are_rejected_before_any_work(monkeypatch, capsys,
                                                      tmp_path, which):
    def started(*args, **kwargs):
        raise AssertionError("the experiment started")
    monkeypatch.setattr(experiments, "assemble_biharmonic", started)
    monkeypatch.setattr(experiments, "assemble_stokes", started)
    out = tmp_path / "rows.csv"
    # a rule's tables take O(n^2) time and memory (n = 3000 asks for about
    # 7.8 GB), so rules above cli.MAX_RULE fail before any table is built
    for ns, error in ((["2", "0"], "quadrature rules need n >= 1, got (2, 0)"),
                      (["2", "101"], "quadrature rules need n <= 100, got (2, 101)"),
                      (["2", "1", "2"], "quadrature rules repeat, got (2, 1, 2)")):
        assert main([which, *OWN_FLAGS[which], "--ns", *ns, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {error}\n"
        assert not out.exists()


#: Each out-of-range run option with its configuration error.
BAD_CONFIGS = [
    # the first mesh of this run is a checkpoint, so it used to be solved
    # before the grading loop rejected theta
    (["exp2", "--theta", "1.5", "--solve-start", "0"],
     "theta must be in (0, 1], got 1.5"),
    (["exp2", "--theta", "0"], "theta must be in (0, 1], got 0.0"),
    (["exp1", "--levels", "0"], "levels must be >= 1, got 0"),
    (["biharmonic-eig", "--levels", "0"], "levels must be >= 1, got 0"),
    (["exp3", "--elements", "0"], "elements must be >= 1, got 0"),
    (["stokes", "--elements", "0"], "elements must be >= 1, got 0"),
    (["exp2", "--budget", "0"], "budget must be >= 1, got 0"),
    (["exp2", "--uniform-interval", "-1"], "uniform_interval must be >= 0, got -1"),
    (["exp2", "--solve-start", "-1"], "solve_start must be >= 0, got -1"),
    (["exp2", "--solve-factor", "0.5"], "solve_factor must be >= 1, got 0.5"),
    (["stokes", "--quadrature", "gauss:101"], "gauss rule needs 1 <= n <= 100, got 101"),
    (["biharmonic-eig", "--quadrature", "gauss:101"],
     "gauss rule needs 1 <= n <= 100, got 101"),
    (["stokes", "--quadrature", "gauss:0"], "gauss rule needs 1 <= n <= 100, got 0"),
    # option text that is no integer is named with the form it needs
    (["stokes", "--quadrature", "gauss:x"],
     "--quadrature needs 'exact' or the form 'gauss:N' with an integer N, got 'gauss:x'"),
    (["stokes", "--quadrature", "gauss:2.0"],
     "--quadrature needs 'exact' or the form 'gauss:N' with an integer N, got 'gauss:2.0'"),
    (["quad", "--alpha", "a,b,c", "--beta", "0,0,0"],
     "--alpha needs the form 'i,j,k' of three nonnegative integers, got 'a,b,c'"),
    (["quad", "--alpha", "1.5,2,3", "--beta", "0,0,0"],
     "--alpha needs the form 'i,j,k' of three nonnegative integers, got '1.5,2,3'"),
    (["quad", "--alpha", "0,0,0", "--beta", "0,x,0"],
     "--beta needs the form 'i,j,k' of three nonnegative integers, got '0,x,0'"),
]


@pytest.mark.parametrize("argv, message", BAD_CONFIGS,
                         ids=[" ".join(argv) for argv, _ in BAD_CONFIGS])
def test_bad_run_configurations_are_rejected_before_any_work(
        monkeypatch, capsys, tmp_path, argv, message):
    def started(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr(experiments, "assemble_biharmonic", started)
    monkeypatch.setattr(experiments, "assemble_stokes", started)
    monkeypatch.setattr(guzman_neilan, "assemble_stokes", started)
    monkeypatch.setattr(cli, "stokes_mesh", started)
    monkeypatch.setattr(quadrature, "gauss_legendre_01", started)
    out = tmp_path / "rows.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_a_run_with_nothing_to_plot_leaves_no_file(monkeypatch, capsys, tmp_path):
    rows = [{"n": n, "level": 1, "ndof": 9, "lambda": 1.0, "lambda_bar": 1.0,
             "rel_gap": 0.0} for n in (0, 2)]
    _replace_driver(monkeypatch, "run_exp1_square", lambda **options: rows)
    out, svg = tmp_path / "a.csv", tmp_path / "a.svg"
    assert main(["exp1", "--levels", "1", "--ns", "2", "--out", str(out),
                 "--svg", str(svg)]) == 2
    assert capsys.readouterr().err == "configuration error: nothing to plot\n"
    assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("plot", [False, True], ids=["csv", "csv-and-svg"])
def test_a_run_without_rows_is_a_configuration_error(capsys, tmp_path, plot):
    # at budget 1 no mesh of the grading reaches --solve-start
    out, svg = tmp_path / "a.csv", tmp_path / "a.svg"
    argv = ["exp2", "--budget", "1", "--out", str(out)]
    assert main(argv + (["--svg", str(svg)] if plot else [])) == 2
    assert capsys.readouterr().err == "configuration error: the run yields no rows\n"
    assert not out.exists() and not svg.exists()


def test_deep_indices_have_a_value(capsys):
    # 2000 nested reductions: deeper than Python's default recursion limit
    assert main(["quad", "--alpha", "0,2000,2000", "--beta", "0,1,2000"]) == 0
    assert capsys.readouterr().out.endswith(" = 2.497500625625155e-10\n")


def test_quad_table_matches_golden_digest(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["quad", "--table", "--amax", "6", "--bmax", "4",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f9f3293342159e4573b07a36922c5c7c16459657b18df1cde486df7b9d83d7ce")


def test_quad_table_reaches_a_fixed_set_of_pairs(monkeypatch, tmp_path):
    # the memo holds one entry per index pair the recursion reaches; a faster
    # recursion must reach the same pairs, or the memo's size and hit ratio move
    cache = quadrature.MemoCache()
    monkeypatch.setattr(quadrature, "DEFAULT_CACHE", cache)
    assert main(["quad", "--table", "--amax", "4", "--bmax", "3",
                 "--out", str(tmp_path / "table.csv")]) == 0
    assert len(cache) == 1651


def test_biharmonic_eig_keeps_the_exp1_rows_of_its_rule(tmp_path):
    out = tmp_path / "eig.csv"
    assert main(["biharmonic-eig", "--domain", "lshape", "--levels", "2",
                 "--quadrature", "gauss:2", "--out", str(out)]) == 0
    rows = experiments.run_exp1_square(domain="lshape", levels=2, ns=(2,))
    cols = ["level", "ndof", "lambda", "lambda_bar", "rel_gap"]
    expected = experiments.csv_text(
        {}, cols, [r for r in rows if r["n"] == 2]).splitlines()[2:]
    lines = out.read_text().splitlines()
    assert lines[lines.index("level,ndof,lambda,lambda_bar,rel_gap") + 1:] == expected


@pytest.mark.parametrize("quadrature", ["exact", "gauss:1", "gauss:2",
                                        "gauss:16"])
def test_stokes_writes_the_exp3_row_of_its_rule(tmp_path, quadrature):
    # the single solve takes its preconditioner where exp3 does: the exact
    # LU for the exact system and rules n >= 2, its own LU for rule 1
    out = tmp_path / "stokes.csv"
    assert main(["stokes", "--elements", "128", "--quadrature", quadrature,
                 "--out", str(out)]) == 0
    n = 0 if quadrature == "exact" else int(quadrature.split(":")[1])
    rows = experiments.run_exp3_stokes(elements=128, ns=(1, 2, 16))
    expected = experiments.csv_text(
        {}, list(rows[0]), [r for r in rows if r["n"] == n]).splitlines()[2:]
    lines = out.read_text().splitlines()
    assert lines[lines.index("n,grad_err,div_err,pressure_err") + 1:] == expected


def test_full_variant_rules_on_the_exact_lu_match_their_own_solves(tmp_path):
    # exp3's rules n >= 2 take conjugate gradients on the exact LU under
    # either variant; the full element's rule 2 needs the most iterations
    # (72 of PCG_MAXIT at 8192 elements)
    out = tmp_path / "exp3.csv"
    assert main(["exp3", "--elements", "128", "--variant", "full",
                 "--ns", "1", "2", "16", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in
            lines[lines.index("n,grad_err,div_err,pressure_err") + 1:]]
    assert [row[0] for row in rows] == ["0", "1", "2", "16"]
    mesh = experiments.stokes_mesh(128)
    exact = guzman_neilan.assemble_stokes(mesh, f=experiments.stokes_load,
                                          variant="full")
    for row in rows[2:]:
        own = guzman_neilan.solve_stokes(guzman_neilan.assemble_stokes(
            mesh, f=experiments.stokes_load, variant="full",
            quadrature=int(row[0])))[0]
        grad_err = guzman_neilan.grad_norm(exact, own)
        assert abs(float(row[1]) - grad_err) <= 1e-10 * grad_err


def test_dump_tables(tmp_path):
    target = tmp_path / "tables"
    assert main(["dump-tables", str(target)]) == 0
    files = {p.name for p in target.iterdir()}
    assert "zienkiewicz_Ahat.csv" in files
    assert "gn_Rhat.csv" in files
    header = (target / "zienkiewicz_That_v.csv").read_text().splitlines()[0]
    assert header == "i0,i1,value"


#: SHA-256 of every ``dump-tables`` file.  The exact tables come from exact
#: arithmetic with one rounding per entry, so their bytes depend on neither
#: the BLAS build nor its thread count; a refactor must leave them alone.
TABLE_DIGESTS = {
    "gn_Mhat.csv": "5d55695f62ac73c21ae95780266905f94af8faef817f1fe8c396cae4feebbabe",
    "gn_Rhat.csv": "a937ae0f4ae0500c5c4df81f37c24c6793837dbd9b0b0769eb9e02de3f7c73f8",
    "gn_That_ge.csv": "0f2de4568af21b4f19f28a6179f305a5e1e94500e21e7a1b97ebe6edc4a4240c",
    "gn_That_gv.csv": "76f5badf9d48407da665befbc4fc458aa11bf064b877875ee3cffd096b1fc648",
    "gn_bhat1.csv": "5342f40cd64796f0e3534a669de81dff15330a59c285ac1430997e0a49edf5a7",
    "gn_bhat2.csv": "5a8ec5be3446ddcc40890a86baec9193b1c3d8a6f690d1bafe367e55479515d9",
    "gn_val_mid.csv": "1f16bd46f6674c4cd01e648c85e4643191e349fbbbc58141ee6be034548c21ed",
    "zienkiewicz_Ahat.csv": "8fc1ee84cfa6551aa2c52cb0efa71ecf4b2e00ce54d7699f664a985b10e24289",
    "zienkiewicz_Mhat.csv": "84bae59deaca84245ba759a951d98481e0876a1777b119c605c673b853aab375",
    "zienkiewicz_That_ge.csv": "51670f4160c25cc602ddaa662c0d8b80992764985fa2391f71cda76ce7d8298d",
    "zienkiewicz_That_gv.csv": "e2df98db6eb6deb3796fca3417380d71c052fd1b626d4c4cc83769b3f563d349",
    "zienkiewicz_That_v.csv": "01b5fd65f3d5425313dddfd4ab7c93c9746d14a869506588edc99f9b3fa3f58b",
    "zienkiewicz_bhat.csv": "875b40d38d82012b0fe5ef1777d5770e020811977a3498b3b505fe6749f3cdb6",
}


def test_dump_tables_match_golden_digests(tmp_path):
    assert main(["dump-tables", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == TABLE_DIGESTS


def test_exp1_csv(tmp_path):
    out = tmp_path / "exp1.csv"
    assert main(["exp1", "--levels", "2", "--ns", "2", "4",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# ratfem")
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "n,level,ndof,lambda,lambda_bar,rel_gap"
    # exact rows have zero gap
    exact_rows = [ln for ln in lines[1:] if ln.startswith("0,")]
    assert all(ln.endswith(",0.0") for ln in exact_rows)


def test_exp2_guides_and_svg(tmp_path):
    out = tmp_path / "exp2.csv"
    svg = tmp_path / "exp2.svg"
    assert main(["exp2", "--ns", "2", "--budget", "220", "--solve-start",
                 "60", "--out", str(out), "--svg", str(svg)]) == 0
    text = out.read_text()
    assert "guide_slow = O(ndof^-1/2) through (1e3, 2e-2)" in text
    assert "guide_fast = O(ndof^-1) through (1e3, 1e-5)" in text
    body = svg.read_text()
    assert body.startswith("<svg") and "O(ndof^-1/2)" in body


def test_svg_dash_goes_to_standard_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["exp1", "--levels", "1", "--ns", "2", "--out", "exp1.csv",
                 "--svg", "-"]) == 0
    assert capsys.readouterr().out.startswith("<svg")
    assert [p.name for p in tmp_path.iterdir()] == ["exp1.csv"]


def test_near_double_smallest_eigenvalues_converge(tmp_path):
    # the first bisected L-shape mesh (17 free dofs) has its two smallest
    # eigenvalues 1703.78 and 1729.97, 1.5% apart
    out = tmp_path / "exp2.csv"
    assert main(["exp2", "--budget", "100", "--solve-start", "0",
                 "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln[:1].isdigit()]
    assert [int(r[2]) for r in rows if r[0] == "0"] == [37, 49, 97]


def test_a_singular_rule_stiffness_is_not_positive_definite(capsys):
    # one Gauss point per element leaves the rule-1 stiffness singular; it is
    # factored itself, and its pivots show nonpositive directions (how many
    # is roundoff's choice)
    assert main(["biharmonic-eig", "--domain", "lshape", "--levels", "2",
                 "--quadrature", "gauss:1"]) == 3
    assert capsys.readouterr().err == (
        "solver failure: n=1, level 1: pivot inertia (39, 4), want (43, 0)\n")


@pytest.mark.parametrize("argv, failure", [
    (["biharmonic-eig", "--levels", "2", "--variant", "reduced",
      "--quadrature", "gauss:1"],
     "n=1, level 2: Rayleigh quotient 2.13e-11 <= 1.7e-05"),
    (["exp1", "--levels", "2", "--ns", "1", "2", "--variant", "reduced"],
     "n=1, level 2: Rayleigh quotient 2.13e-11 <= 1.7e-05"),
    (["exp1", "--levels", "1", "--ns", "1"],
     "n=1, level 1: Rayleigh quotient 2.73e-12 <= 1.78e-07")],
    ids=["argv0", "argv1", "argv2"])
def test_a_singular_rule_stiffness_has_no_smallest_eigenvalue(capsys, argv,
                                                              failure):
    # the reduced rule-1 stiffness of the twice refined square (27 free dofs)
    # is singular, yet its pivots are all positive; the exact LU would
    # precondition LOBPCG onto its second eigenvalue, 184.96.  Each message
    # names its row; argv2 is the full rule-1 row of the once refined square
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"solver failure: {failure}: A is singular to working accuracy or "
        "indefinite\n")


def test_an_empty_plate_system_is_named(capsys):
    # the reduced element has no free dof on the coarse L-shape, all of whose
    # vertices lie on the boundary
    assert main(["exp2", "--variant", "reduced", "--solve-start", "0",
                 "--budget", "40", "--ns", "2"]) == 3
    assert capsys.readouterr().err == (
        "solver failure: n=0, level 0: empty system: no unknowns to solve for\n")


def test_svg_emitter():
    one = emit_svg([("p", [1.0], [2.0])], axes="linear")
    assert one.startswith("<svg")
    two = emit_svg([("a", [1, 10], [1, 2]), ("b", [1, 10], [2, 1], True)],
                   axes="loglog")
    assert ">a</text>" in two and ">b</text>" in two
    assert "stroke-dasharray" in two
    with pytest.raises(EmptySeriesError):
        emit_svg([])
    with pytest.raises(EmptySeriesError):
        emit_svg([("bad", [0.0, 1.0], [1.0, 2.0])], axes="loglog")


def test_stokes_cli(tmp_path, capsys):
    out = tmp_path / "stokes.csv"
    assert main(["stokes", "--elements", "32", "--quadrature", "gauss:2",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "taylor_hood_ref" in text
    assert "n,grad_err,div_err,pressure_err" in text
    # standard output carries the same CSV and nothing after it
    capsys.readouterr()
    assert main(["stokes", "--elements", "32", "--quadrature", "gauss:2"]) == 0
    assert capsys.readouterr().out == text


def test_single_solve_headers_hold_only_the_configuration(tmp_path):
    # a handler's repr carries a memory address, which would break reruns
    for argv in (["biharmonic-eig", "--levels", "1", "--quadrature", "gauss:2"],
                 ["stokes", "--elements", "32"]):
        out = tmp_path / "single.csv"
        assert main(argv + ["--out", str(out)]) == 0
        header = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
        assert not any("func" in ln or " at 0x" in ln for ln in header)
        assert any(ln.startswith("# variant = ") for ln in header)


def _child_env():
    """This environment with src/ first on PYTHONPATH, so that a child
    interpreter imports the checkout's ratfem without an install."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))


def test_rerun_byte_identical_in_fresh_processes(tmp_path):
    # fresh interpreter each time: exercises table recomputation determinism
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"exp_{tag}.csv"
        code = subprocess.run(
            [sys.executable, "-m", "ratfem.cli", "exp1", "--levels", "1",
             "--ns", "2", "--out", str(out)],
            capture_output=True, text=True, env=_child_env())
        assert code.returncode == 0, code.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("args", [["exp3", "--elements", "128"],
                                  ["exp1", "--levels", "2"],
                                  # the smallest budget whose last mesh has
                                  # vectors long enough for threaded BLAS dots
                                  ["exp2", "--budget", "6731"],
                                  # stream functions of about 3,000 entries,
                                  # then velocities of 20,866, past
                                  # OpenBLAS's threaded-dot size (10,000);
                                  # the 8,192 pressures stay below it
                                  ["exp3", "--elements", "2048", "--ns", "1", "2"],
                                  ["exp3", "--elements", "8192", "--ns", "1"],
                                  # 32,768 elements: the pressure's mean-zero
                                  # shift sums past the threaded-dot size
                                  ["stokes", "--elements", "16384",
                                   "--quadrature", "gauss:2"]])
def test_csv_bytes_independent_of_blas_threads(tmp_path, args):
    # assembly contracts through BLAS GEMMs and the eigensolver reduces
    # long vectors; the thread count must not change a single CSV byte
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{args[0]}_{threads}.csv"
        env = dict(_child_env(), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        code = subprocess.run(
            [sys.executable, "-m", "ratfem.cli", *args, "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert code.returncode == 0, code.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _data_digest(text):
    data = "".join(ln + "\n" for ln in text.splitlines() if not ln.startswith("#"))
    return hashlib.sha256(data.encode()).hexdigest()


#: argv, SHA-256 of the CSV data lines and of the SVG, and the header keys of
#: each run command.  The data digests were taken when every sparse entry came
#: to be summed in element order, and the exp3 and stokes ones again when the
#: Stokes velocity became element coefficients E C psi, measured by element
#: energies and divergences, exp3-128's again when the Stokes element
#: tensors came to be computed once per class of identical elements, and the
#: exp3 and stokes ones again when the reduced element became the full one
#: with interpolated edge dofs (grad_err moves by at most 1.1e-11 relative
#: where it is above roundoff); the SVG digests before each command was
#: given only its own options.  They hold under 1 and 2 OpenBLAS threads.
#: Both exp3 runs pin the order of grad_err's element-energy sum (summing per
#: element first moves them).
GOLDEN_RUNS = {
    "exp1": (["exp1", "--levels", "2", "--ns", "2", "4"],
             "451e549a9ed285a690b9f1c6984ebdfce1fb4579d6df3c2055d4a324f84c9a17",
             "499b4da39cdf1a3654c97ca09267bfcb67700903f97c5f3d1583c6f7bd2c2315",
             "command levels ns variant"),
    "exp2": (["exp2", "--ns", "2", "3", "--budget", "400", "--solve-start", "60"],
             "98316d88d5a259be52cc9a2b679ad3e2740d91ed793edc41e25c8d04f1788e85",
             "123cb68947cc61f85888a89d931f68c5f1e78b53a07c1a552bdbcc1189d4f1dd",
             "budget command guide_fast guide_slow ns solve_factor solve_start "
             "theta uniform_interval variant"),
    "exp3": (["exp3", "--elements", "32", "--ns", "1", "2", "3"],
             "1a764058211277651337e71c769e8199682188e135b7fd7378a6c50eecda5ab6",
             "9fb6dc7466cf758947cb4a5ca92e451c98b0d7fb2f2acae9a62d8b35cc8b8cd4",
             "command elements ns taylor_hood_ref variant"),
    "exp3-128": (["exp3", "--elements", "128", "--ns", "1", "2", "16"],
                 "daaa300ce4323a8fa7faf6bc6fae6f3c21f0662b1f4879e0d4b08aed29c66c65",
                 "000c3ea158aed155d8cb89680c67c6ec05a56cb80efa988afdbcdb5e870e8112",
                 "command elements ns taylor_hood_ref variant"),
    "biharmonic-eig": (["biharmonic-eig", "--domain", "lshape", "--levels", "2",
                        "--quadrature", "gauss:2"],
                       "9c768632cf170048d51e593c210309374940f6fc976fb241263dfc80daa804a9",
                       None, "command domain levels quadrature variant"),
    "stokes": (["stokes", "--elements", "32", "--quadrature", "gauss:2"],
               "00b58d3729abd46affe14e0e1d5960cbae1f9b09dbcb0b078d09e871f9b1ed73",
               None, "command elements quadrature taylor_hood_ref variant"),
}


@pytest.mark.parametrize("command", GOLDEN_RUNS)
def test_run_commands_keep_their_bytes_and_header_keys(tmp_path, command):
    argv, data, svg_digest, keys = GOLDEN_RUNS[command]
    out, svg = tmp_path / "run.csv", tmp_path / "run.svg"
    argv = argv + ["--out", str(out)] + (["--svg", str(svg)] if svg_digest else [])
    assert main(argv) == 0
    text = out.read_text()
    assert _data_digest(text) == data
    if svg_digest:
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_digest
    header = [ln[2:].split(" = ")[0] for ln in text.splitlines()[1:]
              if ln.startswith("# ")]
    assert header == keys.split()


@pytest.mark.parametrize("argv", [["exp3", "--budget", "7"],
                                  ["exp1", "--elements", "8"],
                                  ["exp2", "--levels", "3"]])
def test_options_of_other_experiments_are_rejected(monkeypatch, capsys, argv):
    def started(**options):
        raise AssertionError("the experiment started")
    for name in ("run_exp1_square", "run_exp2_lshape", "run_exp3_stokes"):
        _replace_driver(monkeypatch, name, started)
    assert main(argv) == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err


#: Each experiment's driver.
DRIVERS = {"exp1": experiments.run_exp1_square,
           "exp2": experiments.run_exp2_lshape,
           "exp3": experiments.run_exp3_stokes}


def _locals_read(code):
    """The names of the local variables that `code` or a scope nested in it
    (a comprehension, say) loads."""
    read = set()
    for ins in dis.get_instructions(code):
        if ins.opname.startswith(("LOAD_FAST", "LOAD_DEREF")):
            read.update(ins.argval if isinstance(ins.argval, tuple)
                        else (ins.argval,))
    for const in code.co_consts:
        if inspect.iscode(const):
            read |= _locals_read(const)
    return read


def _subcommands():
    """The subparsers of the ratfem parser, by command name."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_each_experiment_takes_exactly_the_fields_its_driver_reads():
    sub = _subcommands()
    assert sorted(c for c in sub if c.startswith("exp")) == sorted(DRIVERS)
    for which, driver in DRIVERS.items():
        params = inspect.signature(driver).parameters
        # a parameter the driver never reads would be a silently ignored option
        assert set(params) <= _locals_read(driver.__code__), which
        actions = {a.dest: a for a in sub[which]._actions}
        # exp1 is the unit-square study; only biharmonic-eig sets a domain
        taken = set(params) - {"domain"}
        assert set(actions) - {"help"} == {"out", "svg"} | taken, which
        # the driver's defaults are the command's (--ns as a list)
        for name in taken:
            default = params[name].default
            assert actions[name].default == (
                list(default) if name == "ns" else default), (which, name)


#: What each command needs besides the drawn option to start its work.
BASE_ARGV = {"quad": ["--table"], "mesh": ["dump"]}


def _out_of_range(dest, kind):
    """Values of option `dest` outside its bound, as command-line words.

    The lower bounds come from cli.BOUNDS; theta must lie in (0, 1] and each
    rule n in --ns in [1, cli.MAX_RULE].
    """
    nan = st.just(float("nan"))
    if dest == "ns":
        bad = st.integers(max_value=0) | st.integers(min_value=cli.MAX_RULE + 1)
        return st.tuples(st.lists(st.integers(1, 3), max_size=2), bad).map(
            lambda t: ["--ns", *map(str, t[0] + [t[1]])])
    if dest == "theta":
        values = st.floats(max_value=0) | st.floats(min_value=1,
                                                    exclude_min=True) | nan
    else:
        low = cli.BOUNDS[dest]
        values = (st.integers(max_value=low - 1) if kind is int else
                  st.floats(max_value=low, exclude_max=True) | nan)
    flag = "--" + dest.replace("_", "-")
    return values.map(lambda v: [f"{flag}={v}"])


def _numeric_options():
    """(command, dest, type) of every int or float option of every command."""
    return [(name, a.dest, a.type) for name, p in _subcommands().items()
            for a in p._actions if a.type in (int, float)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_numeric_option_out_of_range_is_rejected_before_any_work(
        monkeypatch, tmp_path, data):
    def started(*args, **kwargs):
        raise AssertionError("the command started")
    for module, name in [(experiments, "assemble_biharmonic"),
                         (experiments, "assemble_stokes"),
                         (guzman_neilan, "assemble_stokes"),
                         (cli, "integral_mean"), (cli, "refine_uniform"),
                         (cli, "dump_mesh")]:
        monkeypatch.setattr(module, name, started)
    command, dest, kind = data.draw(st.sampled_from(_numeric_options()))
    words = data.draw(_out_of_range(dest, kind))
    out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    files = ["--out", str(out)] + (["--svg", str(svg)] if command.startswith(
        "exp") else [])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, *BASE_ARGV.get(command, []), *words, *files])
    assert code == 2, (command, words)
    assert err.getvalue().startswith("configuration error: "), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not out.exists() and not svg.exists()


def test_every_numeric_option_has_a_bound():
    # a new int or float option needs a bound before the draw above can
    # reach it
    assert {dest for _, dest, _ in _numeric_options()} == (
        set(cli.BOUNDS) | {"ns", "theta"})

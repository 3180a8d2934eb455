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

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ratfem import cli, experiments, guzman_neilan, zienkiewicz
from ratfem.cli import main
from ratfem.experiments import EmptySeriesError, emit_svg
from ratfem.fecore import ZeroBubbleDofError
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
    coefficients of a Vandermonde whose bubble edge dofs all vanish."""
    def fail():
        element.shape_coefficients(np.zeros((1, 12, 12)), "reduced",
                                   np.zeros((1, 3, 2)))
    return fail


BUBBLE_VANISHED = "a bubble's own edge dof vanished at an edge midpoint"


@pytest.mark.parametrize("failure, message", [
    pytest.param(_raise(error), "no factorization", id=error.__name__)
    for error in (NotPositiveDefiniteError, SingularSystemError,
                  NoConvergenceError,
                  # a singular Vandermonde in np.linalg.inv
                  np.linalg.LinAlgError, SingularEvaluationError)] + [
    # both reduced elements raise the one fecore.ZeroBubbleDofError
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
    with pytest.raises(ZeroBubbleDofError, match=BUBBLE_VANISHED):
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
    assert main([which, *OWN_FLAGS[which], "--ns", "2", "0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: quadrature rules need n >= 1, got (2, 0)\n")
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
    # one Gauss point per element leaves the rule-1 stiffness singular; the
    # exact LU that preconditions its solve certifies nothing about it
    assert main(["biharmonic-eig", "--domain", "lshape", "--levels", "2",
                 "--quadrature", "gauss:1"]) == 3
    assert capsys.readouterr().err == (
        "solver failure: Rayleigh quotient 3.65e-08 <= 1.3e-07: A is "
        "singular to working accuracy or indefinite\n")


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


def test_stokes_cli(tmp_path):
    out = tmp_path / "stokes.csv"
    assert main(["stokes", "--elements", "32", "--quadrature", "gauss:2",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "taylor_hood_ref" in text
    assert "n,grad_err,div_err,pressure_err" in text


def test_single_solve_headers_hold_only_the_configuration(tmp_path):
    # a handler's repr carries a memory address, which would break reruns
    for argv in (["biharmonic-eig", "--levels", "1", "--quadrature", "gauss:2"],
                 ["stokes", "--elements", "32"]):
        out = tmp_path / "single.csv"
        assert main(argv + ["--out", str(out)]) == 0
        header = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
        assert not any("func" in ln or " at 0x" in ln for ln in header)
        assert any(ln.startswith("# variant = ") for ln in header)


def test_rerun_byte_identical_in_fresh_processes(tmp_path):
    # fresh interpreter each time: exercises table recomputation determinism
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"exp_{tag}.csv"
        code = subprocess.run(
            [sys.executable, "-m", "ratfem.cli", "exp1", "--levels", "1",
             "--ns", "2", "--out", str(out)],
            capture_output=True, text=True)
        assert code.returncode == 0, code.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("args", [["exp3", "--elements", "128"],
                                  ["exp1", "--levels", "2"],
                                  # the smallest budget whose last mesh has
                                  # vectors long enough for threaded BLAS dots
                                  ["exp2", "--budget", "6731"],
                                  # saddle vectors of about 7,000 entries, then
                                  # velocities of 20,866, past OpenBLAS's
                                  # threaded-dot size (10,000); the 8,192
                                  # pressures stay below it
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
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
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
#: each run command.  The digests were taken before each command was given
#: only its own options, except the exp3 and stokes data, re-taken when the
#: saddle solve moved to a refined quasi-definite factorization and grad_err
#: to an einsum dot, and the exp1, exp2 and biharmonic-eig data, re-taken
#: when LOBPCG replaced inverse iteration (roundoff moves, lambda by at most
#: 7.5e-13 relative); they hold under 1 and 2 OpenBLAS threads.  At 32
#: elements grad_err's sum is insensitive to its order; the 128-element run
#: pins that order (a sum over the free dofs alone moves it).
GOLDEN_RUNS = {
    "exp1": (["exp1", "--levels", "2", "--ns", "2", "4"],
             "3ab7675b26c7ace107bc06bbad6da2b6b6169b81fad7bc9c0ed7bbfa882440ff",
             "499b4da39cdf1a3654c97ca09267bfcb67700903f97c5f3d1583c6f7bd2c2315",
             "command levels ns variant"),
    "exp2": (["exp2", "--ns", "2", "3", "--budget", "400", "--solve-start", "60"],
             "947781967d1c9ab6f72f79f94ae8ae3f0395080743411a3fcfc37567fb4e5b0f",
             "123cb68947cc61f85888a89d931f68c5f1e78b53a07c1a552bdbcc1189d4f1dd",
             "budget command guide_fast guide_slow ns solve_factor solve_start "
             "theta uniform_interval variant"),
    "exp3": (["exp3", "--elements", "32", "--ns", "1", "2", "3"],
             "8ef36bc32df9d5ccf5480251cb258ea03a403d2d533f53782df7caa0453d0fc7",
             "9fb6dc7466cf758947cb4a5ca92e451c98b0d7fb2f2acae9a62d8b35cc8b8cd4",
             "command elements ns taylor_hood_ref variant"),
    "exp3-128": (["exp3", "--elements", "128", "--ns", "1", "2", "16"],
                 "e3d3a4e73523206f205cd32e3d44fe9f218b4ae987d466078be7aaf0b20db0f5",
                 "000c3ea158aed155d8cb89680c67c6ec05a56cb80efa988afdbcdb5e870e8112",
                 "command elements ns taylor_hood_ref variant"),
    "biharmonic-eig": (["biharmonic-eig", "--domain", "lshape", "--levels", "2",
                        "--quadrature", "gauss:2"],
                       "f192cba52b427fa1650d2dcf816708d15617d99446e3da3087cec29d008420d4",
                       None, "command domain levels quadrature variant"),
    "stokes": (["stokes", "--elements", "32", "--quadrature", "gauss:2"],
               "dc6d304728d6a8db6ec3e729e285e6d5075b1eb83bf48c17202b1126732967f7",
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
    rule n in --ns be at least 1.
    """
    nan = st.just(float("nan"))
    if dest == "ns":
        return st.tuples(st.lists(st.integers(1, 3), max_size=2),
                         st.integers(max_value=0)).map(
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

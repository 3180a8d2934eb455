import hashlib
import os
import subprocess
import sys

import pytest

from ratfem import cli, experiments
from ratfem.cli import main
from ratfem.experiments import EmptySeriesError, emit_svg
from ratfem.solvers import (NoConvergenceError, NotPositiveDefiniteError,
                            SingularSystemError)


def test_quad_value(capsys):
    assert main(["quad", "--alpha", "1,2,2", "--beta", "0,1,1"]) == 0
    out = capsys.readouterr().out
    assert "593/180 - 1/3*pi^2" in out


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


@pytest.mark.parametrize("args", [
    ["mesh", "load", "--file", "{tmp}/missing.txt"],
    ["mesh", "dump", "--out", "{tmp}/missing/mesh.txt"],
    ["exp1", "--levels", "1", "--ns", "2", "--out", "{tmp}/exp1.csv",
     "--svg", "{tmp}/missing/exp1.svg"],
])
def test_io_failures_are_configuration_errors(tmp_path, capsys, args):
    assert main([a.format(tmp=tmp_path) for a in args]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    # output directories are checked before the run, so no CSV is left behind
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("error", [NotPositiveDefiniteError,
                                   SingularSystemError, NoConvergenceError])
def test_solver_failures_exit_3(monkeypatch, capsys, error):
    def fail(cfg):
        raise error("no factorization")
    monkeypatch.setattr(cli, "run_exp1_square", fail)
    assert main(["exp1", "--levels", "1", "--ns", "2"]) == 3
    assert capsys.readouterr().err == (
        "solver failure: no factorization\n")


@pytest.mark.parametrize("which", ["exp1", "exp2", "exp3"])
def test_rules_below_one_are_rejected_before_any_work(monkeypatch, capsys,
                                                      tmp_path, which):
    def started(*args, **kwargs):
        raise AssertionError("the experiment started")
    monkeypatch.setattr(experiments, "assemble_biharmonic", started)
    monkeypatch.setattr(experiments, "assemble_stokes", started)
    out = tmp_path / "rows.csv"
    assert main([which, "--levels", "1", "--elements", "8", "--ns", "2", "0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: --ns takes rules n >= 1, got [2, 0]\n")
    assert not out.exists()


def test_deep_indices_are_a_configuration_error(capsys):
    assert main(["quad", "--alpha", "0,2000,2000", "--beta", "0,1,2000"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: indices too large for the exact recursion\n")


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
                                  ["exp2", "--budget", "6731"]])
def test_csv_bytes_independent_of_blas_threads(tmp_path, args):
    # assembly contracts through BLAS GEMMs and inverse iteration reduces
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

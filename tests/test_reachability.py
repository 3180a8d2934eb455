"""Reachability guard: every module-level function and method in
`src/ratfem` runs in some command, is listed in README's `## Library API`
section, or is on an allowlist, which is empty; and `ratfem.__all__` is
exactly the top-level names that section lists.

The command forms run in one fresh interpreter, each through `cli.main`
under `sys.setprofile`: in the test process another test may already have
filled a memo, and a memoized function would then never be entered.  The
profiler starts before ratfem is imported, so what runs at import time (the
shared memo's constructor, say) counts as reached.  Run as a script, this
module prints the names that the forms reached.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Functions kept although no command reaches them; none today.
ALLOWED = set()


def command_forms(tmp):
    """Every command form once, at toy size, writing into directory `tmp`."""
    mesh = str(tmp / "mesh.txt")
    return [
        ["quad", "--alpha", "1,2,2", "--beta", "0,1,1"],
        ["quad", "--alpha", "0,0,0", "--beta", "0,0,2"],
        ["quad", "--table", "--amax", "1", "--bmax", "1",
         "--out", str(tmp / "table.csv")],
        ["biharmonic-eig", "--levels", "1", "--out", str(tmp / "eig1.csv")],
        ["biharmonic-eig", "--domain", "lshape", "--levels", "1",
         "--quadrature", "gauss:2", "--variant", "reduced",
         "--out", str(tmp / "eig2.csv")],
        ["stokes", "--elements", "8", "--out", str(tmp / "stokes1.csv")],
        ["stokes", "--elements", "8", "--quadrature", "gauss:2",
         "--variant", "full", "--out", str(tmp / "stokes2.csv")],
        ["exp1", "--levels", "1", "--ns", "2", "--out", str(tmp / "exp1.csv"),
         "--svg", str(tmp / "exp1.svg")],
        ["exp2", "--budget", "220", "--solve-start", "60", "--ns", "2",
         "--out", str(tmp / "exp2.csv"), "--svg", str(tmp / "exp2.svg")],
        ["exp3", "--elements", "8", "--ns", "1", "--out", str(tmp / "exp3.csv"),
         "--svg", str(tmp / "exp3.svg")],
        ["dump-tables", str(tmp / "tables")],
        ["mesh", "dump", "--domain", "lshape", "--refine", "1", "--out", mesh],
        ["mesh", "load", "--file", mesh],
    ]


def library_api(readme):
    """The names in backticks in README's `## Library API` section: a
    top-level name, or Class.attribute; a call's arguments are dropped."""
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`\n]+)`", section)
    return {m.group(1) for span in spans
            if (m := re.fullmatch(r"(\w+(?:\.\w+)?)(?:\(.*\))?", span))}


def _code(member, module):
    """The code object of a function, method or property defined in
    `module`'s file, or None (data, or code generated by a decorator)."""
    member = getattr(member, "__func__", getattr(member, "fget", member))
    code = getattr(inspect.unwrap(member), "__code__", None)
    return code if code is not None and code.co_filename == module.__file__ else None


def definitions():
    """(qualified name, code object, public name or None) of each module-level
    function and method of src/ratfem; the public name is `name` or
    `Class.attribute` for what ratfem.__all__ exports."""
    import ratfem
    exported = [getattr(ratfem, name) for name in ratfem.__all__]
    for info in pkgutil.iter_modules(ratfem.__path__):
        module = importlib.import_module(f"ratfem.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            public = any(obj is e for e in exported)
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                code = _code(member, module)
                if code is not None:
                    short = name if attr is None else f"{name}.{attr}"
                    yield (f"{module.__name__}.{short}", code,
                           short if public else None)


def reached_names(tmp):
    """Import ratfem and run every command form under a profiler; return the
    names reached."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from ratfem.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in command_forms(tmp)]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(codes), codes
    return sorted(name for name, code, _ in definitions() if code in entered)


def _run(code, *args):
    """Run python `code` (a file or -c text) in a fresh interpreter with
    src/ on the path; return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, *code, *args], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_every_function_in_src_is_reached_public_or_allowed(tmp_path):
    import ratfem
    reached = set(json.loads(_run([__file__], str(tmp_path))))
    listed = library_api((ROOT / "README.md").read_text())
    assert set(ratfem.__all__) == {name for name in listed if "." not in name}
    for name in listed - set(ratfem.__all__):
        owner, attr = name.split(".")
        assert owner in ratfem.__all__ and hasattr(getattr(ratfem, owner), attr), name
    defined = list(definitions())
    private = {name for name, _, public in defined if public is None}
    assert sorted(private - reached - ALLOWED) == []
    unlisted = {public for name, _, public in defined
                if public is not None and name not in reached} - listed
    assert sorted(unlisted) == []
    # an allowlist entry that a command reaches is stale
    assert not ALLOWED & reached


#: What perfbench binds or reads besides the wrappers of `tracer.install`,
#: a traced assembly of each element and a traced plate eigen row pair.  Both
#: elements fill their matrices (plate A and M, the Stokes stream-function S
#: and B; the Stokes velocity space keeps its element tensors and has no
#: matrix) through the wrapped `assemble_matrix`, or the fill layer drops out
#: of the trace; B is the mesh's, so a second Stokes rule on that mesh fills
#: S alone; the plate phase and the stream function's, built by the one
#: `zienkiewicz.mesh_phase`, each open two wrapped `zienkiewicz.vandermonde`
#: spans (Vandermonde, shape coefficients), and a second rule opens none;
#: the exact and the rule-2 solve go through the wrapped
#: `solve_biharmonic_eigen` and `gen_eig_smallest`, on one factorization by
#: the wrapped `splu`; exp3 calls the wrapped `stokes_load` once per
#: assembly, on arrays, solves each row through the wrapped `solve_stokes`,
#: measures it through the wrapped `grad_norm` and `divergence_l2`, and
#: factors three matrices per mesh whatever its rules: the exact S, rule 1's
#: S and the mesh's B_1^T B_1.
BENCHMARK_READS = """
import sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
import ratfem
from ratfem import experiments
from ratfem.mesh import refine_uniform, unit_square_mesh
from ratfem.quadrature import DEFAULT_CACHE, MemoCache
value = ratfem.integral_mean((1, 2, 2), (0, 1, 1))
assert ratfem.is_finite_index((1, 2, 2), (0, 1, 1))
mesh = refine_uniform(unit_square_mesh())
for assemble, quadrature, matrices, phases in (
        (experiments.assemble_biharmonic, 2, 2, 2),
        (experiments.assemble_stokes, 2, 2, 2),
        (experiments.assemble_stokes, 3, 1, 0)):
    before = len(tracer.spans)
    assemble(mesh, quadrature=quadrature)
    names = [span[0] for span in tracer.spans[before:]]
    assert names.count("fecore.assemble_matrix") == matrices, names
    assert names.count("zienkiewicz.vandermonde") == phases, names
assert tracer.maxima["fecore.nnz_max"] > 0, dict(tracer.maxima)
before, factored = len(tracer.spans), tracer.counts["solvers.factor_count"]
experiments.eigen_rows(mesh, 1, (2,), "full")
names = [span[0] for span in tracer.spans[before:]]
assert names.count("solvers.eig") == 2, names
assert names.count("zienkiewicz.solve_eigen") == 2, names
assert tracer.counts["solvers.factor_count"] - factored == 1, dict(tracer.counts)
before, factored = len(tracer.spans), tracer.counts["solvers.factor_count"]
experiments.run_exp3_stokes(elements=8, ns=(1, 4))
names = [span[0] for span in tracer.spans[before:]]
assert names.count("guzman_neilan.solve") == 3, names
assert names.count("guzman_neilan.measure") == 6, names
assert tracer.counts["solvers.factor_count"] - factored == 3, dict(tracer.counts)
assert tracer.leaves["guzman_neilan.load"][0] == 3, dict(tracer.leaves)
print(len(DEFAULT_CACHE), len(DEFAULT_CACHE.table), value.q0, value.q1,
      value.to_float(), MemoCache.key((1, 2, 2), (0, 1, 1)))
"""


def test_the_names_the_benchmark_binds_exist():
    out = _run(["-c", BENCHMARK_READS], str(ROOT / "perfbench"))
    assert out.split()[2:4] == ["593/180", "-1/3"]


#: The one assembly path (fecore's scatter plan) and the one solver layer.
SPARSE_MODULES = {"ratfem.fecore", "ratfem.solvers"}


def test_only_fecore_and_solvers_import_scipy_sparse():
    importers = set()
    for path in sorted((ROOT / "src" / "ratfem").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "scipy.sparse" or name.startswith("scipy.sparse.")
                   for name in names):
                importers.add(f"ratfem.{path.stem}")
    assert importers == SPARSE_MODULES


if __name__ == "__main__":
    print(json.dumps(reached_names(Path(sys.argv[1]))))

"""Reachability guard: every module-level function and method in
`src/ratfem` runs in some command, is public API (`ratfem.__all__`, or a
method of a class listed there), or is on a one-entry allowlist.

The command forms run in one fresh interpreter, each through `cli.main`
under `sys.setprofile`: in the test process another test may already have
filled a memo, and a memoized function would then never be entered.
Run as a script, this module prints the names that the forms reached.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ratfem

#: Kept although no command reaches it: the plate load, which
#: `assemble_biharmonic(f=...)` evaluates and no command passes.
ALLOWED = {"ratfem.zienkiewicz.local_load"}


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


def _code(member, module):
    """The code object of a function, method or property defined in
    `module`'s file, or None (data, or code generated by a decorator)."""
    member = getattr(member, "__func__", getattr(member, "fget", member))
    code = getattr(inspect.unwrap(member), "__code__", None)
    return code if code is not None and code.co_filename == module.__file__ else None


def definitions():
    """(qualified name, code object, public) of each module-level function
    and method of src/ratfem."""
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
                    qualname = f"{module.__name__}.{name}"
                    yield (qualname if attr is None else f"{qualname}.{attr}",
                           code, public)


def reached_names(tmp):
    """Run every command form under a profiler; return the names reached."""
    from ratfem.cli import main
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in command_forms(tmp)]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(codes), codes
    return sorted(name for name, code, _ in definitions() if code in entered)


def test_every_function_in_src_is_reached_public_or_allowed(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(ratfem.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, __file__, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    reached = set(json.loads(run.stdout))
    private = {name for name, _, public in definitions() if not public}
    assert sorted(private - reached - ALLOWED) == []
    # an allowlist entry that a command reaches is stale
    assert not ALLOWED & reached


if __name__ == "__main__":
    print(json.dumps(reached_names(Path(sys.argv[1]))))

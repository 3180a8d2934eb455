"""Command line interface: quadrature utilities, single solves, the three
quadrature-error experiments, table dumps and mesh I/O.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import sys
from pathlib import Path

import numpy as np

from . import __version__, guzman_neilan, zienkiewicz
from .exact import InfiniteValueError
from .experiments import (TAYLOR_HOOD_REF, csv_text, emit_svg,
                          run_exp1_square, run_exp2_lshape, run_exp3_stokes,
                          stokes_mesh, stokes_rows)
from .mesh import DOMAINS, dump_mesh, load_mesh, refine_uniform
from .quadrature import integral_mean, is_finite_index
from .ratfun import SingularEvaluationError
from .solvers import NoConvergenceError

#: Lower bound of each numeric option; theta lies in (0, 1] and each rule n
#: (--ns, --quadrature gauss:N), whose tables cost O(n^2), in [1, MAX_RULE].
BOUNDS = {"levels": 1, "elements": 1, "budget": 1, "uniform_interval": 0,
          "solve_start": 0, "solve_factor": 1, "amax": 0, "bmax": 0,
          "refine": 0}
MAX_RULE = 100

#: exp2's guide lines: header key, label, slope and value at ndof = 1e3.
GUIDES = [("guide_slow", "O(ndof^-1/2)", -0.5, "2e-2"),
          ("guide_fast", "O(ndof^-1)", -1.0, "1e-5")]


class ConfigError(ValueError):
    pass


def _parse_midx(text, option):
    """The multi-index that `option` gives as 'i,j,k'."""
    try:
        idx = tuple(int(p) for p in text.split(","))
    except ValueError:
        idx = ()
    if len(idx) != 3 or min(idx) < 0:
        raise ConfigError(f"{option} needs the form 'i,j,k' of three nonnegative "
                          f"integers, got {text!r}")
    return idx


def _parse_quadrature(text):
    """Rule n of 'gauss:N', or 0 (the exact system's row n) for 'exact'."""
    if text == "exact":
        return 0
    try:
        n = int(text.removeprefix("gauss:")) if text.startswith("gauss:") else None
    except ValueError:
        n = None
    if n is None:
        raise ConfigError("--quadrature needs 'exact' or the form 'gauss:N' with an "
                          f"integer N, got {text!r}")
    if not 1 <= n <= MAX_RULE:
        raise ConfigError(f"gauss rule needs 1 <= n <= {MAX_RULE}, got {n}")
    return n


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _check_output_dirs(args):
    """Fail before any work if an output file is a directory or its directory
    does not exist, or if the CSV and the SVG share a file or standard output."""
    out, svg = getattr(args, "out", None), getattr(args, "svg", None)
    for path in (out, svg):
        if path in (None, "-"):
            continue
        if Path(path).is_dir():
            raise IsADirectoryError(f"Is a directory: '{path}'")
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(
                f"No such file or directory: '{Path(path).parent}'")
    ends = [None if p in (None, "-") else Path(p).resolve() for p in (out, svg)]
    if svg is not None and ends[0] == ends[1]:
        raise ConfigError("--out and --svg name one destination: "
                          f"{ends[1] or 'standard output'}")


def _check_bounds(args):
    """ConfigError unless every rule n is in [1, MAX_RULE] and given once,
    theta is in (0, 1] and each option named in BOUNDS is >= its bound
    (absent or None options pass)."""
    ns = getattr(args, "ns", ())
    for bad, what in ((min(ns, default=1) < 1, "need n >= 1"),
                      (max(ns, default=1) > MAX_RULE, f"need n <= {MAX_RULE}"),
                      (len(set(ns)) < len(ns), "repeat")):
        if bad:
            raise ConfigError(f"quadrature rules {what}, got {tuple(ns)}")
    theta = getattr(args, "theta", 1)
    if not 0 < theta <= 1:
        raise ConfigError(f"theta must be in (0, 1], got {theta}")
    for name, low in BOUNDS.items():
        value = getattr(args, name, None)
        if value is not None and not value >= low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")


def _reject_unread(args, mode, *names):
    """ConfigError if an option that `mode` of the command never reads was
    given (such options default to None)."""
    given = ", ".join(f"--{n}" for n in names if getattr(args, n) is not None)
    if given:
        raise ConfigError(f"{args.command} {mode} does not read {given}")


def cmd_quad(args):
    given = (args.alpha is not None) + (args.beta is not None)
    if given != (0 if args.table else 2):
        raise ConfigError("either --table or both --alpha and --beta")
    if args.table:
        amax = 4 if args.amax is None else args.amax
        bmax = 3 if args.bmax is None else args.bmax
        rows = []
        betas = [(beta, ",".join(map(str, beta)))
                 for beta in itertools.product(range(bmax + 1), repeat=3)]
        for alpha in itertools.product(range(amax + 1), repeat=3):
            a = ",".join(map(str, alpha))
            for beta, b in betas:
                if not is_finite_index(alpha, beta):
                    continue
                val = integral_mean(alpha, beta)
                n0, d0 = val.q0.as_integer_ratio()
                n1, d1 = val.q1.as_integer_ratio()
                rows.append(f"{a},{b},{n0},{d0},{n1},{d1}")
        header = "a0,a1,a2,b0,b1,b2,q0_num,q0_den,q1_num,q1_den"
        _write(args.out, "\n".join([header] + rows) + "\n")
        return 0
    _reject_unread(args, "--alpha/--beta", "amax", "bmax")
    val = integral_mean(_parse_midx(args.alpha, "--alpha"),
                        _parse_midx(args.beta, "--beta"))
    try:
        _write(args.out, f"{val} = {val.to_float()!r}\n")
    except InfiniteValueError:
        _write(args.out, "inf\n")
    return 0


def _config(args):
    """A run's CSV header: the command and its options but no output path."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "out", "svg")}
    if args.command == "exp2":
        for key, label, _, anchor in GUIDES:
            config[key] = f"{label} through (1e3, {anchor})"
    if args.command in ("exp3", "stokes"):
        config["taylor_hood_ref"] = TAYLOR_HOOD_REF
    return config


def cmd_biharmonic(args):
    n = _parse_quadrature(args.quadrature)
    rows = run_exp1_square(levels=args.levels, ns=(n,) if n else (),
                           variant=args.variant, domain=args.domain)
    rows = [row for row in rows if row["n"] == n]
    cols = [c for c in rows[0] if c != "n"]
    _write(args.out, csv_text(_config(args), cols, rows))
    return 0


def cmd_stokes(args):
    n = _parse_quadrature(args.quadrature)
    rows = stokes_rows(stokes_mesh(args.elements), (n,), args.variant)
    _write(args.out, csv_text(_config(args), list(rows[0]), rows))
    return 0


def _drivers():
    """Each experiment's driver, looked up per call, where a tracer may have
    wrapped it."""
    return {"exp1": run_exp1_square, "exp2": run_exp2_lshape,
            "exp3": run_exp3_stokes}


def _experiment(args):
    runner = _drivers()[args.command]
    params = inspect.signature(runner).parameters
    rows = runner(**{k: v for k, v in vars(args).items() if k in params})
    if not rows:
        raise ConfigError("the run yields no rows")
    # rendered first: a run with nothing to plot writes neither file
    svg = _plot(args.command, rows) if args.svg else None
    _write(args.out, csv_text(_config(args), list(rows[0]), rows))
    if svg is not None:
        _write(args.svg, svg)
    return 0


def _plot(command, rows):
    """The SVG of an experiment's rows."""
    if command == "exp3":
        xs = [r["n"] for r in rows if r["n"] > 0]
        ys = [r["grad_err"] for r in rows if r["n"] > 0]
        series = [("grad_err", xs, ys),
                  ("Taylor-Hood", [min(xs), max(xs)],
                   [TAYLOR_HOOD_REF, TAYLOR_HOOD_REF], True)]
        return emit_svg(series, axes="semilogy")
    series = []
    for n in sorted({r["n"] for r in rows} - {0}):
        pts = [(r["ndof"], r["rel_gap"]) for r in rows
               if r["n"] == n and r["rel_gap"] > 0]
        if pts:
            series.append((f"n={n}", [p[0] for p in pts], [p[1] for p in pts]))
    if command == "exp2" and series:
        lo = min(min(s[1]) for s in series)
        hi = max(max(s[1]) for s in series)
        for _, label, power, anchor in GUIDES:
            series.append((label, [lo, hi],
                           [float(anchor) * (lo / 1e3) ** power,
                            float(anchor) * (hi / 1e3) ** power], True))
    return emit_svg(series)


def cmd_dump_tables(args):
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    zt = zienkiewicz.get_tables()
    gt = guzman_neilan.get_tables()
    tensors = {f"{prefix}_{name}": getattr(tables, name)
               for prefix, tables, names in (
                   ("zienkiewicz", zt, "Ahat Mhat That_v That_gv That_ge bhat"),
                   ("gn", gt, "Rhat Mhat That_gv That_ge val_mid bhat1 bhat2"))
               for name in names.split()}
    for name, tensor in tensors.items():
        lines = [",".join(f"i{k}" for k in range(tensor.ndim)) + ",value"]
        for idx in np.ndindex(tensor.shape):
            lines.append(",".join(map(str, idx)) + f",{float(tensor[idx])!r}")
        (out / f"{name}.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(tensors)} tables to {out}")
    return 0


def cmd_mesh(args):
    if args.action == "dump":
        _reject_unread(args, "dump", "file")
        mesh = DOMAINS[args.domain or "square"]()
        for _ in range(args.refine or 0):
            mesh = refine_uniform(mesh)
        _write(args.out, dump_mesh(mesh))
    else:
        _reject_unread(args, "load", "domain", "refine", "out")
        if args.file is None:
            raise ConfigError("mesh load needs --file")
        mesh = load_mesh(Path(args.file).read_text())
        print(f"nodes {mesh.num_vertices} elements {mesh.num_elements} "
              f"edges {mesh.num_edges} area {float(mesh.areas().sum())!r}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="ratfem",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"ratfem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quad", help="exact integral means", description=(
        "Exact integral means of lam^alpha/(1-lam)^beta; the indices are "
        "limited by time and memory, not by recursion depth."))
    q.add_argument("--alpha")
    q.add_argument("--beta")
    q.add_argument("--table", action="store_true")
    q.add_argument("--amax", type=int, help="--table only (default 4)")
    q.add_argument("--bmax", type=int, help="--table only (default 3)")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_quad)

    b = sub.add_parser("biharmonic-eig", help="clamped-plate eigenvalue solve")
    b.add_argument("--domain", choices=DOMAINS, default="square")
    b.add_argument("--quadrature", default="exact")
    b.add_argument("--levels", type=int, default=4)
    b.add_argument("--variant", choices=["full", "reduced"], default="full")
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_biharmonic)

    s = sub.add_parser("stokes", help="Guzman-Neilan Stokes solve")
    s.add_argument("--elements", type=int, default=8192)
    s.add_argument("--quadrature", default="exact")
    s.add_argument("--variant", choices=["full", "reduced"], default="reduced")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_stokes)

    for which, driver in _drivers().items():
        e = sub.add_parser(which, help=f"quadrature-error experiment {which}")
        # one option per driver parameter, of its type and default; exp1 is
        # the unit-square study, and only biharmonic-eig sets a domain
        for name, param in inspect.signature(driver).parameters.items():
            flag, default = "--" + name.replace("_", "-"), param.default
            if name == "ns":
                e.add_argument(flag, type=int, nargs="+",
                               default=list(default))
            elif name == "variant":
                e.add_argument(flag, choices=["full", "reduced"],
                               default=default)
            elif name != "domain":
                e.add_argument(flag, type=type(default), default=default)
        e.add_argument("--out", default=None)
        e.add_argument("--svg", default=None)
        e.set_defaults(func=_experiment)

    d = sub.add_parser("dump-tables", help="write reference tensors as CSV")
    d.add_argument("dir")
    d.set_defaults(func=cmd_dump_tables)

    m = sub.add_parser("mesh", help="mesh text I/O")
    m.add_argument("action", choices=["dump", "load"])
    m.add_argument("--domain", choices=DOMAINS, help="dump only (default square)")
    m.add_argument("--refine", type=int, help="dump only (default 0)")
    m.add_argument("--file", help="load only")
    m.add_argument("--out", help="dump only")
    m.set_defaults(func=cmd_mesh)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_output_dirs(args)
        _check_bounds(args)
        return args.func(args)
    # numerical failures first: a LinAlgError is also a ValueError
    except (np.linalg.LinAlgError, NoConvergenceError, SingularEvaluationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

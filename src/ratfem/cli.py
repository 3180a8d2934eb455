"""Command line interface: quadrature utilities, single solves, the three
quadrature-error experiments, table dumps and mesh I/O.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .exact import InfiniteValueError
from .experiments import (ExperimentConfig, TAYLOR_HOOD_REF, csv_text,
                          eigen_rows, emit_svg, run_exp1_square,
                          run_exp2_lshape, run_exp3_stokes, stokes_load,
                          stokes_mesh, stokes_row)
from .mesh import (dump_mesh, load_mesh, lshape_mesh, refine_uniform,
                   unit_square_mesh)
from .quadrature import integral_mean, is_finite_index
from .solvers import (NoConvergenceError, NotPositiveDefiniteError,
                      SingularSystemError)


class ConfigError(ValueError):
    pass


def _parse_midx(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"need three comma-separated indices, got {text!r}")
    idx = tuple(int(p) for p in parts)
    if min(idx) < 0:
        raise ConfigError(f"indices must be nonnegative: {text!r}")
    return idx


def _parse_quadrature(text):
    if text == "exact":
        return "exact"
    if text.startswith("gauss:"):
        n = int(text.split(":", 1)[1])
        if n < 1:
            raise ConfigError("gauss rule needs n >= 1")
        return n
    raise ConfigError(f"quadrature must be 'exact' or 'gauss:N', got {text!r}")


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _check_output_dirs(args):
    """Fail before any work if an output file's directory does not exist."""
    for path in (getattr(args, "out", None), getattr(args, "svg", None)):
        if path not in (None, "-") and not Path(path).parent.is_dir():
            raise FileNotFoundError(
                f"No such file or directory: '{Path(path).parent}'")


def _mean(alpha, beta):
    try:
        return integral_mean(alpha, beta)
    except RecursionError:
        raise ConfigError("indices too large for the exact recursion") from None


def cmd_quad(args):
    if args.table:
        rows = []
        for alpha in itertools.product(range(args.amax + 1), repeat=3):
            for beta in itertools.product(range(args.bmax + 1), repeat=3):
                if not is_finite_index(alpha, beta):
                    continue
                val = _mean(alpha, beta)
                rows.append(",".join(map(str, alpha + beta)) + "," +
                            f"{val.q0.numerator},{val.q0.denominator},"
                            f"{val.q1.numerator},{val.q1.denominator}")
        header = "a0,a1,a2,b0,b1,b2,q0_num,q0_den,q1_num,q1_den"
        _write(args.out, "\n".join([header] + rows) + "\n")
        return 0
    if args.alpha is None or args.beta is None:
        raise ConfigError("either --table or both --alpha and --beta")
    val = _mean(_parse_midx(args.alpha), _parse_midx(args.beta))
    try:
        print(f"{val} = {val.to_float()!r}")
    except InfiniteValueError:
        print("inf")
    return 0


def _config(args):
    """The parsed arguments for a CSV header, without the handler function."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def cmd_biharmonic(args):
    quad = _parse_quadrature(args.quadrature)
    cfg = ExperimentConfig(variant=args.variant,
                           ns=() if quad == "exact" else (quad,))
    mesh = unit_square_mesh() if args.domain == "square" else lshape_mesh()
    rows = []
    for level in range(1, args.levels + 1):
        mesh = refine_uniform(mesh)
        rows.append(eigen_rows(mesh, cfg, level)[-1])
    cols = ["level", "ndof", "lambda", "lambda_bar", "rel_gap"]
    _write(args.out, csv_text(_config(args), cols, rows))
    return 0


def cmd_stokes(args):
    from .guzman_neilan import assemble_stokes
    quad = _parse_quadrature(args.quadrature)
    mesh = stokes_mesh(args.elements)
    exact = assemble_stokes(mesh, f=stokes_load, variant=args.variant)
    row = stokes_row(mesh, exact, 0 if quad == "exact" else quad, args.variant)
    _write(args.out, csv_text(_config(args), ["n", "grad_err", "div_err",
                                       "pressure_err"], [row]))
    print(f"grad_err = {row['grad_err']!r} "
          f"(Taylor-Hood reference {args.taylor_hood_ref!r})")
    return 0


def _experiment(args, runner, cols):
    if min(args.ns) < 1:
        raise ConfigError(f"--ns takes rules n >= 1, got {args.ns}")
    cfg = ExperimentConfig(
        levels=args.levels, ns=tuple(args.ns), variant=args.variant,
        theta=args.theta, budget=args.budget, elements=args.elements,
        stokes_ns=tuple(args.ns) if args.which == "exp3" else tuple(range(1, 17)),
        uniform_interval=args.uniform_interval,
        solve_start=args.solve_start, solve_factor=args.solve_factor)
    rows = runner(cfg)
    config = {k: v for k, v in cfg.items()}
    config["experiment"] = args.which
    if args.which == "exp2":
        config["guide_slow"] = "O(ndof^-1/2) through (1e3, 2e-2)"
        config["guide_fast"] = "O(ndof^-1) through (1e3, 1e-5)"
    if args.which == "exp3":
        config["taylor_hood_ref"] = TAYLOR_HOOD_REF
    _write(args.out, csv_text(config, cols, rows))
    if args.svg:
        key = "rel_gap" if args.which != "exp3" else "grad_err"
        xkey = "ndof" if args.which != "exp3" else "n"
        series = []
        ns = sorted({r["n"] for r in rows} - {0})
        if args.which == "exp3":
            xs = [r["n"] for r in rows if r["n"] > 0]
            ys = [r["grad_err"] for r in rows if r["n"] > 0]
            series.append(("grad_err", xs, ys))
            series.append(("Taylor-Hood", [min(xs), max(xs)],
                           [TAYLOR_HOOD_REF, TAYLOR_HOOD_REF], True))
            svg = emit_svg(series, axes="semilogy")
        else:
            for n in ns:
                pts = [(r[xkey], r[key]) for r in rows
                       if r["n"] == n and r[key] > 0]
                if pts:
                    series.append((f"n={n}", [p[0] for p in pts],
                                   [p[1] for p in pts]))
            if args.which == "exp2" and series:
                lo = min(min(s[1]) for s in series)
                hi = max(max(s[1]) for s in series)
                for label, anchor in [("O(ndof^-1/2)", 2e-2), ("O(ndof^-1)", 1e-5)]:
                    power = -0.5 if "1/2" in label else -1.0
                    series.append((label, [lo, hi],
                                   [anchor * (lo / 1e3) ** power,
                                    anchor * (hi / 1e3) ** power], True))
            svg = emit_svg(series, axes="loglog")
        Path(args.svg).write_text(svg)
    return 0


def cmd_dump_tables(args):
    from . import guzman_neilan, zienkiewicz
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    zt = zienkiewicz.get_tables()
    gt = guzman_neilan.get_tables()
    tensors = {
        "zienkiewicz_Ahat": zt.Ahat, "zienkiewicz_Mhat": zt.Mhat,
        "zienkiewicz_That_v": zt.That_v, "zienkiewicz_That_gv": zt.That_gv,
        "zienkiewicz_That_ge": zt.That_ge, "zienkiewicz_bhat": zt.bhat,
        "gn_Rhat": gt.Rhat, "gn_Mhat": gt.Mhat,
        "gn_That_gv": gt.That_gv, "gn_That_ge": gt.That_ge,
        "gn_val_mid": gt.val_mid, "gn_bhat1": gt.bhat1, "gn_bhat2": gt.bhat2,
    }
    for name, tensor in tensors.items():
        lines = [",".join(f"i{k}" for k in range(tensor.ndim)) + ",value"]
        for idx in np.ndindex(tensor.shape):
            lines.append(",".join(map(str, idx)) + f",{float(tensor[idx])!r}")
        (out / f"{name}.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(tensors)} tables to {out}")
    return 0


def cmd_mesh(args):
    if args.action == "dump":
        mesh = unit_square_mesh() if args.domain == "square" else lshape_mesh()
        for _ in range(args.refine):
            mesh = refine_uniform(mesh)
        _write(args.out, dump_mesh(mesh))
    else:
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

    q = sub.add_parser("quad", help="exact integral means")
    q.add_argument("--alpha")
    q.add_argument("--beta")
    q.add_argument("--table", action="store_true")
    q.add_argument("--amax", type=int, default=4)
    q.add_argument("--bmax", type=int, default=3)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_quad)

    b = sub.add_parser("biharmonic-eig", help="clamped-plate eigenvalue solve")
    b.add_argument("--domain", choices=["square", "lshape"], default="square")
    b.add_argument("--quadrature", default="exact")
    b.add_argument("--levels", type=int, default=4)
    b.add_argument("--variant", choices=["full", "reduced"], default="full")
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_biharmonic)

    s = sub.add_parser("stokes", help="Guzman-Neilan Stokes solve")
    s.add_argument("--domain", choices=["square"], default="square")
    s.add_argument("--elements", type=int, default=8192)
    s.add_argument("--quadrature", default="exact")
    s.add_argument("--variant", choices=["full", "reduced"], default="reduced")
    s.add_argument("--taylor-hood-ref", type=float, default=TAYLOR_HOOD_REF)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_stokes)

    for which, runner, cols in [
        ("exp1", run_exp1_square,
         ["n", "level", "ndof", "lambda", "lambda_bar", "rel_gap"]),
        ("exp2", run_exp2_lshape,
         ["n", "level", "ndof", "lambda", "lambda_bar", "rel_gap"]),
        ("exp3", run_exp3_stokes, ["n", "grad_err", "div_err", "pressure_err"]),
    ]:
        e = sub.add_parser(which, help=f"quadrature-error experiment {which}")
        e.add_argument("--levels", type=int, default=5)
        e.add_argument("--ns", type=int, nargs="+",
                       default=list(range(2, 12)) if which != "exp3"
                       else list(range(1, 17)))
        e.add_argument("--variant", choices=["full", "reduced"],
                       default="full" if which != "exp3" else "reduced")
        e.add_argument("--theta", type=float, default=0.5)
        e.add_argument("--budget", type=int, default=30000)
        e.add_argument("--uniform-interval", type=int, default=2)
        e.add_argument("--solve-start", type=int, default=120)
        e.add_argument("--solve-factor", type=float, default=1.3)
        e.add_argument("--elements", type=int, default=8192)
        e.add_argument("--out", default=None)
        e.add_argument("--svg", default=None)
        e.set_defaults(func=lambda a, r=runner, c=cols: _experiment(a, r, c),
                       which=which)

    d = sub.add_parser("dump-tables", help="write reference tensors as CSV")
    d.add_argument("dir")
    d.set_defaults(func=cmd_dump_tables)

    m = sub.add_parser("mesh", help="mesh text I/O")
    m.add_argument("action", choices=["dump", "load"])
    m.add_argument("--domain", choices=["square", "lshape"], default="square")
    m.add_argument("--refine", type=int, default=0)
    m.add_argument("--file")
    m.add_argument("--out", default=None)
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
        return args.func(args)
    # the solver errors first: the LinAlgError ones are also ValueErrors
    except (NoConvergenceError, NotPositiveDefiniteError,
            SingularSystemError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

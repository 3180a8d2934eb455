"""Experiment drivers: the quadrature-error studies for the biharmonic
eigenvalue problem (uniform square, graded L-shape) and the pressure-robustness
study for Stokes, plus deterministic CSV emission.

All drivers are pure functions of their configuration; reruns produce
byte-identical CSV output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import __version__
from .guzman_neilan import (assemble_stokes, divergence_l2, grad_norm,
                            solve_stokes)
from .mesh import (dorfler_mark, grading_indicator, lshape_mesh, refine_bisect,
                   refine_uniform, unit_square_mesh)
from .quadrature import gauss_points
from .zienkiewicz import assemble_biharmonic, solve_biharmonic_eigen

TAYLOR_HOOD_REF = 4.410009e-05


@dataclass
class ExperimentConfig:
    domain: str = "square"
    levels: int = 5
    ns: tuple = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
    variant: str = "full"
    theta: float = 0.5
    budget: int = 30000
    solve_start: int = 120
    solve_factor: float = 1.3
    uniform_interval: int = 2       # every k-th grading round refines globally
    elements: int = 8192
    stokes_ns: tuple = tuple(range(1, 17))
    load_degree: int = 2            # fixed P2 load interpolation; CSV header only

    def items(self):
        return sorted(self.__dict__.items())


def csv_text(config: dict, columns, rows) -> str:
    """CSV with a reproducible comment header; floats via repr."""
    lines = [f"# ratfem {__version__}"]
    for key, val in sorted(config.items()):
        lines.append(f"# {key} = {val}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _fmt(x):
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def eigen_rows(mesh, cfg: ExperimentConfig, level):
    """Exact eigenvalue row (n = 0), then one row per rule n in cfg.ns."""
    system = assemble_biharmonic(mesh, variant=cfg.variant)
    lam, vec = solve_biharmonic_eigen(system)
    rows = [{"n": 0, "level": level, "ndof": system.ndof, "lambda": lam,
             "lambda_bar": lam, "rel_gap": 0.0}]
    for n in cfg.ns:
        inexact = assemble_biharmonic(mesh, variant=cfg.variant, quadrature=n)
        lam_bar, _ = solve_biharmonic_eigen(inexact, x0=vec)
        rows.append({"n": n, "level": level, "ndof": system.ndof,
                     "lambda": lam, "lambda_bar": lam_bar,
                     "rel_gap": abs(lam - lam_bar) / lam})
    return rows


def run_exp1_square(cfg: ExperimentConfig):
    """Uniform square refinement: exact vs Gauss eigenvalues per level."""
    rows = []
    mesh = unit_square_mesh()
    for level in range(1, cfg.levels + 1):
        mesh = refine_uniform(mesh)
        rows += eigen_rows(mesh, cfg, level)
    return rows


def graded_lshape_meshes(cfg: ExperimentConfig):
    """Mesh sequence graded toward the reentrant corner.

    Dörfler-marked bisection on the geometric indicator deepens the corner;
    since that indicator grows under refinement of corner elements, marking
    alone never refines the far field, so every `uniform_interval`-th round
    bisects all elements.  Yields (round, mesh) at geometric ndof checkpoints.
    """
    mesh = lshape_mesh()
    rounds = 0
    last = 0
    while True:
        ndof = 3 * mesh.num_vertices + mesh.num_edges
        if ndof >= cfg.solve_start and ndof >= cfg.solve_factor * last:
            last = ndof
            yield rounds, mesh
        if ndof > cfg.budget:
            return
        eta2 = grading_indicator(mesh)
        if cfg.uniform_interval > 0 and rounds % cfg.uniform_interval == (cfg.uniform_interval - 1):
            marked = list(range(mesh.num_elements))
        else:
            marked = dorfler_mark(eta2, cfg.theta)
        mesh = refine_bisect(mesh, marked)
        rounds += 1


def run_exp2_lshape(cfg: ExperimentConfig):
    """Graded L-shape: exact vs Gauss eigenvalues along the AFEM sequence."""
    rows = []
    for level, mesh in graded_lshape_meshes(cfg):
        rows += eigen_rows(mesh, cfg, level)
    return rows


def stokes_load(x, y):
    """Gradient-field load of the pressure-robustness study.

    Takes coordinate arrays (or scalars) and returns (f_x, f_y), each
    broadcastable to their shape.
    """
    return (0.0, 100.0 * (1.0 - y + 3.0 * y * y))


def stokes_exact_pressure(x, y):
    return 100.0 * (y ** 3 - y * y / 2.0 + y - 7.0 / 12.0)


def _pressure_error(mesh, pressure):
    bary, w2 = gauss_points(4)
    verts = mesh.c4n[mesh.n4e]
    pts = np.einsum("qk,ekc->eqc", bary, verts)
    pv = stokes_exact_pressure(pts[..., 0], pts[..., 1])
    areas = mesh.areas()
    # int (p_h - p)^2 elementwise; p_h constant per element
    sq = areas * np.einsum("eq,q->e", (pv - pressure[:, None]) ** 2, w2)
    return float(np.sqrt(sq.sum()))


def stokes_mesh(elements: int):
    """Uniform refinement of the unit square to at least elements/2 elements."""
    mesh = unit_square_mesh()
    while 2 * mesh.num_elements <= elements:
        mesh = refine_uniform(mesh)
    return mesh


def stokes_row(mesh, exact, n, variant):
    """Solve with rule n (0: the `exact` system) and measure with `exact`."""
    system = exact if n == 0 else assemble_stokes(
        mesh, f=stokes_load, variant=variant, quadrature=n)
    u, pressure = solve_stokes(system)
    return {"n": n, "grad_err": grad_norm(exact, u),
            "div_err": divergence_l2(exact, u),
            "pressure_err": _pressure_error(mesh, pressure)}


def run_exp3_stokes(cfg: ExperimentConfig):
    """Pressure robustness: velocity error of the Guzman-Neilan FEM vs n.

    Velocity and divergence errors are always measured with the exact
    assembly, so inexact solves do not grade their own homework.
    """
    mesh = stokes_mesh(cfg.elements)
    exact = assemble_stokes(mesh, f=stokes_load, variant=cfg.variant)
    return [stokes_row(mesh, exact, n, cfg.variant)
            for n in (0,) + tuple(cfg.stokes_ns)]


# -- SVG emission -----------------------------------------------------------------

class EmptySeriesError(ValueError):
    pass


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def emit_svg(series, axes: str = "loglog", width: int = 640, height: int = 480,
             title: str = "") -> str:
    """Standalone SVG line plot.

    `series` is a list of (label, xs, ys[, dashed]) tuples.  Log axes reject
    nonpositive coordinates.
    """
    series = [tuple(s) for s in series]
    if not series or all(len(s[1]) == 0 for s in series):
        raise EmptySeriesError("nothing to plot")
    logx = axes in ("loglog", "semilogx")
    logy = axes in ("loglog", "semilogy")

    def tx(v, log):
        if log:
            if v <= 0:
                raise EmptySeriesError(f"nonpositive value {v} on log axis")
            return np.log10(v)
        return v

    xs_all = [tx(x, logx) for s in series for x in s[1]]
    ys_all = [tx(y, logy) for s in series for y in s[2]]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0
    ml, mr, mt, mb = 60, 150, 30, 45

    def px(v):
        return ml + (tx(v, logx) - x0) / (x1 - x0) * (width - ml - mr)

    def py(v):
        return height - mb - (tx(v, logy) - y0) / (y1 - y0) * (height - mt - mb)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<rect x="{ml}" y="{mt}" width="{width-ml-mr}" '
           f'height="{height-mt-mb}" fill="none" stroke="black"/>']
    if title:
        out.append(f'<text x="{ml}" y="20" font-size="13">{title}</text>')

    def ticks(a, b, log):
        if log:
            return [10.0 ** k for k in range(int(np.floor(a)), int(np.ceil(b)) + 1)]
        return list(np.linspace(a, b, 5))

    for v in ticks(x0, x1, logx):
        if x0 <= tx(v, logx) <= x1:
            X = px(v)
            out.append(f'<line x1="{X:.1f}" y1="{height-mb}" x2="{X:.1f}" '
                       f'y2="{height-mb+5}" stroke="black"/>')
            label = f"1e{int(np.log10(v))}" if logx else f"{v:g}"
            out.append(f'<text x="{X:.1f}" y="{height-mb+18}" font-size="10" '
                       f'text-anchor="middle">{label}</text>')
    for v in ticks(y0, y1, logy):
        if y0 <= tx(v, logy) <= y1:
            Y = py(v)
            out.append(f'<line x1="{ml-5}" y1="{Y:.1f}" x2="{ml}" y2="{Y:.1f}" '
                       f'stroke="black"/>')
            label = f"1e{int(np.log10(v))}" if logy else f"{v:g}"
            out.append(f'<text x="{ml-8}" y="{Y+3:.1f}" font-size="10" '
                       f'text-anchor="end">{label}</text>')

    for k, s in enumerate(series):
        label, xs, ys = s[0], s[1], s[2]
        dashed = len(s) > 3 and s[3]
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}"'
                   f'{dash} stroke-width="1.5"/>')
        ly = mt + 14 + 14 * k
        out.append(f'<line x1="{width-mr+8}" y1="{ly-4}" x2="{width-mr+34}" '
                   f'y2="{ly-4}" stroke="{color}"{dash} stroke-width="1.5"/>')
        out.append(f'<text x="{width-mr+38}" y="{ly}" font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"

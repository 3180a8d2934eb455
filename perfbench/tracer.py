"""In-memory span tracer that instruments ratfem from outside.

`install` replaces public ratfem functions at the names their callers look
up (for example ``ratfem.experiments.assemble_biharmonic`` and the ``splu``
reached through ``ratfem.solvers.spla``) with wrappers that record spans.
Nothing under ``src/`` changes.

A span records its name, its parent, its start and its end.  A layer's self
time is its span's duration minus the part covered by child spans and leaf
calls.  Hot scalar calls (the Stokes load callback, ``ExactValue.to_float``,
triangular solves) are leaves: one count and one running total each instead
of a record per call, so tracing stays cheap and memory stays flat.
Diagnostics computed from outside (eigen residuals, LU fill) are timed as the
leaf ``trace.diagnostics`` so they never inflate a layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

DIAGNOSTICS = "trace.diagnostics"

#: Spans whose self times become per-layer metrics named ``<span>_s``.
TIMED_LAYERS = (
    "quadrature.table", "quadrature.deep", "exact.to_float",
    "zienkiewicz.get_tables", "guzman_neilan.get_tables",
    "mesh.refine", "mesh.mark",
    "fecore.assemble_matrix",
    "zienkiewicz.assemble_exact", "zienkiewicz.assemble_gauss",
    "zienkiewicz.vandermonde", "zienkiewicz.solve_eigen",
    "guzman_neilan.assemble_exact", "guzman_neilan.assemble_gauss",
    "guzman_neilan.load", "guzman_neilan.solve", "guzman_neilan.measure",
    "solvers.factor", "solvers.triangular_solve", "solvers.eig",
    "experiments.run", "experiments.csv",
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or None, start, end, covered]
        self._stack = []
        self.leaves = {}         # name -> [calls, seconds]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, parent, time.perf_counter(), None, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()
        if rec[1] is not None:
            self.spans[rec[1]][4] += rec[3] - rec[2]

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _charge(self, name, seconds):
        entry = self.leaves.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        if self._stack:
            self.spans[self._stack[-1]][4] += seconds

    @contextmanager
    def diagnostics(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._charge(DIAGNOSTICS, time.perf_counter() - t0)

    def wrap(self, name, fn, after=None):
        """Span around `fn`; `name` may be a function of (args, kwargs).

        `after(result, args, kwargs)` runs once the span has closed and is
        charged to ``trace.diagnostics``.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                with self.diagnostics():
                    after(result, args, kwargs)
            return result
        return traced

    def leaf(self, name, fn):
        """Count and time calls of a non-reentrant function without spans."""
        charge = self._charge
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                charge(name, clock() - t0)
        return traced

    def self_times(self):
        out = defaultdict(float)
        for name, _, start, end, covered in self.spans:
            out[name] += (end - start) - covered
        for name, (_, seconds) in self.leaves.items():
            out[name] += seconds
        return out

    def summary(self, root):
        """Per-layer metrics; `root` is the span that covers the timed run.

        ``trace.coverage`` is the share of the root's duration spent in named
        layers, with the diagnostics' own time left out of both sides.
        """
        selfs = self.self_times()
        root_rec = next(s for s in self.spans if s[0] == root)
        duration = root_rec[3] - root_rec[2]
        diag = selfs.get(DIAGNOSTICS, 0.0)
        out = {f"{name}_s": selfs.get(name, 0.0) for name in TIMED_LAYERS}
        out["trace.coverage"] = (duration - selfs[root] - diag) / (duration - diag)
        out["guzman_neilan.load_calls"] = self.leaves.get("guzman_neilan.load", [0])[0]
        out["solvers.triangular_solves"] = self.leaves.get(
            "solvers.triangular_solve", [0])[0]
        for key in ("solvers.factor_count", "solvers.eig_iterations"):
            out[key] = self.counts[key]
        out["quadrature.memo_hit_ratio"] = (self.counts["quadrature.memo_hits"]
                                            / self.counts["quadrature.memo_lookups"])
        for key in ("solvers.lu_fill_nnz", "solvers.eig_residual_max",
                    "mesh.elements_max", "fecore.nnz_max"):
            out[key] = self.maxima[key]
        return out

    def record_max(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)


class _Proxy:
    """`target` with some attributes replaced."""

    def __init__(self, target, **replaced):
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _by_quadrature(prefix, fn):
    sig = inspect.signature(fn)

    def name(args, kwargs):
        quad = sig.bind(*args, **kwargs).arguments.get("quadrature", "exact")
        return f"{prefix}.assemble_{'exact' if quad == 'exact' else 'gauss'}"
    return name


def install(tracer: Tracer):
    """Wrap ratfem's public functions at the names their callers bind."""
    import numpy as np

    from ratfem import cli, experiments as ex, guzman_neilan as gn
    from ratfem import solvers as sv, zienkiewicz as zk
    from ratfem.exact import ExactValue
    from ratfem.quadrature import MemoCache

    wrap = tracer.wrap
    for name in ("run_exp2_lshape", "run_exp3_stokes"):
        setattr(cli, name, wrap("experiments.run", getattr(cli, name)))
    cli.csv_text = wrap("experiments.csv", cli.csv_text)

    def mesh_size(result, args, kwargs):
        tracer.record_max("mesh.elements_max", result.num_elements)
    ex.refine_bisect = wrap("mesh.refine", ex.refine_bisect, mesh_size)
    ex.refine_uniform = wrap("mesh.refine", ex.refine_uniform, mesh_size)
    ex.dorfler_mark = wrap("mesh.mark", ex.dorfler_mark)
    ex.grading_indicator = wrap("mesh.mark", ex.grading_indicator)

    ex.assemble_biharmonic = wrap(
        _by_quadrature("zienkiewicz", ex.assemble_biharmonic), ex.assemble_biharmonic)
    ex.solve_biharmonic_eigen = wrap("zienkiewicz.solve_eigen", ex.solve_biharmonic_eigen)
    ex.assemble_stokes = wrap(
        _by_quadrature("guzman_neilan", ex.assemble_stokes), ex.assemble_stokes)
    ex.solve_stokes = wrap("guzman_neilan.solve", ex.solve_stokes)
    ex.grad_norm = wrap("guzman_neilan.measure", ex.grad_norm)
    ex.divergence_l2 = wrap("guzman_neilan.measure", ex.divergence_l2)
    ex.stokes_load = tracer.leaf("guzman_neilan.load", ex.stokes_load)

    zk.get_tables = wrap("zienkiewicz.get_tables", zk.get_tables)
    gn.get_tables = wrap("guzman_neilan.get_tables", gn.get_tables)
    zk.local_vandermonde_batch = wrap("zienkiewicz.vandermonde", zk.local_vandermonde_batch)
    zk.shape_coefficients = wrap("zienkiewicz.vandermonde", zk.shape_coefficients)

    def nnz(result, args, kwargs):
        tracer.record_max("fecore.nnz_max", result.nnz)
    zk.assemble_matrix = wrap("fecore.assemble_matrix", zk.assemble_matrix, nnz)
    gn.assemble_matrix = wrap("fecore.assemble_matrix", gn.assemble_matrix, nnz)

    factor = wrap("solvers.factor", sv.spla.splu)

    def splu(*args, **kwargs):
        lu = factor(*args, **kwargs)
        with tracer.diagnostics():
            tracer.counts["solvers.factor_count"] += 1
            tracer.record_max("solvers.lu_fill_nnz", lu.L.nnz + lu.U.nnz)
        return _Proxy(lu, solve=tracer.leaf("solvers.triangular_solve", lu.solve))
    sv.spla = _Proxy(sv.spla, splu=splu)

    eig = wrap("solvers.eig", sv.gen_eig_smallest)
    solves = tracer.leaves.setdefault("solvers.triangular_solve", [0, 0.0])

    def gen_eig_smallest(A, M, *args, **kwargs):
        before = solves[0]
        lam, x = eig(A, M, *args, **kwargs)
        with tracer.diagnostics():
            tracer.counts["solvers.eig_iterations"] += solves[0] - before
            mx = M @ x
            resid = np.linalg.norm(A @ x - lam * mx) / (abs(lam) * np.linalg.norm(mx))
            tracer.record_max("solvers.eig_residual_max", float(resid))
        return lam, x
    sv.gen_eig_smallest = gen_eig_smallest

    ExactValue.to_float = tracer.leaf("exact.to_float", ExactValue.to_float)
    get = MemoCache.get
    counts = tracer.counts

    def counted_get(self, alpha, beta):
        value = get(self, alpha, beta)
        counts["quadrature.memo_lookups"] += 1
        if value is not None:
            counts["quadrature.memo_hits"] += 1
        return value
    MemoCache.get = counted_get

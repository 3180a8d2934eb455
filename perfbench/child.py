"""One benchmark sample in a fresh process, run the way a user runs ratfem.

Usage: python3 perfbench/child.py WORKLOAD SEED OUTDIR [--trace] [--setup-only]

Times the set-up (importing ``ratfem.cli`` plus both ``get_tables()``) and
the run after it, up to the output written, then prints one JSON record.
The outputs are checked by ``run.py``, outside this process.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import platform
import random
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FLOAT_CHUNK = 1000

#: The paper's fixed FE configurations, run through the CLI.
CLI_ARGS = {
    "plate_graded": ["exp2", "--budget", "10000"],
    "stokes_robust": ["exp3", "--elements", "2048"],
}
#: The ``ratfem quad --table`` sweep of the exact_means workload.
TABLE_AMAX, TABLE_BMAX = 8, 5


def draw_deep_pairs(seed):
    """One pair from each cost stratum of the stored pool, chosen by `seed`."""
    refs = json.loads((HERE / "refs" / "exact_means.json").read_text())
    rng = random.Random(seed)
    return [tuple(map(tuple, rng.choice(stratum)[:2])) for stratum in refs["pool"]]


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def run_exact_means(ratfem, csv, pairs, tracer):
    """The table sweep with a float per finite mean, then the deep draw."""
    with _span(tracer, "quadrature.table"):
        argv = ["quad", "--table", "--amax", str(TABLE_AMAX),
                "--bmax", str(TABLE_BMAX), "--out", str(csv)]
        if ratfem.cli.main(argv) != 0:
            raise SystemExit("ratfem quad --table failed")
        floats = [ratfem.integral_mean(a, b).to_float()
                  for a in itertools.product(range(TABLE_AMAX + 1), repeat=3)
                  for b in itertools.product(range(TABLE_BMAX + 1), repeat=3)
                  if ratfem.is_finite_index(a, b)]
    with _span(tracer, "quadrature.deep"):
        deep = [(a, b, ratfem.integral_mean(a, b)) for a, b in pairs]
        deep_floats = [v.to_float() for _, _, v in deep]
    return floats, deep, deep_floats


def exact_means_outputs(floats, deep, deep_floats):
    import numpy as np
    arr = np.asarray(floats, dtype="<f8")
    digests = [hashlib.sha256(arr[i:i + FLOAT_CHUNK].tobytes()).hexdigest()
               for i in range(0, len(arr), FLOAT_CHUNK)]
    return {"float_digests": digests,
            "deep": [[list(a), list(b), str(v.q0), str(v.q1), f.hex()]
                     for (a, b, v), f in zip(deep, deep_floats)]}


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "process_threads": threads}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=[*CLI_ARGS, "exact_means"])
    parser.add_argument("seed", type=int)
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import ratfem.cli
    from ratfem import guzman_neilan, zienkiewicz
    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    t0 = time.perf_counter()
    zienkiewicz.get_tables()
    guzman_neilan.get_tables()
    setup_s = import_s + time.perf_counter() - t0
    record = {"setup_s": setup_s}
    if not args.setup_only:
        csv = args.outdir / f"{args.workload}.csv"
        pairs = draw_deep_pairs(args.seed) if args.workload == "exact_means" else None
        t0 = time.perf_counter()
        with _span(tracer, "run"):
            if pairs is not None:
                result = run_exact_means(ratfem, csv, pairs, tracer)
            elif ratfem.cli.main(CLI_ARGS[args.workload] + ["--out", str(csv)]) != 0:
                raise SystemExit(f"ratfem {CLI_ARGS[args.workload][0]} failed")
        record["wall_s"] = time.perf_counter() - t0
        if tracer:
            from ratfem.quadrature import DEFAULT_CACHE
            record["layers"] = tracer.summary("run")
            record["layers"]["quadrature.memo_entries"] = len(DEFAULT_CACHE)
        if pairs is not None:
            record["outputs"] = exact_means_outputs(*result)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["environment"] = environment()
    print(json.dumps(record))


if __name__ == "__main__":
    main()

"""Regenerate the reference outputs in ``refs/`` from the code in ``src/``.

Usage, from the repository root: python3 perfbench/make_refs.py

Run it only when a change is meant to alter the results; the benchmark
checks every later run against these files.  It writes:

- ``plate_graded.csv``, ``stokes_robust.csv``: the CSVs of the FE workloads.
- ``exact_means.json``: the pool of deep pairs with their exact values and
  floats, and sha256 digests of the table sweep (rows and floats).

The pool is drawn once with a fixed generator: finite pairs with alpha
entries <= 16 and beta entries <= 8.  Each candidate's cost is the number of
memo entries it adds to the cache state the deep phase starts from; the
sorted candidates are cut into equal strata and a run draws one pair per
stratum, so the work of the deep phase varies little between seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
from checks import row_digests  # noqa: E402
from run import run_child  # noqa: E402

STRATA, PER_STRATUM = 40, 8
ALPHA_MAX, BETA_MAX = 16, 8
POOL_SEED = 2411


def make_pool():
    import mpmath

    import ratfem
    import ratfem.cli  # noqa: F401  (the table sweep runs through the CLI)
    from ratfem import guzman_neilan, zienkiewicz
    from ratfem.quadrature import DEFAULT_CACHE, MemoCache
    zienkiewicz.get_tables()
    guzman_neilan.get_tables()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        child.run_exact_means(ratfem, Path(tmp) / "table.csv", [], None)
    start = dict(DEFAULT_CACHE.table)
    mpmath.mp.dps = 200
    pi2 = mpmath.pi ** 2

    rng = random.Random(POOL_SEED)
    seen, pool = set(), []
    while len(pool) < STRATA * PER_STRATUM:
        alpha = tuple(rng.randint(0, ALPHA_MAX) for _ in range(3))
        beta = tuple(rng.randint(0, BETA_MAX) for _ in range(3))
        key = MemoCache.key(alpha, beta)
        if not ratfem.is_finite_index(alpha, beta) or key in seen or key in start:
            continue
        seen.add(key)
        DEFAULT_CACHE.table = dict(start)
        value = ratfem.integral_mean(alpha, beta)
        cost = len(DEFAULT_CACHE) - len(start)
        exact = mpmath.mpf(value.q0.numerator) / value.q0.denominator + \
            mpmath.mpf(value.q1.numerator) / value.q1.denominator * pi2
        if value.to_float() != float(exact):
            raise SystemExit(f"to_float of {alpha},{beta} is not correctly rounded")
        pool.append((cost, [list(alpha), list(beta), str(value.q0), str(value.q1),
                            value.to_float().hex()]))
    pool.sort(key=lambda entry: entry[0])
    return [[entry for _, entry in pool[i:i + PER_STRATUM]]
            for i in range(0, len(pool), PER_STRATUM)]


def main():
    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    (refs / "exact_means.json").write_text(dump_refs({"pool": make_pool()}))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        for workload in ("plate_graded", "stokes_robust"):
            run_child(workload, 0, tmp, time.monotonic())
            shutil.copyfile(tmp / f"{workload}.csv", refs / f"{workload}.csv")
        record = run_child("exact_means", 0, tmp, time.monotonic())
        data = (tmp / "exact_means.csv").read_bytes()
    ref = json.loads((refs / "exact_means.json").read_text())
    ref.update(csv_sha256=hashlib.sha256(data).hexdigest(),
               row_digests=row_digests(data.decode()),
               float_digests=record["outputs"]["float_digests"])
    (refs / "exact_means.json").write_text(dump_refs(ref))


def dump_refs(ref):
    """JSON with one line per list item, so a changed reference diffs small."""
    parts = []
    for key, val in ref.items():
        if isinstance(val, list):
            items = ",\n".join(json.dumps(item) for item in val)
            parts.append(f"{json.dumps(key)}: [\n{items}\n]")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(val)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()

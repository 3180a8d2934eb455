"""The ratfem benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

- ``plate_graded``: ``ratfem exp2 --budget 10000`` (graded L-shape, full
  Zienkiewicz, exact plus n=2..11): sparse factorization, inverse iteration
  and newest-vertex bisection.
- ``stokes_robust``: ``ratfem exp3 --elements 2048`` (reduced Guzman-Neilan,
  exact plus n=1..16): Gauss-branch assembly and the scalar load callback.
- ``exact_means``: the ``ratfem quad --table --amax 8 --bmax 5`` sweep with a
  ``to_float()`` per finite mean (memo hits), then one seeded deep pair per
  cost stratum of a stored pool (memo misses, big-rational arithmetic).

The seed drives only the exact_means draw: the FE workloads are the paper's
fixed configurations, whose coarse meshes have only boundary vertices, so
there is nothing to randomize.

Every sample runs in a fresh process (``child.py``), one process at a time,
with BLAS pinned to one thread.  Untraced samples (``--trace 0``) give the
end-to-end metrics as medians: ``setup_s`` (import ``ratfem.cli`` plus both
``get_tables()``), ``wall_s`` (the run after set-up, to the output written)
and ``peak_rss_mb``.  A ``--trace 1`` run takes one untraced sample and then
traced samples, whose wrappers (``tracer.py``) give the per-layer metrics;
it also checks that tracing leaves the CSV bytes unchanged, that counters
repeat exactly and that named layers cover at least 90% of the traced run.

Every sample's outputs are checked against ``refs/`` (``checks.py``); the
last line of standard output is the JSON result, the line before it the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import Checks, check_sample

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BLAS_THREADS = "1"
SETUP_SAMPLES = 3            # set-up-only processes per untraced run
DEADLINE_S = 170.0           # the whole run must end within 180 s
MIN_COVERAGE = 0.9
#: Counters that must repeat exactly between traced samples.
EXACT_COUNTERS = ("solvers.factor_count", "solvers.triangular_solves",
                  "solvers.lu_fill_nnz", "solvers.eig_iterations",
                  "quadrature.memo_entries", "guzman_neilan.load_calls",
                  "mesh.elements_max", "fecore.nnz_max")


class SampleError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    return env


def run_child(workload, seed, outdir, started, *flags):
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(outdir), *flags]
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise SampleError("out of time before the first sample ended")
    try:
        out = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{workload} sample exceeded the deadline") from exc
    if out.returncode != 0:
        raise SampleError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def sample(args, outdir, started, checks, trace=False):
    """One checked sample; returns (record, CSV bytes, CSV matches reference)."""
    flags = ("--trace",) if trace else ()
    record = run_child(args.workload, args.seed, outdir, started, *flags)
    csv = outdir / f"{args.workload}.csv"
    try:
        matches = check_sample(args.workload, checks, csv, record.get("outputs"))
        data = csv.read_bytes()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks(False, f"unreadable output: {exc!r}")
        return record, b"", False
    return record, data, matches


def keep_going(started, seconds, durations):
    """Start another sample only if it should end within `seconds`."""
    elapsed = time.monotonic() - started
    return elapsed + statistics.median(durations) <= seconds


def untraced_metrics(args, outdir, started, checks):
    setups = [run_child(args.workload, args.seed, outdir, started,
                        "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    records, durations = [], []
    while not durations or keep_going(started, args.seconds, durations):
        t0 = time.monotonic()
        records.append(sample(args, outdir, started, checks)[0])
        durations.append(time.monotonic() - t0)
    setups += [r["setup_s"] for r in records]
    return records, {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def traced_metrics(args, outdir, started, checks):
    t0 = time.monotonic()
    base, base_csv, base_match = sample(args, outdir, started, checks)
    durations = [time.monotonic() - t0]
    traced, matches = [], [base_match]
    while not traced or keep_going(started, args.seconds, durations):
        t0 = time.monotonic()
        record, csv, match = sample(args, outdir, started, checks, trace=True)
        durations.append(time.monotonic() - t0)
        traced.append(record)
        matches.append(match)
        coverage = record["layers"]["trace.coverage"]
        checks(csv == base_csv, "traced CSV bytes differ from the untraced run")
        checks(coverage >= MIN_COVERAGE, f"trace.coverage {coverage:.3f}")
    layers = [r["layers"] for r in traced]
    for key in EXACT_COUNTERS:
        checks(len({lay[key] for lay in layers}) == 1, f"{key} differs between runs")
    metrics = {key: layers[0][key] if key in EXACT_COUNTERS
               else statistics.median(lay[key] for lay in layers) for key in layers[0]}
    metrics["experiments.csv_bytes_match"] = sum(matches) / len(matches)
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - base["wall_s"])
    return [base] + traced, metrics


def cpu_model():
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ratfem" / "cli.py").is_file():
        print(f"no ratfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    checks = Checks()
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        collect = traced_metrics if args.trace else untraced_metrics
        records, metrics = collect(args, outdir, started, checks)
    except SampleError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)

    env = records[0]["environment"]
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, samples=len(records), blas_threads=BLAS_THREADS,
               nproc=os.cpu_count(), cpu=cpu_model())
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

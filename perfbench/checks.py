"""Correctness checks of one sample's outputs against the stored references.

The references in ``refs/`` were generated by ``make_refs.py``.  Every check
counts once toward ``attempted``; a check that does not hold counts toward
``failed``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
ROW_CHUNK = 1000

LAMBDA_REL = 1e-9        # plate_graded: lambda and lambda_bar
STOKES_REL = 1e-6        # stokes_robust: values without an acceptance bound
EXACT_GRAD_MAX = 1e-10   # acceptance 7: n = 0 velocity error
DIV_MAX = 1e-9           # divergence-free to roundoff, every n


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def read_csv(text):
    """(comment lines as a dict, header, rows of strings) of a ratfem CSV."""
    comments, lines = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            comments[key.strip()] = val.strip()
        else:
            lines.append(line)
    return comments, lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _rel(got, want):
    return abs(got - want) / abs(want)


def _records(text):
    _, header, rows = read_csv(text)
    return [dict(zip(header, row)) for row in rows]


def check_plate_graded(check, csv_text):
    got, ref = _records(csv_text), _records((REFS / "plate_graded.csv").read_text())
    check(len(got) == len(ref), f"{len(got)} rows, reference has {len(ref)}")
    for g, r in zip(got, ref):
        key = (r["n"], r["level"], r["ndof"])
        check((g["n"], g["level"], g["ndof"]) == key, f"row {key}: ndof sequence")
        for col in ("lambda", "lambda_bar"):
            check(_rel(float(g[col]), float(r[col])) <= LAMBDA_REL, f"row {key}: {col}")


def check_stokes_robust(check, csv_text):
    ref_text = (REFS / "stokes_robust.csv").read_text()
    taylor_hood = float(read_csv(ref_text)[0]["taylor_hood_ref"])
    got = {int(r["n"]): r for r in _records(csv_text)}
    ref = {int(r["n"]): r for r in _records(ref_text)}
    check(sorted(got) == sorted(ref), f"rows n={sorted(got)}")
    if sorted(got) != sorted(ref):
        return
    grad = {n: float(r["grad_err"]) for n, r in got.items()}
    check(grad[0] <= EXACT_GRAD_MAX, f"n=0 grad_err {grad[0]}")
    for n in (2, 3):
        check(grad[n] > taylor_hood, f"n={n} grad_err {grad[n]} below Taylor-Hood")
    check(grad[12] <= grad[2] / 100.0, f"n=12 grad_err {grad[12]}")
    for n, r in got.items():
        check(float(r["div_err"]) <= DIV_MAX, f"n={n} div_err {r['div_err']}")
        check(_rel(float(r["pressure_err"]), float(ref[n]["pressure_err"])) <= STOKES_REL,
              f"n={n} pressure_err")
        if n > 0:
            check(_rel(grad[n], float(ref[n]["grad_err"])) <= STOKES_REL,
                  f"n={n} grad_err")


def row_digests(csv_text):
    """sha256 per chunk of table rows, each row re-serialized from its ints."""
    _, _, rows = read_csv(csv_text)
    canon = [",".join(str(int(x)) for x in row) for row in rows]
    return [hashlib.sha256("\n".join(canon[i:i + ROW_CHUNK]).encode()).hexdigest()
            for i in range(0, len(canon), ROW_CHUNK)]


def check_exact_means(check, csv_text, outputs):
    ref = json.loads((REFS / "exact_means.json").read_text())
    for what, got, want in (("exact means", row_digests(csv_text), ref["row_digests"]),
                            ("floats", outputs["float_digests"], ref["float_digests"])):
        check(len(got) == len(want), f"{what}: {len(got)} chunks")
        for i, (g, w) in enumerate(zip(got, want)):
            check(g == w, f"{what}: chunk {i} differs")
    pool = {(tuple(e[0]), tuple(e[1])): e[2:] for stratum in ref["pool"] for e in stratum}
    for alpha, beta, q0, q1, hexf in outputs["deep"]:
        want = pool[(tuple(alpha), tuple(beta))]
        for what, g, w in (("q0", q0, want[0]), ("q1", q1, want[1]),
                           ("float", hexf, want[2])):
            check(g == w, f"{alpha},{beta}: {what} {g} != {w}")


def check_sample(workload, check, csv_path, outputs):
    """Check one sample; returns whether its CSV bytes match the reference."""
    data = csv_path.read_bytes()
    text = data.decode()
    if workload == "exact_means":
        check_exact_means(check, text, outputs)
        want = json.loads((REFS / "exact_means.json").read_text())["csv_sha256"]
        return hashlib.sha256(data).hexdigest() == want
    {"plate_graded": check_plate_graded,
     "stokes_robust": check_stokes_robust}[workload](check, text)
    return data == (REFS / f"{workload}.csv").read_bytes()

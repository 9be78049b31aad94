"""Time one suite of cases; write its row to a BENCH_<n>.json.

    python bench/run.py SUITE --label LABEL [--out PATH]

Each suite records the median of REPEATS = 5 runs of each of its cases,
with the case's verdict or value.  The row also records the Python version
and the suite's library versions, the git revision of the checkout (marked
-dirty when it has uncommitted changes) and the CPUs available, as
``nproc`` counts them.  The numbers are reports, not gates.  The program
is imported from the ``src`` tree of the checkout that holds this script.

Suites (name, default output, what they time):

    decide-heights  BENCH_1.json  ``decide_trisection`` over Q, Q(sqrt 2) and
                    Q(sqrt d) with d = 3*5*...*47 (tau(8d) = 65,536) at
                    element heights of about 10^3, 10^60, 10^600 and
                    10^3000: one member a = f(x) (x with a denominator of
                    about a third as many digits) and one non-member with
                    the same cube denominator, a + 1/denominator; and over
                    Q the same pair for x = r/s with r = s - 3, a root just
                    below the cubic's turning point.
    verify-checks   BENCH_2.json  each check of ``verify --quick --out``
                    (its ``elapsed_s``), and ``height_enum.gcd_bound_sweep``
                    over d = 2, 3, 5, 6, 7 together at heights 40, 80 and
                    200 (those of ``verify --quick``, ``verify`` and
                    acceptance criterion 07).
    algdeg-tower    BENCH_3.json  for n = 9..12: ``tower_checks(n)``,
                    ``cn_degree_check(n)``, ``identity_suite(n)``,
                    ``cos_minimal_poly(3*2^(n+1))`` (the modulus of
                    ``cn_degree_check(n)``), ``p_tower(n)`` and
                    ``algdeg --n n`` with its output discarded.
    mertens         BENCH_4.json  M(10^k) as ``mobius_sum`` with L = 1 and
                    the Q denominator ``count_ball_interval`` at 10^k, for
                    k = 10, 11, 12, and ``lehmer --sides 1e9,1e9``; each run
                    in a fresh interpreter, which reads its own peak
                    resident memory (VmHWM, as ``tests/test_scale.py`` does).
    certificates    BENCH_5.json  the ``witness`` verb at (m, q) = (5, 2),
                    (17, 2), (23, 5) and (31, 2^31 - 1), the ``nsect`` verb
                    with c = p at (p, d) = (3, 4), (5, 7), (601, 602) and
                    (601, 601^2 + 1) (each builds its certificate and
                    verifies it by a rebuild), with output discarded; and one
                    ``Certificate.verify()`` of each certificate kind.  Each
                    case is called once first; a case under 0.1 s is timed
                    over CERT_LOOPS calls per run.
    quad-counts     BENCH_6.json  ``count_ball_interval(s)`` over Q(sqrt d):
                    Q(sqrt 2) at 10^6, Q(sqrt 3) at [10^3, 10^4, 10^5,
                    10^6] in one call, Q(sqrt 7) at 10^5 on [-1/3, 5/2]
                    and Q(sqrt 2) at 9*10^6, just under the int64 guard;
                    each run in a fresh interpreter, as ``mertens`` runs.
    qbox            BENCH_7.json  ``qbox`` and ``qbox_count`` in-process over Q
                    at R = 1000, 3000 and 16,384 and over Q(sqrt 2) at
                    R = 40, 120 and 1086; R = 16,384 and 1086 are the
                    largest boxes the cells cap admits.

A row with the same label in the output file is replaced; other rows are
kept, so running this script from two checkouts into one file records a
before and an after row.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import gcd, isqrt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

REPEATS = 5


def _median_ms(run, loops: int = 1) -> tuple[float, object]:
    """The median over REPEATS runs of the time of ``loops`` calls of run,
    per call, in milliseconds, and the result of the last call."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            result = run()
        times.append((time.perf_counter() - start) / loops)
    return round(1e3 * statistics.median(times), 4), result


def _report(entry: dict) -> dict:
    print(json.dumps(entry), flush=True)
    return entry


# -- decide-heights ---------------------------------------------------------

HEIGHT_DIGITS = (3, 60, 600, 3000)
MANY_PRIME_D = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47


def _preimage(digits: int, d: int | None):
    """x in (0, 2) with denominator c = 10^(digits/3) + 1, so that f(x) has
    height about 10^digits."""
    from trisectlab.exact_arith import QuadElem

    c = 10 ** (digits // 3) + 1
    b1 = 3 * c // 8 + 1
    if d is None:
        while gcd(b1, c) != 1:
            b1 += 1
        return Fraction(b1, c)
    b2 = c // (3 * isqrt(d))
    while gcd(gcd(b1, b2), c) != 1:
        b1 += 1
    return QuadElem(b1, b2, c, d)


def _near_turning(digits: int, d: None) -> Fraction:
    """x = (c - 3)/c with c = 10^(digits/3) + 1 (c = 2 mod 3), just below
    the turning point 1 of f."""
    c = 10 ** (digits // 3) + 1
    return Fraction(c - 3, c)


# field label -> (d, None over Q; the preimage x for a height in digits)
DECIDE_FIELDS = {
    "Q": (None, _preimage),
    "Q(sqrt 2)": (2, _preimage),
    "Q(sqrt 3*5*...*47)": (MANY_PRIME_D, _preimage),
    "Q, x = (s - 3)/s": (None, _near_turning),
}


def decide_heights() -> dict:
    from trisectlab.exact_arith import canonicalize
    from trisectlab.trisect_core import apply_f, decide_trisection

    results = []
    for field, (d, preimage) in DECIDE_FIELDS.items():
        for digits in HEIGHT_DIGITS:
            a = apply_f(preimage(digits, d))
            if d is None:
                shifted = a + Fraction(1, a.denominator)
            else:
                shifted = canonicalize(a.a1 + 1, a.a2, a.b, d)
            for kind, element in (("member", a), ("shifted", shifted)):
                ms, verdict = _median_ms(lambda: decide_trisection(element))
                results.append(_report({"field": field, "height_digits": digits, "input": kind,
                                        "member": verdict.member, "median_ms": ms}))
    return {"results": results}


# -- verify-checks ----------------------------------------------------------

SWEEP_DS = (2, 3, 5, 6, 7)
SWEEP_HEIGHTS = (40, 80, 200)


def verify_checks() -> dict:
    from trisectlab.cli import main as cli_main
    from trisectlab.height_enum import gcd_bound_sweep

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "verify.json")
        for _ in range(REPEATS):
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(["verify", "--quick", "--out", path])
            with open(path) as f:
                runs.append(json.load(f)["results"])
    checks = [_report({"check": first["check"], "ok": all(run[i]["ok"] for run in runs),
                       "median_ms": round(1e3 * statistics.median(
                           run[i]["elapsed_s"] for run in runs), 4)})
              for i, first in enumerate(runs[0])]
    sweeps = []
    for height in SWEEP_HEIGHTS:
        ms, worst = _median_ms(lambda: max(gcd_bound_sweep(d, height)["max_gcd"]
                                           for d in SWEEP_DS))
        sweeps.append(_report({"ds": list(SWEEP_DS), "height": height, "max_gcd": worst,
                               "median_ms": ms}))
    return {"verify_quick_checks": checks, "gcd_bound_sweeps": sweeps}


# -- algdeg-tower -----------------------------------------------------------

NS = (9, 10, 11, 12)


def algdeg_tower() -> dict:
    from trisectlab.algdeg import cn_degree_check, identity_suite, p_tower, tower_checks
    from trisectlab.cli import main as cli_main
    from trisectlab.polyalg import cos_minimal_poly

    def verb(n: int) -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(["algdeg", "--n", str(n)]) == 0

    kernels = (
        ("tower_checks", lambda n: tower_checks(n)["ok"]),
        ("cn_degree_check", lambda n: cn_degree_check(n)["ok"]),
        ("identity_suite", lambda n: identity_suite(n)["ok"]),
        ("cos_minimal_poly", lambda n: cos_minimal_poly(3 * 2 ** (n + 1)).degree == 2 ** n),
        ("p_tower", lambda n: p_tower(n).degree == 2 ** n),
        ("algdeg", verb),
    )
    results = []
    for n in NS:
        for name, run in kernels:
            verdicts = []
            ms, _ = _median_ms(lambda: verdicts.append(run(n)))
            results.append(_report({"kernel": name, "n": n, "ok": all(verdicts),
                                    "median_ms": ms}))
    return {"kernels": results}


# -- fresh-interpreter cases (mertens, quad-counts) -------------------------

_FRESH = """
import json, time
from fractions import Fraction
from trisectlab.coprime_count import Box, lehmer_report, mobius_sum
from trisectlab.exact_arith import RATIONAL_FIELD, quadratic_field
from trisectlab.height_enum import HeightBall, count_ball_interval, count_ball_intervals
start = time.perf_counter()
value = {call}
elapsed = time.perf_counter() - start
with open("/proc/self/status") as status:  # VmHWM: this process's own peak
    peak_mb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
print(json.dumps({{"value": value, "elapsed_s": elapsed, "peak_mb": peak_mb}}))
"""

def _fresh_cases(cases) -> dict:
    """Run each (case, call) of ``cases`` REPEATS times, each in a fresh
    interpreter; record its value, median time and median peak memory."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    results = []
    for case, call in cases:
        runs = [json.loads(subprocess.run(
            [sys.executable, "-c", _FRESH.format(call=call)], env=env, capture_output=True,
            text=True, check=True).stdout.splitlines()[-1]) for _ in range(REPEATS)]
        results.append(_report({
            "case": case, "value": runs[-1]["value"],
            "median_s": round(statistics.median(r["elapsed_s"] for r in runs), 4),
            "peak_mb": round(statistics.median(r["peak_mb"] for r in runs), 1)}))
    return {"cases": results}


MERTENS_CASES = (
    *((f"M(10^{k})", f"mobius_sum((10 ** {k},), lambda q: [1] * len(q))") for k in (10, 11, 12)),
    *((f"Q denominator at 10^{k}",
       f"count_ball_interval(HeightBall(RATIONAL_FIELD, 10 ** {k}), -2, 2)") for k in (10, 11, 12)),
    ("lehmer 1e9,1e9", "lehmer_report(Box(('1e9', '1e9'))).count"),
)


# the scale runs of tests/test_scale.py over Q(sqrt d), and Q(sqrt 2) just
# under the interval count's int64 guard (floor(R) <= 9,686,329)
QUAD_COUNT_CASES = (
    ("Q(sqrt 2) at 10^6", "count_ball_interval(HeightBall(quadratic_field(2), 10 ** 6), -2, 2)"),
    ("Q(sqrt 3) at 10^3..10^6",
     "count_ball_intervals(quadratic_field(3), [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6], -2, 2)"),
    ("Q(sqrt 7) at 10^5 on [-1/3, 5/2]",
     "count_ball_interval(HeightBall(quadratic_field(7), 10 ** 5), Fraction(-1, 3), Fraction(5, 2))"),
    ("Q(sqrt 2) at 9*10^6", "count_ball_interval(HeightBall(quadratic_field(2), 9 * 10 ** 6), -2, 2)"),
)


# -- certificates -----------------------------------------------------------

CERT_VERBS = (
    *(["witness", "--m", str(m), "--q", str(q)]
      for m, q in ((5, 2), (17, 2), (23, 5), (31, 2 ** 31 - 1))),
    *(["nsect", "--p", str(p), "--c", str(p), "--d", str(d)]
      for p, d in ((3, 4), (5, 7), (601, 602), (601, 601 ** 2 + 1))),
)


CERT_LOOPS = 50


def certificates() -> dict:
    from trisectlab.cli import main as cli_main
    from trisectlab.trisect_core import (Certificate, eisenstein_cert_3rs,
                                         nonconstructible_witness, nonsectability_cert,
                                         square_family_check, yates_certificate)

    def verb(argv: list[str]) -> bool:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli_main(argv)
        return code == 0 and json.loads(out.getvalue())["verified"] is True

    def timed(run) -> dict:
        start = time.perf_counter()
        run()
        loops = CERT_LOOPS if time.perf_counter() - start < 0.1 else 1
        ms, ok = _median_ms(run, loops)
        return {"verified": ok, "loops": loops, "median_ms": ms}

    verbs = [_report({"verb": " ".join(argv), **timed(lambda: verb(argv))})
             for argv in CERT_VERBS]
    a, b = yates_certificate(7)
    certs = (
        ("r=1 s=2", eisenstein_cert_3rs(1, 2)),
        ("k=7", Certificate("yates-bezout", {"k": 7, "a": a, "b": b})),
        ("H=100", square_family_check(100)["certificate"]),
        ("m=23 q=5", nonconstructible_witness(23, 5)),
        ("p=5 c=5 d=7", nonsectability_cert(5, 5, 7)),
    )
    verifies = [_report({"kind": cert.kind, "case": case, **timed(cert.verify)})
                 for case, cert in certs]
    return {"verbs": verbs, "verify": verifies}


# -- qbox -------------------------------------------------------------------

QBOX_CASES = ((None, 1000), (None, 3000), (None, 16384), (2, 40), (2, 120), (2, 1086))


def qbox_suite() -> dict:
    from trisectlab.exact_arith import RATIONAL_FIELD, quadratic_field
    from trisectlab.height_enum import QBoxSpec, qbox, qbox_count

    results = []
    for d, R in QBOX_CASES:
        spec = QBoxSpec(quadratic_field(d) if d else RATIONAL_FIELD, R)
        qbox_ms, report = _median_ms(lambda: qbox(spec))
        count_ms, _ = _median_ms(lambda: qbox_count(spec))
        results.append(_report({"field": report["field"], "R": R, "count": report["count"],
                                "members_checked": report["members_checked"],
                                "qbox_ms": qbox_ms, "qbox_count_ms": count_ms}))
    return {"cases": results}


# name -> (default output, benchmark title, library versions recorded, run)
SUITES = {
    "decide-heights": ("BENCH_1.json", "decide_trisection across element heights",
                       ("numpy",), decide_heights),
    "verify-checks": ("BENCH_2.json", "verify --quick checks and the image-gcd sweep",
                      ("numpy",), verify_checks),
    "algdeg-tower": ("BENCH_3.json", "algdeg cosine-tower kernels", ("mpmath",), algdeg_tower),
    "mertens": ("BENCH_4.json", "Mertens function and Q denominator at 10^10..10^12",
                ("numpy",), lambda: _fresh_cases(MERTENS_CASES)),
    "certificates": ("BENCH_5.json", "witness and nsect verbs and one verify per certificate kind",
                     ("mpmath",), certificates),
    "quad-counts": ("BENCH_6.json", "quadratic interval counts, the Theorem 4.1 denominators",
                    ("numpy",), lambda: _fresh_cases(QUAD_COUNT_CASES)),
    "qbox": ("BENCH_7.json", "qbox and its Moebius count, the certified sub-box of Theorem 4.1",
             ("numpy",), qbox_suite),
}


def _git_revision() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--label", required=True, help="row name, e.g. parent or change")
    parser.add_argument("--out", help="output file (default: the suite's BENCH_<n>.json)")
    args = parser.parse_args(argv)
    out, title, libraries, run = SUITES[args.suite]
    out = args.out or os.path.join(ROOT, out)
    row = {"label": args.label, "git_revision": _git_revision(),
           "python": platform.python_version()}
    row.update((name, __import__(name).__version__) for name in libraries)
    row.update(nproc=len(os.sched_getaffinity(0)), repeats=REPEATS)
    row.update(run())
    report = {"benchmark": title, "rows": []}
    if os.path.exists(out):
        with open(out) as f:
            report = json.load(f)
    report["rows"] = [r for r in report["rows"] if r["label"] != args.label] + [row]
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

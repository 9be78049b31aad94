"""Time ``decide_trisection`` across element heights; write BENCH_<n>.json.

For Q and Q(sqrt 2) and element heights of about 10^3, 10^60, 10^600 and
10^3000, it decides one member a = f(x) (x with a denominator of about a
third as many digits) and one non-member with the same cube denominator,
a + 1/denominator, and records the median of REPEATS = 5 perf_counter
timings of each call, with the verdict.  The row also records the Python
and numpy versions, the git revision of the checkout (marked -dirty when
it has uncommitted changes) and the CPUs available, as ``nproc`` counts
them.  The numbers are reports, not gates.

    python bench/decide_heights.py --label after [--out BENCH_1.json]

A row with the same label in the output file is replaced; other rows are
kept, so running this script from two checkouts into one file records a
before and an after row.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from trisectlab.exact_arith import QuadElem, canonicalize  # noqa: E402
from trisectlab.trisect_core import apply_f, decide_trisection  # noqa: E402

HEIGHT_DIGITS = (3, 60, 600, 3000)
REPEATS = 5


def _preimage(digits: int, d: int | None):
    """x in (0, 2) with denominator c = 10^(digits/3) + 1, so that f(x) has
    height about 10^digits."""
    c = 10 ** (digits // 3) + 1
    b1 = 3 * c // 8 + 1
    if d is None:
        while gcd(b1, c) != 1:
            b1 += 1
        return Fraction(b1, c)
    b2 = c // 3
    while gcd(gcd(b1, b2), c) != 1:
        b1 += 1
    return QuadElem(b1, b2, c, d)


def _cases():
    for d in (None, 2):
        for digits in HEIGHT_DIGITS:
            a = apply_f(_preimage(digits, d))
            if d is None:
                shifted = a + Fraction(1, a.denominator)
            else:
                shifted = canonicalize(a.a1 + 1, a.a2, a.b, d)
            yield "Q" if d is None else f"Q(sqrt {d})", digits, "member", a
            yield "Q" if d is None else f"Q(sqrt {d})", digits, "shifted", shifted


def _git_revision() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run() -> list[dict]:
    results = []
    for field, digits, kind, a in _cases():
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            verdict = decide_trisection(a)
            times.append(time.perf_counter() - start)
        results.append({"field": field, "height_digits": digits, "input": kind,
                        "member": verdict.member,
                        "median_ms": round(1e3 * statistics.median(times), 4)})
        print(json.dumps(results[-1]), flush=True)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row name, e.g. before or after")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_1.json"))
    args = parser.parse_args(argv)
    row = {
        "label": args.label,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "repeats": REPEATS,
        "results": run(),
    }
    report = {"benchmark": "decide_trisection across element heights", "rows": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            report = json.load(f)
    report["rows"] = [r for r in report["rows"] if r["label"] != args.label] + [row]
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time the cosine-tower kernels of ``algdeg``; write BENCH_<n>.json.

For each n in NS = 9..12 it records the median of REPEATS = 5 runs of
``tower_checks(n)``, ``cn_degree_check(n)``, ``identity_suite(n)``,
``cos_minimal_poly(3*2^(n+1))`` (the modulus of ``cn_degree_check(n)``),
``p_tower(n)`` and the whole verb, ``algdeg --n n`` with its output
discarded, each with its verdict where it has one.  The row also records
the Python and mpmath versions, the git revision of the checkout (marked
-dirty when it has uncommitted changes) and the CPUs available, as
``nproc`` counts them.  The numbers are reports, not gates.

    python bench/algdeg_tower.py --label after [--out BENCH_3.json]

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
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath  # noqa: E402

from trisectlab.algdeg import cn_degree_check, identity_suite, p_tower, tower_checks  # noqa: E402
from trisectlab.cli import main as cli_main  # noqa: E402
from trisectlab.polyalg import cos_minimal_poly  # noqa: E402

NS = (9, 10, 11, 12)
REPEATS = 5


def _git_revision() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _algdeg_verb(n: int) -> bool:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(["algdeg", "--n", str(n)]) == 0


KERNELS = (
    ("tower_checks", lambda n: tower_checks(n)["ok"]),
    ("cn_degree_check", lambda n: cn_degree_check(n)["ok"]),
    ("identity_suite", lambda n: identity_suite(n)["ok"]),
    ("cos_minimal_poly", lambda n: cos_minimal_poly(3 * 2 ** (n + 1)).degree == 2 ** n),
    ("p_tower", lambda n: p_tower(n).degree == 2 ** n),
    ("algdeg", _algdeg_verb),
)


def kernels() -> list[dict]:
    """The median time of REPEATS runs of each kernel at each n of NS, in
    milliseconds, with the verdict of every run."""
    results = []
    for n in NS:
        for name, run in KERNELS:
            times, ok = [], True
            for _ in range(REPEATS):
                start = time.perf_counter()
                ok = run(n) and ok
                times.append(time.perf_counter() - start)
            results.append({"kernel": name, "n": n, "ok": ok,
                            "median_ms": round(1e3 * statistics.median(times), 4)})
            print(json.dumps(results[-1]), flush=True)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row name, e.g. before or after")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_3.json"))
    args = parser.parse_args(argv)
    row = {
        "label": args.label,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "repeats": REPEATS,
        "kernels": kernels(),
    }
    report = {"benchmark": "algdeg cosine-tower kernels", "rows": []}
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

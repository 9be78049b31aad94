"""Time each ``verify --quick`` check and the image-gcd sweep; write BENCH_<n>.json.

It runs ``verify --quick --out`` REPEATS = 5 times in one process and
records the median of each check's ``elapsed_s``, then times
``gcd_bound_sweep`` over d = 2, 3, 5, 6, 7 together at heights 40, 80 and
200 (the heights of ``verify --quick``, ``verify`` and acceptance
criterion 07) and records the median of REPEATS runs of each.  The row
also records the Python and numpy versions, the git revision of the
checkout (marked -dirty when it has uncommitted changes) and the CPUs
available, as ``nproc`` counts them.  The numbers are reports, not gates.

    python bench/verify_checks.py --label after [--out BENCH_2.json]

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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from trisectlab.cli import main as cli_main  # noqa: E402
from trisectlab.trisect_core import gcd_bound_sweep  # noqa: E402

SWEEP_DS = (2, 3, 5, 6, 7)
SWEEP_HEIGHTS = (40, 80, 200)
REPEATS = 5


def _git_revision() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def verify_checks() -> list[dict]:
    """The median ``elapsed_s`` of each check over REPEATS runs of
    ``verify --quick``, in milliseconds, with the check's verdict."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "verify.json")
        for _ in range(REPEATS):
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(["verify", "--quick", "--out", path])
            with open(path) as f:
                runs.append(json.load(f)["results"])
    results = []
    for i, first in enumerate(runs[0]):
        results.append({"check": first["check"], "ok": all(run[i]["ok"] for run in runs),
                        "median_ms": round(1e3 * statistics.median(
                            run[i]["elapsed_s"] for run in runs), 4)})
        print(json.dumps(results[-1]), flush=True)
    return results


def sweeps() -> list[dict]:
    """The median time of ``gcd_bound_sweep`` over every d of SWEEP_DS at
    each height of SWEEP_HEIGHTS, with the largest image gcd found."""
    results = []
    for height in SWEEP_HEIGHTS:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            worst = max(gcd_bound_sweep(d, height)["max_gcd"] for d in SWEEP_DS)
            times.append(time.perf_counter() - start)
        results.append({"ds": list(SWEEP_DS), "height": height, "max_gcd": worst,
                        "median_ms": round(1e3 * statistics.median(times), 4)})
        print(json.dumps(results[-1]), flush=True)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row name, e.g. before or after")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_2.json"))
    args = parser.parse_args(argv)
    row = {
        "label": args.label,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "repeats": REPEATS,
        "verify_quick_checks": verify_checks(),
        "gcd_bound_sweeps": sweeps(),
    }
    report = {"benchmark": "verify --quick checks and the image-gcd sweep", "rows": []}
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

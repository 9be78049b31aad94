"""Record the reference outputs of the density-quad and count-cert jobs.

    PYTHONPATH=src python3 perfbench/record_golden.py

Runs each job once through ``trisectlab.cli.main`` and writes its parsed
output to ``perfbench/golden.json``.  Run it only at a commit whose outputs
are trusted; the benchmark then fails any later commit that changes them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    from trisectlab import cli

    golden = {}
    for line in workloads.DENSITY_QUAD_JOBS + workloads.COUNT_CERT_JOBS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(line.split())
        if code != 0:
            print(f"{line}: exit {code}", file=sys.stderr)
            return 1
        golden[line] = workloads.parse_output(out.getvalue())
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""trisectlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/trisectlab``; the program
is imported from that source tree, never from an installed copy.  Workloads
(see ``workloads.py``): ``decide-sweep``, ``density-quad``, ``count-cert``.

Each pass of a workload runs in a fresh interpreter (``worker.py``), so
every pass starts with the program's caches empty, as a command-line user
would.  With ``--trace 0`` the run first starts the interpreter several
times to time set-up alone, then repeats untraced passes until ``--seconds``
have gone by (at least two) and reports the end-to-end metrics:

    setup_s       median over fresh interpreters of the time to
                  ``import trisectlab`` and generate the inputs (the
                  interpreter's own start-up is left out), scaled as
                  described at ``IMPORT_REF_S``
    wall_s        median time of a pass to finish every job
    peak_rss_mb   median over passes of the pass process's maximum RSS
    ops_ok_ratio  jobs that succeeded with a correct output over jobs run
    op_p50_ms     median and 95th percentile over jobs of each job's median
    op_p95_ms     latency across the passes; a failed job counts with its
                  elapsed time

Job times are scaled by a calibration unit timed around and inside each
job (see ``worker.py``), which takes most of the machine's own speed
changes out; the raw times are kept in the detailed report.

With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics listed in ``BENCHMARK.json`` instead (``layer_map.json``
says which end-to-end metric each should move).  Spans and a detailed
report go to ``perfbench/out/``.  The last line of standard output is the
JSON result; the line before it carries the details (environment, sample
counts, failures, metrics that could not be measured and why).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from workloads import OUT, ROOT  # noqa: E402

SETUP_PROBES = 12
MIN_PASSES = 2
TIME_LIMIT_S = 170.0

# Import time changes by up to 2x within minutes on the machines this runs
# on, and not in step with the calibration unit of worker.py.  So each
# set-up probe's import time is scaled by the time a fresh interpreter of
# its own takes, just before, to import the program's third-party
# dependencies, the same kind of work that the program cannot change: the
# reported import time is in seconds on a machine where that reference
# import takes IMPORT_REF_S.
REFERENCE_IMPORT = ("import time; t = time.perf_counter(); import numpy, mpmath; "
                    "print(time.perf_counter() - t)")
IMPORT_REF_S = 0.08


class BenchError(Exception):
    pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")

    def python(self, *args: str) -> str:
        """Last line a fresh interpreter prints."""
        remaining = TIME_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 1:
            raise BenchError("out of time")
        cmd = [sys.executable, "-s", *args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"interpreter did not finish in {remaining:.0f} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return lines[-1]

    def worker(self, *extra: str) -> dict:
        return json.loads(self.python(WORKER, "--workload", self.workload,
                                      "--seed", str(self.seed), *extra))


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def summarize_passes(passes: list[dict]) -> dict:
    failures = [f for p in passes for f in p["failures"]]
    kinds = {}
    for f in failures:
        if f is not None:
            kinds[f] = kinds.get(f, 0) + 1
    return {
        "attempted": len(failures),
        "failed": len(failures) - failures.count(None),
        "failure_kinds": kinds,
        "wrong": kinds.get("wrong", 0),
    }


def end_to_end(runner: Runner, seconds: int):
    def setup_probe() -> float:
        reference = float(runner.python("-c", REFERENCE_IMPORT))
        probe = runner.worker("--setup-only")
        return probe["import_s"] * IMPORT_REF_S / reference + probe["inputs_s"]

    # Set-up probes are spread over the run (before, between and after the
    # passes), so their median samples the machine's slow and fast spells
    # alike.
    setup_probe()  # unmeasured: fills the bytecode cache
    setups = [setup_probe() for _ in range(SETUP_PROBES // 2)]
    passes = []
    t0 = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - t0 < seconds:
        passes.append(runner.worker())
        setups.append(setup_probe())
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe())
    s = summarize_passes(passes)
    # Every pass runs the same jobs in the same order.  A job's latency is
    # its median over the passes, so one slow moment of the machine does not
    # set a percentile on its own, and each job counts once whatever the
    # number of passes.
    job_medians = [statistics.median(col) for col in zip(*(p["latencies"] for p in passes))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ops_ok_ratio": ((s["attempted"] - s["failed"]) / s["attempted"], "ratio"),
        "op_p50_ms": (1e3 * statistics.median(job_medians), "ms"),
        "op_p95_ms": (1e3 * percentile(job_medians, 0.95), "ms"),
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_raw_s": [p["wall_raw_s"] for p in passes],
        # wall_s without the failed jobs, most of them probes that run
        # into their deadline; the difference is time the program's own
        # work does not move.
        "pass_wall_ok_s": [p["wall_ok_s"] for p in passes],
        "calibration_s": [p["calibration_s"] for p in passes],
        "setup_samples_s": setups,
        "latency_samples": len(job_medians),
        "failure_kinds": s["failure_kinds"],
        "problems": passes[0]["problems"],
        "pass_latencies_s": [p["latencies"] for p in passes],
        "pass_raw_latencies_s": [p["raw_latencies"] for p in passes],
        "slowest_success_s": max(p["slowest_success"] for p in passes),
        "deadline_s": passes[0]["deadline_s"],
        "caches": passes[0]["caches"],
        "env": passes[0]["env"],
    }
    return metrics, s, details


def per_layer(runner: Runner):
    untraced = runner.worker()
    traced = runner.worker("--trace")
    tm = traced["trace"]
    caches = untraced["caches"]
    absent = {}

    def stat(fn: str, key: str) -> float:
        return tm.get(fn, {}).get(key, 0)

    def ratio(name: str, num: float, den: float, why: str) -> float:
        if den:
            return num / den
        absent[name] = why
        return 0.0

    def cache(name: str, key: str) -> int:
        if key in caches:
            return caches[key]
        absent[name] = f"the program no longer has the cache behind {key}"
        return 0

    speedups = tm["density.shard2_speedups"]
    if not speedups:
        absent["trisect_core.density_experiment.shard2_speedup"] = (
            "no density job here runs with both --shards 1 and --shards 2")
    failures = {k: 0 for k in ("timeout", "overflow", "cap", "wrong", "error")}
    if runner.workload == "decide-sweep":
        for f in untraced["failures"]:
            if f is not None:
                failures[f] += 1

    values = {}
    for entry in workloads.per_layer_metrics():
        name = entry["name"]
        head, _, last = name.rpartition(".")
        if name == "height_enum.qbox.checked_over_count":
            v = ratio(name, tm["qbox.checked"], tm["qbox.count"], "no boxcount job here")
        elif name == "trisect_core.density_experiment.images_over_preimages":
            v = ratio(name, tm["density.images"], tm["density.preimages"],
                      "no density job here")
        elif name == "trisect_core.density_experiment.shard2_speedup":
            v = statistics.median(speedups) if speedups else 0.0
        elif name == "trisect_core.image_index.builds":
            v = tm["image_index.builds"]
        elif name == "trisect_core.image_index.entries":
            v = cache(name, "image_index.entries")
        elif name == "coprime_count.mobius_table.size":
            v = cache(name, "mobius_table.size")
        elif name == "height_enum.spf_table.size":
            v = cache(name, "spf_cache.size")
        elif name == "coprime_count.sieve_count.terms":
            v = tm["sieve.terms"]
        elif name == "cli.overhead_s":
            v = stat("cli.main", "self_s")
        elif head == "decide.failed":
            v = failures[last]
        elif name == "trace.overhead_ratio":
            v = traced["wall_s"] / untraced["wall_s"]
        elif head in tm["missing"]:
            absent[name] = tm["missing"][head]
            v = 0
        elif last in ("calls", "self_s", "yielded"):
            v = stat(head, last)
        else:
            raise BenchError(f"no rule for per-layer metric {name}")
        values[name] = (v, entry["unit"])
    s = summarize_passes([untraced])
    details = {
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "spans": tm["spans"],
        "spans_file": os.path.relpath(workloads.spans_path(runner.workload, runner.seed), ROOT),
        "absent": absent,
        "env": untraced["env"],
        "caches": caches,
    }
    return values, s, details


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "trisectlab", "__init__.py")):
        print(f"no trisectlab source tree under {ROOT}/src", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, s, details = per_layer(runner)
        else:
            metrics, s, details = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, git=git_revision(), attempted=s["attempted"],
                   failed=s["failed"])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"details": details, "metrics": metrics}, fh, indent=1)
    for key in ("problems", "pass_latencies_s", "pass_raw_latencies_s"):
        details.pop(key, None)
    print(json.dumps(details))
    print(json.dumps({
        "correct": s["wrong"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

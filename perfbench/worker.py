"""One pass of one workload in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  The pass imports ``trisectlab``, builds the seeded inputs, then
runs every job through ``trisectlab.cli.main`` in this process, one after
the other (a closed loop with one client), each under its own deadline.
Outputs are checked after the timed loop.  Reported times are scaled by a
calibration unit (see ``CAL_REF_S``); the raw wall-clock times come too.
The last line of standard output is a JSON report.  A traced pass writes
its spans to ``workloads.spans_path``.

    python3 perfbench/worker.py --workload decide-sweep --seed 1 \
        [--setup-only] [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


# The machines this runs on change speed by up to 2x within seconds, which
# no number of repeats averages out.  So every job time is also taken in
# calibration units: a fixed piece of the same kind of work the program does
# (exact rational arithmetic, hashing, small allocations), timed right
# before and right after each job and, from a SIGPROF handler, every
# SAMPLE_EVERY_S of CPU time inside it.  A job's scaled time is its
# wall-clock time (less the time spent in the handler) times CAL_REF_S over
# the mean of those calibrations, i.e. seconds on a machine where one unit
# takes CAL_REF_S.  Deadlines are wall-clock, so a job that runs into one
# keeps its raw time.
CAL_REF_S = 0.0005
SAMPLE_EVERY_S = 0.1


def calibrate() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table = {}
        for i in range(1, 150):
            table[Fraction(3 * i + 1, 2 * i + 5) * Fraction(i, 7)] = (i, str(i))
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedSampler:
    """Calibration samples taken while one job runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def run(self, before: float, fn):
        """Call fn(); returns its result, the handler's time and the
        calibrations taken from ``before`` to just after fn returned."""
        self.samples, self.spent = [before], 0.0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        self.samples.append(calibrate())
        return result, self.spent, self.samples


class DeadlineExceeded(BaseException):
    """Raised inside a job whose deadline has passed; a BaseException so
    the program's own handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_job(cli, argv: list[str], deadline: float, tracer=None) -> dict:
    """Run one command line; returns elapsed seconds, exit code, failure
    kind (None on success) and captured standard output."""
    out, err = io.StringIO(), io.StringIO()
    code, failure = None, None
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        failure = "timeout"
    except OverflowError:
        failure = "overflow"
    except (Exception, SystemExit):
        failure = "error"
    elapsed = time.perf_counter() - t0
    if failure is None and code != 0:
        failure = "cap" if code == 3 else "error"
    return {"elapsed": elapsed, "code": code, "failure": failure,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-300:]}


def check(workload: str, jobs, results) -> None:
    """Mark each successful result whose output is wrong as failed."""
    golden = workloads.load_golden() if workload != "decide-sweep" else None
    by_key = {}
    for job, res in zip(jobs, results):
        if res["failure"] is not None:
            continue
        if workload == "decide-sweep":
            try:
                reason = workloads.check_decide(job, json.loads(res["stdout"]))
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable verdict: {exc}"
        else:
            key = job.extra["key"]
            by_key[key] = res["stdout"]
            reason = workloads.same(workloads.parse_output(res["stdout"]), golden[key], key)
        if reason:
            res["failure"] = "wrong"
            res["reason"] = reason
    if workload == "density-quad":
        one, two = (by_key.get(k) for k in workloads.SHARD_PAIR)
        if one is not None and two is not None and one != two:
            for job, res in zip(jobs, results):
                if job.extra.get("key") == workloads.SHARD_PAIR[1]:
                    res["failure"] = "wrong"
                    res["reason"] = "--shards 2 artifact differs from --shards 1"


def cache_sizes() -> dict:
    """Sizes of the program's module-level caches, where they still exist."""
    sizes = {}
    tc = sys.modules.get("trisectlab.trisect_core")
    cc = sys.modules.get("trisectlab.coprime_count")
    he = sys.modules.get("trisectlab.height_enum")
    index = getattr(tc, "_IMAGE_INDEX", None)
    if isinstance(index, dict):
        sizes["image_index.entries"] = sum(len(v[1]) for v in index.values())
    mobius = getattr(cc, "_MOBIUS_CACHE", None)
    if mobius is not None:
        sizes["mobius_table.size"] = len(mobius)
    spf = getattr(he, "_SPF_CACHE", None)
    if spf is not None:
        sizes["spf_cache.size"] = len(spf)
    return sizes


def environment() -> dict:
    import platform

    env = {"python": platform.python_version(), "nproc": os.cpu_count()}
    for name in ("numpy", "mpmath"):
        try:
            env[name] = __import__(name).__version__
        except ImportError:
            env[name] = None
    return env


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    # Set-up: the import plus input generation.  Generating the inputs is
    # the kind of work the calibration unit times, so that part is scaled
    # here; the import does not follow the calibration unit and is scaled
    # by run.py.
    t0 = time.perf_counter()
    import trisectlab
    from trisectlab import cli
    import_s = time.perf_counter() - t0

    src = os.path.realpath(os.path.join(workloads.ROOT, "src"))
    if not os.path.realpath(trisectlab.__file__).startswith(src + os.sep):
        print(f"trisectlab imported from {trisectlab.__file__}, not {src}", file=sys.stderr)
        return 2
    before = calibrate()
    t0 = time.perf_counter()
    jobs = workloads.build_jobs(args.workload, args.seed)
    inputs_s = time.perf_counter() - t0
    if args.setup_only:
        inputs_s *= CAL_REF_S / statistics.fmean((before, calibrate()))
        print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))
        return 0

    deadline = workloads.DEADLINE_S[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace:
        import trace as tracing

        tracer = tracing.Tracer()
        tracer.install()
    sampler = SpeedSampler()
    cal = [calibrate()]
    results = []
    for job in jobs:
        r, spent, samples = sampler.run(
            cal[-1], lambda: run_job(cli, job.argv, deadline, tracer))
        if r["failure"] == "timeout":
            r["scaled"] = r["elapsed"]
        else:
            r["elapsed"] -= spent
            r["scaled"] = r["elapsed"] * CAL_REF_S / statistics.fmean(samples)
        cal += samples[1:]
        results.append(r)
    if tracer:
        tracer.uninstall()
    check(args.workload, jobs, results)

    report = {
        "wall_s": sum(r["scaled"] for r in results),
        "wall_raw_s": sum(r["elapsed"] for r in results),
        "wall_ok_s": sum(r["scaled"] for r in results if r["failure"] is None),
        "calibration_s": statistics.median(cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies": [r["scaled"] for r in results],
        "raw_latencies": [r["elapsed"] for r in results],
        "failures": [r["failure"] for r in results],
        "problems": [
            {"argv": job.argv, "kind": job.kind, "failure": r["failure"],
             "elapsed": r["elapsed"], "reason": r.get("reason"), "stderr": r["stderr"]}
            for job, r in zip(jobs, results) if r["failure"] is not None
        ],
        "slowest_success": max((r["elapsed"] for r in results if r["failure"] is None),
                               default=0.0),
        "deadline_s": deadline,
        "caches": cache_sizes(),
        "env": environment(),
    }
    if tracer:
        report["trace"] = tracer.metrics()
        os.makedirs(workloads.OUT, exist_ok=True)
        tracer.dump(workloads.spans_path(args.workload, args.seed))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

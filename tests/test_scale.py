"""Scale runs of the exact counts and of the largest witness, timed.

Each check runs in a fresh interpreter, reads its own peak resident memory
(VmHWM in /proc/self/status; ``ru_maxrss`` would carry over the RSS of the
process that started it) and prints one JSON line {"check", "elapsed_s",
"limit_s", "peak_mb"} (elapsed time of the call alone, interpreter start-up
and imports left out), in the style of the acceptance ``criterion()`` lines.
"""

import json
import os
import subprocess
import sys

import pytest

PEAK_MB = 250.0
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_RUN = """
import json, sys, time
from fractions import Fraction
from trisectlab.coprime_count import Box, lehmer_report
from trisectlab.exact_arith import RATIONAL_FIELD, QuadElem, canonicalize, quadratic_field
from trisectlab.height_enum import (HeightBall, QBoxSpec, count_ball_interval,
                                    count_ball_intervals, density_experiment, qbox)
from trisectlab.trisect_core import apply_f, decide_trisection, nonconstructible_witness
CHECKED = ("count", "members_checked", "exhaustive", "membership_violations")
start = time.perf_counter()
value = {call}
elapsed = time.perf_counter() - start
with open("/proc/self/status") as status:  # VmHWM: this process's own peak
    peak_mb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
print(json.dumps({{"value": value, "elapsed_s": elapsed, "peak_mb": peak_mb}}))
"""

# check -> (call, exact value, time limit in seconds).  The Q count is also
# checked against the closed-form lattice count in test_height_enum; at
# 10^11 it sieves the Moebius function past its table, in segments; the
# Q(sqrt 3) list shares one lattice evaluation across its four R; the
# intervals [-1/3, 5/2] and [1/3, 5/2] each take the symmetric counts at
# 1/3 and 5/2 (their values are those of the skew count they replace);
# lehmer is 2*Phi(10^9) - 1.  The Q density at 10^9 has that count as its
# denominator and visits the preimage rows b <= 1000 of B(2000); the
# Q(sqrt 2) density weighs the fibres in the preimage rows of B(234) (its
# values are those of the image dedup the weights replaced).  The witness
# at WITNESS_MAX_M = 31 is produced and verified, which builds it twice,
# as `trisectlab witness --m 31 --q 2` does.
# The qbox runs count the box difference and prove its members at the
# box's corner; members_checked is the seed-0 sample at R = 3000 and the
# whole count at Q(sqrt 2).
# The decide runs recover a witness with a 1000-digit denominator from its
# image, whose coordinates have about 3000 digits (below the 4300-digit
# int-to-str limit).  Their limits hold only for root floors found in
# O(log digits) Newton steps: bisection, one sign test per bit, takes about
# 0.65 s and 7.2 s on these inputs (2-CPU VM).  The many-prime runs take d =
# 3*5*...*47 (tau(8d) = 65,536) and a of height about 10^600, a member and
# its shift a1 + 1.  Their limits hold only for at most two cube tests: one
# per divisor of 8d takes about 2.3 s on each (2-CPU VM).
SCALE_RUNS = {
    "count-interval-q-1e9": (
        "count_ball_interval(HeightBall(RATIONAL_FIELD, 10 ** 9), -2, 2)",
        911890653519025243,
        3.0,
    ),
    "count-interval-q-1e11": (
        "count_ball_interval(HeightBall(RATIONAL_FIELD, 10 ** 11), -2, 2)",
        9118906527850158633421,
        3.0,
    ),
    "count-interval-sqrt2-1e6": (
        "count_ball_interval(HeightBall(quadratic_field(2), 10 ** 6), -2, 2)",
        1962022216192268733,
        3.0,
    ),
    "count-intervals-sqrt3-list": (
        "count_ball_intervals(quadratic_field(3), [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6], -2, 2)",
        [1760248379, 1758239246027, 1758048740142693, 1758029185248755429],
        3.0,
    ),
    "count-interval-sqrt7-skew-1e5": (
        "count_ball_interval(HeightBall(quadratic_field(7), 10 ** 5),"
        " Fraction(-1, 3), Fraction(5, 2))",
        877832490078360,
        3.0,
    ),
    "count-intervals-sqrt2-positive-list": (
        "count_ball_intervals(quadratic_field(2), [10 ** 3, 10 ** 4, 10 ** 5],"
        " Fraction(1, 3), Fraction(5, 2))",
        [919862352, 918812293663, 918712732286746],
        3.0,
    ),
    "lehmer-1e9-1e9": (
        "lehmer_report(Box(('1e9', '1e9'))).count",
        607927102346016827,
        3.0,
    ),
    "density-q-1e9": (
        "[[p.numerator, p.denominator] for p in density_experiment(RATIONAL_FIELD, [10 ** 9]).points]",
        [[1004395, 911890653519025243]],
        2.0,
    ),
    "density-sqrt2-1e4-1e5": (
        "[[p.numerator, p.denominator] for p in density_experiment(quadratic_field(2),"
        " [10 ** 4, 10 ** 5]).points]",
        [[19485, 1962256656609], [194489, 1962044040226121]],
        1.8,
    ),
    "witness-31-2": (
        "nonconstructible_witness(31, 2).verify()",
        True,
        1.0,
    ),
    "qbox-q-3000": (
        "{k: v for k, v in qbox(QBoxSpec(RATIONAL_FIELD, 3000)).items() if k in CHECKED}",
        {"count": 2735918, "members_checked": 200482, "exhaustive": False,
         "membership_violations": 0},
        0.8,
    ),
    "qbox-sqrt2-120": (
        "{k: v for k, v in qbox(QBoxSpec(quadratic_field(2), 120)).items() if k in CHECKED}",
        {"count": 149181, "members_checked": 149181, "exhaustive": True,
         "membership_violations": 0},
        0.25,
    ),
    "decide-q-1000-digits": (
        "decide_trisection(apply_f(x := Fraction(37 * (10 ** 999 + 7) // 100,"
        " 10 ** 999 + 7))).witness == x",
        True,
        0.25,
    ),
    "decide-sqrt2-1000-digits": (
        "decide_trisection(apply_f(x := QuadElem(37 * (10 ** 999 + 9) // 100,"
        " (10 ** 999 + 9) // 3, 10 ** 999 + 9, 2))).witness == x",
        True,
        1.0,
    ),
    "decide-many-prime-d-member-600-digits": (
        "decide_trisection(apply_f(x := QuadElem(37 * (10 ** 199 + 7) // 100,"
        " (10 ** 199 + 7) // 1663431399, 10 ** 199 + 7, 307444891294245705))).witness == x",
        True,
        0.5,
    ),
    "decide-many-prime-d-non-member-600-digits": (
        "decide_trisection(canonicalize((a := apply_f(QuadElem(37 * (10 ** 199 + 7) // 100,"
        " (10 ** 199 + 7) // 1663431399, 10 ** 199 + 7, 307444891294245705))).a1 + 1, a.a2,"
        " a.b, a.d)).member",
        False,
        0.5,
    ),
}


@pytest.mark.parametrize("check", list(SCALE_RUNS))
def test_scale_run(check):
    call, expected, limit_s = SCALE_RUNS[check]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _RUN.format(call=call)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({"check": check, "elapsed_s": round(result["elapsed_s"], 4),
                      "limit_s": limit_s, "peak_mb": round(result["peak_mb"], 1)}))
    assert result["value"] == expected
    assert result["elapsed_s"] < limit_s
    assert result["peak_mb"] < PEAK_MB

"""Command-line front door.

Verbs: decide, density, lehmer, boxcount, nsect, algdeg, witness, verify.
JSON is the canonical output format and CSV a per-verb projection; files
are written atomically (temp + rename) and contain no timestamps, so a
rerun with the same configuration is byte-identical.  Exit codes: 0 ok,
1 invariant falsification, 2 bad arguments, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import algdeg, coprime_count, height_enum, nsect, trisect_core
from .coprime_count import Box, lehmer_report
from .errors import BadParameters, CapExceeded, GcdBoundViolated, WorkbenchError
from .exact_arith import (
    RATIONAL_FIELD,
    FieldDescriptor,
    QuadElem,
    canonicalize,
    format_element,
    height,
    parse_element,
    quadratic_field,
    verify_commensurability,
)
from .height_enum import HeightBall, QBoxSpec, count_ball, count_ball_interval, enumerate_ball
from .trisect_core import (
    Certificate,
    apply_f,
    decide_trisection,
    density_experiment,
    gcd_bound_sweep,
    preimage_bound,
    square_family_check,
    yates_certificate,
)

CAP_ENV_VAR = "TRISECTLAB_CAP"


@dataclass
class RunConfig:
    verb: str
    field: FieldDescriptor | None = None
    a: str | None = None
    R_list: tuple[Fraction, ...] = ()
    sides: tuple[str, ...] = ()
    p: int | None = None
    c: int | None = None
    den: int | None = None
    m: int | None = None
    q: int | None = None
    n: int | None = None
    cap: int | None = None
    degree_cap: int = algdeg.DEGREE_CAP
    out: str | None = None
    fmt: str = "json"
    shards: int = 1  # validated, then unused: output never depended on it
    seed: int = 0
    quick: bool = False

    def validate(self):
        if self.shards < 1:
            raise BadParameters("shard count must be >= 1")
        if self.cap is not None and self.cap <= 0:
            raise BadParameters("cap must be positive")
        if list(self.R_list) != sorted(set(self.R_list)):
            raise BadParameters("R list must be strictly increasing")


def _field_from_args(args) -> FieldDescriptor:
    if args.field in ("q", "rational"):
        if getattr(args, "d", None):
            raise BadParameters("--d only applies to quadratic fields")
        return RATIONAL_FIELD
    if getattr(args, "d", None) is None:
        raise BadParameters("quadratic field needs --d")
    return quadratic_field(args.d)


def _atomic_write(path: str, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-trisectlab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config: RunConfig, payload_json: dict, csv_rows=None, csv_header=None) -> None:
    if config.fmt == "json":
        text = json.dumps(payload_json, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        if csv_header:
            writer.writerow(csv_header)
        for row in csv_rows or []:
            writer.writerow(row)
        text = buf.getvalue()
    if config.out:
        _atomic_write(config.out, text)
    else:
        sys.stdout.write(text)


def _run_decide(config: RunConfig) -> int:
    field = config.field
    element = parse_element(config.a, d=field.d if field.degree == 2 else None)
    verdict = decide_trisection(element, field)
    payload = {"field": field.label(), "d": field.d, "a": config.a.strip()}
    payload.update(verdict.to_dict())
    row = [field.label(), field.d, config.a.strip(), verdict.member, verdict.method,
           format_element(verdict.witness) if verdict.witness is not None else None]
    _emit(config, payload, [row], ["field", "d", "a", "member", "method", "witness"])
    return 0


def _run_density(config: RunConfig) -> int:
    report = density_experiment(config.field, config.R_list, cap=config.cap)
    payload = report.to_dict()
    rows = [
        [payload["field"], payload["d"], point["R"], point["num"], point["den"],
         point["delta"], payload["slope"], payload["target_exponent"]]
        for point in payload["points"]
    ]
    _emit(config, payload, rows,
          ["field", "d", "R", "numerator", "denominator", "delta", "slope", "target_exponent"])
    return 0


def _run_lehmer(config: RunConfig) -> int:
    box = Box(tuple(Fraction(s) for s in config.sides))
    report = lehmer_report(box)
    payload = report.to_dict()
    header = (["k"] + [f"side{i+1}" for i in range(box.k)]
              + ["count", "main_term", "error", "f_k", "eccentricity"])
    _emit(config, payload, [report.csv_row()], header)
    return 0


def _run_boxcount(config: RunConfig) -> int:
    field = config.field
    R = config.R_list[0]
    ball = HeightBall(field, R)
    total = count_ball(ball)
    interval = count_ball_interval(ball, -2, 2)
    k = field.degree
    main = 2.0 ** k * float(R) ** (k + 1) / coprime_count.zeta(k + 1)
    qreport = height_enum.qbox(QBoxSpec(field, R), seed=config.seed)
    payload = {
        "field": field.label(),
        "d": field.d,
        "R": str(R),
        "ball_count": total,
        "ball_main_term": main,
        "ball_ratio": total / main,
        "interval_count": interval,
        "qbox": qreport,
    }
    rows = [
        [field.label(), field.d, str(R), "ball", total, main, total / main],
        [field.label(), field.d, str(R), "interval[-2,2]", interval, None, None],
        [field.label(), field.d, str(R), "qbox", qreport["count"], qreport["main_term"],
         qreport["ratio"]],
    ]
    _emit(config, payload, rows, ["field", "d", "R", "kind", "count", "mainterm", "ratio"])
    return 0


def _run_nsect(config: RunConfig) -> int:
    cert = nsect.nonsectability_cert(config.p, config.c, config.den)
    payload = cert.to_dict()
    payload["verified"] = cert.verify()
    _emit(config, payload,
          [[config.p, config.c, config.den, payload["verified"]]],
          ["p", "c", "d", "verified"])
    return 0


def _run_witness(config: RunConfig) -> int:
    cert = trisect_core.nonconstructible_witness(config.m, config.q)
    payload = cert.to_dict()
    payload["verified"] = cert.verify()
    _emit(config, payload,
          [[config.m, config.q, payload["data"]["degree"], payload["verified"]]],
          ["m", "q", "degree", "verified"])
    return 0


def _run_algdeg(config: RunConfig) -> int:
    n = config.n
    payload = {
        "n": n,
        "tower": algdeg.tower_checks(n, cap=config.degree_cap),
        "shift_degree": algdeg.cn_degree_check(n, cap=config.degree_cap),
        "identities": algdeg.identity_suite(n),
    }
    ok = (payload["tower"]["ok"] and payload["shift_degree"]["ok"]
          and payload["identities"]["ok"])
    payload["ok"] = ok
    _emit(config, payload,
          [[n, payload["tower"]["ok"], payload["shift_degree"]["ok"],
            payload["identities"]["ok"]]],
          ["n", "tower_ok", "shift_degree_ok", "identities_ok"])
    return 0 if ok else 1


def _verify_checks(config: RunConfig):
    """Cross-module invariant sweeps; yields (name, ok, detail)."""
    rng = random.Random(config.seed)
    quick = config.quick

    # canonical uniqueness and field laws on random elements
    def random_elem(d):
        a1, a2 = rng.randint(-30, 30), rng.randint(-30, 30)
        return canonicalize(a1, a2, rng.randint(1, 30), d)

    ok = True
    for _ in range(50 if quick else 300):
        d = rng.choice((2, 3, 5, 6, 7))
        x, y, z = (random_elem(d) for _ in range(3))
        ok = ok and (x + y == y + x) and (x * y == y * x)
        ok = ok and ((x + y) + z == x + (y + z)) and ((x * y) * z == x * (y * z))
        ok = ok and ((x * y).conjugate() == x.conjugate() * y.conjugate())
        if not (x.a1 == 0 and x.a2 == 0):
            ok = ok and (x * x.invert() == QuadElem.from_rational(1, d))
        t = rng.randint(2, 9)
        ok = ok and canonicalize(t * x.a1, t * x.a2, t * x.b, d) == x
    yield "field-laws", ok, None

    # sieve vs brute on random boxes
    ok = True
    for _ in range(20 if quick else 60):
        k = rng.choice((2, 3))
        sides = tuple(Fraction(rng.randint(10, 250), 10) for _ in range(k))
        box = Box(sides)
        ok = ok and coprime_count.sieve_count(box) == coprime_count.brute_count(box)
        floors = Box(box.floors())
        ok = ok and coprime_count.sieve_count(box) == coprime_count.sieve_count(floors)
    yield "sieve-vs-brute", ok, None

    # ball counting formula vs enumeration
    ok = True
    for field in (RATIONAL_FIELD, quadratic_field(2), quadratic_field(5)):
        R = 12 if quick else 20
        ball = HeightBall(field, R)
        ok = ok and count_ball(ball) == sum(1 for _ in enumerate_ball(ball))
        ok = ok and count_ball_interval(ball, -2, 2) == sum(
            1 for _ in height_enum.enumerate_ball_interval(ball, -2, 2)
        )
    yield "ball-counts", ok, None

    # box-pair membership
    report = height_enum.qbox(QBoxSpec(RATIONAL_FIELD, 60 if quick else 120))
    yield "qbox-membership", report["membership_violations"] == 0, report["count"]

    # gcd bound sweep
    try:
        for d in (2, 3, 5, 6, 7):
            gcd_bound_sweep(d, 40 if quick else 80)
        yield "gcd-bound", True, None
    except GcdBoundViolated as exc:
        yield "gcd-bound", False, str(exc)

    # rational fast path vs the forward-image oracle
    H = 30 if quick else 60
    S = int(preimage_bound(RATIONAL_FIELD, H))
    images = set()
    for beta in height_enum.enumerate_ball_interval(HeightBall(RATIONAL_FIELD, S), -2, 2):
        img = apply_f(beta)
        if height(img) <= H:
            images.add(img)
    ok = True
    for b in range(1, H + 1):
        for a in range(-2 * b, 2 * b + 1):
            if abs(a) > H or gcd(a, b) != 1:
                continue
            x = Fraction(a, b)
            ok = ok and decide_trisection(x).member == (x in images)
    yield "fast-path-vs-search", ok, len(images)

    # certificates re-verify
    ok = square_family_check(40 if quick else 100)["certificate"].verify()
    a, b = yates_certificate(7)
    ok = ok and Certificate("yates-bezout", {"k": 7, "a": a, "b": b}).verify()
    ok = ok and trisect_core.nonconstructible_witness(5, 2).verify()
    ok = ok and nsect.nonsectability_cert(3, 3, 4).verify()
    ok = ok and nsect.nonsectability_cert(5, 5, 7).verify()
    yield "certificates", ok, None

    # multiple-angle polynomial structure and the trisection bridge
    from .polyalg import IntPoly

    ok = all(nsect.verify_structure(nsect.psection_poly(p))["ok"]
             for p in (3, 5, 7, 11, 13))
    ok = ok and nsect.psection_poly(3).coeffs * 2 == IntPoly((0, -6, 0, 8))
    yield "psection-structure", ok, None

    # tower and identity suite
    suite = algdeg.identity_suite(4 if quick else 8)
    ok = suite["ok"] and all(algdeg.tower_checks(n)["ok"] for n in range(1, 4 if quick else 6))
    yield "tower-identities", ok, suite["max_width"]

    # basis-change heights stay commensurate
    w1 = canonicalize(1, 0, 1, 2)
    w2 = canonicalize(1, 1, 1, 2)
    factor, fits = verify_commensurability(2, (w1, w2), 8 if quick else 15)
    yield "height-commensurability", fits and factor <= 2, factor


def _run_verify(config: RunConfig) -> int:
    failures = 0
    results = []
    for name, ok, detail in _verify_checks(config):
        results.append({"check": name, "ok": bool(ok), "detail": detail})
        line = f"{'ok' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail is not None else "")
        print(line)
        if not ok:
            failures += 1
    if config.out:
        _atomic_write(config.out, json.dumps({"results": results}, sort_keys=True, indent=2) + "\n")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisectlab",
        description="exact decision, counting, and certificate workbench for "
                    "trisectability of angles by cosine",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, shards=False):
        p.add_argument("--out", "-o", help="write the artifact to this path (atomic)")
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
        p.add_argument("--cap", type=int, default=None,
                       help=f"enumeration cap (default from ${CAP_ENV_VAR})")
        p.add_argument("--seed", type=int, default=0)
        if shards:
            p.add_argument("--shards", type=int, default=1,
                           help="accepted (must be >= 1); output and work do not depend on it")

    def add_field(p):
        p.add_argument("--field", choices=("q", "rational", "quad", "quadratic"),
                       default="q")
        p.add_argument("--d", type=int, default=None, help="squarefree radicand")

    p = sub.add_parser("decide", help="decide membership of a cosine value")
    add_field(p)
    p.add_argument("--a", required=True, help='element, e.g. "3/2" or "(1+1*sqrt(5))/2"')
    add_common(p)

    p = sub.add_parser("density", help="decay of the accepted fraction of height balls")
    add_field(p)
    p.add_argument("--R", required=True, help="comma-separated increasing height bounds")
    add_common(p, shards=True)

    p = sub.add_parser("lehmer", help="coprime tuple count in a box")
    p.add_argument("--sides", required=True, help='comma-separated sides, e.g. "4,4" or "5.9,3.2"')
    add_common(p, shards=True)

    p = sub.add_parser("boxcount", help="height-ball counts and the certified sub-box")
    add_field(p)
    p.add_argument("--R", required=True)
    add_common(p)

    p = sub.add_parser("nsect", help="cannot-split-into-p certificate for cos = c/d")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True, dest="den")
    add_common(p)

    p = sub.add_parser("algdeg", help="tower, identity, and degree reports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree-cap", type=int, default=algdeg.DEGREE_CAP)
    add_common(p)

    p = sub.add_parser("witness", help="accepted-but-not-constructible certificate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="run the cross-module invariant suites")
    p.add_argument("--quick", action="store_true")
    add_common(p)
    return parser


def config_from_args(args) -> RunConfig:
    cap = getattr(args, "cap", None)
    if cap is None and os.environ.get(CAP_ENV_VAR):
        cap = int(os.environ[CAP_ENV_VAR])
    config = RunConfig(
        verb=args.verb,
        cap=cap,
        out=getattr(args, "out", None),
        fmt=getattr(args, "fmt", "json"),
        shards=getattr(args, "shards", 1),
        seed=getattr(args, "seed", 0),
        quick=getattr(args, "quick", False),
        degree_cap=getattr(args, "degree_cap", algdeg.DEGREE_CAP),
    )
    if args.verb in ("decide", "density", "boxcount"):
        config.field = _field_from_args(args)
    if args.verb == "decide":
        config.a = args.a
    if args.verb in ("density", "boxcount"):
        config.R_list = tuple(Fraction(part) for part in args.R.split(","))
    if args.verb == "lehmer":
        config.sides = tuple(args.sides.split(","))
    if args.verb == "nsect":
        config.p, config.c, config.den = args.p, args.c, args.den
    if args.verb == "witness":
        config.m, config.q = args.m, args.q
    if args.verb == "algdeg":
        config.n = args.n
    config.validate()
    return config


_RUNNERS = {
    "decide": _run_decide,
    "density": _run_density,
    "lehmer": _run_lehmer,
    "boxcount": _run_boxcount,
    "nsect": _run_nsect,
    "witness": _run_witness,
    "algdeg": _run_algdeg,
    "verify": _run_verify,
}


def run(config: RunConfig) -> int:
    return _RUNNERS[config.verb](config)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config)
    except (GcdBoundViolated, AssertionError) as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (BadParameters, WorkbenchError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

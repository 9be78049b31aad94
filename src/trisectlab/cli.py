"""Command-line front door.

Verbs: decide, density, lehmer, boxcount, nsect, algdeg, witness, verify.
JSON is the canonical output format and CSV a per-verb projection; files
are written atomically (temp + rename) and contain no timestamps, so a
rerun with the same configuration is byte-identical; the one exception is
the time of each check that ``verify --out`` records.

argparse converts every flag value, once (``int``, :func:`fraction`,
:func:`fraction_list`, :func:`positive`); only ``--a``, whose field
depends on ``--d``, is parsed by its verb.  Exit codes: 0 ok; 1 an
invariant falsified; 2 bad arguments: a value argparse refuses (with the
verb's usage line), ``BadParameters``, ``ValueError``, ``OverflowError``
or an ``--out`` that cannot be written (``OSError``); 3 ``CapExceeded``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction

from . import algdeg, coprime_count, height_enum, trisect_core
from .coprime_count import Box, lehmer_report
from .errors import (
    BadParameters,
    CapExceeded,
    GcdBoundViolated,
    WorkbenchError,
)
from .exact_arith import (
    RATIONAL_FIELD,
    FieldDescriptor,
    QuadElem,
    canonicalize,
    format_element,
    height,
    parse_element,
    quadratic_field,
)
from .height_enum import (HeightBall, QBoxSpec, count_ball, count_ball_interval,
                          density_experiment, verify_commensurability)
from .trisect_core import (
    Certificate,
    apply_f,
    decide_trisection,
    preimage_bound,
    square_family_check,
    yates_certificate,
)


def fraction(text: str) -> Fraction:
    """A rational flag value: "7", "5.9", "1e3" or "7/2".  An exponent past
    4300, Python's int-to-str digit limit, is refused before 10^e is built."""
    if abs(int(text.lower().partition("e")[2] or 0)) > 4300:
        raise ValueError(f"exponent too large in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def fraction_list(text: str) -> list[Fraction]:
    """A comma list of rational flag values."""
    return [fraction(part) for part in text.split(",")]


def positive(text: str) -> int:
    """An integer flag value >= 1."""
    if (n := int(text)) < 1:
        raise ValueError(f"{n} < 1")
    return n


def _field_from_args(args) -> FieldDescriptor:
    if args.field in ("q", "rational"):
        if args.d is not None:
            raise BadParameters("--d only applies to quadratic fields")
        return RATIONAL_FIELD
    if args.d is None:
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


def _emit(args, payload_json: dict, csv_rows=None, csv_header=None) -> None:
    if args.fmt == "json":
        text = json.dumps(payload_json, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        if csv_header:
            writer.writerow(csv_header)
        for row in csv_rows or []:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _run_decide(args) -> int:
    field = _field_from_args(args)
    element = parse_element(args.a, d=field.d if field.degree == 2 else None)
    verdict = decide_trisection(element, field)
    payload = {"field": field.label(), "d": field.d, "a": args.a.strip()}
    payload.update(verdict.to_dict())
    row = [field.label(), field.d, args.a.strip(), verdict.member, verdict.method,
           format_element(verdict.witness) if verdict.witness is not None else None]
    _emit(args, payload, [row], ["field", "d", "a", "member", "method", "witness"])
    return 0


def _run_density(args) -> int:
    field = _field_from_args(args)
    report = density_experiment(field, args.R, cap=args.cap)
    payload = report.to_dict()
    rows = [
        [payload["field"], payload["d"], point["R"], point["num"], point["den"],
         point["delta"], payload["slope"], payload["target_exponent"]]
        for point in payload["points"]
    ]
    _emit(args, payload, rows,
          ["field", "d", "R", "numerator", "denominator", "delta", "slope", "target_exponent"])
    return 0


def _run_lehmer(args) -> int:
    box = Box(args.sides)
    report = lehmer_report(box)
    payload = report.to_dict()
    header = (["k"] + [f"side{i+1}" for i in range(box.k)]
              + ["count", "main_term", "error", "f_k", "eccentricity"])
    _emit(args, payload, [report.csv_row()], header)
    return 0


def _run_boxcount(args) -> int:
    field = _field_from_args(args)
    R = args.R
    # first, so that its cell cap refuses before the ball counts run
    qreport = height_enum.qbox(QBoxSpec(field, R), seed=args.seed)
    ball = HeightBall(field, R)
    total = count_ball(ball)
    interval = count_ball_interval(ball, -2, 2)
    k = field.degree
    main = 2.0 ** k * float(R) ** (k + 1) / coprime_count.zeta(k + 1)
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
    _emit(args, payload, rows, ["field", "d", "R", "kind", "count", "mainterm", "ratio"])
    return 0


def _run_nsect(args) -> int:
    cert = trisect_core.nonsectability_cert(args.p, args.c, args.den)
    payload = cert.to_dict()
    payload["verified"] = cert.verify()
    _emit(args, payload,
          [[args.p, args.c, args.den, payload["verified"]]],
          ["p", "c", "d", "verified"])
    return 0


def _run_witness(args) -> int:
    cert = trisect_core.nonconstructible_witness(args.m, args.q)
    payload = cert.to_dict()
    payload["verified"] = cert.verify()
    _emit(args, payload,
          [[args.m, args.q, payload["data"]["degree"], payload["verified"]]],
          ["m", "q", "degree", "verified"])
    return 0


def _run_algdeg(args) -> int:
    n = args.n
    payload = {
        "n": n,
        "tower": algdeg.tower_checks(n),
        "shift_degree": algdeg.cn_degree_check(n),
        "identities": algdeg.identity_suite(n),
    }
    ok = (payload["tower"]["ok"] and payload["shift_degree"]["ok"]
          and payload["identities"]["ok"])
    payload["ok"] = ok
    _emit(args, payload,
          [[n, payload["tower"]["ok"], payload["shift_degree"]["ok"],
            payload["identities"]["ok"]]],
          ["n", "tower_ok", "shift_degree_ok", "identities_ok"])
    return 0 if ok else 1


# The checks of ``verify``: each takes the run's random source and the
# --quick flag and returns (ok, detail); detail, when not None, is printed
# in parentheses.


def _check_field_laws(rng: random.Random, quick: bool):
    """Canonical uniqueness and field laws on random elements."""
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
    return ok, None


def _check_sieve_vs_brute(rng: random.Random, quick: bool):
    """Sieve against brute force on random boxes."""
    ok = True
    for _ in range(20 if quick else 60):
        k = rng.choice((2, 3))
        sides = tuple(Fraction(rng.randint(10, 250), 10) for _ in range(k))
        box = Box(sides)
        count = coprime_count.sieve_count(box)
        ok = ok and count == coprime_count.brute_count(box)
        ok = ok and count == coprime_count.sieve_count(Box(box.floors()))
    return ok, None


def _check_ball_counts(rng: random.Random, quick: bool):
    """Ball counting formulas against the kernel's checked blocks."""
    ok = True
    for field in (RATIONAL_FIELD, quadratic_field(2), quadratic_field(5)):
        ball = HeightBall(field, 12 if quick else 20)
        ok = ok and count_ball(ball) == height_enum.count_elements(ball)
        ok = ok and count_ball_interval(ball, -2, 2) == height_enum.count_elements(ball, -2, 2)
    return ok, None


def _check_qbox_membership(rng: random.Random, quick: bool):
    """Box-pair membership by qbox's corner proof (which raises when the
    corner fails), and its Moebius count against the brute-force counts of
    the two boxes."""
    spec = QBoxSpec(RATIONAL_FIELD, 60 if quick else 120)
    count = height_enum.qbox(spec)["count"]
    n, m = spec.side_floors()
    return count == coprime_count.brute_count(Box(n)) - coprime_count.brute_count(Box(m)), count


def _check_gcd_bound(rng: random.Random, quick: bool):
    """The image gcd divides 8d at every height: the gcd-bound certificate
    of each d verifies."""
    return all(Certificate("gcd-bound", {"d": d}).verify() for d in (2, 3, 5, 6, 7)), None


def _check_fast_path(rng: random.Random, quick: bool):
    """The rational fast path against the forward-image oracle."""
    H = 30 if quick else 60
    S = int(preimage_bound(RATIONAL_FIELD, H))
    images = set()
    for beta in height_enum.enumerate_ball_interval(HeightBall(RATIONAL_FIELD, S), -2, 2):
        img = apply_f(beta)
        if height(img) <= H:
            images.add(img)
    # every image lies in B(H) ∩ [-2, 2], so the verdicts match membership
    # among the images exactly when the members are the images
    members = {x for x in height_enum.enumerate_ball_interval(HeightBall(RATIONAL_FIELD, H), -2, 2)
               if decide_trisection(x).member}
    return members == images, len(images)


def _check_certificates(rng: random.Random, quick: bool):
    """Certificates re-verify."""
    ok = square_family_check(40 if quick else 100)["certificate"].verify()
    a, b = yates_certificate(7)
    ok = ok and Certificate("yates-bezout", {"k": 7, "a": a, "b": b}).verify()
    ok = ok and trisect_core.nonconstructible_witness(5, 2).verify()
    ok = ok and trisect_core.nonsectability_cert(3, 3, 4).verify()
    ok = ok and trisect_core.nonsectability_cert(5, 5, 7).verify()
    return ok, None


def _check_psection_structure(rng: random.Random, quick: bool):
    """Multiple-angle polynomial structure and the trisection bridge."""
    from .polyalg import IntPoly, psection_poly, verify_structure

    ok = all(verify_structure(p, psection_poly(p))["ok"] for p in (3, 5, 7, 11, 13))
    ok = ok and psection_poly(3) * 2 == IntPoly((0, -6, 0, 8))
    return ok, None


def _check_tower_identities(rng: random.Random, quick: bool):
    """Tower and identity suite."""
    suite = algdeg.identity_suite(4 if quick else 8)
    ok = suite["ok"] and all(algdeg.tower_checks(n)["ok"] for n in range(1, 4 if quick else 6))
    return ok, suite["max_width"]


def _check_commensurability(rng: random.Random, quick: bool):
    """Basis-change heights stay commensurate."""
    w1 = canonicalize(1, 0, 1, 2)
    w2 = canonicalize(1, 1, 1, 2)
    factor, fits = verify_commensurability(2, (w1, w2), 8 if quick else 15)
    return fits and factor <= 2, factor


VERIFY_CHECKS = (
    ("field-laws", _check_field_laws),
    ("sieve-vs-brute", _check_sieve_vs_brute),
    ("ball-counts", _check_ball_counts),
    ("qbox-membership", _check_qbox_membership),
    ("gcd-bound", _check_gcd_bound),
    ("fast-path-vs-search", _check_fast_path),
    ("certificates", _check_certificates),
    ("psection-structure", _check_psection_structure),
    ("tower-identities", _check_tower_identities),
    ("height-commensurability", _check_commensurability),
)


def _run_verify(args) -> int:
    """Run every check of ``VERIFY_CHECKS`` in order with one random source.
    A check that raises a workbench, value, arithmetic or assertion error
    fails with the error as its detail, and the run goes on."""
    rng = random.Random(args.seed)
    results = []
    for name, check in VERIFY_CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = check(rng, args.quick)
        except (WorkbenchError, ValueError, ArithmeticError, AssertionError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append({"check": name, "ok": bool(ok), "detail": detail, "elapsed_s": elapsed})
        print(f"{'ok' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail is not None else ""))
    if args.out:
        _atomic_write(args.out, json.dumps({"results": results}, sort_keys=True, indent=2) + "\n")
    return 0 if all(r["ok"] for r in results) else 1


def _decide_flags(p):
    p.add_argument("--a", required=True, help='element, e.g. "3/2" or "(1+1*sqrt(5))/2"')


def _shards_flag(p):
    p.add_argument("--shards", type=positive, default=1,
                   help="accepted (must be >= 1); output and work do not depend on it")


def _density_flags(p):
    p.add_argument("--R", type=fraction_list, required=True,
                   help="comma-separated increasing height bounds")
    p.add_argument("--cap", type=positive, default=None,
                   help="most preimages the numerator may visit (default: no cap)")
    _shards_flag(p)


def _lehmer_flags(p):
    p.add_argument("--sides", type=fraction_list, required=True,
                   help='comma-separated sides, e.g. "4,4" or "5.9,3.2"')
    _shards_flag(p)


def _boxcount_flags(p):
    p.add_argument("--R", type=fraction, required=True, help="one height bound")
    p.add_argument("--seed", type=int, default=0)


def _nsect_flags(p):
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True, dest="den")


def _algdeg_flags(p):
    p.add_argument("--n", type=int, required=True)


def _witness_flags(p):
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)


def _verify_flags(p):
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=0)


# verb: (runner, summary, takes --field and --d, takes --format, its own flags)
VERBS = {
    "decide": (_run_decide, "decide membership of a cosine value", True, True, _decide_flags),
    "density": (_run_density, "decay of the accepted fraction of height balls", True, True,
                _density_flags),
    "lehmer": (_run_lehmer, "coprime tuple count in a box", False, True, _lehmer_flags),
    "boxcount": (_run_boxcount, "height-ball counts and the certified sub-box", True, True,
                 _boxcount_flags),
    "nsect": (_run_nsect, "cannot-split-into-p certificate for cos = c/d", False, True,
              _nsect_flags),
    "algdeg": (_run_algdeg, "tower, identity, and degree reports", False, True, _algdeg_flags),
    "witness": (_run_witness, "accepted-but-not-constructible certificate", False, True,
                _witness_flags),
    "verify": (_run_verify, "run the cross-module invariant suites", False, False,
               _verify_flags),
}


def _add_verb_flags(p: argparse.ArgumentParser, verb: str) -> None:
    """Every flag of ``verb``, the one definition both parsers use."""
    run, _, field, csv, own_flags = VERBS[verb]
    p.set_defaults(run=run)
    if field:
        p.add_argument("--field", choices=("q", "rational", "quad", "quadratic"), default="q")
        p.add_argument("--d", type=int, default=None, help="squarefree radicand")
    p.add_argument("--out", "-o", help="write the artifact to this path (atomic)")
    if csv:
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    own_flags(p)


@functools.cache
def verb_parser(verb: str) -> argparse.ArgumentParser:
    """The parser of one verb, built on its first use and kept: it prints
    the same help and errors as the verb's subcommand of
    :func:`build_parser`, whose prog it shares."""
    p = argparse.ArgumentParser(prog=f"trisectlab {verb}")
    _add_verb_flags(p, verb)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, one subcommand per verb, built once per process.
    ``main`` reaches it only for an argv that names no verb (none, ``-h``
    or an unknown one), since building it builds every verb's parser."""
    parser = argparse.ArgumentParser(
        prog="trisectlab",
        description="exact decision, counting, and certificate workbench for "
                    "trisectability of angles by cosine",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, summary, *_) in VERBS.items():
        _add_verb_flags(sub.add_parser(verb, help=summary), verb)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = verb_parser(argv.pop(0)) if argv and argv[0] in VERBS else build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse before 3.13 reads --flag=-- as []
        parser.error("'--' is not a flag value")
    try:
        return args.run(args)
    except (GcdBoundViolated, AssertionError) as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (WorkbenchError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

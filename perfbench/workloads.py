"""Seeded inputs and correctness oracles for the three workloads.

Every job is one ``trisectlab`` command line.  The program sees only the
generated arguments; the seed never reaches it.

decide-sweep
    About 300 ``decide`` queries over Q, Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5),
    plus four deep probes.  Half of the ordinary queries are members built
    as a = f(beta) with f(x) = x^3 - 3x; the rest are non-members the
    benchmark proves itself, either by the denominator valuation argument
    (the canonical denominator of f(beta) is b^3/G with G | 8d, so a
    denominator B is reachable only if B*G is a cube for some G | 8d) or
    because a = 3r/s makes s*x^3 - 3s*x - 3r Eisenstein at 3, so the cubic
    is irreducible over Q and has no root in any quadratic field.
    Quadratic queries come in six height tiers.  Each tier opens, per
    field, with a non-member of the tier's top height, so the program's
    image index is rebuilt exactly six times per field whatever the seed;
    later queries of the tier only read it.  That keeps the set of slow
    queries, and so the p95, independent of the seed.

density-quad, count-cert
    Fixed job lists in a fixed order; the seed changes nothing.  Outputs
    are compared with ``golden.json``, recorded at the seed commit by
    ``record_golden.py``.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

QUAD_FIELDS = (2, 3, 5)
# Top height of each tier: primes, so the tier's opening non-member has a
# prime denominator p with p prime to 8d.
TIER_PRIMES = (11, 19, 31, 47, 71, 109)
QUAD_PER_FIELD = 75       # per quadratic field, tier openers included
RATIONAL_QUERIES = 75
RATIONAL_MAX_DIGITS = 60  # rational heights up to 10^60

# Known defects at the seed commit, kept so that they stay visible.
PROBES = (
    ("q", "1/" + "1" + "0" * 75),                     # icbrt steps by one for ~10^9 steps
    ("q", "1/" + "1" + "0" * 400),                    # 401-digit denominator: OverflowError
    (2, "(1+1*sqrt(2))/100000"),                       # preimage ball exceeds the cap
    (3, "(1+1*sqrt(3))/1" + "0" * 50),                 # unbounded count loop
)

# Per-job deadlines, each at least 3x the slowest job that succeeds at the
# seed commit (decide-sweep: up to about 1.7 s, the last Q(sqrt 5) index
# build, on a 2-CPU machine).
DEADLINE_S = {"decide-sweep": 6.0, "density-quad": 60.0, "count-cert": 60.0}

DENSITY_QUAD_JOBS = (
    "density --field quad --d 2 --R 25,50,100,200",
    "density --field quad --d 3 --R 25,50,100,200",
    "density --field quad --d 2 --R 25,50,100 --shards 1",
    "density --field quad --d 2 --R 25,50,100 --shards 2",
)
SHARD_PAIR = (DENSITY_QUAD_JOBS[2], DENSITY_QUAD_JOBS[3])

COUNT_CERT_JOBS = (
    "density --field q --R 1000,10000,100000",
    "boxcount --field q --R 1000",
    "boxcount --field quad --d 2 --R 40",
    "lehmer --sides 1000000,1000000",
    "lehmer --sides 100000.5,30000,70000",
    *(f"witness --m {m} --q {q}"
      for m, q in ((5, 2), (7, 2), (11, 2), (13, 3), (17, 2), (19, 2), (23, 5))),
    "nsect --p 3 --c 3 --d 4",
    "nsect --p 5 --c 5 --d 7",
    "algdeg --n 9",
    "verify --quick",
)

WORKLOADS = ("decide-sweep", "density-quad", "count-cert")


def per_layer_metrics() -> list[dict]:
    """The ``per_layer`` entries of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["per_layer"]


def spans_path(workload: str, seed: int) -> str:
    return os.path.join(OUT, f"spans-{workload}-seed{seed}.npz")


@dataclass
class Job:
    argv: list[str]
    kind: str                 # member, valuation, eisenstein, probe, golden
    d: int | None = None      # radicand, None over Q
    a: tuple = ()             # canonical (a1, a2, b) of the queried element
    extra: dict = field(default_factory=dict)


def build_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(seed)
    if workload == "decide-sweep":
        return _decide_jobs(rng)
    # Fixed parameter sets, in a fixed order: the order decides which
    # tables coexist in memory, so shuffling it would move peak_rss_mb.
    lines = {"density-quad": DENSITY_QUAD_JOBS, "count-cert": COUNT_CERT_JOBS}[workload]
    return [Job(line.split(), "golden", extra={"key": line}) for line in lines]


# -- exact helpers, independent of the program under test ------------------

def icbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 0, by integer Newton iteration."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def is_cube(n: int) -> bool:
    return icbrt(n) ** 3 == n


def sign_lin(x: int, y: int, d: int) -> int:
    """Exact sign of x + y*sqrt(d)."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    return sx if x * x > d * y * y else sy


def in_range(a1: int, a2: int, b: int, d: int) -> bool:
    """-2 <= (a1 + a2*sqrt(d))/b <= 2 for b > 0."""
    return sign_lin(2 * b - a1, -a2, d) >= 0 and sign_lin(2 * b + a1, a2, d) >= 0


def canon(a1: int, a2: int, b: int) -> tuple[int, int, int]:
    g = gcd(gcd(a1, a2), b)
    return a1 // g, a2 // g, b // g


def image(b1: int, b2: int, c: int, d: int) -> tuple[int, int, int]:
    """Canonical f(beta) for beta = (b1 + b2*sqrt(d))/c."""
    A1 = b1 ** 3 + 3 * d * b1 * b2 * b2 - 3 * b1 * c * c
    A2 = 3 * b1 * b1 * b2 + d * b2 ** 3 - 3 * b2 * c * c
    return canon(A1, A2, c ** 3)


def quad_height(t: tuple[int, int, int]) -> int:
    return max(abs(t[0]), abs(t[1]), t[2])


def divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def valuation_excludes(b: int, d: int) -> bool:
    """True when no G | 8d makes b*G a cube, which proves that no element
    with canonical denominator b is an image of f over Q(sqrt d)."""
    return not any(is_cube(b * g) for g in divisors(8 * d))


def element_text(t: tuple[int, int, int], d: int | None) -> str:
    a1, a2, b = t
    if d is None or a2 == 0:
        return f"{a1}/{b}"
    return f"({a1}{'+' if a2 >= 0 else '-'}{abs(a2)}*sqrt({d}))/{b}"


_QUAD_RE = re.compile(r"^\((-?\d+)([+-])(\d+)\*sqrt\((\d+)\)\)/(\d+)$")
_RAT_RE = re.compile(r"^(-?\d+)/(\d+)$")


def parse_witness(text: str) -> tuple[Fraction, Fraction, int | None]:
    """(x, y, d) with the witness equal to x + y*sqrt(d)."""
    m = _QUAD_RE.match(text)
    if m:
        a1, sgn, a2, d, b = m.groups()
        y = Fraction(int(a2) * (1 if sgn == "+" else -1), int(b))
        return Fraction(int(a1), int(b)), y, int(d)
    m = _RAT_RE.match(text)
    if not m:
        raise ValueError(f"unparsable witness {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2))), Fraction(0), None


def f_of(x: Fraction, y: Fraction, d: int) -> tuple[Fraction, Fraction]:
    """w^3 - 3w for w = x + y*sqrt(d), as (rational part, sqrt(d) part)."""
    x2, y2 = x * x + d * y * y, 2 * x * y          # w^2
    x3, y3 = x2 * x + d * y2 * y, x2 * y + y2 * x  # w^3
    return x3 - 3 * x, y3 - 3 * y


# -- decide-sweep ------------------------------------------------------------

def _decide_argv(text: str, d: int | None) -> list[str]:
    if d is None:
        return ["decide", "--field", "q", f"--a={text}"]
    return ["decide", "--field", "quad", "--d", str(d), f"--a={text}"]


def _rational_jobs(rng: random.Random) -> list[Job]:
    def log_uniform(max_digits: int) -> int:
        k = rng.randint(1, max_digits)
        return rng.randrange(10 ** (k - 1), 10 ** k)

    jobs = []
    members = RATIONAL_QUERIES // 2
    for i in range(RATIONAL_QUERIES):
        if i < members:
            while True:
                s = log_uniform(RATIONAL_MAX_DIGITS // 3)
                r = rng.randint(-2 * s, 2 * s)
                if gcd(r, s) == 1:
                    break
            num, den = r ** 3 - 3 * r * s * s, s ** 3
            kind = "member"
        elif i % 2:
            while True:
                den = log_uniform(RATIONAL_MAX_DIGITS)
                num = rng.randint(-2 * den, 2 * den)
                if den > 1 and not is_cube(den) and gcd(num, den) == 1:
                    break
            kind = "valuation"
        else:
            while True:
                t = log_uniform(RATIONAL_MAX_DIGITS // 3)
                den = t ** 3
                r = rng.randint(-((2 * den) // 3), (2 * den) // 3)
                if t % 3 and r % 3 and r and gcd(r, t) == 1:
                    break
            num = 3 * r
            kind = "eisenstein"
        a = (num, 0, den)
        jobs.append(Job(_decide_argv(element_text(a, None), None), kind, None, a))
    return jobs


def _member_pool(d: int) -> list[tuple[int, int, int]]:
    """Distinct images f(beta) of height <= the top tier, from every beta
    in a fixed small box inside [-2, 2]; independent of the seed."""
    top = TIER_PRIMES[-1]
    pool = set()
    for c in range(1, 13):
        for b2 in range(-12, 13):
            for b1 in range(-24, 25):
                if gcd(gcd(b1, b2), c) != 1 or not in_range(b1, b2, c, d):
                    continue
                a = image(b1, b2, c, d)
                if quad_height(a) <= top:
                    pool.add(a)
    return sorted(pool)


def _quad_nonmember(rng: random.Random, d: int, top: int, eisenstein: bool):
    """A proven non-member of height <= top."""
    while True:
        if eisenstein:
            s = rng.choice([t ** 3 for t in (2, 4, 5) if t ** 3 <= top])
            r = rng.randint(-((2 * s) // 3), (2 * s) // 3)
            if r and r % 3 and gcd(r, s) == 1 and abs(3 * r) <= top:
                return (3 * r, 0, s)
            continue
        b = rng.randint(2, top)
        a1, a2 = rng.randint(-top, top), rng.randint(-top, top)
        if gcd(gcd(a1, a2), b) == 1 and in_range(a1, a2, b, d) and valuation_excludes(b, d):
            return (a1, a2, b)


def _quad_jobs(rng: random.Random, d: int) -> list[list[Job]]:
    """Per tier: the opener first, then the tier's other queries."""
    tiers = len(TIER_PRIMES)
    unused = _member_pool(d)
    ordinary = QUAD_PER_FIELD - tiers
    members = ordinary // 2
    blocks = []
    for t, top in enumerate(TIER_PRIMES):
        # The opener: a non-member whose denominator is the prime top
        # itself, so its preimage bound is the tier's largest.
        while True:
            a1, a2 = rng.randint(-top, top), rng.randint(-top, top)
            if (a1 % top or a2 % top) and in_range(a1, a2, top, d):
                break
        assert valuation_excludes(top, d)
        block = [Job(_decide_argv(element_text((a1, a2, top), d), d), "valuation", d,
                     (a1, a2, top), {"opener": True})]
        n_mem = members // tiers + (t < members % tiers)
        n_non = (ordinary - members) // tiers + (t < (ordinary - members) % tiers)
        chosen = rng.sample([a for a in unused if quad_height(a) <= top], n_mem)
        unused = [a for a in unused if a not in chosen]
        for a in chosen:
            block.append(Job(_decide_argv(element_text(a, d), d), "member", d, a))
        for i in range(n_non):
            eis = i % 2 == 1
            a = _quad_nonmember(rng, d, top, eis)
            block.append(Job(_decide_argv(element_text(a, d), d),
                             "eisenstein" if eis else "valuation", d, a))
        blocks.append(block)
    return blocks


def _decide_jobs(rng: random.Random) -> list[Job]:
    tiers = len(TIER_PRIMES)
    rational = _rational_jobs(rng)
    rng.shuffle(rational)
    probes = [Job(_decide_argv(text, None if d == "q" else d), "probe",
                  None if d == "q" else d) for d, text in PROBES]
    per_field = {d: _quad_jobs(rng, d) for d in QUAD_FIELDS}
    jobs = []
    for t in range(tiers):
        block = rational[t::tiers] + probes[t::tiers]
        for d in QUAD_FIELDS:
            block += per_field[d][t]
        rng.shuffle(block)
        # The openers take the places of the block's first three quadratic
        # queries, in field order, so every field's index is rebuilt before
        # it is read and the rebuilds (and the memory peak) come in the same
        # order whatever the seed.
        openers = [j for j in block if j.extra.get("opener")]
        rest = [j for j in block if not j.extra.get("opener")]
        slots = [i for i, j in enumerate(block) if j.d is not None and j.kind != "probe"][:3]
        openers.sort(key=lambda j: j.d)
        for i, j in enumerate(block):
            block[i] = openers.pop(0) if i in slots else rest.pop(0)
        jobs += block
    return jobs


def check_decide(job: Job, payload: dict) -> str | None:
    """None when the verdict is right, else the reason it is wrong."""
    from trisectlab.trisect_core import Certificate

    if job.kind == "member":
        if payload.get("member") is not True or not payload.get("witness"):
            return "member reported as non-member"
        x, y, wd = parse_witness(payload["witness"])
        if wd is not None and wd != job.d:
            return "witness in the wrong field"
        d = job.d or 2
        fx, fy = f_of(x, y, d)
        a1, a2, b = job.a
        if (fx, fy) != (Fraction(a1, b), Fraction(a2, b)):
            return f"witness {payload['witness']} does not satisfy w^3 - 3w = a"
    elif payload.get("member") is not False or payload.get("witness") is not None:
        return "proven non-member reported as member"
    cert = payload.get("certificate")
    if cert is not None and not Certificate(cert["kind"], cert["data"]).verify():
        return f"attached {cert['kind']} certificate does not verify"
    return None


# -- golden comparison -------------------------------------------------------

def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# One ``verify`` line: status, check name and an optional number in
# parentheses; whatever follows is ignored.
_CHECK_RE = re.compile(r"^(\S+)\s+(\S+)(?:\s+\(([^)]*)\))?")


def _number(text: str | None):
    if text is None:
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_output(text: str):
    """JSON payload of a verb, or ``[status, check, number]`` per line of
    ``verify``, so its numbers are compared like any other field."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    rows = []
    for line in text.splitlines():
        m = _CHECK_RE.match(line)
        rows.append([m[1], m[2], _number(m[3])] if m else line)
    return rows


def same(got, want, path: str = "") -> str | None:
    """Integers, strings and booleans equal; floats within 1e-9 relative."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return None if got == want else f"{path}: {got!r} != {want!r}"
    if isinstance(want, int):
        ok = isinstance(got, int) and not isinstance(got, bool) and got == want
        return None if ok else f"{path}: {got!r} != {want!r}"
    if isinstance(want, float):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return f"{path}: {got!r} is not a number"
        if math.isnan(want):
            return None if math.isnan(got) else f"{path}: {got!r} != nan"
        ok = got == want or abs(got - want) <= 1e-9 * max(abs(want), abs(got))
        return None if ok else f"{path}: {got!r} differs from {want!r}"
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            err = same(g, w, f"{path}[{i}]")
            if err:
                return err
        return None
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for k in want:
            err = same(got[k], want[k], f"{path}.{k}")
            if err:
                return err
        return None
    return f"{path}: unexpected golden type {type(want).__name__}"

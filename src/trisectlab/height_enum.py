"""Enumeration and counting of height balls and the box construction that
certifies a lower bound for the in-interval count.

A height ball B(R) over a field is the finite set of canonical elements of
height at most R.  Enumeration is lexicographic in (b, a1[, a2]) so streams
are reproducible.  One row kernel serves the full and the interval streams
and the interval count; the whole-ball count goes through the coprime-tuple
sieve instead, and the tests cross-check the two.  Streams and counts run
serially in one thread; nothing is sharded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .coprime_count import Box, mobius_table, sieve_count, zeta
from .errors import BadParameters, CapExceeded
from .exact_arith import FieldDescriptor, QuadElem, floor_sqrt_multiple, in_interval

DEFAULT_ENUM_CAP = 20_000_000


@dataclass(frozen=True)
class HeightBall:
    """All elements of the field with height <= R."""

    field: FieldDescriptor
    R: Fraction

    def __init__(self, field: FieldDescriptor, R):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "R", Fraction(R))

    @property
    def bound(self) -> int:
        """Integer coordinate bound floor(R)."""
        return self.R.numerator // self.R.denominator


def count_ball(ball: HeightBall) -> int:
    """Exact |B(R)| assembled from sieve counts over the sign/zero pattern
    decomposition plus the singleton zero element."""
    F = ball.bound
    if F < 1:
        return 0
    if ball.field.degree == 1:
        return 2 * sieve_count(Box((F, F))) + 1
    return 4 * sieve_count(Box((F, F, F))) + 4 * sieve_count(Box((F, F))) + 1


def _rows(ball: HeightBall, lo: Fraction | None = None, hi: Fraction | None = None):
    """The rows of B(R), or of B(R) ∩ [lo, hi] when an interval is given,
    in (b, a1[, a2]) order: the one loop nest behind both streams and the
    interval count.

    A row (b, a1, a_lo, a_hi, g) stands for the elements whose last
    coordinate (a2 over Q(sqrt(d)), the numerator over Q) is an integer in
    [a_lo, a_hi] prime to g = gcd(a1, b); gcd(0, g) = g, so 0 belongs only
    when g = 1.  Q runs as the case d = 1 with a1 fixed at 0.  On a row
    lo*b <= a1 + a2*sqrt(d) <= hi*b, so with hi = p/q the upper end is
    a2 <= floor((p*b - q*a1)*sqrt(d)/(q*d)), which is
    floor_sqrt_multiple(p*b - q*a1, d) // (q*d); the lower end is its
    mirror.  The clip is exact integer arithmetic.
    """
    F = ball.bound
    d = ball.field.d or 1
    a1_values = range(-F, F + 1) if d > 1 else (0,)
    for b in range(1, F + 1):
        for a1 in a1_values:
            a_lo, a_hi = -F, F
            if lo is not None:
                p, q = lo.numerator, lo.denominator
                a_lo = max(a_lo, -(floor_sqrt_multiple(q * a1 - p * b, d) // (q * d)))
                p, q = hi.numerator, hi.denominator
                a_hi = min(a_hi, floor_sqrt_multiple(p * b - q * a1, d) // (q * d))
            yield b, a1, a_lo, a_hi, gcd(a1, b)


def _stream(ball: HeightBall, lo: Fraction | None = None, hi: Fraction | None = None):
    """The coprime elements of the rows of :func:`_rows`, in row order."""
    d = ball.field.d
    for b, a1, a_lo, a_hi, g in _rows(ball, lo, hi):
        for a in range(a_lo, a_hi + 1):
            if gcd(g, a) == 1:
                yield QuadElem(a1, a, b, d) if d else Fraction(a, b)


def _interval(lo, hi) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise BadParameters("interval endpoints out of order")
    return lo, hi


def enumerate_ball(ball: HeightBall, cap: int | None = None):
    """Yield every element of B(R) exactly once, lexicographic in
    (b, a1[, a2])."""
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if count_ball(ball) > cap:
        raise CapExceeded(f"|B({ball.R})| exceeds cap {cap}")
    yield from _stream(ball)


def enumerate_ball_interval(ball: HeightBall, lo, hi, cap: int | float | None = None):
    """Yield the elements of B(R) lying in [lo, hi], in the same order as
    :func:`enumerate_ball`.

    Each row is clipped to the interval exactly before the gcd test, so
    membership needs no further check.  The cap (default
    ``DEFAULT_ENUM_CAP``) bounds the exact interval count.
    """
    lo, hi = _interval(lo, hi)
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    if count_ball_interval(ball, lo, hi) > cap:
        raise CapExceeded(f"|B({ball.R}) in [{lo}, {hi}]| exceeds cap {cap}")
    yield from _stream(ball, lo, hi)


def materialize_lines(stream) -> str:
    """One canonical element per line, in stream order."""
    from .exact_arith import format_element

    return "".join(format_element(x) + "\n" for x in stream)


def materialize_json(stream) -> str:
    """JSON array of canonical element strings, in stream order."""
    import json

    from .exact_arith import format_element

    return json.dumps([format_element(x) for x in stream])


_SPF_CACHE: list[int] = [0, 1]


def _spf_table(n: int) -> list[int]:
    """Smallest-prime-factor table up to n, memoized."""
    global _SPF_CACHE
    if n < len(_SPF_CACHE):
        return _SPF_CACHE
    size = max(n + 1, 2 * len(_SPF_CACHE))
    spf = list(range(size))
    for p in range(2, isqrt(size - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, size, p):
                if spf[m] == m:
                    spf[m] = p
    _SPF_CACHE = spf
    return spf


def _signed_squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """(divisor, mu) pairs over the squarefree divisors of n."""
    spf = _spf_table(n)
    out = [(1, 1)]
    while n > 1:
        p = spf[n]
        while n % p == 0:
            n //= p
        out += [(d * p, -s) for d, s in out]
    return out


def _coprime_in_range(a_lo: int, a_hi: int, g: int) -> int:
    """#{a in [a_lo, a_hi] : gcd(a, g) = 1}, counting a = 0 only when
    g = 1 (gcd(0, g) = g convention)."""
    if a_lo > a_hi:
        return 0
    if g == 1:
        return a_hi - a_lo + 1
    total = 0
    for e, s in _signed_squarefree_divisors(g):
        total += s * (a_hi // e - (a_lo - 1) // e)
    return total


def count_ball_interval(ball: HeightBall, lo, hi) -> int:
    """Exact |B(R) ∩ [lo, hi]| without materializing the stream."""
    lo, hi = _interval(lo, hi)
    return sum(_coprime_in_range(a_lo, a_hi, g) for _, _, a_lo, a_hi, g in _rows(ball, lo, hi))


@dataclass(frozen=True)
class QBoxSpec:
    """The box pair (m, n) whose set difference is a certified subset of
    B(R) ∩ [-2, 2]: m_i = n_i = 2R/((k+1)v_i) over the basis elements, and
    the last coordinate runs over (kR/(k+1), R]."""

    field: FieldDescriptor
    R: Fraction

    def __init__(self, field: FieldDescriptor, R):
        R = Fraction(R)
        if R < field.degree + 1:
            raise BadParameters("need R >= k+1 for a nonempty box pair")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "R", R)

    def side_floors(self, j: int = 1):
        """Floored sides (n/j, m/j) of the outer and inner boxes; the
        irrational side 2R/((k+1)sqrt(d)) floors exactly through isqrt."""
        k = self.field.degree
        R = self.R
        c = 2 * R / (k + 1)
        if k == 1:
            n = (math.floor(c / j), math.floor(R / j))
            m = (n[0], math.floor(k * R / ((k + 1) * j)))
            return n, m
        d = self.field.d
        num, den = c.numerator, c.denominator
        # floor( (num/den) / (j*sqrt(d)) ) = floor(num*sqrt(d)) // (den*j*d)
        rad = isqrt(num * num * d) // (den * j * d)
        n = (math.floor(c / j), rad, math.floor(R / j))
        m = (n[0], n[1], math.floor(k * R / ((k + 1) * j)))
        return n, m


def _generalized_sieve(spec: QBoxSpec, inner: bool) -> int:
    n0, m0 = spec.side_floors(1)
    sides = m0 if inner else n0
    jmax = min(sides)
    if jmax < 1:
        return 0
    mu = mobius_table(jmax)
    total = 0
    for j in range(1, jmax + 1):
        if mu[j] == 0:
            continue
        nj, mj = spec.side_floors(j)
        prod = 1
        for f in (mj if inner else nj):
            prod *= f
        total += mu[j] * prod
    return total


def qbox_count(spec: QBoxSpec) -> int:
    """|Q(R)| = (outer box count) - (inner box count)."""
    return _generalized_sieve(spec, inner=False) - _generalized_sieve(spec, inner=True)


def qbox_main_term(spec: QBoxSpec) -> float:
    k = spec.field.degree
    R = float(spec.R)
    norm = spec.field.basis_norm()
    return 2 ** k * R ** (k + 1) / ((k + 1) ** (k + 1) * norm * zeta(k + 1))


def _qbox_members(spec: QBoxSpec):
    """Enumerate the (a..., b) tuples of the box difference."""
    n, m = spec.side_floors(1)
    k = spec.field.degree
    b_lo, b_hi = m[-1] + 1, n[-1]
    if k == 1:
        for b in range(b_lo, b_hi + 1):
            for a in range(1, n[0] + 1):
                if gcd(a, b) == 1:
                    yield (a, b)
        return
    for b in range(b_lo, b_hi + 1):
        for a1 in range(1, n[0] + 1):
            g1 = gcd(a1, b)
            for a2 in range(1, n[1] + 1):
                if gcd(g1, a2) == 1:
                    yield (a1, a2, b)


def qbox(spec: QBoxSpec, sample_cap: int = 200_000, seed: int = 0) -> dict:
    """Count the box difference and verify, element by element (or on a
    random sample above ``sample_cap``), that every member lies in B(R)
    and in [-2, 2] exactly."""
    count = qbox_count(spec)
    main = qbox_main_term(spec)
    F = spec.R.numerator // spec.R.denominator
    checked = 0
    violations = 0
    rng = random.Random(seed)
    keep_all = count <= sample_cap
    keep_prob = 1.0 if keep_all else sample_cap / max(count, 1)
    for tup in _qbox_members(spec):
        if not keep_all and rng.random() > keep_prob:
            continue
        checked += 1
        *nums, b = tup
        if max(*nums, b) > F:
            violations += 1
            continue
        if spec.field.degree == 1:
            x = Fraction(nums[0], b)
        else:
            x = QuadElem(nums[0], nums[1], b, spec.field.d)
        if not in_interval(x, -2, 2):
            violations += 1
    return {
        "field": spec.field.label(),
        "d": spec.field.d,
        "R": str(spec.R),
        "count": count,
        "main_term": main,
        "ratio": count / main if main else float("nan"),
        "members_checked": checked,
        "membership_violations": violations,
        "exhaustive": keep_all,
    }

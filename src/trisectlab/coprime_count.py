"""Counting relatively prime k-tuples in boxes with real side lengths, and
:func:`mobius_sum`, the one Moebius counter behind every exact count.

Box sides are exact rationals, so floors never inherit float fuzz.  An
enumeration oracle, eccentricity and error budgets, and a zeta with a
rigorous tail bound complete the toolkit; :func:`lehmer_report`
assembles them into one record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import BadParameters, CapExceeded, int_text


def _to_fraction(x) -> Fraction:
    if isinstance(x, float):
        # accept floats through their shortest decimal repr, not their
        # binary expansion
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class Box:
    """k-tuple of side lengths n_i >= 1, k >= 2, stored exactly."""

    sides: tuple[Fraction, ...]

    def __init__(self, sides):
        sides = tuple(_to_fraction(s) for s in sides)
        if len(sides) < 2:
            raise BadParameters("a box needs at least two sides")
        if any(s < 1 for s in sides):
            raise BadParameters("all sides must be >= 1")
        object.__setattr__(self, "sides", sides)

    @property
    def k(self) -> int:
        return len(self.sides)

    def floors(self) -> tuple[int, ...]:
        return tuple(s.numerator // s.denominator for s in self.sides)


@dataclass(frozen=True)
class CountReport:
    """Exact count of coprime tuples together with the analytic main term
    n_1*...*n_k / zeta(k), the signed error, the error budget f_k(n), and
    the box eccentricity."""

    box: Box
    count: int
    main_term: float
    error: float
    error_bound_ref: float
    eccentricity: float

    def to_dict(self) -> dict:
        return {
            "k": self.box.k,
            "sides": [str(s) for s in self.box.sides],
            "count": self.count,
            "main_term": self.main_term,
            "error": self.error,
            "error_bound_ref": self.error_bound_ref,
            "eccentricity": self.eccentricity,
        }

    def csv_row(self) -> list:
        return (
            [self.box.k]
            + [str(s) for s in self.box.sides]
            + [self.count, self.main_term, self.error, self.error_bound_ref, self.eccentricity]
        )


# Largest Moebius sieve of one count (about 9 bytes an entry; the Mertens
# recursion covers the rest), and most quotient blocks one count may have.
SIEVE_MAX = 1 << 23
MAX_BLOCKS = 1 << 22


def _mobius_sieve(n: int) -> np.ndarray:
    """mu(0..n) as int8: each prime p <= sqrt(n) flips the sign of its
    multiples, zeroes those of p^2 and is divided out of them once, which
    leaves a squarefree m at most one prime above sqrt(n) to flip for."""
    mu = np.ones(n + 1, dtype=np.int8)
    rest = np.arange(n + 1, dtype=np.int32)
    for p in range(2, isqrt(n) + 1):
        if rest[p] == p:  # p is prime
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
            rest[p::p] //= p
    mu[rest > 1] *= -1
    mu[0] = 0
    return mu


def _mertens(xs: np.ndarray) -> np.ndarray:
    """M(x) = mu(1) + ... + mu(x) at each x of the sorted array xs, which
    must hold floor(x/k) wherever that passes the sieve limit, about
    max(xs)^(2/3).  Above it M(x) = 1 - sum_{k=2}^{x} M(floor(x/k)): k up to
    s = isqrt(x) one by one, larger k grouped by quotient q <= x/(s+1)."""
    top = int(xs[-1])
    limit = max(isqrt(top), min(int(top ** (2 / 3)), SIEVE_MAX))
    small = np.cumsum(_mobius_sieve(limit), dtype=np.int32)
    big = {}
    large = xs[xs > limit].tolist()
    for x in large:
        s = isqrt(x)
        split = x // (limit + 1)  # floor(x/k) passes the limit for k <= split
        ks = np.arange(max(2, split + 1), s + 1, dtype=np.int64)
        qs = np.arange(1, x // (s + 1) + 1, dtype=np.int64)
        runs = x // qs - x // (qs + 1)  # the k with quotient q, all > s
        big[x] = (1 - sum(big[x // k] for k in range(2, split + 1))
                  - int(small[x // ks].sum()) - int(runs @ small[qs]))
    out = small[np.minimum(xs, limit)]
    out[xs > limit] = [big[x] for x in large]
    return out


def mobius_blocks(*ns) -> tuple[np.ndarray, np.ndarray]:
    """The live blocks of sum_{e=1}^{min ns} mu(e) * L(floor(n_1/e), ...):
    arrays of the first e of each block (int64) and of its weight
    M(end) - M(start - 1), M the Mertens function of :func:`_mertens`
    (Deleglise and Rivat), blocks of weight 0 left out.

    The quotients are constant on blocks of e ending at the floor
    quotients of the n_i.  About 2*sqrt(n) blocks per distinct n; past
    ``MAX_BLOCKS``, ``CapExceeded`` up front.
    """
    m = min(ns)
    if m < 1:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # the floor quotients of n are every v <= isqrt(n) and n // k for
    # k <= isqrt(n); those <= m start at k = n // (m + 1) + 1
    spans = [(n, isqrt(n), n // (m + 1) + 1) for n in set(ns)]
    blocks = sum(min(s, m) + max(0, s - k0 + 1) for _, s, k0 in spans)
    if blocks > MAX_BLOCKS:
        raise CapExceeded(f"{int_text(blocks)} quotient blocks exceed the cap {MAX_BLOCKS}")
    ends = [np.arange(1, min(s, m) + 1, dtype=np.int64) for _, s, _ in spans]
    ends += [n // np.arange(k0, s + 1, dtype=np.int64) for n, s, k0 in spans if k0 <= s]
    ends = np.sort(np.concatenate(ends))  # a repeated end gets weight 0
    weights = np.diff(_mertens(ends), prepend=0)
    live = weights != 0
    return np.concatenate(([1], ends[:-1] + 1))[live], weights[live]


def mobius_sum(ns, L) -> int:
    """sum_{e=1}^{min ns} mu(e) * L(floor(n_1/e), ..., floor(n_k/e)), exact,
    over the blocks of :func:`mobius_blocks`.  L gets one object array of
    Python ints per n_i, its quotient at each block of nonzero weight, and
    returns their values; it is not called when min ns < 1."""
    starts, weights = mobius_blocks(*ns)
    if not len(starts):
        return 0
    starts = starts.astype(object)
    values = L(*(n // starts for n in ns))
    return int(np.dot(weights.astype(object), np.asarray(values, dtype=object)))


def sieve_count(box: Box) -> int:
    """Exact number of coprime k-tuples of positive integers in the box."""
    return mobius_sum(box.floors(), lambda *quotients: math.prod(quotients))


# Largest floored box volume :func:`brute_count` enumerates, and most tuples
# per block of its gcd grid, which bounds its memory whatever the volume.
BRUTE_MAX_VOLUME = 10 ** 8
BRUTE_BLOCK = 1 << 16


def brute_count(box: Box) -> int:
    """Oracle: direct enumeration with a k-ary gcd test, by
    :func:`_brute_grid` over the box's floors."""
    return _brute_grid(box.floors())


def _brute_grid(floors: tuple[int, ...]) -> int:
    """#{a in [1, f_1] x ... x [1, f_k] : gcd(a) = 1}: every tuple, in
    row-major order over consecutive blocks of at most ``BRUTE_BLOCK``, its
    coordinates unravelled from the flat index and gcd-reduced on int64
    arrays.  A floored volume above ``BRUTE_MAX_VOLUME`` raises
    ``CapExceeded`` before any array is built."""
    volume = math.prod(floors)
    if volume > BRUTE_MAX_VOLUME:
        raise CapExceeded(f"brute-force volume {int_text(volume)} exceeds cap {BRUTE_MAX_VOLUME}")
    total = 0
    for start in range(0, volume, BRUTE_BLOCK):
        rest = np.arange(start, min(start + BRUTE_BLOCK, volume), dtype=np.int64)
        g = np.zeros_like(rest)
        for f in reversed(floors):
            rest, a = np.divmod(rest, f)
            g = np.gcd(g, a + 1)
        total += int(np.count_nonzero(g == 1))
    return total


def eccentricity(box: Box) -> Fraction:
    """Largest side over smallest side, exactly."""
    return max(box.sides) / min(box.sides)


def error_term_budget(box: Box) -> float:
    """f_k(n): gamma*ln(gamma) for k = 2, gamma^(k-1) otherwise, with
    gamma the geometric mean of the sides."""
    gamma = math.prod(float(s) for s in box.sides) ** (1.0 / box.k)
    if box.k == 2:
        return gamma * math.log(gamma)
    return gamma ** (box.k - 1)


# B_2, B_4, ..., B_12: the Bernoulli numbers of the Euler-Maclaurin tail.
_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
              Fraction(5, 66), Fraction(-691, 2730))
# zeta's bracket always shrinks below 1/256 of the float spacing on [1, 2),
# which holds every zeta(k): the result is correctly rounded unless zeta(k)
# lies that close to a rounding boundary.
_FLOAT_HALF_WIDTH = Fraction(1, 2 ** 60)


def zeta(k: int) -> float:
    """zeta(k) by Euler-Maclaurin in exact rationals: the partial
    sum to N - 1, the tail integral N^(1-k)/(k-1), N^(-k)/2 and the
    Bernoulli terms T_j = B_2j/(2j)! * k(k+1)...(k+2j-2) * N^(1-k-2j) for
    j = 1..5.  As x^(-k) is completely monotone, the remainder lies between
    0 and T_6; the returned value is the midpoint of that rigorous bracket,
    rounded once to a float, and N doubles until its half-width |T_6|/2 is
    at most ``_FLOAT_HALF_WIDTH``."""
    if k < 2:
        raise BadParameters("zeta requires k >= 2")

    def bernoulli_term(j: int, n: int) -> Fraction:
        rising = math.prod(range(k, k + 2 * j - 1))
        return _BERNOULLI[j - 1] * rising / (math.factorial(2 * j) * n ** (k + 2 * j - 1))

    n = 8
    while abs(bernoulli_term(6, n)) / 2 > _FLOAT_HALF_WIDTH:
        n *= 2
    total = sum(Fraction(1, i ** k) for i in range(1, n))
    total += Fraction(1, (k - 1) * n ** (k - 1)) + Fraction(1, 2 * n ** k)
    total += sum(bernoulli_term(j, n) for j in range(1, 6)) + bernoulli_term(6, n) / 2
    return float(total)


def lehmer_report(box: Box) -> CountReport:
    """Exact count, analytic main term, signed error, error budget, and
    eccentricity for one box."""
    count = sieve_count(box)
    main = math.prod(float(s) for s in box.sides) / zeta(box.k)
    return CountReport(
        box=box,
        count=count,
        main_term=main,
        error=count - main,
        error_bound_ref=error_term_budget(box),
        eccentricity=float(eccentricity(box)),
    )

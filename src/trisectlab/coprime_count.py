"""Counting relatively prime k-tuples in boxes with real side lengths, and
:func:`mobius_sum`, the one Moebius counter behind every exact count.

Box sides are exact rationals, so floors never inherit float fuzz.  An
enumeration oracle, eccentricity and error budgets, and a zeta with a
rigorous tail bound complete the toolkit; :func:`lehmer_report`
assembles them into one record.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import BadParameters, CapExceeded, int_text
from .polyalg import primes_below


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


# Quotient blocks one count may have (about 2*sqrt(n) per distinct n); past
# them ``CapExceeded`` before any sieving.
MAX_BLOCKS = 1 << 22
# The Mertens table M(0..L) grows by doubling from L = MOBIUS_TABLE_MIN to at
# most MOBIUS_TABLE_MAX (int32, 8 MB), which covers isqrt(n) for every n that
# MAX_BLOCKS admits.  Past the table mu is sieved in segments of
# MOBIUS_SEGMENT entries, and the ragged sums of the recursion (and of the
# quadratic interval count) run over groups of at most MOBIUS_CHUNK terms,
# so memory is bounded whatever the argument.
MOBIUS_TABLE_MIN = 1 << 10
MOBIUS_TABLE_MAX = 1 << 21
MOBIUS_SEGMENT = 1 << 19
MOBIUS_CHUNK = 1 << 13
# Every segment starts from a copy of the signed products of the primes
# through 7, which repeat with period 210.
_WHEEL_PRIMES = (2, 3, 5, 7)
_WHEEL = math.prod(_WHEEL_PRIMES)

_MOBIUS_CACHE = np.zeros(1, dtype=np.int32)  # M(0..L), grown by mobius_table


def _mobius_segment(lo: int, hi: int, primes: tuple[int, ...], wheel: np.ndarray) -> np.ndarray:
    """mu(lo..hi-1) as int8, for 1 <= lo < hi <= 2^31, given the primes
    ascending through isqrt(hi - 1) and the signed wheel products of
    :func:`_mertens_segments`.  Each prime p multiplies -p into the
    products of its multiples and 0 into those of p^2, so the product of m
    is 0 when m is not squarefree, else +-(its prime factors below
    sqrt(hi - 1)) <= m with the sign of mu over them.  A squarefree m whose
    product falls short of m has exactly one prime factor left, above
    sqrt(hi - 1), and one more sign flip; when lo^2 >= hi - 1 the shortfall
    puts the product below sqrt(hi - 1) <= lo.  No division."""
    start = lo % _WHEEL
    prod = wheel[start : start + hi - lo].copy()
    for p in primes:
        if p * p >= hi:
            break
        if p > _WHEEL_PRIMES[-1]:
            prod[-lo % p :: p] *= -p
        prod[-lo % (p * p) :: p * p] = 0
    mu = np.sign(prod, out=np.empty(hi - lo, dtype=np.int8), casting="unsafe")
    size = np.abs(prod, out=prod)
    short = size < lo if lo * lo >= hi - 1 else size != np.arange(lo, hi, dtype=np.int32)
    mu *= 1 - 2 * short.view(np.int8)
    return mu


def _mertens_segments(lo: int, hi: int, start: int):
    """Yield (a, M(a..b-1) as int32) for consecutive segments [a, b) of at
    most ``MOBIUS_SEGMENT`` covering [lo, hi), 1 <= lo, from start = M(lo - 1)."""
    if lo >= hi:
        return
    primes = primes_below(isqrt(hi - 1) + 1)
    wheel = np.ones(min(MOBIUS_SEGMENT, hi - lo) + _WHEEL, dtype=np.int32)
    for p in _WHEEL_PRIMES:
        wheel[::p] *= -p
    for a in range(lo, hi, MOBIUS_SEGMENT):
        b = min(a + MOBIUS_SEGMENT, hi)
        m = np.cumsum(_mobius_segment(a, b, primes, wheel), dtype=np.int32)
        m += start
        start = int(m[-1])
        yield a, m


def mobius_table(limit: int) -> np.ndarray:
    """``_MOBIUS_CACHE``, the process-wide table M(0..L), first grown to the
    least L = MOBIUS_TABLE_MIN * 2^j >= limit, at most ``MOBIUS_TABLE_MAX``;
    a growth sieves only the new range."""
    global _MOBIUS_CACHE
    old = len(_MOBIUS_CACHE) - 1
    new = min(max(MOBIUS_TABLE_MIN, 1 << (limit - 1).bit_length()), MOBIUS_TABLE_MAX)
    if new > old:
        table = np.empty(new + 1, dtype=np.int32)
        table[: old + 1] = _MOBIUS_CACHE
        for a, m in _mertens_segments(old + 1, new + 1, int(table[old])):
            table[a : a + len(m)] = m
        _MOBIUS_CACHE = table
    return _MOBIUS_CACHE


def ragged_sums(x: np.ndarray, first: np.ndarray, count: np.ndarray, term) -> np.ndarray:
    """sum_{j < count_i} term(x_i, first_i + j) for each row i of the arrays
    x, first and count (first and count int64), exact, as an object array
    of Python ints; term maps flat arrays (x repeated, k as int64) to int64
    values whose sum over any ``MOBIUS_CHUNK`` of them stays in int64.
    Rows are cut into pieces of at most ``MOBIUS_CHUNK`` terms, and the
    pieces that start in one window of that many terms form a group: one
    flat evaluation and one ``np.add.reduceat`` per group."""
    out = np.zeros(len(x), dtype=object)
    pieces = -(-count // MOBIUS_CHUNK)
    row = np.repeat(np.arange(len(x)), pieces)
    j = np.arange(len(row)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    first = first[row] + j * MOBIUS_CHUNK
    count = np.minimum(count[row] - j * MOBIUS_CHUNK, MOBIUS_CHUNK)
    ends = np.cumsum(count)
    g = 0
    while g < len(row):
        h = int(np.searchsorted(ends, ends[g] - count[g] + MOBIUS_CHUNK, side="right"))
        n = count[g:h]
        offsets = np.cumsum(n) - n
        k = np.arange(int(offsets[-1] + n[-1])) + np.repeat(first[g:h] - offsets, n)
        sums = np.add.reduceat(term(np.repeat(x[row[g:h]], n), k), offsets, dtype=np.int64)
        np.add.at(out, row[g:h], sums.astype(object))
        g = h
    return out


def _floor_div(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """floor(x/k) for float64 x < 2^52 holding integers and k >= 1: a
    correctly rounded x/k stays below the next integer, at least 1/k away."""
    return (x / k).astype(np.int64)


def _mertens(xs: np.ndarray) -> np.ndarray:
    """M(x) = mu(1) + ... + mu(x) at each x of the sorted int64 array xs,
    after Deleglise and Rivat.  Let top be the largest x, u the larger of
    floor(top^(2/3)) and L, where M(0..L) is the table of
    :func:`mobius_table` grown towards u.  x <= L is read from the table,
    x in (L, u] from the segments of :func:`_mertens_segments`, and x > u
    from M(x) = 1 - sum_{k=2}^{x} M(floor(x/k)), in ascending x over the
    closure C of the large x, every floor(x/k) > u.  With s = isqrt(x),
    split = floor(x/(u+1)) and Q = floor(x/(s+1)) <= s, the sum takes
    k <= split from C, the k in (split, s] one by one from the segments
    (quotients above L) and the table, and the k > s grouped by quotient
    q <= Q, floor(x/q) - floor(x/(q+1)) values of k each, which by partial
    summation is sum_{q<=Q} mu(q)*floor(x/q) - M(Q)*floor(x/(Q+1)) over the
    squarefree q of the table.  Past isqrt(top) > ``MOBIUS_TABLE_MAX``,
    ``CapExceeded``."""
    top = int(xs[-1])
    if isqrt(top) > MOBIUS_TABLE_MAX:
        raise CapExceeded(f"M({int_text(top)}) needs a Mertens table past {MOBIUS_TABLE_MAX}")
    u = max(isqrt(top), int(top ** (2 / 3)))
    table = mobius_table(min(u, MOBIUS_TABLE_MAX))
    L = len(table) - 1
    if top <= L:
        return table[xs].astype(np.int64)
    u = max(u, L)
    out = np.empty(len(xs), dtype=np.int64)
    small, mid = np.searchsorted(xs, (L, u), side="right")
    out[:small] = table[xs[:small]]

    large = xs[mid:]
    split = large // (u + 1)
    k = np.arange(int(split.sum())) - np.repeat(np.cumsum(split) - split - 1, split)
    C = np.sort(np.repeat(large, split) // k)
    C = C[np.diff(C, prepend=0) != 0]
    split = C // (u + 1)
    s = np.array([isqrt(x) for x in C.tolist()], dtype=np.int64)
    Q = C // (s + 1)
    low = C // (L + 1)  # k > low puts floor(x/k) in the table
    mu = np.diff(table[: int(Q.max(initial=0)) + 1], prepend=0)
    squarefree = np.flatnonzero(mu)
    sign = mu[squarefree].astype(np.float64)
    squarefree = squarefree.astype(np.float64)
    del mu
    count = np.searchsorted(squarefree, Q, side="right").tolist()
    rest = -table[Q] * (C // (Q + 1))
    for i, (x, k0, k1) in enumerate(zip(C.tolist(), (low + 1).tolist(), (s + 1).tolist())):
        for a in range(k0, k1, MOBIUS_CHUNK):
            k = np.arange(a, min(a + MOBIUS_CHUNK, k1), dtype=np.float64)
            rest[i] += int(table[_floor_div(x, k)].sum())
        for a in range(0, count[i], MOBIUS_CHUNK):  # every partial sum below 2^53: exact
            b = min(a + MOBIUS_CHUNK, count[i])
            rest[i] += int(np.dot(sign[a:b], np.floor(x / squarefree[a:b])))
    Cf = C.astype(np.float64)
    for a, m in _mertens_segments(L + 1, u + 1, int(table[L])):
        b = a + len(m)
        i, j = np.searchsorted(xs, (a, b))
        out[i:j] = m[xs[i:j] - a]
        kb, ke = np.maximum(split, C // b), np.minimum(s, C // a)
        rest = rest + ragged_sums(Cf, kb + 1, np.maximum(ke - kb, 0),
                                  lambda x, k: m[_floor_div(x, k) - a])
    big = {}
    for x, r, k in zip(C.tolist(), rest.tolist(), split.tolist()):
        big[x] = 1 - r - sum(big[x // j] for j in range(2, k + 1))
    out[mid:] = [big[x] for x in large.tolist()]
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
    # 0, every v <= min(isqrt(n), m) of any n, then every n // k; a
    # repeated end gets weight 0
    top = min(max(s for _, s, _ in spans), m)
    ends = np.empty(top + 1 + sum(max(0, s - k0 + 1) for _, s, k0 in spans), dtype=np.int64)
    ends[: top + 1] = np.arange(top + 1)
    i = top + 1
    for n, s, k0 in spans:
        if k0 <= s:
            np.floor_divide(n, np.arange(k0, s + 1, dtype=np.int64), out=ends[i : i + s - k0 + 1])
            i += s - k0 + 1
    ends.sort()
    M = _mertens(ends)
    weights = M[1:] - M[:-1]
    live = np.flatnonzero(weights)
    starts = ends[live]
    starts += 1
    return starts, weights[live]


def mobius_sum(ns, L) -> int:
    """sum_{e=1}^{min ns} mu(e) * L(floor(n_1/e), ..., floor(n_k/e)), exact,
    over the blocks of :func:`mobius_blocks`, ``MOBIUS_CHUNK`` blocks at a
    time.  L gets one object array of Python ints per n_i, its quotient at
    each block of the slice, and returns their values; it is not called
    when min ns < 1."""
    starts, weights = mobius_blocks(*ns)
    total = 0
    for i in range(0, len(starts), MOBIUS_CHUNK):
        e = starts[i : i + MOBIUS_CHUNK].astype(object)
        values = np.asarray(L(*(n // e for n in ns)), dtype=object).tolist()
        total += sum(map(operator.mul, weights[i : i + MOBIUS_CHUNK].tolist(), values))
    return total


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
    """#{a in [1, f_1] x ... x [1, f_k] : gcd(a) = 1}: every tuple
    gcd-reduced on int32 arrays of at most ``BRUTE_BLOCK`` tuples.  The
    longest run of trailing axes whose volume fits a block is one gcd grid,
    built by broadcasting their ranges; the axis before it goes in chunks
    of whole grids, and the axes before that one tuple at a time, as the
    scalar gcd that seeds each chunk.  A floored volume above
    ``BRUTE_MAX_VOLUME`` raises ``CapExceeded`` before any array is
    built; below it every coordinate fits int32, whose gcd is faster than
    int64's."""
    volume = math.prod(floors)
    if volume > BRUTE_MAX_VOLUME:
        raise CapExceeded(f"brute-force volume {int_text(volume)} exceeds cap {BRUTE_MAX_VOLUME}")
    if not volume:
        return 0
    s = 0
    while math.prod(floors[s + 1 :]) > BRUTE_BLOCK:
        s += 1
    grid = np.zeros(1, dtype=np.int32)  # gcd() = 0
    for f in floors[s + 1 :]:
        grid = np.gcd.outer(grid, np.arange(1, f + 1, dtype=np.int32)).ravel()
    chunk = BRUTE_BLOCK // len(grid)
    total = 0
    for lead in itertools.product(*(range(1, f + 1) for f in floors[:s])):
        seed = math.gcd(*lead)
        for lo in range(1, floors[s] + 1, chunk):
            head = np.gcd(seed, np.arange(lo, min(lo + chunk, floors[s] + 1), dtype=np.int32))
            total += int(np.count_nonzero(np.gcd.outer(head, grid) == 1))
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

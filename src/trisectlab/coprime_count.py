"""Counting relatively prime k-tuples in boxes with real side lengths.

The exact count over a box with sides n_1, ..., n_k (each >= 1, stored as
exact rationals so floors never inherit float fuzz) is the Moebius sum
sum_j mu(j) * prod_i floor(n_i / j), truncated at the smallest floored
side.  A direct enumeration oracle, the eccentricity and error-budget
functions, and a zeta evaluator with a rigorous tail bound complete the
toolkit; :func:`lehmer_report` assembles them into one record.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadParameters, CapExceeded


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


def mobius(j: int) -> int:
    """mu(j) by trial-division factorization."""
    if j < 1:
        raise BadParameters("mobius needs j >= 1")
    out = 1
    n = j
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1 if p == 2 else 2
    if n > 1:
        out = -out
    return out


_MOBIUS_CACHE: list[int] = [0, 1]


def mobius_table(n: int) -> list[int]:
    """mu(0..n) via a sieve, memoized across calls (density experiments
    hit this in a loop)."""
    global _MOBIUS_CACHE
    if n < len(_MOBIUS_CACHE):
        return _MOBIUS_CACHE
    size = max(n + 1, 2 * len(_MOBIUS_CACHE))
    mu = np.ones(size, dtype=np.int64)
    primes_mask = np.ones(size, dtype=bool)
    primes_mask[:2] = False
    for p in range(2, size):
        if primes_mask[p]:
            primes_mask[p * p :: p] = False
            mu[p::p] *= -1
            sq = p * p
            if sq < size:
                mu[sq::sq] = 0
    mu[0] = 0
    _MOBIUS_CACHE = mu.tolist()
    return _MOBIUS_CACHE


def sieve_count(box: Box) -> int:
    """Exact number of coprime k-tuples of positive integers inside the
    box, by the Moebius sum over j up to the smallest floored side."""
    floors = box.floors()
    jmax = min(floors)
    if jmax < 1:
        return 0
    mu = mobius_table(jmax)
    nums = [s.numerator for s in box.sides]
    dens = [s.denominator for s in box.sides]
    total = 0
    for j in range(1, jmax + 1):
        m = mu[j]
        if m == 0:
            continue
        prod = 1
        for p, q in zip(nums, dens):
            prod *= p // (q * j)
            if prod == 0:
                break
        total += m * prod
    return total


def brute_count(box: Box, cap: int = 10 ** 8) -> int:
    """Oracle: direct enumeration with a k-ary gcd test.  Refuses boxes
    whose floored volume exceeds ``cap``."""
    floors = box.floors()
    volume = 1
    for f in floors:
        volume *= f
    if volume > cap:
        raise CapExceeded(f"brute-force volume {volume} exceeds cap {cap}")
    if min(floors) < 1:
        return 0

    def rec(idx: int, g: int) -> int:
        if g == 1:
            prod = 1
            for f in floors[idx:]:
                prod *= f
            return prod
        if idx == len(floors):
            return 1 if g == 1 else 0
        total = 0
        for a in range(1, floors[idx] + 1):
            total += rec(idx + 1, math.gcd(g, a))
        return total

    return rec(0, 0)


def coprime_count_table(floors: tuple[int, ...]) -> np.ndarray:
    """Counts of coprime tuples for every integer sub-box at once: entry
    [m1-1, ..., mk-1] is the count for the box (m1, ..., mk).

    Enumerates the full grid with vectorized gcds, then accumulates; this
    is the enumeration oracle shared across all sub-boxes.
    """
    grids = np.ix_(*(np.arange(1, f + 1, dtype=np.int64) for f in floors))
    g = grids[0]
    for axis in grids[1:]:
        g = np.gcd(g, axis)
    table = (g == 1).astype(np.int64)
    for axis in range(len(floors)):
        np.cumsum(table, axis=axis, out=table)
    return table


def sieve_count_table(floors: tuple[int, ...]) -> np.ndarray:
    """Moebius-sum counts for every integer sub-box at once; same layout
    as :func:`coprime_count_table`."""
    jmax = min(floors)
    mu = mobius_table(jmax)
    shape = tuple(floors)
    table = np.zeros(shape, dtype=np.int64)
    for j in range(1, jmax + 1):
        if mu[j] == 0:
            continue
        vecs = np.ix_(*(np.arange(1, f + 1, dtype=np.int64) // j for f in floors))
        prod = vecs[0].copy()
        for axis in vecs[1:]:
            prod = prod * axis
        table += mu[j] * prod
    return table


def eccentricity(box: Box) -> Fraction:
    """Largest side over smallest side, exactly."""
    return max(box.sides) / min(box.sides)


def geometric_mean(box: Box) -> float:
    prod = 1.0
    for s in box.sides:
        prod *= float(s)
    return prod ** (1.0 / box.k)


def error_term_budget(box: Box) -> float:
    """f_k(n): gamma*ln(gamma) for k = 2, gamma^(k-1) otherwise, with
    gamma the geometric mean of the sides."""
    gamma = geometric_mean(box)
    if box.k == 2:
        return gamma * math.log(gamma)
    return gamma ** (box.k - 1)


@functools.lru_cache(maxsize=32)
def zeta(k: int, tol: float = 1e-12) -> float:
    """zeta(k) within tol: partial sums plus the integral tail bound
    N^(1-k)/(k-1); the returned value is the midpoint of the rigorous
    bracket.  Memoized (bounded): zeta(2) sums about 10^6 terms."""
    if k < 2:
        raise BadParameters("zeta requires k >= 2")
    if tol <= 0:
        raise BadParameters("tol must be positive")
    n = 2
    while True:
        # tail lies in [hi_tail(n+1), hi_tail(n)]
        lo = (n + 1) ** (1 - k) / (k - 1)
        hi = n ** (1 - k) / (k - 1)
        if (hi - lo) / 2 <= tol:
            break
        n *= 2
    partial = math.fsum(i ** (-float(k)) for i in range(1, n + 1))
    return partial + (lo + hi) / 2


def lehmer_report(box: Box) -> CountReport:
    """Exact count, analytic main term, signed error, error budget, and
    eccentricity for one box."""
    count = sieve_count(box)
    main = 1.0
    for s in box.sides:
        main *= float(s)
    main /= zeta(box.k)
    return CountReport(
        box=box,
        count=count,
        main_term=main,
        error=count - main,
        error_bound_ref=error_term_budget(box),
        eccentricity=float(eccentricity(box)),
    )

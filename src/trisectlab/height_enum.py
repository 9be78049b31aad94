"""Enumeration and counting of height balls, the box construction that
certifies a lower bound for the in-interval count, and the density
experiment that runs on them.

A height ball B(R) over a field is the finite set of canonical elements of
height at most R.  Enumeration is lexicographic in (b, a1[, a2]) so streams
are reproducible.  One numpy row-block kernel, :func:`_row_blocks`, serves
the streams, the density numerator (on the rows of the denominators b it
is given) and the height comparison: int64 arrays (b, a1, a_lo, a_hi, g)
per block of rows, so memory per block is bounded whatever the height.  Its
interval clip is exact integer arithmetic (a float square root corrected
by integer steps), and inputs whose clip terms could pass 2^62 are refused
with ``CapExceeded`` up front: that is the kernel's int64 domain.
:func:`_expand_rows` turns rows into elements for the streams, and
:func:`count_elements` counts and checks them with no Python value built.
:func:`qbox` counts the certified sub-box by Moebius and proves it inside
B(R) ∩ [-2, 2] at its corner, since x grows in each numerator coordinate
and falls in the denominator: the sub-box lemma of Theorem 4.1's proof.
:func:`is_square` decides exactly, on int64 arrays, whether U + V*sqrt(d)
is a square in the field: the fibre weight of the density numerator.
:func:`verify_commensurability` compares the heights of two bases of
Q(sqrt(d)) on the element blocks.

The density experiment measures how quickly the accepted fraction of a
height ball decays as the height bound grows; it runs on int64 arrays,
block by block through the row-block kernel and the array image map
:func:`_images`, which checks the image-gcd lemma G | 8d on every element
(proved for every height by the ``gcd-bound`` certificate of
``trisect_core``).  It builds on the exact core of ``trisect_core``: its
image coordinates, integer cube root and preimage bound.

Counts never walk rows.  As x -> -x preserves B(R), every interval count
comes from the symmetric count S(t) = |B(R) ∩ [-t, t]|: (S(hi) + S(-lo))/2
when lo <= 0 <= hi, else (S(v) - S(u))/2 for the endpoints' absolute
values u <= v, plus 1 when u lies in B(R).  S(t) is the Moebius sum
sum_e mu(e) * L(floor(R/e)) of :func:`coprime_count.mobius_sum`, with L
the lattice points of the region at height N in closed form by floor sums;
a list of R evaluates L once per t, on the union of its live quotients.
The whole ball and the certified sub-box count the same way.  Everything
runs serially in one thread.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from . import coprime_count
from .coprime_count import mobius_blocks, mobius_sum, ragged_sums, zeta
from .errors import (BadParameters, CapExceeded, DegenerateBasis, GcdBoundViolated,
                     RadicandMismatch, ZeroDenominator, int_text)
from .exact_arith import FieldDescriptor, QuadElem, quad_from_canonical, quadratic_field, sign_lin
from .trisect_core import _image_coords, icbrt, preimage_bound

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
    """Exact |B(R)| by :func:`coprime_count.mobius_sum`: at height N there
    are N*(2N + 1)^k integer points with 1 <= b <= N, k the degree."""
    k = ball.field.degree
    return mobius_sum((ball.bound,), lambda N: N * (2 * N + 1) ** k)


# (row, coordinate) cells per block of the element streams: bounds a
# block's memory whatever the height.  The quadratic interval count slices
# its quotients, a2 table and cells, and qbox its draws, by
# ``coprime_count.MOBIUS_CHUNK``.
BLOCK_CELLS = 1 << 15
# Every intermediate of the kernel, of the quadratic count and of the image
# map stays below this, so int64 arithmetic is exact on the whole domain
# the guards admit.
INT64_SAFE = 1 << 62


def check_int64(bound: int, what: str) -> None:
    """Refuse with ``CapExceeded`` when ``bound`` (an upper bound on every
    magnitude a vectorized step forms) could pass ``INT64_SAFE``."""
    if bound > INT64_SAFE:
        raise CapExceeded(f"{what} exceeds the int64 kernel domain")


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(n)) for 0 <= n <= 2^62: a float first guess,
    then integer steps until r^2 <= n < (r+1)^2 holds exactly."""
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    while (over := r * r > n).any():
        r -= over
    while (under := (r + 1) * (r + 1) <= n).any():
        r += under
    return r


def _is_square_int(n: np.ndarray) -> np.ndarray:
    """Elementwise: n is the square of an integer, for |n| <= 2^62."""
    r = _isqrt(np.maximum(n, 0))
    return (n >= 0) & (r * r == n)


def is_square(U: np.ndarray, V: np.ndarray, d: int) -> np.ndarray:
    """Elementwise: U + V*sqrt(d) = (p + q*sqrt(d))^2 for some rationals
    p, q, exactly, over int64 arrays U, V and a squarefree d >= 1 (over Q,
    d = 1 and V = 0).

    With V = 0 one of p, q is 0, so U = p^2 or U = d*q^2, and p, q are
    integers (d is squarefree).  With V != 0 the norm gives n^2 = U^2 -
    d*V^2 for n = |p^2 - d*q^2|, and {4p^2, 4d*q^2} = {2(U + n), 2(U - n)},
    so 2p is an integer; conversely, an integer n with n^2 = U^2 - d*V^2
    and 2(U + n) = (2p)^2 (or 2(U - n) = (2p)^2) gives q = V/(2p) with
    p^2 + d*q^2 = U and 2pq = V.  U^2 is formed only where V != 0.
    Domain: U^2 + d*V^2 <= 2^62 where V != 0, |U| <= 2^62 elsewhere.
    """
    flat = V == 0
    square = flat & (_is_square_int(U) | ((U % d == 0) & _is_square_int(U // d)))
    U, V = U[~flat], V[~flat]
    norm = U * U - d * V * V
    n = _isqrt(np.maximum(norm, 0))
    square[~flat] = (n * n == norm) & (_is_square_int(2 * (U + n)) | _is_square_int(2 * (U - n)))
    return square


def _floor_sqrt_multiple(v: np.ndarray, d: int) -> np.ndarray:
    """Elementwise floor(v*sqrt(d)) for v*v*d <= 2^62, exact whether or not
    d is a perfect square: isqrt(v^2*d) for v >= 0, else
    -ceil(sqrt(v^2*d)) = -(isqrt(v^2*d - 1) + 1)."""
    r = _isqrt(v * v * d - (v < 0))
    return np.where(v >= 0, r, -r - 1)


def _row_blocks(ball: HeightBall, lo: Fraction | None, hi: Fraction | None, rows: int,
                denominators: np.ndarray | None = None):
    """The rows of B(R), or of B(R) ∩ [lo, hi] when an interval is given,
    as int64 arrays (b, a1, a_lo, a_hi, g) over consecutive blocks of at
    most ``rows`` rows in (b, a1) order: the one kernel behind both streams,
    the density numerator and ``verify_commensurability``, over the b of
    ``denominators`` (ascending int64, by default 1..floor(R)).

    A row (b, a1, a_lo, a_hi, g) stands for the elements whose last
    coordinate (a2 over Q(sqrt(d)), the numerator over Q) is an integer in
    [a_lo, a_hi] prime to g = gcd(a1, b); gcd(0, g) = g, so 0 belongs only
    when g = 1.  Q runs as the case d = 1 with a1 fixed at 0.  On a row
    lo*b <= a1 + a2*sqrt(d) <= hi*b, so with hi = p/q the upper end is
    a2 <= floor((p*b - q*a1)*sqrt(d)/(q*d)), which is
    _floor_sqrt_multiple(p*b - q*a1, d) // (q*d); the lower end is its
    mirror.  The clip is exact integer arithmetic.

    Domain: with F = floor(R), every clip term is at most (|p| + q)*F in
    magnitude, and an input whose ((|p| + q)*F)^2 * d, or whose row count,
    could pass 2^62 raises ``CapExceeded`` before any work.
    """
    F = ball.bound
    d = ball.field.d or 1
    width = 2 * F + 1 if d > 1 else 1
    check_int64(F * width, "row count")
    if lo is not None:
        for e in (lo, hi):
            check_int64((abs(e.numerator) + e.denominator) ** 2 * F * F * d, "interval clip")
    if denominators is None:
        denominators = np.arange(1, F + 1, dtype=np.int64)
    total = len(denominators) * width
    for start in range(0, total, rows):
        idx = np.arange(start, min(start + rows, total), dtype=np.int64)
        b, a1 = denominators[idx // width], idx % width - (F if d > 1 else 0)
        a_lo = np.full_like(b, -F)
        a_hi = np.full_like(b, F)
        if lo is not None:
            p, q = lo.numerator, lo.denominator
            a_lo = np.maximum(a_lo, -(_floor_sqrt_multiple(q * a1 - p * b, d) // (q * d)))
            p, q = hi.numerator, hi.denominator
            a_hi = np.minimum(a_hi, _floor_sqrt_multiple(p * b - q * a1, d) // (q * d))
        yield b, a1, a_lo, a_hi, np.gcd(a1, b)


def _expand_rows(b, a1, a_lo, a_hi, g):
    """The elements of rows (b, a1, a_lo, a_hi, g) as int64 arrays
    (b, a1, a), in row order and ascending a within a row: a ragged arange
    expands each row, and a is kept when gcd(a, g) = 1, which needs no
    test on the rows with g = 1."""
    n = np.maximum(a_hi - a_lo + 1, 0)
    row = np.repeat(np.arange(len(n)), n)
    a = np.arange(len(row), dtype=np.int64) - np.repeat(np.cumsum(n) - n, n) + a_lo[row]
    keep = np.ones(len(a), dtype=bool)
    test = g > 1
    tested = np.repeat(test, n)
    keep[tested] = np.gcd(np.repeat(g[test], n[test]), a[tested]) == 1
    row = row[keep]
    return b[row], a1[row], a[keep]


def element_blocks(ball: HeightBall, lo: Fraction | None = None, hi: Fraction | None = None,
                   denominators: np.ndarray | None = None):
    """The elements of the rows of :func:`_row_blocks` as int64 arrays
    (b, a1, a) per block, by :func:`_expand_rows`.  A block covers at most
    ``BLOCK_CELLS`` (row, coordinate) cells, or one row when a row is
    wider."""
    rows = max(1, BLOCK_CELLS // (2 * ball.bound + 1))
    for block in _row_blocks(ball, lo, hi, rows, denominators):
        yield _expand_rows(*block)


def _check_canonical(b: np.ndarray, a1: np.ndarray, a: np.ndarray) -> None:
    """Raise at the first element (a1 + a*sqrt(d))/b of a block that is not
    canonical what a direct ``QuadElem`` raises: ``ZeroDenominator`` when
    b < 1, ``ValueError`` when gcd(a1, a, b) > 1.  Over Q, where a1 = 0,
    this is the test that a/b is in lowest terms."""
    bad = np.flatnonzero((b <= 0) | (np.gcd(np.gcd(a1, a), b) != 1))
    if bad.size:
        i = bad[0]
        if b[i] <= 0:
            raise ZeroDenominator(f"denominator must be positive, got {b[i]}")
        raise ValueError(f"non-canonical triple ({a1[i]}, {a[i]}, {b[i]})")


def _stream(ball: HeightBall, lo: Fraction | None = None, hi: Fraction | None = None):
    """The elements of :func:`element_blocks` as Python values: each block
    passes :func:`_check_canonical` at once, and over Q(sqrt(d)), whose
    radicand the field checked, its elements are built by
    :func:`exact_arith.quad_from_canonical`."""
    d = ball.field.d
    for b, a1, a in element_blocks(ball, lo, hi):
        _check_canonical(b, a1, a)
        if d:
            for x1, x2, y in zip(a1.tolist(), a.tolist(), b.tolist()):
                yield quad_from_canonical(x1, x2, y, d)
        else:
            yield from map(Fraction, a.tolist(), b.tolist())


def _nonnegative(x: np.ndarray, y: np.ndarray, d: int) -> np.ndarray:
    """Elementwise x + y*sqrt(d) >= 0, exactly: t -> t*|t| is increasing,
    so x >= -y*sqrt(d) exactly when x*|x| + d*y*|y| >= 0."""
    return x * np.abs(x) + d * y * np.abs(y) >= 0


def _in_interval(x1: np.ndarray, x2: np.ndarray, b: np.ndarray, d: int,
                 lo: Fraction, hi: Fraction) -> np.ndarray:
    """Elementwise lo <= (x1 + x2*sqrt(d))/b <= hi, exactly (Q runs as
    d = 1 with x1 or x2 zero): with p/q an endpoint, (x1 + x2*sqrt(d))/b
    >= p/q when (q*x1 - p*b) + q*x2*sqrt(d) >= 0, as in
    :func:`exact_arith.in_interval`.  With F the largest |coordinate|, each
    term of :func:`_nonnegative` is at most (|p| + q)^2 * F^2 * d, within
    the kernel's clip domain of 2^62, and the two sum below 2^63 (d >= 2,
    or one of them is 0)."""
    p, q = lo.numerator, lo.denominator
    above = _nonnegative(q * x1 - p * b, q * x2, d)
    p, q = hi.numerator, hi.denominator
    return above & _nonnegative(p * b - q * x1, -q * x2, d)


def count_elements(ball: HeightBall, lo=None, hi=None) -> int:
    """|B(R)|, or |B(R) ∩ [lo, hi]| with an interval, as the sum of the
    block lengths of :func:`element_blocks`, building no Python value: the
    check of :func:`count_ball` and :func:`count_ball_interval` on the
    kernel.  Each block passes :func:`_check_canonical`, as in
    :func:`_stream`, and must lie in the ball (|a1|, |a|, b <= floor(R)),
    ascend strictly in (b, a1, a) across the whole stream, so that no
    element comes twice, and with an interval lie inside it by
    :func:`_in_interval`; a block failing one of these three raises
    ``AssertionError``.  So a count equal to the formula's proves the
    kernel yields the exact set.
    """
    if lo is not None:
        lo, hi = _interval(lo, hi)
    F, d = ball.bound, ball.field.d or 1
    total, last = 0, (0, 0, 0)  # b = 0 precedes every element
    for b, a1, a in element_blocks(ball, lo, hi):
        _check_canonical(b, a1, a)
        if not len(b):
            continue
        if max(b.max(), np.abs(a1).max(), np.abs(a).max()) > F:
            raise AssertionError(f"an element of the block is outside B({ball.R})")
        db, da1, da = b[1:] - b[:-1], a1[1:] - a1[:-1], a[1:] - a[:-1]
        first = (int(b[0]), int(a1[0]), int(a[0]))
        if not (first > last
                and ((db > 0) | (db == 0) & ((da1 > 0) | (da1 == 0) & (da > 0))).all()):
            raise AssertionError("elements out of (b, a1, a) order or repeated")
        if lo is not None and not _in_interval(a1, a, b, d, lo, hi).all():
            raise AssertionError(f"an element of the block is outside [{lo}, {hi}]")
        total += len(b)
        last = (int(b[-1]), int(a1[-1]), int(a[-1]))
    return total


def _basis_change_ints(w1: QuadElem, w2: QuadElem):
    """Integers (n11, n12, n21, n22, delta), delta > 0, such that
    x = x1 + x2*sqrt(d) has coordinates c_i = (n_i1*x1 + n_i2*x2) / delta
    in the basis {w1, w2}: Cramer's rule on w_i = (p_i + q_i*sqrt(d))/b_i."""
    if w1.d != w2.d:
        raise RadicandMismatch("basis vectors from different fields")
    det = w1.a1 * w2.a2 - w2.a1 * w1.a2
    if det == 0:
        raise DegenerateBasis("basis vectors are Q-linearly dependent")
    s = 1 if det > 0 else -1
    return s * w1.b * w2.a2, -s * w1.b * w2.a1, -s * w2.b * w1.a2, s * w2.b * w1.a1, abs(det)


# Largest height factor ``verify_commensurability`` reports as commensurate.
COMMENSURABILITY_CEILING = 1000


def verify_commensurability(d: int, alt_basis, R: int):
    """Exhaustively compare the standard height with the height in
    ``alt_basis`` over all elements of standard height <= R, on the int64
    blocks of :func:`element_blocks` (``CapExceeded`` past 2^62).

    Returns (factor, ok): the smallest integer D with h2/D <= h1 <= D*h2,
    the largest ceil(max(h1, h2)/min(h1, h2)), and whether D <=
    ``COMMENSURABILITY_CEILING``.
    """
    n11, n12, n21, n22, delta = _basis_change_ints(*alt_basis)
    check_int64(max(abs(n11) + abs(n12), abs(n21) + abs(n22), delta) * R, "basis change")
    factor = 1
    for b, a1, a2 in element_blocks(HeightBall(quadratic_field(d), R)):
        # x = (a1 + a2*sqrt(d))/b has coordinates u_i/(delta*b), delta > 0
        u1, u2, den = n11 * a1 + n12 * a2, n21 * a1 + n22 * a2, delta * b
        h1 = np.maximum(np.maximum(abs(a1), abs(a2)), b)
        h2 = np.maximum(np.maximum(abs(u1), abs(u2)), den) // np.gcd(np.gcd(u1, u2), den)
        ratio = -(-np.maximum(h1, h2) // np.minimum(h1, h2))
        factor = max(factor, int(ratio.max(initial=1)))
    return factor, factor <= COMMENSURABILITY_CEILING


def _interval(lo, hi) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise BadParameters("interval endpoints out of order")
    return lo, hi


def enumerate_ball(ball: HeightBall):
    """Yield every element of B(R) exactly once, lexicographic in
    (b, a1[, a2]); past ``DEFAULT_ENUM_CAP`` elements, ``CapExceeded``."""
    if count_ball(ball) > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"|B({ball.R})| exceeds cap {DEFAULT_ENUM_CAP}")
    yield from _stream(ball)


def enumerate_ball_interval(ball: HeightBall, lo, hi):
    """Yield the elements of B(R) lying in [lo, hi], in the same order as
    :func:`enumerate_ball`.

    Each row is clipped to the interval exactly before the gcd test, so
    membership needs no further check.  ``DEFAULT_ENUM_CAP`` bounds the
    exact interval count, which is counted only when the whole ball's
    count, its upper bound, passes the cap.
    """
    lo, hi = _interval(lo, hi)
    if count_ball(ball) > DEFAULT_ENUM_CAP and count_ball_interval(ball, lo, hi) > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"the interval count of B({ball.R}) exceeds cap {DEFAULT_ENUM_CAP}")
    yield from _stream(ball, lo, hi)


def _floor_sum(n, m: int, a: int, b):
    """sum_{i=0}^{n-1} floor((a*i + b)/m), elementwise over n >= 0 and
    0 <= b < m, for a >= 0 and m >= 1: the Euclidean reduction of the
    AtCoder Library's ``floor_sum``.  (m, a) take the same steps for every
    element, so there are O(log m) array steps; each term is part of the
    (nonnegative) answer."""
    total = 0
    while True:
        if a >= m:
            total = total + n * (n - 1) // 2 * (a // m)
            a %= m
        total = total + n * (b // m)
        b = b % m
        if a == 0:
            return total
        y = a * n + b
        n, b = y // m, y % m
        m, a = a, m


def _clipped_floor_sum(p: int, q: int, r, N):
    """sum_{b=1}^{N} clip(floor((p*b + r)/q), -N - 1, N), elementwise over
    arrays r and N (int64 or object) for q >= 1.  The summand is monotone
    in b (b -> N + 1 - b turns p < 0 round), so b splits into a run clipped
    at -N - 1, one :func:`_floor_sum` and a run clipped at N.  Magnitudes
    stay within 3*(N + 1)^2 and 2*(|p| + q)*(N + 2) + |r|."""
    if p < 0:
        p, r = -p, r + p * (N + 1)
    if p == 0:
        return N * np.minimum(np.maximum(r // q, -N - 1), N)
    low = np.minimum(np.maximum((-N * q - r - 1) // p, 0), N)  # b <= low: below -N
    high = np.minimum(np.maximum(((N + 1) * q - r - 1) // p, low), N)  # b > high: above N
    first = p * (low + 1) + r
    n = high - low
    return (-N - 1) * low + N * (N - high) + n * (first // q) + _floor_sum(n, q, p, first % q)


def count_ball_interval(ball: HeightBall, lo, hi) -> int:
    """Exact |B(R) ∩ [lo, hi]|: :func:`count_ball_intervals` at one R."""
    return count_ball_intervals(ball.field, (ball.R,), lo, hi)[0]


def count_ball_intervals(field: FieldDescriptor, R_list, lo, hi) -> list[int]:
    """Exact |B(R) ∩ [lo, hi]| for each R of ``R_list``, from the symmetric
    count S(t) = |B(R) ∩ [-t, t]|, t >= 0.  As x -> -x preserves B(R), with
    0 <= u <= v the endpoints' absolute values the count is
    (S(v) + S(u))/2 when lo <= 0 <= hi, else (S(v) - S(u))/2 plus 1 when
    u = p/q in lowest terms lies in B(R), that is max(p, q) <= floor(R).
    S is evaluated once per distinct |endpoint|.  An R below 1 has an empty
    ball.

    Each S(t) is sum_e mu(e) * L(floor(R/e)) over the live blocks of
    :func:`coprime_count.mobius_blocks`: L(N) counts all integer
    (a1, a2, b), 1 <= b <= N, |a1|, |a2| <= N, |a1 + a2*sqrt(d)| <= t*b
    (over Q, a2 = 0).  With t = p/q and a2 fixed, a1 runs from
    -floor((p*b + floor(q*a2*sqrt d))/q) to floor((p*b - ceil(q*a2*sqrt d))/q),
    as floor((n - s)/q) = floor((n - ceil s)/q) for integer n: two
    :func:`_clipped_floor_sum`.  For a2 != 0, q*a2*sqrt d is irrational,
    so its ceiling is its floor plus 1, and (a1, a2) -> (-a1, -a2) maps
    row a2 onto row -a2; so one table fl(a2) = floor(q*a2*sqrt d),
    a2 = 0..floor(R), serves L(N) = row(N, a2 = 0) + 2 * sum_{a2=1..N}
    row(N, a2), whose sum is empty over Q.

    L is evaluated once per t, on the union of the live quotients of every
    R of the list, in slices of ``coprime_count.MOBIUS_CHUNK`` quotients,
    and each R's S(t) is the sum over those slices of the dot product of
    its weights with its quotients' values.  The a2 = 0 row runs in int64,
    except over Q (which has no int64 guard) on the slices whose
    magnitudes could pass it, which run on Python ints.  The rows a2 >= 1
    of a slice are one :func:`coprime_count.ragged_sums`, exact per
    quotient.  Memory is the table plus one group of the kernel, and
    inputs that could pass 2^62 raise ``CapExceeded`` up front.
    """
    lo, hi = _interval(lo, hi)
    u, v = sorted((abs(lo), abs(hi)))
    bounds = [max(HeightBall(field, R).bound, 0) for R in R_list]
    F = max(bounds, default=0)
    d = field.d
    chunk = coprime_count.MOBIUS_CHUNK
    if d:
        for t in (u, v):
            p, q = t.numerator, t.denominator
            # a piece of the kernel sums at most chunk rows, each within
            # 3*(F + 1)^2; the guard asks for twice that, which keeps its
            # reach at F <= 9,686,329, where the cells take seconds
            check_int64(max(q * q * F * F * d, 2 * (p + q * (isqrt(d) + 2)) * (F + 2),
                            2 * chunk * 3 * (F + 1) ** 2), "interval count")
    blocks = [mobius_blocks(n) for n in bounds]
    quotients = [n // starts for n, (starts, _) in zip(bounds, blocks)]
    # every live quotient (all >= 1) of the list once, ascending; np.unique
    # would import numpy.ma
    Ns = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *quotients]))
    Ns = Ns[np.diff(Ns, prepend=0) != 0]
    # each R's positions in Ns, ascending, and its weights in that order
    places = [(np.searchsorted(Ns, quotient[::-1]), weights[::-1])
              for quotient, (_, weights) in zip(quotients, blocks)]

    def symmetric_counts(t: Fraction) -> list[int]:  # S(t) for every R of the list
        p, q = t.numerator, t.denominator

        def row(N, down, up):  # the points of L(N) at one a2: floor and -ceil of q*a2*sqrt d
            return N + _clipped_floor_sum(p, q, down, N) + _clipped_floor_sum(p, q, up, N)

        fl = np.empty(F + 1 if d else 0, dtype=np.int64)
        for i in range(0, len(fl), chunk):
            a2 = np.arange(i, min(i + chunk, len(fl)), dtype=np.int64)
            fl[i : i + chunk] = _floor_sqrt_multiple(q * a2, d)
        totals = [0] * len(places)
        for i in range(0, len(Ns), chunk):
            N = Ns[i : i + chunk]
            # the a2 = 0 row, within 7*(N + 1)^2 and 2*(p + q)*(N + 2); over Q
            # on Python ints once that could pass int64, from N of about 10^9
            top = int(N[-1])
            wide = not d and max(7 * (top + 1) ** 2, 2 * (p + q) * (top + 2)) > INT64_SAFE
            values = row(N.astype(object) if wide else N, 0, 0).astype(object)
            if d:
                values += 2 * ragged_sums(N, np.ones_like(N), N,
                                          lambda N, a2: row(N, fl[a2], -fl[a2] - 1))
            for slot, (at, weights) in enumerate(places):
                a, b = np.searchsorted(at, (i, i + chunk))
                totals[slot] += int(np.dot(weights[a:b].astype(object), values[at[a:b] - i]))
        return totals

    S = {t: symmetric_counts(t) for t in {u, v}}
    if lo <= 0 <= hi:
        return [(sv + su) // 2 for sv, su in zip(S[v], S[u])]
    return [(sv - su) // 2 + (max(u.numerator, u.denominator) <= n)
            for sv, su, n in zip(S[v], S[u], bounds)]


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

    def side_floors(self):
        """Floored sides (n, m) of the outer and inner boxes; the
        irrational side 2R/((k+1)sqrt(d)) floors exactly through isqrt."""
        k = self.field.degree
        R = self.R
        c = 2 * R / (k + 1)
        if k == 1:
            n = (math.floor(c), math.floor(R))
            return n, (n[0], math.floor(k * R / (k + 1)))
        d = self.field.d
        num, den = c.numerator, c.denominator
        # floor( (num/den) / sqrt(d) ) = floor(num*sqrt(d)) // (den*d)
        n = (math.floor(c), isqrt(num * num * d) // (den * d), math.floor(R))
        return n, (n[0], n[1], math.floor(k * R / (k + 1)))


def qbox_count(spec: QBoxSpec) -> int:
    """|Q(R)| = (outer box count) - (inner box count), over the side floors."""
    n, m = spec.side_floors()
    return mobius_sum(n, lambda *q: math.prod(q)) - mobius_sum(m, lambda *q: math.prod(q))


def qbox_main_term(spec: QBoxSpec) -> float:
    k = spec.field.degree
    R = float(spec.R)
    norm = spec.field.basis_norm()
    return 2 ** k * R ** (k + 1) / ((k + 1) ** (k + 1) * norm * zeta(k + 1))


# Most cells (integer points) of a box difference :func:`qbox` admits; past it,
# ``CapExceeded`` before any draw.  The cells bound the members qbox draws
# for: it admits Q(sqrt 2) to R = 1086 (133,926,968 cells) and Q to
# R = 16,384 (2^27 cells).  Past ``QBOX_SAMPLE_CAP`` members, the report
# counts a sample of them.
QBOX_MAX_CELLS = 1 << 27
QBOX_SAMPLE_CAP = 200_000


def _draws(rng: random.Random, n: int) -> np.ndarray:
    """The next n values of ``rng.random()`` as one array, leaving ``rng``
    in the same state.  ``random()`` is ((w0 >> 5)*2^26 + (w1 >> 6))/2^53
    for the next two 32-bit outputs w0, w1 of the generator, and
    ``getrandbits(64*n)`` holds the next 2n outputs as little-endian
    words, the first lowest."""
    if n == 0:
        return np.empty(0)
    w = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    return ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) / 9007199254740992.0


def qbox(spec: QBoxSpec, *, seed: int = 0) -> dict:
    """Count the box difference by :func:`qbox_count` and prove every
    member inside B(R) ∩ [-2, 2] by one exact test at its corner.

    The members are the coprime (a1, a2, b) with 1 <= a1 <= n_0,
    1 <= a2 <= n_1 and m_last < b <= n_last over Q(sqrt(d)), and the
    coprime (a1, b) with 1 <= a1 <= n_0 and the same b over Q, where
    a2 = 0.  Each coordinate is at most max(n), so every height is at most
    floor(R) when max(n) is.  x = (a1 + a2*sqrt(d))/b is positive, grows
    in a1 and a2 and falls in b, so every x is at most its value at the
    corner (a1, a2, b) = (n_0, n_1, m_last + 1), or (n_0, 0, m_last + 1)
    over Q, and that value is at most 2 exactly when
    2b - a1 - a2*sqrt(d) >= 0 there, one :func:`exact_arith.sign_lin`.  The
    two tests prove every cell of the box, member or not, so no valid spec
    has a violation; a spec that fails them raises ``AssertionError``.

    Above ``QBOX_SAMPLE_CAP`` members, ``members_checked`` reports the
    sample a member-by-member check would take: the number of the first
    ``count`` values of ``random.Random(seed).random()``, drawn in chunks,
    that are at most QBOX_SAMPLE_CAP/count.  Box differences of more than
    ``QBOX_MAX_CELLS`` cells raise ``CapExceeded`` up front.
    """
    n, m = spec.side_floors()
    cells = (n[-1] - m[-1]) * math.prod(n[:-1])
    if cells > QBOX_MAX_CELLS:
        raise CapExceeded(
            f"box difference of {int_text(cells)} cells exceeds the cap {QBOX_MAX_CELLS}")
    count = qbox_count(spec)
    main = qbox_main_term(spec)
    corner = (n[0], n[1] if spec.field.d else 0, m[-1] + 1)
    a1, a2, b = corner
    if max(n) > spec.R or sign_lin(2 * b - a1, -a2, spec.field.d) < 0:
        raise AssertionError(f"the box corner (a1, a2, b) = {corner} is outside "
                             f"B({spec.R}) ∩ [-2, 2]")
    keep_all = count <= QBOX_SAMPLE_CAP
    checked = count
    if not keep_all:
        rng = random.Random(seed)
        chunk = coprime_count.MOBIUS_CHUNK
        checked = sum(int(np.count_nonzero(_draws(rng, min(chunk, count - i))
                                           <= QBOX_SAMPLE_CAP / count))
                      for i in range(0, count, chunk))
    return {
        "field": spec.field.label(),
        "d": spec.field.d,
        "R": str(spec.R),
        "count": count,
        "main_term": main,
        "ratio": count / main if main else float("nan"),
        "members_checked": checked,
        "membership_violations": 0,
        "exhaustive": keep_all,
    }


@dataclass(frozen=True)
class DensityPoint:
    R: Fraction
    numerator: int
    denominator: int

    @property
    def delta(self) -> float:
        return self.numerator / self.denominator


@dataclass(frozen=True)
class DensityReport:
    field: FieldDescriptor
    points: tuple[DensityPoint, ...]
    slope: float | None
    target_exponent: float

    def to_dict(self) -> dict:
        return {
            "field": self.field.label(),
            "d": self.field.d,
            "points": [
                {
                    "R": str(p.R),
                    "num": p.numerator,
                    "den": p.denominator,
                    "delta": p.delta,
                }
                for p in self.points
            ],
            "slope": self.slope,
            "target_exponent": self.target_exponent,
        }


def _images(x1: np.ndarray, x2: np.ndarray, b: np.ndarray, d: int):
    """:func:`raw_image` over int64 arrays of canonical (x1 + x2*sqrt(d))/b:
    returns the image coordinates A1, A2, B = b^3 before reduction and
    G = gcd(A1, A2, B).  Q is the case d = 1 with x1 or x2 zero; the row
    kernel yields it with x1 = 0.

    Every prime of G divides b, so G is taken on small numbers first:
    g0 = gcd(b, A1, A2), then G = gcd(g0^3, A1, A2), since
    min(v_p(A1), v_p(A2), 3*v_p(b)) = min(v_p(A1), v_p(A2), 3*v_p(g0))
    at every prime p; where g0 = 1 that is one step.
    Raises ``GcdBoundViolated`` when some G does not divide 8d.  Domain:
    with S the largest coordinate, every intermediate is at most
    (4 + 3d)*S^3 in magnitude; each caller refuses up front, with
    ``CapExceeded``, a height where that could pass 2^62.
    """
    A1, A2 = _image_coords(x1, x2, b, d)
    g0 = np.gcd(np.gcd(b, A1), A2)
    G = np.gcd(np.gcd(g0 * g0 * g0, A1), A2)
    bad = np.flatnonzero((8 * d) % G)
    if bad.size:
        i = bad[0]
        x1, x2, b = int(x1[i]), int(x2[i]), int(b[i])
        x = QuadElem(x1, x2, b, d) if d > 1 else Fraction(x1 + x2, b)
        raise GcdBoundViolated(f"G | 8d fails at {x}")
    return A1, A2, b * b * b, G


def _slope_fit(points) -> float | None:
    """Unweighted least-squares slope of log(delta) against log(R)."""
    if len(points) < 3:
        return None
    xs = [math.log(float(p.R)) for p in points]
    ys = [math.log(p.delta) for p in points]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


def density_experiment(
    field: FieldDescriptor,
    R_list,
    cap: int | None = None,
) -> DensityReport:
    """Measure delta(R) = |accepted ∩ B(R) ∩ [-2,2]| / |B(R) ∩ [-2,2]| for
    each R >= 1, plus the log-log slope across the points.

    An image of height <= R has its preimages in B(S(R)), so one pass
    over B(S) ∩ [-2, 2], S = S(R_max), serves every R.  The image of
    x = (x1 + x2*sqrt(d))/b has a denominator D = b^3/G, at most its height,
    with G | gmax(b) = gcd(8d, b^3) (1 over Q, where f(r/s) is reduced):
    only rows with b^3 <= floor(R_max)*gmax(b) can count, and only they
    are visited, through :func:`_images` (which checks G | 8d).

    The numerator counts images by their fibres, with no comparison
    between images.  As t^3 - 3t - f(x) = (t - x)(t^2 + x*t + x^2 - 3),
    the other preimages of f(x) lie in K exactly when 3(4 - x^2) is a
    square in K, that is when U + V*sqrt(d) is, with U = 3(4b^2 - x1^2 -
    d*x2^2) and V = -6*x1*x2 (:func:`height_enum.is_square`).  So a fibre
    has 1 or 3 elements, except {1, -2} of -2 and {-1, 2} of 2.  Each
    visited x with an image of height <= R_max weighs 1 when the square
    test holds and 3 otherwise; adding 2 for every R >= 2 (the two
    2-element fibres) makes the weight below R exactly 3*N(R).  That needs
    every member of a counted fibre visited: a 1-element fibre is covered
    by :func:`preimage_bound`; in a 3-element fibre the conjugate cubic
    t^3 - 3t - a' has three real roots, so |a'| <= 2 and every conjugate
    root lies in [-2, 2], which gives |x1| <= 2b and |x2| <= 2b/sqrt(d)
    with 2b <= 2(8dR)^(1/3) <= S, and each member passes the row cut
    b^3 = G*D <= R*gmax(b); +-1 and +-2 are in every ball.  A total not
    divisible by 3 raises ``AssertionError``.  The result does not depend
    on the order or the size of the blocks.

    Domain: S with (4 + 3d)*S^3 (the image map) or, over Q(sqrt(d)),
    U^2 + d*V^2 past 2^62 raises ``CapExceeded`` before any work.  One
    :func:`height_enum.count_ball_intervals` gives every denominator; it
    runs before the numerator, so its guards refuse before any block.
    ``cap`` (None: no cap) bounds the preimages visited, those of the
    visited rows in B(S) ∩ [-2, 2]: ``CapExceeded`` as soon as the blocks
    streamed so far hold more than ``cap`` of them.
    """
    R_list = [Fraction(R) for R in R_list]
    if not R_list or any(b <= a for a, b in zip(R_list, R_list[1:])):
        raise BadParameters("R list must be strictly increasing and nonempty")
    if R_list[0] < 1:
        raise BadParameters("R must be >= 1: B(R) ∩ [-2, 2] is empty below height 1")
    ball = HeightBall(field, preimage_bound(field, R_list[-1]))
    d, S = field.d or 1, ball.bound
    check_int64((4 + 3 * d) * S ** 3, f"image of B({ball.R})")
    if field.d:  # |U| <= 3(4 + d)*S^2 and |V| <= 6*S^2
        check_int64(9 * ((4 + d) ** 2 + 4 * d) * S ** 4, f"square test on B({ball.R})")
    tops = np.array([R.numerator // R.denominator for R in R_list], dtype=np.int64)
    top = int(tops[-1])
    visited = [b for b in range(1, icbrt(8 * d * top) + 1)
               if b ** 3 <= top * (gcd(8 * d, b ** 3) if field.d else 1)]
    denominators = count_ball_intervals(field, R_list, -2, 2)
    sums = np.zeros(len(tops), dtype=np.int64)  # the weights per bin of tops
    preimages = 0
    for b, a1, a in element_blocks(ball, Fraction(-2), Fraction(2),
                                   np.array(visited, dtype=np.int64)):
        if cap is not None:
            preimages += len(b)
            if preimages > cap:
                raise CapExceeded(f"more than {cap} preimages visited in B({ball.R}) in [-2, 2]")
        A1, A2, B, G = _images(a1, a, b, d)
        h = np.maximum(np.maximum(np.abs(A1), np.abs(A2)), B) // G
        keep = h <= top
        a1, a, b = a1[keep], a[keep], b[keep]
        square = is_square(3 * (4 * b * b - a1 * a1 - d * a * a), -6 * a1 * a, d)
        # float sums of one block are exact: far below 2^53
        sums += np.bincount(np.searchsorted(tops, h[keep]), weights=3 - 2 * square,
                               minlength=len(tops)).astype(np.int64)
    thrice = np.cumsum(sums) + 2 * (tops >= 2)
    if (thrice % 3).any():
        raise AssertionError(f"fibre weights {thrice.tolist()} not divisible by 3")
    points = [DensityPoint(*p) for p in zip(R_list, (thrice // 3).tolist(), denominators)]
    return DensityReport(
        field=field,
        points=tuple(points),
        slope=_slope_fit(points),
        target_exponent=-(2.0 / 3.0) * (field.degree + 1),
    )

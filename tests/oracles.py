"""Reference oracles that the tests compare the library against.

Nothing in ``trisectlab`` calls these; they are independent (and slower)
ways to compute what the library computes, kept beside the tests.
"""

import math
import random
from fractions import Fraction
from math import gcd, isqrt

import mpmath
import numpy as np

from trisectlab.coprime_count import mobius_sum
from trisectlab.errors import BadParameters, DegenerateBasis, RadicandMismatch
from trisectlab.exact_arith import QuadElem, in_interval, quadratic_field, sign_lin
from trisectlab.height_enum import (
    HeightBall,
    _clipped_floor_sum,
    _images,
    _row_blocks,
    check_int64,
    count_ball_interval,
    element_blocks,
    qbox_count,
    qbox_main_term,
)
from trisectlab.polyalg import IntPoly, RatPoly, cyclotomic
from trisectlab.trisect_core import icbrt, preimage_bound


def is_prime_trial(n: int) -> bool:
    """Primality by trial division by every odd f <= sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize_trial(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division by 2, 3 and the
    f = 6j +- 1 up to the square root of what is left."""
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    """Euler's phi from the trial-division factorization."""
    phi = n
    for p in factorize_trial(n):
        phi = phi // p * (p - 1)
    return phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, from
    :func:`factorize_trial`."""
    out = [1]
    for p, e in factorize_trial(n).items():
        out = [m * p ** k for m in out for k in range(e + 1)]
    return sorted(out)


def is_squarefree_trial(d: int) -> bool:
    """True iff d >= 2 and no prime square divides d, by trial division."""
    if d < 2:
        return False
    if d % 4 == 0:
        return False
    n = d
    while n % 2 == 0:
        n //= 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        else:
            p += 2
    return True


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


def mobius_values(n: int) -> list[int]:
    """mu(0..n) by the plain sieve over every p <= n."""
    mu = np.ones(n + 1, dtype=np.int64)
    composite = np.zeros(n + 1, dtype=bool)
    for p in range(2, n + 1):
        if not composite[p]:
            composite[p * p :: p] = True
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    mu[0] = 0
    return mu.tolist()


# Largest whole-table sieve of :func:`mertens_whole_table`; the recursion
# covers the rest.
WHOLE_SIEVE_MAX = 1 << 23


def mobius_sieve_whole(n: int) -> np.ndarray:
    """mu(0..n) as int8 in one table: each prime p <= sqrt(n) flips the sign
    of its multiples, zeroes those of p^2 and is divided out of them once,
    which leaves a squarefree m at most one prime above sqrt(n) to flip for.
    The reference for the segmented sieve of ``coprime_count``."""
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


def mertens_whole_table(xs: np.ndarray) -> np.ndarray:
    """M(x) at each x of the sorted array xs, which must hold floor(x/k)
    wherever that passes the sieve limit, about max(xs)^(2/3), from one
    whole sieve of :func:`mobius_sieve_whole` and, above it,
    M(x) = 1 - sum_{k=2}^{x} M(floor(x/k)): k up to s = isqrt(x) one by one,
    larger k grouped by quotient q <= x/(s+1).  The reference for
    ``coprime_count._mertens``."""
    top = int(xs[-1])
    limit = max(isqrt(top), min(int(top ** (2 / 3)), WHOLE_SIEVE_MAX))
    small = np.cumsum(mobius_sieve_whole(limit), dtype=np.int32)
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


def sieve_count_loop(box) -> int:
    """The Moebius sum over every j up to the smallest floored side, each
    term from the exact rational sides: the reference for
    ``coprime_count.sieve_count``."""
    jmax = min(box.floors())
    if jmax < 1:
        return 0
    mu = mobius_values(jmax)
    total = 0
    for j in range(1, jmax + 1):
        if mu[j]:
            total += mu[j] * math.prod(s.numerator // (s.denominator * j) for s in box.sides)
    return total


def brute_count_recursive(floors: tuple[int, ...]) -> int:
    """#{a in [1, f_1] x ... x [1, f_k] : gcd(a) = 1} by recursion over the
    coordinates with the running gcd, a prefix of gcd 1 counting every
    completion at once: the reference for ``coprime_count._brute_grid``."""
    if min(floors) < 1:
        return 0

    def rec(idx: int, g: int) -> int:
        if g == 1:
            return math.prod(floors[idx:])
        if idx == len(floors):
            return 0
        return sum(rec(idx + 1, gcd(g, a)) for a in range(1, floors[idx] + 1))

    return rec(0, 0)


def generalized_sieve(spec, inner: bool) -> int:
    """The outer (or inner) box count of a ``QBoxSpec`` by the j-loop, each
    side floored afresh from R at every j."""
    k = spec.field.degree
    c = 2 * spec.R / (k + 1)
    total = 0
    for j in range(1, math.floor(c) + 1):
        sides = [math.floor(c / j)]
        if k == 2:
            d = spec.field.d
            sides.append(isqrt(c.numerator ** 2 * d) // (c.denominator * j * d))
        sides.append(math.floor((k if inner else k + 1) * spec.R / ((k + 1) * j)))
        total += mobius(j) * math.prod(sides)
    return total


def row_kernel_count(ball, lo: Fraction, hi: Fraction) -> int:
    """|B(R) ∩ [lo, hi]| row by row over the numpy row blocks of
    ``height_enum``: each row adds #{a in [a_lo, a_hi] : gcd(a, g) = 1} by
    inclusion-exclusion over the squarefree divisors e of g, the sum of
    mu(e)*(floor(a_hi/e) - floor((a_lo - 1)/e)), with the primes of g read
    from a smallest-prime-factor table.  0 is a multiple of every e, so it
    counts only when g = 1."""
    F = ball.bound
    spf = np.arange(F + 1, dtype=np.int64)
    for k in range(isqrt(F), 1, -1):
        spf[k * k :: k] = k
    total = 0
    for _, _, a_lo, a_hi, g in _row_blocks(ball, lo, hi, 1 << 13):
        keep = a_lo <= a_hi
        a_lo, a_hi, g = a_lo[keep], a_hi[keep], g[keep]
        below = a_lo - 1
        terms = [(np.arange(len(g)), np.ones_like(g), 1)]  # (rows, e, mu(e))
        rest = g.copy()
        while (live := rest > 1).any():
            p = spf[rest]
            while (hit := live & (rest % p == 0)).any():
                rest[hit] //= p[hit]
            for rows, e, mu in list(terms):
                sel = live[rows]
                terms.append((rows[sel], e[sel] * p[rows[sel]], -mu))
        total += sum(mu * int((a_hi[rows] // e - below[rows] // e).sum())
                     for rows, e, mu in terms)
    return total


def interval_counts_per_quotient(field, R_list, lo, hi) -> list[int]:
    """|B(R) ∩ [lo, hi]| for each R of ``R_list`` by its own ``mobius_sum``,
    L(N) one floor quotient at a time over every a2 in -N..N (no mirror, no
    packing), with floor(q1*a2*sqrt d) and ceil(q2*a2*sqrt d) from Python
    ints: the reference for ``height_enum.count_ball_intervals``."""
    lo, hi = Fraction(lo), Fraction(hi)
    (p1, q1), (p2, q2) = (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)
    bounds = [HeightBall(field, R).bound for R in R_list]
    F = max(bounds, default=0)
    d = field.d

    def rows(N, floor_lo, ceil_hi):
        return (N + _clipped_floor_sum(p2, q2, -ceil_hi, N)
                + _clipped_floor_sum(-p1, q1, floor_lo, N))

    if not d:
        def lattice_points(Ns):
            return rows(Ns, 0, 0)
    else:
        floor_lo = np.array([floor_sqrt_multiple(q1 * a2, d) for a2 in range(-F, F + 1)])
        ceil_hi = np.array([-floor_sqrt_multiple(-q2 * a2, d) for a2 in range(-F, F + 1)])

        def lattice_points(Ns):
            return [int(rows(N, floor_lo[F - N : F + N + 1], ceil_hi[F - N : F + N + 1]).sum())
                    for N in Ns.tolist()]

    return [mobius_sum((n,), lattice_points) for n in bounds]


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
    mu = mobius_values(jmax)
    table = np.zeros(tuple(floors), dtype=np.int64)
    for j in range(1, jmax + 1):
        if mu[j] == 0:
            continue
        vecs = np.ix_(*(np.arange(1, f + 1, dtype=np.int64) // j for f in floors))
        prod = vecs[0].copy()
        for axis in vecs[1:]:
            prod = prod * axis
        table += mu[j] * prod
    return table


def phi_curve(D, E, x) -> Fraction:
    """The scaled depressed cubic D*(x^3 - 3*E^2*x)."""
    D, E, x = Fraction(D), Fraction(E), Fraction(x)
    if D <= 0 or E <= 0:
        raise BadParameters("D and E must be positive")
    return D * (x ** 3 - 3 * E * E * x)


def phi_bound_check(D, E, x, T) -> dict:
    """Instance check of the cube-root escape bound: whenever E^3 <= T,
    the implication (phi <= D*T => x <= 2*T^(1/3)) holds, along with its
    odd-symmetric mirror."""
    D, E, x, T = Fraction(D), Fraction(E), Fraction(x), Fraction(T)
    value = phi_curve(D, E, x)
    premise = E ** 3 <= T
    # x <= 2*T^(1/3)  <=>  x <= 0 or x^3 <= 8T
    upper = (not premise) or not (value <= D * T) or (x <= 0 or x ** 3 <= 8 * T)
    lower = (not premise) or not (value >= -D * T) or (x >= 0 or x ** 3 >= -8 * T)
    odd = phi_curve(D, E, -x) == -value
    return {
        "phi": value,
        "premise_E_cubed_le_T": premise,
        "upper_implication": upper,
        "lower_implication": lower,
        "odd_symmetry": odd,
        "ok": upper and lower and odd,
    }


def floor_sqrt_multiple(v: int, d: int) -> int:
    """floor(v*sqrt(d)) for integers v and d >= 1, exact whether or not d
    is a perfect square."""
    if v >= 0:
        return isqrt(v * v * d)
    # -ceil(sqrt(n)) = -(isqrt(n - 1) + 1) for n >= 1
    return -isqrt(v * v * d - 1) - 1


def ball_rows(ball, lo: Fraction | None = None, hi: Fraction | None = None):
    """The rows of B(R), or of B(R) ∩ [lo, hi], one Python tuple
    (b, a1, a_lo, a_hi, g) at a time in (b, a1[, a2]) order: the reference
    for the numpy row-block kernel of ``height_enum``.

    A row stands for the elements whose last coordinate (a2 over
    Q(sqrt(d)), the numerator over Q) is an integer in [a_lo, a_hi] prime
    to g = gcd(a1, b), with gcd(0, g) = g.  Q runs as d = 1 with a1 = 0.
    With hi = p/q the upper end is floor_sqrt_multiple(p*b - q*a1, d) // (q*d);
    the lower end is its mirror.
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


def ball_stream(ball, lo: Fraction | None = None, hi: Fraction | None = None):
    """The coprime elements of :func:`ball_rows`, in row order."""
    d = ball.field.d
    for b, a1, a_lo, a_hi, g in ball_rows(ball, lo, hi):
        for a in range(a_lo, a_hi + 1):
            if gcd(g, a) == 1:
                yield QuadElem(a1, a, b, d) if d else Fraction(a, b)


def root_floors_bisect(c: int, P: int, Q: int, d) -> list[int]:
    """Sorted floors of the real roots of g(t) = t^3 - 3c^2*t - (P + Q*sqrt(d))
    for c >= 1, by integer bisection on each monotone branch over [-M, M]
    (one exact sign test per bit of M); the reference for
    ``trisect_core._root_floors``.  A double root at a turning point is
    reported once."""
    c3 = 3 * c * c
    N = abs(P) + (abs(Q) * (isqrt(d) + 1) if Q else 0)  # >= |P + Q*sqrt(d)|
    M = max(2 * c, icbrt(4 * N) + 1)

    def sign_g(k: int) -> int:
        return sign_lin(k * k * k - c3 * k - P, -Q, d)

    def last(lo: int, hi: int, keep) -> int:
        # largest k in [lo, hi] with keep(k), given keep(lo) and monotonicity
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if keep(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    at_left, at_right = sign_g(-c), sign_g(c)
    floors = set()
    if at_left >= 0:
        floors.add(last(-M, -c, lambda k: sign_g(k) <= 0))
        if at_right <= 0:
            floors.add(last(-c, c, lambda k: sign_g(k) >= 0))
    if at_right <= 0:
        floors.add(last(c, M, lambda k: sign_g(k) <= 0))
    return sorted(floors)


def rational_roots(p) -> set[Fraction]:
    """All rational zeros of a nonzero polynomial, each verified by exact
    evaluation of divisor-pair candidates."""
    if isinstance(p, IntPoly):
        p = p.to_rat()
    if p.is_zero():
        raise ValueError("zero polynomial")
    ip, _ = p.clear_denominators()
    ip = ip.primitive()
    roots: set[Fraction] = set()
    low = 0
    while ip.coeffs[low] == 0:
        low += 1
    if low:
        roots.add(Fraction(0))
        ip = IntPoly(ip.coeffs[low:])
    if ip.degree < 1:
        return roots
    for r in divisors(abs(ip.coeffs[0])):
        for s in divisors(abs(ip.leading)):
            if gcd(r, s) != 1:
                continue
            for cand in (Fraction(r, s), Fraction(-r, s)):
                if ip.evaluate(cand) == 0:
                    roots.add(cand)
    return roots


def _bareiss_det(mat: list[list[RatPoly]]) -> RatPoly:
    """Fraction-free determinant of a matrix over Q[x]; all interior
    divisions are exact."""
    n = len(mat)
    sign = 1
    prev = RatPoly.const(1)
    for r in range(n - 1):
        if mat[r][r].is_zero():
            for i in range(r + 1, n):
                if not mat[i][r].is_zero():
                    mat[r], mat[i] = mat[i], mat[r]
                    sign = -sign
                    break
            else:
                return RatPoly.zero()
        pivot = mat[r][r]
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                num = pivot * mat[i][j] - mat[i][r] * mat[r][j]
                mat[i][j] = num.div_exact(prev)
            mat[i][r] = RatPoly.zero()
        prev = pivot
    det = mat[n - 1][n - 1]
    return det if sign == 1 else -det


def sylvester_resultant(a: list[RatPoly], b: list[RatPoly]) -> RatPoly:
    """Resultant in y of two polynomials whose y-coefficients (ascending)
    are themselves polynomials in x."""
    m, n = len(a) - 1, len(b) - 1
    zero = RatPoly.zero()
    mat = []
    arev = list(reversed(a))
    brev = list(reversed(b))
    for i in range(n):
        mat.append([zero] * i + arev + [zero] * (n - 1 - i))
    for i in range(m):
        mat.append([zero] * i + brev + [zero] * (m - 1 - i))
    return _bareiss_det(mat)


def sylvester_minpoly(m: int, q, g: RatPoly) -> IntPoly:
    """Res_y(y^m - q, g(y) - x) by fraction-free elimination of the
    Sylvester matrix, made primitive: the reference for
    ``polyalg.resultant_minpoly``."""
    q = Fraction(q)
    f1 = [RatPoly.const(-q)] + [RatPoly.zero()] * (m - 1) + [RatPoly.const(1)]
    f2 = [RatPoly.const(c) for c in g.coeffs]
    f2[0] = RatPoly((g.coeffs[0], Fraction(-1)))
    out, _ = sylvester_resultant(f1, f2).clear_denominators()
    return out.primitive()


def fraction_resultant_minpoly(m: int, q, g: RatPoly) -> IntPoly:
    """Characteristic polynomial of g(beta) for beta a root of y^m - q,
    as a primitive integer polynomial of degree m in x.

    The charpoly of multiplication by g on Q[y]/(y^m - q) is the product
    of x - g(beta_i) over the m roots beta_i.  Its power sums are the
    traces p_k = m * [y^0](g^k mod y^m - q), and Newton's identities
    k*e_k = sum_{i=1..k} (-1)^(i-1) * e_{k-i} * p_i turn them into the
    elementary symmetric functions e_k, the coefficients up to sign:
    O(m^2) exact operations.  Every step runs over Fraction: the reference
    for ``polyalg.resultant_minpoly``, which runs the same sums on ints.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if g.is_zero():
        raise ValueError("g must be nonzero")
    q = Fraction(q)
    red = [Fraction(0)] * m
    for i, c in enumerate(g.coeffs):
        red[i % m] += c * q ** (i // m)
    terms = [(i, c) for i, c in enumerate(red) if c]
    power = [Fraction(1)] + [Fraction(0)] * (m - 1)  # g^k mod y^m - q
    p = [Fraction(0)]
    for _ in range(m):
        nxt = [Fraction(0)] * m
        for i, c in terms:
            for j, a in enumerate(power):
                if a:
                    if i + j < m:
                        nxt[i + j] += c * a
                    else:
                        nxt[i + j - m] += c * a * q
        power = nxt
        p.append(m * power[0])
    e = [Fraction(1)]
    for k in range(1, m + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1)) / k)
    charpoly = RatPoly(tuple((-1) ** k * e[k] for k in range(m, -1, -1)))
    return charpoly.clear_denominators()[0].primitive()


def cos_minimal_poly_extraction(m: int) -> IntPoly:
    """The minimal polynomial of 2*cos(2*pi/m), m >= 3, extracted from the
    cyclotomic polynomial by the substitution x = z + 1/z, solved
    coefficient by coefficient with binomial back-substitution: the
    reference for ``polyalg.cos_minimal_poly``."""
    h = euler_phi(m) // 2
    work = list(cyclotomic(m).coeffs)
    out = [0] * (h + 1)
    for j in range(h, -1, -1):
        c = work[h + j]
        out[j] = c
        if c:
            for i in range(j + 1):
                work[h - j + 2 * i] -= c * math.comb(j, i)
    if any(work):
        raise AssertionError(f"symmetric extraction failed for m={m}")
    return IntPoly(out)


def psection_binomial(p: int) -> IntPoly:
    """P(x, 0) of the multiple-angle polynomial of an odd prime p by the
    double binomial sum for cos(p*t) in powers of cos(t): the reference for
    ``polyalg.psection_poly``."""
    q = (p - 1) // 2
    coeffs = [0] * (p + 1)
    for k in range(q + 1):
        for ell in range(k + 1):
            sign = -1 if (k + ell) % 2 else 1
            coeffs[p - 2 * k + 2 * ell] += sign * math.comb(p, 2 * k) * math.comb(k, ell)
    return IntPoly(coeffs)


def witness_residual_mpf(poly: IntPoly, m: int, q: int) -> float:
    """|poly(a)| at a = beta^3 - 3*beta, beta = q^(1/m), by mpmath Horner at
    bits + 8m + 160 bits (bits of the widest coefficient): the residual
    ``nonconstructible_witness`` checked before its fixed-point kernel."""
    bits = max(abs(c).bit_length() for c in poly.coeffs)
    with mpmath.workprec(bits + 8 * m + 160):
        beta = mpmath.power(q, mpmath.mpf(1) / m)
        return float(abs(poly.evaluate(beta ** 3 - 3 * beta)))


def angle_residual_mpf(poly: IntPoly, j: int, m: int):
    """|poly(2cos(2*pi*j/m))| as an mpf, by mpmath Horner at
    bits + 2*degree + 200 bits: the residual ``algdeg`` checked before its
    fixed-point kernel."""
    bits = max(abs(c).bit_length() for c in poly.coeffs)
    with mpmath.workprec(bits + 2 * poly.degree + 200):
        return abs(poly.evaluate(2 * mpmath.cos(2 * mpmath.pi * j / m)))


def square_schoolbook(q: list[int]) -> list[int]:
    """The coefficients of q(x)^2 by the schoolbook double loop: a_i^2 on
    the diagonal and each cross term a_i*a_j (i < j) once, doubled.  The
    reference for ``polyalg.kronecker_square``."""
    square = [0] * (2 * len(q) - 1)
    for i, a in enumerate(q):
        square[2 * i] += a * a
        twice = 2 * a
        for k, b in enumerate(q[i + 1 :], 2 * i + 1):
            square[k] += twice * b
    return square


class FractionBiquad:
    """w + x*sqrt(2) + y*sqrt(3) + z*sqrt(6) with one Fraction per
    coordinate: the reference for ``algdeg.Cyclo`` at level 2 (M = 24)."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        self.w, self.x, self.y, self.z = (Fraction(t) for t in (w, x, y, z))

    def coords(self) -> tuple[Fraction, ...]:
        return self.w, self.x, self.y, self.z

    def __eq__(self, other) -> bool:
        other = other if isinstance(other, FractionBiquad) else FractionBiquad(other)
        return self.coords() == other.coords()

    def __add__(self, other):
        other = other if isinstance(other, FractionBiquad) else FractionBiquad(other)
        return FractionBiquad(*(s + t for s, t in zip(self.coords(), other.coords())))

    __radd__ = __add__

    def __neg__(self):
        return FractionBiquad(-self.w, -self.x, -self.y, -self.z)

    def __sub__(self, other):
        other = other if isinstance(other, FractionBiquad) else FractionBiquad(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = other if isinstance(other, FractionBiquad) else FractionBiquad(other)
        w1, x1, y1, z1 = self.coords()
        w2, x2, y2, z2 = other.coords()
        return FractionBiquad(
            w1 * w2 + 2 * x1 * x2 + 3 * y1 * y2 + 6 * z1 * z2,
            w1 * x2 + x1 * w2 + 3 * (y1 * z2 + z1 * y2),
            w1 * y2 + y1 * w2 + 2 * (x1 * z2 + z1 * x2),
            w1 * z2 + z1 * w2 + x1 * y2 + y1 * x2,
        )

    __rmul__ = __mul__

    def interval(self, iv):
        return (
            iv.mpf(self.w.numerator) / self.w.denominator
            + iv.mpf(self.x.numerator) / self.x.denominator * iv.sqrt(2)
            + iv.mpf(self.y.numerator) / self.y.denominator * iv.sqrt(3)
            + iv.mpf(self.z.numerator) / self.z.denominator * iv.sqrt(6)
        )


def zeta_partial_sums(k: int, tol: float) -> float:
    """zeta(k) within tol from the partial sum to n plus the midpoint of
    the integral tail bracket [(n+1)^(1-k), n^(1-k)]/(k-1), n doubled until
    the bracket's half-width is at most tol: the reference for
    ``coprime_count.zeta``."""
    n = 2
    while True:
        lo = (n + 1) ** (1 - k) / (k - 1)
        hi = n ** (1 - k) / (k - 1)
        if (hi - lo) / 2 <= tol:
            break
        n *= 2
    return math.fsum(i ** (-float(k)) for i in range(1, n + 1)) + (lo + hi) / 2


def qbox_members(spec):
    """The (a..., b) tuples of the box difference of a ``QBoxSpec``, one
    at a time in (b, a1[, a2]) order."""
    n, m = spec.side_floors()
    b_lo, b_hi = m[-1] + 1, n[-1]
    if spec.field.degree == 1:
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


def qbox_reference(spec, sample_cap: int = 200_000, seed: int = 0) -> dict:
    """``height_enum.qbox`` member by member: one ``rng.random()`` per
    member once the count passes ``sample_cap``, and the membership test of
    each kept member in Python integers (``in_interval`` over
    Q(sqrt(d)))."""
    count = qbox_count(spec)
    main = qbox_main_term(spec)
    F = spec.R.numerator // spec.R.denominator
    checked = 0
    violations = 0
    rng = random.Random(seed)
    keep_all = count <= sample_cap
    keep_prob = 1.0 if keep_all else sample_cap / max(count, 1)
    for tup in qbox_members(spec):
        if not keep_all and rng.random() > keep_prob:
            continue
        checked += 1
        *nums, b = tup
        if max(*nums, b) > F:
            violations += 1
            continue
        if spec.field.degree == 1:
            inside = -2 * b <= nums[0] <= 2 * b
        else:
            inside = in_interval(QuadElem(nums[0], nums[1], b, spec.field.d), -2, 2)
        if not inside:
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


def gcd_bound_sweep_blocks(d: int, height_bound: int) -> dict:
    """``height_enum.gcd_bound_sweep`` element by element: every canonical
    element of B(height_bound) through the row-block kernel and
    ``height_enum._images``, which raises ``GcdBoundViolated`` at the
    first violator of a block, so at the first in (b, a1, a2) order."""
    check_int64((4 + 3 * d) * height_bound ** 3, f"image of B({height_bound})")
    checked = 0
    worst = 1
    for b, a1, a2 in element_blocks(HeightBall(quadratic_field(d), height_bound)):
        G = _images(a1, a2, b, d)[3]
        checked += len(G)
        worst = max(worst, int(G.max(initial=1)))
    return {"d": d, "height_bound": height_bound, "elements_checked": checked, "max_gcd": worst}


def density_points_full(field, R_list) -> list[tuple[int, int]]:
    """(numerator, denominator) of ``height_enum.density_experiment`` at
    each R by the whole preimage ball: every element of
    B(S(R_max)) ∩ [-2, 2] through ``_images``, one global ``np.unique`` of
    the images of height <= R_max, and one ``count_ball_interval`` per R."""
    R_list = [Fraction(R) for R in R_list]
    ball = HeightBall(field, preimage_bound(field, R_list[-1]))
    d = field.d or 1
    top = R_list[-1].numerator // R_list[-1].denominator
    kept = []
    for b, a1, a in element_blocks(ball, Fraction(-2), Fraction(2)):
        x1, x2 = (a1, a) if d > 1 else (a, a1)
        A1, A2, B, G = _images(x1, x2, b, d)
        img = np.stack([A1, A2, B], axis=1) // G[:, None]
        kept.append(img[np.abs(img).max(axis=1) <= top])
    heights = np.sort(np.abs(np.unique(np.concatenate(kept), axis=0)).max(axis=1))
    return [(int(np.searchsorted(heights, R.numerator // R.denominator, "right")),
             count_ball_interval(HeightBall(field, R), -2, 2)) for R in R_list]


def basis_change_fractions(w1, w2):
    """The integer inverse change of basis (n11, n12, n21, n22, delta) of
    ``height_enum._basis_change_ints``, from the inverse matrix over
    ``Fraction`` cleared by the lcm of its denominators."""
    if w1.d != w2.d:
        raise RadicandMismatch("basis vectors from different fields")
    m11, m21 = Fraction(w1.a1, w1.b), Fraction(w1.a2, w1.b)
    m12, m22 = Fraction(w2.a1, w2.b), Fraction(w2.a2, w2.b)
    det = m11 * m22 - m12 * m21
    if det == 0:
        raise DegenerateBasis("basis vectors are Q-linearly dependent")
    inv = ((m22 / det, -m12 / det), (-m21 / det, m11 / det))
    denom = 1
    for row in inv:
        for entry in row:
            denom = denom * entry.denominator // gcd(denom, entry.denominator)
    n = [[int(entry * denom) for entry in row] for row in inv]
    return n[0][0], n[0][1], n[1][0], n[1][1], denom


def commensurability_loop(d: int, alt_basis, R: int, ceiling: int = 1000):
    """``height_enum.verify_commensurability`` by a triple loop over every
    (b, a1, a2) of B(R), one ``Fraction`` ratio per element."""
    n11, n12, n21, n22, delta = basis_change_fractions(*alt_basis)
    worst = Fraction(1)
    for b in range(1, R + 1):
        for a1 in range(-R, R + 1):
            for a2 in range(-R, R + 1):
                if gcd(gcd(a1, a2), b) != 1:
                    continue
                u1 = n11 * a1 + n12 * a2
                u2 = n21 * a1 + n22 * a2
                den = delta * b
                g = gcd(gcd(u1, u2), den)
                h1 = max(abs(a1), abs(a2), b)
                h2 = max(abs(u1) // g, abs(u2) // g, den // g)
                worst = max(worst, Fraction(max(h1, h2), min(h1, h2)))
    factor = -(-worst.numerator // worst.denominator)  # ceil
    return factor, factor <= ceiling

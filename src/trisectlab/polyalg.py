"""Exact univariate polynomial algebra.

Dense polynomials with arbitrary-precision integer (:class:`IntPoly`) or
rational (:class:`RatPoly`) coefficients, stored ascending with no trailing
zero; the zero polynomial has degree -1.  On top of the ring arithmetic sit
the Eisenstein test, characteristic polynomials in Q[y]/(y^m - q) from
power sums, cyclotomic polynomials, the minimal polynomials of
2*cos(2*pi/m), and the multiple-angle polynomials: the Chebyshev-like
family C_n with C_n(2*cos t) = 2*cos(n*t), and the p-section polynomial
of an odd prime p, which is C_p rescaled.

The characteristic polynomials never leave the integers: with q = u/v,
gamma = v*beta is a root of y^m - u*v^(m-1), and clearing the
denominators of g(y/v) makes s*g(beta) a polynomial in gamma with integer
coefficients, an algebraic integer whose traces and Newton coefficients
are all integers.

This is the package's one home of primes and factoring: the sieve
:func:`primes_below`, and for the radicands, 8d and the certificates
trial division by the primes below 2^10, then deterministic Miller-Rabin
(:func:`is_prime`) and Pollard-Brent rho (:func:`factorize`): polynomial
in the digits for primality, O(n^(1/4)) steps for a factor, on a stated
domain refused with ``CapExceeded`` past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import comb, gcd, isqrt

from .errors import BadParameters, CapExceeded, NotOddPrime, NotPrime


def primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


# The primes below 2^10: trial division by them decides every n < 2^20.
SMALL_PRIMES = primes_below(1 << 10)
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)
# (psi, k): Miller-Rabin to the first k primes as bases is exact below psi
# (Jaeschke 1993; Sorenson and Webster 2015 for k = 12).
_MR_BASES_BELOW = ((1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
                   (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
                   (318665857834031151167461, 12))
MR_EXACT_BELOW = _MR_BASES_BELOW[-1][0]
# Domain of :func:`factorize`: 8d for every radicand d < 2^62.  Its worst
# case, two primes near 2^32.5, takes Pollard-Brent about 2^16 steps.
FACTOR_BELOW = 1 << 65


def is_prime(n: int) -> bool:
    """Primality of n < ``MR_EXACT_BELOW`` (about 3.2*10^23), exactly.

    n below 2^10 is looked up.  Trial division by ``SMALL_PRIMES`` decides
    n < 2^20, as a composite has a prime factor at most its square root.
    A larger n with no small factor is prime iff it is a strong probable
    prime to the first k primes, k from ``_MR_BASES_BELOW``.
    ``CapExceeded`` past the domain.
    """
    if n < 1 << 10:
        return n in _SMALL_PRIME_SET
    for p in SMALL_PRIMES:
        if n % p == 0:
            return False
        if p * p > n:
            return True
    if n < 1 << 20:
        return True
    if n >= MR_EXACT_BELOW:
        raise CapExceeded(f"{n} is past the exact Miller-Rabin domain")
    k = next(k for psi, k in _MR_BASES_BELOW if n < psi)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in SMALL_PRIMES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor below 2^10:
    Brent's variant of Pollard's rho on y -> y^2 + c, products of 128
    differences per gcd, with c = 1, 2, ... until one splits n (Brent 1980).
    Deterministic, so every run returns the same factor."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo its last stretch one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _large_primes(n: int) -> list[int]:
    """The prime factors, with multiplicity, of n > 1 with no prime factor
    below 2^10."""
    if is_prime(n):
        return [n]
    f = _brent_factor(n)
    return _large_primes(f) + _large_primes(n // f)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of 1 <= n < ``FACTOR_BELOW``, primes ascending:
    trial division by the primes below 2^10, then :func:`is_prime` and
    :func:`_brent_factor` on what is left, O(n^(1/4)) steps.  ``CapExceeded``
    past the domain."""
    if n < 1:
        raise BadParameters(f"cannot factorize {n}")
    if n >= FACTOR_BELOW:
        raise CapExceeded(f"{n} is past the factoring domain 2^65")
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            rest = [n] if n > 1 else []  # n is 1 or a prime
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            out[p] = e
    else:  # n >= 1021^2 is left with no prime factor below 2^10
        rest = sorted(_large_primes(n))
    for p in rest:
        out[p] = out.get(p, 0) + 1
    return out


def _trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


class _Poly:
    """Ring operations shared by :class:`IntPoly` and :class:`RatPoly`; a
    subclass names its coefficient type ``_coeff``, and a product with
    anything that is not a polynomial scales the coefficients."""

    coeffs: tuple
    _coeff = int

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(tuple(self._coeff(c) for c in coeffs)))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def const(cls, c):
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return type(self)(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, _Poly):
            return type(self)(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, c in enumerate(self.coeffs):
            if c:
                for j, e in enumerate(other.coeffs):
                    out[i + j] += c * e
        return type(self)(out)

    __rmul__ = __mul__

    def evaluate(self, x):
        """Horner evaluation; works for int, Fraction, or mpmath types."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return poly_text(self.coeffs)

    def coeff_strings(self) -> list[str]:
        """JSON encoding: ascending coefficients as decimal strings."""
        return [str(c) for c in self.coeffs]


@dataclass(frozen=True, init=False)
class IntPoly(_Poly):
    """Dense integer polynomial, coefficients ascending."""

    coeffs: tuple[int, ...]

    def div_exact(self, other: "IntPoly") -> "IntPoly":
        """Exact division; raises if the remainder is nonzero."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        lead = other.leading
        quo = [0] * max(dn - dd + 1, 0)
        for k in range(dn - dd, -1, -1):
            c = rem[k + dd]
            if c == 0:
                continue
            t, r = divmod(c, lead)
            if r:
                raise ValueError(f"{self} not divisible by {other}")
            quo[k] = t
            for j, e in enumerate(other.coeffs):
                rem[k + j] -= t * e
        if any(rem):
            raise ValueError(f"{self} not divisible by {other}")
        return IntPoly(quo)

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "IntPoly":
        if self.is_zero():
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPoly(tuple(c // g for c in self.coeffs))

    def to_rat(self) -> "RatPoly":
        return RatPoly(self.coeffs)


@dataclass(frozen=True, init=False)
class RatPoly(_Poly):
    """Dense rational polynomial, coefficients ascending."""

    coeffs: tuple[Fraction, ...]
    _coeff = Fraction

    def divmod(self, other: "RatPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        lead = other.leading
        quo = [Fraction(0)] * max(dn - dd + 1, 0)
        for k in range(dn - dd, -1, -1):
            c = rem[k + dd]
            if c == 0:
                continue
            t = c / lead
            quo[k] = t
            for j, e in enumerate(other.coeffs):
                rem[k + j] -= t * e
        return RatPoly(quo), RatPoly(rem)

    def div_exact(self, other: "RatPoly") -> "RatPoly":
        quo, rem = self.divmod(other)
        if not rem.is_zero():
            raise ValueError(f"{self} not divisible by {other}")
        return quo

    def monic(self) -> "RatPoly":
        if self.is_zero():
            return self
        return self * (1 / self.leading)

    def clear_denominators(self) -> tuple[IntPoly, int]:
        """Smallest positive integer L with L*self integral; returns
        (L*self as IntPoly, L)."""
        L = 1
        for c in self.coeffs:
            L = L * c.denominator // gcd(L, c.denominator)
        return IntPoly(tuple(int(c * L) for c in self.coeffs)), L

    def gcd(self, other: "RatPoly") -> "RatPoly":
        """Monic polynomial gcd by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a


def kronecker_square(q: list[int]) -> list[int]:
    """The coefficients of q(x)^2, q given by its nonempty list of signed
    integer coefficients, by Kronecker substitution: one big-integer
    square in place of len(q)^2 coefficient products.

    Every coefficient of the square is a sum of at most len(q) products,
    so it is below 2^(2*maxbits + bitlen(len)) in magnitude; digits of
    B > 2*maxbits + bitlen(len) + 1 bits (a whole number of bytes) then
    hold each one plus the offset 2^(B-1) with no carry.  q(2^B) is packed
    from the offset digits a_i + 2^(B-1) less the offset, squared, and the
    square plus the offset is cut back into digits by byte slicing.
    """
    maxbits = max(abs(a) for a in q).bit_length()
    size = (2 * maxbits + len(q).bit_length() + 2 + 7) // 8  # digit bytes
    half = 1 << (8 * size - 1)
    offset = half.to_bytes(size, "little")

    def unoffset(digits: int) -> int:
        return int.from_bytes(offset * digits, "little")

    packed = b"".join((a + half).to_bytes(size, "little") for a in q)
    value = int.from_bytes(packed, "little") - unoffset(len(q))
    digits = 2 * len(q) - 1
    raw = (value * value + unoffset(digits)).to_bytes(digits * size, "little")
    return [int.from_bytes(raw[k : k + size], "little") - half
            for k in range(0, digits * size, size)]


# The modulus of the F_p[x] Euclid in :func:`squarefree_over_q`: the largest
# prime below 2^32, so every reduced product fits a 64-bit word.  It lies
# above every witness radicand q <= 2^31 (q^(1/m) <= 2, m <= 31): at p = q the
# characteristic polynomial of f(q^(1/m)) is x^m mod p, never squarefree
# there, and each check would fall back to the gcd over Q.
SQUAREFREE_PRIME = (1 << 32) - 5


def squarefree_over_q(f: IntPoly) -> bool:
    """True iff f (degree m >= 1) has no repeated factor over Q.  When
    p = ``SQUAREFREE_PRIME`` does not divide m*lc(f), a trivial gcd(f, f')
    in F_p[x] proves it: a repeated factor g can be taken primitive in Z[x]
    (Gauss), so g | f and g | f' in Z[x], and p does not divide
    lc(g) | lc(f), so g mod p keeps its degree and divides both.  Else, or
    when the gcd mod p is not trivial, the gcd over Q decides."""
    p = SQUAREFREE_PRIME
    if f.degree * f.leading % p:
        a, b = [c % p for c in f.coeffs], [c % p for c in f.derivative().coeffs]
        while b:  # Euclid in F_p[x], b[-1] != 0
            inv = pow(b[-1], -1, p)
            while len(a) >= len(b):
                c, k = a[-1] * inv % p, len(a) - len(b)
                a[k:] = [(x - c * y) % p for x, y in zip(a[k:], b)]
                while a and not a[-1]:
                    a.pop()
            a, b = b, a
        if len(a) == 1:
            return True
    return f.to_rat().gcd(f.derivative().to_rat()).degree == 0


def fixed_point_eval(f: IntPoly, X: int, F: int) -> tuple[int, int]:
    """(Y, E) with |Y - 2^F * f(x)| <= E for x = X/2^F, |x| <= 2: f at a
    point given in fixed point with F fraction bits, on Python ints alone.

    Write f(x) = A(x^2) + x*B(x^2), with A and B of degree at most
    k = deg(f) // 2, and c for the largest |coefficient| of f.  The square
    is truncated once, S = floor(X^2 / 2^F), s = S/2^F, so 0 <= x^2 - s
    < 2^-F and 0 <= s <= 4; A and B run Horner at S, each step
    acc = floor(acc*S / 2^F) + a_i*2^F, and Y = A + floor(X*B / 2^F).  In
    units of 2^-F:

    * Horner over j steps at s <= 4 errs by at most sum_(i<j) s^i
      <= (4^j - 1)/3 (an error made i steps before the end is multiplied
      by s^i); B's is multiplied by |x| <= 2, and the last product's floor
      adds less than 1.
    * Evaluating at s for x^2 moves A by at most (x^2 - s)*max|A'| on
      [0, 4], below sum_(i<=k) i*c*4^(i-1) <= c*k*(4^k - 1)/3, and x*B by
      twice that.

    The two sum to at most (4^k - 1)*(1 + c*k) + 1 <= (1 + c*k)*4^k = E.
    An even f (B = 0) takes k Horner steps, half of plain Horner's.  The
    bound pays c for the truncated square, so F must exceed
    log2(c) + deg(f) + log2(k) + log2(1/tolerance) for a residual check
    to pass on a true root.
    """
    if abs(X) > 2 << F:
        raise ValueError("fixed_point_eval needs |X| <= 2^(F+1)")
    coeffs = f.coeffs
    if not coeffs:
        return 0, 0
    S = X * X >> F

    def horner(part) -> int:
        acc = 0
        for a in reversed(part):
            acc = (acc * S >> F) + (a << F)
        return acc

    Y = horner(coeffs[::2])
    if len(coeffs) > 1:
        Y += X * horner(coeffs[1::2]) >> F
    k = f.degree // 2
    return Y, (1 + k * max(map(abs, coeffs))) << 2 * k


def poly_text(coeffs) -> str:
    """Human-readable "c0 + c1*x + ... + ck*x^k" form, zero terms dropped."""
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = f"{mag}"
        else:
            var = "x" if i == 1 else f"x^{i}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def eisenstein_check(p: IntPoly, prime: int) -> bool:
    """Eisenstein criterion at ``prime``: the prime misses the leading
    coefficient, divides all others, and its square misses the constant."""
    if not is_prime(prime):
        raise NotPrime(f"{prime} is not prime")
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return False
    if p.leading % prime == 0:
        return False
    if any(c % prime for c in p.coeffs[:-1]):
        return False
    return p.coeffs[0] % (prime * prime) != 0


def newton_elementary(p: list[int]) -> list[int]:
    """The elementary symmetric functions e_0..e_m from the integer power
    sums p = [p_1, ..., p_m] by Newton's identities
    k*e_k = sum_{i=1..k} (-1)^(i-1) * e_{k-i} * p_i.  Raises
    ``AssertionError`` when a division by k leaves a remainder, which the
    power sums of an algebraic integer never do."""
    signed = [pk if k % 2 else -pk for k, pk in enumerate(p, 1)]
    e = [1]
    for k in range(1, len(p) + 1):
        ek, rem = divmod(sum(e[k - i] * signed[i - 1] for i in range(1, k + 1)), k)
        if rem:
            raise AssertionError(f"Newton's identity at k = {k} leaves remainder {rem}")
        e.append(ek)
    return e


def resultant_minpoly(m: int, q, g: RatPoly) -> IntPoly:
    """Characteristic polynomial of g(beta) for beta a root of y^m - q,
    as a primitive integer polynomial of degree m in x, computed on
    Python ints alone.

    Write q = u/v, n = deg g and L for the lcm of the denominators of g.
    Then gamma = v*beta satisfies gamma^m = w with w = u*v^(m-1), so
    h(y) = L*v^n*g(y/v) has integer coefficients and h(gamma) = s*g(beta)
    with s = L*v^n.  Multiplication by h(gamma) on Z[y]/(y^m - w) is an
    integer matrix, so h(gamma) is an algebraic integer: its traces
    p_k = m * [y^0](h^k mod y^m - w) are integers, and so are the
    elementary symmetric functions e_k from Newton's identities, each
    division by k exact (:func:`newton_elementary`).  As
    prod(s*x - s*g(beta_i)) = s^m * charpoly, the charpoly is
    sum_k (-1)^k * e_k * s^(m-k) * x^(m-k) up to the factor s^m, made
    primitive: O(m^2) integer operations.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if g.is_zero():
        raise ValueError("g must be nonzero")
    q = Fraction(q)
    u, v = q.numerator, q.denominator
    w = u * v ** (m - 1)
    h, L = g.clear_denominators()
    n = g.degree
    s = L * v ** n
    red = [0] * m  # h mod y^m - w
    for i, c in enumerate(h.coeffs):
        red[i % m] += c * v ** (n - i) * w ** (i // m)
    terms = [(i, c, c * w) for i, c in enumerate(red) if c]
    power = [1] + [0] * (m - 1)  # h^k mod y^m - w
    traces = []
    for _ in range(m):
        nxt = [0] * m
        for i, c, cw in terms:
            for j, a in enumerate(power):
                if a:
                    if i + j < m:
                        nxt[i + j] += c * a
                    else:
                        nxt[i + j - m] += cw * a
        power = nxt
        traces.append(m * power[0])
    e = newton_elementary(traces)
    return IntPoly(tuple((-1) ** k * e[k] * s ** (m - k) for k in range(m, -1, -1))).primitive()


def cyclotomic(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial, degree phi(m): one exact division
    Phi_np(x) = Phi_n(x^p) / Phi_n(x) per prime p of m, which builds Phi_r
    for the radical r of m, then Phi_m(x) = Phi_r(x^(m/r))."""
    if m < 1:
        raise ValueError("m must be >= 1")

    def at_power(poly: IntPoly, s: int) -> IntPoly:
        out = [0] * (poly.degree * s + 1)
        out[::s] = poly.coeffs
        return IntPoly(out)

    poly, r = IntPoly((-1, 1)), 1
    for p in factorize(m):
        poly, r = at_power(poly, p).div_exact(poly), r * p
    return at_power(poly, m // r)


def cos_minimal_poly(m: int) -> IntPoly:
    """Minimal polynomial over Q of 2*cos(2*pi/m): monic, degree phi(m)/2
    for m >= 3 and degree 1 for m in {1, 2}.

    The cyclotomic polynomial c is palindromic of degree 2h, so with
    x = z + 1/z, z^(-h)*c(z) = c_h + sum_{j>=1} c_{h+j}*C_j(x) for the
    Chebyshev-like C_j of :func:`chebyshev_like`.  The sum runs over the
    nonzero c_{h+j} alone, and C_j has its terms at x^j, x^(j-2), ..., so
    the cost is O(nnz*h) coefficient operations: O(h) for
    c = x^(2h) - x^h + 1 at m = 3*2^k.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return IntPoly((-2, 1))
    if m == 2:
        return IntPoly((2, 1))
    cyc = cyclotomic(m)
    h, c = cyc.degree // 2, cyc.coeffs
    if c[:h] != c[:h:-1]:
        raise AssertionError(f"cyclotomic({m}) is not palindromic")
    out = [0] * (h + 1)
    out[0] = c[h]
    for j in range(1, h + 1):
        if c[h + j]:
            cj = chebyshev_like(j).coeffs
            for i in range(j % 2, j + 1, 2):
                out[i] += c[h + j] * cj[i]
    return IntPoly(out)


def chebyshev_like(n: int) -> IntPoly:
    """C_n with C_0 = 2, C_1 = x, C_{n+1} = x*C_n - C_{n-1}; satisfies
    C_n(2*cos t) = 2*cos(n*t).

    Built from the closed form: for n >= 1 the coefficient of x^(n-2k) is
    a_k = (-1)^k * n/(n-k) * binom(n-k, k), and
    a_{k+1} = -a_k * (n-2k)*(n-2k-1) / ((k+1)*(n-k-1)), an exact division.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return IntPoly((2,))
    out = [0] * n + [1]
    a = 1
    for k in range(n // 2):
        a = -a * (n - 2 * k) * (n - 2 * k - 1) // ((k + 1) * (n - k - 1))
        out[n - 2 * k - 2] = a
    return IntPoly(out)


def psection_poly(p: int) -> IntPoly:
    """P(x, 0) for the multiple-angle polynomial P(x, a) of an odd prime p,
    with P(cos t, cos pt) = 0, so P(x, a) = P(x, 0) - a: degree p, leading
    coefficient 2^(p-1), x-coefficient (-1)^((p-1)/2) * p, and p divides
    every other coefficient, so Eisenstein at p certifies angles that
    cannot be p-sected.  Note the cos convention (not 2*cos).

    It is C_p of :func:`chebyshev_like` rescaled: 2*P(x, a) = C_p(2x) - 2a,
    so the x^i coefficient is 2^(i-1) * C_p[i].  C_p has only odd powers
    for odd p, so i >= 1 and every shift is exact.  At p = 3 this is the
    bridge to the trisection cubic: 2*P(x, a) = (2x)^3 - 3*(2x) - 2a.
    ``NotOddPrime`` for a p that is not an odd prime; the facts of
    :func:`verify_structure` are asserted on construction."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    poly = IntPoly([0] + [c << i for i, c in enumerate(chebyshev_like(p).coeffs[1:])])
    report = verify_structure(p, poly)
    if not report["ok"]:
        raise AssertionError(f"structural invariants failed for p={p}: {report}")
    return poly


def verify_structure(p: int, poly: IntPoly) -> dict:
    """Re-derive the three structural facts of the p-section polynomial
    independently and compare: the leading coefficient is the direct
    binomial sum over even lower indices (= 2^(p-1)), the x-coefficient is
    (-1)^q * p with q = (p-1)/2, and p divides every non-leading
    coefficient."""
    q = (p - 1) // 2
    binom_sum = sum(comb(p, 2 * k) for k in range(q + 1))
    leading_ok = poly.degree == p and poly.leading == binom_sum == 2 ** (p - 1)
    x_coeff_ok = poly[1] == (-1) ** q * p
    divis_ok = all(c % p == 0 for c in poly.coeffs[:-1])
    return {
        "p": p,
        "leading": poly.leading,
        "binomial_sum": binom_sum,
        "x_coeff": poly[1],
        "leading_ok": leading_ok,
        "x_coeff_ok": x_coeff_ok,
        "divisibility_ok": divis_ok,
        "ok": leading_ok and x_coeff_ok and divis_ok,
    }

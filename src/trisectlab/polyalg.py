"""Exact univariate polynomial algebra.

Dense polynomials with arbitrary-precision integer (:class:`IntPoly`) or
rational (:class:`RatPoly`) coefficients, stored ascending with no trailing
zero; the zero polynomial has degree -1.  On top of the ring arithmetic sit
the Eisenstein test, rational root finding, fraction-free Sylvester
resultants, cyclotomic polynomials, the minimal polynomials of 2*cos(2*pi/m),
and the Chebyshev-like doubling family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .errors import NotPrime


def is_prime(n: int) -> bool:
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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n >= 1."""
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


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    phi = n
    for p in factorize(n):
        phi = phi // p * (p - 1)
    return phi


def _trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, coefficients ascending."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(tuple(int(c) for c in coeffs)))

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly(())

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, c in enumerate(self.coeffs):
            if c:
                for j, e in enumerate(other.coeffs):
                    out[i + j] += c * e
        return IntPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return IntPoly((0,) * k + self.coeffs)

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

    def evaluate(self, x):
        """Horner evaluation; works for int, Fraction, or mpmath types."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "IntPoly") -> "IntPoly":
        acc = IntPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + IntPoly.const(c)
        return acc

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
        return RatPoly(tuple(Fraction(c) for c in self.coeffs))

    def __str__(self) -> str:
        return poly_text(self.coeffs)

    def coeff_strings(self) -> list[str]:
        """JSON encoding: ascending coefficients as decimal strings."""
        return [str(c) for c in self.coeffs]


@dataclass(frozen=True)
class RatPoly:
    """Dense rational polynomial, coefficients ascending."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(tuple(Fraction(c) for c in coeffs)))

    @staticmethod
    def zero() -> "RatPoly":
        return RatPoly(())

    @staticmethod
    def const(c) -> "RatPoly":
        return RatPoly((Fraction(c),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly(tuple(c * other for c in self.coeffs))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, c in enumerate(self.coeffs):
            if c:
                for j, e in enumerate(other.coeffs):
                    out[i + j] += c * e
        return RatPoly(out)

    __rmul__ = __mul__

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

    def evaluate(self, x):
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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

    def __str__(self) -> str:
        return poly_text(self.coeffs)

    def coeff_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]


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
    size = m + n
    zero = RatPoly.zero()
    mat = []
    arev = list(reversed(a))
    brev = list(reversed(b))
    for i in range(n):
        mat.append([zero] * i + arev + [zero] * (n - 1 - i))
    for i in range(m):
        mat.append([zero] * i + brev + [zero] * (m - 1 - i))
    return _bareiss_det(mat)


def resultant_minpoly(m: int, q, g: RatPoly) -> IntPoly:
    """Characteristic polynomial of g(beta) for beta a root of y^m - q,
    as a primitive integer polynomial of degree m in x.

    Computed as Res_y(y^m - q, g(y) - x) by fraction-free elimination of
    the Sylvester matrix.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if g.is_zero():
        raise ValueError("g must be nonzero")
    q = Fraction(q)
    f1 = [RatPoly.const(-q)] + [RatPoly.zero()] * (m - 1) + [RatPoly.const(1)]
    f2 = [RatPoly.const(c) for c in g.coeffs]
    f2[0] = RatPoly((g.coeffs[0], Fraction(-1)))
    res = sylvester_resultant(f1, f2)
    out, _ = res.clear_denominators()
    out = out.primitive()
    if out.degree != m:
        raise ValueError(f"resultant degree {out.degree} != {m}")
    return out


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial, via x^m - 1 = prod of cyclotomics
    over the divisors of m and exact division; degree phi(m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return IntPoly((-1, 1))
    num = IntPoly((-1,) + (0,) * (m - 1) + (1,))
    for e in divisors(m):
        if e < m:
            num = num.div_exact(cyclotomic(e))
    return num


@lru_cache(maxsize=None)
def cos_minimal_poly(m: int) -> IntPoly:
    """Minimal polynomial over Q of 2*cos(2*pi/m): monic, degree phi(m)/2
    for m >= 3 and degree 1 for m in {1, 2}.

    Extracted from the cyclotomic polynomial by the substitution
    x = z + 1/z, solved exactly coefficient by coefficient.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return IntPoly((-2, 1))
    if m == 2:
        return IntPoly((2, 1))
    h = euler_phi(m) // 2
    work = list(cyclotomic(m).coeffs)
    out = [0] * (h + 1)
    for j in range(h, -1, -1):
        c = work[h + j]
        out[j] = c
        if c:
            for i in range(j + 1):
                work[h - j + 2 * i] -= c * comb(j, i)
    if any(work):
        raise AssertionError(f"symmetric extraction failed for m={m}")
    return IntPoly(out)


def chebyshev_like(n: int) -> IntPoly:
    """C_n with C_0 = 2, C_1 = x, C_{n+1} = x*C_n - C_{n-1}; satisfies
    C_n(2*cos t) = 2*cos(n*t)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    prev, cur = IntPoly((2,)), IntPoly((0, 1))
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, cur.shift(1) - prev
    return cur

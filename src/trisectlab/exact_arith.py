"""Exact arithmetic for the rationals and real quadratic fields.

Rationals are carried by ``fractions.Fraction`` (already reduced, positive
denominator, zero is 0/1).  Elements of a real quadratic field with
squarefree radicand d are carried by :class:`QuadElem`, the canonical triple
(a1, a2, b) representing (a1 + a2*sqrt(d))/b with b > 0 and
gcd(a1, a2, b) = 1.  All comparisons are decided exactly by sign analysis
with a single squaring; no floating point is involved anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import (
    DegenerateBasis,
    NonSquarefreeRadicand,
    RadicandMismatch,
    ZeroDenominator,
)

def is_squarefree(d: int) -> bool:
    """True iff d >= 2 and no prime square divides d (trial division)."""
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


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def sign_lin(x: int, y: int, d) -> int:
    """Exact sign of x + y*sqrt(d) for integers x and y.

    Squares once when the two terms have opposite signs; valid whenever d
    is not a perfect square (so the sum vanishes only when x = y = 0).  d
    is never read when y = 0.
    """
    sx, sy = _sign(x), _sign(y)
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    return sx if x * x > d * y * y else sy


def floor_sqrt_multiple(v: int, d: int) -> int:
    """floor(v*sqrt(d)) for integers v and d >= 1, exact whether or not d
    is a perfect square."""
    if v >= 0:
        return isqrt(v * v * d)
    # -ceil(sqrt(n)) = -(isqrt(n - 1) + 1) for n >= 1
    return -isqrt(v * v * d - 1) - 1


@dataclass(frozen=True)
class QuadElem:
    """Canonical element (a1 + a2*sqrt(d))/b of the field Q(sqrt(d)).

    Invariants: d >= 2 squarefree, b > 0, gcd(a1, a2, b) = 1 (with
    gcd(0, n) = n).  Construct via :func:`canonicalize` or the arithmetic
    operators; direct construction validates but does not reduce.
    """

    a1: int
    a2: int
    b: int
    d: int

    def __post_init__(self):
        if self.b <= 0:
            raise ZeroDenominator(f"denominator must be positive, got {self.b}")
        if not is_squarefree(self.d):
            raise NonSquarefreeRadicand(f"radicand {self.d} not squarefree >= 2")
        if gcd(gcd(self.a1, self.a2), self.b) != 1:
            raise ValueError(f"non-canonical triple ({self.a1}, {self.a2}, {self.b})")

    @classmethod
    def from_rational(cls, x, d: int) -> "QuadElem":
        x = Fraction(x)
        return cls(x.numerator, 0, x.denominator, d)

    @property
    def is_rational(self) -> bool:
        return self.a2 == 0

    def as_fraction(self) -> Fraction:
        if self.a2 != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.a1, self.b)

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.d != self.d:
                raise RadicandMismatch(f"radicands {self.d} and {other.d} differ")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem.from_rational(other, self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return canonicalize(
            self.a1 * o.b + o.a1 * self.b,
            self.a2 * o.b + o.a2 * self.b,
            self.b * o.b,
            self.d,
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, QuadElem) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.a1, -self.a2, self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return canonicalize(
            self.a1 * o.a1 + self.d * self.a2 * o.a2,
            self.a1 * o.a2 + self.a2 * o.a1,
            self.b * o.b,
            self.d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.a1, -self.a2, self.b, self.d)

    def invert(self) -> "QuadElem":
        if self.a1 == 0 and self.a2 == 0:
            raise ZeroDivisionError("cannot invert zero")
        # 1/x = b*(a1 - a2*sqrt(d)) / (a1^2 - a2^2*d)
        norm = self.a1 * self.a1 - self.a2 * self.a2 * self.d
        return canonicalize(self.b * self.a1, -self.b * self.a2, norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.invert()

    def __pow__(self, n: int) -> "QuadElem":
        if n < 0:
            return self.invert() ** (-n)
        out = QuadElem.from_rational(1, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _cmp(self, other) -> int:
        """Exact sign of self - other."""
        o = self._coerce(other)
        # sign of (a1*ob - oa1*b) + (a2*ob - oa2*b) sqrt(d), positive denom
        u = self.a1 * o.b - o.a1 * self.b
        v = self.a2 * o.b - o.a2 * self.b
        return sign_lin(u, v, self.d)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __float__(self) -> float:
        return (self.a1 + self.a2 * self.d ** 0.5) / self.b

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"QuadElem({self.a1}, {self.a2}, {self.b}, d={self.d})"


def canonicalize(a1: int, a2: int, b: int, d: int) -> QuadElem:
    """Reduce the triple (a1, a2, b) over radicand d to canonical form.

    Sign is normalized into the numerators and the common factor removed;
    gcd(0, n) = n, so (0, 0, b) canonicalizes to zero.
    """
    if b == 0:
        raise ZeroDenominator("denominator is zero")
    if not is_squarefree(d):
        raise NonSquarefreeRadicand(f"radicand {d} not squarefree >= 2")
    if b < 0:
        a1, a2, b = -a1, -a2, -b
    g = gcd(gcd(a1, a2), b)
    return QuadElem(a1 // g, a2 // g, b // g, d)


def height(x) -> int:
    """Height of a canonical element: max of |numerator coordinates| and
    the denominator."""
    if isinstance(x, QuadElem):
        return max(abs(x.a1), abs(x.a2), x.b)
    x = Fraction(x)
    return max(abs(x.numerator), x.denominator)


def in_interval(x, lo, hi) -> bool:
    """True iff lo <= x <= hi as real numbers, decided exactly."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if isinstance(x, QuadElem):
        # x >= p/q  <=>  (q*a1 - p*b) + q*a2*sqrt(d) >= 0, and symmetrically
        p, q = lo.numerator, lo.denominator
        if sign_lin(q * x.a1 - p * x.b, q * x.a2, x.d) < 0:
            return False
        p, q = hi.numerator, hi.denominator
        return sign_lin(p * x.b - q * x.a1, -q * x.a2, x.d) >= 0
    x = Fraction(x)
    return lo <= x <= hi


@dataclass(frozen=True)
class FieldDescriptor:
    """A target field: the rationals or a real quadratic field Q(sqrt(d)).

    The default basis is {1} or {1, sqrt(d)}; every basis element must be
    >= 1 as a real number.
    """

    kind: str  # "rational" | "quadratic"
    d: int | None = None

    def __post_init__(self):
        if self.kind == "rational":
            if self.d is not None:
                raise ValueError("rational field takes no radicand")
        elif self.kind == "quadratic":
            if self.d is None or not is_squarefree(self.d):
                raise NonSquarefreeRadicand(f"radicand {self.d} not squarefree >= 2")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @property
    def degree(self) -> int:
        return 1 if self.kind == "rational" else 2

    @property
    def basis(self) -> tuple:
        """The fixed basis: {1} or {1, sqrt(d)}; every element is >= 1."""
        if self.kind == "rational":
            return (Fraction(1),)
        return (QuadElem(1, 0, 1, self.d), QuadElem(0, 1, 1, self.d))

    def basis_norm(self) -> float:
        """Product of the basis elements as a real number (1 or sqrt(d))."""
        return 1.0 if self.kind == "rational" else self.d ** 0.5

    def label(self) -> str:
        return "Q" if self.kind == "rational" else f"Q(sqrt({self.d}))"


RATIONAL_FIELD = FieldDescriptor("rational")


def quadratic_field(d: int) -> FieldDescriptor:
    return FieldDescriptor("quadratic", d)


def _basis_change_ints(w1: QuadElem, w2: QuadElem):
    """Integer data (n11, n12, n21, n22, delta) of the inverse change of
    basis, so that x = x1 + x2*sqrt(d) has coordinates
    c_i = (n_i1*x1 + n_i2*x2) / delta in the basis {w1, w2}.
    """
    if w1.d != w2.d:
        raise RadicandMismatch("basis vectors from different fields")
    # columns of the forward matrix as fractions
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


def height_in_basis(x: QuadElem, w1: QuadElem, w2: QuadElem) -> int:
    """Height of x in the basis {w1, w2} of Q(sqrt(d))."""
    n11, n12, n21, n22, delta = _basis_change_ints(w1, w2)
    return _height_from_change(x.a1, x.a2, x.b, n11, n12, n21, n22, delta)


def _height_from_change(a1, a2, b, n11, n12, n21, n22, delta) -> int:
    u1 = n11 * a1 + n12 * a2
    u2 = n21 * a1 + n22 * a2
    den = delta * b
    if den < 0:
        u1, u2, den = -u1, -u2, -den
    g = gcd(gcd(u1, u2), den)
    return max(abs(u1) // g, abs(u2) // g, den // g)


def verify_commensurability(d: int, alt_basis, R: int, ceiling: int = 1000):
    """Exhaustively compare the standard height with the height in
    ``alt_basis`` over all elements of standard height <= R.

    Returns (factor, ok): the smallest integer D with h2/D <= h1 <= D*h2
    across the sample, and whether D stays below ``ceiling``.
    """
    w1, w2 = alt_basis
    n11, n12, n21, n22, delta = _basis_change_ints(w1, w2)
    worst = Fraction(1)
    for b in range(1, R + 1):
        for a1 in range(-R, R + 1):
            for a2 in range(-R, R + 1):
                if gcd(gcd(a1, a2), b) != 1:
                    continue
                h1 = max(abs(a1), abs(a2), b)
                h2 = _height_from_change(a1, a2, b, n11, n12, n21, n22, delta)
                ratio = Fraction(max(h1, h2), min(h1, h2))
                if ratio > worst:
                    worst = ratio
    factor = -(-worst.numerator // worst.denominator)  # ceil
    return factor, factor <= ceiling


_QUAD_RE = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(\d+)$"
)
_RAT_RE = re.compile(r"^(-?\d+)\s*(?:/\s*(\d+))?$")


def format_element(x) -> str:
    """Canonical text form: "num/den" or "(a1+a2*sqrt(d))/b"."""
    if isinstance(x, QuadElem):
        if x.a2 == 0:
            return f"{x.a1}/{x.b}"
        sign = "+" if x.a2 >= 0 else "-"
        return f"({x.a1}{sign}{abs(x.a2)}*sqrt({x.d}))/{x.b}"
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_element(text: str, d: int | None = None):
    """Parse "num/den" (to Fraction) or "(a1+a2*sqrt(d))/b" (to QuadElem).

    A bare rational with ``d`` supplied is embedded into Q(sqrt(d)).
    """
    text = text.strip()
    m = _QUAD_RE.match(text)
    if m:
        a1, sgn, a2, dd, b = m.groups()
        a2 = int(a2) if sgn == "+" else -int(a2)
        if d is not None and d != int(dd):
            raise RadicandMismatch(f"expected radicand {d}, got {dd}")
        return canonicalize(int(a1), a2, int(b), int(dd))
    m = _RAT_RE.match(text)
    if m:
        num, den = m.groups()
        value = Fraction(int(num), int(den) if den else 1)
        if d is not None:
            return QuadElem.from_rational(value, d)
        return value
    raise ValueError(f"cannot parse element {text!r}")

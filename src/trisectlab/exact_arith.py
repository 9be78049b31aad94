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
from math import gcd

from .errors import CapExceeded, NonSquarefreeRadicand, RadicandMismatch, ZeroDenominator
from .polyalg import factorize

# Radicands d < 2^62, so that 8d lies in the domain of ``polyalg.factorize``;
# a larger one is refused with ``CapExceeded``.
MAX_RADICAND = 1 << 62


def is_squarefree(d: int) -> bool:
    """True iff d >= 2 and no prime square divides d, for d < ``MAX_RADICAND``
    (``CapExceeded`` past it), read off :func:`polyalg.factorize`."""
    if d < 2:
        return False
    if d >= MAX_RADICAND:
        raise CapExceeded(f"radicand {d} is past the domain d < 2^62")
    return max(factorize(d).values()) == 1


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


@dataclass(frozen=True)
class QuadElem:
    """Canonical element (a1 + a2*sqrt(d))/b of the field Q(sqrt(d)).

    Invariants: d >= 2 squarefree, b > 0, gcd(a1, a2, b) = 1 (with
    gcd(0, n) = n).  Construct via :func:`canonicalize` or the arithmetic
    operators; direct construction validates but does not reduce.  The
    radicand is checked where it enters (a direct construction,
    :func:`canonicalize`, :meth:`from_rational`, :func:`parse_element`,
    :class:`FieldDescriptor`); sums, products, inverses, negations and
    conjugates only reduce, through :func:`quad_from_canonical`.
    """

    a1: int
    a2: int
    b: int
    d: int

    def __post_init__(self):
        if self.b <= 0:
            raise ZeroDenominator(f"denominator must be positive, got {self.b}")
        _check_radicand(self.d)
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
            x = Fraction(other)
            return quad_from_canonical(x.numerator, 0, x.denominator, self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _reduce(
            self.a1 * o.b + o.a1 * self.b,
            self.a2 * o.b + o.a2 * self.b,
            self.b * o.b,
            self.d,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "QuadElem":
        return quad_from_canonical(-self.a1, -self.a2, self.b, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _reduce(
            self.a1 * o.a1 + self.d * self.a2 * o.a2,
            self.a1 * o.a2 + self.a2 * o.a1,
            self.b * o.b,
            self.d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadElem":
        return quad_from_canonical(self.a1, -self.a2, self.b, self.d)

    def invert(self) -> "QuadElem":
        if self.a1 == 0 and self.a2 == 0:
            raise ZeroDivisionError("cannot invert zero")
        # 1/x = b*(a1 - a2*sqrt(d)) / (a1^2 - a2^2*d)
        norm = self.a1 * self.a1 - self.a2 * self.a2 * self.d
        return _reduce(self.b * self.a1, -self.b * self.a2, norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.invert()

    def __pow__(self, n: int) -> "QuadElem":
        if n < 0:
            return self.invert() ** (-n)
        out = quad_from_canonical(1, 0, 1, self.d)
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


def _check_radicand(d: int) -> None:
    if not is_squarefree(d):
        raise NonSquarefreeRadicand(f"radicand {d} not squarefree >= 2")


_new = object.__new__


def quad_from_canonical(a1: int, a2: int, b: int, d: int) -> QuadElem:
    """The QuadElem (a1, a2, b, d) of a triple already canonical over a
    radicand already checked, built without ``__init__`` and
    ``__post_init__``: the same fields, so the same equality, hash and
    repr."""
    x = _new(QuadElem)
    fields = x.__dict__
    fields["a1"], fields["a2"], fields["b"], fields["d"] = a1, a2, b, d
    return x


def _reduce(a1: int, a2: int, b: int, d: int) -> QuadElem:
    """:func:`canonicalize` over a radicand already checked."""
    if b == 0:
        raise ZeroDenominator("denominator is zero")
    if b < 0:
        a1, a2, b = -a1, -a2, -b
    g = gcd(gcd(a1, a2), b)
    return quad_from_canonical(a1 // g, a2 // g, b // g, d)


def canonicalize(a1: int, a2: int, b: int, d: int) -> QuadElem:
    """Reduce the triple (a1, a2, b) over radicand d to canonical form,
    checking the radicand as a direct :class:`QuadElem` does.

    Sign is normalized into the numerators and the common factor removed;
    gcd(0, n) = n, so (0, 0, b) canonicalizes to zero.
    """
    x = _reduce(a1, a2, b, d)
    _check_radicand(d)
    return x


def height(x) -> int:
    """Height of a canonical element: max of |numerator coordinates| and
    the denominator."""
    if isinstance(x, QuadElem):
        return max(abs(x.a1), abs(x.a2), x.b)
    x = Fraction(x)
    return max(abs(x.numerator), x.denominator)


def in_interval(x, lo, hi) -> bool:
    """True iff lo <= x <= hi as real numbers, decided exactly.  Ints and
    Fractions (whose denominators are positive) compare by
    cross-multiplying numerators and denominators; other values of x, lo
    or hi are converted by ``Fraction`` first."""
    if not isinstance(lo, (int, Fraction)):
        lo = Fraction(lo)
    if not isinstance(hi, (int, Fraction)):
        hi = Fraction(hi)
    if isinstance(x, QuadElem):
        # x >= p/q  <=>  (q*a1 - p*b) + q*a2*sqrt(d) >= 0, and symmetrically
        p, q = lo.numerator, lo.denominator
        if sign_lin(q * x.a1 - p * x.b, q * x.a2, x.d) < 0:
            return False
        p, q = hi.numerator, hi.denominator
        return sign_lin(p * x.b - q * x.a1, -q * x.a2, x.d) >= 0
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    n, m = x.numerator, x.denominator
    return (lo.numerator * m <= n * lo.denominator
            and n * hi.denominator <= hi.numerator * m)


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

    def basis_norm(self) -> float:
        """Product of the basis elements as a real number (1 or sqrt(d))."""
        return 1.0 if self.kind == "rational" else self.d ** 0.5

    def label(self) -> str:
        return "Q" if self.kind == "rational" else f"Q(sqrt({self.d}))"


RATIONAL_FIELD = FieldDescriptor("rational")


def quadratic_field(d: int) -> FieldDescriptor:
    return FieldDescriptor("quadratic", d)


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
        den = int(den) if den else 1
        if den == 0:
            raise ZeroDenominator("denominator is zero")
        value = Fraction(int(num), den)
        if d is not None:
            return QuadElem.from_rational(value, d)
        return value
    raise ValueError(f"cannot parse element {text!r}")

"""Degrees of the cosine tower around pi/3 +- pi/2^n.

The quantities tracked are a_n = 2cos(pi/2^n), b_n = 2sin(pi/2^n),
c_n = 2cos(pi/3 + pi/2^n), d_n = 2cos(pi/3 - pi/2^n).  Degrees over Q come
from an independent cyclotomic oracle (2cos(2*pi*j/m) has degree phi(m)/2
for m >= 3), the doubling tower p_1 = x^2 - 2, p_n = p_1 ∘ p_{n-1} is
checked structurally and against the Chebyshev-like family, and the eight
standard identities linking a, b, c, d are verified exactly where the
values live in degree <= 2 fields and by certified interval arithmetic
beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import mpmath

from .errors import BadParameters, CapExceeded, NotCoprime
from .polyalg import (IntPoly, chebyshev_like, cos_minimal_poly, eisenstein_check, fixed_point_eval,
                      kronecker_square)

DEGREE_CAP = 4096


@dataclass(frozen=True)
class AngleNumber:
    """2cos(2*pi*j/m) for coprime j, m, with its minimal polynomial."""

    j: int
    m: int
    minimal_poly: IntPoly

    @property
    def degree(self) -> int:
        return self.minimal_poly.degree


def angle_number(j: int, m: int) -> AngleNumber:
    if m < 1 or j < 1:
        raise BadParameters("need positive j, m")
    if gcd(j, m) != 1:
        raise NotCoprime(f"gcd({j}, {m}) != 1")
    poly = cos_minimal_poly(m)
    num = AngleNumber(j=j, m=m, minimal_poly=poly)
    _verify_numeric_root(num)
    return num


# The minimal polynomial must vanish at 2cos(2*pi*j/m) to below 10^ROOT_TOL_EXP.
ROOT_TOL_EXP = -25


def _root_residual(num: AngleNumber) -> Fraction:
    """An upper bound on |minimal_poly(x)| at x = 2cos(2*pi*j/m): x from
    mpmath at F = bits + 2*degree + 200 bits (bits of the widest
    coefficient), truncated to F fraction bits, and the bound is |value| + E
    of :func:`fixed_point_eval`.  E is below 2^(bits + degree + log2(degree)
    - F) = degree * 2^(-degree - 200)."""
    poly = num.minimal_poly
    bits = max(abs(c).bit_length() for c in poly.coeffs)
    F = bits + 2 * poly.degree + 200
    with mpmath.workprec(F):
        X = int(mpmath.ldexp(2 * mpmath.cos(2 * mpmath.pi * num.j / num.m), F))
    value, err = fixed_point_eval(poly, X, F)
    return Fraction(abs(value) + err, 1 << F)


def _verify_numeric_root(num: AngleNumber) -> None:
    residual = _root_residual(num)
    if residual >= Fraction(10) ** ROOT_TOL_EXP:
        raise AssertionError(
            f"2cos(2*pi*{num.j}/{num.m}) misses its minimal polynomial by "
            f"{mpmath.nstr(mpmath.mpf(residual.numerator) / residual.denominator, 5)}"
        )


def angle_degree(j: int, m: int) -> int:
    """Degree over Q of 2cos(2*pi*j/m): phi(m)/2 for m >= 3, else 1; the
    minimal polynomial is built and its numeric root verified."""
    return angle_number(j, m).degree


def p_tower(n: int) -> IntPoly:
    """p_n = p_1 composed with itself n-1 times, p_1 = x^2 - 2; exact.

    Each p_n is even, p_n(x) = q_n(x^2), so p_n = p_(n-1)^2 - 2 is one
    squaring of q_(n-1), by :func:`kronecker_square`.
    """
    if n < 1:
        raise BadParameters("n must be >= 1")
    if n >= DEGREE_CAP.bit_length():  # 2^n > DEGREE_CAP, without forming 2^n
        raise CapExceeded(f"degree 2^{n} exceeds cap {DEGREE_CAP}")
    q = [-2, 1]
    for _ in range(n - 1):
        q = kronecker_square(q)
        q[0] -= 2
    coeffs = [0] * (2 * len(q) - 1)
    coeffs[::2] = q
    return IntPoly(coeffs)


def _compose_square_minus_2(x, k: int):
    for _ in range(k):
        x = x * x - 2
    return x


def tower_checks(n: int) -> dict:
    """Verify the tower polynomial p_n: the x^(2^n) + 2x*q(x) +- 2 shape,
    Eisenstein at 2, the descent p_k(a_n) = a_{n-k} (exactly where a_n has
    degree <= 2, by interval arithmetic elsewhere), and agreement with the
    Chebyshev-like family at index 2^n.  The interval a_n is formed once
    per working precision of this call."""
    poly = p_tower(n)
    shape_ok = (
        poly.leading == 1
        and abs(poly.coeffs[0]) == 2
        and all(c % 2 == 0 for c in poly.coeffs[:-1])
    )
    eis_ok = eisenstein_check(poly, 2)
    a_n = {}  # working precision -> the interval 2cos(pi/2^n)

    def top(iv):
        if iv.prec not in a_n:
            a_n[iv.prec] = 2 * iv.cos(iv.pi / 2 ** n)
        return a_n[iv.prec]

    descent = []
    for k in range(1, n + 1):
        if n <= 2:
            ok = p_tower(k).evaluate(TABLE["a"][n]) == TABLE["a"][n - k]
            descent.append({"k": k, "method": "exact", "ok": bool(ok)})
        else:
            # evaluate p_k through its defining composition; the expanded
            # monomial form cancels catastrophically near x = 2
            ok, width = _interval_zero(
                lambda iv, k=k: _compose_square_minus_2(top(iv), k)
                - 2 * iv.cos(iv.pi / 2 ** (n - k))
            )
            descent.append({"k": k, "method": "interval", "ok": ok, "width": width})
    cheb_ok = poly == chebyshev_like(2 ** n)
    all_ok = shape_ok and eis_ok and cheb_ok and all(r["ok"] for r in descent)
    return {
        "n": n,
        "shape_ok": shape_ok,
        "eisenstein_at_2": eis_ok,
        "descent": descent,
        "chebyshev_match": cheb_ok,
        "ok": all_ok,
    }


def cn_degree_check(n: int) -> dict:
    """2cos(pi/3 + pi/2^n) equals 2cos(2*pi*(2^n+3)/(3*2^(n+1))); its
    degree must be exactly 2^n = phi(m)/2, so n is capped first."""
    if n < 1:
        raise BadParameters("n must be >= 1")
    if n >= DEGREE_CAP.bit_length():
        raise CapExceeded(f"degree 2^{n} exceeds cap {DEGREE_CAP}")
    j, m = 2 ** n + 3, 3 * 2 ** (n + 1)
    g = gcd(j, m)
    j, m = j // g, m // g
    degree = angle_degree(j, m)
    return {"n": n, "j": j, "m": m, "degree": degree, "expected": 2 ** n, "ok": degree == 2 ** n}


class Biquad:
    """Exact arithmetic in Q(sqrt(2), sqrt(3)): (w + x*sqrt(2) + y*sqrt(3)
    + z*sqrt(6))/q with integer w, x, y, z and one denominator q > 0,
    reduced so that gcd(w, x, y, z, q) = 1; equal numbers have equal
    coordinates.  The constructor takes rational coordinates (ints,
    Fractions or strings such as "1/2").  Only the little that the n <= 2
    table needs."""

    __slots__ = ("w", "x", "y", "z", "q")

    def __init__(self, w=0, x=0, y=0, z=0):
        coords = (w, x, y, z)
        if all(type(t) is int for t in coords):
            self._set(w, x, y, z, 1)
            return
        coords = [Fraction(t) for t in coords]
        q = lcm(*(t.denominator for t in coords))
        self._set(*(t.numerator * (q // t.denominator) for t in coords), q)

    def _set(self, w: int, x: int, y: int, z: int, q: int) -> None:
        g = gcd(w, x, y, z, q)
        self.w, self.x, self.y, self.z, self.q = w // g, x // g, y // g, z // g, q // g

    @classmethod
    def _of(cls, w: int, x: int, y: int, z: int, q: int) -> "Biquad":
        out = cls.__new__(cls)
        out._set(w, x, y, z, q)
        return out

    def _coords(self) -> tuple[int, int, int, int, int]:
        return self.w, self.x, self.y, self.z, self.q

    def __eq__(self, other) -> bool:
        other = other if isinstance(other, Biquad) else Biquad(other)
        return self._coords() == other._coords()

    def __add__(self, other):
        other = other if isinstance(other, Biquad) else Biquad(other)
        w1, x1, y1, z1, q1 = self._coords()
        w2, x2, y2, z2, q2 = other._coords()
        return Biquad._of(w1 * q2 + w2 * q1, x1 * q2 + x2 * q1, y1 * q2 + y2 * q1,
                          z1 * q2 + z2 * q1, q1 * q2)

    __radd__ = __add__

    def __neg__(self):
        return Biquad._of(-self.w, -self.x, -self.y, -self.z, self.q)

    def __sub__(self, other):
        other = other if isinstance(other, Biquad) else Biquad(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = other if isinstance(other, Biquad) else Biquad(other)
        w1, x1, y1, z1, q1 = self._coords()
        w2, x2, y2, z2, q2 = other._coords()
        return Biquad._of(
            w1 * w2 + 2 * x1 * x2 + 3 * y1 * y2 + 6 * z1 * z2,
            w1 * x2 + x1 * w2 + 3 * (y1 * z2 + z1 * y2),
            w1 * y2 + y1 * w2 + 2 * (x1 * z2 + z1 * x2),
            w1 * z2 + z1 * w2 + x1 * y2 + y1 * x2,
            q1 * q2,
        )

    __rmul__ = __mul__

    def _ratio(self, t: int) -> tuple[int, int]:
        """t/q in lowest terms, denominator positive (0 is 0/1)."""
        g = gcd(t, self.q)
        return t // g, self.q // g

    def interval(self, iv):
        (wn, wd), (xn, xd), (yn, yd), (zn, zd) = map(self._ratio, (self.w, self.x, self.y, self.z))
        return (
            iv.mpf(wn) / wd
            + iv.mpf(xn) / xd * iv.sqrt(2)
            + iv.mpf(yn) / yd * iv.sqrt(3)
            + iv.mpf(zn) / zd * iv.sqrt(6)
        )

    def __repr__(self):
        terms = (Fraction(t, self.q) for t in (self.w, self.x, self.y, self.z))
        return "Biquad({}, {}, {}, {})".format(*terms)


SQRT3 = Biquad(0, 0, 1, 0)
HALF = Fraction(1, 2)

# table of exact values for n = 0, 1, 2
TABLE = {
    "a": {0: Biquad(-2), 1: Biquad(0), 2: Biquad(0, 1)},
    "b": {0: Biquad(0), 1: Biquad(2), 2: Biquad(0, 1)},
    "c": {0: Biquad(-1), 1: -SQRT3, 2: Biquad(0, HALF, 0, -HALF)},
    "d": {0: Biquad(-1), 1: SQRT3, 2: Biquad(0, HALF, 0, HALF)},
}

# (name, lhs(vals, n), rhs(vals, n)); vals[q][n] gives the quantity q at n,
# and vals supplies "root3" and "half" in whichever arithmetic is in play
IDENTITIES = (
    ("a-prev-is-a-squared-minus-2", lambda v, n: v["a"][n - 1], lambda v, n: v["a"][n] * v["a"][n] - 2),
    ("a-prev-is-2-minus-b-squared", lambda v, n: v["a"][n - 1], lambda v, n: 2 - v["b"][n] * v["b"][n]),
    ("b-prev-is-a-times-b", lambda v, n: v["b"][n - 1], lambda v, n: v["a"][n] * v["b"][n]),
    ("c-is-half-a-minus-half-root3-b", lambda v, n: v["c"][n],
     lambda v, n: (v["a"][n] - v["root3"] * v["b"][n]) * v["half"]),
    ("d-is-half-a-plus-half-root3-b", lambda v, n: v["d"][n],
     lambda v, n: (v["a"][n] + v["root3"] * v["b"][n]) * v["half"]),
    ("d-prev-is-2-minus-c-squared", lambda v, n: v["d"][n - 1], lambda v, n: 2 - v["c"][n] * v["c"][n]),
    ("a-prev-is-c-times-d-plus-1", lambda v, n: v["a"][n - 1], lambda v, n: v["c"][n] * v["d"][n] + 1),
    ("c-prev-is-2-minus-d-squared", lambda v, n: v["c"][n - 1], lambda v, n: 2 - v["d"][n] * v["d"][n]),
)

EXACT_TABLE = {**TABLE, "root3": SQRT3, "half": Biquad(HALF)}


def _interval_values(iv, N: int) -> dict:
    pi = iv.pi
    vals = {"a": {}, "b": {}, "c": {}, "d": {}, "root3": iv.sqrt(3), "half": iv.mpf(0.5)}
    for n in range(N + 1):
        t = pi / 2 ** n
        vals["a"][n] = 2 * iv.cos(t)
        vals["b"][n] = 2 * iv.sin(t)
        vals["c"][n] = 2 * iv.cos(pi / 3 + t)
        vals["d"][n] = 2 * iv.cos(pi / 3 - t)
    return vals


def _interval_zero(make_residual, prec: int = 100, retry_prec: int = 200):
    """Evaluate a residual in interval arithmetic; certified zero iff the
    interval contains 0 with width below 2^-64.  One retry at higher
    precision on an indeterminate answer."""
    iv = mpmath.iv
    for p in (prec, retry_prec):
        old = iv.prec
        try:
            iv.prec = p
            res = make_residual(iv)
            width = float(res.delta)
            if 0 in res and width < 2.0 ** -64:
                return True, width
        finally:
            iv.prec = old
    return False, width


def identity_suite(N: int) -> dict:
    """Check all eight identities for 1 <= n <= N: exactly over
    Q(sqrt(2), sqrt(3)) while every quantity lives there (n <= 2), by
    certified interval arithmetic beyond; also re-derives the tabulated
    values for n <= 2 against their defining cosines.  The interval values
    for n <= max(N, 2) are built once per working precision of this call:
    the value at n depends only on n and the precision."""
    if N < 1:
        raise BadParameters("N must be >= 1")
    tables = {}

    def values(iv) -> dict:
        if iv.prec not in tables:
            tables[iv.prec] = _interval_values(iv, max(N, 2))
        return tables[iv.prec]

    records = []
    table_ok = True
    for name, col in TABLE.items():
        for n, exact in col.items():
            ok, width = _interval_zero(
                lambda iv, name=name, n=n, exact=exact: exact.interval(iv) - values(iv)[name][n]
            )
            table_ok = table_ok and ok
            records.append(
                {"check": f"table-{name}{n}", "n": n, "method": "interval", "ok": ok, "width": width}
            )
    for n in range(1, N + 1):
        if n <= 2:
            for name, lhs, rhs in IDENTITIES:
                got_l, got_r = lhs(EXACT_TABLE, n), rhs(EXACT_TABLE, n)
                ok = got_l == got_r
                records.append({"check": name, "n": n, "method": "exact", "ok": bool(ok)})
        else:
            for name, lhs, rhs in IDENTITIES:
                ok, width = _interval_zero(
                    lambda iv, n=n, lhs=lhs, rhs=rhs: lhs(values(iv), n) - rhs(values(iv), n)
                )
                records.append(
                    {"check": name, "n": n, "method": "interval", "ok": ok, "width": width}
                )
    all_ok = table_ok and all(r["ok"] for r in records)
    max_width = max((r.get("width", 0.0) for r in records), default=0.0)
    return {"N": N, "records": records, "max_width": max_width, "ok": all_ok}

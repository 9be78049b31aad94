"""Degrees of the cosine tower around pi/3 +- pi/2^n.

The quantities tracked are a_n = 2cos(pi/2^n), b_n = 2sin(pi/2^n),
c_n = 2cos(pi/3 + pi/2^n), d_n = 2cos(pi/3 - pi/2^n).  Degrees over Q come
from an independent cyclotomic oracle (2cos(2*pi*j/m) has degree phi(m)/2
for m >= 3), the doubling tower p_1 = x^2 - 2, p_n = p_1 ∘ p_{n-1} is
checked structurally and against the Chebyshev-like family, and the eight
standard identities linking a, b, c, d are verified: exactly for n <= 2,
where every value lies in Q(zeta_24), and by certified interval arithmetic
beyond that.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import mpmath

from .errors import BadParameters, CapExceeded, NotCoprime
from .polyalg import (IntPoly, chebyshev_like, cos_minimal_poly, eisenstein_check, fixed_point_eval,
                      kronecker_square)

DEGREE_CAP = 4096


# The minimal polynomial must vanish at 2cos(2*pi*j/m) to below 10^ROOT_TOL_EXP.
ROOT_TOL_EXP = -25


def _root_residual(poly: IntPoly, j: int, m: int) -> Fraction:
    """An upper bound on |poly(x)| at x = 2cos(2*pi*j/m): x from mpmath at
    F = bits + 2*degree + 200 bits (bits of the widest coefficient),
    truncated to F fraction bits, and the bound is |value| + E of
    :func:`fixed_point_eval`.  E is below 2^(bits + degree + log2(degree)
    - F) = degree * 2^(-degree - 200)."""
    bits = max(abs(c).bit_length() for c in poly.coeffs)
    F = bits + 2 * poly.degree + 200
    with mpmath.workprec(F):
        X = int(mpmath.ldexp(2 * mpmath.cos(2 * mpmath.pi * j / m), F))
    value, err = fixed_point_eval(poly, X, F)
    return Fraction(abs(value) + err, 1 << F)


def angle_degree(j: int, m: int) -> int:
    """Degree over Q of 2cos(2*pi*j/m) for coprime j, m: phi(m)/2 for
    m >= 3, else 1; the minimal polynomial is built and its numeric root
    verified."""
    if m < 1 or j < 1:
        raise BadParameters("need positive j, m")
    if gcd(j, m) != 1:
        raise NotCoprime(f"gcd({j}, {m}) != 1")
    poly = cos_minimal_poly(m)
    residual = _root_residual(poly, j, m)
    if residual >= Fraction(10) ** ROOT_TOL_EXP:
        raise AssertionError(
            f"2cos(2*pi*{j}/{m}) misses its minimal polynomial by "
            f"{mpmath.nstr(mpmath.mpf(residual.numerator) / residual.denominator, 5)}"
        )
    return poly.degree


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
    Eisenstein at 2, the descent p_k(a_n) = a_{n-k} (exactly in Q(zeta_24)
    for n <= 2, by interval arithmetic beyond), and agreement with the
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
            ok = p_tower(k).evaluate(EXACT_TABLE["a"][n]) == EXACT_TABLE["a"][n - k]
            descent.append({"k": k, "method": "exact", "ok": ok})
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


class Cyclo:
    """A number of Q(zeta_M), M = 3*2^(n+1) = 6H, as a sparse dict from
    exponent k < D = 2H to the nonzero coefficient of zeta^k, a Fraction
    or, when integral, an int.  Phi_M = x^D - x^H + 1 and 1, zeta, ...,
    zeta^(D-1) is a basis, so the constructor reduces sum(c * zeta^k for
    k, c in pairs), any integer k, by zeta^(3H) = -1 and zeta^k =
    zeta^(k-H) - zeta^(k-D), and equal numbers have equal dicts.  A scalar
    (int or Fraction) adds, multiplies and compares without the
    reduction."""

    __slots__ = ("H", "terms")

    def __init__(self, H: int, pairs=()):
        terms, M, D = {}, 6 * H, 2 * H
        for k, c in pairs:
            k %= M
            if k >= D + H:
                k, c = k - D - H, -c
            if k >= D:
                terms[k - H] = terms.get(k - H, 0) + c
                k, c = k - D, -c
            terms[k] = terms.get(k, 0) + c
        self.H, self.terms = H, {k: c if type(c) is int or c.denominator > 1 else c.numerator
                                 for k, c in terms.items() if c}

    @classmethod
    def _of(cls, H: int, terms: dict) -> "Cyclo":
        out = cls.__new__(cls)
        out.H, out.terms = H, terms
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclo):
            return self.terms == other.terms
        return self.terms == ({0: other} if other else {})

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in (other.terms.items() if isinstance(other, Cyclo) else ((0, other),)):
            c += terms.get(k, 0)
            if c:
                terms[k] = c
            else:
                terms.pop(k, None)
        return Cyclo._of(self.H, terms)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo._of(self.H, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyclo):
            return Cyclo(self.H, [(k + l, c * d) for k, c in self.terms.items()
                                  for l, d in other.terms.items()])
        p, q = other.numerator, other.denominator  # integral products stay ints
        return Cyclo._of(self.H, {k: c * p // q if c * p % q == 0 else Fraction(c * p, q)
                                  for k, c in self.terms.items()} if p else {})

    __rmul__ = __mul__


def _biquad(w, x, y, z) -> Cyclo:
    """w + x*sqrt(2) + y*sqrt(3) + z*sqrt(6) in Q(zeta_24): sqrt(2) =
    zeta^3 + zeta^-3, sqrt(3) = zeta^2 + zeta^-2 and sqrt(6), their
    product, = zeta + zeta^-1 + zeta^5 + zeta^-5."""
    return Cyclo(4, [(0, w), (3, x), (-3, x), (2, y), (-2, y), (1, z), (-1, z), (5, z), (-5, z)])


def _coords_interval(coords, iv):
    """The interval w + x*sqrt(2) + y*sqrt(3) + z*sqrt(6) of rational
    coordinates (w, x, y, z), each as numerator over denominator in lowest
    terms."""
    w, x, y, z = (iv.mpf(t.numerator) / t.denominator for t in coords)
    return w + x * iv.sqrt(2) + y * iv.sqrt(3) + z * iv.sqrt(6)


HALF = Fraction(1, 2)

# exact values for n = 0, 1, 2 as coordinates (w, x, y, z) of
# w + x*sqrt(2) + y*sqrt(3) + z*sqrt(6)
TABLE = {
    "a": {0: (-2, 0, 0, 0), 1: (0, 0, 0, 0), 2: (0, 1, 0, 0)},
    "b": {0: (0, 0, 0, 0), 1: (2, 0, 0, 0), 2: (0, 1, 0, 0)},
    "c": {0: (-1, 0, 0, 0), 1: (0, 0, -1, 0), 2: (0, HALF, 0, -HALF)},
    "d": {0: (-1, 0, 0, 0), 1: (0, 0, 1, 0), 2: (0, HALF, 0, HALF)},
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

EXACT_TABLE = {**{name: {n: _biquad(*coords) for n, coords in col.items()}
                  for name, col in TABLE.items()},
               "root3": _biquad(0, 0, 1, 0), "half": HALF}


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
    """Check all eight identities for 1 <= n <= N: exactly in Q(zeta_24)
    while every quantity lives there (n <= 2), by certified interval
    arithmetic beyond; also re-derives the tabulated
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
        for n, coords in col.items():
            ok, width = _interval_zero(
                lambda iv, name=name, n=n, coords=coords:
                _coords_interval(coords, iv) - values(iv)[name][n]
            )
            table_ok = table_ok and ok
            records.append(
                {"check": f"table-{name}{n}", "n": n, "method": "interval", "ok": ok, "width": width}
            )
    for n in range(1, N + 1):
        if n <= 2:
            for name, lhs, rhs in IDENTITIES:
                ok = lhs(EXACT_TABLE, n) == rhs(EXACT_TABLE, n)
                records.append({"check": name, "n": n, "method": "exact", "ok": ok})
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

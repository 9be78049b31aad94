"""Trisection-number decision and its certificates.

A number a in [-2, 2] is accepted when the cubic x^3 - 3x - a has a root in
the ambient field, witnessed by an explicit beta with f(beta) = a where
f(x) = x^3 - 3x.  The decision is the cube-denominator argument: the
denominator of a and the factorization of 8d fix at most two candidate
denominators of a root, and for each one the numerator coordinates follow
from the integer floors of the real roots of two integer cubics.  Those
floors take O(log digits) safeguarded integer Newton steps, never more than
bisection, so the cost grows with the number of digits of a, not with its
height.

This module also owns every certificate kind: Eisenstein refusals of
a = 3r/s, Yates Bezout pairs, the square-family check, odd-degree
non-constructible witnesses and p-section refusals.  ``_CERT_KINDS`` is
the one table of kinds, each with the exact key set of its data, so
``Certificate.verify`` covers every kind whatever else was imported.  It
refuses any integer of more than ``CERT_MAX_DIGITS`` digits, and verifiers
that re-run a producer refuse parameters past a module cap, with
``CapExceeded``.

Everything here is integer arithmetic: the module imports neither numpy nor
``height_enum``, whose density experiment and image-gcd sweep build on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import BadParameters, CapExceeded, GcdBoundViolated, OutOfRange
from .exact_arith import (
    RATIONAL_FIELD,
    FieldDescriptor,
    QuadElem,
    canonicalize,
    format_element,
    height,
    in_interval,
    quad_from_canonical,
    quadratic_field,
    sign_lin,
)
from .polyalg import (IntPoly, RatPoly, eisenstein_check, factorize, fixed_point_eval, is_prime,
                      psection_poly, resultant_minpoly, squarefree_over_q)

F_CUBIC = RatPoly((0, -3, 0, 1))  # y^3 - 3y


def icbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 0, by integer Newton iteration.

    The start 2^ceil(bits/3) exceeds the root.  By AM-GM each step
    floor((2x + floor(n/x^2))/3) stays >= floor(n^(1/3)), and it strictly
    decreases while x^3 > n, so the first step that fails to decrease
    leaves x at the floor.
    """
    if n < 0:
        raise ValueError("icbrt needs n >= 0")
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def ceil_cbrt(x) -> int:
    """Smallest integer c with c^3 >= x, for positive rational x."""
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    c = icbrt(p // q)
    while c * c * c * q < p:
        c += 1
    return c


@dataclass(frozen=True)
class ImageTriple:
    """Unreduced image coordinates of f over a quadratic field: f(x) equals
    (A1 + A2*sqrt(d))/B before dividing out G = gcd(A1, A2, B)."""

    A1: int
    A2: int
    B: int
    G: int


@dataclass(frozen=True)
class Certificate:
    """Self-contained exact evidence; ``verify()`` re-checks it from the
    stored integers alone."""

    kind: str
    data: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "data": self.data}

    def verify(self) -> bool:
        """True iff the data has exactly its kind's keys and re-checks; an
        unknown kind, or one that is not a str, raises ``BadParameters``,
        and an int field past ``CERT_MAX_DIGITS`` digits ``CapExceeded``."""
        entry = _CERT_KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if entry is None:
            raise BadParameters(f"unknown certificate kind {self.kind!r}")
        keys, verifier = entry
        if not isinstance(self.data, dict) or self.data.keys() != keys:
            return False
        for key, value in self.data.items():
            if type(value) is int:
                _check_digits(value, f"certificate field {key!r}")
        return verifier(self.data)


@dataclass(frozen=True)
class TrisectionVerdict:
    member: bool
    witness: object = None  # Fraction | QuadElem | None
    method: str = ""
    certificate: Certificate | None = None
    search_bound: Fraction | None = None

    def to_dict(self) -> dict:
        return {
            "member": self.member,
            "witness": format_element(self.witness) if self.witness is not None else None,
            "method": self.method,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "search_bound": str(self.search_bound) if self.search_bound is not None else None,
        }


def raw_image(x: QuadElem) -> ImageTriple:
    """Expand f(x) = x^3 - 3x over the basis {1, sqrt(d)} without reducing.

    The gcd G of the three coordinates always divides 8d; anything else
    would be a defect, not an input error.
    """
    b, d = x.b, x.d
    A1, A2 = _image_coords(x.a1, x.a2, b, d)
    B = b * b * b
    G = gcd(gcd(A1, A2), B)
    if (8 * d) % G != 0:
        raise GcdBoundViolated(f"gcd {G} of image of {x} does not divide {8 * d}")
    return ImageTriple(A1, A2, B, G)


def apply_f(x):
    """Canonical f(x) = x^3 - 3x."""
    if isinstance(x, QuadElem):
        t = raw_image(x)
        return canonicalize(t.A1, t.A2, t.B, x.d)
    x = Fraction(x)
    return x * x * x - 3 * x


def _image_coords(x1, x2, b, d: int):
    """A1, A2 of f((x1 + x2*sqrt(d))/b) = (A1 + A2*sqrt(d))/b^3, the
    expansion behind :func:`raw_image`, over ints or arrays that broadcast."""
    bb, s1, s2 = 3 * b * b, x1 * x1, d * x2 * x2
    return x1 * (s1 + 3 * s2 - bb), x2 * (3 * s1 + s2 - bb)


def preimage_bound(field: FieldDescriptor, R) -> Fraction:
    """Height bound S with f(K) ∩ B(R) ⊆ f(B(S)): the cube root in
    2*R^(1/3) (rationals) or 2*(8dR)^(1/3) (quadratic) is rounded up to an
    integer so the inclusion never hinges on rounding."""
    R = Fraction(R)
    if R <= 0:
        raise BadParameters("R must be positive")
    if field.degree == 1:
        return Fraction(ceil_cbrt(8 * R))
    return Fraction(ceil_cbrt(64 * field.d * R))


def _newton_floor(x: int, c3: int, P: int, floor_q: int) -> int:
    """floor of the Newton point x - g(x)/g'(x) of g(t) = t^3 - c3*t - (P +
    Q*sqrt(d)) from an integer x with x^2 > c3/3, where floor_q =
    floor(Q*sqrt(d)).  The point is (2x^3 + P + Q*sqrt(d))/(3x^2 - c3), with
    a positive denominator, and floor((n + r)/D) = floor((n + floor(r))/D)
    for integers n, D > 0 and real r, so the floor is exact."""
    xx = x * x
    return (2 * xx * x + P + floor_q) // (3 * xx - c3)


def _upper_floor(c: int, P: int, Q: int, d, M: int, sign_c: int) -> tuple[int, bool]:
    """floor(t) for the root t in [c, M] of g(t) = t^3 - 3c^2*t - (P +
    Q*sqrt(d)), given sign_c = sign g(c) <= 0 and g(M) >= 0, and whether t
    is that integer exactly.

    Keeps a bracket lo <= floor(t) <= hi with g(lo) <= 0.  On [c, oo) g is
    increasing and convex (g'' = 6t > 0), so a Newton step from hi with
    g(hi) > 0 lands at or above t: its floor y is still >= floor(t), and
    y < hi.  When y fails to halve hi - lo, one bisection step on [lo, y]
    follows, so every iteration at least halves the bracket and no input
    takes more iterations than bisection over [c, M].  Near a simple root
    the Newton steps alone converge quadratically, in O(log digits) steps.

    The search starts at hi = M, or at hi = min(M, c + e0) when
    n = 2c^3 + P + floor(Q*sqrt(d)) + 1 has fewer than 3*bitlen(c) - 2
    bits (so n < c^3), with e0 = isqrt(ceil(n/(3c))) + 1.  Since
    g(c + e) = e^2*(e + 3c) + g(c) >= 3c*e^2 + g(c) for e >= 0, and
    -g(c) = 2c^3 + P + Q*sqrt(d) < n < 3c*e0^2, g(hi) >= 0, so the bracket
    holds.  For a root close to the turning point c (a near-double root, as
    at a = 2 - 1/c^3) -g(c) is small and c + e0 close to t, so Newton from
    there does not first halve its way down from M.  With n > c^3/8 the
    root is a simple one well above c, where Newton from M converges anyway
    and e0's division and square root would be spent for little.
    """
    c3 = 3 * c * c
    floor_q = 0 if not Q else isqrt(Q * Q * d) if Q > 0 else -isqrt(Q * Q * d) - 1
    # g(c) = 0 makes c a double root, the branch's only root
    lo, hi, sign_lo = c, M if sign_c else c, sign_c
    n = 2 * c * c * c + P + floor_q + 1
    if sign_c and n.bit_length() < 3 * c.bit_length() - 2:
        hi = min(M, c + isqrt(-(-n // (3 * c))) + 1)
    while lo < hi:
        sign_hi = sign_lin(hi * (hi * hi - c3) - P, -Q, d)
        if sign_hi <= 0:  # g(hi) <= 0 <= g(t) with floor(t) <= hi
            return hi, sign_hi == 0
        y = _newton_floor(hi, c3, P, floor_q)
        if 2 * (y - lo) > hi - lo:
            mid = (lo + y + 1) // 2
            sign_mid = sign_lin(mid * (mid * mid - c3) - P, -Q, d)
            if sign_mid <= 0:
                lo, sign_lo = mid, sign_mid
            else:
                y = mid - 1
        hi = y
    return lo, sign_lo == 0


def _root_floors(c: int, P: int, Q: int, d) -> list[int]:
    """Sorted floors of the real roots of g(t) = t^3 - 3c^2*t - (P + Q*sqrt(d))
    for c >= 1 (d is unused when Q = 0), found in O(log digits) Newton
    steps, never more than bisection.

    g has its turning points at -c and c, so each of its three monotone
    branches holds at most one root, and every root lies in [-M, M] with
    M = max(2c, (4|P + Q*sqrt(d)|)^(1/3)) (beyond 2c, |t^3 - 3c^2*t| >=
    |t|^3/4).  Every sign of g(k) = (k^3 - 3c^2*k - P) - Q*sqrt(d) is decided
    exactly by :func:`sign_lin`.

    - Right root t3 (when g(c) <= 0): :func:`_upper_floor`, safeguarded
      integer Newton from M down the convex increasing branch.
    - Left root t1 (when g(-c) >= 0): -t1 is the root in [c, M] of the
      mirrored cubic -g(-u) = u^3 - 3c^2*u + P + Q*sqrt(d), found the same
      way; its floor r maps back to floor(t1) = -r when -t1 = r exactly and
      -r - 1 otherwise.
    - Middle root t2 (when both exist): the cubic has no t^2 term, so
      t2 = -(t1 + t3), and f1 + f3 <= t1 + t3 < f1 + f3 + 2 for the floors
      f1, f3 leaves floor(t2) among the three integers at or below
      -f1 - f3, clipped to c.  g decreases on [-c, c], so the floor is the
      first of them from the top with g >= 0: at most two sign tests.

    A double root at a turning point is reported once.
    """
    c3 = 3 * c * c
    N = abs(P) + (abs(Q) * (isqrt(d) + 1) if Q else 0)  # >= |P + Q*sqrt(d)|
    M = max(2 * c, icbrt(4 * N) + 1)
    twice_cube = 2 * c * c * c
    at_left = sign_lin(twice_cube - P, -Q, d)  # sign g(-c)
    at_right = sign_lin(-twice_cube - P, -Q, d)  # sign g(c)
    floors = set()
    if at_right <= 0:
        f3 = _upper_floor(c, P, Q, d, M, at_right)[0]
        floors.add(f3)
    if at_left >= 0:
        r, exact = _upper_floor(c, -P, -Q, d, M, -at_left)
        f1 = -r if exact else -r - 1
        floors.add(f1)
        if at_right <= 0:
            k = min(-f1 - f3, c)
            for _ in range(2):
                if sign_lin(k * (k * k - c3) - P, -Q, d) >= 0:
                    break
                k -= 1
            floors.add(k)
    return sorted(floors)


def _try_eisenstein_cert(a: Fraction) -> Certificate | None:
    """Certificate for a = 3r/s when the divisibility preconditions hold."""
    p, q = a.numerator, a.denominator
    if p == 0 or p % 3 != 0 or (p // 3) % 3 == 0 or q % 3 == 0:
        return None
    try:
        return eisenstein_cert_3rs(p // 3, q)
    except BadParameters:
        return None


def _decide_rational(a: Fraction) -> TrisectionVerdict:
    """Cube-denominator fast path: a = p/q is an image of a rational r/s in
    lowest terms exactly when q = s^3 (the image (r^3 - 3rs^2)/s^3 is
    already reduced) and r is an integer root of t^3 - 3s^2*t - p."""
    p, q = a.numerator, a.denominator
    s = icbrt(q)
    if s * s * s == q:
        for r in _root_floors(s, p, 0, None):
            if _image_coords(r, 0, s, 1)[0] == p:
                return TrisectionVerdict(True, Fraction(r, s), "rational-fast-path")
    return TrisectionVerdict(
        False, None, "rational-fast-path", certificate=_try_eisenstein_cert(a)
    )


def _gcd_candidates(beta: int, d: int) -> list[int]:
    """The divisors G of 8d with v_p(G) = -v_p(beta) mod 3 at every prime p
    of 8d: at most two, and every G | 8d with G*beta a cube among them
    (the argument is in :func:`_quadratic_preimage`)."""
    candidates = [1]
    for p, e in factorize(8 * d).items():
        v, rest = 0, beta
        while rest % p == 0:
            v, rest = v + 1, rest // p
        candidates = [G * p ** k for G in candidates for k in range(-v % 3, e + 1, 3)]
    return candidates


def _quadratic_preimage(a: QuadElem) -> QuadElem | None:
    """The preimage of a under f in Q(sqrt(d)) that is smallest in
    (denominator, a2, a1), or None when a has no preimage.

    Completeness.  Let x = (b1 + b2*sqrt(d))/c be a canonical preimage of
    the canonical a = (alpha1 + alpha2*sqrt(d))/beta.  By :func:`raw_image`
    f(x) = (A1 + A2*sqrt(d))/c^3 with G = gcd(A1, A2, c^3) dividing 8d, so
    c^3 = G*beta for a divisor G of 8d.  At each prime p of 8d that reads
    v_p(G) = -v_p(beta) mod 3 with 0 <= v_p(G) <= v_p(8d).  As d is
    squarefree, v_p(8d) = 1 at an odd p | d: v_p(G) is forced to 0 or 1, or
    no value fits and a has no preimage.  v_2(8d) <= 4 leaves at most two
    values at p = 2.  So at most two candidates G remain
    (:func:`_gcd_candidates`), each one cube test, which checks
    v_p(beta) = 0 mod 3 at every other prime.  For such c,
    y = b1 + b2*sqrt(d) satisfies y^3 - 3c^2*y = G*(alpha1 + alpha2*sqrt(d)),
    and by conjugation y' = b1 - b2*sqrt(d) is a real root of the conjugate
    cubic.  With
    k = floor(y) and k' = floor(y') (found by :func:`_root_floors`),
    k + k' <= 2*b1 < k + k' + 2 leaves b1 = ceil((k + k')/2), and
    |2*b2*sqrt(d) - (k - k')| < 1 leaves b2 = sign(k - k') times
    floor(|k - k'|/(2 sqrt(d))) or one more.  A candidate is accepted only
    when both integer coordinate equations A1 = G*alpha1 and A2 = G*alpha2
    hold, which is f(x) = a exactly.  So every preimage is found and
    nothing else is; only integers are used, so no precision bound enters.
    """
    alpha1, alpha2, beta, d = a.a1, a.a2, a.b, a.d
    found = []
    for G in _gcd_candidates(beta, d):
        c = icbrt(G * beta)
        if c * c * c != G * beta:
            continue
        P1, P2, c2 = G * alpha1, G * alpha2, c * c
        floors = _root_floors(c, P1, P2, d)
        # the conjugate cubic's floors, the same cubic for rational a
        conjugate_floors = floors if P2 == 0 else _root_floors(c, P1, -P2, d)
        for k in floors:
            for kc in conjugate_floors:
                b1 = -((-k - kc) // 2)
                m = k - kc
                j = isqrt(m * m // (4 * d))
                for b2 in (j, j + 1) if m >= 0 else (-j, -j - 1):
                    # :func:`_image_coords` written out, so that the many
                    # candidates failing A1 = P1 skip computing A2
                    if (
                        b1 * (b1 * b1 + 3 * d * b2 * b2 - 3 * c2) == P1
                        and b2 * (3 * b1 * b1 + d * b2 * b2 - 3 * c2) == P2
                        and gcd(gcd(b1, b2), c) == 1
                    ):
                        found.append((c, b2, b1))
    if not found:
        return None
    c, b2, b1 = min(found)
    return quad_from_canonical(b1, b2, c, d)  # c >= 1 and the gcd were tested


def decide_trisection(a, field: FieldDescriptor | None = None) -> TrisectionVerdict:
    """Decide membership of a (in [-2, 2]) with an exact witness or a
    sound refusal.

    Over the rationals the denominator of a must be a cube s^3 and the
    witness numerator an integer root of one cubic.  Over Q(sqrt(d)) the
    witness comes from :func:`_quadratic_preimage`, the same argument with
    the at most two candidate denominators allowed by the image gcd bound;
    rational a goes through it too (its witness may be irrational, as
    -sqrt(3) for a = 0 over Q(sqrt(3))).  Both paths find their root
    floors in O(log digits) Newton steps, never more than bisection, each
    step a few products of numbers of that many digits.  ``search_bound``
    is the proven preimage height bound S(height(a)) that every witness
    satisfies; a non-member with rational a = 3r/s carries an Eisenstein
    certificate when one applies.
    """
    if isinstance(a, QuadElem):
        if field is not None and (field.degree != 2 or field.d != a.d):
            raise BadParameters("element and field disagree")
        field = field or quadratic_field(a.d)
    else:
        a = Fraction(a)
        if field is None:
            field = RATIONAL_FIELD
    if not in_interval(a, -2, 2):
        raise OutOfRange(f"{a} lies outside [-2, 2]")
    if field.degree == 1:
        return _decide_rational(a)
    if not isinstance(a, QuadElem):  # the field checked its radicand
        a = quad_from_canonical(a.numerator, 0, a.denominator, field.d)
    S = preimage_bound(field, height(a))
    beta = _quadratic_preimage(a)
    if beta is not None:
        return TrisectionVerdict(True, beta, "cube-denominator", search_bound=S)
    cert = _try_eisenstein_cert(a.as_fraction()) if a.is_rational else None
    return TrisectionVerdict(False, None, "cube-denominator", certificate=cert, search_bound=S)


def eisenstein_cert_3rs(r: int, s: int) -> Certificate:
    """Certificate that s*x^3 - 3s*x - 3r (the cleared form of the cubic at
    a = 3r/s) is Eisenstein at 3, so 3r/s is never an image; in-range only
    when |3r/s| <= 2."""
    if r == 0 or s == 0:
        raise BadParameters("r and s must be nonzero")
    if gcd(r, s) != 1:
        raise BadParameters("r and s must be coprime")
    if r % 3 == 0 or s % 3 == 0:
        raise BadParameters("r and s must be prime to 3")
    if s < 0:
        r, s = -r, -s
    poly = IntPoly((-3 * r, -3 * s, 0, s))
    if not eisenstein_check(poly, 3):
        raise AssertionError("Eisenstein certificate failed to verify")
    a = Fraction(3 * r, s)
    return Certificate(
        kind="eisenstein-3rs",
        data={
            "r": r,
            "s": s,
            "prime": 3,
            "a": str(a),
            "coeffs": poly.coeff_strings(),
            "in_range": abs(a) <= 2,
        },
    )


# Largest value of the parameter that a verifier's re-run grows with (the
# height H, the prime p, the degree m).  H sits where the slowest accepted
# verify takes about 1 s (Python 3.11 on a 2-CPU x86 VM).  At p = 601 it
# takes about 75 ms (dd just below 2^20, the most the digit cap admits) and
# at m = 31 under 1 ms (q = 2^31 - 1); those two caps are kept so that
# `nsect --p` and `witness --m` accept the same range.  Past a cap, or past
# CERT_MAX_DIGITS digits in any integer a certificate holds (below Python's
# 4,300-digit int-to-str limit), verify raises ``CapExceeded``; the p and m
# producers refuse past their caps before they build anything.  Never read
# from the data.
SQUARE_FAMILY_MAX_H = 500_000
PSECTION_MAX_P = 601
WITNESS_MAX_M = 31
CERT_MAX_DIGITS = 4000
_CERT_LIMIT = 10 ** CERT_MAX_DIGITS  # formed once; 13,288 bits


def _check_digits(v: int, what: str) -> None:
    if abs(v) >= _CERT_LIMIT:
        raise CapExceeded(f"{what} has more than {CERT_MAX_DIGITS} digits")


def _check_cap(param: int, cap: int) -> None:
    if param > cap:
        raise CapExceeded(f"certificate parameter {param} exceeds the verify cap {cap}")


def _rebuilds(data: dict, build, *params, cap: int | None = None) -> bool:
    """True iff every parameter is an int (bool excluded) and the producer
    ``build(*params)`` returns exactly ``data``, field types included.  The
    producer re-runs every check behind the claim; a refused rebuild is
    False.  A first parameter above ``cap`` raises ``CapExceeded`` before
    the producer runs."""
    if any(type(v) is not int for v in params):
        return False
    if cap is not None:
        _check_cap(params[0], cap)
    try:
        expected = build(*params).data
    except (BadParameters, AssertionError):
        return False
    return data == expected and all(type(data[k]) is type(v) for k, v in expected.items())


def _verify_eisenstein_3rs(data: dict) -> bool:
    """Recompute every claim field from r and s."""
    return _rebuilds(data, eisenstein_cert_3rs, data["r"], data["s"])


def yates_certificate(k: int) -> tuple[int, int]:
    """Bezout pair (a, b) with 3a + bk = 1, certifying that every multiple
    of pi/k is trisectable; b is normalized to the least absolute residue
    of the inverse of k mod 3."""
    if k < 1:
        raise BadParameters("k must be positive")
    if k % 3 == 0:
        raise BadParameters("k must not be a multiple of 3")
    b = 1 if k % 3 == 1 else -1
    a = (1 - b * k) // 3
    assert 3 * a + b * k == 1
    return a, b


def _verify_yates(data: dict) -> bool:
    k, a, b = data["k"], data["a"], data["b"]
    if any(type(v) is not int for v in (k, a, b)):
        return False
    return k >= 1 and k % 3 != 0 and 3 * a + b * k == 1


def square_family_check(H: int) -> dict:
    """Assert that no nonzero rational square in [-2, 2] of height <= H is
    accepted; returns the count checked and a re-verifiable certificate."""
    if H < 1:
        raise BadParameters("H must be >= 1")
    checked = 0
    falsifications = []
    top = math.isqrt(H)
    for v in range(1, top + 1):
        for u in range(1, top + 1):
            if gcd(u, v) != 1:
                continue
            if u * u > 2 * v * v:
                continue
            a = Fraction(u * u, v * v)
            checked += 1
            if _decide_rational(a).member:
                falsifications.append(str(a))
    cert = Certificate(
        kind="square-family",
        data={"H": H, "checked": checked, "members_found": len(falsifications)},
    )
    return {
        "H": H,
        "checked": checked,
        "falsifications": falsifications,
        "certificate": cert,
    }


def _verify_square_family(data: dict) -> bool:
    """Re-run the check at height H; it must count the same squares and
    find no member among them."""
    return data["members_found"] == 0 and _rebuilds(
        data, lambda H: square_family_check(H)["certificate"], data["H"],
        cap=SQUARE_FAMILY_MAX_H,
    )


# Bound on |minpoly(f(q^(1/m)))| that both the witness and its verifier
# require; the verifier never reads it from the certificate.
WITNESS_RESIDUAL_TOL = 1e-20


def nonconstructible_witness(m: int, q: int) -> Certificate:
    """Certificate that a = f(q^(1/m)) is an accepted number of exact odd
    degree m > 1, hence not constructible (constructible degrees are powers
    of two).

    The minimal polynomial of a is the characteristic polynomial of
    f(beta) over Q(beta), beta^m = q, from its power sums (traces) and
    Newton's identities; the degree is certified exactly m by a
    squarefreeness check, which in particular rejects the collapse to an
    m-th power of a linear polynomial.
    """
    if m < 2 or m % 2 == 0 or m % 3 == 0:
        raise BadParameters("m must be odd, > 1, and prime to 3")
    if q > 1 and (q - 1).bit_length() > m:  # q > 2^m, without forming 2^m
        raise BadParameters("q^(1/m) must lie in (0, 2]")
    _check_cap(m, WITNESS_MAX_M)  # before anything is built
    if not is_prime(q):
        raise BadParameters("q must be prime")
    poly = resultant_minpoly(m, Fraction(q), F_CUBIC)
    if poly.degree != m:
        raise AssertionError(f"resultant degree {poly.degree} != {m}")
    if not squarefree_over_q(poly):
        raise AssertionError("resultant is not squarefree; degree collapse")
    residual_bound = _witness_residual(poly, m, q)
    if residual_bound >= WITNESS_RESIDUAL_TOL:  # exact Fraction-float comparison
        raise AssertionError(f"numeric residual {float(residual_bound)} too large")
    return Certificate(
        kind="nonconstructible-witness",
        data={
            "m": m,
            "q": q,
            "minpoly": poly.coeff_strings(),
            "degree": m,
            "squarefree": True,
            "residual_below": WITNESS_RESIDUAL_TOL,
        },
    )


def _witness_residual(poly: IntPoly, m: int, q: int) -> Fraction:
    """An upper bound on |poly(x)|, x = B^3/2^(2F) - 3B/2^F truncated to
    F fraction bits: B/2^F is mpmath's beta = q^(1/m) at F = bits + 8m +
    160 bits (bits of the widest coefficient), exact in F fraction bits as
    beta >= 1, and the bound is |value| + E of :func:`fixed_point_eval`.
    E is below 2^(bits + 2m - F) = 2^(-6m - 160), and moving x by the
    2^-F of the truncation (or of mpmath's beta) moves poly by less than
    that too."""
    import mpmath as mp

    bits = max(abs(c).bit_length() for c in poly.coeffs)
    F = bits + 8 * m + 160
    with mp.workprec(F):
        B = int(mp.ldexp(mp.power(q, mp.mpf(1) / m), F))
    value, err = fixed_point_eval(poly, (B ** 3 >> 2 * F) - 3 * B, F)
    return Fraction(abs(value) + err, 1 << F)


def _verify_nonconstructible(data: dict) -> bool:
    """Rebuild the certificate from m and q, which re-runs every degree,
    squarefreeness and residual check against ``WITNESS_RESIDUAL_TOL``, and
    compare every field."""
    return _rebuilds(data, nonconstructible_witness, data["m"], data["q"], cap=WITNESS_MAX_M)


def nonsectability_cert(p: int, c: int, dd: int) -> Certificate:
    """Certificate that dd^p * P(x, c/dd) is Eisenstein at p, so the angle
    with cos = c/dd cannot be p-sected (P is the multiple-angle polynomial
    of :func:`polyalg.psection_poly`, which refuses a p that is not an odd
    prime)."""
    _check_cap(p, PSECTION_MAX_P)  # before the polynomial is built
    poly = psection_poly(p)
    if dd < 1:
        raise BadParameters("denominator must be positive")
    if c % p != 0 or c % (p * p) == 0:
        raise BadParameters("need p | c and p^2 does not divide c")
    if gcd(c, dd) != 1:
        raise BadParameters("c and dd must be coprime")
    if abs(c) > dd:
        raise BadParameters("|c/dd| must be <= 1 to name a real angle")
    # cleared coefficients are below (4*dd)^p: |c| <= dd, P's below (1 + sqrt 2)^p
    _check_digits(2 ** (p * (dd.bit_length() + 2)), "a cleared coefficient")
    cleared = poly * dd ** p - IntPoly.const(c * dd ** (p - 1))
    if not eisenstein_check(cleared, p):
        raise AssertionError(f"Eisenstein at {p} failed for c/dd = {c}/{dd}")
    return Certificate(
        kind="eisenstein-psection",
        data={
            "p": p,
            "c": c,
            "dd": dd,
            "coeffs": cleared.coeff_strings(),
        },
    )


def _verify_psection(data: dict) -> bool:
    """Rebuild the certificate from p, c and dd, which re-runs the
    preconditions (p an odd prime) and the Eisenstein check."""
    return _rebuilds(
        data, nonsectability_cert, data["p"], data["c"], data["dd"], cap=PSECTION_MAX_P
    )


# The one table of certificate kinds: kind -> (exact key set of the data,
# verifier).  ``Certificate.verify`` checks the key set, so a verifier may
# index every key it names.
_CERT_KINDS = {
    "eisenstein-3rs": (
        frozenset({"r", "s", "prime", "a", "coeffs", "in_range"}),
        _verify_eisenstein_3rs,
    ),
    "yates-bezout": (frozenset({"k", "a", "b"}), _verify_yates),
    "square-family": (frozenset({"H", "checked", "members_found"}), _verify_square_family),
    "nonconstructible-witness": (
        frozenset({"m", "q", "minpoly", "degree", "squarefree", "residual_below"}),
        _verify_nonconstructible,
    ),
    "eisenstein-psection": (frozenset({"p", "c", "dd", "coeffs"}), _verify_psection),
}

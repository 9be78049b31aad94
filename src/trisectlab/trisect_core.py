"""Trisection-number decision and the density experiment.

A number a in [-2, 2] is accepted when the cubic x^3 - 3x - a has a root in
the ambient field, witnessed by an explicit beta with f(beta) = a where
f(x) = x^3 - 3x.  The decision is the cube-denominator argument: the
denominator of a fixes at most tau(8d) candidate denominators of a root,
and for each one the numerator coordinates follow from the integer floors
of the real roots of two integer cubics, so the cost grows with the number
of digits of a, not with its height.  The density experiment measures how
quickly the accepted fraction of a height ball decays as the height bound
grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .errors import BadParameters, GcdBoundViolated, OutOfRange
from .exact_arith import (
    RATIONAL_FIELD,
    FieldDescriptor,
    QuadElem,
    canonicalize,
    height,
    in_interval,
    quadratic_field,
    sign_lin,
)
from .height_enum import HeightBall, count_ball_interval, enumerate_ball_interval
from .polyalg import IntPoly, RatPoly, eisenstein_check, is_prime, resultant_minpoly

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
        """True iff the data re-checks; an unknown kind raises
        ``BadParameters``."""
        verifier = _CERT_VERIFIERS.get(self.kind)
        if verifier is None:
            raise BadParameters(f"unknown certificate kind {self.kind!r}")
        return verifier(self.data)


@dataclass(frozen=True)
class TrisectionVerdict:
    member: bool
    witness: object = None  # Fraction | QuadElem | None
    method: str = ""
    certificate: Certificate | None = None
    search_bound: Fraction | None = None

    def to_dict(self) -> dict:
        from .exact_arith import format_element

        return {
            "member": self.member,
            "witness": format_element(self.witness) if self.witness is not None else None,
            "method": self.method,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "search_bound": str(self.search_bound) if self.search_bound is not None else None,
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


def raw_image(x: QuadElem) -> ImageTriple:
    """Expand f(x) = x^3 - 3x over the basis {1, sqrt(d)} without reducing.

    The gcd G of the three coordinates always divides 8d; anything else
    would be a defect, not an input error.
    """
    a1, a2, b, d = x.a1, x.a2, x.b, x.d
    A1 = a1 * a1 * a1 + 3 * d * a1 * a2 * a2 - 3 * a1 * b * b
    A2 = 3 * a1 * a1 * a2 + d * a2 * a2 * a2 - 3 * a2 * b * b
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


def _root_floors(c: int, P: int, Q: int, d) -> list[int]:
    """Sorted floors of the real roots of g(t) = t^3 - 3c^2*t - (P + Q*sqrt(d))
    for c >= 1 (d is unused when Q = 0).

    g has its turning points at -c and c, so each of its three monotone
    branches holds at most one root, and every root lies in [-M, M] with
    M = max(2c, (4|P + Q*sqrt(d)|)^(1/3)) (beyond 2c, |t^3 - 3c^2*t| >=
    |t|^3/4).  On each branch the floor is found by integer bisection, with
    the sign of g(k) = (k^3 - 3c^2*k - P) - Q*sqrt(d) decided exactly by
    :func:`sign_lin`.  A double root at a turning point is reported once.
    """
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
            if r * r * r - 3 * s * s * r == p:
                return TrisectionVerdict(True, Fraction(r, s), "rational-fast-path")
    return TrisectionVerdict(
        False, None, "rational-fast-path", certificate=_try_eisenstein_cert(a)
    )


def _divisors(n: int) -> list[int]:
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


def _quadratic_preimage(a: QuadElem) -> QuadElem | None:
    """The preimage of a under f in Q(sqrt(d)) that is smallest in
    (denominator, a2, a1), or None when a has no preimage.

    Completeness.  Let x = (b1 + b2*sqrt(d))/c be a canonical preimage of
    the canonical a = (alpha1 + alpha2*sqrt(d))/beta.  By :func:`raw_image`
    f(x) = (A1 + A2*sqrt(d))/c^3 with G = gcd(A1, A2, c^3) dividing 8d, so
    c^3 = G*beta for a divisor G of 8d: at most tau(8d) candidates for c,
    each one cube test.  For such c, y = b1 + b2*sqrt(d) satisfies
    y^3 - 3c^2*y = G*(alpha1 + alpha2*sqrt(d)), and by conjugation
    y' = b1 - b2*sqrt(d) is a real root of the conjugate cubic.  With
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
    for G in _divisors(8 * d):
        c = icbrt(G * beta)
        if c * c * c != G * beta:
            continue
        P1, P2, c2 = G * alpha1, G * alpha2, c * c
        for k in _root_floors(c, P1, P2, d):
            for kc in _root_floors(c, P1, -P2, d):
                b1 = -((-k - kc) // 2)
                m = k - kc
                j = isqrt(m * m // (4 * d))
                for b2 in (j, j + 1) if m >= 0 else (-j, -j - 1):
                    if (
                        b1 * (b1 * b1 + 3 * d * b2 * b2 - 3 * c2) == P1
                        and b2 * (3 * b1 * b1 + d * b2 * b2 - 3 * c2) == P2
                        and gcd(gcd(b1, b2), c) == 1
                    ):
                        found.append((c, b2, b1))
    if not found:
        return None
    c, b2, b1 = min(found)
    return QuadElem(b1, b2, c, d)


def decide_trisection(a, field: FieldDescriptor | None = None) -> TrisectionVerdict:
    """Decide membership of a (in [-2, 2]) with an exact witness or a
    sound refusal.

    Over the rationals the denominator of a must be a cube s^3 and the
    witness numerator an integer root of one cubic.  Over Q(sqrt(d)) the
    witness comes from :func:`_quadratic_preimage`, the same argument with
    the tau(8d) candidate denominators allowed by the image gcd bound;
    rational a goes through it too (its witness may be irrational, as
    -sqrt(3) for a = 0 over Q(sqrt(3))).  Both paths cost a polynomial in
    the number of digits of a.  ``search_bound`` is the proven preimage
    height bound S(height(a)) that every witness satisfies; a non-member
    with rational a = 3r/s carries an Eisenstein certificate when one
    applies.
    """
    if isinstance(a, QuadElem):
        if field is not None and (field.degree != 2 or field.d != a.d):
            raise BadParameters("element and field disagree")
        field = quadratic_field(a.d)
    else:
        a = Fraction(a)
        if field is None:
            field = RATIONAL_FIELD
    if not in_interval(a, -2, 2):
        raise OutOfRange(f"{a} lies outside [-2, 2]")
    if field.degree == 1:
        return _decide_rational(a)
    aq = a if isinstance(a, QuadElem) else QuadElem.from_rational(a, field.d)
    S = preimage_bound(field, height(aq))
    beta = _quadratic_preimage(aq)
    if beta is not None:
        return TrisectionVerdict(True, beta, "cube-denominator", search_bound=S)
    cert = _try_eisenstein_cert(aq.as_fraction()) if aq.is_rational else None
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


def _verify_eisenstein_3rs(data: dict) -> bool:
    """Recompute every claim field from r and s; a missing key or a
    non-integer r or s fails the check."""
    r, s = data.get("r"), data.get("s")
    if type(r) is not int or type(s) is not int:
        return False
    if r == 0 or s <= 0 or gcd(r, s) != 1 or r % 3 == 0 or s % 3 == 0:
        return False
    a = Fraction(3 * r, s)
    poly = IntPoly((-3 * r, -3 * s, 0, s))
    return (
        type(data.get("prime")) is int
        and data["prime"] == 3
        and data.get("a") == str(a)
        and data.get("in_range") is (abs(a) <= 2)
        and data.get("coeffs") == poly.coeff_strings()
        and eisenstein_check(poly, 3)
    )


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
    k, a, b = data.get("k"), data.get("a"), data.get("b")
    if type(k) is not int or type(a) is not int or type(b) is not int:
        return False
    return 3 * a + b * k == 1 and k % 3 != 0


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
    report = square_family_check(data["H"])
    return (
        report["checked"] == data["checked"]
        and len(report["falsifications"]) == data["members_found"] == 0
    )


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
    each R, plus the log-log slope across the points.

    The numerator enumerates the preimage ball B(S(R_max)) ∩ [-2, 2] once,
    in one serial pass, applies f, deduplicates canonically, and counts
    images of height <= R; every image of height <= R has all its
    preimages inside B(S(R)), so this equals the per-R definition.  The
    denominator is the exact interval count.  With ``cap`` set,
    ``CapExceeded`` is raised when the preimage interval count exceeds it;
    ``cap=None`` sets no cap.
    """
    R_list = [Fraction(R) for R in R_list]
    if not R_list or any(b <= a for a, b in zip(R_list, R_list[1:])):
        raise BadParameters("R list must be strictly increasing and nonempty")
    S_max = int(preimage_bound(field, R_list[-1]))
    preimages = enumerate_ball_interval(
        HeightBall(field, S_max), -2, 2, cap=math.inf if cap is None else cap
    )
    images = {apply_f(beta) for beta in preimages}
    heights = sorted(height(img) for img in images)
    points = []
    for R in R_list:
        numerator = _count_le(heights, R)
        denominator = count_ball_interval(HeightBall(field, R), -2, 2)
        points.append(DensityPoint(R, numerator, denominator))
    return DensityReport(
        field=field,
        points=tuple(points),
        slope=_slope_fit(points),
        target_exponent=-(2.0 / 3.0) * (field.degree + 1),
    )


def _count_le(sorted_heights: list[int], R: Fraction) -> int:
    import bisect

    return bisect.bisect_right(sorted_heights, R)


# Bound on |minpoly(f(q^(1/m)))| that both the witness and its verifier
# require; the verifier never reads it from the certificate.
WITNESS_RESIDUAL_TOL = 1e-20


def nonconstructible_witness(m: int, q: int) -> Certificate:
    """Certificate that a = f(q^(1/m)) is an accepted number of exact odd
    degree m > 1, hence not constructible (constructible degrees are powers
    of two).

    The minimal polynomial of a is the Sylvester resultant eliminating the
    radical; the degree is certified exactly m by a squarefreeness check,
    which in particular rejects the collapse to an m-th power of a linear
    polynomial.
    """
    if m < 2 or m % 2 == 0 or m % 3 == 0:
        raise BadParameters("m must be odd, > 1, and prime to 3")
    if q > 2 ** m:  # before the trial division, which is slow for large q
        raise BadParameters("q^(1/m) must lie in (0, 2]")
    if not is_prime(q):
        raise BadParameters("q must be prime")
    poly = resultant_minpoly(m, Fraction(q), F_CUBIC)
    if poly.degree != m:
        raise AssertionError(f"resultant degree {poly.degree} != {m}")
    deriv_gcd = poly.to_rat().gcd(poly.derivative().to_rat())
    if deriv_gcd.degree != 0:
        raise AssertionError("resultant is not squarefree; degree collapse")
    residual_bound = _witness_residual(poly, m, q)
    if residual_bound >= WITNESS_RESIDUAL_TOL:
        raise AssertionError(f"numeric residual {residual_bound} too large")
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


def _witness_residual(poly: IntPoly, m: int, q: int) -> float:
    import mpmath as mp

    bits = max(abs(c).bit_length() for c in poly.coeffs)
    with mp.workprec(bits + 8 * m + 160):
        beta = mp.power(q, mp.mpf(1) / m)
        a = beta ** 3 - 3 * beta
        return float(abs(poly.evaluate(a)))


def _verify_nonconstructible(data: dict) -> bool:
    """Rebuild the certificate from m and q, which re-runs every degree,
    squarefreeness and residual check against ``WITNESS_RESIDUAL_TOL``, and
    compare every field, types included; malformed data fails the check."""
    m, q = data.get("m"), data.get("q")
    if type(m) is not int or type(q) is not int:
        return False
    try:
        expected = nonconstructible_witness(m, q).data
    except (BadParameters, AssertionError):
        return False
    return data == expected and all(type(data[k]) is type(v) for k, v in expected.items())


def gcd_bound_sweep(d: int, height_bound: int) -> dict:
    """Vectorized check of G | 8d over every canonical element of height
    <= the bound; returns counts and raises on any violation."""
    H = height_bound
    a1 = np.arange(-H, H + 1, dtype=np.int64).reshape(-1, 1)
    a2 = np.arange(-H, H + 1, dtype=np.int64).reshape(1, -1)
    a1c, a2c = np.abs(a1), np.abs(a2)
    checked = 0
    worst = 1
    for b in range(1, H + 1):
        coprime = np.gcd(np.gcd(a1c, a2c), b) == 1
        A1 = a1 ** 3 + (3 * d) * a1 * a2 ** 2 - (3 * b * b) * a1
        A2 = 3 * a1 ** 2 * a2 + d * a2 ** 3 - (3 * b * b) * a2
        G = np.gcd(np.gcd(np.abs(A1), np.abs(A2)), b ** 3)
        bad = coprime & ((8 * d) % G != 0)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            x = QuadElem(int(a1[i, 0]), int(a2[0, j]), b, d)
            raise GcdBoundViolated(f"G | 8d fails at {x}")
        checked += int(coprime.sum())
        worst = max(worst, int(G[coprime].max(initial=1)))
    return {"d": d, "height_bound": H, "elements_checked": checked, "max_gcd": worst}


_CERT_VERIFIERS = {
    "eisenstein-3rs": _verify_eisenstein_3rs,
    "yates-bezout": _verify_yates,
    "square-family": _verify_square_family,
    "nonconstructible-witness": _verify_nonconstructible,
}


def register_certificate_kind(kind: str, verifier) -> None:
    """Extension hook for certificate kinds defined by other modules."""
    _CERT_VERIFIERS[kind] = verifier

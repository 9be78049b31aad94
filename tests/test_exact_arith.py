"""Canonical forms, exact comparisons, and heights."""

from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import commensurability_loop
from trisectlab.errors import (
    CapExceeded,
    DegenerateBasis,
    NonSquarefreeRadicand,
    RadicandMismatch,
    ZeroDenominator,
)
from trisectlab.exact_arith import (
    QuadElem,
    canonicalize,
    format_element,
    height,
    in_interval,
    is_squarefree,
    parse_element,
    quadratic_field,
)
from trisectlab.height_enum import verify_commensurability

RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13)

nonzero_int = st.integers(-40, 40).filter(lambda n: n != 0)
coords = st.tuples(st.integers(-40, 40), st.integers(-40, 40), nonzero_int,
                   st.sampled_from(RADICANDS))


def test_squarefree_validation():
    assert is_squarefree(2) and is_squarefree(6) and is_squarefree(30)
    assert not is_squarefree(1) and not is_squarefree(4)
    assert not is_squarefree(12) and not is_squarefree(18) and not is_squarefree(50)


def test_canonicalize_examples():
    assert canonicalize(2, 2, 4, 5) == QuadElem(1, 1, 2, 5)
    assert canonicalize(1, 0, -1, 2) == QuadElem(-1, 0, 1, 2)
    assert canonicalize(4, -4, 8, 5) == QuadElem(1, -1, 2, 5)


def test_canonicalize_errors():
    with pytest.raises(ZeroDenominator):
        canonicalize(1, 1, 0, 2)
    with pytest.raises(NonSquarefreeRadicand):
        canonicalize(1, 1, 1, 12)
    with pytest.raises(NonSquarefreeRadicand):
        canonicalize(1, 1, 1, 1)


def test_all_zero_numerators_canonicalize_to_zero():
    z = canonicalize(0, 0, 7, 3)
    assert (z.a1, z.a2, z.b) == (0, 0, 1)


@given(coords)
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent_and_scale_invariant(quad):
    a1, a2, b, d = quad
    x = canonicalize(a1, a2, b, d)
    assert canonicalize(x.a1, x.a2, x.b, d) == x
    for t in (2, -3, 7):
        assert canonicalize(t * a1, t * a2, t * b, d) == x


def test_height_examples():
    assert height(Fraction(-11, 8)) == 11
    assert height(0) == 1
    assert height(canonicalize(1, 1, 2, 5)) == 2


@given(coords)
@settings(max_examples=200, deadline=None)
def test_height_negation_invariant(quad):
    a1, a2, b, d = quad
    x = canonicalize(a1, a2, b, d)
    assert height(x) == height(-x)


def test_field_op_examples():
    x = canonicalize(1, 1, 1, 2)
    assert x * x.conjugate() == QuadElem.from_rational(-1, 2)
    phi = canonicalize(1, 1, 2, 5)
    assert phi.conjugate() == QuadElem(1, -1, 2, 5)
    assert canonicalize(0, 1, 1, 2).invert() == QuadElem(0, 1, 2, 2)


def test_invert_zero_and_radicand_mismatch():
    with pytest.raises(ZeroDivisionError):
        canonicalize(0, 0, 1, 2).invert()
    with pytest.raises(RadicandMismatch):
        canonicalize(1, 1, 1, 2) + canonicalize(1, 1, 1, 3)


def test_subtraction_coerces_like_addition():
    """str and float operands raise TypeError on either side, as they do in
    addition; int, Fraction and same-field elements subtract."""
    x = canonicalize(1, 1, 1, 2)
    for other in ("1/2", 0.5):
        for op in (lambda: x - other, lambda: other - x, lambda: x + other):
            with pytest.raises(TypeError):
                op()
    assert x - 1 == canonicalize(0, 1, 1, 2)
    assert x - Fraction(1, 2) == canonicalize(1, 2, 2, 2)
    assert 1 - x == canonicalize(0, -1, 1, 2)
    assert Fraction(1, 2) - x == canonicalize(-1, -2, 2, 2)
    assert x - canonicalize(1, 1, 2, 2) == canonicalize(1, 1, 2, 2)
    with pytest.raises(RadicandMismatch):
        x - canonicalize(1, 1, 1, 3)


@given(coords, coords)
@settings(max_examples=200, deadline=None)
def test_field_laws(qa, qb):
    a1, a2, b, d = qa
    c1, c2, e, _ = qb
    x = canonicalize(a1, a2, b, d)
    y = canonicalize(c1, c2, e, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x
    if not (x.a1 == 0 and x.a2 == 0):
        assert x * x.invert() == QuadElem.from_rational(1, d)
    # conjugation fixes rationals
    r = QuadElem.from_rational(Fraction(c1, e), d)
    assert r.conjugate() == r


@pytest.mark.parametrize("d, error", [(12, NonSquarefreeRadicand), (1, NonSquarefreeRadicand),
                                      (2 ** 62 + 1, CapExceeded), (2 ** 62, CapExceeded)])
def test_radicand_checked_where_it_enters(d, error):
    """A direct QuadElem, canonicalize, from_rational, parse_element and
    the field each check the radicand: not squarefree >= 2 is bad
    parameters, past 2^62 a cap."""
    entries = (lambda: QuadElem(1, 1, 1, d), lambda: canonicalize(1, 1, 1, d),
               lambda: QuadElem.from_rational(Fraction(1, 2), d),
               lambda: parse_element(f"(1+1*sqrt({d}))/1"), lambda: parse_element("1/2", d),
               lambda: quadratic_field(d))
    for entry in entries:
        with pytest.raises(error):
            entry()


@given(coords, coords)
@settings(max_examples=100, deadline=None)
def test_arithmetic_results_match_checked_construction(qa, qb):
    """Sums, products, inverses, negations and conjugates skip the checks
    of a direct construction; each result is canonical and equals, hashes
    and reprs like the checked QuadElem of its fields."""
    d = qa[3]
    x = canonicalize(*qa)
    y = canonicalize(qb[0], qb[1], qb[2], d)
    results = [x + y, x - y, x * y, -x, x.conjugate(), x + 3, Fraction(1, 3) * x, x ** 3]
    if x.a1 or x.a2:
        results += [x.invert(), y / x]
    for z in results:
        checked = QuadElem(z.a1, z.a2, z.b, z.d)
        assert type(z) is QuadElem and z.d == d
        assert (z, hash(z), repr(z)) == (checked, hash(checked), repr(checked))


@given(coords, coords, coords)
@settings(max_examples=100, deadline=None)
def test_associativity(qa, qb, qc):
    d = qa[3]
    x = canonicalize(qa[0], qa[1], qa[2], d)
    y = canonicalize(qb[0], qb[1], qb[2], d)
    z = canonicalize(qc[0], qc[1], qc[2], d)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)


def test_in_interval_examples():
    assert in_interval(canonicalize(1, -1, 2, 5), -2, 2)
    assert in_interval(Fraction(3, 2), -2, 2)
    assert not in_interval(canonicalize(2, 1, 1, 5), -2, 2)


_rationals = st.one_of(
    st.integers(-60, 60),
    st.builds(Fraction, st.integers(-600, 600), st.integers(1, 40)),
)


def _enclosure(x: QuadElem) -> tuple[Fraction, Fraction]:
    """Fractions strictly around an irrational x, from r/N < sqrt(d) < (r + 1)/N."""
    N = 10 ** 40
    r = isqrt(x.d * N * N)
    return tuple(sorted(Fraction(x.a1 * N + x.a2 * s, x.b * N) for s in (r, r + 1)))


@settings(max_examples=400, deadline=None)
@given(x=st.one_of(_rationals, coords.map(lambda c: canonicalize(*c))),
       lo=_rationals, hi=_rationals, pin=st.sampled_from((None, "lo", "hi", "both")))
def test_in_interval_matches_fraction_comparison(x, lo, hi, pin):
    """The integer cross-multiplication (and, for QuadElems, the sign test)
    against plain Fraction comparison, over ints, Fractions and QuadElems
    with int and Fraction endpoints.  ``pin`` puts a rational x on an
    endpoint, in x's own type (a rational QuadElem as its Fraction)."""
    value = x
    if isinstance(x, QuadElem) and x.a2 == 0:
        value = Fraction(x.a1, x.b)
        value = value.numerator if value.denominator == 1 else value
    if pin and not isinstance(value, QuadElem):
        lo = value if pin in ("lo", "both") else lo
        hi = value if pin in ("hi", "both") else hi
    got = in_interval(x, lo, hi)
    if isinstance(value, QuadElem):
        below, above = _enclosure(value)
        assert not below <= lo <= above and not below <= hi <= above
        assert got is (lo < below and above < hi)
    else:
        assert got is (Fraction(lo) <= Fraction(value) <= Fraction(hi))
        if pin:
            assert got is (Fraction(lo) <= Fraction(hi))


def test_cmp_against_interval_arithmetic():
    """The exact comparison is the oracle; a 100-bit interval check guards
    the sign logic on 10^4 random elements."""
    import random

    rng = random.Random(20240203)
    iv = mpmath.iv
    old = iv.prec
    iv.prec = 100
    try:
        indecisive = 0
        for _ in range(10_000):
            d = rng.choice(RADICANDS)
            a1, a2 = rng.randint(-50, 50), rng.randint(-50, 50)
            b = rng.randint(1, 50)
            x = canonicalize(a1, a2, b, d)
            lo = Fraction(rng.randint(-60, 10), rng.randint(1, 9))
            hi = lo + Fraction(rng.randint(0, 60), rng.randint(1, 9))
            exact = in_interval(x, lo, hi)
            xiv = (iv.mpf(x.a1) + iv.mpf(x.a2) * iv.sqrt(x.d)) / x.b
            lo_iv = iv.mpf(lo.numerator) / lo.denominator
            hi_iv = iv.mpf(hi.numerator) / hi.denominator
            if xiv.b < lo_iv.a or xiv.a > hi_iv.b:
                assert exact is False
            elif xiv.a >= lo_iv.b and xiv.b <= hi_iv.a:
                assert exact is True
            else:
                indecisive += 1
        assert indecisive < 500
    finally:
        iv.prec = old


def test_commensurability_degenerate_basis():
    w1 = canonicalize(1, 1, 1, 2)
    w2 = canonicalize(2, 2, 1, 2)
    with pytest.raises(DegenerateBasis):
        verify_commensurability(2, (w1, w2), 3)


def test_height_permutation_invariance():
    """Swapping the basis order just permutes coordinates, so heights in
    the swapped basis agree with the standard height: factor exactly 1."""
    for d in (2, 5):
        w1 = canonicalize(0, 1, 1, d)  # sqrt(d)
        w2 = canonicalize(1, 0, 1, d)  # 1
        assert verify_commensurability(d, (w1, w2), 12) == (1, True)


def test_commensurability_examples():
    w1 = canonicalize(1, 0, 1, 2)
    w2 = canonicalize(1, 1, 1, 2)
    factor, ok = verify_commensurability(2, (w1, w2), 50)
    assert ok and factor <= 2

    std1 = canonicalize(1, 0, 1, 2)
    std2 = canonicalize(0, 1, 1, 2)
    factor, ok = verify_commensurability(2, (std1, std2), 50)
    assert ok and factor == 1

    v1 = canonicalize(1, 0, 1, 3)
    v2 = canonicalize(0, 2, 1, 3)  # 2*sqrt(3)
    factor, ok = verify_commensurability(3, (v1, v2), 50)
    assert ok and factor <= 2


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from((2, 3, 5)), R=st.integers(1, 15),
       w=st.lists(st.integers(-6, 6), min_size=4, max_size=4),
       b=st.tuples(st.integers(1, 5), st.integers(1, 5)))
def test_commensurability_matches_loop_reference(d, R, w, b):
    """The block version against the Fraction triple loop (whose basis
    change is the inverse matrix over Q), exactly."""
    assume(w[0] * w[3] != w[1] * w[2])  # else the basis is degenerate
    basis = (canonicalize(w[0], w[1], b[0], d), canonicalize(w[2], w[3], b[1], d))
    assert verify_commensurability(d, basis, R) == commensurability_loop(d, basis, R)


def test_text_roundtrip():
    assert format_element(canonicalize(1, -1, 2, 5)) == "(1-1*sqrt(5))/2"
    assert format_element(Fraction(-11, 8)) == "-11/8"
    for text in ("(1+1*sqrt(5))/2", "(3-2*sqrt(7))/5", "-11/8", "0/1", "4"):
        x = parse_element(text)
        assert parse_element(format_element(x)) == x
    assert parse_element("3/2", d=5) == QuadElem(3, 0, 2, 5)
    with pytest.raises(ValueError):
        parse_element("sqrt(2)")


def test_parse_element_zero_denominator():
    """A zero denominator is a typed error (the CLI exits 2), not the bare
    ZeroDivisionError that Fraction raises."""
    for text, d in (("1/0", None), ("0/0", None), ("-3/0", 5), ("(1+1*sqrt(5))/0", 5)):
        with pytest.raises(ZeroDenominator):
            parse_element(text, d)

"""Canonical forms, exact comparisons, and heights."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisectlab.errors import (
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
    height_in_basis,
    in_interval,
    is_squarefree,
    parse_element,
    verify_commensurability,
)

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


def test_height_in_basis_examples():
    w1 = canonicalize(1, 0, 1, 2)
    w2 = canonicalize(1, 1, 1, 2)
    assert height_in_basis(canonicalize(0, 1, 1, 2), w1, w2) == 1
    assert height_in_basis(w1, w1, w2) == 1
    assert height_in_basis(canonicalize(1, 1, 2, 2), w1, w2) == 2


def test_height_in_basis_degenerate():
    w1 = canonicalize(1, 1, 1, 2)
    w2 = canonicalize(2, 2, 1, 2)
    with pytest.raises(DegenerateBasis):
        height_in_basis(canonicalize(0, 1, 1, 2), w1, w2)


def test_height_permutation_invariance():
    """Swapping the basis order just permutes coordinates, so heights in
    the swapped basis agree with the standard height."""
    import random

    rng = random.Random(7)
    for d in (2, 5):
        w1 = canonicalize(0, 1, 1, d)  # sqrt(d)
        w2 = canonicalize(1, 0, 1, d)  # 1
        for _ in range(200):
            a1, a2 = rng.randint(-25, 25), rng.randint(-25, 25)
            b = rng.randint(1, 25)
            x = canonicalize(a1, a2, b, d)
            assert height_in_basis(x, w1, w2) == height(x)


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


def test_text_roundtrip():
    assert format_element(canonicalize(1, -1, 2, 5)) == "(1-1*sqrt(5))/2"
    assert format_element(Fraction(-11, 8)) == "-11/8"
    for text in ("(1+1*sqrt(5))/2", "(3-2*sqrt(7))/5", "-11/8", "0/1", "4"):
        x = parse_element(text)
        assert parse_element(format_element(x)) == x
    assert parse_element("3/2", d=5) == QuadElem(3, 0, 2, 5)
    with pytest.raises(ValueError):
        parse_element("sqrt(2)")

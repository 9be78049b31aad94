"""Polynomial ring laws, irreducibility checks, resultants, cyclotomics."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cos_minimal_poly_extraction,
    fraction_resultant_minpoly,
    rational_roots,
    sylvester_minpoly,
)
from trisectlab.errors import NotPrime
from trisectlab.polyalg import (
    IntPoly,
    RatPoly,
    chebyshev_like,
    cos_minimal_poly,
    cyclotomic,
    eisenstein_check,
    euler_phi,
    newton_elementary,
    poly_text,
    resultant_minpoly,
    squarefree_over_q,
)

int_polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPoly)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def test_normalization_and_degree_sentinel():
    assert IntPoly((0, 0)).degree == -1
    assert IntPoly((0, 0)).is_zero()
    assert IntPoly((1, 2, 0)).coeffs == (1, 2)
    assert poly_text(()) == "0"
    assert poly_text((-1, -3, 0, 1)) == "-1 - 3*x + x^3"


@given(int_polys, int_polys, int_polys)
@settings(max_examples=150, deadline=None)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    if not f.is_zero() and not g.is_zero():
        assert (f * g).degree == f.degree + g.degree


def test_division_exactness():
    f = IntPoly((-1, 0, 0, 0, 0, 0, 1))  # x^6 - 1
    g = IntPoly((-1, 1))
    assert f.div_exact(g) * g == f
    with pytest.raises(ValueError):
        IntPoly((1, 1, 1)).div_exact(IntPoly((0, 1)))


def test_eisenstein_examples():
    assert eisenstein_check(IntPoly((-3, -3, 0, 1)), 3)
    assert eisenstein_check(IntPoly((-2, 0, 1)), 2)
    assert not eisenstein_check(IntPoly((-1, 0, 1)), 2)
    with pytest.raises(NotPrime):
        eisenstein_check(IntPoly((-2, 0, 1)), 6)


def test_rational_roots_examples():
    assert rational_roots(IntPoly((0, -3, 0, 1))) == {Fraction(0)}
    assert rational_roots(IntPoly((2, -3, 0, 1))) == {Fraction(1), Fraction(-2)}
    assert rational_roots(IntPoly((-1, -3, 0, 1))) == set()


@given(int_polys, st.integers(-9, 9), st.integers(1, 9))
@settings(max_examples=150, deadline=None)
def test_rational_roots_catch_planted_root(f, num, den):
    r = Fraction(num, den)
    planted = f.to_rat() * RatPoly((-r, Fraction(1)))
    if planted.is_zero():
        return
    assert r in rational_roots(planted)


def test_resultant_examples():
    g = RatPoly((0, -3, 0, 1))
    lin = resultant_minpoly(1, Fraction(4), g)
    assert lin in (IntPoly((-52, 1)), IntPoly((52, -1)))  # g(4) = 52
    assert resultant_minpoly(2, 2, g) == IntPoly((-2, 0, 1))
    deg5 = resultant_minpoly(5, 2, g)
    assert deg5.degree == 5
    with mpmath.workprec(300):
        beta = mpmath.power(2, mpmath.mpf(1) / 5)
        assert abs(deg5.evaluate(beta ** 3 - 3 * beta)) < mpmath.mpf(10) ** -20


@pytest.mark.parametrize("m,q", [(2, 2), (3, 2), (5, 2), (5, 3), (7, 3)])
def test_resultant_numeric_property(m, q):
    g = RatPoly((0, -3, 0, 1))
    poly = resultant_minpoly(m, Fraction(q), g)
    assert poly.degree == m
    with mpmath.workprec(200):
        beta = mpmath.power(q, mpmath.mpf(1) / m)
        assert abs(poly.evaluate(beta ** 3 - 3 * beta)) < mpmath.mpf(2) ** -100


@given(st.integers(1, 9), rationals,
       st.lists(rationals, min_size=1, max_size=6).map(RatPoly).filter(lambda g: not g.is_zero()))
@settings(max_examples=100, deadline=None)
def test_resultant_matches_sylvester_oracle(m, q, g):
    """Power sums and Newton's identities give the primitive Sylvester
    resultant for every m, rational q (0 and negative included) and
    nonzero g, constant g included."""
    assert resultant_minpoly(m, q, g) == sylvester_minpoly(m, q, g)


@given(st.integers(1, 12), rationals,
       st.lists(rationals, min_size=1, max_size=6).map(RatPoly).filter(lambda g: not g.is_zero()))
@settings(max_examples=150, deadline=None)
def test_integer_resultant_matches_fraction_reference(m, q, g):
    """The integer traces of s*g(beta), s = L*v^n, give the charpoly that
    power sums over Fraction give, for m <= 12, rational q (0 and negative
    included) and nonzero g, constant g included."""
    assert resultant_minpoly(m, q, g) == fraction_resultant_minpoly(m, q, g)


def test_integer_resultant_at_the_slowest_witness():
    g = RatPoly((0, -3, 0, 1))
    q = 2 ** 31 - 1
    assert resultant_minpoly(31, q, g) == fraction_resultant_minpoly(31, Fraction(q), g)


def test_newton_elementary_divisions_are_exact():
    """Power sums of the roots 1, 2, 3 give e = 1, 6, 11, 6; power sums
    that no algebraic integer has leave a remainder and raise."""
    assert newton_elementary([6, 14, 36]) == [1, 6, 11, 6]
    assert newton_elementary([]) == [1]
    with pytest.raises(AssertionError, match="k = 2"):
        newton_elementary([1, 0])  # 2*e_2 = 1


def test_cyclotomic_examples():
    assert cyclotomic(1) == IntPoly((-1, 1))
    assert cyclotomic(2) == IntPoly((1, 1))
    assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))


def test_cyclotomic_product_identity_up_to_200():
    from trisectlab.polyalg import divisors

    for m in range(1, 201):
        assert cyclotomic(m).degree == euler_phi(m)
        prod = IntPoly((1,))
        for e in divisors(m):
            prod = prod * cyclotomic(e)
        want = IntPoly((-1,) + (0,) * (m - 1) + (1,))
        assert prod == want


def test_cos_minimal_poly_examples():
    assert cos_minimal_poly(1) == IntPoly((-2, 1))
    assert cos_minimal_poly(2) == IntPoly((2, 1))
    assert cos_minimal_poly(12) == IntPoly((-3, 0, 1))
    assert cos_minimal_poly(5) == IntPoly((-1, 1, 1))


def test_cos_minimal_poly_up_to_60():
    """Monic of degree phi(m)/2, no rational roots beyond the forced
    degree-1 cases, and the defining cosine is a numeric root."""
    for m in range(3, 61):
        psi = cos_minimal_poly(m)
        assert psi.leading == 1
        assert psi.degree == euler_phi(m) // 2
        if psi.degree >= 2:
            assert rational_roots(psi) == set()
        bits = max(abs(c).bit_length() for c in psi.coeffs)
        with mpmath.workprec(bits + 200):
            x = 2 * mpmath.cos(2 * mpmath.pi / m)
            assert abs(psi.evaluate(x)) < mpmath.mpf(10) ** -25


def test_cos_minimal_poly_matches_extraction():
    for m in list(range(3, 401)) + [3072]:
        assert cos_minimal_poly(m) == cos_minimal_poly_extraction(m)


def test_cos_minimal_poly_refuses_non_palindromic_cyclotomic(monkeypatch):
    import trisectlab.polyalg as polyalg

    monkeypatch.setattr(polyalg, "cyclotomic", lambda m: IntPoly((1, 1, 1, 0, 1)))
    with pytest.raises(AssertionError):
        polyalg.cos_minimal_poly(5)


def test_chebyshev_examples_and_identity():
    assert chebyshev_like(2) == IntPoly((-2, 0, 1))
    assert chebyshev_like(1) == IntPoly((0, 1))
    assert chebyshev_like(4) == IntPoly((2, 0, -4, 0, 1))
    with mpmath.workprec(120):
        for n in (3, 5, 8):
            poly = chebyshev_like(n)
            for k in range(7):
                t = mpmath.mpf(1) / 7 + k
                assert abs(poly.evaluate(2 * mpmath.cos(t)) - 2 * mpmath.cos(n * t)) < mpmath.mpf(10) ** -30


def test_chebyshev_closed_form_obeys_recurrence():
    x = IntPoly((0, 1))
    assert chebyshev_like(0) == IntPoly((2,))
    for n in range(1, 200):
        assert chebyshev_like(n + 1) == x * chebyshev_like(n) - chebyshev_like(n - 1)


def test_chebyshev_matches_doubling_tower():
    from trisectlab.algdeg import p_tower

    for n in range(1, 11):
        assert chebyshev_like(2 ** n) == p_tower(n)


@settings(max_examples=200, deadline=None)
@given(f=int_polys, g=int_polys, square=st.booleans())
def test_squarefree_over_q_matches_exact_gcd(f, g, square):
    """The modular test (or its fallback) against the gcd over Q, on
    random f and on f*g^2."""
    if square:
        f = f * g * g
    if f.degree >= 1:
        exact = f.to_rat().gcd(f.derivative().to_rat()).degree == 0
        assert squarefree_over_q(f) == exact


def test_squarefree_over_q_falls_back_when_p_divides_lc():
    """(p*x + 1)^2*(x + 2) with p = 2^61 - 1 is x + 2 mod p, squarefree
    there; p | lc forces the exact gcd, which finds the square."""
    p = (1 << 61) - 1
    f = IntPoly((1, p)) * IntPoly((1, p)) * IntPoly((2, 1))
    assert not squarefree_over_q(f)
    assert squarefree_over_q(IntPoly((1, p)) * IntPoly((2, 1)))

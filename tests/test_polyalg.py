"""Polynomial ring laws, irreducibility checks, resultants, cyclotomics,
primality and factoring."""

import time
from fractions import Fraction
from math import prod

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    cos_minimal_poly_extraction,
    divisors,
    euler_phi,
    factorize_trial,
    fraction_resultant_minpoly,
    is_prime_trial,
    is_squarefree_trial,
    rational_roots,
    square_schoolbook,
    sylvester_minpoly,
)
from trisectlab.errors import BadParameters, CapExceeded, NotPrime
from trisectlab.exact_arith import MAX_RADICAND, is_squarefree
from trisectlab.polyalg import (
    FACTOR_BELOW,
    MR_EXACT_BELOW,
    SQUAREFREE_PRIME,
    IntPoly,
    RatPoly,
    chebyshev_like,
    cos_minimal_poly,
    cyclotomic,
    eisenstein_check,
    factorize,
    fixed_point_eval,
    is_prime,
    kronecker_square,
    newton_elementary,
    poly_text,
    primes_below,
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
    """Every m <= 400, and the moduli m = 3*2^(n+1), n <= 10, of
    ``cn_degree_check``, whose cyclotomic polynomial has 3 terms."""
    for m in list(range(3, 401)) + [3 * 2 ** (n + 1) for n in range(1, 11)]:
        assert cos_minimal_poly(m) == cos_minimal_poly_extraction(m), m


def test_cos_minimal_poly_costs_its_output():
    """At m = 3*2^13 the cyclotomic polynomial is x^8192 - x^4096 + 1, so
    the minimal polynomial is C_4096 - 1 from its nonzero terms alone, in
    milliseconds; a pass over all 4096 coefficients, as Clenshaw's, takes
    about 0.5 s.  Best of 3, against a loaded machine."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        poly = cos_minimal_poly(3 * 2 ** 13)
        times.append(time.perf_counter() - start)
    assert poly == chebyshev_like(4096) - IntPoly((1,))
    assert min(times) < 0.1, times


# signed coefficients: zeros, any size, and +-(2^k - 1), a full digit of k bits
_boundary = st.builds(lambda k, sign: sign * ((1 << k) - 1), st.integers(0, 300),
                      st.sampled_from((1, -1)))
_coefficient = st.one_of(st.just(0), st.integers(-(2 ** 80), 2 ** 80), _boundary)


@settings(max_examples=300, deadline=None)
@given(q=st.lists(_coefficient, min_size=1, max_size=40))
@example(q=[0])
@example(q=[-1])
@example(q=[0, 0, 1])
@example(q=[-2, 1])
def test_kronecker_square_matches_schoolbook(q):
    assert kronecker_square(q) == square_schoolbook(q)


def test_kronecker_square_at_the_digit_bound():
    """len copies of +-(2^k - 1), one sign or alternating: the square's
    middle coefficient is len*(2^k - 1)^2 in magnitude, the largest the
    digit width allows for, at every k and len around the byte steps."""
    for k in range(0, 40):
        for length in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33):
            a = (1 << k) - 1
            for q in ([a] * length, [-a] * length, [a * (-1) ** i for i in range(length)]):
                assert kronecker_square(q) == square_schoolbook(q), (k, length)


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


def test_squarefree_over_q_falls_back_when_p_divides_lc(monkeypatch):
    """(p*x + 1)^2*(x + 2) with p = SQUAREFREE_PRIME is x + 2 mod p,
    squarefree there; p | lc forces the exact gcd (counted through
    ``IntPoly.to_rat``), which finds the square."""
    p = SQUAREFREE_PRIME
    calls = []
    to_rat = IntPoly.to_rat
    monkeypatch.setattr(IntPoly, "to_rat", lambda self: calls.append(self) or to_rat(self))
    f = IntPoly((1, p)) * IntPoly((1, p)) * IntPoly((2, 1))
    assert not squarefree_over_q(f)
    assert len(calls) == 2
    assert squarefree_over_q(IntPoly((1, p)) * IntPoly((2, 1)))
    assert len(calls) == 4
    assert squarefree_over_q(IntPoly((1, p + 1)) * IntPoly((2, 1)))  # mod p alone
    assert len(calls) == 4


def test_squarefree_prime_lies_above_every_witness_radicand():
    """At p = q the witness polynomial is x^m mod p, so the modular test
    could never pass; every witness q is a prime below 2^31."""
    assert is_prime(SQUAREFREE_PRIME) and SQUAREFREE_PRIME < 1 << 32
    assert SQUAREFREE_PRIME > 1 << 31


def _even(coeffs):
    return [c if i % 2 == 0 else 0 for i, c in enumerate(coeffs)]


def _odd(coeffs):
    return [c if i % 2 else 0 for i, c in enumerate(coeffs)]


def _monomial(coeffs):
    return [0] * (len(coeffs) - 1) + coeffs[-1:]


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(st.integers(-(1 << 80), 1 << 80), max_size=40),
    shape=st.sampled_from([list, _even, _odd, _monomial]),
    F=st.integers(0, 300),
    t=st.fractions(-1, 1),
)
@example(coeffs=[1 << 80] * 40, shape=list, F=0, t=Fraction(1))
@example(coeffs=[-(1 << 80)] * 40, shape=_even, F=3, t=Fraction(-1))
@example(coeffs=[7], shape=list, F=5, t=Fraction(-1))
def test_fixed_point_eval_within_its_bound(coeffs, shape, F, t):
    """|Y - 2^F*f(X/2^F)| <= E for dense, even, odd and one-term f and
    X anywhere in [-2^(F+1), 2^(F+1)], against f at X/2^F evaluated exactly
    over Q."""
    f = IntPoly(shape(coeffs))
    X = int(2 * t * 2 ** F)
    value, err = fixed_point_eval(f, X, F)
    exact = f.evaluate(Fraction(X, 1 << F)) * (1 << F)
    assert abs(value - exact) <= err
    k = f.degree // 2
    assert err == (0 if f.is_zero() else (1 + k * max(map(abs, f.coeffs))) << 2 * k)


def test_fixed_point_eval_refuses_points_outside_two():
    with pytest.raises(ValueError):
        fixed_point_eval(IntPoly((1, 1)), (2 << 10) + 1, 10)
    assert fixed_point_eval(IntPoly((1, 1)), -(2 << 10), 10) == (-(1 << 10), 1)


def _next_prime(n: int) -> int:
    while not is_prime_trial(n):
        n += 1
    return n


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


# Carmichael numbers: the first twenty, and Chernick's (6k+1)(12k+1)(18k+1)
# with all three factors prime, to about 1.4*10^14.
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
              46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401) + tuple(
    (6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, 3000)
    if all(is_prime_trial(m * k + 1) for m in (6, 12, 18)))
# Strong pseudoprimes: the least one to the first k prime bases, for every k
# that Miller-Rabin uses, and a few more to base 2.
STRONG_PSEUDOPRIMES = {
    2047: 1, 3277: 1, 4033: 1, 4681: 1, 8321: 1, 1373653: 2, 25326001: 3, 3215031751: 4,
    2152302898747: 5, 3474749660383: 6, 341550071728321: 8, 3825123056546413051: 11,
}


def _check_against_oracles(n: int) -> None:
    assert is_prime(n) == is_prime_trial(n)
    assert is_squarefree(n) == is_squarefree_trial(n)
    if n >= 1:
        assert factorize(n) == factorize_trial(n)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.integers(-3, 10 ** 7 - 1),
    st.integers(2, 1 << 17).map(lambda p: _next_prime(p) ** 2),
    st.sampled_from(CARMICHAEL),
    st.sampled_from([n for n in STRONG_PSEUDOPRIMES if n < 1 << 32]),
))
def test_number_theory_matches_trial_division(n):
    """is_prime, factorize and is_squarefree against the trial-division
    oracles: random n < 10^7, squares of primes, Carmichael numbers and
    strong pseudoprimes."""
    _check_against_oracles(n)


def test_number_theory_and_primes_below_match_trial_division_below_2_12():
    """The oracle checks at every n below 2^12, and the sieve primes_below
    against is_prime_trial."""
    for n in range(-3, 1 << 12):
        _check_against_oracles(n)
    for n in (1, 2, 3, 4, 100, 1 << 12):
        assert primes_below(n) == tuple(p for p in range(n) if is_prime_trial(p))


def test_carmichael_and_strong_pseudoprimes_are_composite():
    """Every listed number is what it is listed as, and none fools
    is_prime; each factor found is prime by the oracle (at most 46,341
    divisions for a factor below 2^31)."""
    assert len(CARMICHAEL) > 40 and max(CARMICHAEL) > 10 ** 13
    for n in CARMICHAEL:
        assert all((n - 1) % (p - 1) == 0 for p in factorize(n))  # Korselt
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    for n, k in [(n, 0) for n in CARMICHAEL] + list(STRONG_PSEUDOPRIMES.items()):
        assert all(_strong_probable_prime(n, a) for a in bases[:k])
        assert not is_prime(n)
        factors = factorize(n)
        assert len(factors) >= 2 and prod(p ** e for p, e in factors.items()) == n
        assert all(p < 1 << 31 and is_prime_trial(p) for p in factors)


@settings(max_examples=12, deadline=None)
@given(st.integers(1 << 30, (1 << 31) - 1), st.integers(1 << 30, (1 << 31) - 1))
def test_factorize_products_of_two_31_bit_primes(u, v):
    """Pollard-Brent splits p*q and p^2 for 31-bit primes, where trial
    division would take 2^31 steps; each prime is accepted by the oracle."""
    p, q = sorted((_next_prime(u), _next_prime(v)))
    assert is_prime(p) and is_prime(q)
    assert factorize(p * q) == ({p: 2} if p == q else {p: 1, q: 1})
    assert not is_prime(p * q)
    assert is_squarefree(p * q) == (p != q)
    assert factorize(8 * p * p) == {2: 3, p: 2}
    assert not is_squarefree(p * p)


def test_number_theory_domains():
    assert MAX_RADICAND == 1 << 62 and 8 * MAX_RADICAND == FACTOR_BELOW
    assert is_squarefree(MAX_RADICAND - 1)  # 3 * 715827883 * 2147483647
    with pytest.raises(CapExceeded):
        is_squarefree(MAX_RADICAND)
    assert factorize(FACTOR_BELOW - 1) == {31: 1, 8191: 1, 145295143558111: 1}
    with pytest.raises(CapExceeded):
        factorize(FACTOR_BELOW)
    with pytest.raises(BadParameters):
        factorize(0)
    assert is_prime(MR_EXACT_BELOW - 2) in (True, False)  # decided, not refused
    with pytest.raises(CapExceeded):
        is_prime(MR_EXACT_BELOW)  # 399165290221 * 798330580441, a liar to all 12 bases
    assert is_prime((1 << 61) - 1) and is_prime(10 ** 18 + 3)

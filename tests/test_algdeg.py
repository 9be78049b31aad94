"""Doubling tower, exact table, identity residuals, and cosine degrees."""

import functools
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FractionBiquad, angle_residual_mpf
from trisectlab import algdeg
from trisectlab.algdeg import (
    EXACT_TABLE,
    HALF,
    IDENTITIES,
    TABLE,
    Cyclo,
    _biquad,
    _compose_square_minus_2,
    _coords_interval,
    _interval_values,
    _interval_zero,
    _root_residual,
    angle_degree,
    cn_degree_check,
    identity_suite,
    p_tower,
    tower_checks,
)
from trisectlab.errors import CapExceeded, NotCoprime
from trisectlab.polyalg import IntPoly, cos_minimal_poly


def test_p_tower_examples():
    assert p_tower(1) == IntPoly((-2, 0, 1))
    assert p_tower(2) == IntPoly((2, 0, -4, 0, 1))
    assert p_tower(3) == IntPoly((2, 0, -16, 0, 20, 0, -8, 0, 1))
    with pytest.raises(CapExceeded):
        p_tower(50)


@pytest.mark.parametrize("check", [p_tower, cn_degree_check])
def test_degree_cap_refuses_before_forming_the_power(check):
    """n is compared with the cap's exponent before 2^n is formed: 2^n
    took 8 s at n = 10^9 and never finished at 10^26, and
    cn_degree_check(10^5) raised a bare ValueError formatting phi(m)'s
    30,104-digit m into the cap message."""
    for n in (13, 10 ** 5, 10 ** 30):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="exceeds cap 4096"):
            check(n)
        assert time.perf_counter() - start < 0.1, n


def test_tower_checks():
    report = tower_checks(2)
    assert report["ok"]
    assert all(r["method"] == "exact" for r in report["descent"])
    for n in range(1, 11):
        assert tower_checks(n)["ok"], n


@pytest.mark.parametrize("first_prec", (100, 24))
@pytest.mark.parametrize("n", range(1, 11))
def test_tower_descent_matches_fresh_evaluation(n, first_prec, monkeypatch):
    """Each descent record against its check evaluated alone, with the
    interval a_n = 2cos(pi/2^n) formed afresh for its own k.  A first
    precision of 24 bits is too low for every interval check, so each one
    retries at 200 bits, which must use an a_n formed at 200 bits."""
    check = functools.partial(_interval_zero, prec=first_prec)
    monkeypatch.setattr(algdeg, "_interval_zero", check)
    records = []
    for k in range(1, n + 1):
        if n <= 2:
            ok = p_tower(k).evaluate(EXACT_TABLE["a"][n]) == EXACT_TABLE["a"][n - k]
            records.append({"k": k, "method": "exact", "ok": ok})
            continue
        ok, width = check(lambda iv: _compose_square_minus_2(2 * iv.cos(iv.pi / 2 ** n), k)
                          - 2 * iv.cos(iv.pi / 2 ** (n - k)))
        records.append({"k": k, "method": "interval", "ok": ok, "width": width})
    report = tower_checks(n)
    assert report["descent"] == records
    assert report["ok"]


@pytest.mark.parametrize("check, n", [(tower_checks, 12), (cn_degree_check, 11),
                                      (cn_degree_check, 12)])
def test_top_of_the_domain(check, n):
    """The largest n under the degree cap, 2^12 = 4096."""
    assert check(n)["ok"]


def test_tower_descent_value():
    # p_2(sqrt(2)) = 4 - 8 + 2 = -2
    from trisectlab.exact_arith import QuadElem

    got = p_tower(2).evaluate(QuadElem(0, 1, 1, 2))
    assert got == QuadElem(-2, 0, 1, 2)


def test_doubling_identity_numeric():
    rng = random.Random(41)
    for n in range(1, 11):
        poly = p_tower(n)
        # Horner on the monomial form cancels near |x| = 2; budget the
        # precision from the exact magnitude bound sum |c_i| 2^i
        magnitude = sum(abs(c) * 2 ** i for i, c in enumerate(poly.coeffs))
        with mpmath.workprec(magnitude.bit_length() + 120):
            for _ in range(50):
                t = mpmath.mpf(rng.random()) * 6 - 3
                got = poly.evaluate(2 * mpmath.cos(t))
                assert abs(got - 2 * mpmath.cos(2 ** n * t)) < mpmath.mpf(10) ** -25


def test_angle_degree_examples():
    assert angle_degree(1, 12) == 2
    assert cos_minimal_poly(12) == IntPoly((-3, 0, 1))
    assert angle_degree(1, 1) == 1
    assert angle_degree(7, 24) == 4
    with pytest.raises(NotCoprime):
        angle_degree(2, 12)


def _cn_angle(n: int) -> tuple[int, int]:
    j, m = 2 ** n + 3, 3 * 2 ** (n + 1)
    g = math.gcd(j, m)
    return j // g, m // g


@pytest.mark.parametrize("n", [3, 9, 12])
def test_numeric_root_bounds_the_mpf_oracle(n):
    """The fixed-point residual plus its bound is at least mpmath Horner's
    residual at the same working precision, and below the tolerance."""
    j, m = _cn_angle(n)
    poly = cos_minimal_poly(m)
    man, exp = angle_residual_mpf(poly, j, m).man_exp
    assert Fraction(man) * Fraction(2) ** exp <= _root_residual(poly, j, m) < Fraction(1, 10 ** 25)


@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("index", [0, 1, "middle", "below-top"])
@pytest.mark.parametrize("step", [1, -1])
def test_numeric_root_rejects_a_wrong_minpoly(monkeypatch, n, index, step):
    """C_h - 1 (h = 2^n) with one coefficient moved by 1, an odd one (1,
    below-top) making it odd, is refused by the residual check."""
    j, m = _cn_angle(n)
    true = cos_minimal_poly(m)
    i = {"middle": true.degree // 2, "below-top": true.degree - 1}.get(index, index)
    coeffs = list(true.coeffs)
    coeffs[i] += step
    monkeypatch.setattr(algdeg, "cos_minimal_poly", lambda m: IntPoly(coeffs))
    with pytest.raises(AssertionError, match="misses its minimal polynomial"):
        cn_degree_check(n)


def test_a_sequence_degrees():
    for n in range(1, 11):
        assert angle_degree(1, 2 ** (n + 1)) == 2 ** (n - 1)


def test_cn_dn_degrees():
    assert cn_degree_check(1)["degree"] == 2   # value -sqrt(3)
    assert cn_degree_check(2)["degree"] == 4
    for n in range(1, 9):
        assert cn_degree_check(n)["ok"]
    # 2cos(pi/3 - pi/2^n) = 2cos(2*pi*(2^n - 3)/(3*2^(n+1))); n = 1 folds
    # to 2cos(pi/6) = sqrt(3) since cos is even
    for n in range(1, 9):
        j, m = abs(2 ** n - 3), 3 * 2 ** (n + 1)
        g = math.gcd(j, m)
        assert angle_degree(j // g, m // g) == (2 ** n if n >= 2 else 2)


def test_biquad_arithmetic():
    r2 = _biquad(0, 1, 0, 0)
    r3 = _biquad(0, 0, 1, 0)
    assert r2 * r2 == _biquad(2, 0, 0, 0) == 2
    assert r3 * r3 == _biquad(3, 0, 0, 0) == 3
    assert r2 * r3 == _biquad(0, 0, 0, 1)
    assert (r2 + r3) * (r2 - r3) == _biquad(-1, 0, 0, 0) == -1
    assert r2 * r2 - 2 == 0 and r2 != 0


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_scalars = st.one_of(st.integers(-6, 6), _rationals)
# a leaf is four rational coordinates, given as Fractions or as strings
_leaves = st.tuples(st.tuples(_rationals, _rationals, _rationals, _rationals), st.booleans())
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from("+-*"), kids, st.one_of(kids, _scalars)),
        st.tuples(st.sampled_from(("r+", "r-", "r*")), _scalars, kids),
        st.tuples(st.just("neg"), kids),
    ),
    max_leaves=10,
)


def _evaluate(tree, cls):
    """The value of an expression tree with its leaves built as ``cls``."""
    if not isinstance(tree[0], str):
        coords, as_text = tree
        return cls(*(str(c) if as_text else c for c in coords))
    if tree[0] == "neg":
        return -_evaluate(tree[1], cls)
    op = tree[0][-1]
    if tree[0].startswith("r"):  # scalar on the left: __radd__, __rsub__, __rmul__
        left, right = tree[1], _evaluate(tree[2], cls)
    else:
        left = _evaluate(tree[1], cls)
        right = _evaluate(tree[2], cls) if isinstance(tree[2], tuple) else tree[2]
    return {"+": lambda: left + right, "-": lambda: left - right, "*": lambda: left * right}[op]()


@settings(max_examples=200, deadline=None)
@given(tree=_trees, other=_trees)
def test_biquad_matches_fraction_oracle(tree, other):
    """Q(sqrt(2), sqrt(3)) inside Q(zeta_24) against one Fraction per
    coordinate, on random expression trees: the ring image of the same
    value, the same verdict of ==, and the same interval from the same
    reduced fractions."""
    def leaf(*coords):
        return _biquad(*map(Fraction, coords))

    got, want = _evaluate(tree, leaf), _evaluate(tree, FractionBiquad)
    assert got == _biquad(*want.coords())
    got_other, want_other = _evaluate(other, leaf), _evaluate(other, FractionBiquad)
    assert (got == got_other) == (want == want_other)
    assert (got * 3) * Fraction(1, 3) == got
    assert (got + got_other) - got_other == got
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = 100
        mine, ref = _coords_interval(want.coords(), iv), want.interval(iv)
        assert (mine.a, mine.b) == (ref.a, ref.b)
    finally:
        iv.prec = old


def test_exact_table_reproduces():
    # c_2 = (1 - sqrt(3))/sqrt(2) = (sqrt(2) - sqrt(6))/2 and its mirror
    assert EXACT_TABLE["c"][2] * _biquad(0, 1, 0, 0) == _biquad(1, 0, -1, 0)
    assert EXACT_TABLE["d"][2] * _biquad(0, 1, 0, 0) == _biquad(1, 0, 1, 0)
    # a_2 = b_2 = sqrt(2); squares are 2
    assert EXACT_TABLE["a"][2] * EXACT_TABLE["a"][2] == _biquad(2, 0, 0, 0)
    suite = identity_suite(2)
    assert suite["ok"]
    table_checks = [r for r in suite["records"] if r["check"].startswith("table-")]
    assert len(table_checks) == 12 and all(r["ok"] for r in table_checks)


def test_identity_examples():
    table = EXACT_TABLE
    # d_0 = 2 - c_1^2 = 2 - 3 = -1
    assert 2 - table["c"][1] * table["c"][1] == table["d"][0]
    # d_1 = 2 - c_2^2 = sqrt(3)
    assert 2 - table["c"][2] * table["c"][2] == _biquad(0, 0, 1, 0)
    # c_1 = a_1/2 - (sqrt(3)/2) b_1 = -sqrt(3)
    lhs = (table["a"][1] - _biquad(0, 0, 1, 0) * table["b"][1]) * HALF
    assert lhs == table["c"][1]


@pytest.mark.parametrize("first_prec", (100, 24))
@pytest.mark.parametrize("N", range(1, 7))
def test_identity_suite_matches_fresh_evaluation(N, first_prec, monkeypatch):
    """Each record against its check evaluated alone, with interval values
    built afresh for its own n.  A first precision of 24 bits is too low
    for every interval check, so each one retries at 200 bits, which must
    use values built at 200 bits."""
    check = functools.partial(_interval_zero, prec=first_prec)
    monkeypatch.setattr(algdeg, "_interval_zero", check)
    records = []
    for name, col in TABLE.items():
        for n, coords in col.items():
            ok, width = check(
                lambda iv: _coords_interval(coords, iv) - _interval_values(iv, n)[name][n])
            records.append({"check": f"table-{name}{n}", "n": n, "method": "interval",
                            "ok": ok, "width": width})
    for n in range(1, N + 1):
        for name, lhs, rhs in IDENTITIES:
            if n <= 2:
                ok = lhs(EXACT_TABLE, n) == rhs(EXACT_TABLE, n)
                records.append({"check": name, "n": n, "method": "exact", "ok": ok})
                continue
            ok, width = check(
                lambda iv: lhs(_interval_values(iv, n), n) - rhs(_interval_values(iv, n), n))
            records.append({"check": name, "n": n, "method": "interval", "ok": ok,
                            "width": width})
    suite = identity_suite(N)
    assert suite["records"] == records
    assert suite["ok"] and suite["max_width"] == max(r.get("width", 0.0) for r in records)


def test_identity_suite_residuals():
    suite = identity_suite(10)
    assert suite["ok"]
    assert suite["max_width"] < 2.0 ** -64
    exact = [r for r in suite["records"] if r["method"] == "exact"]
    assert len(exact) == 16  # eight identities at n = 1 and n = 2


def _ring_values(n: int) -> dict:
    """a, b, c and d at levels n and n - 1, sqrt(3) and 1/2 in Q(zeta_M),
    M = 3*2^(n+1), from z = zeta^3 = e^(i*pi/2^n), i = zeta^(M/4) and
    omega = zeta^(M/6) = e^(i*pi/3); level n - 1 uses z^2."""
    M = 3 * 2 ** (n + 1)

    def zeta(k):
        return Cyclo(M // 6, [(k, 1)])

    i, omega, omega_inv = zeta(M // 4), zeta(M // 6), zeta(-M // 6)
    vals = {"a": {}, "b": {}, "c": {}, "d": {}, "half": Fraction(1, 2),
            "root3": zeta(M // 12) + zeta(-M // 12)}
    for level, e in ((n, 3), (n - 1, 6)):
        z, z_inv = zeta(e), zeta(-e)
        vals["a"][level] = z + z_inv
        vals["b"][level] = -i * (z - z_inv)
        vals["c"][level] = omega * z + omega_inv * z_inv
        vals["d"][level] = omega_inv * z + omega * z_inv
    return vals


@functools.cache
def _suite_records() -> dict:
    return {(r["check"], r["n"]): r["ok"] for r in identity_suite(12)["records"]}


@pytest.mark.parametrize("n", range(3, 13))
def test_cyclotomic_ring_proves_the_tower(n):
    """In Q(zeta_M), M = 3*2^(n+1), the eight identities hold exactly, as
    identity_suite(12) says by intervals; the descent p_k(a_n) = a_(n-k)
    holds for every k <= n by k squarings, as tower_checks(n) says; and a
    wrong identity fails."""
    vals = _ring_values(n)
    for name, lhs, rhs in IDENTITIES:
        assert (lhs(vals, n) == rhs(vals, n)) is _suite_records()[name, n] is True, name
    assert vals["a"][n - 1] != vals["a"][n] * vals["a"][n] - 3
    x = vals["a"][n]
    descent = []
    for k in range(1, n + 1):
        x = x * x - 2
        # a_(n-k) = z^(2^k) + z^-(2^k)
        a_prev = Cyclo(x.H, [(3 * 2 ** k, 1), (-3 * 2 ** k, 1)])
        descent.append(x == a_prev)
        assert x != a_prev + 1
    assert descent == [r["ok"] for r in tower_checks(n)["descent"]] == [True] * n

"""Sieve counting against the enumeration oracle, plus the analytic
side-guards."""

import json
import math
import random
import time
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_count_recursive,
    coprime_count_table,
    mobius,
    mobius_table,
    sieve_count_loop,
    sieve_count_table,
    zeta_partial_sums,
)
from trisectlab import coprime_count
from trisectlab.cli import main as cli_main
from trisectlab.coprime_count import (
    Box,
    _brute_grid,
    _mobius_sieve,
    brute_count,
    eccentricity,
    error_term_budget,
    lehmer_report,
    mobius_blocks,
    mobius_sum,
    sieve_count,
    zeta,
)
from trisectlab.errors import BadParameters, CapExceeded


def test_mobius_examples_and_sieve_agreement():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    table = _mobius_sieve(500)
    assert table.dtype == np.int8 and table[0] == 0
    assert all(table[j] == mobius(j) for j in range(1, 501))
    # past sqrt(n) one prime factor is left to the final sign flip
    assert _mobius_sieve(10 ** 5).tolist() == mobius_table(10 ** 5)


# M(10^k) for k = 1..9
KNOWN_MERTENS = tuple(enumerate((-1, 1, 2, -23, -48, 212, 1037, 1928, -222), 1))


@pytest.mark.parametrize("k, value", KNOWN_MERTENS)
def test_mertens_known_values(k, value):
    """M(10^k) = sum_{e <= 10^k} mu(e), which is mobius_sum with L = 1."""
    assert mobius_sum((10 ** k,), lambda q: [1] * len(q)) == value


@pytest.mark.parametrize("k, value", KNOWN_MERTENS)
def test_mobius_blocks_are_live_and_sum_to_mertens(k, value):
    """The blocks of n = 10^k start at 1, ascend, carry no zero weight,
    and their weights telescope to M(n)."""
    starts, weights = mobius_blocks(10 ** k)
    assert starts[0] == 1 and (np.diff(starts) > 0).all()
    assert (weights != 0).all()
    assert int(weights.sum()) == value


def test_mobius_sum_sees_each_quotient_block_once():
    calls = []

    def L(a, b):
        calls.append(len(a))
        return a * b

    assert mobius_sum((1000, 37), L) == sieve_count_loop(Box((1000, 37)))
    assert len(calls) == 1 and calls[0] < 37
    assert mobius_sum((0, 5), L) == 0 and len(calls) == 1


_sides = st.builds(Fraction, st.integers(1, 4000), st.integers(1, 9))


@settings(max_examples=200, deadline=None)
@example(sides=(Fraction(59, 10), Fraction(16, 5)))
@example(sides=(Fraction(1), Fraction(10 ** 30)))
@example(sides=(Fraction(3999, 2), Fraction(3999, 2), Fraction(3999, 2), Fraction(3999, 2)))
@given(sides=st.lists(_sides.filter(lambda x: x >= 1), min_size=2, max_size=4).map(tuple))
def test_sieve_count_matches_j_loop(sides):
    """The quotient-block counter against the Moebius sum over every j."""
    box = Box(sides)
    assert sieve_count(box) == sieve_count_loop(box)


def test_block_cap_refuses_before_any_work():
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="quotient blocks"):
        sieve_count(Box((10 ** 30, 10 ** 30)))
    assert time.perf_counter() - start < 1


def test_lehmer_at_a_billion(capsys):
    """2*Phi(10^9) - 1 coprime pairs in the 10^9 x 10^9 square."""
    start = time.perf_counter()
    assert cli_main(["lehmer", "--sides", "1e9,1e9"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 607927102346016827
    assert time.perf_counter() - start < 3


def test_box_validation():
    with pytest.raises(BadParameters):
        Box((4,))
    with pytest.raises(BadParameters):
        Box((4, Fraction(1, 2)))


def test_sieve_examples():
    assert sieve_count(Box((4, 4))) == 11
    assert sieve_count(Box((1, 1))) == 1
    assert sieve_count(Box(("5.9", "3.2"))) == 12


def test_brute_examples_and_cap():
    assert brute_count(Box((2, 2, 2))) == 7
    assert brute_count(Box((1, 1))) == 1
    assert brute_count(Box((4, 4))) == 11
    with pytest.raises(CapExceeded):
        brute_count(Box((10 ** 5, 10 ** 5)))


@settings(max_examples=150, deadline=None)
@example(floors=(0,), blocks=7)
@example(floors=(1,), blocks=1)
@example(floors=(12, 0, 5), blocks=3)
@example(floors=(14, 14, 14, 14), blocks=50)
@given(floors=st.lists(st.integers(0, 14), min_size=1, max_size=4).map(tuple),
       blocks=st.integers(1, 50))
def test_brute_grid_matches_recursive_oracle(floors, blocks):
    """The gcd grid against the recursion over running gcds, for k = 1..4,
    zero floors (no tuples) among them, split into up to 50 blocks."""
    block = max(1, -(-math.prod(floors) // blocks))
    with mock.patch.object(coprime_count, "BRUTE_BLOCK", block):
        assert _brute_grid(floors) == brute_count_recursive(floors)


@settings(max_examples=60, deadline=None)
@given(sides=st.lists(st.fractions(min_value=1, max_value=18, max_denominator=10),
                      min_size=2, max_size=4).map(tuple))
def test_brute_count_floors_fractional_sides(sides):
    box = Box(sides)
    assert brute_count(box) == brute_count_recursive(box.floors())


def test_brute_cap_refuses_before_building_arrays(monkeypatch):
    """The volume cap is checked on the floors, before any array: with
    ``np.arange`` refused, a box past the cap still gets ``CapExceeded``.
    A volume of more than 4300 digits is named by its power of two."""
    monkeypatch.setattr(coprime_count, "BRUTE_MAX_VOLUME", 99)
    assert brute_count(Box((9, 11))) == brute_count_recursive((9, 11))

    def refuse(*args, **kwargs):
        raise AssertionError("an array was built")

    monkeypatch.setattr(np, "arange", refuse)
    with pytest.raises(CapExceeded, match="volume 100 exceeds cap 99"):
        brute_count(Box((10, 10)))
    with pytest.raises(CapExceeded, match=r"volume at least 2\^19931 exceeds"):
        brute_count(Box((10 ** 3000, 10 ** 3000)))


def test_real_sided_agreement_random():
    rng = random.Random(1202)
    for _ in range(200):
        k = rng.choice((2, 2, 3))
        sides = tuple(Fraction(rng.randint(10, 259), 10) for _ in range(k))
        box = Box(sides)
        assert sieve_count(box) == brute_count(box)


def test_floor_invariance():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.choice((2, 3))
        sides = tuple(Fraction(rng.randint(10, 400), 7) for _ in range(k))
        box = Box(sides)
        assert sieve_count(box) == sieve_count(Box(box.floors()))


def test_monotonicity_in_each_side():
    rng = random.Random(6)
    for _ in range(60):
        sides = [Fraction(rng.randint(1, 30)) for _ in range(3)]
        base = sieve_count(Box(tuple(sides)))
        i = rng.randrange(3)
        sides[i] += rng.randint(1, 5)
        assert sieve_count(Box(tuple(sides))) >= base


def test_tables_match_pointwise_ops():
    floors = (9, 8, 7)
    brute_table = coprime_count_table(floors)
    sieve_table = sieve_count_table(floors)
    assert np.array_equal(brute_table, sieve_table)
    rng = random.Random(9)
    for _ in range(25):
        sub = tuple(rng.randint(1, f) for f in floors)
        idx = tuple(s - 1 for s in sub)
        assert brute_table[idx] == brute_count(Box(sub))
        assert sieve_table[idx] == sieve_count(Box(sub))


def test_eccentricity_examples():
    assert eccentricity(Box((4, 4))) == 1
    assert eccentricity(Box((6, 2))) == 3
    assert eccentricity(Box((2, 4, 8))) == 4


def test_error_budget_examples():
    assert error_term_budget(Box((2, 4, 8))) == pytest.approx(16.0)
    assert error_term_budget(Box((4, 4))) == pytest.approx(4 * math.log(4))
    assert error_term_budget(Box((1, 1))) == pytest.approx(0.0)


def test_zeta_values():
    assert zeta(2) == pytest.approx(math.pi ** 2 / 6, abs=1e-10)
    assert zeta(4) == pytest.approx(math.pi ** 4 / 90, abs=1e-10)
    assert zeta(3) == pytest.approx(1.2020569031595943, abs=1e-8)


def test_zeta_is_correctly_rounded():
    with mpmath.workdps(40):
        for k in range(2, 12):
            assert zeta(k) == float(mpmath.zeta(k)), k


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_zeta_within_tol(tol, monkeypatch):
    """With the bracket's half-width bound widened to tol, the
    Euler-Maclaurin midpoint lies within tol of zeta(k), and within 2*tol
    of the partial-sum reference."""
    monkeypatch.setattr(coprime_count, "_FLOAT_HALF_WIDTH", Fraction(tol))
    with mpmath.workdps(30):
        for k in range(2, 9):
            got = zeta(k)
            assert abs(got - mpmath.zeta(k)) <= tol
            if tol >= 1e-9:
                assert abs(got - zeta_partial_sums(k, tol)) <= 2 * tol


def test_perturbation_bound():
    """|prod(x) - prod(y)| <= (2^k - 1) * prod(x)/min(x) whenever every
    coordinate moves by at most 1 (exact, over random rational boxes)."""
    rng = random.Random(77)
    for _ in range(300):
        k = rng.choice((2, 3, 4))
        x = [Fraction(rng.randint(10, 500), 10) for _ in range(k)]
        y = [max(Fraction(1), xi + Fraction(rng.randint(-10, 10), 10)) for xi in x]
        px = math.prod(x)
        py = math.prod(y)
        phi = px / min(x)
        assert abs(px - py) <= (2 ** k - 1) * phi


def test_lehmer_report_examples():
    rep = lehmer_report(Box((100, 100)))
    assert rep.count == 6087
    assert rep.main_term == pytest.approx(10 ** 4 / zeta(2), rel=1e-9)
    assert rep.count == brute_count(Box((100, 100)))

    rep1 = lehmer_report(Box((1, 1)))
    assert rep1.count == 1
    assert rep1.main_term == pytest.approx(1 / zeta(2), rel=1e-9)
    assert rep1.error == pytest.approx(1 - 1 / zeta(2), rel=1e-9)

    rep3 = lehmer_report(Box((10, 20, 40)))
    assert rep3.count == brute_count(Box((10, 20, 40)))


def test_error_scaling_fixed_eccentricity():
    for k in (2, 3):
        for N in (100, 1000, 10_000):
            box = Box((N,) * k)
            count = sieve_count(box)
            main = N ** k / zeta(k)
            budget = error_term_budget(box)
            if budget == 0:
                continue
            assert abs(count - main) / budget <= 10



"""Sieve counting against the enumeration oracle, plus the analytic
side-guards."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from trisectlab.coprime_count import (
    Box,
    brute_count,
    coprime_count_table,
    eccentricity,
    error_term_budget,
    lehmer_report,
    mobius,
    mobius_table,
    sieve_count,
    sieve_count_table,
    zeta,
)
from trisectlab.errors import BadParameters, CapExceeded


def test_mobius_examples_and_sieve_agreement():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    table = mobius_table(500)
    assert all(table[j] == mobius(j) for j in range(1, 501))


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
    assert zeta(3, tol=1e-9) == pytest.approx(1.2020569031595943, abs=1e-8)


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



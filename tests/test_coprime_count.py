"""Sieve counting against the enumeration oracle, plus the analytic
side-guards."""

import json
import math
import os
import random
import subprocess
import sys
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
    brute_grid_flat,
    coprime_count_table,
    mertens_whole_table,
    mobius,
    mobius_sieve_whole,
    mobius_values,
    sieve_count_loop,
    sieve_count_table,
    zeta_partial_sums,
)
from trisectlab import coprime_count
from trisectlab.cli import main as cli_main
from trisectlab.coprime_count import (
    Box,
    _brute_grid,
    _mertens,
    _mertens_segments,
    brute_count,
    eccentricity,
    error_term_budget,
    lehmer_report,
    mobius_blocks,
    mobius_sum,
    mobius_table,
    ragged_sums,
    sieve_count,
    zeta,
)
from trisectlab.errors import BadParameters, CapExceeded


def test_mobius_examples_and_sieve_agreement():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    table = mobius_sieve_whole(500)
    assert table.dtype == np.int8 and table[0] == 0
    assert all(table[j] == mobius(j) for j in range(1, 501))
    # past sqrt(n) one prime factor is left to the final sign flip
    assert mobius_sieve_whole(10 ** 5).tolist() == mobius_values(10 ** 5)


@pytest.mark.parametrize("lo, segment", [(1, 1000), (1, 1 << 19), (2, 61), (170, 97), (31 ** 2, 4096)])
def test_segmented_sieve_matches_plain_sieve(lo, segment):
    """M over [lo, 10^5] from segments of every size, each starting at
    any residue of the wheel, both below and past the square root of its
    end, against the plain sieve."""
    mu = mobius_values(10 ** 5)
    with mock.patch.object(coprime_count, "MOBIUS_SEGMENT", segment):
        parts = list(_mertens_segments(lo, 10 ** 5 + 1, sum(mu[:lo])))
    assert [a for a, _ in parts] == list(range(lo, 10 ** 5 + 1, segment))
    assert all(m.dtype == np.int32 for _, m in parts)
    assert np.concatenate([m for _, m in parts]).tolist() == np.cumsum(mu)[lo:].tolist()


def test_mobius_table_doubles_from_its_floor_to_its_cap():
    with mock.patch.object(coprime_count, "_MOBIUS_CACHE", np.zeros(1, dtype=np.int32)):
        assert len(mobius_table(1)) == coprime_count.MOBIUS_TABLE_MIN + 1
        assert len(mobius_table(coprime_count.MOBIUS_TABLE_MIN + 1)) == 2 * coprime_count.MOBIUS_TABLE_MIN + 1
        assert len(mobius_table(5)) == 2 * coprime_count.MOBIUS_TABLE_MIN + 1  # never shrinks
        with mock.patch.object(coprime_count, "MOBIUS_TABLE_MAX", 1 << 14):
            table = mobius_table(10 ** 9)
            assert len(table) == (1 << 14) + 1
            assert table.tolist() == np.cumsum(mobius_values(1 << 14)).tolist()
            assert mobius_table(10 ** 12) is table


def _floor_quotients(n: int) -> list[int]:
    s = math.isqrt(n)
    return sorted(set(range(s + 1)) | {n // k for k in range(1, s + 1)})


# The table states of test_mertens_matches_whole_table_oracle: cold (M(0)
# only), warm (some power of two), and at a cap of 2^14 >= isqrt(10^8).
_CAP = 1 << 14


@settings(max_examples=60, deadline=None)
@example(n=5 * 10 ** 6, state="cap", segment=97, chunk=5, data=None)
@example(n=10 ** 8, state="cap", segment=1000, chunk=64, data=None)
@example(n=3 * 10 ** 7 + 1, state="cold", segment=4096, chunk=1 << 16, data=None)
@given(n=st.integers(1, 10 ** 8), state=st.sampled_from(["cold", "warm", "cap"]),
       segment=st.sampled_from([1000, 4096]), chunk=st.sampled_from([64, 1 << 16]),
       data=st.data())
def test_mertens_matches_whole_table_oracle(n, state, segment, chunk, data):
    """_mertens over a random sorted set of floor quotients of n (every
    one when no set is drawn), with the table cold, warm or at its cap and
    small segments and chunks, against the whole-table oracle."""
    quotients = _floor_quotients(n)
    want = dict(zip(quotients, mertens_whole_table(np.array(quotients, dtype=np.int64)).tolist()))
    xs = quotients
    if data is not None:
        xs = sorted(set(data.draw(st.lists(st.sampled_from(quotients), min_size=1, max_size=40))))
    table = np.zeros(1, dtype=np.int32)
    if state != "cold":
        size = _CAP if state == "cap" else 1 << (data.draw(st.integers(10, 13)) if data else 10)
        table = np.cumsum(mobius_values(size), dtype=np.int32)
    with mock.patch.object(coprime_count, "_MOBIUS_CACHE", table), \
            mock.patch.object(coprime_count, "MOBIUS_TABLE_MAX", _CAP), \
            mock.patch.object(coprime_count, "MOBIUS_SEGMENT", segment), \
            mock.patch.object(coprime_count, "MOBIUS_CHUNK", chunk):
        got = _mertens(np.array(xs, dtype=np.int64))
        assert len(coprime_count._MOBIUS_CACHE) <= _CAP + 1
    assert got.tolist() == [want[x] for x in xs]


_ROW = st.tuples(st.integers(0, 1 << 20), st.integers(0, 1 << 16), st.integers(0, 3),
                 st.integers(-1, 2))


@pytest.mark.parametrize("chunk", [coprime_count.MOBIUS_CHUNK, 1, 7])
@settings(max_examples=30, deadline=None)
@example(rows=[(1 << 20, 1 << 16, 3, 2), (0, 5, 0, 0), (1 << 20, 0, 0, 1)], floats=False)
@given(rows=st.lists(_ROW, min_size=1, max_size=6), floats=st.booleans())
def test_ragged_sums_match_double_loop(chunk, rows, floats):
    """ragged_sums against a Python double loop, with term x*k: zero-length
    rows, rows of up to three chunks and two terms cut into pieces over
    several groups, int64 and float64 x, and per-row totals past 2^63
    (int64 x near its top), which come back exact as Python ints.  x is
    drawn as a share of the largest value that keeps every piece's sum in
    int64, and for float64 x every product below 2^53."""
    k_top = (1 << 16) + 3 * chunk + 2
    x_top = (1 << 62) // (chunk * k_top)
    if floats:
        x_top = min(x_top, (1 << 53) // k_top)
    rows = [(share * x_top >> 20, first, max(0, chunks * chunk + extra))
            for share, first, chunks, extra in rows]
    x, first, count = (np.array(column, dtype=np.int64) for column in zip(*rows))
    with mock.patch.object(coprime_count, "MOBIUS_CHUNK", chunk):
        got = ragged_sums(x.astype(np.float64) if floats else x, first, count,
                          lambda x, k: (x * k).astype(np.int64))
    want = [sum(xi * (fi + j) for j in range(ci)) for xi, fi, ci in rows]
    assert got.tolist() == want
    assert all(type(total) is int for total in got.tolist())
    if not floats and rows[0] == (x_top, 1 << 16, 3 * chunk + 2):  # the largest row
        assert want[0] > 2 ** 63


def test_mertens_refuses_past_its_table_cap():
    with pytest.raises(CapExceeded, match="Mertens table"):
        _mertens(np.array([(coprime_count.MOBIUS_TABLE_MAX + 1) ** 2], dtype=np.int64))


# M(10^k) for k = 1..10 (OEIS A084237)
KNOWN_MERTENS = tuple(enumerate((-1, 1, 2, -23, -48, 212, 1037, 1928, -222, -33722), 1))


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


def test_mertens_at_1e11_in_bounded_memory():
    """M(10^11) in a fresh interpreter: the table stays within its cap and
    the peak resident memory (VmHWM) under 120 MB."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import json\n"
        "from trisectlab import coprime_count as cc\n"
        "value = cc.mobius_sum((10 ** 11,), lambda q: [1] * len(q))\n"
        "with open('/proc/self/status') as status:\n"
        "    peak = next(int(l.split()[1]) for l in status if l.startswith('VmHWM:')) / 1024\n"
        "print(json.dumps([value, len(cc._MOBIUS_CACHE), cc.MOBIUS_TABLE_MAX, peak]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    value, size, cap, peak_mb = json.loads(proc.stdout)
    assert value == -87856
    assert size <= cap + 1
    assert peak_mb < 120


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


@settings(max_examples=100, deadline=None)
@example(floors=(3, 70000), blocks=4)  # the last axis alone is wider than a block
@example(floors=(9, 11, 13), blocks=50)
@given(floors=st.lists(st.integers(0, 20), min_size=1, max_size=4).map(tuple),
       blocks=st.integers(1, 50))
def test_brute_grid_matches_flat_oracle(floors, blocks):
    """The broadcast gcd grids against the flat-index divmod grid
    (:func:`oracles.brute_grid_flat`), split into up to 50 blocks."""
    block = max(1, -(-math.prod(floors) // blocks))
    with mock.patch.object(coprime_count, "BRUTE_BLOCK", block):
        assert _brute_grid(floors) == brute_grid_flat(floors, block)


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



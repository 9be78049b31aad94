"""Height-ball streams, count formulas, interval restriction, and the
certified sub-box."""

import itertools
import random
import time
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    ball_stream,
    generalized_sieve,
    interval_counts_per_quotient,
    qbox_reference,
    row_kernel_count,
)
from trisectlab import coprime_count, height_enum
from trisectlab.cli import main
from trisectlab.coprime_count import mobius_sum, zeta
from trisectlab.errors import BadParameters, CapExceeded, ZeroDenominator
from trisectlab.exact_arith import (
    RATIONAL_FIELD,
    QuadElem,
    canonicalize,
    height,
    in_interval,
    quadratic_field,
)
from trisectlab.height_enum import (
    INT64_SAFE,
    HeightBall,
    QBoxSpec,
    count_ball,
    count_ball_interval,
    count_ball_intervals,
    count_elements,
    enumerate_ball,
    enumerate_ball_interval,
    qbox,
    qbox_count,
    qbox_main_term,
)
from trisectlab.height_enum import _clipped_floor_sum, _draws, _floor_sqrt_multiple, _isqrt

QUAD_DS = (2, 3, 5, 6, 7)


def test_enumeration_examples():
    assert sorted(enumerate_ball(HeightBall(RATIONAL_FIELD, 1))) == [-1, 0, 1]
    assert len(list(enumerate_ball(HeightBall(RATIONAL_FIELD, 2)))) == 7
    ball = HeightBall(quadratic_field(2), 1)
    elems = list(enumerate_ball(ball))
    assert len(elems) == 9
    assert all(e.b == 1 for e in elems)


def test_enumeration_is_lexicographic_and_duplicate_free():
    ball = HeightBall(quadratic_field(3), 5)
    elems = list(enumerate_ball(ball))
    keys = [(e.b, e.a1, e.a2) for e in elems]
    assert keys == sorted(keys)
    assert len(set(elems)) == len(elems)


def test_count_matches_enumeration_rational_up_to_60():
    heights = [height(x) for x in enumerate_ball(HeightBall(RATIONAL_FIELD, 60))]
    for R in range(1, 61):
        got = count_ball(HeightBall(RATIONAL_FIELD, R))
        assert got == sum(1 for h in heights if h <= R)


@pytest.mark.parametrize("d", QUAD_DS)
def test_count_matches_enumeration_quadratic_up_to_25(d):
    heights = [height(x) for x in enumerate_ball(HeightBall(quadratic_field(d), 25))]
    for R in range(1, 26):
        got = count_ball(HeightBall(quadratic_field(d), R))
        assert got == sum(1 for h in heights if h <= R)


def test_nesting_and_union_exhaustion():
    ball20 = set(enumerate_ball(HeightBall(RATIONAL_FIELD, 20)))
    ball35 = set(enumerate_ball(HeightBall(RATIONAL_FIELD, 35)))
    assert ball20 <= ball35
    for x in (Fraction(7, 19), Fraction(-33, 2), Fraction(5)):
        assert x in set(enumerate_ball(HeightBall(RATIONAL_FIELD, height(x))))
        assert x in ball35 or height(x) > 35


def test_interval_enumeration_examples():
    got = list(enumerate_ball_interval(HeightBall(RATIONAL_FIELD, 2), -2, 2))
    assert len(got) == 7  # the whole ball: max |a/b| is 2

    # R = 5: brute-force oracle over all canonical pairs
    oracle = sorted(
        Fraction(a, b)
        for b in range(1, 6)
        for a in range(-5, 6)
        if gcd(a, b) == 1 and abs(Fraction(a, b)) <= 2
    )
    got5 = sorted(enumerate_ball_interval(HeightBall(RATIONAL_FIELD, 5), -2, 2))
    assert got5 == oracle
    assert len(got5) == 31
    assert Fraction(3, 1) not in got5 and Fraction(5, 2) not in got5

    ball = HeightBall(quadratic_field(2), 1)
    kept = list(enumerate_ball_interval(ball, -2, 2))
    assert len(kept) == 7
    assert QuadElem(1, 1, 1, 2) not in kept and QuadElem(-1, -1, 1, 2) not in kept


@pytest.mark.parametrize("d", (2, 3, 5, 6, 7, 30))
def test_streamed_elements_match_checked_construction(d):
    """The streams build each QuadElem without its checks; every element
    equals, hashes and reprs like the checked QuadElem(a1, a2, b, d), in
    the order of the reference stream."""
    ball = HeightBall(quadratic_field(d), 9)
    lo, hi = Fraction(-3, 2), Fraction(2)
    for got, want in ((enumerate_ball(ball), ball_stream(ball)),
                      (enumerate_ball_interval(ball, lo, hi), ball_stream(ball, lo, hi))):
        got = list(got)
        assert got == list(want)
        for x in got:
            checked = QuadElem(x.a1, x.a2, x.b, d)
            assert type(x) is QuadElem
            assert (x, hash(x), repr(x)) == (checked, hash(checked), repr(checked))


@pytest.mark.parametrize("scale, error", [(2, ValueError), (-1, ZeroDenominator)])
def test_stream_refuses_non_canonical_block(monkeypatch, scale, error):
    """The per-block check raises what the per-element check raised: a
    common factor is a ValueError, a denominator below 1 ZeroDenominator."""
    expand = height_enum._expand_rows

    def spoiled(*rows):
        b, a1, a = (v.copy() for v in expand(*rows))
        b[-1], a1[-1], a[-1] = scale * b[-1], scale * a1[-1], scale * a[-1]
        return b, a1, a

    monkeypatch.setattr(height_enum, "_expand_rows", spoiled)
    ball = HeightBall(quadratic_field(2), 4)
    with pytest.raises(error):
        list(enumerate_ball(ball))
    with pytest.raises(error):
        list(enumerate_ball_interval(ball, -2, 2))


def test_rational_stream_refuses_non_canonical_block(monkeypatch):
    """Over Q the per-block check runs too, where Fraction(2a, 2b) would
    silently reduce to a repeated element."""
    expand = height_enum._expand_rows

    def spoiled(*rows):
        b, a1, a = (v.copy() for v in expand(*rows))
        b[-1], a[-1] = 2 * b[-1], 2 * a[-1]
        return b, a1, a

    monkeypatch.setattr(height_enum, "_expand_rows", spoiled)
    with pytest.raises(ValueError, match="non-canonical"):
        list(enumerate_ball(HeightBall(RATIONAL_FIELD, 4)))


@pytest.mark.parametrize("field", [RATIONAL_FIELD, quadratic_field(2), quadratic_field(7)])
def test_count_elements_matches_formulas_and_stream(field, monkeypatch):
    """The kernel's checked block count equals the closed-form counts and
    the reference stream's length, over blocks of one row each, so the
    order check runs across every block boundary."""
    monkeypatch.setattr(height_enum, "BLOCK_CELLS", 23)
    ball = HeightBall(field, 11)
    assert count_elements(ball) == count_ball(ball) == sum(1 for _ in ball_stream(ball))
    for lo, hi in ((-2, 2), (Fraction(-1, 2), Fraction(5, 3)), (0, 1), (1, 1), (3, 40)):
        want = sum(1 for _ in ball_stream(ball, Fraction(lo), Fraction(hi)))
        assert count_elements(ball, lo, hi) == count_ball_interval(ball, lo, hi) == want


def _spoil_first_block(monkeypatch, fault, intervals_only=False, height_bound=None):
    """Run ``fault`` on the first block (b, a1, a) of every kernel stream:
    of the interval streams only, if asked, and of the balls of one height
    bound only, if one is given."""
    blocks = height_enum.element_blocks

    def spoiled(ball, lo=None, hi=None, denominators=None):
        chosen = ((lo is not None or not intervals_only)
                  and height_bound in (None, ball.R))
        for i, block in enumerate(blocks(ball, lo, hi, denominators)):
            yield fault(*(v.copy() for v in block)) if chosen and i == 0 else block

    monkeypatch.setattr(height_enum, "element_blocks", spoiled)


def _dropped(b, a1, a):
    return b[1:], a1[1:], a[1:]


def _repeated(b, a1, a):  # the first element twice
    return tuple(np.concatenate((v[:1], v)) for v in (b, a1, a))


def _non_canonical(b, a1, a):  # every triple times 2, in order
    return 2 * b, 2 * a1, 2 * a


def _first_below(b, a1, a):  # the first element, one step down its row
    a[0] -= 1
    return b, a1, a


# (fault, interval streams only): what the kernel faults spoil.  The first
# element of an interval stream one step down its row is canonical (b = 1),
# in order and in the ball, and outside [-2, 2]; of a whole ball, it is
# below -floor(R), outside the ball.
KERNEL_FAULTS = {
    "dropped": (_dropped, False),
    "added": (_repeated, False),
    "non-canonical": (_non_canonical, False),
    "outside-ball": (_first_below, False),
    "outside-interval": (_first_below, True),
}


@pytest.mark.parametrize("field", [RATIONAL_FIELD, quadratic_field(2), quadratic_field(5)],
                         ids=["Q", "Q(sqrt2)", "Q(sqrt5)"])
@pytest.mark.parametrize("fault, error, match", [
    ("dropped", None, None),
    ("added", AssertionError, "order or repeated"),
    ("non-canonical", ValueError, "non-canonical"),
    ("outside-ball", AssertionError, r"outside B\(12\)"),
    ("outside-interval", AssertionError, r"outside \[-2, 2\]"),
], ids=list(KERNEL_FAULTS))
def test_count_elements_catches_kernel_faults(field, fault, error, match, monkeypatch):
    """A dropped element changes the count; every other fault raises at
    its own check."""
    fault, interval = KERNEL_FAULTS[fault]
    _spoil_first_block(monkeypatch, fault, intervals_only=interval)
    ball = HeightBall(field, 12)
    lo, hi = (-2, 2) if interval else (None, None)
    if error is None:
        assert count_elements(ball, lo, hi) == count_ball(ball) - 1
    else:
        with pytest.raises(error, match=match):
            count_elements(ball, lo, hi)


@pytest.mark.parametrize("field", [RATIONAL_FIELD, quadratic_field(2)], ids=["Q", "Q(sqrt2)"])
def test_count_elements_catches_a_repeat_across_blocks(field, monkeypatch):
    """The last element of a block repeated at the start of the next
    nonempty one raises, as a repeat inside one block does: at 25 cells
    every block of B(12) is one row."""
    monkeypatch.setattr(height_enum, "BLOCK_CELLS", 25)
    blocks = height_enum.element_blocks

    def spoiled(ball, lo=None, hi=None, denominators=None):
        last, done = None, False
        for block in blocks(ball, lo, hi, denominators):
            if len(block[0]) and last is not None and not done:
                block, done = tuple(np.concatenate((x[-1:], v)) for x, v in zip(last, block)), True
            if len(block[0]):
                last = block
            yield block

    monkeypatch.setattr(height_enum, "element_blocks", spoiled)
    with pytest.raises(AssertionError, match="order or repeated"):
        count_elements(HeightBall(field, 12))


@pytest.mark.parametrize("fault", KERNEL_FAULTS)
def test_verify_fails_ball_counts_under_kernel_faults(fault, capsys, monkeypatch):
    """verify --quick reports FAIL ball-counts, and exits 1, under each
    fault of the kernel on the balls only that check counts (height 12).
    The count-preserving faults are caught by the block checks alone."""
    _spoil_first_block(monkeypatch, *KERNEL_FAULTS[fault], height_bound=12)
    assert main(["verify", "--quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == ["ball-counts"]


@pytest.mark.parametrize("field", [RATIONAL_FIELD, quadratic_field(2), quadratic_field(7)])
def test_interval_count_matches_enumeration(field):
    """The count equals the interval stream's length, at R = 14 and at
    negative R, whose ball is empty: both count 0 and yield nothing."""
    for R in (14, -5, Fraction(-1, 2)):
        ball = HeightBall(field, R)
        for lo, hi in ((-2, 2), (Fraction(-1, 2), Fraction(5, 3)), (0, 1)):
            got = count_ball_interval(ball, lo, hi)
            stream = list(enumerate_ball_interval(ball, lo, hi))
            assert got == len(stream)
            assert R > 0 or got == 0
            assert all(in_interval(x, lo, hi) for x in stream)


_small_fractions = st.builds(
    Fraction, st.integers(-12, 12) | st.integers(-90, 90), st.integers(1, 7)
)


@settings(max_examples=150, deadline=None)
@example(d=None, R=3, ends=(Fraction(1), Fraction(1)), point=True)
@example(d=None, R=6, ends=(Fraction(-5, 2), Fraction(-1)), point=False)
@example(d=2, R=5, ends=(Fraction(-3, 2), Fraction(5, 3)), point=False)
@given(
    d=st.sampled_from((None, 2, 3, 5, 6, 7, 30)),
    R=st.integers(0, 12),
    ends=st.tuples(_small_fractions, _small_fractions),
    point=st.booleans(),
)
def test_interval_kernel_matches_filtered_ball(d, R, ends, point):
    """The clipped rows against the slow exact path: filter the whole ball
    with in_interval.  Endpoints reach past the ball (|x| <= 12(1 + sqrt 30)
    < 90) and include lo == hi."""
    lo, hi = sorted(ends)
    if point:
        hi = lo
    ball = HeightBall(RATIONAL_FIELD if d is None else quadratic_field(d), R)
    expected = [x for x in enumerate_ball(ball) if in_interval(x, lo, hi)]
    assert list(enumerate_ball_interval(ball, lo, hi)) == expected
    assert count_ball_interval(ball, lo, hi) == len(expected)


_endpoints = st.builds(Fraction, st.integers(-90, 90), st.integers(1, 90))


@settings(max_examples=120, deadline=None)
@example(d=None, R=15, ends=(Fraction(-2), Fraction(2)))
@example(d=30, R=15, ends=(Fraction(-90), Fraction(90)))
@example(d=7, R=15, ends=(Fraction(-1, 89), Fraction(-1, 89)))
@given(
    d=st.sampled_from((None, 2, 3, 5, 6, 7, 30)),
    R=st.integers(0, 15),
    ends=st.tuples(_endpoints, _endpoints),
)
def test_row_kernel_matches_python_rows(d, R, ends):
    """The numpy row blocks against the Python rows of ``oracles``: the
    interval stream in order, the interval count and the whole-ball
    stream, with plain int coordinates throughout."""
    lo, hi = sorted(ends)
    ball = HeightBall(RATIONAL_FIELD if d is None else quadratic_field(d), R)
    expected = list(ball_stream(ball, lo, hi))
    got = list(enumerate_ball_interval(ball, lo, hi))
    assert got == expected
    assert count_ball_interval(ball, lo, hi) == len(expected)
    whole = list(enumerate_ball(ball))
    assert whole == list(ball_stream(ball))
    for x in got + whole:
        coords = (x.a1, x.a2, x.b) if d else (x.numerator, x.denominator)
        assert all(type(c) is int for c in coords)


def test_vectorized_isqrt_is_exact_at_the_edges():
    roots = [0, 1, 2, 3, 1000, 3037000499, 2 ** 31 - 1, 2 ** 31]
    n = [max(0, k * k + e) for k in roots for e in (-1, 0, 1)]
    n = [v for v in n if v <= INT64_SAFE]
    got = _isqrt(np.array(n, dtype=np.int64)).tolist()
    assert got == [isqrt(v) for v in n]


@pytest.mark.parametrize(
    "ball, lo, hi",
    [
        (HeightBall(quadratic_field(2), 2 ** 31), -2, 2),
        (HeightBall(RATIONAL_FIELD, 10), Fraction(-1, 10 ** 18), 2),
        (HeightBall(quadratic_field(30), 10), -2, 10 ** 18),
    ],
)
def test_int64_domain_is_refused_up_front(ball, lo, hi, monkeypatch):
    """The streams refuse past the int64 domain of the row kernel.  The
    count over Q runs on Python ints and has no such domain: it returns
    the exact count instead."""
    start = time.perf_counter()
    if ball.field.d:
        with pytest.raises(CapExceeded, match="int64"):
            count_ball_interval(ball, lo, hi)
    else:
        expected = sum(1 for x in enumerate_ball(ball) if in_interval(x, lo, hi))
        assert count_ball_interval(ball, lo, hi) == expected
    monkeypatch.setattr(height_enum, "DEFAULT_ENUM_CAP", float("inf"))
    with pytest.raises(CapExceeded, match="int64"):
        next(enumerate_ball_interval(ball, lo, hi))
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("d", [2, 3, 30])
def test_interval_count_guard_reach(d, monkeypatch):
    """Over Q(sqrt d) the int64 guard admits floor(R) = 9,686,329 (the run
    is stopped at its first step past the guard) and refuses 9,686,330
    with ``CapExceeded`` before any work."""
    class Admitted(Exception):
        pass

    def admitted(n):
        raise Admitted

    monkeypatch.setattr(height_enum, "mobius_blocks", admitted)
    field = quadratic_field(d)
    with pytest.raises(Admitted):
        count_ball_interval(HeightBall(field, 9_686_329), -2, 2)
    with pytest.raises(CapExceeded, match="int64"):
        count_ball_interval(HeightBall(field, 9_686_330), -2, 2)


_count_ends = st.builds(Fraction, st.integers(-90, 90), st.integers(1, 90))


@settings(max_examples=150, deadline=None)
@example(d=None, R=60, ends=(Fraction(-2), Fraction(2)), point=False)
@example(d=30, R=60, ends=(Fraction(-90), Fraction(90)), point=False)
@example(d=7, R=41, ends=(Fraction(-1, 89), Fraction(-1, 89)), point=True)
@example(d=2, R=60, ends=(Fraction(89, 90), Fraction(89, 90)), point=True)
@example(d=2, R=10, ends=(Fraction(1, 3), Fraction(5, 2)), point=False)  # 0 < lo in B(R)
@example(d=7, R=10, ends=(Fraction(13, 7), Fraction(2)), point=False)  # 0 < lo outside B(R)
@example(d=None, R=30, ends=(Fraction(-3, 2), Fraction(-1, 2)), point=False)  # hi < 0
@example(d=5, R=20, ends=(Fraction(-7, 3), Fraction(-1, 7)), point=False)
@example(d=3, R=25, ends=(Fraction(0), Fraction(3, 2)), point=False)  # lo = 0
@example(d=6, R=20, ends=(Fraction(5, 4), Fraction(5, 4)), point=True)  # lo = hi in B(R)
@given(
    d=st.sampled_from((None, 2, 3, 5, 6, 7, 30)),
    R=st.integers(0, 60),
    ends=st.tuples(_count_ends, _count_ends),
    point=st.booleans(),
)
def test_interval_count_matches_row_oracle(d, R, ends, point):
    """The Moebius count against the row-kernel count of ``oracles``, with
    endpoints of height <= 90 reaching past the ball and lo == hi."""
    lo, hi = sorted(ends)
    if point:
        hi = lo
    ball = HeightBall(RATIONAL_FIELD if d is None else quadratic_field(d), R)
    assert count_ball_interval(ball, lo, hi) == row_kernel_count(ball, lo, hi)


_list_R = st.builds(Fraction, st.integers(0, 900), st.integers(1, 3)).filter(lambda R: R <= 300)


@pytest.mark.parametrize("block", [coprime_count.MOBIUS_CHUNK, 7], ids=["default-block", "block-7"])
@settings(max_examples=20, deadline=None)
@example(d=2, R_list=[Fraction(25), Fraction(50), Fraction(100), Fraction(200)],
         ends=(Fraction(-2), Fraction(2)), mirror=True)
@example(d=30, R_list=[Fraction(300), Fraction(1, 2), Fraction(299, 3)],
         ends=(Fraction(-90), Fraction(1, 90)), mirror=False)
@example(d=3, R_list=[Fraction(40), Fraction(100)], ends=(Fraction(1, 3), Fraction(5, 2)),
         mirror=False)  # 0 < lo in B(R)
@example(d=5, R_list=[Fraction(50)], ends=(Fraction(61, 60), Fraction(2)), mirror=False)
@example(d=7, R_list=[Fraction(30), Fraction(80, 3)], ends=(Fraction(-5, 2), Fraction(-1, 3)),
         mirror=False)  # hi < 0
@example(d=6, R_list=[Fraction(45)], ends=(Fraction(0), Fraction(7, 3)), mirror=False)
@example(d=2, R_list=[Fraction(20)], ends=(Fraction(3, 2), Fraction(3, 2)), mirror=False)
@example(d=2, R_list=[Fraction(20)], ends=(Fraction(31, 2), Fraction(31, 2)), mirror=False)
@example(d=2, R_list=[Fraction(4), Fraction(7), Fraction(10), Fraction(13, 2)],
         ends=(Fraction(5, 7), Fraction(9, 4)), mirror=False)  # 5/7 in B(7), B(10) only
@given(
    d=st.sampled_from((2, 3, 5, 6, 7, 30)),
    R_list=st.lists(_list_R, min_size=1, max_size=4),
    ends=st.tuples(_count_ends, _count_ends),
    mirror=st.booleans(),
)
def test_packed_interval_counts_match_references(block, d, R_list, ends, mirror):
    """The count of a list of R against the per-quotient reference of
    ``oracles`` and the row-kernel count at each R, on symmetric (lo = -hi)
    and skew intervals.  A chunk of 7 cuts every quotient of more than 7
    cells into pieces over several groups of the ragged kernel; no
    evaluation spans more than a chunk of (N, a2) cells."""
    lo, hi = sorted(ends)
    if mirror:
        lo, hi = -abs(hi), abs(hi)
    assume(mirror == (lo == -hi))
    field = quadratic_field(d)
    cells = []

    def recorded(p, q, r, N):  # r is an array of cells, or 0 for the a2 = 0 rows
        cells.append(np.size(r))
        return _clipped_floor_sum(p, q, r, N)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coprime_count, "MOBIUS_CHUNK", block)
        patch.setattr(height_enum, "_clipped_floor_sum", recorded)
        got = count_ball_intervals(field, R_list, lo, hi)
    assert max(cells, default=0) <= block
    assert got == interval_counts_per_quotient(field, R_list, lo, hi)
    assert got == [row_kernel_count(HeightBall(field, R), lo, hi) for R in R_list]


@pytest.mark.parametrize("block", [coprime_count.MOBIUS_CHUNK, 7], ids=["default-block", "block-7"])
@pytest.mark.parametrize(
    "d, R_list, lo, hi",
    [
        (2, [1000], Fraction(-2), Fraction(2)),
        (3, [100, 400, 250], Fraction(-1, 3), Fraction(5, 2)),
        (7, [300], Fraction(1, 3), Fraction(5, 2)),
        (5, [300, 7], Fraction(-5, 2), Fraction(-5, 2)),
        (30, [200], Fraction(0), Fraction(3, 2)),
    ],
)
def test_one_floor_table_per_distinct_endpoint(block, d, R_list, lo, hi):
    """Every interval comes from the symmetric count at its endpoints'
    absolute values, each with one table of floor(q*a2*sqrt d) over
    a2 = 0..F: at most F + 1 values per distinct |endpoint|, however the
    table is split into slices."""
    values = []

    def recorded(v, d):
        values.append(np.size(v))
        return _floor_sqrt_multiple(v, d)

    field = quadratic_field(d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coprime_count, "MOBIUS_CHUNK", block)
        patch.setattr(height_enum, "_floor_sqrt_multiple", recorded)
        got = count_ball_intervals(field, R_list, lo, hi)
    assert sum(values) <= (max(R_list) + 1) * len({abs(lo), abs(hi)})
    assert got == interval_counts_per_quotient(field, R_list, lo, hi)


def _lattice_points_q(N: int) -> int:
    """All integer (a, b), 1 <= b <= N, |a| <= min(N, 2b): with h = N // 2,
    rows b <= h hold 4b + 1 points and the others 2N + 1."""
    h = N // 2
    return 2 * h * (h + 1) + h + (N - h) * (2 * N + 1)


def test_counts_past_int64_are_exact():
    """Over Q at R = 10^10 the count passes 2^63; the quotient sums run on
    Python ints and match the closed-form lattice count term by term."""
    N = np.array([1, 2, 3, 10 ** 6 + 1, 10 ** 12, 3 * 10 ** 12 + 7], dtype=object)
    got = N + _clipped_floor_sum(2, 1, 0, N) + _clipped_floor_sum(2, 1, 0, N)
    assert got.tolist() == [_lattice_points_q(n) for n in N.tolist()]
    assert max(got) > 2 ** 63
    F = 10 ** 10
    count = count_ball_interval(HeightBall(RATIONAL_FIELD, F), -2, 2)
    assert count > 2 ** 63
    assert count == mobius_sum((F,), lambda q: [_lattice_points_q(n) for n in q.tolist()])


def test_q_denominator_past_the_block_cap_refused_promptly():
    """R = 10^13 needs more quotient blocks than MAX_BLOCKS: refused before
    any sieve or table is built."""
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="quotient blocks"):
        count_ball_interval(HeightBall(RATIONAL_FIELD, 10 ** 13), -2, 2)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("d", [0, 3])
@pytest.mark.parametrize("slice_size", [1, 5, coprime_count.MOBIUS_CHUNK])
def test_interval_counts_over_slices_of_quotients(d, slice_size, monkeypatch):
    """The a2 = 0 row, the cells and the weighted sums run over slices of
    at most MOBIUS_CHUNK quotients of the union of the list's quotients,
    and no evaluation spans more than that many of them; every slice size
    gives the per-quotient reference's counts."""
    field = quadratic_field(d) if d else RATIONAL_FIELD
    sizes = []

    def recorded(p, q, r, N):
        sizes.append(np.size(N))
        return _clipped_floor_sum(p, q, r, N)

    monkeypatch.setattr(coprime_count, "MOBIUS_CHUNK", slice_size)
    monkeypatch.setattr(height_enum, "_clipped_floor_sum", recorded)
    for R_list, lo, hi in (([1, 30, 400], -2, 2), ([77, 250], Fraction(1, 3), Fraction(5, 2))):
        sizes.clear()
        got = count_ball_intervals(field, R_list, lo, hi)
        assert max(sizes) <= slice_size
        assert got == interval_counts_per_quotient(field, R_list, lo, hi)


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(-40, 40),
    q=st.integers(1, 40),
    r=st.lists(st.integers(-3000, 3000), min_size=1, max_size=5),
    N=st.integers(0, 60),
    big=st.booleans(),
)
def test_clipped_floor_sum_matches_direct_sum(p, q, r, N, big):
    """Against the summand added up b by b, in int64 and in Python ints."""
    r = np.array(r, dtype=object if big else np.int64)
    got = _clipped_floor_sum(p, q, r, N).tolist()
    want = [sum(min(max((p * b + x) // q, -N - 1), N) for b in range(1, N + 1))
            for x in r.tolist()]
    assert got == want


def test_qbox_count_matches_generalized_sieve():
    for field in (RATIONAL_FIELD, quadratic_field(2), quadratic_field(3), quadratic_field(5)):
        for R in (2, 3, 4, Fraction(37, 3), 50, 333, 2000):
            if R < field.degree + 1:
                continue
            spec = QBoxSpec(field, R)
            expected = generalized_sieve(spec, inner=False) - generalized_sieve(spec, inner=True)
            assert qbox_count(spec) == expected


def test_interval_validation_and_caps(monkeypatch):
    with pytest.raises(BadParameters):
        list(enumerate_ball_interval(HeightBall(RATIONAL_FIELD, 5), 2, -2))
    monkeypatch.setattr(height_enum, "DEFAULT_ENUM_CAP", 10)
    with pytest.raises(CapExceeded):
        list(enumerate_ball(HeightBall(RATIONAL_FIELD, 100)))
    with pytest.raises(CapExceeded):
        list(enumerate_ball_interval(HeightBall(RATIONAL_FIELD, 100), -2, 2))
    # endpoints of more digits than str converts stay out of the message
    with pytest.raises(CapExceeded, match="interval count of B"):
        next(enumerate_ball_interval(HeightBall(RATIONAL_FIELD, 100), -10 ** 5000, 10 ** 5000))
    # past the cap as a whole ball, the interval is refused only past it too
    ball, half = HeightBall(RATIONAL_FIELD, 5), Fraction(1, 2)
    n = count_ball_interval(ball, 0, half)
    assert n < count_ball(ball)
    monkeypatch.setattr(height_enum, "DEFAULT_ENUM_CAP", n)
    assert len(list(enumerate_ball_interval(ball, 0, half))) == n
    monkeypatch.setattr(height_enum, "DEFAULT_ENUM_CAP", n - 1)
    with pytest.raises(CapExceeded):
        next(enumerate_ball_interval(ball, 0, half))


def test_asymptotic_count_ratio():
    mid = count_ball(HeightBall(RATIONAL_FIELD, 1000))
    assert abs(mid * zeta(2) / (2 * 1000.0 ** 2) - 1) <= 0.01
    got = count_ball(HeightBall(RATIONAL_FIELD, 10 ** 4))
    assert 0.97 <= got * zeta(2) / (2 * 10.0 ** 8) <= 1.03
    got2 = count_ball(HeightBall(quadratic_field(2), 300))
    assert 0.97 <= got2 * zeta(3) / (4 * 300.0 ** 3) <= 1.03


def test_qbox_examples():
    spec = QBoxSpec(RATIONAL_FIELD, 9)
    n, m = spec.side_floors()
    assert n == (9, 9) and m == (9, 4)
    members = {
        (a, b)
        for b in range(5, 10)
        for a in range(1, 10)
        if gcd(a, b) == 1
    }
    assert qbox_count(spec) == len(members)
    assert (9, 4) not in members  # inner box stripped
    report = qbox(spec)
    assert report["membership_violations"] == 0
    assert report["exhaustive"]


def test_qbox_membership_and_main_term():
    for R in range(2, 121):
        report = qbox(QBoxSpec(RATIONAL_FIELD, R))
        assert report["membership_violations"] == 0
    big = qbox_count(QBoxSpec(RATIONAL_FIELD, 10 ** 4))
    main = qbox_main_term(QBoxSpec(RATIONAL_FIELD, 10 ** 4))
    assert abs(big / main - 1) <= 0.02


@pytest.mark.parametrize("d", (2, 3))
def test_qbox_quadratic(d):
    spec = QBoxSpec(quadratic_field(d), 40)
    report = qbox(spec)
    assert report["membership_violations"] == 0
    ratio = qbox_count(QBoxSpec(quadratic_field(d), 300)) / qbox_main_term(
        QBoxSpec(quadratic_field(d), 300)
    )
    assert abs(ratio - 1) <= 0.03


@pytest.mark.parametrize("seed", (0, 1, 97, 2 ** 64 + 5))
def test_draws_are_the_random_stream(seed):
    """Two consecutive blocks of each size, against rng.random() one by one."""
    rng, ref = random.Random(seed), random.Random(seed)
    for n in (0, 1, 2, 32768):
        for _ in range(2):
            assert _draws(rng, n).tolist() == [ref.random() for _ in range(n)]
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("d", (None, 2, 3, 5, 30))
def test_box_check_matches_exact_membership(monkeypatch, d):
    """qbox's corner check passes exactly when every cell of the box
    difference, member or not, passes the coordinate bound floor(R) and the
    in_interval test of the canonical element it names.  Sides n[:-1] and
    m[:-1] scaled by s, the first denominator m_last + 1 lowered by t and
    the last n_last raised by r put boxes on both sides of the edge,
    failing by height, by the interval or by both."""
    side_floors = QBoxSpec.side_floors
    outcomes = set()
    for R in (9, Fraction(37, 3), 20):
        spec = QBoxSpec(quadratic_field(d) if d else RATIONAL_FIELD, R)
        F = int(spec.R)
        for s, t, r in itertools.product((1, 2, 3), (0, 1, 2, 4), (0, 2)):
            n, m = side_floors(spec)
            n, m = (tuple(s * v for v in n[:-1]) + (n[-1] + r,),
                    tuple(s * v for v in m[:-1]) + (m[-1] - t,))
            monkeypatch.setattr(QBoxSpec, "side_floors", lambda spec, n=n, m=m: (n, m))
            a1s = range(1, n[0] + 1) if d else [0]
            cells = [(u, v, y) for y in range(m[-1] + 1, n[-1] + 1) for u in a1s
                     for v in range(1, n[-2] + 1)]
            assert cells
            high = any(max(u, v, y) > F for u, v, y in cells)
            out = any(not in_interval(canonicalize(u, v, y, d) if d else Fraction(v, y), -2, 2)
                      for u, v, y in cells)
            try:
                qbox(spec)
                got = False
            except AssertionError as exc:
                assert "box corner" in str(exc)
                got = True
            assert got == (high or out), (R, s, t, r)
            outcomes.add((high, out))
    assert outcomes == {(False, False), (True, False), (False, True), (True, True)}


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from((None, 2, 3, 5, 6, 7, 30)),
    R=st.fractions(3, 60, max_denominator=4),
    seed=st.integers(0, 2 ** 40),
    cap=st.integers(-2, 400),
)
@example(d=None, R=Fraction(60), seed=97, cap=0)
@example(d=2, R=Fraction(40), seed=0, cap=0)
@example(d=3, R=Fraction(60), seed=4, cap=300)
def test_qbox_matches_member_by_member_reference(d, R, seed, cap):
    """cap <= 0 sets QBOX_SAMPLE_CAP to count + cap (at and just below
    the count); a positive cap is QBOX_SAMPLE_CAP itself, which samples."""
    spec = QBoxSpec(quadratic_field(d) if d else RATIONAL_FIELD, R)
    sample_cap = max(qbox_count(spec) + cap, 0) if cap <= 0 else cap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(height_enum, "QBOX_SAMPLE_CAP", sample_cap)
        assert qbox(spec, seed=seed) == qbox_reference(spec, sample_cap, seed)


@pytest.mark.parametrize("d", (None, 2, 3, 5, 30))
def test_qbox_widened_sides_fail_at_the_corner(monkeypatch, capsys, d):
    """Sides n[:-1] and m[:-1] widened threefold put part of the box
    outside B(R) ∩ [-2, 2], so its corner fails: qbox raises
    AssertionError naming the corner, and boxcount exits 1 as falsified."""
    side_floors = QBoxSpec.side_floors

    def widened(spec):
        n, m = side_floors(spec)
        wide = tuple(3 * v for v in n[:-1])
        return wide + n[-1:], wide + m[-1:]

    monkeypatch.setattr(QBoxSpec, "side_floors", widened)
    field = ["--field", "quad", "--d", str(d)] if d else ["--field", "q"]
    for R in (20, Fraction(37, 2)):
        with pytest.raises(AssertionError, match=r"box corner \(a1, a2, b\) = \(\d+, \d+, \d+\)"):
            qbox(QBoxSpec(quadratic_field(d) if d else RATIONAL_FIELD, R))
        assert main(["boxcount", *field, "--R", str(R)]) == 1
        assert "falsified: the box corner" in capsys.readouterr().err


@pytest.mark.parametrize("off", (1, -1))
def test_qbox_row_counts_must_add_up_to_qbox_count(monkeypatch, capsys, off):
    """A qbox_count off by one is caught at runtime by verify, whose
    qbox-membership check counts the two boxes tuple by tuple
    (``coprime_count.brute_count``), independently of the Moebius sum:
    verify --quick exits 1 with that check, and only it, failed."""
    qbox_count_ = height_enum.qbox_count
    monkeypatch.setattr(height_enum, "qbox_count", lambda spec: qbox_count_(spec) + off)
    assert main(["verify", "--quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  qbox-membership" in out and out.count("FAIL") == 1


def test_qbox_refuses_oversized_box_before_expanding(monkeypatch):
    """The cell count (row, coordinate) of the box difference is bounded
    before any expansion or draw: quad R = 3000 (2.8*10^9 cells) and Q at
    10^8 are refused at once; Q(sqrt 2) at 1000 (1.05*10^8) and Q at 3000
    are admitted; the bound is exact (Q at R = 9 expands 5 * 9 cells)."""
    for spec in (QBoxSpec(quadratic_field(2), 3000), QBoxSpec(RATIONAL_FIELD, 10 ** 8)):
        with pytest.raises(CapExceeded, match="cells"):
            qbox(spec)
    monkeypatch.setattr(height_enum, "QBOX_MAX_CELLS", 45)
    assert qbox(QBoxSpec(RATIONAL_FIELD, 9))["members_checked"] == 30
    monkeypatch.setattr(height_enum, "QBOX_MAX_CELLS", 44)
    with pytest.raises(CapExceeded):
        qbox(QBoxSpec(RATIONAL_FIELD, 9))
    monkeypatch.undo()

    class Admitted(Exception):
        pass

    def admitted(spec):
        raise Admitted

    monkeypatch.setattr(height_enum, "qbox_count", admitted)
    for spec in (QBoxSpec(quadratic_field(2), 1000), QBoxSpec(RATIONAL_FIELD, 3000)):
        with pytest.raises(Admitted):
            qbox(spec)


def test_qbox_counts_an_empty_box_of_a_huge_radicand():
    """n_1 = floor(2R/(3 sqrt d)) = 0 empties the box; the corner check
    is exact on Python integers, so no int64 guard refuses it."""
    report = qbox(QBoxSpec(quadratic_field(1000000000000000003), 100))
    assert report["count"] == 0 and report["membership_violations"] == 0


def test_qbox_precondition():
    with pytest.raises(BadParameters):
        QBoxSpec(RATIONAL_FIELD, 1)

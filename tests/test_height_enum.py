"""Height-ball streams, count formulas, interval restriction, and the
certified sub-box."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisectlab.coprime_count import zeta
from trisectlab.errors import BadParameters, CapExceeded
from trisectlab.exact_arith import (
    RATIONAL_FIELD,
    QuadElem,
    height,
    in_interval,
    quadratic_field,
)
from trisectlab.height_enum import (
    HeightBall,
    QBoxSpec,
    count_ball,
    count_ball_interval,
    enumerate_ball,
    enumerate_ball_interval,
    qbox,
    qbox_count,
    qbox_main_term,
)

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


@pytest.mark.parametrize("field", [RATIONAL_FIELD, quadratic_field(2), quadratic_field(7)])
def test_interval_count_matches_enumeration(field):
    ball = HeightBall(field, 14)
    for lo, hi in ((-2, 2), (Fraction(-1, 2), Fraction(5, 3)), (0, 1)):
        got = count_ball_interval(ball, lo, hi)
        stream = list(enumerate_ball_interval(ball, lo, hi))
        assert got == len(stream)
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


def test_interval_validation_and_caps():
    with pytest.raises(BadParameters):
        list(enumerate_ball_interval(HeightBall(RATIONAL_FIELD, 5), 2, -2))
    with pytest.raises(CapExceeded):
        list(enumerate_ball(HeightBall(RATIONAL_FIELD, 100), cap=10))
    with pytest.raises(CapExceeded):
        list(enumerate_ball_interval(HeightBall(RATIONAL_FIELD, 100), -2, 2, cap=10))


def test_asymptotic_count_ratio():
    mid = count_ball(HeightBall(RATIONAL_FIELD, 1000))
    assert abs(mid * zeta(2) / (2 * 1000.0 ** 2) - 1) <= 0.01
    got = count_ball(HeightBall(RATIONAL_FIELD, 10 ** 4))
    assert 0.97 <= got * zeta(2) / (2 * 10.0 ** 8) <= 1.03
    got2 = count_ball(HeightBall(quadratic_field(2), 300))
    assert 0.97 <= got2 * zeta(3) / (4 * 300.0 ** 3) <= 1.03


def test_stream_materialization():
    from trisectlab.height_enum import materialize_json, materialize_lines

    ball = HeightBall(quadratic_field(2), 1)
    text = materialize_lines(enumerate_ball(ball))
    assert len(text.splitlines()) == 9
    assert "(-1-1*sqrt(2))/1" in text
    as_json = json.loads(materialize_json(enumerate_ball(ball)))
    assert len(as_json) == 9
    assert as_json[0] == "(-1-1*sqrt(2))/1"


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


def test_qbox_precondition():
    with pytest.raises(BadParameters):
        QBoxSpec(RATIONAL_FIELD, 1)

"""Decision procedure, image gcd bound, preimage bounds, certificates,
and the density experiment."""

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import astuple
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    ball_stream,
    density_points_full,
    divisors,
    factorize_trial,
    gcd_bound_sweep_blocks,
    phi_bound_check,
    phi_curve,
    rational_roots,
    root_floors_bisect,
    sylvester_minpoly,
    witness_residual_mpf,
)
from trisectlab import height_enum, trisect_core
from trisectlab.cli import main as cli_main
from trisectlab.errors import BadParameters, CapExceeded, GcdBoundViolated, OutOfRange
from trisectlab.exact_arith import (
    RATIONAL_FIELD,
    QuadElem,
    canonicalize,
    height,
    in_interval,
    quad_from_canonical,
    quadratic_field,
)
from trisectlab.height_enum import (
    HeightBall,
    _images,
    count_ball,
    count_ball_interval,
    count_ball_intervals,
    density_experiment,
    element_blocks,
    enumerate_ball,
    enumerate_ball_interval,
    gcd_bound_sweep,
    is_square,
)
from trisectlab.polyalg import IntPoly
from trisectlab.trisect_core import (
    CERT_MAX_DIGITS,
    F_CUBIC,
    PSECTION_MAX_P,
    SQUARE_FAMILY_MAX_H,
    WITNESS_MAX_M,
    Certificate,
    TrisectionVerdict,
    WITNESS_RESIDUAL_TOL,
    _gcd_candidates,
    _image_coords,
    _quadratic_preimage,
    _try_eisenstein_cert,
    _witness_residual,
    apply_f,
    ceil_cbrt,
    decide_trisection,
    eisenstein_cert_3rs,
    icbrt,
    nonconstructible_witness,
    nonsectability_cert,
    preimage_bound,
    raw_image,
    square_family_check,
    yates_certificate,
)


def _rational_image_set(H: int) -> set:
    """Forward-image oracle: every value of f over the preimage ball for
    height bound H, filtered to height <= H."""
    S = int(preimage_bound(RATIONAL_FIELD, H))
    out = set()
    for beta in enumerate_ball_interval(HeightBall(RATIONAL_FIELD, S), -2, 2):
        img = apply_f(beta)
        if height(img) <= H:
            out.add(img)
    return out


def _image_index(d: int, S: int) -> dict:
    """Bounded-search oracle: map {f(beta): beta} over B(S) ∩ [-2, 2],
    keeping for each image the preimage smallest in (b, a2, a1)."""
    index: dict = {}
    for beta in enumerate_ball_interval(HeightBall(quadratic_field(d), S), -2, 2):
        img = apply_f(beta)
        best = index.get(img)
        if best is None or (beta.b, beta.a2, beta.a1) < (best.b, best.a2, best.a1):
            index[img] = beta
    return index


def test_apply_f_examples():
    assert apply_f(Fraction(1)) == -2
    assert apply_f(Fraction(1, 2)) == Fraction(-11, 8)
    assert apply_f(canonicalize(1, 1, 2, 5)) == QuadElem(1, -1, 2, 5)


def test_raw_image_examples():
    t = raw_image(canonicalize(1, 1, 2, 5))
    assert (t.A1, t.A2, t.B, t.G) == (4, -4, 8, 4)
    t = raw_image(QuadElem(1, 0, 1, 2))
    assert (t.A1, t.A2, t.B, t.G) == (-2, 0, 1, 1)
    t = raw_image(canonicalize(1, 1, 2, 2))
    assert (t.A1, t.A2, t.B, t.G) == (-5, -7, 8, 1)


def test_rational_track_gcd_is_one():
    rng = random.Random(3)
    for _ in range(300):
        b = rng.randint(1, 60)
        a = rng.choice([x for x in range(-60, 61) if gcd(x, b) == 1])
        t = raw_image(QuadElem(a, 0, b, 5))
        assert t.G == 1


def test_gcd_bound_sweep_small_and_spot_checks():
    for d in (2, 3, 5, 6, 7):
        report = gcd_bound_sweep(d, 60)
        assert report["max_gcd"] <= 8 * d
        assert (8 * d) % report["max_gcd"] == 0
    rng = random.Random(11)
    for _ in range(200):
        d = rng.choice((2, 3, 5, 6, 7))
        a1, a2 = rng.randint(-60, 60), rng.randint(-60, 60)
        b = rng.randint(1, 60)
        g = gcd(gcd(a1, a2), b)
        x = QuadElem(a1 // g, a2 // g, b // g, d)
        assert (8 * d) % raw_image(x).G == 0


@pytest.mark.parametrize("d", (2, 7))
def test_gcd_bound_sweep_counts_every_canonical_element(d):
    H = 12
    ball = HeightBall(quadratic_field(d), H)
    report = gcd_bound_sweep(d, H)
    assert report["elements_checked"] == count_ball(ball)
    assert report["max_gcd"] == max(raw_image(x).G for x in enumerate_ball(ball))


@pytest.mark.parametrize("cells", (height_enum.BLOCK_CELLS, 5))
@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from((2, 3, 5, 6, 7, 30, 10, 15, 21)), H=st.integers(1, 25))
def test_gcd_bound_sweep_matches_block_reference(cells, d, H):
    """The capped-table sweep against every element through ``_images``;
    d = 10, 15, 21 and 30 give signatures of two and three table primes,
    and at 5 cells every row x1 of the grid is its own chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(height_enum, "BLOCK_CELLS", cells)
        assert gcd_bound_sweep(d, H) == gcd_bound_sweep_blocks(d, H)


@pytest.mark.parametrize("cells", (height_enum.BLOCK_CELLS, 2))
@pytest.mark.parametrize("d", (2, 3, 30))
@pytest.mark.parametrize("c", (None, 1, 4))
def test_gcd_bound_sweep_reports_first_violator(monkeypatch, cells, d, c):
    """A1 and A2 times 9 (c = None) give G a factor 9, which 8d lacks, on
    all of b = 3; times x1 - c they give G a power of 3 only on some
    classes mod 9, and at height 4 with c = 4 (for 3 | d) only at the last
    x1, 4.  Sweep and reference name the same first violator; at 2 cells
    every row x1 of the grid is its own chunk, so (-25, -25) at b = 3 lies
    in the first chunk and the c = 4 violator in the last."""
    coords = height_enum._image_coords
    monkeypatch.setattr(height_enum, "_image_coords", lambda x1, x2, b, d: tuple(
        (9 if c is None else x1 - c) * A for A in coords(x1, x2, b, d)))
    monkeypatch.setattr(height_enum, "BLOCK_CELLS", cells)
    H = 4 if c == 4 else 25
    with pytest.raises(GcdBoundViolated) as want:
        gcd_bound_sweep_blocks(d, H)
    with pytest.raises(GcdBoundViolated) as got:
        gcd_bound_sweep(d, H)
    assert str(got.value) == str(want.value)
    if c is None:
        assert str(got.value) == f"G | 8d fails at {QuadElem(-25, -25, 3, d)}"


@pytest.mark.parametrize("d", (2, 3, 5, 6, 7, 30))
def test_image_arrays_match_raw_image(d):
    """Every element of B(16): the array image map (G from the small gcd
    g0 = gcd(b, A1, A2) and gcd(g0^3, A1, A2)) against the scalar one."""
    for b, a1, a2 in element_blocks(HeightBall(quadratic_field(d), 16)):
        got = np.stack(_images(a1, a2, b, d), axis=1).tolist()
        want = [list(astuple(raw_image(QuadElem(x1, x2, y, d))))
                for x1, x2, y in zip(a1.tolist(), a2.tolist(), b.tolist())]
        assert got == want


def _capped_valuation(n: int, q: int, e: int) -> int:
    """min(v_q(n), e) over Python ints; v_q(0) is infinite."""
    v = 0
    while v < e and n % q ** (v + 1) == 0:
        v += 1
    return v


@pytest.mark.parametrize("d", (2, 3, 5, 6, 7, 10, 15, 17, 21, 30))
@settings(max_examples=12, deadline=None)
@given(q=st.sampled_from((2, 3, 5, 7)), F=st.integers(1, 9),
       rng=st.randoms(use_true_random=False))
def test_capped_table_entries(d, q, F, rng):
    """Every entry of a capped table, C[j, s, i] at b = q*(j + 1) mod m,
    x1 = s - F mod m and x2 = i - F, against q^min(v_q(A1), v_q(A2),
    3*v_q(b), e) from Python ints at a random representative of its class,
    or 1 where q divides both x1 and x2.  At d = 17 (d = 1 mod 8) the cap
    3*v_2(b) binds where v_2(b) = 1."""
    assume(q <= F)
    e = _capped_valuation(8 * d, q, 8) + 1
    m, table = height_enum._capped_table(q, d, F)
    assert m == q ** e
    assert table.shape == (min(m, F) // q, min(m, 2 * F + 1), 2 * F + 1)
    for (j, s, i), entry in np.ndenumerate(table):
        b = q * (j + 1) + m * rng.randint(0, 3)
        x1 = s - F + m * rng.randint(-3, 3)
        x2 = i - F + m * rng.randint(-3, 3)
        if x1 % q == 0 and x2 % q == 0:
            assert entry == 1
            continue
        A1, A2 = _image_coords(x1, x2, b, d)
        v = min(_capped_valuation(A1, q, e), _capped_valuation(A2, q, e),
                3 * _capped_valuation(b, q, e))
        assert entry == q ** v


def test_gcd_bound_sweep_memory_with_a_large_prime():
    """At d = 31, height 300, the prime 31 has m = 961 > 2F + 1, so each
    of its 9 capped-table slices is a whole 601 x 601 grid, and the primes
    to 300 would give a ragged scan of sum q^2 cells: held at once in
    int64, 128 MB over the import.  One slice at a time, in the smallest
    dtype that holds m, and one line per class of the scan keep it under
    32 MB.  Peak RSS over the import in a fresh interpreter, read as
    VmHWM: ``ru_maxrss`` would carry over the RSS of the process that
    started it.  The dict is the block reference's, computed here while
    the child runs."""
    src = os.path.dirname(os.path.dirname(trisect_core.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import json\n"
            "from trisectlab.height_enum import gcd_bound_sweep\n"
            "def peak_mb():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status\n"
            "                    if line.startswith('VmHWM:')) / 1024\n"
            "before = peak_mb()\n"
            "report = gcd_bound_sweep(31, 300)\n"
            "print(json.dumps({'report': report, 'over_import_mb': peak_mb() - before}))\n")
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env) as child:
        try:
            want = gcd_bound_sweep_blocks(31, 300)
            out, err = child.communicate(timeout=120)
        finally:
            child.kill()  # a no-op once it has exited
    assert child.returncode == 0, err
    result = json.loads(out)
    assert result["report"] == want
    assert result["over_import_mb"] <= 32, result


def test_gcd_bound_sweep_refuses_past_int64():
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="int64"):
        gcd_bound_sweep(2, 10 ** 6)
    assert time.perf_counter() - start < 5


def test_cbrt_helpers():
    assert icbrt(0) == 0 and icbrt(7) == 1 and icbrt(8) == 2 and icbrt(26) == 2
    for n in range(5000):
        r = icbrt(n)
        assert r ** 3 <= n < (r + 1) ** 3
    assert icbrt(10 ** 75 + 7) == 10 ** 25
    assert icbrt(10 ** 1200) == 10 ** 400
    k = 10 ** 100 + 12345
    assert icbrt(k ** 3 - 1) == k - 1
    assert icbrt(k ** 3) == k
    assert icbrt(k ** 3 + 1) == k
    assert ceil_cbrt(8) == 2 and ceil_cbrt(9) == 3
    assert ceil_cbrt(Fraction(1, 8)) == 1


def test_preimage_bound_examples():
    assert preimage_bound(RATIONAL_FIELD, 1000) == 20
    assert preimage_bound(RATIONAL_FIELD, 1) == 2
    assert preimage_bound(quadratic_field(2), 1000) == 51


def test_preimage_bound_soundness_rational():
    """Every beta in B(3S) whose image has height <= R satisfies
    height(beta) <= S(that height); sweeping once covers every R <= 50."""
    R = 50
    T = 3 * int(preimage_bound(RATIONAL_FIELD, R))
    for b in range(1, T + 1):
        for a in range(-T, T + 1):
            if gcd(a, b) != 1:
                continue
            h_img = max(abs(a ** 3 - 3 * a * b * b), b ** 3)
            if h_img <= R:
                assert max(abs(a), b) <= int(preimage_bound(RATIONAL_FIELD, h_img))


@pytest.mark.parametrize("d", (2, 3, 5))
def test_preimage_bound_soundness_quadratic(d):
    R = 20
    S = int(preimage_bound(quadratic_field(d), R))
    T = 3 * S
    s_of = np.array([0] + [int(preimage_bound(quadratic_field(d), h)) for h in range(1, R + 1)],
                    dtype=np.int64)
    a1 = np.arange(-T, T + 1, dtype=np.int64).reshape(-1, 1)
    a2 = np.arange(-T, T + 1, dtype=np.int64).reshape(1, -1)
    for b in range(1, T + 1):
        coprime = np.gcd(np.gcd(np.abs(a1), np.abs(a2)), b) == 1
        A1 = a1 ** 3 + (3 * d) * a1 * a2 ** 2 - (3 * b * b) * a1
        A2 = 3 * a1 ** 2 * a2 + d * a2 ** 3 - (3 * b * b) * a2
        G = np.gcd(np.gcd(np.abs(A1), np.abs(A2)), b ** 3)
        h_img = np.maximum(np.maximum(np.abs(A1), np.abs(A2)), b ** 3) // G
        mask = coprime & (h_img <= R)
        if not mask.any():
            continue
        h_in = np.maximum(np.maximum(np.abs(a1), np.abs(a2)), b)
        bad = mask & (h_in > s_of[np.where(mask, h_img, 1)])
        assert not bad.any()


def test_decide_examples():
    assert not decide_trisection(1).member
    v = decide_trisection(0)
    assert v.member and v.witness == 0
    v = decide_trisection(Fraction(-11, 8))
    assert v.member and v.witness == Fraction(1, 2)
    assert not decide_trisection(Fraction(3, 2)).member
    v = decide_trisection(canonicalize(0, 1, 1, 2))
    assert v.member and v.witness == QuadElem(0, -1, 1, 2)
    assert not decide_trisection(canonicalize(0, 1, 1, 3)).member


def test_decide_endpoints_and_range():
    assert decide_trisection(2).member
    assert decide_trisection(-2).member
    with pytest.raises(OutOfRange):
        decide_trisection(Fraction(5, 2))
    with pytest.raises(OutOfRange):
        decide_trisection(canonicalize(2, 1, 1, 5))


def test_decide_matches_bounded_search_oracle():
    """Every canonical a of height <= H over Q(sqrt d): the verdict equals
    the one read off the first-witness index over B(S(H)), which holds
    every preimage of such a."""
    H = 20
    for d in (2, 3, 5, 6, 7):
        field = quadratic_field(d)
        index = _image_index(d, int(preimage_bound(field, H)))
        for a in enumerate_ball_interval(HeightBall(field, H), -2, 2):
            beta = index.get(a)
            cert = _try_eisenstein_cert(a.as_fraction()) if beta is None and a.is_rational else None
            expected = TrisectionVerdict(beta is not None, beta, "cube-denominator", cert,
                                         preimage_bound(field, height(a)))
            assert decide_trisection(a) == expected, a


@st.composite
def _preimages(draw):
    d = draw(st.sampled_from((None, 2, 3, 5, 6, 7)))
    c = draw(st.integers(1, 5 * 10 ** 29))
    b1 = draw(st.integers(-2 * c, 2 * c))
    if d is None:
        return Fraction(b1, c)
    b2 = draw(st.just(0) | st.integers(-c, c))
    g = gcd(gcd(b1, b2), c)
    x = QuadElem(b1 // g, b2 // g, c // g, d)
    assume(in_interval(x, -2, 2))
    return x


@settings(max_examples=200, deadline=None)
@given(_preimages())
def test_decide_finds_high_members(beta):
    a = apply_f(beta)
    field = RATIONAL_FIELD if isinstance(beta, Fraction) else quadratic_field(beta.d)
    v = decide_trisection(a, field)
    assert v.member and apply_f(v.witness) == a
    bound = v.search_bound if v.search_bound is not None else preimage_bound(field, height(a))
    assert height(v.witness) <= bound


_RADICANDS = (2, 3, 5, 6, 7, 30)
_C_NEAR_DOUBLE = 2 ** 256 + 1
_C64 = 2 ** 64 + 1
_Q_CANCEL = 70 ** 40


@st.composite
def _cubics(draw):
    """(c, P, Q, d) for g(t) = t^3 - 3c^2*t - (P + Q*sqrt(d)): members with
    an exact integer root r (a = f(r/c)) or an irrational quadratic root,
    a = +-2 and its neighbours (a double or near-double root at -+c), P = 0
    with Q != 0, a constant past 2c^3 (one real root, as in a conjugate
    cubic), P + Q*sqrt(d) near 0 from huge P and Q (a start M far above
    the roots), and plain random constants."""
    c = draw(st.integers(1, 2 ** 256))
    d = draw(st.sampled_from(_RADICANDS))
    c3 = c ** 3
    kind = draw(st.sampled_from(("member", "quad-member", "turning", "P=0", "one-root",
                                 "cancel", "any")))
    if kind == "member":
        P, Q = _image_coords(draw(st.integers(-2 * c, 2 * c)), 0, c, 1)
    elif kind == "quad-member":
        b1, b2 = draw(st.integers(-2 * c, 2 * c)), draw(st.integers(-c, c))
        P, Q = _image_coords(b1, b2, c, d)
    elif kind == "turning":
        P, Q = draw(st.sampled_from((2, -2))) * c3 + draw(st.integers(-2, 2)), draw(
            st.integers(-1, 1))
    elif kind == "P=0":
        P, Q = 0, draw(st.integers(-2 * c3, 2 * c3).filter(bool))
    elif kind == "one-root":
        Q = draw(st.integers(-c3, c3))
        P = draw(st.sampled_from((1, -1))) * (2 * c3 + math.isqrt(Q * Q * d) + 1
                                              + draw(st.integers(0, 8 * c3)))
    elif kind == "cancel":
        Q = draw(st.integers(1, 2 ** 300)) * draw(st.sampled_from((1, -1)))
        P = -math.isqrt(Q * Q * d) * (1 if Q > 0 else -1) + draw(st.integers(-3, 3))
    else:
        P, Q = draw(st.integers(-4 * c3, 4 * c3)), draw(st.integers(-2 * c3, 2 * c3))
    return c, P, Q, d


def _root_floors_within_bisection(c, P, Q, d) -> list[int]:
    """``_root_floors`` with each branch search held to M.bit_length() + 2
    loop iterations (one Newton step each, and a last one that returns):
    an iteration past that raises instead of running on."""
    budget = []
    newton_floor, upper_floor = trisect_core._newton_floor, trisect_core._upper_floor

    def counted_newton_floor(*args):
        budget[-1] -= 1
        assert budget[-1] >= 0, "a branch search outran bisection"
        return newton_floor(*args)

    def budgeted_upper_floor(c, P, Q, d, M, sign_c):
        budget.append(M.bit_length() + 1)
        return upper_floor(c, P, Q, d, M, sign_c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trisect_core, "_newton_floor", counted_newton_floor)
        mp.setattr(trisect_core, "_upper_floor", budgeted_upper_floor)
        return trisect_core._root_floors(c, P, Q, d)


@settings(max_examples=400, deadline=None)
@given(_cubics())
def test_root_floors_match_bisection_oracle(cubic):
    assert _root_floors_within_bisection(*cubic) == root_floors_bisect(*cubic)


@pytest.mark.parametrize(
    "c, P, Q, d, floors",
    [
        (5, -198, 0, None, [-10, 3, 6]),  # member r = 3: (t - 3)(t^2 + 3t - 66)
        (5, -124, -60, 3, [-10, 3, 6]),  # quadratic member 2 + sqrt(3)
        (7, 2 * 7 ** 3, 0, None, [-7, 14]),  # a = 2: (t + 7)^2 (t - 14)
        (7, -2 * 7 ** 3, 0, None, [-14, 7]),  # a = -2: (t - 7)^2 (t + 14)
        (1, 0, 1, 2, [-2, -1, 1]),  # P = 0: roots -sqrt(2), -0.52, 1.93
        (4, 0, -9, 30, [-8, 1, 6]),  # P = 0: roots -7.39, 1.05, 6.34
        (1, 5, 0, None, [2]),  # one real root, 2.28
        (2, 40, -3, 2, [4]),  # one real root, 4.47
        (2, -40, 3, 2, [-5]),  # its mirror, -4.47
        # Near-double roots (the next six rows) make the Newton steps merely
        # halve the distance to the root, and a start far above the roots (the
        # last row) shrinks it by only 1/3; the iteration budget checks that the
        # safeguard keeps both within bisection's.
        # a = 2 - 1/c^3: roots -c - e, -c + e with 0 < e < 1, and just below 2c
        (_C_NEAR_DOUBLE, 2 * _C_NEAR_DOUBLE ** 3 - 1, 0, None,
         [-_C_NEAR_DOUBLE - 1, -_C_NEAR_DOUBLE, 2 * _C_NEAR_DOUBLE - 1]),
        (_C64, 2 * _C64 ** 3 - 1, 0, None, [-_C64 - 1, -_C64, 2 * _C64 - 1]),
        # a = -2 + 1/c^3: its mirror, just above -2c, then c - e, c + e
        (_C64, -2 * _C64 ** 3 + 1, 0, None, [-2 * _C64, _C64 - 1, _C64]),
        (_C_NEAR_DOUBLE, -2 * _C_NEAR_DOUBLE ** 3 + 1, 0, None,
         [-2 * _C_NEAR_DOUBLE, _C_NEAR_DOUBLE - 1, _C_NEAR_DOUBLE]),
        # constant 2c^3 - 0.59: like a = 2 - 1/c^3
        (_C_NEAR_DOUBLE, 2 * _C_NEAR_DOUBLE ** 3 - 2, 1, 2,
         [-_C_NEAR_DOUBLE - 1, -_C_NEAR_DOUBLE, 2 * _C_NEAR_DOUBLE - 1]),
        # constant -2c^3 - 0.41: one real root, just below -2c
        (_C_NEAR_DOUBLE, -2 * _C_NEAR_DOUBLE ** 3 + 1, -1, 2, [-2 * _C_NEAR_DOUBLE - 1]),
        # P + Q*sqrt(2) in (0, 1) from 245-bit P and Q: roots near 0, +-3*sqrt(3)
        (3, -math.isqrt(2 * _Q_CANCEL ** 2), _Q_CANCEL, 2, [-6, -1, 5]),
    ],
    ids=["member", "quad-member", "a=2", "a=-2", "P=0", "P=0-d30", "one-root",
         "one-root-quad", "one-root-mirror", "near-double-256", "near-double-64",
         "near-minus-double-64", "near-minus-double-256", "quad-near-2", "quad-near-minus-2",
         "cancel"],
)
def test_root_floors_examples(c, P, Q, d, floors):
    assert _root_floors_within_bisection(c, P, Q, d) == floors == root_floors_bisect(c, P, Q, d)


def test_near_turning_root_takes_few_newton_steps():
    """f(r/s) with r = s - 3 puts a root of the cubic just below the turning
    point s: the search starts near it rather than at M, so a 1000-digit s
    takes a handful of Newton steps where halving from M took about 2,500."""
    s = 10 ** 1000 + 1
    steps = []
    newton_floor = trisect_core._newton_floor

    def counted_newton_floor(*args):
        steps.append(args)
        return newton_floor(*args)

    for x in (Fraction(s - 3, s), Fraction(3 - s, s)):
        steps.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trisect_core, "_newton_floor", counted_newton_floor)
            v = decide_trisection(apply_f(x))
        assert v.member and v.witness == x
        assert len(steps) <= 8


# 3*5*...*47, the product of the odd primes below 50: tau(8d) = 65,536
_MANY_PRIME_D = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))


@st.composite
def _denominators(draw):
    """(d, beta): beta = c^3/G0 for a random divisor G0 of 8d (so that some
    G | 8d makes G*beta a cube), or a random beta."""
    d = draw(st.sampled_from((2, 3, 5, 6, 7, 30, 2310, _MANY_PRIME_D)))
    if draw(st.booleans()):
        return d, draw(st.integers(1, 10 ** 40))
    odd = math.prod(p for p in factorize_trial(d) if p > 2 and draw(st.booleans()))
    c = 4 * odd * draw(st.integers(1, 10 ** 12))
    return d, c ** 3 // (2 ** draw(st.integers(0, factorize_trial(8 * d)[2])) * odd)


@settings(max_examples=60, deadline=None)
@given(_denominators())
def test_gcd_candidates_hold_every_cube_cofactor(case):
    """The valuation candidates hold every divisor G of 8d (listed by the
    oracle) with G*beta a cube, and there are at most two of them."""
    d, beta = case
    candidates = _gcd_candidates(beta, d)
    assert len(candidates) <= 2 and all(8 * d % G == 0 for G in candidates)
    cubes = [G for G in divisors(8 * d) if icbrt(G * beta) ** 3 == G * beta]
    assert set(cubes) <= set(candidates)


@st.composite
def _rationals(draw):
    """a in [-2, 2]: members f(r/s), f(r/s) shifted by k/s^3 (a cube
    denominator and mostly no preimage), and plain fractions."""
    s = draw(st.integers(1, 10 ** 30))
    r = draw(st.integers(-2 * s, 2 * s))
    kind = draw(st.sampled_from(("member", "shifted", "any")))
    if kind == "any":
        a = Fraction(r, s)
    else:
        a = apply_f(Fraction(r, s))
        if kind == "shifted":
            a += Fraction(draw(st.integers(-3, 3)), s ** 3)
    assume(-2 <= a <= 2)
    return a


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_RADICANDS), _rationals())
def test_rational_over_quadratic_field_matches_quadratic_preimage(d, a):
    """Rational a over Q(sqrt d): the verdict, witness, certificate and
    search bound equal those read off :func:`_quadratic_preimage` alone."""
    field = quadratic_field(d)
    beta = _quadratic_preimage(quad_from_canonical(a.numerator, 0, a.denominator, d))
    cert = _try_eisenstein_cert(a) if beta is None else None
    expected = TrisectionVerdict(beta is not None, beta, "cube-denominator", cert,
                                 preimage_bound(field, height(a)))
    assert decide_trisection(a, field) == expected


@pytest.mark.parametrize(
    "a",
    [
        Fraction(1, 10 ** 75),
        Fraction(1, 10 ** 400),
        canonicalize(1, 1, 10 ** 5, 2),
        canonicalize(1, 1, 10 ** 50, 3),
    ],
    ids=["1/10^75", "1/10^400", "(1+sqrt2)/10^5", "(1+sqrt3)/10^50"],
)
def test_deep_probes_are_fast_non_members(a):
    start = time.perf_counter()
    v = decide_trisection(a)
    assert time.perf_counter() - start < 0.05
    assert not v.member and v.witness is None


def test_witness_soundness_randomized():
    rng = random.Random(17)
    found = 0
    for _ in range(400):
        b = rng.randint(1, 40)
        a = rng.randint(-2 * b, 2 * b)
        if abs(a) > 40 or gcd(a, b) != 1:
            continue
        x = Fraction(a, b)
        v = decide_trisection(x)
        if v.member:
            found += 1
            assert apply_f(v.witness) == x
            assert in_interval(v.witness, -2, 2)
    assert found >= 3


def test_fast_path_matches_bounded_search_up_to_200():
    H = 200
    images = _rational_image_set(H)
    for b in range(1, H + 1):
        top = min(2 * b, H)
        for a in range(-top, top + 1):
            if gcd(a, b) != 1:
                continue
            x = Fraction(a, b)
            assert decide_trisection(x).member == (x in images), x


@pytest.mark.parametrize("d", (2, 3, 5))
def test_ambient_field_consistency(d):
    field = quadratic_field(d)
    for b in range(1, 61):
        top = min(2 * b, 60)
        for a in range(-top, top + 1):
            if gcd(a, b) != 1:
                continue
            x = Fraction(a, b)
            over_q = decide_trisection(x).member
            over_k = decide_trisection(x, field).member
            assert over_q == over_k, x


def test_eisenstein_cert_examples():
    cert = eisenstein_cert_3rs(1, 2)
    assert cert.data["in_range"] and cert.verify()
    cert = eisenstein_cert_3rs(1, 1)
    assert not cert.data["in_range"] and cert.verify()
    cert = eisenstein_cert_3rs(2, 5)
    assert cert.data["coeffs"] == ["-6", "-15", "0", "5"]
    assert cert.verify()
    for bad in ((0, 1), (3, 2), (2, 3), (2, 4)):
        with pytest.raises(BadParameters):
            eisenstein_cert_3rs(*bad)


@pytest.mark.parametrize(
    "key, value",
    [
        ("a", "5/7"),
        ("in_range", False),
        ("prime", 5),
        ("prime", "3"),
        ("r", 2),
        ("s", 5),
        ("s", "2"),
        ("r", 1.0),
        ("coeffs", ["-3", "-6", "0", "1"]),
    ],
)
def test_eisenstein_verifier_rejects_tampering(key, value):
    data = dict(eisenstein_cert_3rs(1, 2).data)
    data[key] = value
    assert not Certificate("eisenstein-3rs", data).verify()


def test_eisenstein_verifier_rejects_missing_fields():
    data = eisenstein_cert_3rs(1, 2).data
    for key in data:
        partial = {k: v for k, v in data.items() if k != key}
        assert not Certificate("eisenstein-3rs", partial).verify(), key
    assert not Certificate("eisenstein-3rs", {"r": 1}).verify()


def test_unknown_certificate_kind_is_a_typed_error():
    """Also a kind that is not a str: a list used to raise a bare
    TypeError (unhashable) from the registry lookup."""
    for kind in ("nope", ["x"], None, 3):
        with pytest.raises(BadParameters):
            Certificate(kind, {}).verify()


def test_yates_verifier_rejects_malformed_data():
    assert not Certificate("yates-bezout", {"k": 3}).verify()
    assert not Certificate("yates-bezout", {"k": 2, "a": 1}).verify()
    assert not Certificate("yates-bezout", {"k": 2, "a": 1, "b": -1.0}).verify()
    assert not Certificate("yates-bezout", {"k": "2", "a": 1, "b": -1}).verify()


def test_yates_verifier_rejects_nonpositive_k():
    """3a + bk = 1 holds at these k, but ``yates_certificate`` refuses any
    k < 1, so the verifier does too."""
    assert not Certificate("yates-bezout", {"k": -2, "a": 1, "b": 1}).verify()
    assert not Certificate("yates-bezout", {"k": -1, "a": 0, "b": -1}).verify()


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"H": 100, "checked": 41},
        {"H": "100", "checked": 41, "members_found": 0},
        {"H": 100.0, "checked": 41, "members_found": 0},
        {"H": True, "checked": 1, "members_found": 0},
        {"H": 100, "checked": "41", "members_found": 0},
        {"H": 100, "checked": 41, "members_found": False},
        {"H": 100, "checked": 41, "members_found": "0"},
        {"H": 100, "checked": 42, "members_found": 0},
        {"H": 0, "checked": 0, "members_found": 0},
        {"H": 100, "checked": 41, "members_found": 0, "extra": 1},
    ],
)
def test_square_family_verifier_rejects_malformed_data(data):
    assert square_family_check(100)["certificate"].data["checked"] == 41
    assert not Certificate("square-family", data).verify()


def test_square_family_check():
    report = square_family_check(100)
    assert report["falsifications"] == []
    assert report["checked"] > 0
    assert report["certificate"].verify()
    assert not decide_trisection(Fraction(1)).member
    assert not decide_trisection(Fraction(1, 4)).member
    assert not decide_trisection(Fraction(16, 9)).member


def test_yates_certificate():
    assert yates_certificate(2) == (1, -1)
    assert yates_certificate(4) == (-1, 1)
    with pytest.raises(BadParameters):
        yates_certificate(3)
    for k in (1, 2, 4, 5, 7, 8, 100, 2048):
        a, b = yates_certificate(k)
        assert 3 * a + b * k == 1
        assert Certificate("yates-bezout", {"k": k, "a": a, "b": b}).verify()


def test_phi_curve_examples():
    assert phi_curve(1, 1, 2) == 2
    assert phi_bound_check(1, 1, 2, 1)["ok"]
    assert phi_curve(1, Fraction(1, 2), 0) == 0
    report = phi_bound_check(2, 1, -3, 8)
    assert report["phi"] == -36 and report["ok"]
    rng = random.Random(23)
    for _ in range(200):
        D = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        E = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        T = Fraction(rng.randint(1, 80), rng.randint(1, 9))
        assert phi_bound_check(D, E, x, T)["ok"]


def test_density_rational_small_oracle():
    """Frozen from the decide-based oracle: at R = 10 the accepted values
    are 0, +-2, and +-9/8 (the latter via f(+-3/2), height 9 <= 10)."""
    oracle = set()
    for b in range(1, 11):
        for a in range(-2 * b, 2 * b + 1):
            if abs(a) <= 10 and gcd(a, b) == 1 and decide_trisection(Fraction(a, b)).member:
                oracle.add(Fraction(a, b))
    assert oracle == {Fraction(0), Fraction(2), Fraction(-2), Fraction(9, 8), Fraction(-9, 8)}

    den_oracle = sum(
        1
        for b in range(1, 11)
        for a in range(-2 * b, 2 * b + 1)
        if abs(a) <= 10 and gcd(a, b) == 1
    )
    report = density_experiment(RATIONAL_FIELD, [10])
    point = report.points[0]
    assert point.numerator == len(oracle) == 5
    assert point.denominator == den_oracle == 97
    assert report.slope is None  # fewer than three points


def test_density_numerator_identity_rational():
    report = density_experiment(RATIONAL_FIELD, [10, 25, 50])
    for point in report.points:
        R = int(point.R)
        members = 0
        for b in range(1, R + 1):
            top = min(2 * b, R)
            for a in range(-top, top + 1):
                if gcd(a, b) == 1 and decide_trisection(Fraction(a, b)).member:
                    members += 1
        assert members == point.numerator


@pytest.mark.parametrize("d", (2, 5))
def test_density_numerator_identity_quadratic(d):
    field = quadratic_field(d)
    report = density_experiment(field, [10, 20])
    for point in report.points:
        R = int(point.R)
        members = sum(
            1
            for x in enumerate_ball_interval(HeightBall(field, R), -2, 2)
            if decide_trisection(x).member
        )
        assert members == point.numerator


@pytest.mark.parametrize(
    "field, R_list",
    [
        (RATIONAL_FIELD, [25, 50, 100, 200]),
        (quadratic_field(2), [10, 25, 50]),
        (quadratic_field(5), [10, 25, 50]),
    ],
    ids=["Q", "d2", "d5"],
)
def test_density_numerator_matches_apply_f_oracle(field, R_list):
    """The array numerator against f applied element by element to the
    Python-row preimage ball, deduplicated in a set."""
    ball = HeightBall(field, preimage_bound(field, R_list[-1]))
    heights = [
        height(img)
        for img in {apply_f(x) for x in ball_stream(ball) if in_interval(x, -2, 2)}
    ]
    report = density_experiment(field, R_list)
    assert [p.numerator for p in report.points] == [
        sum(1 for h in heights if h <= R) for R in R_list
    ]


def test_density_refuses_past_int64():
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="int64"):
        density_experiment(RATIONAL_FIELD, [10 ** 18])
    assert time.perf_counter() - start < 5


def test_density_monotonicity_and_bounds():
    report = density_experiment(RATIONAL_FIELD, [10, 20, 40, 80])
    nums = [p.numerator for p in report.points]
    dens = [p.denominator for p in report.points]
    assert nums == sorted(nums)
    assert dens == sorted(dens)
    assert all(0 <= p.numerator <= p.denominator for p in report.points)
    assert report.target_exponent == pytest.approx(-4 / 3)


def test_density_validation():
    with pytest.raises(BadParameters):
        density_experiment(RATIONAL_FIELD, [10, 10])
    with pytest.raises(BadParameters):
        density_experiment(RATIONAL_FIELD, [])


def test_density_refuses_past_the_square_test_domain():
    """Over Q(sqrt 2) at R = 10^12 the image map fits int64 but U^2 + d*V^2
    of the square test could not: refused before any work."""
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="int64"):
        density_experiment(quadratic_field(2), [10 ** 12])
    assert time.perf_counter() - start < 5
    assert cli_main(["density", "--field", "quad", "--d", "2", "--R", "1000000000000"]) == 3


@pytest.mark.parametrize("d", (1, 2, 3, 5, 6, 7, 30))
def test_is_square_matches_table_of_squares(d):
    """Every integer (U, V) in a box, U < 0 and V = 0 included, against
    the table of (p + q*sqrt(d))^2 = (p^2 + d*q^2) + 2pq*sqrt(d) over
    half-integers p = P/2, q = Q/2 (a rational square with integer
    coordinates has p and q in Z/2), the box's squares all in range."""
    B = 120
    M = 2 * math.isqrt(B) + 2
    table = {((P * P + d * Q * Q) // 4, P * Q // 2)
             for P in range(-M, M + 1) for Q in range(-M, M + 1)
             if (P * P + d * Q * Q) % 4 == 0 and P * Q % 2 == 0}
    U, V = (c.ravel() for c in np.mgrid[-B:B + 1, -B:B + 1])
    got = is_square(U.astype(np.int64), V.astype(np.int64), d)
    assert got.tolist() == [(u, v) in table for u, v in zip(U.tolist(), V.tolist())]
    assert got.sum() > 2 * math.isqrt(B)


@pytest.mark.parametrize("d, R", [(None, 1000), (2, 160), (3, 20), (5, 20), (6, 10), (7, 80),
                                  (30, 343)])
def test_fibre_sizes_follow_the_square_test(d, R):
    """The fibre lemma behind the density numerator: among the elements of
    B(S) ∩ [-2, 2] with an image of height <= R, that image has 3
    preimages in the ball where 3(4 - x^2) is a square in K and x is not
    +-1 or +-2, 2 at those four points and 1 elsewhere.  Rows with
    b^3 > R*gcd(8d, b^3) are skipped (their images are higher than R, by
    ``test_unvisited_rows_cannot_count``); each R is large enough for a
    3-element fibre to appear."""
    field = quadratic_field(d) if d else RATIONAL_FIELD
    fibres = {}
    for x in enumerate_ball_interval(HeightBall(field, preimage_bound(field, R)), -2, 2):
        b = x.b if d else x.denominator
        if b ** 3 <= R * (gcd(8 * d, b ** 3) if d else 1) and height(a := apply_f(x)) <= R:
            fibres.setdefault(a, []).append(x)
    xs, sizes = zip(*((x, len(fibre)) for fibre in fibres.values() for x in fibre))
    x1, x2, b = (np.array(c, dtype=np.int64) for c in zip(*(
        (x.a1, x.a2, x.b) if d else (x.numerator, 0, x.denominator) for x in xs)))
    square = is_square(3 * (4 * b * b - x1 * x1 - (d or 1) * x2 * x2), -6 * x1 * x2, d or 1)
    special = (x2 == 0) & (b == 1) & np.isin(np.abs(x1), (1, 2))
    assert list(sizes) == np.where(special, 2, np.where(square, 3, 1)).tolist()
    assert sizes.count(2) == 4 and sizes.count(1) > 0 and sizes.count(3) > 0


@pytest.mark.parametrize("field, R, visited", [(RATIONAL_FIELD, 1000, 129),
                                               (quadratic_field(2), 200, 6443)], ids=["Q", "d2"])
def test_density_cap_bounds_the_preimages_visited(field, R, visited):
    """``cap`` counts the preimages in the rows the numerator visits, those
    with b^3 <= R*gcd(8d, b^3), not the whole ball B(S) ∩ [-2, 2]."""
    ball = HeightBall(field, preimage_bound(field, R))
    dens = (x.b if isinstance(x, QuadElem) else x.denominator
            for x in enumerate_ball_interval(ball, -2, 2))
    reachable = sum(1 for b in dens if b ** 3 <= R * (gcd(8 * field.d, b ** 3) if field.d else 1))
    assert reachable == visited < count_ball_interval(ball, -2, 2)
    assert density_experiment(field, [R], cap=visited) == density_experiment(field, [R])
    with pytest.raises(CapExceeded, match=f"more than {visited - 1} preimages visited"):
        density_experiment(field, [R], cap=visited - 1)


@pytest.mark.parametrize("field, size", [(RATIONAL_FIELD, 3), (quadratic_field(2), 7)],
                         ids=["Q", "d2"])
def test_density_refuses_R_below_one(field, size):
    """B(R) ∩ [-2, 2] is empty below height 1, so delta(R) has no value;
    at R = 1 it is 0, +-1 (and +-sqrt(2), +-(1 - sqrt(2)) over Q(sqrt 2))."""
    for R_list in ([Fraction(1, 2)], [Fraction(1, 2), 1], [0, 5]):
        with pytest.raises(BadParameters, match="R must be >= 1"):
            density_experiment(field, R_list)
    assert density_experiment(field, [1]).points[0].denominator == size


_DENSITY_FIELDS = [RATIONAL_FIELD] + [quadratic_field(d) for d in (2, 3, 5, 6, 7, 30)]
_R_LISTS = st.lists(st.fractions(1, 300, max_denominator=7), min_size=1, max_size=4,
                    unique=True).map(sorted)


@pytest.mark.parametrize("block_cells", [height_enum.BLOCK_CELLS, 64], ids=["default", "tiny"])
@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(_DENSITY_FIELDS), R_list=_R_LISTS)
def test_density_matches_whole_ball_reference(block_cells, field, R_list):
    """The fibre-weighted numerator over the reachable rows and the shared
    denominator count against the whole preimage ball with one global
    dedup and one count per R.  With 64 cells a block holds a row or a
    few, so one denominator spans many blocks and one fibre often spans
    several: the sums must not depend on where the blocks split."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(height_enum, "BLOCK_CELLS", block_cells)
        report = density_experiment(field, R_list)
    assert [(p.numerator, p.denominator) for p in report.points] == density_points_full(
        field, R_list)


@pytest.mark.parametrize("d, R", [(None, 1000), (None, Fraction(2001, 2)), (2, 200),
                                  (3, 150), (6, 100), (30, 60)])
def test_unvisited_rows_cannot_count(d, R):
    """Soundness of the row cut: every element of B(S) ∩ [-2, 2] whose
    denominator b has b^3 > floor(R) * gcd(8d, b^3) (floor(R) over Q) has
    an image of height above R."""
    field = quadratic_field(d) if d else RATIONAL_FIELD
    top = math.floor(R)
    ball = HeightBall(field, preimage_bound(field, R))
    skipped = 0
    for b, a1, a in element_blocks(ball, Fraction(-2), Fraction(2)):
        g = np.array([gcd(8 * d, v ** 3) if d else 1 for v in b.tolist()], dtype=np.int64)
        cut = b ** 3 > top * g
        x1, x2 = (a1, a) if d else (a, a1)
        A1, A2, B, G = _images(x1[cut], x2[cut], b[cut], d or 1)
        assert (np.maximum(np.maximum(np.abs(A1), np.abs(A2)), B) // G > top).all()
        skipped += int(cut.sum())
    assert skipped > 0


@pytest.mark.parametrize("field, R_list, lo, hi", [
    (RATIONAL_FIELD, [25, 50, 100, 200], -2, 2),
    (RATIONAL_FIELD, [1, Fraction(7, 2), 999, 1000, 10 ** 6], -2, 2),
    (RATIONAL_FIELD, [3, 40, 41], Fraction(-1, 3), Fraction(5, 2)),
    (quadratic_field(2), [25, 50, 100, 200], -2, 2),
    (quadratic_field(3), [Fraction(1, 2), 7, Fraction(77, 3), 60], -2, 2),
    (quadratic_field(5), [9, 30, 31], Fraction(-3, 7), 1),
], ids=["Q-nested", "Q-mixed", "Q-skew", "d2-nested", "d3-mixed", "d5-skew"])
def test_shared_interval_counts_match_per_R(field, R_list, lo, hi):
    assert count_ball_intervals(field, R_list, lo, hi) == [
        count_ball_interval(HeightBall(field, R), lo, hi) for R in R_list]


def test_density_leaves_numpy_ma_unimported():
    """numpy.ma costs milliseconds and megabytes to import; the density
    numerator and denominator use plain int64 arrays only, so a fresh
    interpreter never loads it."""
    src = os.path.dirname(os.path.dirname(trisect_core.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys\n"
            "from trisectlab.exact_arith import RATIONAL_FIELD, quadratic_field\n"
            "from trisectlab.height_enum import density_experiment\n"
            "density_experiment(RATIONAL_FIELD, [25, 50, 100])\n"
            "density_experiment(quadratic_field(2), [25, 50])\n"
            "assert 'numpy.ma' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def test_rational_density_constant():
    """delta(R) * R^(4/3) tends to I/3 over Q, I the integral over [-2, 2]
    of max(|t^3 - 3t|, 1)^(-2/3): coprime points under s^3 * max(|f(r/s)|, 1)
    <= R against (3/2) R^2/zeta(2) in the denominator.  At R = 10^8 the
    library is within 0.1%.  The integrand has kinks where f(t) = +-1, at
    t = +-2cos(2*pi*k/9), k = 1, 2, 4, and zeros of f at 0 and +-sqrt(3)."""
    import mpmath as mp

    kinks = [s * 2 * mp.cos(2 * mp.pi * k / 9) for k in (1, 2, 4) for s in (1, -1)]
    breaks = sorted([mp.mpf(-2), mp.mpf(0), mp.mpf(2), mp.sqrt(3), -mp.sqrt(3)] + kinks)
    with mp.workdps(30):
        integral = mp.quad(lambda t: mp.power(max(abs(t ** 3 - 3 * t), 1), mp.mpf(-2) / 3),
                           breaks)
    target = float(integral / 3)
    assert target == pytest.approx(1.1017, abs=1e-4)
    point = density_experiment(RATIONAL_FIELD, [10 ** 8]).points[0]
    assert abs(point.delta * 10 ** (32 / 3) - target) < 1e-3 * target


def test_wantzel_instance():
    assert rational_roots(IntPoly((-1, -3, 0, 1))) == set()
    assert not decide_trisection(1).member


def test_nonconstructible_witness_examples():
    cert5 = nonconstructible_witness(5, 2)
    poly5 = IntPoly([int(c) for c in cert5.data["minpoly"]])
    assert poly5.degree == 5 and cert5.verify()
    cert7 = nonconstructible_witness(7, 2)
    poly7 = IntPoly([int(c) for c in cert7.data["minpoly"]])
    assert poly7.degree == 7 and cert7.verify()
    for bad in ((3, 2), (4, 2), (2, 2), (1, 2), (5, 4), (5, 37)):
        with pytest.raises(BadParameters):
            nonconstructible_witness(*bad)


@pytest.mark.parametrize("m,q", [(5, 2), (7, 2), (11, 2), (13, 3), (17, 2), (19, 2), (23, 5)])
def test_witness_minpoly_matches_sylvester_oracle(m, q):
    got = nonconstructible_witness(m, q).data["minpoly"]
    assert got == sylvester_minpoly(m, q, F_CUBIC).coeff_strings()


@pytest.mark.parametrize("m,q", [(5, 2), (13, 3), (23, 5), (25, 7), (31, 2147483647)])
def test_witness_residual_bounds_the_mpf_oracle(m, q):
    """The fixed-point residual plus its bound is at least mpmath Horner's
    residual at the same working precision, and both pass the tolerance."""
    poly = IntPoly([int(c) for c in nonconstructible_witness(m, q).data["minpoly"]])
    bound = _witness_residual(poly, m, q)
    assert witness_residual_mpf(poly, m, q) <= bound < WITNESS_RESIDUAL_TOL


@pytest.mark.parametrize("m,q", [(5, 2), (17, 2), (31, 2147483647)])
@pytest.mark.parametrize("index", [0, 1, "middle", "below-top"])
@pytest.mark.parametrize("step", [1, -1])
def test_witness_residual_rejects_a_wrong_minpoly(monkeypatch, m, q, index, step):
    """One coefficient of the true minimal polynomial moved by 1 still
    passes the degree and squarefree checks; the residual check refuses it."""
    true = trisect_core.resultant_minpoly(m, Fraction(q), F_CUBIC)
    i = {"middle": m // 2, "below-top": m - 1}.get(index, index)
    coeffs = list(true.coeffs)
    coeffs[i] += step
    wrong = IntPoly(coeffs)
    monkeypatch.setattr(trisect_core, "resultant_minpoly", lambda *args: wrong)
    with pytest.raises(AssertionError, match="numeric residual"):
        nonconstructible_witness(m, q)


@pytest.mark.parametrize(
    "tamper",
    [
        {"degree": 99, "squarefree": False, "residual_below": 1e300},
        {"degree": 99},
        {"degree": "5"},
        {"squarefree": False},
        {"squarefree": 1},
        {"residual_below": 1e300},
        {"m": 7},
        {"m": 5.0},
        {"q": 3},
        {"minpoly": ["1", "0", "0", "0", "0", "1"]},
    ],
)
def test_nonconstructible_verifier_rejects_tampering(tamper):
    data = dict(nonconstructible_witness(5, 2).data)
    data.update(tamper)
    assert not Certificate("nonconstructible-witness", data).verify()


def test_nonconstructible_verifier_rejects_missing_fields():
    data = nonconstructible_witness(5, 2).data
    for key in data:
        partial = {k: v for k, v in data.items() if k != key}
        assert not Certificate("nonconstructible-witness", partial).verify(), key


@pytest.mark.parametrize(
    "kind, data",
    [
        ("square-family", {"H": 10 ** 10, "checked": 1, "members_found": 0}),
        ("eisenstein-psection", {"p": 10007, "c": 10007, "dd": 10008, "coeffs": []}),
        (
            "nonconstructible-witness",
            {"m": 1001, "q": 2, "minpoly": [], "degree": 1001, "squarefree": True,
             "residual_below": 1e-20},
        ),
    ],
)
def test_verifier_caps_refuse_costly_parameters(kind, data):
    """Each of these re-ran its producer for over 20 s before the caps."""
    assert SQUARE_FAMILY_MAX_H >= 100 and PSECTION_MAX_P >= 5 and WITNESS_MAX_M >= 23
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        Certificate(kind, data).verify()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "kind, key, cap",
    [
        ("square-family", "H", SQUARE_FAMILY_MAX_H),
        ("eisenstein-psection", "p", PSECTION_MAX_P),
        ("nonconstructible-witness", "m", WITNESS_MAX_M),
    ],
)
def test_verifier_caps_start_just_past_the_cap(kind, key, cap):
    data = dict(_KINDS[kind][0]())
    data[key] = cap + 1
    with pytest.raises(CapExceeded):
        Certificate(kind, data).verify()


@pytest.mark.parametrize(
    "kind, data",
    [
        ("eisenstein-psection", {"p": 5, "c": 5, "dd": 10 ** 1000 + 1, "coeffs": []}),
        ("eisenstein-psection", {"p": 5, "c": 5, "dd": 10 ** CERT_MAX_DIGITS + 1, "coeffs": []}),
        ("eisenstein-3rs", {"r": 10 ** 5000, "s": 1, "prime": 3, "a": "", "coeffs": [],
                            "in_range": False}),
        ("yates-bezout", {"k": 10 ** 5000 + 1, "a": (10 ** 5000 + 2) // 3, "b": -1}),
        ("nonconstructible-witness", {"m": 5, "q": 2, "minpoly": [], "degree": 10 ** 4001,
                                      "squarefree": True, "residual_below": 1e-20}),
    ],
)
def test_digit_cap_refuses_huge_integers(kind, data):
    """Integers whose rebuilt certificate would pass Python's int-to-str
    limit get a typed refusal, not a bare ValueError; so does any int field
    of any kind past the cap, whether or not its verifier re-runs a
    producer."""
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="digits"):
        Certificate(kind, data).verify()
    assert time.perf_counter() - start < 1.0


def test_digit_cap_at_the_cli(capsys):
    start = time.perf_counter()
    assert cli_main(["nsect", "--p", "5", "--c", "5", "--d", "1" + "0" * 1000 + "1"]) == 3
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()
    assert cli_main(["nsect", "--p", "5", "--c", "5", "--d", "1" + "0" * 100 + "1"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_certificate_serialization_roundtrip():
    cert = eisenstein_cert_3rs(1, 2)
    loaded = Certificate(**json.loads(json.dumps(cert.to_dict())))
    assert loaded.verify()


# One valid certificate of every kind, and the producer that rebuilds a
# certificate's data from its parameters.
_KINDS = {
    "eisenstein-3rs": (
        lambda: eisenstein_cert_3rs(1, 4).data,
        lambda d: eisenstein_cert_3rs(d["r"], d["s"]).data,
    ),
    "yates-bezout": (
        lambda: dict(zip("kab", (7, *yates_certificate(7)))),
        lambda d: dict(zip("kab", (d["k"], *yates_certificate(d["k"])))),
    ),
    "square-family": (
        lambda: square_family_check(40)["certificate"].data,
        lambda d: square_family_check(d["H"])["certificate"].data,
    ),
    "nonconstructible-witness": (
        lambda: nonconstructible_witness(5, 2).data,
        lambda d: nonconstructible_witness(d["m"], d["q"]).data,
    ),
    "eisenstein-psection": (
        lambda: nonsectability_cert(3, 3, 4).data,
        lambda d: nonsectability_cert(d["p"], d["c"], d["dd"]).data,
    ),
}


def _retyped(value):
    """The same value as another JSON type: int <-> str, anything else to
    str (a bool becomes an int)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return int(value) if value.lstrip("-").isdigit() else 0
    return str(value)


def _single_field_mutations(data: dict):
    """For each key: delete it, change its type, add 1 to an int; plus one
    extra key."""
    for key, value in data.items():
        yield {k: v for k, v in data.items() if k != key}
        yield {**data, key: _retyped(value)}
        if type(value) is int:
            yield {**data, key: value + 1}
    yield {**data, "extra": 1}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_single_field_mutations_never_verify(kind):
    """Every single-field mutation of a valid certificate verifies False
    or raises BadParameters, with one exception: it may verify when it
    equals what the producer returns for the mutated parameters (so
    square-family H 40 -> 41 names the same squares)."""
    valid, rebuild = _KINDS[kind]
    data = valid()
    assert Certificate(kind, data).verify()
    mutations = list(_single_field_mutations(data))
    assert len(mutations) >= 2 * len(data) + 1
    for mutated in mutations:
        try:
            ok = Certificate(kind, mutated).verify()
        except BadParameters:
            continue
        if ok:
            assert rebuild(mutated) == mutated, mutated

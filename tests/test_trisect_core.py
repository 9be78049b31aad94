"""Decision procedure, image gcd bound, preimage bounds, certificates,
and the density experiment."""

import json
import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trisectlab.errors import BadParameters, OutOfRange
from trisectlab.exact_arith import (
    RATIONAL_FIELD,
    QuadElem,
    canonicalize,
    height,
    in_interval,
    quadratic_field,
)
from trisectlab.height_enum import HeightBall, enumerate_ball_interval
from trisectlab.polyalg import IntPoly, rational_roots
from trisectlab.trisect_core import (
    Certificate,
    TrisectionVerdict,
    _try_eisenstein_cert,
    apply_f,
    ceil_cbrt,
    decide_trisection,
    density_experiment,
    eisenstein_cert_3rs,
    gcd_bound_sweep,
    icbrt,
    nonconstructible_witness,
    phi_bound_check,
    phi_curve,
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
    with pytest.raises(BadParameters):
        Certificate("nope", {}).verify()


def test_yates_verifier_rejects_malformed_data():
    assert not Certificate("yates-bezout", {"k": 3}).verify()
    assert not Certificate("yates-bezout", {"k": 2, "a": 1}).verify()
    assert not Certificate("yates-bezout", {"k": 2, "a": 1, "b": -1.0}).verify()
    assert not Certificate("yates-bezout", {"k": "2", "a": 1, "b": -1}).verify()


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


def test_certificate_serialization_roundtrip():
    cert = eisenstein_cert_3rs(1, 2)
    loaded = Certificate(**json.loads(json.dumps(cert.to_dict())))
    assert loaded.verify()

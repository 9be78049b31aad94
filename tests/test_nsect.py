"""Multiple-angle polynomial structure and p-section certificates."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import trisectlab
from oracles import psection_binomial
from trisectlab.errors import BadParameters, NotOddPrime
from trisectlab.polyalg import (IntPoly, eisenstein_check, is_prime, primes_below, psection_poly,
                               verify_structure)
from trisectlab.trisect_core import Certificate, decide_trisection, nonsectability_cert

ODD_PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_psection_examples():
    assert psection_poly(3) == IntPoly((0, -3, 0, 4))
    assert psection_poly(5) == IntPoly((0, 5, 0, -20, 0, 16))
    assert psection_poly(7) == IntPoly((0, -7, 0, 56, 0, -112, 0, 64))
    with pytest.raises(NotOddPrime):
        psection_poly(2)
    with pytest.raises(NotOddPrime):
        psection_poly(9)


def test_structure_to_101():
    for p in range(3, 102):
        if not is_prime(p):
            continue
        report = verify_structure(p, psection_poly(p))
        assert report["ok"], report
        assert report["leading"] == 2 ** (p - 1)
        assert report["x_coeff"] == (-1) ** ((p - 1) // 2) * p


def test_psection_matches_binomial_sum():
    """C_p rescaled against the double binomial sum for cos(p*t), at every
    odd prime p <= 151 and at the cap p = 601."""
    for p in (*primes_below(152)[1:], 601):
        assert psection_poly(p) == psection_binomial(p), p


def test_multiple_angle_identity_numeric():
    """Evaluating the a-free part at cos(t) reproduces cos(p*t)."""
    rng = random.Random(31)
    with mpmath.workprec(150):
        for p in ODD_PRIMES_TO_31:
            poly = psection_poly(p)
            for _ in range(100):
                t = mpmath.mpf(rng.random()) * 6 - 3
                got = poly.evaluate(mpmath.cos(t))
                assert abs(got - mpmath.cos(p * t)) < mpmath.mpf(10) ** -25


def test_trisection_bridge_exact():
    # doubling both variables in the cos-convention cubic gives the
    # 2cos-convention cubic: 2*P(x, a) = p(2x, 2a)
    lhs = psection_poly(3) * 2                   # 8x^3 - 6x
    rhs = IntPoly((0, -6, 0, 8))                 # (2x)^3 - 3*(2x)
    assert lhs == rhs


def test_nonsectability_certificates():
    cert = nonsectability_cert(3, 3, 4)
    assert cert.data["coeffs"] == ["-48", "-192", "0", "256"]
    assert cert.verify()
    assert eisenstein_check(IntPoly([int(c) for c in cert.data["coeffs"]]), 3)

    cert = nonsectability_cert(5, 5, 7)
    assert cert.verify()
    assert eisenstein_check(IntPoly([int(c) for c in cert.data["coeffs"]]), 5)

    with pytest.raises(BadParameters):
        nonsectability_cert(3, 9, 10)  # 9 divisible by p^2
    with pytest.raises(BadParameters):
        nonsectability_cert(3, 3, 6)   # gcd(c, dd) != 1
    with pytest.raises(BadParameters):
        nonsectability_cert(3, 6, 5)   # p^2 fine but |c/dd| > 1
    with pytest.raises(BadParameters):
        nonsectability_cert(5, 3, 4)   # p does not divide c


def test_cross_check_with_trisection_decision():
    """A cos-convention certificate at p = 3 for cos = c/dd forces the
    2cos-convention value 2c/dd to be refused."""
    for c, dd in ((3, 4), (3, 5), (-3, 4), (3, 7), (-3, 8), (6, 7), (-6, 7)):
        if abs(Fraction(2 * c, dd)) > 2:
            continue
        cert = nonsectability_cert(3, c, dd)
        assert cert.verify()
        assert not decide_trisection(Fraction(2 * c, dd)).member


@pytest.mark.parametrize(
    "tamper",
    [
        {"p": 3.0},
        {"p": True},
        {"p": 9},
        {"p": 2},
        {"p": 1},
        {"p": 0},
        {"p": -3},
        {"c": 3.0},
        {"dd": 4.0},
        {"dd": 0},
        {"coeffs": ("-48", "-192", "0", "256")},
        {"coeffs": [-48, -192, 0, 256]},
    ],
)
def test_psection_verifier_rejects_malformed_data(tamper):
    data = dict(nonsectability_cert(3, 3, 4).data)
    data.update(tamper)
    assert not Certificate("eisenstein-psection", data).verify()


# A bare package object stands in for trisectlab/__init__.py, which imports
# every module, so that only the imports of the modules named run.
BARE_PACKAGE = (
    "import importlib.util, sys, types\n"
    "package = types.ModuleType('trisectlab')\n"
    "package.__path__ = importlib.util.find_spec('trisectlab').submodule_search_locations\n"
    "sys.modules['trisectlab'] = package\n"
)


def _fresh_python(code: str) -> None:
    """Run code in a new interpreter that finds this trisectlab first."""
    src = os.path.dirname(os.path.dirname(trisectlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr


def test_psection_kind_needs_no_import_side_effect():
    """In a fresh interpreter that imports only trisect_core, the
    eisenstein-psection kind verifies; and polyalg, the home of the
    p-section polynomial, does not load trisect_core."""
    _fresh_python(
        "from trisectlab.trisect_core import Certificate\n"
        "data = {'p': 3, 'c': 3, 'dd': 4, 'coeffs': ['-48', '-192', '0', '256']}\n"
        "assert Certificate('eisenstein-psection', data).verify() is True\n"
    )
    _fresh_python(BARE_PACKAGE + "import trisectlab.polyalg\n"
                  "assert 'trisectlab.trisect_core' not in sys.modules, sorted(sys.modules)\n")


def test_exact_arith_and_polyalg_load_no_numpy():
    """With the same bare package, the exact arithmetic and the polynomial
    algebra import without numpy."""
    _fresh_python(BARE_PACKAGE + "import trisectlab.exact_arith, trisectlab.polyalg\n"
                  "assert 'numpy' not in sys.modules, sorted(sys.modules)\n")


def test_trisect_core_runs_on_integers_alone():
    """With the same bare package, trisect_core loads neither numpy,
    mpmath nor height_enum; a decide over Q(sqrt 2) and the verifiers of
    four certificate kinds then run without loading them either."""
    _fresh_python(
        BARE_PACKAGE
        + "import trisectlab.trisect_core as tc\n"
        "heavy = {'numpy', 'mpmath', 'trisectlab.height_enum'}\n"
        "assert not heavy & set(sys.modules), sorted(sys.modules)\n"
        "from trisectlab.exact_arith import quad_from_canonical, quadratic_field\n"
        "a = tc.apply_f(quad_from_canonical(1, 1, 2, 2))\n"
        "verdict = tc.decide_trisection(a, quadratic_field(2))\n"
        "assert verdict.member and tc.apply_f(verdict.witness) == a, verdict\n"
        "assert tc.eisenstein_cert_3rs(1, 4).verify()\n"
        "yates = dict(zip('kab', (7, *tc.yates_certificate(7))))\n"
        "assert tc.Certificate('yates-bezout', yates).verify()\n"
        "assert tc.square_family_check(40)['certificate'].verify()\n"
        "assert tc.nonsectability_cert(5, 5, 7).verify()\n"
        "assert not heavy & set(sys.modules), sorted(sys.modules)\n"
    )

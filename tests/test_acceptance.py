"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its runtime, and the same facts as one JSON line
{"criterion", "status", "elapsed_s", "limit_s"}, and running at the stated
tolerance."""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, log

import mpmath
import numpy as np

from oracles import coprime_count_table, rational_roots, sieve_count_table
from trisectlab.cli import main as cli_main
from trisectlab.coprime_count import Box, brute_count, sieve_count, zeta
from trisectlab.exact_arith import RATIONAL_FIELD, height, quadratic_field
from trisectlab.height_enum import (
    HeightBall,
    QBoxSpec,
    count_ball,
    density_experiment,
    enumerate_ball,
    gcd_bound_sweep,
    qbox,
    qbox_count,
    qbox_main_term,
)
from trisectlab.polyalg import IntPoly, is_prime, psection_poly, resultant_minpoly, verify_structure
from trisectlab.trisect_core import (
    F_CUBIC,
    decide_trisection,
    eisenstein_cert_3rs,
    nonconstructible_witness,
    nonsectability_cert,
    square_family_check,
)

QUAD_DS = (2, 3, 5, 6, 7)


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"{status} criterion {number:2d} [{elapsed:7.2f}s <= {limit_seconds}s] {description}")
        print(json.dumps({"criterion": number, "status": status,
                          "elapsed_s": round(elapsed, 4), "limit_s": limit_seconds}))
        if failed is None:
            assert elapsed < limit_seconds, f"criterion {number} overran {limit_seconds}s"


def test_criterion_01_wantzel_instance():
    with criterion(1, "the classic instance a = 1 is refused", 1.0):
        assert rational_roots(IntPoly((-1, -3, 0, 1))) == set()
        verdict = decide_trisection(1)
        assert verdict.member is False


def test_criterion_02_three_r_over_s_family():
    with criterion(2, "3r/s family refused with verifying certificates", 10.0):
        pairs = 0
        for s in range(1, 21):
            if s % 3 == 0:
                continue
            for r in range(-20, 21):
                if r == 0 or r % 3 == 0 or gcd(r, s) != 1 or 3 * abs(r) > 2 * s:
                    continue
                a = Fraction(3 * r, s)
                assert not decide_trisection(a).member, a
                assert eisenstein_cert_3rs(r, s).verify(), (r, s)
                pairs += 1
        assert pairs > 50


def test_criterion_03_square_family():
    with criterion(3, "no nonzero square of height <= 100 accepted", 10.0):
        report = square_family_check(100)
        assert report["falsifications"] == []
        assert report["checked"] > 0


def test_criterion_04_lehmer_counts():
    with criterion(4, "sieve equals enumeration; main-term bound at N=10^4", 60.0):
        rng = random.Random(42)
        for k in (2, 3, 4):
            floors = (40,) * k
            enum_table = coprime_count_table(floors)
            mobius_table_ = sieve_count_table(floors)
            assert np.array_equal(enum_table, mobius_table_)
            # op-level spot checks against the shared tables
            for _ in range(40):
                sub = tuple(rng.randint(1, 40) for _ in range(k))
                idx = tuple(s - 1 for s in sub)
                assert sieve_count(Box(sub)) == enum_table[idx]
            for _ in range(6):
                sub = tuple(rng.randint(1, 12) for _ in range(k))
                idx = tuple(s - 1 for s in sub)
                assert brute_count(Box(sub)) == enum_table[idx]
        for _ in range(200):
            k = rng.choice((2, 2, 3, 4))
            top = 259 if k < 4 else 120
            sides = tuple(Fraction(rng.randint(10, top), 10) for _ in range(k))
            box = Box(sides)
            assert sieve_count(box) == brute_count(box)
        N = 10 ** 4
        count = sieve_count(Box((N, N)))
        assert abs(count / N ** 2 - 1 / zeta(2)) <= 10 * log(N) / N


def test_criterion_05_ball_counts():
    with criterion(5, "ball count equals enumeration; asymptotic ratio", 60.0):
        heights = [height(x) for x in enumerate_ball(HeightBall(RATIONAL_FIELD, 60))]
        for R in range(1, 61):
            assert count_ball(HeightBall(RATIONAL_FIELD, R)) == sum(
                1 for h in heights if h <= R
            )
        for d in QUAD_DS:
            heights = [height(x) for x in enumerate_ball(HeightBall(quadratic_field(d), 25))]
            for R in range(1, 26):
                assert count_ball(HeightBall(quadratic_field(d), R)) == sum(
                    1 for h in heights if h <= R
                )
        ratio = count_ball(HeightBall(RATIONAL_FIELD, 10 ** 4)) * zeta(2) / (2 * 10.0 ** 8)
        assert 0.99 <= ratio <= 1.01


def test_criterion_06_qbox():
    with criterion(6, "sub-box membership exact to R=200; main term at 10^4", 60.0):
        for R in range(2, 201):
            report = qbox(QBoxSpec(RATIONAL_FIELD, R))
            assert report["exhaustive"] and report["membership_violations"] == 0
        spec = QBoxSpec(RATIONAL_FIELD, 10 ** 4)
        assert abs(qbox_count(spec) / qbox_main_term(spec) - 1) <= 0.03


def test_criterion_07_gcd_bound():
    with criterion(7, "image gcd divides 8d for every height <= 200", 120.0):
        for d in QUAD_DS:
            report = gcd_bound_sweep(d, 200)
            assert report["elements_checked"] > 10 ** 7
            assert (8 * d) % report["max_gcd"] == 0


def test_criterion_08_density_rational():
    with criterion(8, "rational density decays with slope about -4/3", 300.0):
        report = density_experiment(RATIONAL_FIELD, [100, 1000, 10000])
        assert -4 / 3 - 0.15 <= report.slope <= -4 / 3 + 0.15
        scaled = [p.delta * float(p.R) ** (4 / 3) for p in report.points]
        assert max(scaled) / min(scaled) <= 3


def test_criterion_09_density_quadratic():
    with criterion(9, "quadratic density decays with slope about -2", 900.0):
        for d in (2, 3):
            report = density_experiment(quadratic_field(d), [25, 50, 100, 200])
            assert -2 - 0.35 <= report.slope <= -2 + 0.35, (d, report.slope)
            scaled = [p.delta * float(p.R) ** 2 for p in report.points]
            assert max(scaled) / min(scaled) <= 4, (d, scaled)


def test_criterion_10_psection():
    with criterion(10, "multiple-angle structure to p=101; certificates", 10.0):
        for p in range(3, 102):
            if is_prime(p):
                assert verify_structure(p, psection_poly(p))["ok"], p
        assert nonsectability_cert(3, 3, 4).verify()
        assert nonsectability_cert(5, 5, 7).verify()
        assert psection_poly(3) * 2 == IntPoly((0, -6, 0, 8))


def test_criterion_11_degree_tower():
    from trisectlab.algdeg import angle_degree, cn_degree_check, identity_suite

    with criterion(11, "degrees 2^n and identity residuals below 2^-64", 30.0):
        for n in range(1, 9):
            assert cn_degree_check(n)["ok"], n
        for n in range(1, 11):
            assert angle_degree(1, 2 ** (n + 1)) == 2 ** (n - 1), n
        suite = identity_suite(10)
        assert suite["ok"]
        assert suite["max_width"] < 2.0 ** -64
        exact_records = [r for r in suite["records"] if r["method"] == "exact"]
        assert len(exact_records) == 16 and all(r["ok"] for r in exact_records)


def test_criterion_12_nonconstructible_witnesses():
    with criterion(12, "degree-5 and degree-7 accepted non-constructibles", 5.0):
        for m in (5, 7):
            cert = nonconstructible_witness(m, 2)
            poly = IntPoly([int(c) for c in cert.data["minpoly"]])
            assert poly.degree == m
            assert poly == resultant_minpoly(m, Fraction(2), F_CUBIC)
            with mpmath.workprec(600):
                beta = mpmath.power(2, mpmath.mpf(1) / m)
                residual = abs(poly.evaluate(beta ** 3 - 3 * beta))
                assert residual < mpmath.mpf(10) ** -20
            assert cert.verify()


def test_criterion_13_shard_determinism(tmp_path, capsys):
    with criterion(13, "density and lehmer outputs identical across shards", 300.0):
        density_files = []
        lehmer_files = []
        for shards in (1, 4, 8):
            dpath = tmp_path / f"density-{shards}.json"
            code = cli_main(
                ["density", "--field", "quad", "--d", "2", "--R", "10,20,40",
                 "--shards", str(shards), "--out", str(dpath)]
            )
            assert code == 0
            density_files.append(dpath.read_bytes())
            lpath = tmp_path / f"lehmer-{shards}.json"
            code = cli_main(
                ["lehmer", "--sides", "123.4,77,250", "--shards", str(shards),
                 "--out", str(lpath)]
            )
            assert code == 0
            lehmer_files.append(lpath.read_bytes())
        capsys.readouterr()
        assert density_files[0] == density_files[1] == density_files[2]
        assert lehmer_files[0] == lehmer_files[1] == lehmer_files[2]
        payload = json.loads(density_files[0])
        assert len(payload["points"]) == 3

"""The multiple-angle polynomial of an odd prime.

For an odd prime p the polynomial P(x, a) with P(cos t, cos pt) = 0 has
degree p, leading coefficient 2^(p-1), x-coefficient (-1)^((p-1)/2) * p,
and every non-leading coefficient divisible by p; Eisenstein at p then
certifies angles that cannot be p-sected.  That certificate,
``trisect_core.nonsectability_cert``, lives with the other certificate
kinds; this module imports nothing from ``trisect_core``.  Note the cos
convention here (not 2*cos): the bridge to the trisection cubic is
2*P(x, a) = p(2x, 2a).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import NotOddPrime
from .polyalg import IntPoly, is_prime


@dataclass(frozen=True)
class PsectionPoly:
    """The a-free part of P(x, a) for an odd prime p; P(x, a) itself is
    this polynomial minus the parameter a."""

    p: int
    q: int
    coeffs: IntPoly

    def with_parameter(self, num: int, den: int) -> IntPoly:
        """den^p * P(x, num/den) as an integer polynomial."""
        scaled = self.coeffs * (den ** self.p)
        return scaled - IntPoly.const(num * den ** (self.p - 1))


def psection_poly(p: int) -> PsectionPoly:
    """Expand the double binomial sum for cos(p*t) in powers of cos(t);
    the structural facts are asserted on construction."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    q = (p - 1) // 2
    coeffs = [0] * (p + 1)
    for k in range(q + 1):
        for ell in range(k + 1):
            sign = -1 if (k + ell) % 2 else 1
            coeffs[p - 2 * k + 2 * ell] += sign * comb(p, 2 * k) * comb(k, ell)
    poly = IntPoly(coeffs)
    pp = PsectionPoly(p=p, q=q, coeffs=poly)
    report = verify_structure(pp)
    if not report["ok"]:
        raise AssertionError(f"structural invariants failed for p={p}: {report}")
    return pp


def verify_structure(pp: PsectionPoly) -> dict:
    """Re-derive the three structural facts independently and compare:
    leading coefficient is the direct binomial sum over even lower indices
    (= 2^(p-1)), the x-coefficient is (-1)^q * p, and p divides every
    non-leading coefficient."""
    p, q, poly = pp.p, pp.q, pp.coeffs
    binom_sum = sum(comb(p, 2 * k) for k in range(q + 1))
    leading_ok = poly.degree == p and poly.leading == binom_sum == 2 ** (p - 1)
    x_coeff_ok = poly[1] == (-1) ** q * p
    divis_ok = all(c % p == 0 for c in poly.coeffs[:-1])
    return {
        "p": p,
        "leading": poly.leading,
        "binomial_sum": binom_sum,
        "x_coeff": poly[1],
        "leading_ok": leading_ok,
        "x_coeff_ok": x_coeff_ok,
        "divisibility_ok": divis_ok,
        "ok": leading_ok and x_coeff_ok and divis_ok,
    }

"""trisectlab: exact workbench for trisection numbers.

Decides, with witnesses or certificates, whether a = 2cos(angle) admits a
straightedge-and-compass trisection over the rationals or a real quadratic
field; enumerates and counts height balls; measures the density decay of
the accepted set; and generates re-verifiable irreducibility, n-section,
and algebraic-degree certificates.
"""

from types import ModuleType as _ModuleType

from .coprime_count import Box, CountReport, brute_count, lehmer_report, sieve_count
from .exact_arith import (
    FieldDescriptor,
    QuadElem,
    RATIONAL_FIELD,
    canonicalize,
    format_element,
    height,
    in_interval,
    parse_element,
    quadratic_field,
)
from .height_enum import (
    DensityReport,
    HeightBall,
    QBoxSpec,
    count_ball,
    count_ball_interval,
    density_experiment,
    enumerate_ball,
    enumerate_ball_interval,
    qbox,
)
from .polyalg import (
    IntPoly,
    RatPoly,
    chebyshev_like,
    cos_minimal_poly,
    cyclotomic,
    eisenstein_check,
    resultant_minpoly,
)
from .trisect_core import (
    Certificate,
    TrisectionVerdict,
    apply_f,
    decide_trisection,
    eisenstein_cert_3rs,
    nonconstructible_witness,
    preimage_bound,
    raw_image,
    square_family_check,
    yates_certificate,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are not part of it
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

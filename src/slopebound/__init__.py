"""Exact machinery for lower-bounding p-adic Newton polygons of lattice
operators: root-system tuple counts, Bernoulli power sums, convex
piecewise-linear lower profiles, exact Newton polygons, and the closed-form
slope-dimension bound m*alpha^s + n, all over arbitrary-precision rationals.
"""

from .bernoulli import RationalPolynomial, bernoulli_poly, faulhaber_sum, power_sum
from .bounds import (
    BoundParams,
    build_params,
    compare_h,
    compute_M,
    dimension_bound,
    infimum_dimension_bound,
    sharp_dimension_bound,
)
from .counting import ElemDivSeq, count_nh, count_nh_bruteforce, truncation_divisors
from .harness import (
    ChainReport,
    CorollaryReport,
    Instance,
    corrupt_instance,
    draw_b_seq,
    gen_instance,
    verify_chain,
    verify_corollary,
)
from .newton import (
    IntegerMatrix,
    NewtonPolygon,
    char_poly,
    check_lower_bound,
    matrix_newton_polygon,
    newton_polygon,
    slope_le_dimension,
)
from .plf import PiecewiseLinear, f_infinity, f_infinity_star, f_r, from_divisor_sequence
from .rootsystems import RootSystem, build_root_system, parse_label

__version__ = "0.1.0"

__all__ = [
    "BoundParams",
    "ChainReport",
    "CorollaryReport",
    "ElemDivSeq",
    "Instance",
    "IntegerMatrix",
    "NewtonPolygon",
    "PiecewiseLinear",
    "RationalPolynomial",
    "RootSystem",
    "bernoulli_poly",
    "build_params",
    "build_root_system",
    "char_poly",
    "check_lower_bound",
    "compare_h",
    "compute_M",
    "corrupt_instance",
    "count_nh",
    "count_nh_bruteforce",
    "dimension_bound",
    "draw_b_seq",
    "f_infinity",
    "f_infinity_star",
    "f_r",
    "faulhaber_sum",
    "from_divisor_sequence",
    "gen_instance",
    "infimum_dimension_bound",
    "matrix_newton_polygon",
    "newton_polygon",
    "parse_label",
    "power_sum",
    "sharp_dimension_bound",
    "slope_le_dimension",
    "truncation_divisors",
    "verify_chain",
    "verify_corollary",
]

"""Exact Newton polygons of integer matrices at a prime.

The polygon is the lower convex hull of (i, v_p(c_i)) over the
characteristic-polynomial coefficients; its segment slopes (with horizontal
multiplicity) are the p-adic valuations of the eigenvalues. Columns killed
by the operator show up as infinite slopes.
"""

from fractions import Fraction

from slopebound import (
    ElemDivSeq,
    IntegerMatrix,
    char_poly,
    check_lower_bound,
    from_divisor_sequence,
    newton_polygon,
    slope_le_dimension,
)

p = 2
matrix = IntegerMatrix((
    (4, 0, 2, 0),
    (8, 2, 0, 0),
    (0, 4, 8, 0),
    (4, 0, 0, 16),
))
coeffs = char_poly(matrix)
print(f"char poly coefficients: {coeffs}")

poly = newton_polygon(coeffs, p)
print(f"hull breakpoints: {list(poly.vertices)}")
print(f"slopes with multiplicity: {[(str(s), m) for s, m in poly.slopes()]}")
print(f"finite length {poly.finite_length}, infinite slopes {poly.infinite_slopes}")

for alpha in (0, 1, Fraction(3, 2), 2, 4):
    print(f"dimension with slope <= {alpha}: {slope_le_dimension(poly, alpha)}")

# a divisor profile the polygon must clear: columns divisible by p^(r-b_l)
bound = from_divisor_sequence(ElemDivSeq((2, 1, 1)), r=2, t=4)
print(f"\npolygon dominates the (2,1,1)-profile: {check_lower_bound(matrix, p, bound)}")

diag = IntegerMatrix.diagonal([1, 2, 4, 64])
print(f"diag(1,2,4,64) slopes at p=2: {[(str(s), m) for s, m in newton_polygon(char_poly(diag), 2).slopes()]}")

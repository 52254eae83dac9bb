"""Piecewise-linear functions over exact rationals.

A function is stored as breakpoints with strictly increasing x starting at
(0, 0) and non-negative values, optionally continued past the last breakpoint
by a ray of non-negative slope. The constructor enforces exactly that, not
convexity, and is where a caller's coordinate becomes a Fraction (from
anything Fraction() takes, "3/2" included). The named constructors produce
convex functions. All but one go through the constructor; from_divisor_sequence,
built once per instance by verify_chain, makes its Fractions itself and stores
them through the private Value._unchecked, which skips the checks.
Its points cannot break them: x runs over 0, 1, ..., t from (0, 0), and each
value adds r - e_l >= 0 to the last, as it refuses an exponent above r first.
Comparisons are decided exactly at merged breakpoints, which suffices for any
piecewise-linear functions, convex or not.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .bernoulli import faulhaber_sum, power_sum
from .counting import ElemDivSeq

__all__ = [
    "BadLength",
    "DomainTooShort",
    "ExponentExceedsR",
    "OutOfDomain",
    "PiecewiseLinear",
    "f_infinity",
    "f_infinity_star",
    "f_r",
    "from_divisor_sequence",
]

Point = tuple[Fraction, Fraction]


class ExponentExceedsR(ValueError):
    """A divisor exponent is larger than the truncation level r."""


class BadLength(ValueError):
    """Requested domain length is shorter than the divisor sequence."""


class OutOfDomain(ValueError):
    """Evaluation point outside the function's domain."""


class DomainTooShort(ValueError):
    """A comparison interval extends past a function's domain."""


def _check_anchored(points: tuple[tuple, ...]) -> None:
    """Refuse points that do not start at (0, 0), whose x do not strictly increase or whose y is negative."""
    if not points or points[0] != (0, 0):
        raise ValueError("first breakpoint must be (0, 0)")
    for (x0, _), (x1, _) in zip(points, points[1:]):
        if x1 <= x0:
            raise ValueError("breakpoint x-coordinates must be strictly increasing")
    if any(y < 0 for _, y in points):
        raise ValueError("values must be non-negative")


class PiecewiseLinear(Value):
    """Non-negative piecewise-linear function anchored at (0, 0)."""

    _fields = ("breakpoints", "final_slope")

    def __init__(self, breakpoints: tuple[Point, ...], final_slope: Fraction | None = None) -> None:
        pts = tuple((Fraction(x), Fraction(y)) for x, y in breakpoints)
        if final_slope is not None:
            final_slope = Fraction(final_slope)
        _check_anchored(pts)
        if final_slope is not None and final_slope < 0:
            raise ValueError("a final ray must have non-negative slope")
        super().__init__(pts, final_slope)

    @property
    def domain_end(self) -> Fraction | None:
        """Right end of the domain, or None when a final ray extends it."""
        if self.final_slope is not None:
            return None
        return self.breakpoints[-1][0]

    def defined_on(self, x_max: Fraction | int) -> bool:
        end = self.domain_end
        return end is None or end >= Fraction(x_max)

    def _value_from(self, i: int, x: Fraction) -> Fraction:
        """Value at x, given the index i of the last breakpoint at or left of x."""
        x0, y0 = self.breakpoints[i]
        if x == x0:
            return y0
        if i + 1 < len(self.breakpoints):
            x1, y1 = self.breakpoints[i + 1]
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return y0 + self.final_slope * (x - x0)

    def dominates(self, other: "PiecewiseLinear", x_max: Fraction | int) -> bool:
        """Whether self >= other everywhere on [0, x_max], decided exactly.

        Both functions are linear between consecutive points of the merged
        breakpoint list (0, x_max and every breakpoint below x_max), so one
        walk over that list comparing the two values decides it.
        """
        x_max = Fraction(x_max)
        if x_max < 0:
            raise ValueError("x_max must be non-negative")
        for fn in (self, other):
            if not fn.defined_on(x_max):
                raise DomainTooShort(f"function only defined up to {fn.domain_end}, need {x_max}")
        mine, theirs = self.breakpoints, other.breakpoints
        i = j = 0
        x = Fraction(0)
        while True:
            if self._value_from(i, x) < other._value_from(j, x):
                return False
            nxt = x_max
            if i + 1 < len(mine) and mine[i + 1][0] < nxt:
                nxt = mine[i + 1][0]
            if j + 1 < len(theirs) and theirs[j + 1][0] < nxt:
                nxt = theirs[j + 1][0]
            if nxt == x:
                return True
            x = nxt
            if i + 1 < len(mine) and mine[i + 1][0] == x:
                i += 1
            if j + 1 < len(theirs) and theirs[j + 1][0] == x:
                j += 1

    def agrees_with(self, other: "PiecewiseLinear", x_max: Fraction | int) -> bool:
        """Whether self == other everywhere on [0, x_max]."""
        return self.dominates(other, x_max) and other.dominates(self, x_max)

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [[str(x), str(y)] for x, y in self.breakpoints],
            "final_slope": None if self.final_slope is None else str(self.final_slope),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PiecewiseLinear":
        """Inverse of to_json_dict; ValueError for data of any other shape.

        Breakpoints are lists [x, y]; coordinates and slope are strings like
        "3/2" or integers, since a JSON float or true has no exact value.
        """
        try:
            points, slope = data["breakpoints"], data.get("final_slope")
            if type(points) is not list or any(type(pt) is not list or len(pt) != 2 for pt in points):
                raise TypeError("each breakpoint must be a list [x, y]")
            for value in [c for pt in points for c in pt] + ([] if slope is None else [slope]):
                if type(value) not in (str, int):  # excludes bool and float
                    raise TypeError(f"{value!r} is neither a string nor an integer")
            return cls(points, slope)
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"not a profile ({type(exc).__name__}: {exc})") from None


def from_divisor_sequence(seq: ElemDivSeq, r: int, t: int) -> PiecewiseLinear:
    """Profile through (j, C(j)) with C(j) = sum of (r - e_l) over l <= j.

    The sequence is padded with zero exponents up to length t, so the domain
    is [0, t]. Non-increasing exponents make the profile convex.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if any(e > r for e in seq.exponents):
        raise ExponentExceedsR(f"exponents {seq.exponents} exceed r = {r}")
    if t < len(seq):
        raise BadLength(f"t = {t} shorter than sequence length {len(seq)}")
    # x runs over 0..t and every r - e_l >= 0 by the checks above, so the points meet
    # PiecewiseLinear's checks by construction
    points = [(Fraction(0), Fraction(0))]
    total = 0
    for l, e in enumerate(seq.padded(t), start=1):
        total += r - e
        points.append((Fraction(l), Fraction(total)))
    return PiecewiseLinear._unchecked(tuple(points), None)


def f_r(system_s: int, g: int, r: int) -> PiecewiseLinear:
    """Convex ramp with slope j on the j-th interval of length g*(j+1)^(s-1), capped by a ray of slope r.

    Breakpoints sit at x_j = g * sum_{h<j} (h+1)^(s-1) for j = 0..r, summed in
    integers; f_infinity takes its x_j from the Bernoulli closed form, so their
    coincidence window checks one against the other.
    """
    if system_s < 1 or g < 1 or r < 1:
        raise ValueError("s, g, r must be positive")
    points = [(0, 0)]
    x = y = 0
    for j in range(r):
        width = g * (j + 1) ** (system_s - 1)
        x += width
        y += j * width
        points.append((x, y))
    return PiecewiseLinear(points, r)


def _ladder_x(system_s: int, g: int, j: int) -> Fraction:
    """x-coordinate shared by the j-th breakpoints of the two limit profiles."""
    return g * faulhaber_sum(system_s, j + 1)


def f_infinity(system_s: int, g: int, j_max: int) -> PiecewiseLinear:
    """Limit profile through (0,0) and the points P_j, truncated at j_max.

    P_j = (g * sum_{h<=j} (h+1)^(s-1), g * sum_{h<=j} h*(h+1)^(s-1)); the
    segment arriving at P_j has slope j.
    """
    if system_s < 1 or g < 1 or j_max < 1:
        raise ValueError("s, g, j_max must be positive")
    points = [(0, 0)]
    y = 0
    for j in range(j_max + 1):
        y += j * (j + 1) ** (system_s - 1)
        points.append((_ladder_x(system_s, g, j), g * y))
    return PiecewiseLinear(points)


def f_infinity_star(system_s: int, g: int, j_max: int) -> PiecewiseLinear:
    """Variant of f_infinity through the points Q_j, whose heights are Bernoulli power sums.

    Q_j shares its x-coordinate with P_j; its height is g * sum_{h<=j} h^s,
    never above the height of P_j.
    """
    if system_s < 1 or g < 1 or j_max < 1:
        raise ValueError("s, g, j_max must be positive")
    points = [(0, 0)]
    for j in range(j_max + 1):
        points.append((_ladder_x(system_s, g, j), g * power_sum(system_s, j)))
    return PiecewiseLinear(points)

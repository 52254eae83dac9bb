"""Synthetic operators satisfying the column-divisibility hypothesis, and
end-to-end verification of the dominance chain and the dimension bound.

Matrix entries come from a pure-Python port of numpy's PCG64 generator
(``_pcg64``), bit-identical to numpy's for every seed, so identical seeds
reproduce identical instances bit for bit. Column l of a generated matrix is
divisible by p^(r - b_l) (b padded with zeros), which realizes the sublattice
hypothesis in the basis where it is diagonal; Newton polygons only depend on
the characteristic polynomial, so this loses no generality.

A seed becomes an instance in one batched call per stream: ``draw_b_seq``
draws its whole b-sequence with one ``PCG64.bounded`` call, and
``gen_instance`` all t*t entries with one ``integers`` call, whose flat list
is cut into rows and scaled column by column with ``map(mul, ...)``. Every
stream is unchanged: a batch draws the same values, in the same order, as one
call per value.

No link of the chain walks merged breakpoints: links 2 and 3 are prefix sums
of exponent differences on the unit grid, and link 4 is a breakpoint identity.
``PiecewiseLinear.dominates`` keeps the merge walk for ``newton --bound`` and
``check_lower_bound``, whose bounds need not be convex.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from operator import mul, sub

from ._pcg64 import PCG64
from ._value import Value
from .bounds import BoundParams, build_params, dimension_bound, sharp_dimension_bound
from .counting import ElemDivSeq, _divisor_exponents
from .newton import IntegerMatrix, matrix_newton_polygon, slope_le_dimension
from .plf import f_infinity, f_r, from_divisor_sequence
from .rootsystems import RootSystem

__all__ = [
    "ChainReport",
    "CorollaryReport",
    "HypothesisViolation",
    "Instance",
    "corrupt_instance",
    "draw_b_seq",
    "gen_instance",
    "verify_chain",
    "verify_corollary",
]


class HypothesisViolation(ValueError):
    """The b-sequence is not coordinatewise below the divisor sequence."""


def _check_t_r(t: int, r: int) -> None:
    if t < 1 or r < 1:
        raise ValueError("t and r must be positive")


def _check_divisibility_data(t: int, r: int, b_seq: ElemDivSeq) -> None:
    """The checks on (t, r, b) that an Instance needs, made before anything is computed from them."""
    _check_t_r(t, r)
    if len(b_seq) > t:
        raise ValueError("b-sequence longer than t")
    if any(b > r for b in b_seq.exponents):
        raise ValueError("b exponents must not exceed r")


class Instance(Value):
    """One synthetic operator with its divisibility data; its size t is the matrix's."""

    _fields = ("p", "r", "b_seq", "matrix", "seed")

    def __init__(self, p: int, r: int, b_seq: ElemDivSeq, matrix: IntegerMatrix, seed: int) -> None:
        _check_divisibility_data(matrix.t, r, b_seq)
        super().__init__(p, r, b_seq, matrix, seed)

    @property
    def t(self) -> int:
        return self.matrix.t


def gen_instance(seed: int, p: int, t: int, r: int, b_seq: ElemDivSeq, entry_bound: int) -> Instance:
    """Deterministic instance from a seed: uniform entries in [-entry_bound, entry_bound],
    then column l scaled by p^(r - b_l)."""
    _check_divisibility_data(t, r, b_seq)
    if entry_bound < 1:
        raise ValueError("entry_bound must be positive")
    raw = PCG64(seed).integers(-entry_bound, entry_bound + 1, t * t)
    scales = [p ** (r - b) for b in b_seq.padded(t)]
    entries = tuple(tuple(map(mul, raw[i:i + t], scales)) for i in range(0, t * t, t))
    return Instance(p=p, r=r, b_seq=b_seq, matrix=IntegerMatrix(entries), seed=seed)


def corrupt_instance(inst: Instance) -> Instance:
    """Break the divisibility of the most-forced column by bumping its diagonal entry.

    With an empty b-sequence this provably drops the valuation of the trace
    to 0, so the dominance check must fail; for general b the corruption may
    go undetected.
    """
    # b is non-increasing, so the last column has the largest r - b_l
    l = inst.t - 1
    if inst.r - inst.b_seq.padded(inst.t)[l] < 1:
        raise ValueError("no column has forced divisibility; nothing to corrupt")
    rows = inst.matrix.entries
    bumped = rows[l][:l] + (rows[l][l] + 1,)
    matrix = IntegerMatrix(rows[:l] + (bumped,))
    return Instance(p=inst.p, r=inst.r, b_seq=inst.b_seq, matrix=matrix, seed=inst.seed)


def draw_b_seq(seed: int, system: RootSystem, g: int, r: int, t: int) -> ElemDivSeq:
    """Seeded b-sequence below the divisor sequence: b_l uniform in [0, a_l].

    Sorting non-increasing preserves the coordinatewise hypothesis because
    the a-sequence is itself non-increasing. Uses a stream separated from
    gen_instance's so matrices keep their documented seed contract.
    """
    _check_t_r(t, r)
    draws = PCG64([seed, 0xB]).bounded(_adjusted_divisors(system, g, r, t))
    draws.sort(reverse=True)
    return ElemDivSeq(tuple(filter(None, draws)))


@lru_cache(maxsize=256)
def _adjusted_divisors(system: RootSystem, g: int, r: int, t: int) -> tuple[int, ...]:
    """The first t divisor exponents, zero-padded to length exactly t; the rest are never built."""
    return tuple(islice(chain(_divisor_exponents(system, g, r), repeat(0)), t))


def _require_hypothesis(inst: Instance, a_adjusted: tuple[int, ...]) -> None:
    b_padded = inst.b_seq.padded(inst.t)
    if any(b > a for b, a in zip(b_padded, a_adjusted)):
        raise HypothesisViolation(
            f"b = {b_padded} is not coordinatewise below a = {a_adjusted}"
        )


class ChainReport(Value):
    """Outcome of the four dominance assertions for one instance."""

    _fields = (
        "newton_ge_fb", "fb_ge_fa", "fa_ge_fr", "fr_eq_finf_on_window",
        "polygon", "f_b", "f_a", "f_r", "f_inf",
    )

    @property
    def all_hold(self) -> bool:
        return self.newton_ge_fb and self.fb_ge_fa and self.fa_ge_fr and self.fr_eq_finf_on_window


class CorollaryReport(Value):
    """Slope-count versus closed-form bound for one instance and one alpha."""

    _fields = ("alpha", "dimension", "bound", "sharp_bound", "params")

    @property
    def holds(self) -> bool:
        ok = self.dimension <= self.bound
        if self.sharp_bound is not None:
            ok = ok and self.dimension <= self.sharp_bound
        return ok


# 256 holds every (type, g, r, t) of the acceptance grid (252 keys).
@lru_cache(maxsize=256)
def _chain_constants(system: RootSystem, g: int, r: int, t: int) -> tuple:
    """(a_adjusted, f_a, f_r, f_infinity, link 3, link 4): what verify_chain needs that depends
    only on (system, g, r, t).

    verify_chain's docstring gives the argument for links 3 and 4. Each run of f_r's exponents is
    capped at t, the most that link 3 reads; uncapped, repeat's count overflows at E8.
    """
    s = system.s
    a_adjusted = _adjusted_divisors(system, g, r, t)
    f_a = from_divisor_sequence(ElemDivSeq(tuple(e for e in a_adjusted if e > 0)), r, t)
    ramp_exponents = chain.from_iterable(repeat(r - j, min(t, g * (j + 1) ** (s - 1))) for j in range(r))
    fa_ge_fr = min(accumulate(map(sub, chain(ramp_exponents, repeat(0)), a_adjusted), initial=0)) >= 0
    ramp, limit = f_r(s, g, r), f_infinity(s, g, r)
    (x0, y0), (x1, y1) = limit.breakpoints[-2:]
    fr_eq_finf_on_window = (ramp.breakpoints == limit.breakpoints[:r + 1]
                            and y1 - y0 == ramp.final_slope * (x1 - x0))
    return a_adjusted, f_a, ramp, limit, fa_ge_fr, fr_eq_finf_on_window


def verify_chain(inst: Instance, system: RootSystem, g: int) -> ChainReport:
    """Check polygon >= f_b >= f_a >= f_r plus the f_r/f_infinity coincidence window.

    Only the first two links depend on the instance; links 3 and 4, with the
    profiles f_a, f_r and f_infinity, are computed once per (system, g, r, t).
    No link walks merged breakpoints.

    Link 1: the b-sequence is non-increasing, so f_b is convex and the
    polygon minus f_b is concave on each hull segment: the polygon dominates
    f_b exactly when its vertices do. Link 1 compares only those, each with
    f_b's breakpoint at the same integer x.

    Link 2: f_b and f_a both have a breakpoint at every integer of [0, t] and
    are linear in between, so f_b >= f_a exactly when C_b(j) - C_a(j), the
    prefix sum of a_l - b_l over l <= j, is non-negative for every j. The
    hypothesis guard requires b_l <= a_l for every l, so link 2 holds
    whenever the guard passes. The check still catches a guard that is
    bypassed or compares the wrong sequences. It is weaker than the guard:
    a b above a at some l passes it while no prefix sum of b exceeds a's.

    Link 3 is link 2's argument with f_r's exponents in place of a and a in
    place of b, since f_r breaks at integers too. It holds for every type:
    N_h <= (h+1)^(s-1), because the coefficients of all roots but one simple
    root fix that root's, so each run of a ends no later than f_r's run of
    the same exponent. It fails only on a wrong a-sequence.

    Link 4 is a breakpoint identity. The j-th breakpoint of f_r is P_(j-1),
    so f_r = f_infinity on [0, g*faulhaber_sum(s, r+1)], which ends at P_r,
    exactly when their first r+1 breakpoints are equal and P_r lies on f_r's
    ray. f_r sums its breakpoints directly and f_infinity takes its
    x-coordinates from the Bernoulli closed form, so this checks one against
    the other.
    """
    if g < 1:
        raise ValueError("g must be positive")
    a_adjusted, f_a, ramp, limit, fa_ge_fr, fr_eq_finf_on_window = _chain_constants(system, g, inst.r, inst.t)
    _require_hypothesis(inst, a_adjusted)
    f_b = from_divisor_sequence(inst.b_seq, inst.r, inst.t)
    polygon = matrix_newton_polygon(inst.matrix, inst.p)
    return ChainReport(
        newton_ge_fb=all(y >= f_b.breakpoints[x][1] for x, y in polygon.vertices),
        fb_ge_fa=min(accumulate(map(sub, a_adjusted, inst.b_seq.padded(inst.t)))) >= 0,
        fa_ge_fr=fa_ge_fr,
        fr_eq_finf_on_window=fr_eq_finf_on_window,
        polygon=polygon,
        f_b=f_b,
        f_a=f_a,
        f_r=ramp,
        f_inf=limit,
    )


# Keyed on alpha = num/den in lowest terms, so equal alphas of any type share one entry and a hit
# hashes and compares ints only. 64 holds every (s, g, alpha) of the corollary benchmark's grid
# (45 keys).
@lru_cache(maxsize=64)
def _bounds(s: int, g: int, num: int, den: int) -> tuple[Fraction, Fraction, Fraction | None, BoundParams]:
    """alpha = num/den as a Fraction, m*alpha^s + n, m*alpha^s once alpha >= M (else None) and the
    params they come from, which depend only on (s, g, alpha)."""
    alpha, params = Fraction(num, den), build_params(s, g)
    sharp = sharp_dimension_bound(params, alpha) if alpha >= params.M else None
    return alpha, dimension_bound(params, alpha), sharp, params


def verify_corollary(inst: Instance, system: RootSystem, g: int, alpha: Fraction | int) -> CorollaryReport:
    """Check slope_le_dimension <= m*alpha^s + n (and <= m*alpha^s once alpha >= M).

    alpha is read once as num/den in lowest terms: an int or a Fraction directly, any other type
    through Fraction(alpha), which raises on what is not a number. The sign is checked on num, and
    the report's alpha is the Fraction cached with the bounds, so a call whose bounds are cached
    builds, compares and hashes no Fraction.

    Only the slope count depends on the instance. It is slope_le_dimension on the memoized
    matrix_newton_polygon, so the polygon is computed once for all alphas of one matrix, and the
    count compares each edge of its int vertices with alpha by cross-multiplication. The bounds
    are computed once per (s, g, alpha).
    """
    num, den = (alpha if isinstance(alpha, (int, Fraction)) else Fraction(alpha)).as_integer_ratio()
    if num < 0:
        raise ValueError("alpha must be non-negative")
    a_adjusted = _adjusted_divisors(system, g, inst.r, inst.t)
    _require_hypothesis(inst, a_adjusted)
    alpha, bound, sharp, params = _bounds(system.s, g, num, den)
    dim = slope_le_dimension(matrix_newton_polygon(inst.matrix, inst.p), alpha)
    return CorollaryReport(alpha, dim, bound, sharp, params)

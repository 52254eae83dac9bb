"""Value semantics of the immutable types: equality, hashing, repr, immutability, pickling.

The repr literals were recorded from the frozen dataclasses these classes replace,
less the fields now derived rather than stored: RootSystem's heights and positive
roots (its heights come from the exponents of its type), Instance's t (the matrix's
size) and NewtonPolygon's finite_length (the hull's end). NewtonPolygon now stores
its vertices, as int pairs, where the dataclass held a PiecewiseLinear through them;
that profile is derived too (its polygon property).
"""

import copy
import pickle
from fractions import Fraction

import pytest

from slopebound.bernoulli import RationalPolynomial
from slopebound.bounds import BoundParams
from slopebound.counting import ElemDivSeq
from slopebound.harness import ChainReport, CorollaryReport, Instance, gen_instance
from slopebound.newton import IntegerMatrix, NewtonPolygon, newton_polygon
from slopebound.plf import PiecewiseLinear
from slopebound.rootsystems import RootSystem, build_root_system


def _params():
    return BoundParams(s=1, g=1, M=4, c_pow_s=Fraction(1, 16), m=Fraction(16), n=Fraction(6))


def _line():
    return PiecewiseLinear(((0, 0), (2, 1)))


# class name -> (factory building a fresh instance, repr of the former dataclass)
SAMPLES = {
    "RootSystem": (
        lambda: build_root_system("A", 2),
        "RootSystem(letter='A', rank=2)",
    ),
    "ElemDivSeq": (lambda: ElemDivSeq((2, 1, 1)), "ElemDivSeq(exponents=(2, 1, 1))"),
    "RationalPolynomial": (
        lambda: RationalPolynomial((Fraction(1, 2), 0, 1)),
        "RationalPolynomial(coefficients=(Fraction(1, 2), Fraction(0, 1), Fraction(1, 1)))",
    ),
    "PiecewiseLinear": (
        lambda: PiecewiseLinear(((0, 0), (1, Fraction(1, 2))), final_slope=3),
        "PiecewiseLinear(breakpoints=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(1, 2))), "
        "final_slope=Fraction(3, 1))",
    ),
    "IntegerMatrix": (lambda: IntegerMatrix(((1, 2), (3, 4))), "IntegerMatrix(entries=((1, 2), (3, 4)))"),
    "NewtonPolygon": (
        lambda: newton_polygon([1, 2, 4], 2),
        "NewtonPolygon(vertices=((0, 0), (2, 2)), infinite_slopes=0)",
    ),
    "BoundParams": (
        _params,
        "BoundParams(s=1, g=1, M=4, c_pow_s=Fraction(1, 16), m=Fraction(16, 1), n=Fraction(6, 1))",
    ),
    "Instance": (
        lambda: gen_instance(0, 2, 2, 1, ElemDivSeq((1,)), 5),
        "Instance(p=2, r=1, b_seq=ElemDivSeq(exponents=(1,)), matrix=IntegerMatrix(entries=((4, 4), (0, -6))), "
        "seed=0)",
    ),
    "ChainReport": (
        lambda: ChainReport(True, True, False, True, newton_polygon([1, 0], 2), _line(), _line(),
                            PiecewiseLinear(((0, 0), (1, 0)), final_slope=1), _line()),
        "ChainReport(newton_ge_fb=True, fb_ge_fa=True, fa_ge_fr=False, fr_eq_finf_on_window=True, "
        "polygon=NewtonPolygon(vertices=((0, 0),), infinite_slopes=1), "
        "f_b=PiecewiseLinear(breakpoints=((Fraction(0, 1), Fraction(0, 1)), (Fraction(2, 1), Fraction(1, 1))), "
        "final_slope=None), "
        "f_a=PiecewiseLinear(breakpoints=((Fraction(0, 1), Fraction(0, 1)), (Fraction(2, 1), Fraction(1, 1))), "
        "final_slope=None), "
        "f_r=PiecewiseLinear(breakpoints=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1))), "
        "final_slope=Fraction(1, 1)), "
        "f_inf=PiecewiseLinear(breakpoints=((Fraction(0, 1), Fraction(0, 1)), (Fraction(2, 1), Fraction(1, 1))), "
        "final_slope=None))",
    ),
    "CorollaryReport": (
        lambda: CorollaryReport(Fraction(1, 2), 1, Fraction(7), None, _params()),
        "CorollaryReport(alpha=Fraction(1, 2), dimension=1, bound=Fraction(7, 1), sharp_bound=None, "
        "params=BoundParams(s=1, g=1, M=4, c_pow_s=Fraction(1, 16), m=Fraction(16, 1), n=Fraction(6, 1)))",
    ),
}

NAMES = list(SAMPLES)


def make(name):
    value = SAMPLES[name][0]()
    assert type(value).__name__ == name
    return value


def fields(value):
    return {name: getattr(value, name) for name in value._fields}


@pytest.mark.parametrize("name", NAMES)
def test_equal_by_value_with_equal_hashes(name):
    a, b = make(name), make(name)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    rebuilt = type(a)(**fields(a))  # the constructor takes the fields by name
    assert rebuilt == a and hash(rebuilt) == hash(a)


@pytest.mark.parametrize("name", NAMES)
def test_rebuilt_positionally_or_by_name_equals_the_original(name):
    a = make(name)
    by_name = fields(a)
    positional = type(a)(*by_name.values())
    keyword = type(a)(**by_name)
    assert positional == a and keyword == a
    assert repr(positional) == repr(keyword) == repr(a)


@pytest.mark.parametrize("name", NAMES)
def test_missing_extra_unknown_or_duplicated_fields_raise(name):
    a = make(name)
    cls, by_name = type(a), fields(a)
    first, *rest = a._fields
    values = tuple(by_name.values())
    with pytest.raises(TypeError):  # missing (the first: PiecewiseLinear's last field has a default)
        cls(**{field: by_name[field] for field in rest})
    with pytest.raises(TypeError):  # extra
        cls(*values, None)
    with pytest.raises(TypeError):  # unknown
        cls(*values, bogus=None)
    with pytest.raises(TypeError):  # duplicated
        cls(*values, **{first: by_name[first]})


@pytest.mark.parametrize("name", NAMES)
def test_unequal_to_other_classes_and_tuples(name):
    a = make(name)
    for other in NAMES:
        if other != name:
            assert a != make(other)
    values = tuple(fields(a).values())
    assert a != values and values != a
    assert a != values[0]


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    a = make(name)
    before = repr(a)
    for field, value in fields(a).items():
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == before


@pytest.mark.parametrize("name", NAMES)
def test_repr_matches_the_former_dataclass(name):
    assert repr(make(name)) == SAMPLES[name][1]


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy_round_trip(name):
    a = make(name)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(a, protocol))
        assert type(restored) is type(a)
        assert restored == a and hash(restored) == hash(a) and repr(restored) == repr(a)
    duplicate = copy.deepcopy(a)
    assert duplicate is not a and duplicate == a and repr(duplicate) == repr(a)
    with pytest.raises(AttributeError):
        setattr(duplicate, a._fields[0], None)


def test_hash_serves_as_cache_key():
    assert len({build_root_system("E", 6), build_root_system("E", 6)}) == 1
    assert {IntegerMatrix(((1, 2), (3, 4))): 1}[IntegerMatrix([[1, 2], [3, 4]])] == 1


def test_matrix_entries_are_whatever_operator_index_accepts():
    np = pytest.importorskip("numpy")
    matrix = IntegerMatrix(((np.int64(3), True), (0, np.uint8(1))))
    assert matrix == IntegerMatrix(((3, 1), (0, 1)))
    assert all(type(entry) is int for row in matrix.entries for entry in row)


def test_exponents_and_rank_are_whatever_operator_index_accepts():
    np = pytest.importorskip("numpy")
    assert build_root_system("A", np.int64(2)) == build_root_system("A", 2)
    assert build_root_system("A", True).label == "A1"
    assert build_root_system("E", np.int32(6)) == build_root_system("E", 6)
    sequence = ElemDivSeq((np.int64(3), True))
    assert sequence == ElemDivSeq((3, 1)) and all(type(e) is int for e in sequence.exponents)


def _pl(*points, final_slope=None):
    return lambda: PiecewiseLinear(points, final_slope)


VALIDATION = {
    "root system E9": (lambda: RootSystem("E", 9), "no simple root system"),
    "exponent zero": (lambda: ElemDivSeq((2, 0)), "strictly positive"),
    "exponents increase": (lambda: ElemDivSeq((1, 2)), "non-increasing"),
    "exponent a float": (lambda: ElemDivSeq((2.5,)), "exponents must be integers"),
    "exponent a Fraction": (lambda: ElemDivSeq((Fraction(3, 2),)), "exponents must be integers"),
    "exponent a string": (lambda: ElemDivSeq(("3",)), "exponents must be integers"),
    "first breakpoint": (_pl((1, 0), (2, 1)), r"\(0, 0\)"),
    "breakpoints increase": (_pl((0, 0), (2, 1), (2, 3)), "strictly increasing"),
    "negative value": (_pl((0, 0), (1, -1)), "non-negative"),
    "negative ray": (_pl((0, 0), (1, 1), final_slope=-1), "non-negative slope"),
    "matrix empty": (lambda: IntegerMatrix(()), "square"),
    "matrix not square": (lambda: IntegerMatrix(((1, 2),)), "square"),
    "matrix entry a Fraction": (lambda: IntegerMatrix(((Fraction(3, 2),),)), "entries must be integers"),
    "matrix entry a float": (lambda: IntegerMatrix(((2.7,),)), "entries must be integers"),
    "polygon first vertex": (lambda: NewtonPolygon(((1, 0), (2, 1)), 0), r"\(0, 0\)"),
    "polygon vertices increase": (lambda: NewtonPolygon(((0, 0), (2, 1), (2, 3)), 0), "strictly increasing"),
    "polygon negative value": (lambda: NewtonPolygon(((0, 0), (1, -1)), 0), "non-negative"),
    "m times c^s": (lambda: BoundParams(1, 1, 4, Fraction(1, 16), Fraction(15), Fraction(6)), "1/c"),
    "negative n": (lambda: BoundParams(1, 1, 4, Fraction(1, 16), Fraction(16), Fraction(-1)), "M >= 1"),
    "M below 1": (lambda: BoundParams(1, 1, 0, Fraction(1, 16), Fraction(16), Fraction(6)), "M >= 1"),
    "instance b too long": (lambda: Instance(2, 2, ElemDivSeq((2, 1)), IntegerMatrix(((1,),)), 0), "longer than t"),
    "instance b above r": (lambda: Instance(2, 1, ElemDivSeq((2,)), IntegerMatrix(((1,),)), 0), "exceed r"),
}


@pytest.mark.parametrize("case", list(VALIDATION))
def test_validation_errors_still_fire(case):
    build, message = VALIDATION[case]
    with pytest.raises(ValueError, match=message):
        build()

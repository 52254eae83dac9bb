from collections import Counter

import pytest

from slopebound.rootsystems import InvalidType, RootSystem, build_root_system, parse_label


def cartan_matrix(letter, rank):
    """Cartan matrix with C[i][j] = 2(a_i, a_j)/(a_j, a_j), Bourbaki numbering.

    For a k-fold bond the entry is -k on the (long row, short column) side
    and -1 on the transposed one.
    """
    n = rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if letter in "ABC":
        for i in range(n - 1):
            bond(i, i + 1)
        if letter == "B":  # a_n short
            bond(n - 2, n - 1, -2, -1)
        elif letter == "C":  # a_n long
            bond(n - 2, n - 1, -1, -2)
    elif letter == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif letter == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (1, 3)):
            bond(i, j)
        for i in range(4, n - 1):
            bond(i, i + 1)
    elif letter == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)  # a_1, a_2 long; a_3, a_4 short
        bond(2, 3)
    elif letter == "G":
        bond(0, 1, -1, -3)  # a_1 short, a_2 long
    return C


def brute_force_closure(cartan):
    """Oracle: grow the positive-root set by simple roots using the root-string
    criterion (beta + a_i is a root iff back - <beta, a_i^v> >= 1, where back
    counts the steps beta - k*a_i stays a root), independently of the
    library's heights from the exponents."""
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    grew = True
    while grew:
        grew = False
        for beta in list(roots):
            for i in range(n):
                back = 0
                probe = list(beta)
                probe[i] -= 1
                while probe[i] >= 0 and tuple(probe) in roots:
                    back += 1
                    probe[i] -= 1
                pairing = sum(beta[j] * cartan[j][i] for j in range(n))
                if back - pairing >= 1:
                    up = list(beta)
                    up[i] += 1
                    if tuple(up) not in roots:
                        roots.add(tuple(up))
                        grew = True
    return roots


def test_a1_single_root():
    rs = build_root_system("A", 1)
    assert rs.s == 1
    assert rs.heights == (1,)


ORACLE_LABELS = [
    f"{letter}{rank}" for letter, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4)) for rank in range(low, 13)
] + ["E6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_against_closure_oracle(label):
    letter, rank = parse_label(label)
    roots = brute_force_closure(cartan_matrix(letter, rank))
    assert build_root_system(letter, rank).heights == tuple(sorted(map(sum, roots)))


@pytest.mark.parametrize("letter,rank,expected", [
    ("B", 2, (1, 1, 2, 3)),
    ("B", 3, (1, 1, 1, 2, 2, 3, 3, 4, 5)),
    ("C", 3, (1, 1, 1, 2, 2, 3, 3, 4, 5)),
    ("D", 4, (1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 5)),
    ("A", 2, (1, 1, 2)),
    ("G", 2, (1, 1, 2, 3, 4, 5)),
])
def test_small_height_multisets(letter, rank, expected):
    assert build_root_system(letter, rank).heights == expected


@pytest.mark.parametrize("rank", range(1, 13))
def test_type_a_count(rank):
    assert build_root_system("A", rank).s == rank * (rank + 1) // 2


@pytest.mark.parametrize("rank", range(2, 13))
def test_type_b_c_count(rank):
    assert build_root_system("B", rank).s == rank * rank
    assert build_root_system("C", rank).s == rank * rank


@pytest.mark.parametrize("rank", range(4, 13))
def test_type_d_count(rank):
    assert build_root_system("D", rank).s == rank * (rank - 1)


@pytest.mark.parametrize("label,expected", [("E6", 36), ("E7", 63), ("E8", 120), ("F4", 24), ("G2", 6)])
def test_exceptional_counts(label, expected):
    assert build_root_system(*parse_label(label)).s == expected


@pytest.mark.parametrize("label", ["A1", "A5", "B2", "B6", "C4", "D4", "D7", "E6", "E7", "E8", "F4", "G2"])
def test_height_profile(label):
    rs = build_root_system(*parse_label(label))
    counts = Counter(rs.heights)
    assert counts[1] == rs.rank
    profile = [counts.get(h, 0) for h in range(1, max(rs.heights) + 1)]
    assert all(a >= b for a, b in zip(profile, profile[1:]))
    assert all(c > 0 for c in profile)


def test_deterministic_ordering():
    first = build_root_system("F", 4)
    second = build_root_system("F", 4)
    assert first == second and hash(first) == hash(second)
    assert first.heights == second.heights
    assert list(first.heights) == sorted(first.heights)


def test_only_type_and_rank_are_stored():
    assert RootSystem._fields == ("letter", "rank")
    assert build_root_system("e", 8) == RootSystem("E", 8)
    assert hash(build_root_system("e", 8)) == hash(RootSystem("E", 8))
    assert build_root_system("B", 3) != build_root_system("C", 3)


def test_large_rank_from_the_exponents():
    rs = build_root_system("A", 1000)
    assert rs.s == 500500
    counts = Counter(rs.heights)
    assert counts[1] == rs.rank
    assert [counts[h] for h in range(1, 1001)] == list(range(1000, 0, -1))


def exponents(letter, rank):
    """The exponents m_1..m_n of a simple type (Humphreys, section 3.20, table 1)."""
    if letter == "A":
        return list(range(1, rank + 1))
    if letter in "BC":
        return list(range(1, 2 * rank, 2))
    if letter == "D":
        return [*range(1, 2 * rank - 2, 2), rank - 1]
    return {"E6": [1, 4, 5, 7, 8, 11], "E7": [1, 5, 7, 9, 11, 13, 17], "E8": [1, 7, 11, 13, 17, 19, 23, 29],
            "F4": [1, 5, 7, 11], "G2": [1, 5]}[f"{letter}{rank}"]


@pytest.mark.parametrize("letter,ranks", [
    ("A", range(1, 61)), ("B", range(2, 61)), ("C", range(2, 61)), ("D", range(4, 61)),
    ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,)),
])
def test_closed_forms_equal_the_counts_from_the_exponents(letter, ranks):
    for rank in ranks:
        ms = exponents(letter, rank)
        rs = build_root_system(letter, rank)
        assert rs.s == sum(ms)
        top = max(ms)
        for H in (0, 1, 2, rank // 2, top - 1, top, top + 5):
            assert rs.height_counts(H) == tuple(sum(m >= h for m in ms) for h in range(1, min(H, top) + 1))


@pytest.mark.parametrize("letter,rank", [
    ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("A", 0), ("B", 1), ("H", 4), ("Q", 2),
])
def test_invalid_types_rejected(letter, rank):
    with pytest.raises(InvalidType):
        build_root_system(letter, rank)
    with pytest.raises(InvalidType):
        RootSystem(letter, rank)


@pytest.mark.parametrize("letter,rank", [("a", 2), ("A", 2.0)])
def test_constructor_takes_an_upper_case_letter_and_an_int_rank(letter, rank):
    with pytest.raises(InvalidType):
        RootSystem(letter, rank)


def test_parse_label():
    assert parse_label("a3") == ("A", 3)
    assert parse_label("E8") == ("E", 8)
    with pytest.raises(InvalidType):
        parse_label("Q2")
    with pytest.raises(InvalidType):
        parse_label("A")

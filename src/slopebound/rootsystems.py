"""Positive-root data for the split simple types A-G.

Roots are enumerated from the Cartan matrix as the closure of the simple
roots under the simple reflections, each taken only where it raises a root.
Only the combinatorial shadow is kept: coefficient vectors over the simple
roots, from which the heights (coefficient sums) are derived.
"""

from __future__ import annotations

from operator import mul

from ._value import Value

__all__ = ["InvalidType", "RootSystem", "build_root_system", "cartan_matrix", "parse_label"]

VALID_LETTERS = "ABCDEFG"


class InvalidType(ValueError):
    """Raised for (letter, rank) pairs that do not name a simple root system."""


def _validate(letter: str, rank: int) -> None:
    ok = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 4,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(letter, False)
    if not ok:
        raise InvalidType(f"no simple root system of type {letter}{rank}")


def cartan_matrix(letter: str, rank: int) -> list[list[int]]:
    """Cartan matrix with C[i][j] = 2(a_i, a_j)/(a_j, a_j), Bourbaki numbering.

    For a k-fold bond the entry is -k on the (long row, short column) side
    and -1 on the transposed one.
    """
    _validate(letter, rank)
    n = rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
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


class RootSystem(Value):
    """Positive roots of a simple type, as coefficient vectors over simple roots."""

    _fields = ("letter", "rank", "positive_roots")

    @property
    def label(self) -> str:
        return f"{self.letter}{self.rank}"

    @property
    def s(self) -> int:
        """Number of positive roots."""
        return len(self.positive_roots)

    @property
    def heights(self) -> tuple[int, ...]:
        """Height (coefficient sum) of each positive root, in root order."""
        return tuple(map(sum, self.positive_roots))


def _positive_roots(cartan: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """All positive roots: the simple roots closed under each s_i that raises a root.

    s_i(beta) = beta - <beta, a_i^v> a_i. A positive non-simple beta has some
    <beta, a_i^v> > 0, making s_i(beta) a lower positive root whose pairing
    with a_i^v is negative, so induction on height reaches every beta.
    """
    n = len(cartan)
    columns = list(enumerate(zip(*cartan)))
    roots = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i, column in columns:
            pairing = sum(map(mul, beta, column))
            if pairing < 0:
                up = beta[:i] + (beta[i] - pairing,) + beta[i + 1:]
                if up not in roots:
                    roots.add(up)
                    frontier.append(up)
    return tuple(sorted(roots, key=lambda v: (sum(v), v)))


def build_root_system(letter: str, rank: int) -> RootSystem:
    """Build the positive-root system of a valid Dynkin type.

    Roots are ordered by (height, lexicographic coefficient vector), so the
    result is deterministic. Raises InvalidType for unsupported pairs.
    """
    letter = letter.upper()
    return RootSystem(letter, rank, _positive_roots(cartan_matrix(letter, rank)))


def parse_label(label: str) -> tuple[str, int]:
    """Split a combined label like 'A3' or 'g2' into (letter, rank)."""
    text = label.strip().upper()
    if len(text) < 2 or text[0] not in VALID_LETTERS or not text[1:].isdigit():
        raise InvalidType(f"cannot parse root-system label {label!r}")
    return text[0], int(text[1:])

"""Integer Smith normal form and solution counts mod l, kept as a test oracle.

Provides integer Smith normal form and exact counting of solutions of
homogeneous systems A x = 0 (mod l).  Every count the library published
before its own diagonal solve (census._solutions_mod) came from here, and
the tests check that solve, the orbit systems and the dense Burnside route
of dense_census against it.  Every modulus, prime or composite and of any
size, goes through the Smith normal form: its invariant factors are
computed over the integers and determine the solution count for every
modulus at once, so no fixed-width arithmetic is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

__all__ = [
    "IntMatrix",
    "SnfResult",
    "smith_normal_form",
    "count_solutions_mod",
]


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix with an explicit shape.

    The shape is stored separately so that matrices with zero rows or zero
    columns (which occur for one-vertex systems) round-trip cleanly.
    Entries are arbitrary-precision Python integers.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix shape must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for r, row in enumerate(self.entries):
            if len(row) != self.cols:
                raise ValueError(f"row {r} has {len(row)} entries, expected {self.cols}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Build a matrix from nested sequences; `cols` is required when there are no rows."""
        grid = tuple(tuple(int(v) for v in row) for row in rows)
        if cols is None:
            if not grid:
                raise ValueError("column count is ambiguous for an empty row list")
            cols = len(grid[0])
        return cls(len(grid), cols, grid)


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors d_1 | d_2 | ... | d_k, nonzero first, then zeros.

    The diagonal always has min(rows, cols) slots; trailing zeros stand for
    the rank deficiency of the matrix.
    """

    diagonal: tuple[int, ...]


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Invariant factors of an integer matrix, in divisibility order."""
    rows, cols = a.rows, a.cols
    slots = min(rows, cols)
    m = [list(row) for row in a.entries]
    divisors: list[int] = []
    t = 0
    while t < slots:
        pos = _smallest_nonzero(m, t, rows, cols)
        if pos is None:
            break
        while True:
            _move_pivot(m, t, pos)
            _reduce_cross(m, t, rows, cols)
            if _cross_clear(m, t, rows, cols):
                bad = _find_nondivisible(m, t, rows, cols)
                if bad is None:
                    break
                # fold the offending row into row t; the next reduction pass
                # produces a strictly smaller pivot, so this terminates
                for j in range(t, cols):
                    m[t][j] += m[bad][j]
            pos = _smallest_nonzero(m, t, rows, cols)

        divisors.append(abs(m[t][t]))
        t += 1
    divisors.extend(0 for _ in range(slots - len(divisors)))
    return SnfResult(tuple(divisors))


def _smallest_nonzero(m: list[list[int]], t: int, rows: int, cols: int) -> tuple[int, int] | None:
    best: tuple[int, int] | None = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = m[i][j]
            if v != 0 and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                best = (i, j)
    return best


def _move_pivot(m: list[list[int]], t: int, pos: tuple[int, int]) -> None:
    i, j = pos
    if i != t:
        m[i], m[t] = m[t], m[i]
    if j != t:
        for row in m:
            row[j], row[t] = row[t], row[j]


def _reduce_cross(m: list[list[int]], t: int, rows: int, cols: int) -> None:
    """One pass of remainder reduction of row t and column t by the pivot."""
    p = m[t][t]
    for i in range(t + 1, rows):
        q = m[i][t] // p
        if q:
            for j in range(t, cols):
                m[i][j] -= q * m[t][j]
    for j in range(t + 1, cols):
        q = m[t][j] // p
        if q:
            for i in range(t, rows):
                m[i][j] -= q * m[i][t]


def _cross_clear(m: list[list[int]], t: int, rows: int, cols: int) -> bool:
    return all(m[i][t] == 0 for i in range(t + 1, rows)) and all(
        m[t][j] == 0 for j in range(t + 1, cols)
    )


def _find_nondivisible(m: list[list[int]], t: int, rows: int, cols: int) -> int | None:
    p = m[t][t]
    for i in range(t + 1, rows):
        for j in range(t + 1, cols):
            if m[i][j] % p:
                return i
    return None


def count_solutions_mod(a: IntMatrix, modulus: int) -> int:
    """Exact number of x in (Z/modulus)^cols with A x = 0 (mod modulus).

    Computed as prod_i gcd(modulus, d_i) * modulus^(cols - slots) over the
    Smith diagonal (gcd(modulus, 0) = modulus, so each zero invariant
    factor contributes a full free coordinate).
    """
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    count = modulus ** (a.cols - min(a.rows, a.cols))
    for d in smith_normal_form(a).diagonal:
        count *= gcd(modulus, d)
    return count

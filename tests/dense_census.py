"""Dense Burnside route for both class counts, kept as a test oracle.

Each fixed-point count is a solution count of a system on all C(n, 2)
entry coordinates, built separately for switching classes and for
Eulerian classes.  The library counts both on a small generating set of
the column lattice of the σ-orbit system; these systems make no use of
orbits or of the duality between the two counts, so they check it
independently.  The σ-orbit system itself, with one column per orbit
variable, is kept here too: it reaches sizes the dense systems cannot, and
checks the lattice reduction there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from skewswitch import Permutation, cycle_types
from smith_oracle import IntMatrix, count_solutions_mod


def _pairs(size: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(size), 2))


def _exact_div(value: int, divisor: int, what: str) -> int:
    if value % divisor:
        raise RuntimeError(f"{what} is not divisible by {divisor}: {value}")
    return value // divisor


def _relabel_sources(size: int, sigma: Permutation) -> tuple[list[int], list[bool]]:
    """Per entry slot of the relabeled matrix, the source slot and whether it is negated.

    Slot (a, b) holds entry (inv a, inv b) of the original, negated when the
    preimage pair is in decreasing order.
    """
    inv = [0] * size
    for i, s in enumerate(sigma):
        inv[s - 1] = i
    index = {p: k for k, p in enumerate(_pairs(size))}
    pos, flip = [], []
    for a, b in _pairs(size):
        p, q = inv[a], inv[b]
        pos.append(index[(p, q) if p < q else (q, p)])
        flip.append(p > q)
    return pos, flip


@dataclass(frozen=True)
class FixedPointSystem:
    """Integer matrices describing one permutation's action on entry coordinates.

    Entry coordinates are the upper-triangle positions (i, j), i < j, in lex
    order.  `boundary` maps an entry coordinate to the difference of its two
    endpoint coordinates (its kernel mod l is the Eulerian condition),
    `switching` has as column v the entry change caused by switching at v
    (its image mod l is the set of pure switching differences), and `action`
    is the signed permutation matrix of the relabeling on entry coordinates.
    """

    size: int
    sigma: Permutation
    boundary: IntMatrix
    switching: IntMatrix
    action: IntMatrix


def cycle_permutation(size: int, parts: Sequence[int]) -> Permutation:
    """A permutation of 1..size with the given cycle lengths on consecutive blocks."""
    image = list(range(1, size + 1))
    start = 0
    for p in parts:
        for k in range(p):
            image[start + k] = start + 1 + (k + 1) % p
        start += p
    return tuple(image)


def _boundary_matrix(size: int) -> IntMatrix:
    npairs = size * (size - 1) // 2
    rows = [[0] * npairs for _ in range(size)]
    for k, (i, j) in enumerate(_pairs(size)):
        rows[i][k] = -1
        rows[j][k] = 1
    return IntMatrix.from_rows(rows, npairs)


def _switching_matrix(size: int) -> IntMatrix:
    npairs = size * (size - 1) // 2
    rows = [[0] * size for _ in range(npairs)]
    for k, (i, j) in enumerate(_pairs(size)):
        rows[k][i] = -1
        rows[k][j] = 1
    return IntMatrix.from_rows(rows, size)


def _action_matrix(size: int, sigma: Permutation) -> IntMatrix:
    pos, flip = _relabel_sources(size, sigma)
    npairs = len(pos)
    rows = [[0] * npairs for _ in range(npairs)]
    for k in range(npairs):
        rows[k][pos[k]] = -1 if flip[k] else 1
    return IntMatrix.from_rows(rows, npairs)


def fixed_point_system(size: int, sigma: Permutation) -> FixedPointSystem:
    """The three integer matrices whose joint solution counts drive both censuses."""
    if sorted(sigma) != list(range(1, size + 1)):
        raise ValueError(f"not a permutation of 1..{size}: {sigma}")
    return FixedPointSystem(
        size,
        tuple(sigma),
        _boundary_matrix(size),
        _switching_matrix(size),
        _action_matrix(size, sigma),
    )


def _minus_identity(a: IntMatrix) -> IntMatrix:
    rows = [list(row) for row in a.entries]
    for k in range(a.rows):
        rows[k][k] -= 1
    return IntMatrix.from_rows(rows, a.cols)


def _negated(a: IntMatrix) -> IntMatrix:
    return IntMatrix.from_rows([[-v for v in row] for row in a.entries], a.cols)


def _vstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} vs {b.cols}")
    return IntMatrix.from_rows(list(a.entries) + list(b.entries), a.cols)


def _hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ValueError(f"row mismatch: {a.rows} vs {b.rows}")
    rows = [list(ra) + list(rb) for ra, rb in zip(a.entries, b.entries)]
    return IntMatrix.from_rows(rows, a.cols + b.cols)


def eulerian_fixed(modulus: int, size: int, sigma: Permutation) -> int:
    """Eulerian matrices fixed by sigma: the stacked system (action - I; boundary)."""
    system = fixed_point_system(size, sigma)
    stacked = _vstack(_minus_identity(system.action), system.boundary)
    return count_solutions_mod(stacked, modulus)


def switching_fixed(modulus: int, size: int, sigma: Permutation) -> int:
    """Cosets of the switching image fixed by sigma.

    Solutions (x, a) of (action - identity) x = switching a are counted in
    one block system; dividing by the switching kernel size gives the number
    of x whose displacement is a switching difference, and dividing by the
    image size gives the number of fixed cosets.  All divisions must be exact.
    """
    system = fixed_point_system(size, sigma)
    kernel = count_solutions_mod(system.switching, modulus)
    image = _exact_div(modulus**size, kernel, "switching image size")
    block = _hstack(_minus_identity(system.action), _negated(system.switching))
    pairs = count_solutions_mod(block, modulus)
    lifted = _exact_div(pairs, kernel, "fixed-displacement count")
    return _exact_div(lifted, image, "fixed-coset count")


def _burnside(fixed, modulus: int, size: int) -> int:
    total = sum(
        ct.class_size * fixed(modulus, size, cycle_permutation(size, ct.parts))
        for ct in cycle_types(size)
    )
    return _exact_div(total, math.factorial(size), "Burnside sum")


def count_eulerian_classes(modulus: int, size: int) -> int:
    return _burnside(eulerian_fixed, modulus, size)


def count_switching_classes(modulus: int, size: int) -> int:
    return _burnside(switching_fixed, modulus, size)


def orbit_variable_system(parts: Sequence[int]) -> IntMatrix:
    """The σ-orbit system with one column per orbit variable and one row per cycle.

    A fixed matrix is constant on each orbit of ordered vertex pairs and
    negated on the reversed orbit, so it has one variable per {orbit,
    reversed orbit}.  On one cycle of length p the orbits are the offsets
    d = 1..p-1, and offset d reverses to p - d; the orbit at d = p/2 is its
    own reverse, which forces 2x = 0.  Between cycles of lengths p and q
    there are g = gcd(p, q) orbits, each reversing into the opposite block.
    Row sums are constant on each cycle, so the Eulerian condition is one
    row per cycle: offsets d and p - d cancel in it, and each orbit between
    two cycles is met q/g times from the first and -p/g times from the
    second.
    """
    columns: list[dict[int, int]] = []  # per variable: its coefficient in each cycle's row
    halves: list[int] = []  # variables of self-reversed orbits
    for a, p in enumerate(parts):
        for d in range(1, p // 2 + 1):
            if 2 * d == p:
                halves.append(len(columns))
                columns.append({a: 1})
            else:
                columns.append({})
        for b in range(a + 1, len(parts)):
            q = parts[b]
            g = math.gcd(p, q)
            columns.extend({a: q // g, b: -(p // g)} for _ in range(g))
    rows = [[2 if k == h else 0 for k in range(len(columns))] for h in halves]
    rows += [[column.get(a, 0) for column in columns] for a in range(len(parts))]
    return IntMatrix.from_rows(rows, len(columns))

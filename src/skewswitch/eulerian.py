"""Row-sum diagnostics and modular Eulerian forms of skew-symmetric matrices.

A matrix is modular Eulerian when every row sums to 0 mod l.  When the size
n is coprime to l, each pure-switching orbit contains exactly one such
matrix and `eulerize` constructs it directly from the row-sum profile; the
coprimality hypothesis is sharp, and `eulerian_in_orbit` exhibits the
failure cases (none or several Eulerian matrices in one orbit) exactly, by
listing the switchings that solve the row-sum conditions as an affine
coset: gcd(n, l)^(n-1) candidates rather than the l^(n-1) of the orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .errors import NotCoprimeError, ResourceGuardError
from .skewmat import AltMatrix, SwitchExponents, switch_many

__all__ = [
    "RowSumProfile",
    "is_modular_eulerian",
    "row_sum_profile",
    "eulerize",
    "eulerian_in_orbit",
    "ORBIT_GUARD",
]

# bounds the entries of the matrices eulerian_in_orbit returns, n^2 per matrix
ORBIT_GUARD = 10**7


@dataclass(frozen=True)
class RowSumProfile:
    """Row sums mod l plus the buckets U_k = {v : row sum of v equals k}."""

    sums: tuple[int, ...]
    buckets: tuple[tuple[int, ...], ...]


def _row_sums(m: AltMatrix) -> tuple[int, ...]:
    return tuple(sum(row) % m.modulus for row in m.entries)


def is_modular_eulerian(m: AltMatrix) -> bool:
    """True when every row of m sums to 0 mod l."""
    return all(s == 0 for s in _row_sums(m))


def row_sum_profile(m: AltMatrix) -> RowSumProfile:
    """Row sums and the partition of vertices by row sum (1-indexed)."""
    sums = _row_sums(m)
    buckets = tuple(
        tuple(v + 1 for v, s in enumerate(sums) if s == k) for k in range(m.modulus)
    )
    return RowSumProfile(sums, buckets)


def eulerize(m: AltMatrix) -> tuple[AltMatrix, SwitchExponents]:
    """The unique modular Eulerian matrix in the pure-switching orbit of m.

    Requires gcd(n, l) = 1.  With s the inverse of n mod l, switching s*k
    times at every vertex of bucket U_k clears all row sums at once.  The
    returned exponents are exactly these bucket values (not renormalized),
    so intermediate data of the construction can be inspected.
    """
    l, n = m.modulus, m.size
    if gcd(n, l) != 1:
        raise NotCoprimeError(
            f"size {n} and modulus {l} are not coprime; the orbit may contain "
            f"no Eulerian matrix or several (see eulerian_in_orbit)"
        )
    s = pow(n, -1, l)
    a = tuple((s * rs) % l for rs in _row_sums(m))
    return switch_many(m, a), a


def _eulerian_coset(m: AltMatrix) -> tuple[list[range], int, int]:
    """Choices for a_2..a_n, the target of sum(a) mod l, and the number of hits.

    See eulerian_in_orbit; the choices are empty when there are no hits.
    """
    l, n = m.modulus, m.size
    sums = _row_sums(m)
    g = gcd(n, l)
    if any((r - sums[0]) % g for r in sums[1:]):
        return [], 0, 0
    step = l // g
    inverse = pow(n // g, -1, step)
    starts = [(r - sums[0]) // g * inverse % step for r in sums[1:]]
    target = -sums[0] % l
    if (target - sum(starts)) % step:
        return [], 0, 0
    # g^(n-2) hits, or one when n = 1 (and so g = 1)
    hits = g ** (n - 1) // g
    return [range(start, l, step) for start in starts], target, hits


def eulerian_in_orbit(m: AltMatrix) -> list[AltMatrix]:
    """All modular Eulerian matrices among the pure switchings of m.

    Constants act trivially, so exponent vectors with a_1 = 0 cover the
    orbit once, each matrix exactly once.  With r the row sums, switching
    by a leaves row sum r_i + sum(a) - n a_i at vertex i, so the Eulerian
    members solve

        n a_i = r_i - r_1 (mod l) for i >= 2,   and   sum(a) = -r_1 (mod l).

    With g = gcd(n, l), each a_i has g solutions, spaced l/g apart, when g
    divides r_i - r_1 and none otherwise.  That coset holds g^(n-1)
    candidates a_i = b_i + k_i l/g with 0 <= k_i < g, and
    sum(a) = sum(b) + (l/g) sum(k).  So the sum condition needs l/g to
    divide -r_1 - sum(b), and then it fixes sum(k) mod g: any k_2..k_{n-1}
    with one k_n each.  The hits number either 0 or g^(n-2), known before
    anything is listed.  ORBIT_GUARD bounds the hits times their n^2
    entries; since g <= n, that also bounds the candidates, which are g
    times the hits.  The hits are sorted lexicographically by entries.
    """
    n = m.size
    choices, target, hits = _eulerian_coset(m)
    if not hits:
        return []
    if hits * n * n > ORBIT_GUARD:
        g = gcd(n, m.modulus)
        raise ResourceGuardError(
            f"switching coset of size {g}^{n - 1} = {g ** (n - 1)} holds {hits} Eulerian "
            f"matrices of {n}x{n} entries, over the guard {ORBIT_GUARD}"
        )
    found = [
        switch_many(m, (0, *rest))
        for rest in itertools.product(*choices)
        if sum(rest) % m.modulus == target
    ]
    return sorted(found, key=lambda mm: mm.entries)

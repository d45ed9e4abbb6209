"""Exact counts of switching classes and of Eulerian isomorphism classes.

The two counts are equal for every modulus and size (the duality argument
is in count_switching_classes), so one Burnside sum serves both.  It is
grouped by cycle type, so size n costs one solve per partition of n, and
each solve is small: one variable per pair of mutually reversed orbits of
vertex pairs, one row per self-reversed orbit and one per vertex cycle.
Solutions are counted mod l through the Smith normal form
(count_solutions_mod), so prime and composite moduli of any size take the
same exact route.  A brute-force census over all matrices doubles as an
independent oracle at small sizes and produces canonical class
representatives.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceGuardError
from .modlinalg import IntMatrix, count_solutions_mod
from .skewmat import AltMatrix

__all__ = [
    "BRUTE_GUARD",
    "EULERIAN_ENUM_GUARD",
    "REFERENCE_TABLES",
    "CycleType",
    "CensusResult",
    "cycle_types",
    "count_eulerian_classes",
    "count_switching_classes",
    "brute_force_census",
    "enumerate_eulerian_representatives",
]

# largest number of matrices the full brute-force census will enumerate
BRUTE_GUARD = 10**8
# largest number of Eulerian matrices the representative listing will enumerate
EULERIAN_ENUM_GUARD = 10**7
# entry tuples are deduplicated through base-l integer encodings; they must fit in int64
_ENCODE_LIMIT = 1 << 62
_CHUNK = 1 << 18

# published class counts for n = 1, 2, ...; "classes" rows are OEIS A002854
# and A240973, the "eulerian" row lists isomorphism classes at modulus 4
REFERENCE_TABLES: dict[tuple[int, str], tuple[int, ...]] = {
    (2, "classes"): (1, 1, 2, 3, 7, 16, 54, 243, 2038, 33120, 1182004),
    (3, "classes"): (1, 1, 2, 4, 14, 120, 3222, 271287, 64154817, 41653775052, 74220906305025),
    (4, "eulerian"): (1, 1, 3, 8, 62, 1760),
}


@dataclass(frozen=True)
class CycleType:
    """Cycle lengths of a conjugacy class of permutations, with its size."""

    parts: tuple[int, ...]
    class_size: int

    def __post_init__(self) -> None:
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError(f"cycle lengths must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"cycle lengths must be nonincreasing: {self.parts}")


@dataclass(frozen=True)
class CensusResult:
    """Exact class counts for one modulus and size, with optional representatives."""

    modulus: int
    size: int
    switching_classes: int
    eulerian_classes: int
    representatives: tuple[AltMatrix, ...] | None = None


def _check_args(modulus: int, size: int) -> None:
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")


def _partitions(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for k in range(min(n, cap), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def cycle_types(size: int) -> tuple[CycleType, ...]:
    """All cycle types of permutations of 1..size with conjugacy class sizes."""
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    out = []
    for parts in _partitions(size, size):
        centralizer = 1
        for length, mult in Counter(parts).items():
            centralizer *= length**mult * math.factorial(mult)
        out.append(CycleType(parts, math.factorial(size) // centralizer))
    return tuple(out)


def _pairs(size: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(size), 2))


def _pair_action(size: int, inv: Sequence[int]) -> tuple[list[int], list[bool]]:
    """Source position and sign flip per entry slot for one relabeling.

    Slot (a, b) of the relabeled matrix holds entry (inv a, inv b) of the
    original, negated when the preimage pair is in decreasing order.
    """
    pairs = _pairs(size)
    index = {p: k for k, p in enumerate(pairs)}
    pos, flip = [], []
    for a, b in pairs:
        p, q = inv[a], inv[b]
        pos.append(index[(p, q) if p < q else (q, p)])
        flip.append(p > q)
    return pos, flip


def _triple_action(size: int, inv: Sequence[int]) -> tuple[list[int], list[bool]]:
    """Same as _pair_action for triple-sum slots; the sign is the preimage parity."""
    trips = list(itertools.combinations(range(size), 3))
    index = {t: k for k, t in enumerate(trips)}
    pos, flip = [], []
    for a, b, c in trips:
        p = (inv[a], inv[b], inv[c])
        inversions = sum(p[x] > p[y] for x in range(3) for y in range(x + 1, 3))
        pos.append(index[tuple(sorted(p))])
        flip.append(inversions % 2 == 1)
    return pos, flip


def _inverse0(sigma0: Sequence[int]) -> list[int]:
    inv = [0] * len(sigma0)
    for i, s in enumerate(sigma0):
        inv[s] = i
    return inv


def _exact_div(value: int, divisor: int, what: str) -> int:
    if value % divisor:
        raise RuntimeError(f"{what} is not divisible by {divisor}: {value}")
    return value // divisor


def _orbit_system(parts: Sequence[int]) -> IntMatrix:
    """System whose solutions mod l are the Eulerian matrices fixed by cycle type `parts`.

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


def count_eulerian_classes(modulus: int, size: int) -> int:
    """Number of isomorphism classes of Eulerian matrices (all row sums zero mod l).

    Burnside's lemma over cycle types: the Eulerian matrices fixed by a
    relabeling are the solutions mod l of its orbit system, counted through
    the Smith normal form.
    """
    _check_args(modulus, size)
    total = sum(
        ct.class_size * count_solutions_mod(_orbit_system(ct.parts), modulus)
        for ct in cycle_types(size)
    )
    return _exact_div(total, math.factorial(size), "Burnside sum")


def count_switching_classes(modulus: int, size: int) -> int:
    """Number of switching classes of skew matrices (switchings plus relabelings).

    Always equal to count_eulerian_classes, one relabeling at a time.  Let E
    be the entry space, S: (Z/l)^n -> E the switching map and B = S^T the
    boundary map, whose kernel is the Eulerian condition.  Switching classes
    are the relabeling orbits on Q = E / Im S.  Relabelings act on E by
    signed permutations, which preserve the standard pairing, and under that
    pairing ker B is the annihilator of Im S: the Pontryagin dual of Q as a
    module over each relabeling g.  On a finite abelian group
    |ker(g - 1)| = |coker(g - 1)|, and the fixed points of g on the dual are
    the dual of coker(g - 1), so g fixes as many points of Q as of ker B and
    the two Burnside sums agree term by term.  For l = 2 this is Mallows and
    Sloane's theorem that switching classes of graphs and Euler graphs are
    equal in number.
    """
    return count_eulerian_classes(modulus, size)


def _relabel_tables(size: int, with_triples: bool) -> list[tuple[np.ndarray, ...]]:
    tables = []
    for sigma0 in itertools.permutations(range(size)):
        inv = _inverse0(sigma0)
        pos2, flip2 = _pair_action(size, inv)
        entry = (np.array(pos2, dtype=np.int64), np.array(flip2, dtype=bool))
        if with_triples:
            pos3, flip3 = _triple_action(size, inv)
            entry += (np.array(pos3, dtype=np.int64), np.array(flip3, dtype=bool))
        tables.append(entry)
    return tables


def _encode_weights(modulus: int, length: int) -> np.ndarray:
    return np.array([modulus ** (length - 1 - k) for k in range(length)], dtype=np.int64)


def _min_relabel_encoding(
    x: np.ndarray, tables, which: slice, weights: np.ndarray, modulus: int
) -> np.ndarray:
    """Per row of x, the smallest base-l encoding over all relabelings."""
    best: np.ndarray | None = None
    for table in tables:
        pos, flip = table[which]
        cand = x[:, pos]
        cand = np.where(flip, (modulus - cand) % modulus, cand)
        enc = cand @ weights
        best = enc if best is None else np.minimum(best, enc)
    assert best is not None
    return best


def _decode_matrix(encoding: int, modulus: int, size: int) -> AltMatrix:
    npairs = size * (size - 1) // 2
    grid = [[0] * size for _ in range(size)]
    rest = int(encoding)
    for k, (i, j) in enumerate(_pairs(size)):
        weight = modulus ** (npairs - 1 - k)
        v = rest // weight
        rest %= weight
        grid[i][j] = v
        grid[j][i] = (-v) % modulus
    return AltMatrix(modulus, size, tuple(tuple(row) for row in grid))


def _row_sum_columns(size: int) -> np.ndarray:
    # column v of the result, applied to entry vectors, is the row sum at v
    npairs = size * (size - 1) // 2
    cols = np.zeros((npairs, size), dtype=np.int64)
    for k, (i, j) in enumerate(_pairs(size)):
        cols[k][i] = 1
        cols[k][j] = -1
    return cols


def brute_force_census(modulus: int, size: int) -> CensusResult:
    """Enumerate every skew matrix and count classes by canonical-form dedup.

    Switching classes are deduplicated on the lex-least relabeled triple
    tensor, Eulerian isomorphism classes on the lex-least relabeled entry
    tuple; the Eulerian representatives are returned in that canonical
    form, lex-sorted.  Independent of the Burnside route by construction.
    """
    _check_args(modulus, size)
    npairs = size * (size - 1) // 2
    total = modulus**npairs
    if total > BRUTE_GUARD:
        raise ResourceGuardError(
            f"brute-force census needs {total} matrices, over the bound {BRUTE_GUARD}"
        )
    ntrips = math.comb(size, 3)
    trips = list(itertools.combinations(range(size), 3))
    pair_index = {p: k for k, p in enumerate(_pairs(size))}
    first = np.array([pair_index[(i, j)] for i, j, h in trips], dtype=np.int64)
    second = np.array([pair_index[(j, h)] for i, j, h in trips], dtype=np.int64)
    closing = np.array([pair_index[(i, h)] for i, j, h in trips], dtype=np.int64)
    tables = _relabel_tables(size, with_triples=True)
    entry_weights = _encode_weights(modulus, npairs)
    triple_weights = _encode_weights(modulus, ntrips)
    row_sum_cols = _row_sum_columns(size)
    class_codes: set[int] = set()
    iso_codes: set[int] = set()
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        entries = (idx[:, None] // entry_weights) % modulus
        triples = (entries[:, first] + entries[:, second] - entries[:, closing]) % modulus
        class_codes.update(
            _min_relabel_encoding(triples, tables, slice(2, 4), triple_weights, modulus).tolist()
        )
        eulerian = entries[((entries @ row_sum_cols) % modulus == 0).all(axis=1)]
        if eulerian.shape[0]:
            iso_codes.update(
                _min_relabel_encoding(eulerian, tables, slice(0, 2), entry_weights, modulus).tolist()
            )
    reps = tuple(_decode_matrix(e, modulus, size) for e in sorted(iso_codes))
    return CensusResult(modulus, size, len(class_codes), len(iso_codes), reps)


def enumerate_eulerian_representatives(modulus: int, size: int) -> list[AltMatrix]:
    """One canonical representative per isomorphism class of Eulerian matrices.

    Eulerian matrices are parametrized directly: the entries among vertices
    2..n are free and the first row is forced by the zero-row-sum condition,
    so only l^C(n-1,2) matrices are visited instead of l^C(n,2).  Output is
    in canonical form (lex-least relabeling), lex-sorted.
    """
    _check_args(modulus, size)
    free = (size - 1) * (size - 2) // 2
    total = modulus**free
    if total > EULERIAN_ENUM_GUARD:
        raise ResourceGuardError(
            f"listing needs {total} Eulerian matrices, over the bound {EULERIAN_ENUM_GUARD}"
        )
    npairs = size * (size - 1) // 2
    if modulus**npairs > _ENCODE_LIMIT:
        raise ResourceGuardError(
            f"entry encodings for modulus {modulus}, size {size} overflow 62-bit integers"
        )
    pair_index = {p: k for k, p in enumerate(_pairs(size))}
    free_cols = np.array(
        [pair_index[(i, j)] for i, j in _pairs(size) if i >= 1], dtype=np.int64
    )
    # first row: entry (1, j) is the sum of row j over vertices 2..n
    completions = []
    for j in range(1, size):
        terms = []
        for k in range(1, size):
            if k != j:
                terms.append((pair_index[(j, k)], 1) if j < k else (pair_index[(k, j)], -1))
        completions.append((pair_index[(0, j)], terms))
    tables = _relabel_tables(size, with_triples=False)
    entry_weights = _encode_weights(modulus, npairs)
    free_weights = _encode_weights(modulus, free)
    iso_codes: set[int] = set()
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        free_entries = (idx[:, None] // free_weights) % modulus
        entries = np.zeros((len(idx), npairs), dtype=np.int64)
        entries[:, free_cols] = free_entries
        for col, terms in completions:
            acc = np.zeros(len(idx), dtype=np.int64)
            for c, sign in terms:
                acc += sign * entries[:, c]
            entries[:, col] = acc % modulus
        iso_codes.update(
            _min_relabel_encoding(entries, tables, slice(0, 2), entry_weights, modulus).tolist()
        )
    return [_decode_matrix(e, modulus, size) for e in sorted(iso_codes)]

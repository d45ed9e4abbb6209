"""Exact counts of switching classes and of Eulerian isomorphism classes.

The two counts are equal for every modulus and size (the duality argument
is in count_switching_classes), so one Burnside sum serves both.  It is
grouped by cycle type, so size n costs one solve per partition of n.  A
relabeling's fixed Eulerian matrices are the solutions of its orbit system
(one variable per pair of mutually reversed orbits of vertex pairs, one row
per self-reversed orbit and one per vertex cycle), and that count depends
only on the lattice spanned by the system's columns.  So each solve runs
on a small generating set of that lattice, with one row per distinct cycle
length and one per even cycle (see _orbit_system).  Solutions are counted
mod l through the Smith normal form (count_solutions_mod), so prime and
composite moduli of any size take the same exact route.

At small sizes brute_force_census recounts both without Burnside and
enumerate_eulerian_representatives lists the Eulerian classes, both on one
walk over the l^C(n-1,2) matrices with a zero first row (ENUM_GUARD bounds
it times n!).  They import numpy when called; the counts do not, so
importing this module does not load numpy.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import ResourceGuardError
from .modlinalg import IntMatrix, count_solutions_mod
from .skewmat import AltMatrix

if TYPE_CHECKING:
    import numpy

__all__ = [
    "COUNT_GUARD",
    "ENUM_GUARD",
    "REFERENCE_TABLES",
    "CycleType",
    "CensusResult",
    "cycle_types",
    "count_eulerian_classes",
    "count_switching_classes",
    "brute_force_census",
    "enumerate_eulerian_representatives",
]

# Both enumerations walk the l^C(n-1,2) matrices whose first row is zero and
# compare each under all n! relabelings, so one guard bounds that product.
ENUM_GUARD = 10**8
# The counts solve one system per cycle type, p(n) of them, at a few thousand
# per second: p(35) = 14883 takes about 3 s, and the bound admits n <= 45.
COUNT_GUARD = 10**5
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


def _check_cycle_types(size: int, bound: int) -> None:
    """Refuse when size has more than `bound` cycle types (partitions of size).

    The partition numbers p(1), p(2), ... come from Euler's pentagonal
    recurrence p(m) = sum over k >= 1 of (-1)^(k+1) (p(m - k(3k-1)/2) +
    p(m - k(3k+1)/2)).  They increase, so the walk stops at the first one
    over the bound, within a few dozen steps however large the size.
    """
    p = [1]
    for m in range(1, size + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - g]
            if g + k <= m:
                total += sign * p[m - g - k]
            k += 1
        if total > bound:
            raise ResourceGuardError(
                f"size {size} has more than {bound} cycle types (p({m}) = {total}), one system each"
            )
        p.append(total)


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


def _orbit_system(parts: Sequence[int]) -> tuple[IntMatrix, int]:
    """Lattice generators and a free exponent for the Eulerian matrices fixed by cycle type `parts`.

    A fixed matrix is constant on each orbit of ordered vertex pairs and
    negated on the reversed orbit, so it has one variable per {orbit,
    reversed orbit}.  On one cycle of length p the orbits are the offsets
    d = 1..p-1, and offset d reverses to p - d; the orbit at d = p/2 is its
    own reverse, which forces 2x = 0.  Between cycles of lengths p and q
    there are g = gcd(p, q) orbits, each reversing into the opposite block.
    Row sums are constant on each cycle, so the Eulerian condition is one
    row per cycle: offsets d and p - d cancel in it, and each orbit between
    two cycles is met q/g times from the first and -p/g times from the
    second.  That system A has V variables and R rows, one per cycle and
    one per even cycle's half orbit.

    Its solution count mod l depends only on the Z-span L of its columns:
    |ker A mod l| = l^V / |Im A mod l|, and Im A mod l = (L + lZ^R) / lZ^R.
    So any generating set G of L gives the same count, as
    l^(V - |G|) * |ker G mod l|.  Three steps shrink G.  The columns of
    offsets d != p/2 are zero and are dropped.  The g columns between two
    cycles are equal, and one is kept.  Two cycles a, b of equal length
    give the generator e_a - e_b, which spans the kernel of the map that
    merges rows a and b; merging them leaves Z^R / L unchanged and removes
    one row and that generator from the system, while |G| in the exponent
    still counts the generator.  What is left has one row per distinct cycle
    length and one per even cycle, and its columns are 2 e_h + e_p for each
    even cycle's half orbit h and (q/g) e_p - (p/g) e_q for each pair of
    distinct lengths.  The identity becomes a 1 x 0 system.  Returned are
    that system and the exponent V - |G|, with one generator counted per
    merge, so the fixed count is l^exponent times the system's solution
    count mod l.
    """
    mult = Counter(parts)
    lengths = list(mult)
    row = {p: k for k, p in enumerate(lengths)}
    evens = [p for p in parts if p % 2 == 0]
    columns = [{len(lengths) + h: 2, row[p]: 1} for h, p in enumerate(evens)]
    # V: offsets 1..p/2 within each cycle, gcd(p, q) between each pair of cycles
    variables = sum(m * (p // 2) + m * (m - 1) // 2 * p for p, m in mult.items())
    for k, p in enumerate(lengths):
        for q in lengths[k + 1 :]:
            g = math.gcd(p, q)
            variables += mult[p] * mult[q] * g
            columns.append({row[p]: q // g, row[q]: -(p // g)})
    merged = len(parts) - len(lengths)
    rows = [[column.get(r, 0) for column in columns] for r in range(len(lengths) + len(evens))]
    return IntMatrix.from_rows(rows, len(columns)), variables - merged - len(columns)


def _fixed_eulerian(parts: Sequence[int], modulus: int) -> int:
    """Eulerian matrices mod `modulus` fixed by a relabeling of cycle type `parts`."""
    system, free = _orbit_system(parts)
    return modulus**free * count_solutions_mod(system, modulus)


def count_eulerian_classes(modulus: int, size: int) -> int:
    """Number of isomorphism classes of Eulerian matrices (all row sums zero mod l).

    Burnside's lemma over cycle types: the Eulerian matrices fixed by a
    relabeling are counted on the column lattice of its orbit system,
    through the Smith normal form.  Sizes with more than COUNT_GUARD cycle
    types are refused with ResourceGuardError.
    """
    _check_args(modulus, size)
    _check_cycle_types(size, COUNT_GUARD)
    total = sum(ct.class_size * _fixed_eulerian(ct.parts, modulus) for ct in cycle_types(size))
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


def _relabel_tables(np, size: int, with_triples: bool) -> list[tuple[numpy.ndarray, ...]]:
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


def _encode_weights(np, modulus: int, length: int) -> numpy.ndarray:
    return np.array([modulus ** (length - 1 - k) for k in range(length)], dtype=np.int64)


def _min_relabel_encoding(
    np, x: numpy.ndarray, tables, which: slice, weights: numpy.ndarray, modulus: int
) -> numpy.ndarray:
    """Per row of x, the smallest base-l encoding over all relabelings."""
    best: numpy.ndarray | None = None
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


def _check_enumeration(what: str, modulus: int, size: int) -> None:
    """Refuse when the l^C(n-1,2) walked matrices times n! relabelings exceed ENUM_GUARD.

    The product is built one factor at a time and every factor is at least
    2, so a refusal takes at most about log2(ENUM_GUARD) steps however large
    the request.  The entry and triple-sum encodings must fit in 62 bits.
    """
    _check_args(modulus, size)
    exponent = (size - 1) * (size - 2) // 2
    work = 1
    for factor in itertools.chain(itertools.repeat(modulus, exponent), range(2, size + 1)):
        work *= factor
        if work > ENUM_GUARD:
            raise ResourceGuardError(
                f"{what} needs {modulus}^{exponent} matrices times {size}! relabelings, "
                f"over the bound {ENUM_GUARD}"
            )
    if modulus ** max(math.comb(size, 2), math.comb(size, 3)) > _ENCODE_LIMIT:
        raise ResourceGuardError(f"encodings for modulus {modulus}, size {size} overflow 62-bit integers")


def _eulerian_map(np, size: int) -> numpy.ndarray:
    """Entries among vertices 2..n to all entries, with the first row that zeroes every row sum.

    Entry (1, j) is the sum of row j over vertices 2..n; row 1 then sums to
    zero too, since all row sums add up to zero.  The pairs among vertices
    2..n are the last C(n-1,2) in lex order.
    """
    pairs = _pairs(size)
    index = {p: k for k, p in enumerate(pairs)}
    out = np.zeros((len(pairs), len(pairs)), dtype=np.int64)
    for j, k in pairs[size - 1 :]:
        out[index[(j, k)], [index[(j, k)], index[(0, j)], index[(0, k)]]] = (1, 1, -1)
    return out[size - 1 :]


def _triple_map(np, size: int) -> numpy.ndarray:
    """Entries among vertices 2..n to the triple sums m_ij + m_jh - m_ih of the matrix with zero first row."""
    index = {p: k for k, p in enumerate(_pairs(size))}
    out = np.zeros((len(index), math.comb(size, 3)), dtype=np.int64)
    for t, (i, j, h) in enumerate(itertools.combinations(range(size), 3)):
        out[[index[(i, j)], index[(j, h)], index[(i, h)]], t] = (1, 1, -1)
    return out[size - 1 :]


def _walk_codes(np, modulus: int, linear_map: numpy.ndarray, tables, which: slice) -> set[int]:
    """Least relabeled encodings of x @ linear_map mod l, in chunks of x over all entries among vertices 2..n."""
    free_weights = _encode_weights(np, modulus, linear_map.shape[0])
    weights = _encode_weights(np, modulus, linear_map.shape[1])
    total = modulus ** linear_map.shape[0]
    codes: set[int] = set()
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        x = ((idx[:, None] // free_weights) % modulus) @ linear_map % modulus
        codes.update(_min_relabel_encoding(np, x, tables, which, weights, modulus).tolist())
    return codes


def brute_force_census(modulus: int, size: int) -> CensusResult:
    """Both class counts by enumeration, with the Eulerian representatives.

    A matrix whose first row is zero is its own isolation at vertex 1, so
    the walk meets each pure-switching orbit once; triple sums are constant
    on an orbit, and their least relabeled encodings count the switching
    classes.  The Eulerian count and representatives are those of
    enumerate_eulerian_representatives, walked first with the same tables.
    Independent of the Burnside route by construction.
    """
    _check_enumeration("brute-force census", modulus, size)
    import numpy as np

    tables = _relabel_tables(np, size, with_triples=True)
    iso_codes = _walk_codes(np, modulus, _eulerian_map(np, size), tables, slice(0, 2))
    classes = len(_walk_codes(np, modulus, _triple_map(np, size), tables, slice(2, 4)))
    reps = tuple(_decode_matrix(e, modulus, size) for e in sorted(iso_codes))
    return CensusResult(modulus, size, classes, len(reps), reps)


def enumerate_eulerian_representatives(modulus: int, size: int) -> list[AltMatrix]:
    """One canonical representative per isomorphism class of Eulerian matrices.

    The entries among vertices 2..n are free and the first row is forced by
    the zero-row-sum condition, so each Eulerian matrix is visited once,
    l^C(n-1,2) in all.  Output is in canonical form (lex-least
    relabeling), lex-sorted.
    """
    _check_enumeration("listing", modulus, size)
    import numpy as np

    tables = _relabel_tables(np, size, with_triples=False)
    iso_codes = _walk_codes(np, modulus, _eulerian_map(np, size), tables, slice(0, 2))
    return [_decode_matrix(e, modulus, size) for e in sorted(iso_codes)]

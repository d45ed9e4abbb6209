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
mod l on a diagonal form of that system, reached by unimodular row and
column operations over the integers (_solutions_mod); the count needs no
Smith divisibility chain, so prime and composite moduli of any size take
the same exact route on plain lists.

At small sizes brute_force_census recounts both without Burnside and
enumerate_eulerian_representatives lists the Eulerian classes, on one
orbit walk (_orbit_walk).  A matrix's code is the base-l number whose
digits are its entries above the diagonal, row by row, so codes order
matrices row-major.  The walk scans the l^C(n-1,2) codes of the entries
among vertices 2..n in order.  From each code not yet marked it generates
the whole orbit, marks the code of every image, and keeps the least.

- The listing completes a code to the Eulerian matrix whose first row
  comes from the row sums, so each Eulerian matrix has exactly one code.
  Its orbit is its n! relabelings; relabeling keeps a matrix Eulerian, so
  every image is in the walked set, and the least image is the class's
  canonical_iso_form.
- The census also reads a code as the matrix x with a zero first row.  Its
  orbit is relabel(isolate(x, u), sigma) over every vertex u and every
  sigma with sigma(u) = 1: isolate(x, u) has a zero row u, and sigma moves
  it to row 1, so every image again has a zero first row.  If x' = relabel(
  switch_many(x, a), tau) also has a zero first row, it is its own
  isolation at vertex 1, which is relabel(isolate(x, u), tau) for
  u = tau^-1(1).  So the orbits are the switching classes, met once each,
  and the least image is the class's canonical_class_form.

ENUM_GUARD (defined in skewmat, where it also bounds the searches) bounds
the work: the codes scanned plus n! images per orbit, for each walk, plus
the n^2 entries of each representative kept.  All runs on the standard library.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import ResourceGuardError
from .skewmat import ENUM_GUARD, AltMatrix

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

# cycle_types refuses sizes with more than this many partitions, so the counts,
# which solve one system per cycle type, do too: p(35) = 14883 takes about 2 s,
# and the bound admits n <= 45.
COUNT_GUARD = 10**5

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
    """All cycle types of permutations of 1..size with conjugacy class sizes.

    Sizes with more than COUNT_GUARD cycle types are refused with
    ResourceGuardError before any is built.
    """
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    _check_cycle_types(size, COUNT_GUARD)
    out = []
    for parts in _partitions(size, size):
        centralizer = 1
        for length, mult in Counter(parts).items():
            centralizer *= length**mult * math.factorial(mult)
        out.append(CycleType(parts, math.factorial(size) // centralizer))
    return tuple(out)


def _pairs(size: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(size), 2))


def _exact_div(value: int, divisor: int, what: str) -> int:
    if value % divisor:
        raise RuntimeError(f"{what} is not divisible by {divisor}: {value}")
    return value // divisor


def _orbit_system(parts: Sequence[int]) -> tuple[list[list[int]], int]:
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
    return rows, variables - merged - len(columns)


def _least_entry(m: list[list[int]], t: int) -> tuple[int, int] | None:
    """Position of the first nonzero entry of least size in rows and columns t onward."""
    best, size = None, 0
    for i in range(t, len(m)):
        row = m[i]
        for j in range(t, len(row)):
            v = abs(row[j])
            if v and (best is None or v < size):
                best, size = (i, j), v
    return best


def _solutions_mod(rows: list[list[int]], modulus: int) -> int:
    """Number of x in (Z/modulus)^cols with rows . x = 0 (mod modulus).

    Unimodular row and column operations bring the system A to a diagonal
    D = PAQ.  No divisibility chain among the diagonal entries is needed,
    as a Smith normal form would have: x -> Q^-1 x is a bijection mod l
    and P is invertible mod l, so A and D have the same number of
    solutions mod l.  D x = 0 has gcd(l, d) solutions per diagonal entry d,
    with gcd(l, 0) = l, and l per column past the diagonal.  Each step
    moves the least nonzero entry to the pivot and reduces the pivot's row
    and column by it, until the pivot is the least entry left: then its
    row and column are clear.  `rows` holds at least one row, which gives
    the column count, as every system from _orbit_system does.
    """
    m = [row[:] for row in rows]
    cols = len(m[0])
    count, free = 1, cols
    for t in range(min(len(m), cols)):
        pos = _least_entry(m, t)
        if pos is None:
            break
        while True:
            i, j = pos
            m[i], m[t] = m[t], m[i]
            for row in m:
                row[j], row[t] = row[t], row[j]
            pivot = m[t]
            p = pivot[t]
            for row in m[t + 1 :]:
                q = row[t] // p
                if q:
                    for k in range(t, cols):
                        row[k] -= q * pivot[k]
            for k in range(t + 1, cols):
                q = pivot[k] // p
                if q:
                    for row in m[t:]:
                        row[k] -= q * row[t]
            if (pos := _least_entry(m, t)) == (t, t):
                break
        count *= math.gcd(modulus, m[t][t])
        free -= 1
    return modulus**free * count


def _fixed_eulerian(parts: Sequence[int], modulus: int) -> int:
    """Eulerian matrices mod `modulus` fixed by a relabeling of cycle type `parts`."""
    rows, free = _orbit_system(parts)
    return modulus**free * _solutions_mod(rows, modulus)


def count_eulerian_classes(modulus: int, size: int) -> int:
    """Number of isomorphism classes of Eulerian matrices (all row sums zero mod l).

    Burnside's lemma over cycle types: the Eulerian matrices fixed by a
    relabeling are counted on the column lattice of its orbit system, by
    bringing it to a diagonal form.  Sizes with more than COUNT_GUARD cycle
    types are refused with ResourceGuardError, by cycle_types.
    """
    _check_args(modulus, size)
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


def _decode_matrix(code: int, modulus: int, size: int) -> AltMatrix:
    """The matrix whose entries above the diagonal, row by row, are the base-l digits of code."""
    grid = [[0] * size for _ in range(size)]
    for i, j in reversed(_pairs(size)):
        code, v = divmod(code, modulus)
        grid[i][j], grid[j][i] = v, (-v) % modulus
    return AltMatrix(modulus, size, tuple([tuple(row) for row in grid]))


def _check_enumeration(what: str, modulus: int, size: int, walks: int) -> int:
    """Refuse when `walks` orbit walks would take more than ENUM_GUARD steps, else count the orbits.

    A walk scans the l^C(n-1,2) codes and computes n! images per orbit; the
    count_eulerian_classes orbits, returned, are also kept as n^2 entries
    each.  The codes are counted first, one factor at a time, so a huge
    request is refused within log2(ENUM_GUARD) steps, before anything is counted.
    """
    _check_args(modulus, size)
    exponent = (size - 1) * (size - 2) // 2
    codes = 1
    for _ in range(exponent):
        codes *= modulus
        if walks * codes > ENUM_GUARD:
            raise ResourceGuardError(
                f"{what} scans {modulus}^{exponent} codes per walk in {walks} walk(s), "
                f"over the bound {ENUM_GUARD}"
            )
    orbits = count_eulerian_classes(modulus, size)
    work = walks * (codes + orbits * math.factorial(size)) + orbits * size * size
    if work > ENUM_GUARD:
        raise ResourceGuardError(
            f"{what} needs {work} steps: {size}^2 entries for each of {orbits} orbits kept, and {walks} walk(s) "
            f"of {codes} codes and {orbits} orbits of {size}! relabelings, over the bound {ENUM_GUARD}"
        )
    return orbits


def _relabelings(size: int) -> list[tuple[int, list[int]]]:
    """Per relabeling sigma, the preimage of vertex 1 and where each slot of the image comes from.

    Slot (a, b) of relabel(x, sigma) holds entry (inv a, inv b) of x.  Read
    from the entry vector v of x followed by its negation, that is index k
    of the pair when inv a < inv b and k + C(n,2) otherwise.
    """
    pairs = _pairs(size)
    index = {p: k for k, p in enumerate(pairs)}
    out = []
    for inv in itertools.permutations(range(size)):
        source = [
            index[(inv[a], inv[b])] if inv[a] < inv[b] else len(pairs) + index[(inv[b], inv[a])]
            for a, b in pairs
        ]
        out.append((inv[0], source))
    return out


def _image_codes(modulus: int, entries: list[int], sources: list[list[int]], weights: list[int]) -> list[int]:
    """Base-l codes of the relabelings of the matrix with entry vector `entries`, one per source list."""
    get = (entries + [(-e) % modulus for e in entries]).__getitem__
    return [sum(map(operator.mul, map(get, source), weights)) for source in sources]


def _orbit_walk(modulus: int, size: int, images: Callable[[list[int]], list[int]]) -> list[int]:
    """Least image code of each orbit met by the walk, in increasing order.

    The walk scans the codes of the entries among vertices 2..n in order,
    skipping every code already marked.  images(x) lists the codes of a
    whole orbit from its member with those entries x; each image is
    marked by its last C(n-1,2) digits, which are its entries among
    vertices 2..n.
    """
    free = (size - 1) * (size - 2) // 2
    total = modulus**free
    seen = bytearray(total)
    least = []
    code = 0
    while code >= 0:
        x, rest = [0] * free, code
        for k in range(free - 1, -1, -1):
            rest, x[k] = divmod(rest, modulus)
        orbit = images(x)
        for c in orbit:
            seen[c % total] = 1
        least.append(min(orbit))
        code = seen.find(0, code + 1)
    least.sort()
    return least


def _eulerian_walk(modulus: int, size: int, relabelings: list[tuple[int, list[int]]]) -> list[int]:
    # slot (1, j) is the sum of row j over vertices 2..n, so every row sums to zero
    npairs = size * (size - 1) // 2
    weights = [modulus ** (npairs - 1 - k) for k in range(npairs)]
    sources = [source for _, source in relabelings]
    free_pairs = _pairs(size)[size - 1 :]

    def images(x: list[int]) -> list[int]:
        first = [0] * size
        for (j, k), e in zip(free_pairs, x):
            first[j] += e
            first[k] -= e
        return _image_codes(modulus, [e % modulus for e in first[1:]] + x, sources, weights)

    return _orbit_walk(modulus, size, images)


def _isolated_entries(modulus: int, grid: list[list[int]], u: int, pairs: list[tuple[int, int]]) -> list[int]:
    """Entry vector of isolate(x, u), whose entry (i, j) is x_ij + x_ui - x_uj."""
    row = grid[u]
    return [(grid[i][j] + row[i] - row[j]) % modulus for i, j in pairs]


def _class_walk(modulus: int, size: int, relabelings: list[tuple[int, list[int]]]) -> list[int]:
    # images relabel(isolate(x, u), sigma) with sigma(u) = 1 keep the first row
    # zero, so their codes need only the slots among vertices 2..n
    npairs = size * (size - 1) // 2
    weights = [modulus ** (npairs - 1 - k) for k in range(size - 1, npairs)]
    by_vertex = [[source[size - 1 :] for u0, source in relabelings if u0 == u] for u in range(size)]
    pairs = _pairs(size)

    def images(x: list[int]) -> list[int]:
        grid = [[0] * size for _ in range(size)]
        for (i, j), e in zip(pairs[size - 1 :], x):
            grid[i][j], grid[j][i] = e, -e
        out = []
        for u, sources in enumerate(by_vertex):
            out += _image_codes(modulus, _isolated_entries(modulus, grid, u, pairs), sources, weights)
        return out

    return _orbit_walk(modulus, size, images)


def brute_force_census(modulus: int, size: int) -> CensusResult:
    """Both class counts by enumeration, with the Eulerian representatives.

    The switching classes are the orbits of the class walk (see the module
    docstring); the Eulerian count and representatives are those of
    enumerate_eulerian_representatives.  Independent of the Burnside route
    by construction.
    """
    _check_enumeration("brute-force census", modulus, size, walks=2)
    relabelings = _relabelings(size)
    reps = tuple(_decode_matrix(c, modulus, size) for c in _eulerian_walk(modulus, size, relabelings))
    classes = len(_class_walk(modulus, size, relabelings))
    return CensusResult(modulus, size, classes, len(reps), reps)


def enumerate_eulerian_representatives(modulus: int, size: int) -> list[AltMatrix]:
    """One canonical representative per isomorphism class of Eulerian matrices.

    The entries among vertices 2..n are free and the first row is forced by
    the zero-row-sum condition, so each Eulerian matrix is visited once,
    l^C(n-1,2) in all.  Output is in canonical form (lex-least
    relabeling), lex-sorted.  The walk must meet as many classes as the
    Burnside count that sized it, or RuntimeError is raised.
    """
    orbits = _check_enumeration("listing", modulus, size, walks=1)
    codes = _eulerian_walk(modulus, size, _relabelings(size))
    if len(codes) != orbits:
        raise RuntimeError(f"listing walk met {len(codes)} classes, the Burnside count is {orbits}")
    return [_decode_matrix(c, modulus, size) for c in codes]

"""Skew-symmetric matrices over Z/lZ and the switching calculus on them.

A matrix M determines a quadratic exponent pattern; switching at a vertex v
subtracts 1 across row v and adds 1 down column v (mod l).  Two matrices
are called switching equivalent when one is reachable from the other by
switchings followed by a relabeling of the vertices.  The triple sums
m_ij + m_jh + m_hi are a complete invariant for pure switching.

Isolating a vertex (the unique pure switching that clears its row and
column) reduces switching to relabeling: M and M' are equivalent exactly
when isolate(M, 1) is isomorphic to isolate(M', v) for some v.  So
`isomorphic` is the one search here, and both canonical forms come from
one least-relabeling search.  The same backtracker also compares point
complexes (pointcomplex.complexes_isomorphic): it runs on their co-degree
tables, and a leaf check accepts a bijection only when it carries facets
onto facets.  Both searches run on explicit stacks, and each public call
counts their steps in one list, spent = [steps], against ENUM_GUARD.

The equivalence decision prunes that search with vertex profiles.  The
profile P_v(M) counts the entries of isolate(M, v) in each folded class
min(t, l - t); off row and column v those entries are the triple sums
through v, each pair {j, h} once as t and once as -t.  A pure switching
leaves every isolation unchanged, and relabeling by sigma carries
isolate(M, v) to a relabeling of isolate(M', sigma(v)), which has the same
entries.  So equivalent matrices have the same profiles up to order (a
pre-check), and isolate(M, 1) can be isomorphic to isolate(M', v) only if
P_1(M) = P_v(M') (a filter on v).  Summed over v, the profiles give the
folded triple-sum multiset, so the pre-check is at least as strong as
comparing those multisets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import ResourceGuardError

__all__ = [
    "AltMatrix",
    "EquivWitness",
    "make",
    "switch",
    "switch_many",
    "relabel",
    "switching_equivalent",
    "isomorphic",
    "canonical_class_form",
    "canonical_iso_form",
    "isolate",
    "verify_witness",
]

# permutations are tuples of 1-indexed images: sigma[i-1] is the image of i
Permutation = tuple[int, ...]
SwitchExponents = tuple[int, ...]

# Steps of the walks (census) or the searches (here, pointcomplex) of one
# public call; README, Guards, says what a step is and what the bound admits.
ENUM_GUARD = 10**7

# Hot tuples are built from lists, tuple([...]), not from generators: tuple()
# of a generator starts from a guessed size, so each freed result lands on
# another of CPython's per-size tuple free lists, which keep that memory
# until a full garbage collection.


@dataclass(frozen=True)
class AltMatrix:
    """Immutable n x n skew-symmetric matrix over Z/modulus Z."""

    modulus: int
    size: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_entries(self.modulus, self.size, self.entries)


@dataclass(frozen=True)
class EquivWitness:
    """Certificate for switching equivalence.

    relabel(switch_many(M, exponents), sigma) reproduces the target matrix.
    Exponents are normalized so the first vertex gets 0.  The decision
    returns the first witness its search finds, not the lex-first one, and
    checks it with verify_witness before returning it.
    """

    sigma: Permutation
    exponents: SwitchExponents


def _check_entries(modulus: int, size: int, entries: tuple[tuple[int, ...], ...]) -> None:
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    if len(entries) != size or any(len(row) != size for row in entries):
        raise ValueError(f"entries must form a {size}x{size} grid")
    for i in range(size):
        if entries[i][i] != 0:
            raise ValueError(f"diagonal entry at ({i + 1},{i + 1}) must be 0")
        for j in range(i + 1, size):
            v, w = entries[i][j], entries[j][i]
            if not (0 <= v < modulus and 0 <= w < modulus):
                raise ValueError(f"entry at ({i + 1},{j + 1}) or ({j + 1},{i + 1}) is not reduced mod {modulus}")
            if (v + w) % modulus != 0:
                raise ValueError(
                    f"entries at ({i + 1},{j + 1}) and ({j + 1},{i + 1}) sum to {v + w}, not 0, mod {modulus}"
                )


def make(modulus: int, size: int, raw_entries: Iterable[Iterable[int]]) -> AltMatrix:
    """Reduce a raw integer grid mod l and validate skew-symmetry."""
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    grid = tuple([tuple([int(v) % modulus for v in row]) for row in raw_entries])
    return AltMatrix(modulus, size, grid)


def _check_vertex(m: AltMatrix, v: int) -> None:
    if not 1 <= v <= m.size:
        raise ValueError(f"vertex {v} out of range 1..{m.size}")


def _check_compatible(m: AltMatrix, mp: AltMatrix) -> None:
    if m.modulus != mp.modulus:
        raise ValueError(f"modulus mismatch: {m.modulus} vs {mp.modulus}")
    if m.size != mp.size:
        raise ValueError(f"size mismatch: {m.size} vs {mp.size}")


def switch(m: AltMatrix, v: int) -> AltMatrix:
    """Switch at vertex v: row v drops by 1, column v gains 1 (mod l)."""
    _check_vertex(m, v)
    return switch_many(m, [int(i == v) for i in range(1, m.size + 1)])


def switch_many(m: AltMatrix, a: Sequence[int]) -> AltMatrix:
    """Apply the switching with exponent a_v at each vertex v simultaneously.

    Entry (i, j) becomes m_ij - a_i + a_j (mod l); constant vectors act
    trivially since switching once at every vertex is the identity.
    """
    if len(a) != m.size:
        raise ValueError(f"expected {m.size} exponents, got {len(a)}")
    l, n = m.modulus, m.size
    e = m.entries
    grid = tuple(
        [tuple([(e[i][j] - a[i] + a[j]) % l if i != j else 0 for j in range(n)]) for i in range(n)]
    )
    return AltMatrix(l, n, grid)


def _check_permutation(sigma: Sequence[int], n: int) -> None:
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {tuple(sigma)}")


def relabel(m: AltMatrix, sigma: Sequence[int]) -> AltMatrix:
    """Relabel vertices: entry (sigma(i), sigma(j)) of the result is m_ij."""
    _check_permutation(sigma, m.size)
    inv = [0] * m.size  # inv[a] is the 0-indexed preimage of vertex a + 1
    for i, s in enumerate(sigma):
        inv[s - 1] = i
    rows = [m.entries[i] for i in inv]
    return AltMatrix(m.modulus, m.size, tuple([tuple([row[j] for j in inv]) for row in rows]))


# Profiles are tuples of (class, count) pairs in class order, zero counts
# left out.  Up to this modulus the kernel codes e_jh - e_vh + l in a byte.
_BYTE_KERNEL_MAX_MODULUS = 128


@lru_cache(maxsize=16)
def _fold_tables(l: int) -> tuple[bytes, ...]:
    # tables[k] sends the byte d + l, for -l < d < l, to the class of k + d
    tables = []
    for k in range(l):
        table = bytearray(256)
        for b in range(1, 2 * l):
            t = (k + b - l) % l
            table[b] = min(t, l - t)
        tables.append(bytes(table))
    return tuple(tables)


def _vertex_profiles(m: AltMatrix) -> list[tuple[tuple[int, int], ...]]:
    """P_v(m) for v = 1..n: the folded class counts of isolate(m, v).

    Entry (j, h) of isolate(m, v) is e_vj + e_jh - e_vh, and entry (h, j)
    is its negative, so counting the pairs j < h and doubling, plus the n
    diagonal zeros, gives the profile.  Rows are read as little-endian
    integers X_j; with L the integer whose n bytes all equal l, X_j + L - X_v
    holds the bytes e_jh - e_vh + l without carries, and one translate per
    row maps them to classes: about n^3 / 2 byte operations per matrix, all
    in C.  Above _BYTE_KERNEL_MAX_MODULUS the codes do not fit a byte, and one
    pass over the triples adds each folded sum to its three vertices.
    """
    l, n, e = m.modulus, m.size, m.entries
    if l > _BYTE_KERNEL_MAX_MODULUS:
        return _vertex_profiles_by_triples(m)
    tables = _fold_tables(l)
    rows = [int.from_bytes(bytes(row), "little") for row in e]
    shift = int.from_bytes(bytes([l]) * n, "little")
    classes = range(l // 2 + 1)
    profiles = []
    for v in range(n):
        base, ev = rows[v] - shift, e[v]
        pairs = b"".join(
            [
                (rows[j] - base).to_bytes(n, "little")[j + 1 :].translate(tables[ev[j]])
                for j in range(n - 1)
            ]
        )
        counts = [2 * pairs.count(c) for c in classes]
        counts[0] += n
        profiles.append(tuple([(c, k) for c, k in zip(classes, counts) if k]))
    return profiles


def _vertex_profiles_by_triples(m: AltMatrix) -> list[tuple[tuple[int, int], ...]]:
    # row and column v and the diagonal hold 3n - 2 zeros; every other pair
    # {j, h} appears twice, as the triple sum through v and its negative
    l, n, e = m.modulus, m.size, m.entries
    counts = [{0: 3 * n - 2} for _ in range(n)]
    for i in range(n):
        ei, ci = e[i], counts[i]
        for j in range(i + 1, n):
            ej, cj, s = e[j], counts[j], ei[j]
            # e_hi = -e_ih, so the triple sum (i, j, h) is e_ij + e_jh - e_ih
            for x, y, ch in zip(ej[j + 1 :], ei[j + 1 :], counts[j + 1 :]):
                t = (s + x - y) % l
                t = min(t, l - t)
                ci[t] = ci.get(t, 0) + 2
                cj[t] = cj.get(t, 0) + 2
                ch[t] = ch.get(t, 0) + 2
    return [tuple(sorted(c.items())) for c in counts]


def switching_equivalent(m: AltMatrix, mp: AltMatrix) -> EquivWitness | None:
    """Decide switching equivalence; return the first witness found, or None.

    Every matrix differs from its isolation at vertex 1 by a pure switching,
    and isolating commutes with relabeling, so m and mp are equivalent
    exactly when isolate(m, 1) is isomorphic to isolate(mp, v) for some v.
    Vertex profiles (see the module docstring) reject most inequivalent
    pairs at once and skip every v whose isolation has other entries than
    isolate(m, 1), so the first witness is the one the search over all v
    would find.  If a and b are the two isolations' exponents and sigma the
    isomorphism, the witness exponents are c_i = a_i - b_sigma(i), shifted
    so c_1 = 0.  The witness is verified before it is returned.
    """
    _check_compatible(m, mp)
    profiles, target = _vertex_profiles(m), _vertex_profiles(mp)
    if sorted(profiles) != sorted(target):
        return None
    l, n = m.modulus, m.size
    a = _isolating_exponents(m, 1)
    base = switch_many(m, a)
    spent = [0]  # steps of every search below
    for v in range(1, n + 1):
        if target[v - 1] != profiles[0]:
            # isomorphic isolations have the same entries, so no witness here
            continue
        b = _isolating_exponents(mp, v)
        # the witness check below covers the isomorphism, so the search runs unchecked
        sigma = _isomorphism(base, switch_many(mp, b), spent)
        if sigma is None:
            continue
        c = [a[i] - b[sigma[i] - 1] for i in range(n)]
        witness = EquivWitness(sigma, tuple([(x - c[0]) % l for x in c]))
        if not verify_witness(m, mp, witness):
            raise RuntimeError(f"switching witness {witness} failed verification")
        return witness
    return None


def isomorphic(m: AltMatrix, mp: AltMatrix) -> Permutation | None:
    """Permutation sigma with relabel(m, sigma) = mp, or None.

    Backtracking over images in lex order, pruned by sorted row multisets
    and by pairwise entry agreement with all previously placed vertices.
    The permutation is checked with relabel before it is returned.
    """
    _check_compatible(m, mp)
    sigma = _isomorphism(m, mp, [0])
    if sigma is not None and relabel(m, sigma) != mp:
        raise RuntimeError(f"isomorphism {sigma} failed verification")
    return sigma


def _isomorphism(m: AltMatrix, mp: AltMatrix, spent: list[int]) -> Permutation | None:
    rows_m = [tuple(sorted(row)) for row in m.entries]
    rows_p = [tuple(sorted(row)) for row in mp.entries]
    if sorted(rows_m) != sorted(rows_p):
        return None
    by_row: dict[tuple[int, ...], list[int]] = {}
    for c, row in enumerate(rows_p):
        by_row.setdefault(row, []).append(c)
    candidates = [by_row[row] for row in rows_m]
    return _extend_isomorphism(m.entries, mp.entries, candidates, spent)


def _over_bound(search: str, n: int) -> ResourceGuardError:
    return ResourceGuardError(f"the {search} over {n} vertices takes more than ENUM_GUARD = {ENUM_GUARD} steps")


def _extend_isomorphism(me, pe, candidates, spent: list[int], accept=None) -> Permutation | None:
    """First bijection, in lex order, with pe[sigma(i)][sigma(j)] == me[i][j] for all i < j.

    candidates[k] lists the 0-indexed images allowed for vertex k + 1, and
    stack[k] iterates over those not yet tried.  A full bijection is
    returned, 1-indexed, when accept is None or accept(sigma) holds;
    otherwise the search goes on.  Each image tried adds max(k, 1) to spent[0].
    """
    n, image, used, stack = len(me), [], set(), [iter(candidates[0])]
    while stack:
        k = len(image)
        for c in stack[-1]:
            if c in used:
                continue
            spent[0] += k or 1
            if spent[0] > ENUM_GUARD:
                raise _over_bound("isomorphism search", n)
            if not any(pe[image[i]][c] != me[i][k] for i in range(k)):
                break
        else:
            stack.pop()
            if image:
                used.discard(image.pop())
            continue
        image.append(c)
        used.add(c)
        if k + 1 < n:
            stack.append(iter(candidates[k + 1]))
        elif accept is None or accept(tuple([x + 1 for x in image])):
            return tuple([x + 1 for x in image])
        else:
            used.discard(image.pop())
    return None


def _least_relabeling(m: AltMatrix, first: int, spent: list[int]) -> tuple[tuple[int, ...], ...]:
    """Rows of the row-major least relabeling of m that puts `first` at position 1.

    Rows are fixed one at a time.  The unplaced vertices sit in an ordered
    partition, sorted by their entries in the rows placed so far; a least
    relabeling keeps that order, so choosing the vertex for position k
    among the first cell fixes row k.  Branches whose row exceeds the
    incumbent's are cut; ties are explored.  stack[k] iterates over the
    candidates left for position k + 2.  A node reads a row: n to spent[0].
    """
    e, n = m.entries, m.size
    # best holds the incumbent's rows (lists, for the free-list reason above),
    # and its first k rows equal the branch's
    best, placed, stack = [], [], []
    v, cells = first - 1, [[u for u in range(n) if u != first - 1]]
    while True:
        spent[0] += n
        if spent[0] > ENUM_GUARD:
            raise _over_bound("canonical-form search", n)
        k = len(placed)
        refined: list[list[int]] = []
        for cell in cells:
            by_value: dict[int, list[int]] = {}
            for u in cell:
                by_value.setdefault(e[v][u], []).append(u)
            refined += (by_value[x] for x in sorted(by_value))
        row = [e[v][u] for u in placed] + [0] + [e[v][u] for cell in refined for u in cell]
        if k == len(best) or row < best[k]:
            best[k:] = [row]
        if refined and row == best[k]:
            placed.append(v)
            stack.append((iter(refined[0]), refined[0], refined[1:]))
        while stack and (v := next(stack[-1][0], -1)) < 0:
            stack.pop()
            placed.pop()
        if not stack:
            return tuple([tuple(row) for row in best])
        _, head, rest = stack[-1]
        others = [w for w in head if w != v]
        cells = [others] + rest if others else rest


def canonical_iso_form(m: AltMatrix) -> AltMatrix:
    """Lexicographically smallest relabeling (row-major order); complete for isomorphism."""
    spent = [0]
    rows = min(_least_relabeling(m, v, spent) for v in range(1, m.size + 1))
    return AltMatrix(m.modulus, m.size, rows)


def canonical_class_form(m: AltMatrix) -> AltMatrix:
    """Least relabeling of an isolation, over all isolations; complete for switching.

    isolate(relabel(switch_many(m, a), tau), tau(v)) equals
    relabel(isolate(m, v), tau), so equivalent matrices have the same
    isolations up to relabeling, and conversely equal forms give a
    switching and a relabeling between m and m'.  Vertex 1 of the result
    is isolated.
    """
    spent = [0]
    rows = min(_least_relabeling(isolate(m, v), v, spent) for v in range(1, m.size + 1))
    return AltMatrix(m.modulus, m.size, rows)


def _isolating_exponents(m: AltMatrix, v: int) -> SwitchExponents:
    k = v - 1
    return tuple([0 if i == k else (-m.entries[k][i]) % m.modulus for i in range(m.size)])


def isolate(m: AltMatrix, v: int) -> AltMatrix:
    """The unique pure switching of m whose row and column v are zero."""
    _check_vertex(m, v)
    return switch_many(m, _isolating_exponents(m, v))


def verify_witness(m: AltMatrix, mp: AltMatrix, w: EquivWitness) -> bool:
    """Check a witness exactly: relabel(switch_many(m, a), sigma) == mp."""
    return relabel(switch_many(m, w.exponents), w.sigma) == mp

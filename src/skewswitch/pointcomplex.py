"""Simplicial complexes attached to switching classes.

A subset F of the vertices is a face when every 3-subset of F has zero
triple sum, so the complex is determined by triples (every set of size at
most 2 is a face).  Faces grow on bitmasks.  For each vertex pair (x, w),
zero[x][w] is the mask of vertices u whose triple (x, w, u) sums to zero;
it holds x and w, since a triple with a repeated vertex sums to zero.  A
face s carries ext(s), the mask of vertices that extend it, and

    ext(s + w) = ext(s) & ~bit(w) & AND over x in s + w of zero[x][w],

because s + w + u is a face exactly when s + w and s + u are and every
triple (x, w, u) with x in s sums to zero.  Faces grow in increasing
vertex order, so each is visited once, and s is a facet when ext(s) is
empty.  The same grower finds maximal independent sets when zero[x][w] is
the zero-pair mask of w for every x.  That gives the isolations route:
the maximal all-zero principal submatrices of the isolations
isolate(M, v), collected over v, have the facets as their maximal members.

A complex keeps one facet-incidence mask per vertex (bit i set when the
vertex lies in facet i).  Validation reads containment off them, and
isomorphism reads vertex profiles and co-degrees off them as popcounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .skewmat import AltMatrix, Permutation, isolate

__all__ = [
    "SimplicialComplex",
    "ComponentDescriptor",
    "is_face",
    "facets",
    "dimension",
    "complexes_isomorphic",
    "facets_via_isolations",
    "independence_number",
    "variety_components",
]


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex count plus the lex-sorted list of facets (strictly increasing 1-indexed tuples).

    incidence[v - 1] has bit i set when vertex v lies in facets[i]; it is
    derived from the facets and takes no part in comparisons.
    """

    n: int
    facets: tuple[tuple[int, ...], ...]
    incidence: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        incidence = [0] * self.n
        for i, f in enumerate(self.facets):
            if tuple(sorted(f)) != f:
                raise ValueError(f"facet {f} is not sorted")
            if len(set(f)) != len(f):
                raise ValueError(f"facet {f} repeats a vertex")
            if any(not 1 <= v <= self.n for v in f):
                raise ValueError(f"facet {f} has a vertex outside 1..{self.n}")
            for v in f:
                incidence[v - 1] |= 1 << i
        if tuple(sorted(self.facets)) != self.facets:
            raise ValueError("facet list is not lex-sorted")
        # the facets holding every vertex of f: f itself and any facet containing it
        every = (1 << len(self.facets)) - 1
        for i, f in enumerate(self.facets):
            holding = every
            for v in f:
                holding &= incidence[v - 1]
            others = holding & ~(1 << i)
            if others:
                j = (others & -others).bit_length() - 1
                raise ValueError(f"facet {f} is contained in {self.facets[j]}")
        if not all(incidence):
            raise ValueError("facets must cover every vertex")
        object.__setattr__(self, "incidence", tuple(incidence))


@dataclass(frozen=True)
class ComponentDescriptor:
    """A linear component of the point variety: its support and projective dimension."""

    support: tuple[int, ...]
    projective_dimension: int


def _triple_zero(e, l: int, i: int, j: int, h: int) -> bool:
    # zero cyclic sum does not depend on the orientation of (i, j, h)
    return (e[i][j] + e[j][h] + e[h][i]) % l == 0


def is_face(m: AltMatrix, f: Iterable[int]) -> bool:
    """True when every 3-subset of f has zero triple sum (sets of size <= 2 always do)."""
    vs = sorted(set(f))
    for v in vs:
        if not 1 <= v <= m.size:
            raise ValueError(f"vertex {v} out of range 1..{m.size}")
    e, l = m.entries, m.modulus
    k = [v - 1 for v in vs]
    for x in range(len(k)):
        for y in range(x + 1, len(k)):
            for z in range(y + 1, len(k)):
                if not _triple_zero(e, l, k[x], k[y], k[z]):
                    return False
    return True


# The searches recurse through module-level functions rather than nested
# ones: a nested function that calls itself is a reference cycle, which
# keeps its data alive until the next full garbage collection.


def _grow(zero: list[list[int]], out: list[tuple[int, ...]], s: tuple[int, ...], ext: int, start: int) -> None:
    if not ext:
        out.append(s)
        return
    todo = ext >> start << start
    while todo:
        low = todo & -todo
        todo ^= low
        w = low.bit_length() - 1
        t = s + (w,)
        child = ext ^ low
        for x in t:
            child &= zero[x][w]
        _grow(zero, out, t, child, w + 1)


def _maximal_sets(zero: list[list[int]]) -> list[tuple[int, ...]]:
    """Maximal sets of 0-indexed vertices grown on the mask table `zero`, in lex order.

    The family must be hereditary, and s + w + u must belong to it exactly
    when s + w and s + u do and u lies in zero[x][w] for every x in s + w.
    """
    out: list[tuple[int, ...]] = []
    _grow(zero, out, (), (1 << len(zero)) - 1, 0)
    return out


def _zero_triple_masks(m: AltMatrix) -> list[list[int]]:
    """zero[x][w]: mask of the vertices u whose triple (x, w, u) sums to zero.

    The sum e_xw + e_wu + e_ux is zero exactly when e_xu = e_wu + e_xw, so
    each mask is a union over the values a of row w of (entries a in row w)
    & (entries a + e_xw in row x).
    """
    n, l, e = m.size, m.modulus, m.entries
    by_value: list[dict[int, int]] = []
    for row in e:
        masks: dict[int, int] = {}
        for u, a in enumerate(row):
            masks[a] = masks.get(a, 0) | 1 << u
        by_value.append(masks)
    zero = [[0] * n for _ in range(n)]
    for x in range(n):
        row_x = by_value[x]
        for w in range(x, n):
            c = e[x][w]
            mask = 0
            for a, bits in by_value[w].items():
                mask |= bits & row_x.get((a + c) % l, 0)
            zero[x][w] = zero[w][x] = mask
    return zero


def _complex(n: int, found: list[tuple[int, ...]]) -> SimplicialComplex:
    return SimplicialComplex(n, tuple(sorted([tuple([v + 1 for v in f]) for f in found])))


def facets(m: AltMatrix) -> SimplicialComplex:
    """All maximal faces, lex-sorted."""
    return _complex(m.size, _maximal_sets(_zero_triple_masks(m)))


def dimension(c: SimplicialComplex) -> int:
    """Largest facet size minus one."""
    return max(len(f) for f in c.facets) - 1


def _profiles(c: SimplicialComplex, sizes: list[int]) -> list[tuple[int, ...]]:
    # per vertex, how many facets of each size hold it: the multiset of its facet sizes
    by_size = [0] * len(sizes)
    for i, f in enumerate(c.facets):
        by_size[sizes.index(len(f))] |= 1 << i
    return [tuple([(inc & mask).bit_count() for mask in by_size]) for inc in c.incidence]


def _codegrees(c: SimplicialComplex) -> list[list[int]]:
    # codegrees[u][v]: number of facets holding both u + 1 and v + 1
    return [[(a & b).bit_count() for b in c.incidence] for a in c.incidence]


def complexes_isomorphic(c: SimplicialComplex, cp: SimplicialComplex) -> Permutation | None:
    """Vertex bijection carrying the facet set onto the facet set, or None.

    Pruned by facet-size multisets, per-vertex facet-membership profiles
    and pairwise co-facet counts, all read off the facet-incidence masks;
    the lex-first bijection is returned.
    """
    if c.n != cp.n or len(c.facets) != len(cp.facets):
        return None
    if sorted(len(f) for f in c.facets) != sorted(len(f) for f in cp.facets):
        return None
    n = c.n
    sizes = sorted({len(f) for f in c.facets})
    prof, prof_p = _profiles(c, sizes), _profiles(cp, sizes)
    if sorted(prof) != sorted(prof_p):
        return None

    candidates = [[cand for cand in range(1, n + 1) if prof_p[cand - 1] == pk] for pk in prof]
    return _extend_bijection(c, candidates, _codegrees(c), _codegrees(cp), set(cp.facets), [])


def _extend_bijection(c, candidates, codeg, codeg_p, target, image: list[int]) -> Permutation | None:
    k = len(image)
    if k == c.n:
        mapped = {tuple(sorted([image[v - 1] for v in f])) for f in c.facets}
        return tuple(image) if mapped == target else None
    row = codeg[k]
    for cand in candidates[k]:
        if cand in image:
            continue
        row_p = codeg_p[cand - 1]
        if any(row[i] != row_p[image[i] - 1] for i in range(k)):
            continue
        image.append(cand)
        sigma = _extend_bijection(c, candidates, codeg, codeg_p, target, image)
        if sigma is not None:
            return sigma
        image.pop()
    return None


def _maximal_independent_sets(m: AltMatrix) -> list[tuple[int, ...]]:
    # an independent set grows by w onto the vertices u with e_wu = 0, whatever the set
    zero_pairs = [sum([1 << u for u, a in enumerate(row) if a == 0]) for row in m.entries]
    return _maximal_sets([zero_pairs] * m.size)


def facets_via_isolations(m: AltMatrix) -> SimplicialComplex:
    """Facets assembled from maximal independent sets of every isolation.

    Agrees with facets(m): a face containing u is independent in
    isolate(m, u), and every independent set of an isolation is a face.
    """
    collected: dict[int, tuple[int, ...]] = {}
    for v in range(1, m.size + 1):
        for s in _maximal_independent_sets(isolate(m, v)):
            collected[sum([1 << x for x in s])] = s
    maximal = [s for ms, s in collected.items() if not any(ms != mt and ms & ~mt == 0 for mt in collected)]
    return _complex(m.size, maximal)


def independence_number(m: AltMatrix) -> int:
    """Size of the largest vertex set supporting an all-zero principal submatrix."""
    return max(len(s) for s in _maximal_independent_sets(m))


def variety_components(c: SimplicialComplex) -> list[ComponentDescriptor]:
    """One linear component per facet; its projective dimension is |F| - 1."""
    return [ComponentDescriptor(f, len(f) - 1) for f in c.facets]

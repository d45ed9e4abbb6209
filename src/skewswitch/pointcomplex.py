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
empty.  The search runs on an explicit stack and counts its steps against
skewmat.ENUM_GUARD, so a complex with too many faces is refused, not grown.

A complex keeps one facet-incidence mask per vertex (bit i set when the
vertex lies in facet i).  Validation reads containment off them, and
isomorphism reads vertex profiles and co-degrees off them as popcounts.
Complex isomorphism runs the relabeling search of skewmat on the two
co-degree tables, with one extra check at its leaves: the bijection must
carry the facet set onto the facet set, charged one step per facet mapped
(_carries_facets, which also checks the bijections read off matrix witnesses).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import skewmat
from .skewmat import AltMatrix, Permutation, _extend_isomorphism, _over_bound

__all__ = [
    "SimplicialComplex",
    "facets",
    "dimension",
    "complexes_isomorphic",
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
        if self.n < 1:
            raise ValueError(f"vertex count must be at least 1, got {self.n}")
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


def _maximal_sets(zero: list[list[int]]) -> list[tuple[int, ...]]:
    """Maximal sets of 0-indexed vertices grown on the mask table `zero`, in lex order.

    The family must be hereditary, and s + w + u must belong to it exactly
    when s + w and s + u do and u lies in zero[x][w] for every x in s + w.
    It descends in place from the face s with extenders ext, todo of them
    above its last vertex, and stacks the parent's todo only to enter a
    child with todo of its own.  A face of d vertices costs max(d, 1) steps,
    charged when its parent is entered, since every child is visited.
    """
    n, out, stack, bound = len(zero), [], [], skewmat.ENUM_GUARD
    s, ext = (), (1 << n) - 1
    todo, steps = ext, 1 + n
    while True:
        while todo:
            low = todo & -todo
            todo ^= low
            w = low.bit_length() - 1
            t = s + (w,)
            child = ext ^ low
            for x in t:
                child &= zero[x][w]
            if not child:
                out.append(t)
            elif child >> w + 1:
                stack.append((s, ext, todo))
                s, ext, todo = t, child, child >> w + 1 << w + 1
                steps += (len(t) + 1) * todo.bit_count()
                if steps > bound:
                    raise _over_bound("face search", n)
        if not stack:
            return out
        s, ext, todo = stack.pop()


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
    if c.n != cp.n or sorted(len(f) for f in c.facets) != sorted(len(f) for f in cp.facets):
        return None
    n = c.n
    sizes = sorted({len(f) for f in c.facets})
    prof, prof_p = _profiles(c, sizes), _profiles(cp, sizes)
    if sorted(prof) != sorted(prof_p):
        return None

    # 0-indexed: candidates[u] lists the vertices of cp whose profile is that of u
    candidates = [[cand for cand in range(n) if prof_p[cand] == pk] for pk in prof]
    spent, targets = [0], set(cp.facets)

    def leaf(sigma: Permutation) -> bool:
        # charged before the facet images are built; the search's next step checks the bound
        spent[0] += len(c.facets)
        return _carries_facets(c, targets, sigma)

    return _extend_isomorphism(_codegrees(c), _codegrees(cp), candidates, spent, leaf)


def _carries_facets(c: SimplicialComplex, targets: set[tuple[int, ...]], sigma: Permutation) -> bool:
    """Whether the vertex bijection sigma maps the facets of c onto `targets`, the facet set of a complex."""
    return {tuple(sorted([sigma[v - 1] for v in f])) for f in c.facets} == targets

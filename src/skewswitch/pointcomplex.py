"""Simplicial complexes attached to switching classes.

A subset F of the vertices is a face when every 3-subset of F has zero
triple sum, so the complex is determined by triples (every set of size at
most 2 is a face).  Facets can be read off either directly or through the
isolations route: the maximal all-zero principal submatrices of the
isolations isolate(M, v), collected over v, have the facets as their
maximal members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

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
    """Vertex count plus the lex-sorted list of facets (sorted 1-indexed tuples)."""

    n: int
    facets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: list[set[int]] = []
        for f in self.facets:
            if tuple(sorted(f)) != f:
                raise ValueError(f"facet {f} is not sorted")
            if any(not 1 <= v <= self.n for v in f):
                raise ValueError(f"facet {f} has a vertex outside 1..{self.n}")
            seen.append(set(f))
        if tuple(sorted(self.facets)) != self.facets:
            raise ValueError("facet list is not lex-sorted")
        for i, a in enumerate(seen):
            for j, b in enumerate(seen):
                if i != j and a <= b:
                    raise ValueError(f"facet {self.facets[i]} is contained in {self.facets[j]}")
        covered = set().union(*seen) if seen else set()
        if covered != set(range(1, self.n + 1)):
            raise ValueError("facets must cover every vertex")


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


def _maximal_admissible_sets(n: int, can_extend: Callable[[tuple[int, ...], int], bool]) -> list[tuple[int, ...]]:
    """Maximal members of a hereditary set family given by an extension oracle.

    can_extend(s, w) decides whether the admissible set s stays admissible
    with w added; the family must be downward closed.  Sets are grown in
    increasing vertex order (so each is visited once) and reported when no
    vertex at all, earlier or later, extends them.
    """
    out: list[tuple[int, ...]] = []
    _grow(n, can_extend, out, (), 0)
    return out


# The searches recurse through module-level functions rather than nested
# ones: a nested function that calls itself is a reference cycle, which
# keeps its data alive until the next full garbage collection.


def _grow(n: int, can_extend, out: list[tuple[int, ...]], s: tuple[int, ...], start: int) -> None:
    extendable = [w for w in range(n) if w not in s and can_extend(s, w)]
    if not any(w >= start for w in extendable):
        if not extendable:
            out.append(s)
        return
    for w in extendable:
        if w >= start:
            _grow(n, can_extend, out, s + (w,), w + 1)


def facets(m: AltMatrix) -> SimplicialComplex:
    """All maximal faces, lex-sorted."""
    e, l = m.entries, m.modulus

    def can_extend(s: tuple[int, ...], w: int) -> bool:
        return all(_triple_zero(e, l, s[x], s[y], w) for x in range(len(s)) for y in range(x + 1, len(s)))

    found = _maximal_admissible_sets(m.size, can_extend)
    return SimplicialComplex(m.size, tuple(sorted([tuple([v + 1 for v in f]) for f in found])))


def dimension(c: SimplicialComplex) -> int:
    """Largest facet size minus one."""
    return max(len(f) for f in c.facets) - 1


def _vertex_profile(c: SimplicialComplex, v: int) -> tuple[int, ...]:
    return tuple(sorted(len(f) for f in c.facets if v in f))


def complexes_isomorphic(c: SimplicialComplex, cp: SimplicialComplex) -> Permutation | None:
    """Vertex bijection carrying the facet set onto the facet set, or None.

    Pruned by facet-size multisets, per-vertex facet-membership profiles
    and pairwise co-facet counts; the lex-first bijection is returned.
    """
    if c.n != cp.n or len(c.facets) != len(cp.facets):
        return None
    if sorted(len(f) for f in c.facets) != sorted(len(f) for f in cp.facets):
        return None
    n = c.n
    prof = [_vertex_profile(c, v) for v in range(1, n + 1)]
    prof_p = [_vertex_profile(cp, v) for v in range(1, n + 1)]
    if sorted(prof) != sorted(prof_p):
        return None

    candidates = [[cand for cand in range(1, n + 1) if prof_p[cand - 1] == pk] for pk in prof]
    return _extend_bijection(c, cp, candidates, set(cp.facets), [])


def _codegree(cx: SimplicialComplex, u: int, v: int) -> int:
    return sum(1 for f in cx.facets if u in f and v in f)


def _extend_bijection(c, cp, candidates, target, image: list[int]) -> Permutation | None:
    k = len(image)
    if k == c.n:
        mapped = {tuple(sorted(image[v - 1] for v in f)) for f in c.facets}
        return tuple(image) if mapped == target else None
    for cand in candidates[k]:
        if cand in image:
            continue
        if any(_codegree(c, i + 1, k + 1) != _codegree(cp, image[i], cand) for i in range(k)):
            continue
        image.append(cand)
        sigma = _extend_bijection(c, cp, candidates, target, image)
        if sigma is not None:
            return sigma
        image.pop()
    return None


def _zero_pair(e, l: int, i: int, j: int) -> bool:
    return e[i][j] % l == 0


def _maximal_independent_sets(m: AltMatrix) -> list[tuple[int, ...]]:
    e, l = m.entries, m.modulus

    def can_extend(s: tuple[int, ...], w: int) -> bool:
        return all(_zero_pair(e, l, v, w) for v in s)

    return _maximal_admissible_sets(m.size, can_extend)


def facets_via_isolations(m: AltMatrix) -> SimplicialComplex:
    """Facets assembled from maximal independent sets of every isolation.

    Agrees with facets(m): a face containing u is independent in
    isolate(m, u), and every independent set of an isolation is a face.
    """
    collected: set[tuple[int, ...]] = set()
    for v in range(1, m.size + 1):
        collected.update(_maximal_independent_sets(isolate(m, v)))
    maximal = [
        s for s in collected
        if not any(s != t and set(s) <= set(t) for t in collected)
    ]
    return SimplicialComplex(m.size, tuple(sorted([tuple([v + 1 for v in f]) for f in maximal])))


def independence_number(m: AltMatrix) -> int:
    """Size of the largest vertex set supporting an all-zero principal submatrix."""
    return max(len(s) for s in _maximal_independent_sets(m))


def variety_components(c: SimplicialComplex) -> list[ComponentDescriptor]:
    """One linear component per facet; its projective dimension is |F| - 1."""
    return [ComponentDescriptor(f, len(f) - 1) for f in c.facets]

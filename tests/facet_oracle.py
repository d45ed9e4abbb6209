"""Extension-oracle facet searches and the co-degree isomorphism search, kept as test oracles.

The library grows faces on bitmasks (skewswitch.pointcomplex).  These
routes grow the same sets through a predicate can_extend(s, w) that
re-checks every triple (or pair) of the face with w on each call, and
compare complexes by counting shared facets with a scan of the facet list
per vertex pair.  They visit sets and candidates in the same order as the
library, so they must return the same facets and the same (lex-first)
vertex bijection.  `is_face` checks a single set by its triples.

The isolations route is a second way to the same facets.  A face
containing u is an independent set of isolate(M, u) (a vertex set whose
principal submatrix is zero), and every independent set of an isolation
is a face.  So the maximal independent sets of the isolations, collected
over every vertex, have the facets as their maximal members, and the
largest independent set of an isolation has dimension + 1 vertices.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from skewswitch import AltMatrix, SimplicialComplex, isolate


def maximal_admissible_sets(n: int, can_extend: Callable[[tuple[int, ...], int], bool]) -> list[tuple[int, ...]]:
    """Maximal members of a hereditary set family given by an extension oracle.

    can_extend(s, w) decides whether the admissible set s stays admissible
    with w added; the family must be downward closed.  Sets are grown in
    increasing vertex order (so each is visited once) and reported when no
    vertex at all, earlier or later, extends them.
    """
    out: list[tuple[int, ...]] = []
    _grow(n, can_extend, out, (), 0)
    return out


def _grow(n: int, can_extend, out: list[tuple[int, ...]], s: tuple[int, ...], start: int) -> None:
    extendable = [w for w in range(n) if w not in s and can_extend(s, w)]
    if not any(w >= start for w in extendable):
        if not extendable:
            out.append(s)
        return
    for w in extendable:
        if w >= start:
            _grow(n, can_extend, out, s + (w,), w + 1)


def _triple_zero(e, l: int, i: int, j: int, h: int) -> bool:
    return (e[i][j] + e[j][h] + e[h][i]) % l == 0


def is_face(m: AltMatrix, f) -> bool:
    """True when every 3-subset of f has zero triple sum (sets of size <= 2 always do)."""
    vs = sorted(set(f))
    for v in vs:
        if not 1 <= v <= m.size:
            raise ValueError(f"vertex {v} out of range 1..{m.size}")
    e, l = m.entries, m.modulus
    return all(_triple_zero(e, l, i - 1, j - 1, h - 1) for i, j, h in combinations(vs, 3))


def _complex(n: int, found) -> SimplicialComplex:
    return SimplicialComplex(n, tuple(sorted(tuple(v + 1 for v in f) for f in found)))


def maximal_faces(m: AltMatrix) -> list[tuple[int, ...]]:
    """Maximal 0-indexed faces in visiting order."""
    e, l = m.entries, m.modulus

    def can_extend(s: tuple[int, ...], w: int) -> bool:
        return all(_triple_zero(e, l, s[x], s[y], w) for x in range(len(s)) for y in range(x + 1, len(s)))

    return maximal_admissible_sets(m.size, can_extend)


def facets(m: AltMatrix) -> SimplicialComplex:
    """All maximal faces, lex-sorted."""
    return _complex(m.size, maximal_faces(m))


def maximal_independent_sets(m: AltMatrix) -> list[tuple[int, ...]]:
    """Maximal 0-indexed vertex sets whose principal submatrix is zero."""
    e, l = m.entries, m.modulus
    return maximal_admissible_sets(m.size, lambda s, w: all(e[v][w] % l == 0 for v in s))


def facets_via_isolations(m: AltMatrix) -> SimplicialComplex:
    """Maximal members among the maximal independent sets of every isolation."""
    collected: set[tuple[int, ...]] = set()
    for v in range(1, m.size + 1):
        collected.update(maximal_independent_sets(isolate(m, v)))
    maximal = [s for s in collected if not any(s != t and set(s) <= set(t) for t in collected)]
    return _complex(m.size, maximal)


def independence_number(m: AltMatrix) -> int:
    return max(len(s) for s in maximal_independent_sets(m))


def _vertex_profile(c: SimplicialComplex, v: int) -> tuple[int, ...]:
    return tuple(sorted(len(f) for f in c.facets if v in f))


def _codegree(cx: SimplicialComplex, u: int, v: int) -> int:
    return sum(1 for f in cx.facets if u in f and v in f)


def complexes_isomorphic(c: SimplicialComplex, cp: SimplicialComplex):
    """Lex-first vertex bijection carrying the facet set onto the facet set, or None."""
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


def _extend_bijection(c, cp, candidates, target, image: list[int]):
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

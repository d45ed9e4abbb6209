"""Expected answers, computed by the benchmark from the definitions.

Matrices here are plain lists of rows of residues mod l, independent of the
package's own types.  Witnesses are checked by what they mean, not by their
bytes, so a change that returns a different valid witness still passes:

- an equivalence witness (sigma, a) must satisfy
  relabel(switch_many(A, a), sigma) = B, the relation `verify_witness`
  checks;
- an isomorphism sigma must satisfy relabel(A, sigma) = B;
- a complex bijection must carry the facet set of A onto that of B.

Verdicts that are "no" are only ever expected where an invariant computed
here proves them, so no expected answer rests on the program under test.
"""

from __future__ import annotations

import itertools

Grid = list[list[int]]


def switch_many(e: Grid, l: int, a) -> Grid:
    n = len(e)
    return [[(e[i][j] - a[i] + a[j]) % l if i != j else 0 for j in range(n)] for i in range(n)]


def switch(e: Grid, l: int, v: int) -> Grid:
    a = [0] * len(e)
    a[v - 1] = 1
    return switch_many(e, l, a)


def isolate(e: Grid, l: int, v: int) -> Grid:
    return switch_many(e, l, [0 if i == v - 1 else (-e[v - 1][i]) % l for i in range(len(e))])


def relabel(e: Grid, sigma) -> Grid:
    """Entry (sigma(i), sigma(j)) of the result is e_ij; sigma is 1-indexed."""
    n = len(e)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[sigma[i] - 1][sigma[j] - 1] = e[i][j]
    return out


def eulerize(e: Grid, l: int) -> dict:
    """The Eulerian form with the data `eulerize --explain` reports (needs gcd(n, l) = 1)."""
    n = len(e)
    sums = [sum(row) % l for row in e]
    scale = pow(n, -1, l)
    a = [(scale * s) % l for s in sums]
    buckets = {str(k): [v + 1 for v in range(n) if sums[v] == k] for k in range(l)}
    return {
        "entries": switch_many(e, l, a),
        "scale": scale,
        "row_sums": sums,
        "buckets": {k: vs for k, vs in buckets.items() if vs},
        "exponents": a,
    }


def dot_text(e: Grid) -> str:
    """The digraph text of `complex --emit-dot`: arcs toward the smaller exponent, ties upward."""
    n = len(e)
    lines = ["digraph skew {"] + [f"  {v};" for v in range(1, n + 1)]
    for i in range(n):
        for j in range(i + 1, n):
            v, w = e[i][j], e[j][i]
            if v == 0:
                continue
            if v <= w:
                lines.append(f'  {i + 1} -> {j + 1} [label="{v}"];')
            else:
                lines.append(f'  {j + 1} -> {i + 1} [label="{w}"];')
    return "\n".join(lines + ["}"])


def triple_zero(e: Grid, l: int, i: int, j: int, h: int) -> bool:
    return (e[i][j] + e[j][h] + e[h][i]) % l == 0


def zero_triple_count(e: Grid, l: int) -> int:
    """Number of 2-faces; invariant under switching, relabeling and complex isomorphism."""
    return sum(triple_zero(e, l, *t) for t in itertools.combinations(range(len(e)), 3))


def row_signature(e: Grid) -> list[list[int]]:
    """Sorted multiset of sorted rows; invariant under relabeling."""
    return sorted(sorted(row) for row in e)


def facets_exhaustive(e: Grid, l: int) -> list[list[int]]:
    """All maximal faces by visiting every vertex subset; for n up to about 12."""
    n = len(e)
    face = [False] * (1 << n)
    face[0] = True
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        rest = mask & ~(1 << top)
        if not face[rest]:
            continue
        members = [v for v in range(top) if rest >> v & 1]
        face[mask] = all(
            triple_zero(e, l, members[x], members[y], top)
            for x in range(len(members))
            for y in range(x + 1, len(members))
        )
    maximal = [
        mask
        for mask in range(1, 1 << n)
        if face[mask] and not any(face[mask | 1 << v] for v in range(n) if not mask >> v & 1)
    ]
    return sorted([v + 1 for v in range(n) if mask >> v & 1] for mask in maximal)


def facets_problem(e: Grid, l: int, facets: list[list[int]]) -> str | None:
    """Why `facets` is not the facet list of e, or None when every check holds.

    Checked: lex order, each facet a face, each facet maximal, no facet
    inside another, and every pair and every zero triple inside some
    facet, which means no face of dimension 2 or less is missing.
    """
    n = len(e)
    if facets != sorted(facets) or any(f != sorted(set(f)) for f in facets):
        return "facets not sorted"
    sets = [set(f) for f in facets]
    for f in facets:
        if any(not 1 <= v <= n for v in f):
            return f"facet {f} out of range"
        k = [v - 1 for v in f]
        if not all(triple_zero(e, l, *t) for t in itertools.combinations(k, 3)):
            return f"facet {f} is not a face"
        for w in range(n):
            if w + 1 not in f and all(triple_zero(e, l, x, y, w) for x, y in itertools.combinations(k, 2)):
                return f"facet {f} extends by vertex {w + 1}"
    for s, t in itertools.permutations(sets, 2):
        if s <= t:
            return f"facet {sorted(s)} lies inside {sorted(t)}"
    covered_pairs = set()
    covered_triples = set()
    for f in facets:
        covered_pairs.update(itertools.combinations(f, 2))
        covered_triples.update(itertools.combinations(f, 3))
    if len(covered_pairs) != n * (n - 1) // 2 or any(len(f) == 0 for f in facets):
        return "some vertex pair lies in no facet"
    for t in itertools.combinations(range(n), 3):
        if triple_zero(e, l, *t) and tuple(v + 1 for v in t) not in covered_triples:
            return f"zero triple {[v + 1 for v in t]} lies in no facet"
    return None


def map_facets(facets, sigma) -> list[list[int]]:
    return sorted(sorted(sigma[v - 1] for v in f) for f in facets)


def equiv_witness_problem(a: Grid, b: Grid, l: int, sigma, exponents) -> str | None:
    if not is_permutation(sigma, len(a)) or len(exponents) != len(a):
        return "malformed equivalence witness"
    if relabel(switch_many(a, l, exponents), sigma) != b:
        return "equivalence witness does not reproduce the second matrix"
    return None


def iso_witness_problem(a: Grid, b: Grid, sigma) -> str | None:
    if not is_permutation(sigma, len(a)):
        return "malformed isomorphism"
    if relabel(a, sigma) != b:
        return "relabeling does not reproduce the second matrix"
    return None


def complex_witness_problem(fa, fb, sigma, n: int) -> str | None:
    if not is_permutation(sigma, n):
        return "malformed vertex bijection"
    if map_facets(fa, sigma) != sorted(fb):
        return "vertex bijection does not carry facets onto facets"
    return None


def is_permutation(sigma, n: int) -> bool:
    return isinstance(sigma, list) and sorted(sigma) == list(range(1, n + 1))

"""The recursive searches that skewmat and pointcomplex ran before their explicit stacks, kept as test oracles.

_extend_isomorphism, _least_relabeling (with _place) and _maximal_sets
(with _grow) are the recursive versions of the shipped searches of the
same names.  They visit nodes in the same order as the shipped loops, so
they must return the same permutation, the same canonical rows and the
same facets in the same order.  They recurse once per vertex and bound no
work, so they suit small inputs only.
"""

from __future__ import annotations

from skewswitch import AltMatrix, Permutation


def _extend_isomorphism(me, pe, candidates, image: list[int], used: set[int], accept=None) -> Permutation | None:
    """First bijection, in lex order, with pe[image[i]][image[j]] == me[i][j] for all i < j.

    candidates[k] lists the 0-indexed images allowed for vertex k + 1.  A
    full bijection is returned, 1-indexed, when accept is None or
    accept(sigma) holds; otherwise the search goes on.
    """
    k = len(image)
    if k == len(me):
        sigma = tuple([c + 1 for c in image])
        return sigma if accept is None or accept(sigma) else None
    for c in candidates[k]:
        if c in used or any(pe[image[i]][c] != me[i][k] for i in range(k)):
            continue
        image.append(c)
        used.add(c)
        sigma = _extend_isomorphism(me, pe, candidates, image, used, accept)
        if sigma is not None:
            return sigma
        image.pop()
        used.discard(c)
    return None


def extend_isomorphism(me, pe, candidates, spent, accept=None) -> Permutation | None:
    """The recursive search, called as skewmat._extend_isomorphism is; it counts no steps."""
    return _extend_isomorphism(me, pe, candidates, [], set(), accept)


def _least_relabeling(m: AltMatrix, first: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the row-major least relabeling of m that puts `first` at position 1.

    Rows are fixed one at a time.  The unplaced vertices sit in an ordered
    partition, sorted by their entries in the rows placed so far; a least
    relabeling keeps that order, so choosing the vertex for position k
    among the first cell fixes row k.  Branches whose row exceeds the
    incumbent's are cut; ties are explored.
    """
    best: list[list[int]] = []
    _place(m.entries, best, [], first - 1, [[u for u in range(m.size) if u != first - 1]])
    return tuple([tuple(row) for row in best])


def _place(e, best: list[list[int]], placed: list[int], v: int, cells: list[list[int]]) -> None:
    # v takes position k; best holds the incumbent's rows (lists, for the
    # free-list reason in skewmat), and its first k rows equal the branch's
    k = len(placed)
    refined: list[list[int]] = []
    for cell in cells:
        by_value: dict[int, list[int]] = {}
        for u in cell:
            by_value.setdefault(e[v][u], []).append(u)
        refined += (by_value[x] for x in sorted(by_value))
    row = [e[v][u] for u in placed] + [0] + [e[v][u] for cell in refined for u in cell]
    if k < len(best):
        if row > best[k]:
            return
        if row < best[k]:
            del best[k:]
    if k == len(best):
        best.append(row)
    if refined:
        head, rest = refined[0], refined[1:]
        for u in head:
            others = [w for w in head if w != u]
            _place(e, best, placed + [v], u, [others] + rest if others else rest)


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

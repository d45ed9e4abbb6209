"""Triple-sum route for switching equivalence and the class form, kept as a test oracle.

The library reduces switching to relabeling through isolations.  These
routes never isolate: the decision backtracks over relabelings while every
determined triple sum m_ij + m_jh + m_hi agrees with the target, and the
class form is the least triple tensor over all n! relabelings.  Triple sums
are a complete invariant for pure switching, so both routes are exact and
check the isolation route independently.  `triple_tensor` lists those sums.

`switching_equivalent_unfiltered` is the isolation decision as it stood
before vertex profiles: the folded triple-sum multiset as its pre-check,
then every isolation v = 1..n tried in order.  The library must return
exactly its witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from skewswitch import AltMatrix, EquivWitness, relabel, switch_many, verify_witness
from skewswitch.skewmat import _check_compatible, _isolating_exponents, _isomorphism

from helpers import difference, potential_witness


def _triple_value(e, l, i, j, h):
    return (e[i][j] + e[j][h] + e[h][i]) % l


@dataclass(frozen=True)
class TripleTensor:
    """All triple sums m_ij + m_jh + m_hi (mod l), for i < j < h in lex order."""

    modulus: int
    size: int
    values: tuple[int, ...]


def triple_tensor(m: AltMatrix) -> TripleTensor:
    """Triple sums t_ijh = m_ij + m_jh + m_hi (mod l) for i < j < h."""
    l, e = m.modulus, m.entries
    values = tuple(_triple_value(e, l, i, j, h) for i, j, h in itertools.combinations(range(m.size), 3))
    return TripleTensor(l, m.size, values)


def folded_triple_multiset(m: AltMatrix) -> tuple[int, ...]:
    """Sorted min(t, l - t) over all triple sums t; relabeling can only negate t."""
    l = m.modulus
    return tuple(sorted(min(v, (l - v) % l) for v in triple_tensor(m).values))


def switching_equivalent_unfiltered(m: AltMatrix, mp: AltMatrix) -> EquivWitness | None:
    """First witness of isolate(m, 1) against isolate(mp, v), v = 1..n, or None."""
    _check_compatible(m, mp)
    if folded_triple_multiset(m) != folded_triple_multiset(mp):
        return None
    l, n = m.modulus, m.size
    a = _isolating_exponents(m, 1)
    base = switch_many(m, a)
    for v in range(1, n + 1):
        b = _isolating_exponents(mp, v)
        sigma = _isomorphism(base, switch_many(mp, b), [0])
        if sigma is None:
            continue
        c = [a[i] - b[sigma[i] - 1] for i in range(n)]
        witness = EquivWitness(sigma, tuple([(x - c[0]) % l for x in c]))
        assert verify_witness(m, mp, witness)
        return witness
    return None


def _inverse(sigma):
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    return tuple(inv)


def switching_equivalent(m: AltMatrix, mp: AltMatrix) -> EquivWitness | None:
    """Lex-first witness by backtracking on triple sums, or None.

    A partial assignment survives only while every already-determined triple
    sum of the relabeled source agrees with the target.  A full match makes
    the difference a switching difference, which potential_witness converts
    into exponents.
    """
    _check_compatible(m, mp)
    l, n = m.modulus, m.size
    if folded_triple_multiset(m) != folded_triple_multiset(mp):
        return None
    me, pe = m.entries, mp.entries
    image = [0] * n
    used = [False] * n

    def agrees(k, c):
        return all(
            _triple_value(me, l, i, j, k)
            == _triple_value(pe, l, image[i] - 1, image[j] - 1, c - 1)
            for i, j in itertools.combinations(range(k), 2)
        )

    def extend(k):
        if k == n:
            return tuple(image)
        for c in range(1, n + 1):
            if used[c - 1] or not agrees(k, c):
                continue
            image[k] = c
            used[c - 1] = True
            sigma = extend(k + 1)
            if sigma is not None:
                return sigma
            used[c - 1] = False
        return None

    sigma = extend(0)
    if sigma is None:
        return None
    a = potential_witness(difference(relabel(mp, _inverse(sigma)), m))
    assert a is not None, "all triple sums agree, so the difference is a switching"
    return EquivWitness(sigma, a)


def canonical_class_form(m: AltMatrix) -> TripleTensor:
    """Lexicographically least triple tensor over all relabelings."""
    l, n, e = m.modulus, m.size, m.entries
    triples = list(itertools.combinations(range(n), 3))
    best = None
    for sigma in itertools.permutations(range(n)):
        inv = [0] * n
        for i, s in enumerate(sigma):
            inv[s] = i
        cand = tuple(_triple_value(e, l, inv[i], inv[j], inv[h]) for i, j, h in triples)
        if best is None or cand < best:
            best = cand
    return TripleTensor(l, n, best)

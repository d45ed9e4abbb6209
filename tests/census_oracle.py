"""Full-walk census over every skew matrix, kept as a test oracle.

The library walks only the l^C(n-1,2) matrices whose first row is zero
and fills that row in for the Eulerian listing.  This route visits all
l^C(n,2) matrices instead: it dedups every one on its least relabeled
triple-sum encoding (switching classes), and filters the Eulerian ones
with a row-sum test before deduplicating them on their least relabeled
entry encoding.  So it needs neither the isolation argument nor the
first-row completion, and checks both.  Its relabeling tables and
encodings are its own, so it shares no code with the library's walk.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from skewswitch import AltMatrix, CensusResult, ResourceGuardError

_CHUNK = 1 << 18


def _check_args(modulus: int, size: int) -> None:
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")


def _pairs(size: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(size), 2))


def _inverse0(sigma0) -> list[int]:
    inv = [0] * len(sigma0)
    for i, s in enumerate(sigma0):
        inv[s] = i
    return inv


def _pair_action(size: int, inv) -> tuple[list[int], list[bool]]:
    # slot (a, b) holds entry (inv a, inv b), negated when that pair is decreasing
    index = {p: k for k, p in enumerate(_pairs(size))}
    pos, flip = [], []
    for a, b in _pairs(size):
        p, q = inv[a], inv[b]
        pos.append(index[(p, q) if p < q else (q, p)])
        flip.append(p > q)
    return pos, flip


def _triple_action(size: int, inv) -> tuple[list[int], list[bool]]:
    # the same for triple-sum slots; the sign is the parity of the preimage order
    trips = list(itertools.combinations(range(size), 3))
    index = {t: k for k, t in enumerate(trips)}
    pos, flip = [], []
    for a, b, c in trips:
        p = (inv[a], inv[b], inv[c])
        inversions = sum(p[x] > p[y] for x in range(3) for y in range(x + 1, 3))
        pos.append(index[tuple(sorted(p))])
        flip.append(inversions % 2 == 1)
    return pos, flip


def _relabel_tables(size: int) -> list[tuple[np.ndarray, ...]]:
    tables = []
    for sigma0 in itertools.permutations(range(size)):
        inv = _inverse0(sigma0)
        pos2, flip2 = _pair_action(size, inv)
        pos3, flip3 = _triple_action(size, inv)
        tables.append(
            (
                np.array(pos2, dtype=np.int64),
                np.array(flip2, dtype=bool),
                np.array(pos3, dtype=np.int64),
                np.array(flip3, dtype=bool),
            )
        )
    return tables


def _encode_weights(modulus: int, length: int) -> np.ndarray:
    return np.array([modulus ** (length - 1 - k) for k in range(length)], dtype=np.int64)


def _min_relabel_encoding(x: np.ndarray, tables, which: slice, weights: np.ndarray, modulus: int) -> np.ndarray:
    """Per row of x, the smallest base-l encoding over all relabelings."""
    best = None
    for table in tables:
        pos, flip = table[which]
        cand = x[:, pos]
        cand = np.where(flip, (modulus - cand) % modulus, cand)
        enc = cand @ weights
        best = enc if best is None else np.minimum(best, enc)
    return best


def _decode_matrix(encoding: int, modulus: int, size: int) -> AltMatrix:
    grid = [[0] * size for _ in range(size)]
    rest = int(encoding)
    for i, j in reversed(_pairs(size)):
        rest, v = divmod(rest, modulus)
        grid[i][j] = v
        grid[j][i] = (-v) % modulus
    return AltMatrix(modulus, size, tuple(tuple(row) for row in grid))


# matrices times n! relabelings; (3, 5) takes about a second
FULL_WALK_GUARD = 10**8


def _row_sum_columns(size: int) -> np.ndarray:
    # column v of the result, applied to entry vectors, is the row sum at v
    cols = np.zeros((size * (size - 1) // 2, size), dtype=np.int64)
    for k, (i, j) in enumerate(_pairs(size)):
        cols[k][i] = 1
        cols[k][j] = -1
    return cols


def least_codes(modulus: int, size: int) -> tuple[set[int], set[int]]:
    """Least relabeled triple-sum encodings of all matrices, and least entry encodings of the Eulerian ones."""
    _check_args(modulus, size)
    npairs = size * (size - 1) // 2
    if modulus**npairs * math.factorial(size) > FULL_WALK_GUARD:
        raise ResourceGuardError(f"full walk needs {modulus}^{npairs} matrices times {size}! relabelings")
    total = modulus**npairs
    ntrips = math.comb(size, 3)
    trips = list(itertools.combinations(range(size), 3))
    pair_index = {p: k for k, p in enumerate(_pairs(size))}
    first = np.array([pair_index[(i, j)] for i, j, h in trips], dtype=np.int64)
    second = np.array([pair_index[(j, h)] for i, j, h in trips], dtype=np.int64)
    closing = np.array([pair_index[(i, h)] for i, j, h in trips], dtype=np.int64)
    tables = _relabel_tables(size)
    entry_weights = _encode_weights(modulus, npairs)
    triple_weights = _encode_weights(modulus, ntrips)
    row_sum_cols = _row_sum_columns(size)
    class_codes: set[int] = set()
    iso_codes: set[int] = set()
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        entries = (idx[:, None] // entry_weights) % modulus
        triples = (entries[:, first] + entries[:, second] - entries[:, closing]) % modulus
        class_codes.update(
            _min_relabel_encoding(triples, tables, slice(2, 4), triple_weights, modulus).tolist()
        )
        eulerian = entries[((entries @ row_sum_cols) % modulus == 0).all(axis=1)]
        if eulerian.shape[0]:
            iso_codes.update(
                _min_relabel_encoding(eulerian, tables, slice(0, 2), entry_weights, modulus).tolist()
            )
    return class_codes, iso_codes


def brute_force_census(modulus: int, size: int) -> CensusResult:
    """Both class counts and the Eulerian representatives from all l^C(n,2) matrices."""
    class_codes, iso_codes = least_codes(modulus, size)
    reps = tuple(_decode_matrix(e, modulus, size) for e in sorted(iso_codes))
    return CensusResult(modulus, size, len(class_codes), len(iso_codes), reps)

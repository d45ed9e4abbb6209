"""Full-walk census over every skew matrix, kept as a test oracle.

The library walks only the l^C(n-1,2) matrices whose first row is zero
and fills that row in for the Eulerian listing.  This route visits all
l^C(n,2) matrices instead: it dedups every one on its least relabeled
triple-sum encoding (switching classes), and filters the Eulerian ones
with a row-sum test before deduplicating them on their least relabeled
entry encoding.  So it needs neither the isolation argument nor the
first-row completion, and checks both.  It shares the relabeling tables
and encodings with the library.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from skewswitch import CensusResult, ResourceGuardError
from skewswitch.census import (
    _CHUNK,
    _check_args,
    _decode_matrix,
    _encode_weights,
    _min_relabel_encoding,
    _pairs,
    _relabel_tables,
)

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
    tables = _relabel_tables(np, size, with_triples=True)
    entry_weights = _encode_weights(np, modulus, npairs)
    triple_weights = _encode_weights(np, modulus, ntrips)
    row_sum_cols = _row_sum_columns(size)
    class_codes: set[int] = set()
    iso_codes: set[int] = set()
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        entries = (idx[:, None] // entry_weights) % modulus
        triples = (entries[:, first] + entries[:, second] - entries[:, closing]) % modulus
        class_codes.update(
            _min_relabel_encoding(np, triples, tables, slice(2, 4), triple_weights, modulus).tolist()
        )
        eulerian = entries[((entries @ row_sum_cols) % modulus == 0).all(axis=1)]
        if eulerian.shape[0]:
            iso_codes.update(
                _min_relabel_encoding(np, eulerian, tables, slice(0, 2), entry_weights, modulus).tolist()
            )
    return class_codes, iso_codes


def brute_force_census(modulus: int, size: int) -> CensusResult:
    """Both class counts and the Eulerian representatives from all l^C(n,2) matrices."""
    class_codes, iso_codes = least_codes(modulus, size)
    reps = tuple(_decode_matrix(e, modulus, size) for e in sorted(iso_codes))
    return CensusResult(modulus, size, len(class_codes), len(iso_codes), reps)

"""The l^(n-1) scan of a switching orbit for Eulerian members, kept as a test oracle.

The library lists only the affine coset of switchings that solve the
row-sum conditions (skewswitch.eulerian.eulerian_in_orbit).  This route
scans every exponent vector with a_1 = 0 on numpy arrays and keeps those
whose switched row sums all vanish, so it must return the same matrices.
"""

from __future__ import annotations

import numpy as np

from skewswitch import AltMatrix, row_sum_profile, switch_many

SCAN_LIMIT = 10**6


def eulerian_in_orbit_scan(m: AltMatrix) -> list[AltMatrix]:
    """Eulerian switchings of m from a scan of all l^(n-1) vectors, sorted by entries."""
    l, n = m.modulus, m.size
    total = l ** (n - 1)
    assert total <= SCAN_LIMIT, f"scan of {total} vectors is too large for a test"
    base = np.array(row_sum_profile(m).sums, dtype=np.int64)
    idx = np.arange(total, dtype=np.int64)
    weights = l ** np.arange(n - 2, -1, -1, dtype=np.int64)
    a = np.zeros((total, n), dtype=np.int64)
    a[:, 1:] = (idx[:, None] // weights[None, :]) % l
    # row sums of switch_many(m, a): base_i + sum(a) - n * a_i
    rowsums = (base[None, :] + a.sum(axis=1)[:, None] - n * a) % l
    hits = {switch_many(m, tuple(int(x) for x in vec)) for vec in a[np.all(rowsums == 0, axis=1)]}
    return sorted(hits, key=lambda mm: mm.entries)

"""Shared builders and fixed matrices for the test suite."""

from __future__ import annotations

from skewswitch import AltMatrix, make


def from_edges(modulus, size, edges):
    """Matrix with entry 1 at (i, j) for each arc i -> j, 1-indexed."""
    grid = [[0] * size for _ in range(size)]
    for i, j in edges:
        grid[i - 1][j - 1] = 1 % modulus
        grid[j - 1][i - 1] = (-1) % modulus
    return make(modulus, size, grid)


def from_upper(modulus, size, upper):
    """Matrix from the upper triangle listed row by row."""
    grid = [[0] * size for _ in range(size)]
    it = iter(upper)
    for i in range(size):
        for j in range(i + 1, size):
            v = next(it) % modulus
            grid[i][j] = v
            grid[j][i] = (-v) % modulus
    return make(modulus, size, grid)


def zero(modulus, size):
    return make(modulus, size, [[0] * size for _ in range(size)])


def random_alt(rng, modulus, size):
    """Uniformly random skew matrix."""
    return from_upper(
        modulus,
        size,
        [rng.randrange(modulus) for _ in range(size * (size - 1) // 2)],
    )


def paley(p, modulus):
    """Paley graph (modulus 2, p = 1 mod 4) or Paley tournament (modulus 3, p = 3 mod 4)."""
    residues = {x * x % p for x in range(1, p)}
    other = 0 if modulus == 2 else modulus - 1  # a non-edge, or the reverse arc
    return make(
        modulus,
        p,
        [[0 if i == j else 1 if (j - i) % p in residues else other for j in range(p)] for i in range(p)],
    )


def difference(a, b):
    """Entrywise a - b (mod l)."""
    l, n = a.modulus, a.size
    return make(l, n, [[a.entries[i][j] - b.entries[i][j] for j in range(n)] for i in range(n)])


def potential_witness(d):
    """Exponents a with d_ij = a_j - a_i and a_1 = 0, if d is such a difference.

    Matrices of this shape are exactly those reachable from 0 by pure
    switching; the normalization a_1 = 0 makes the result unique because
    only constant vectors act trivially.
    """
    l, n, e = d.modulus, d.size, d.entries
    a = tuple(e[0][j] for j in range(n))
    for i in range(n):
        for j in range(n):
            if e[i][j] != (a[j] - a[i]) % l:
                return None
    return a


def random_permutation(rng, size):
    image = list(range(1, size + 1))
    rng.shuffle(image)
    return tuple(image)


def arcs_of(m: AltMatrix):
    """Arc set of a mod-3 matrix: i -> j where the entry is 1."""
    assert m.modulus == 3
    return {
        (i + 1, j + 1)
        for i in range(m.size)
        for j in range(m.size)
        if i != j and m.entries[i][j] == 1
    }


# Switching a graph (modulus 2, 4 vertices) at vertex 3.
SWITCH_GRAPH_IN = [
    [0, 1, 1, 0],
    [1, 0, 1, 1],
    [1, 1, 0, 0],
    [0, 1, 0, 0],
]
SWITCH_GRAPH_OUT = [
    [0, 1, 0, 0],
    [1, 0, 0, 1],
    [0, 0, 0, 1],
    [0, 1, 1, 0],
]

# Switching a digraph (modulus 3, 4 vertices) at vertex 3.
SWITCH_DIGRAPH_IN = [
    [0, 1, 1, 0],
    [2, 0, 2, 1],
    [2, 1, 0, 0],
    [0, 2, 0, 0],
]
SWITCH_DIGRAPH_OUT = [
    [0, 1, 2, 0],
    [2, 0, 0, 1],
    [1, 0, 0, 2],
    [0, 2, 1, 0],
]

# Seven-variable matrix at modulus 4 whose Eulerization uses scale 3.
EULERIZE_7_INPUT = [
    [0, 1, 1, 1, 2, 2, 3],
    [3, 0, 1, 1, 1, 2, 2],
    [3, 3, 0, 1, 1, 1, 2],
    [3, 3, 3, 0, 1, 1, 1],
    [2, 3, 3, 3, 0, 1, 1],
    [2, 2, 3, 3, 3, 0, 1],
    [1, 2, 2, 3, 3, 3, 0],
]
EULERIZE_7_OUTPUT = [
    [0, 1, 0, 3, 3, 2, 3],
    [3, 0, 0, 3, 2, 2, 2],
    [0, 0, 0, 0, 3, 2, 3],
    [1, 1, 0, 0, 0, 3, 3],
    [1, 2, 1, 0, 0, 0, 0],
    [2, 2, 2, 1, 0, 0, 1],
    [1, 2, 1, 1, 0, 3, 0],
]
EULERIZE_7_EXPONENTS = (2, 2, 1, 0, 3, 2, 2)
EULERIZE_7_BUCKETS = {0: (4,), 1: (5,), 2: (1, 2, 6, 7), 3: (3,)}

# Four-vertex digraph: arcs 1->2, 1->3, 1->4, 2->3, 4->3.  Modular Eulerian
# but not Eulerian in the walk sense.  Its three distinct isolations:
FAN_4_ARCS = ((1, 2), (1, 3), (1, 4), (2, 3), (4, 3))
FAN_4_ISOLATION_1 = ((2, 3), (4, 3))
FAN_4_ISOLATION_2 = ((3, 1),)
FAN_4_ISOLATION_3 = ((1, 2), (1, 4))

# Six-vertex digraph pair: same point complex, not switching equivalent.
PAIR_6_A_ARCS = ((2, 1), (3, 1))
PAIR_6_B_ARCS = ((1, 2), (1, 3))
PAIR_6_FACETS = ((1, 2, 3), (1, 4, 5, 6), (2, 3, 4, 5, 6))
# All distinct isolations of the first one.
PAIR_6_A_ISOLATION_1 = ((4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3))
PAIR_6_A_ISOLATION_2 = ((1, 4), (1, 5), (1, 6))
PAIR_6_A_ISOLATION_4 = ((2, 1), (3, 1))

# Seven-vertex modular Eulerian pair with the same behavior.
PAIR_7_A_ARCS = (
    (2, 1), (3, 1), (3, 2), (3, 4), (4, 1),
    (5, 1), (5, 3), (5, 6), (6, 1), (6, 3),
    (7, 1), (7, 3), (7, 6),
)
PAIR_7_B_ARCS = (
    (1, 2), (1, 3), (1, 4), (2, 3), (4, 3),
    (5, 2), (5, 4), (5, 6), (6, 2), (6, 4),
    (7, 2), (7, 4), (7, 6),
)
PAIR_7_FACETS = (
    (1, 2, 4, 5, 7),
    (1, 2, 4, 6),
    (1, 3),
    (2, 3, 4),
    (3, 5, 7),
    (3, 6),
    (5, 6, 7),
)

# Three-variable pair at any modulus >= 4: same complex, never equivalent.
def three_var_pair(modulus):
    a = from_upper(modulus, 3, [0, 0, 1])
    b = from_upper(modulus, 3, [0, 0, 2])
    return a, b


# The classification of five-vertex digraph switching classes at modulus 3:
# one representative digraph per class and the facets of its point complex.
CLASSES_5 = (
    (
        (),
        ((1, 2, 3, 4, 5),),
    ),
    (
        ((1, 2), (2, 3), (3, 1)),
        ((1, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5)),
    ),
    (
        ((1, 2), (2, 3), (3, 4), (4, 1)),
        ((1, 2), (1, 3, 5), (1, 4), (2, 3), (2, 4, 5), (3, 4)),
    ),
    (
        ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)),
    ),
    (
        ((1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 1)),
        ((1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5), (2, 5), (3, 4)),
    ),
    (
        ((2, 1), (2, 5), (1, 5), (3, 2), (5, 3), (4, 2), (5, 4)),
        ((1, 2), (1, 3, 4), (1, 5), (2, 3, 4, 5)),
    ),
    (
        ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (3, 5), (5, 2), (2, 4), (4, 1)),
        ((1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)),
    ),
    (
        ((1, 2), (2, 3), (1, 3), (1, 4), (4, 3)),
        ((1, 2, 4), (1, 3), (1, 5), (2, 3, 4), (2, 4, 5), (3, 5)),
    ),
    (
        ((2, 1), (1, 5), (2, 5), (2, 3), (3, 4), (4, 5)),
        ((1, 2, 3), (1, 4, 5), (2, 3, 5), (2, 4, 5), (3, 4)),
    ),
    (
        ((2, 1), (2, 3), (2, 4), (1, 5), (3, 5), (4, 5)),
        ((1, 2, 3, 4), (1, 3, 4, 5), (2, 5)),
    ),
    (
        ((2, 1), (3, 2), (3, 1), (1, 5), (5, 4), (1, 4), (3, 4)),
        ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3, 4), (2, 5), (3, 4, 5)),
    ),
    (
        ((1, 3), (1, 5), (2, 1), (2, 5), (2, 3), (4, 5), (4, 1), (4, 3)),
        ((1, 2, 4), (1, 3, 5), (2, 3, 4, 5)),
    ),
    (
        ((1, 2), (2, 4), (2, 5), (3, 2), (3, 4), (3, 5), (5, 1), (5, 4)),
        ((1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 4), (3, 4), (3, 5)),
    ),
    (
        ((1, 3), (1, 5), (2, 1), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 1)),
        ((1, 2), (1, 3, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)),
    ),
)

# Same classification for four vertices, with catalog labels.
CLASSES_4 = (
    ((), ((1, 2, 3, 4),), "0"),
    (((1, 2), (2, 3), (3, 1)), ((1, 2, 3), (1, 4), (2, 4), (3, 4)), "2"),
    (
        ((1, 2), (2, 3), (3, 4), (4, 1)),
        ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
        "3",
    ),
    (FAN_4_ARCS, ((1, 2, 4), (1, 3), (2, 3, 4)), "1"),
)

# And for three vertices.
CLASSES_3 = (
    ((), ((1, 2, 3),)),
    (((1, 2),), ((1, 2), (1, 3), (2, 3))),
)

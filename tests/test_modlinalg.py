"""Exact integer linear algebra: the Smith-form oracle and the census's diagonal solve."""

from __future__ import annotations

import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from skewswitch.census import _solutions_mod
from smith_oracle import IntMatrix, count_solutions_mod, smith_normal_form


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(0, 3))
    cols = draw(st.integers(0, 4))
    entries = [
        [draw(st.integers(-5, 5)) for _ in range(cols)] for _ in range(rows)
    ]
    return IntMatrix.from_rows(entries, cols)


def count_by_enumeration(a: IntMatrix, modulus: int) -> int:
    total = 0
    for x in product(range(modulus), repeat=a.cols):
        if all(
            sum(c * x[j] for j, c in enumerate(row)) % modulus == 0
            for row in a.entries
        ):
            total += 1
    return total


class TestSmithNormalForm:
    def test_diagonal_matrix_unchanged(self):
        r = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 2]]))
        assert r.diagonal == (2, 2)

    def test_generic_2x2(self):
        # d1 = gcd of all entries, d1 * d2 = |det|
        r = smith_normal_form(IntMatrix.from_rows([[1, 2], [3, 4]]))
        assert r.diagonal == (1, 2)

    def test_zero_matrix(self):
        r = smith_normal_form(IntMatrix.from_rows([[0] * 3] * 3))
        assert r.diagonal == (0, 0, 0)

    def test_rectangular_shapes(self):
        assert smith_normal_form(IntMatrix.from_rows([[0, 0, 7]])).diagonal == (7,)
        assert smith_normal_form(IntMatrix.from_rows([[3], [6]])).diagonal == (3,)

    def test_empty_shapes(self):
        assert smith_normal_form(IntMatrix.from_rows([], cols=4)).diagonal == ()
        assert smith_normal_form(IntMatrix.from_rows([[], []], cols=0)).diagonal == ()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_matrices())
    def test_divisibility_chain(self, a):
        d = smith_normal_form(a).diagonal
        assert len(d) == min(a.rows, a.cols)
        assert all(v >= 0 for v in d)
        nonzero = [v for v in d if v != 0]
        # zeros trail, each nonzero divides the next
        assert d[: len(nonzero)] == tuple(nonzero)
        assert all(b % a_ == 0 for a_, b in zip(nonzero, nonzero[1:]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_matrices(), st.randoms(use_true_random=False))
    def test_row_column_permutation_invariance(self, a, rng):
        rows = list(a.entries)
        rng.shuffle(rows)
        cols = list(range(a.cols))
        rng.shuffle(cols)
        shuffled = IntMatrix.from_rows(
            [[row[c] for c in cols] for row in rows], a.cols
        )
        assert smith_normal_form(shuffled) == smith_normal_form(a)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_matrices())
    def test_transpose_invariance(self, a):
        t = IntMatrix.from_rows(
            [[a.entries[i][j] for i in range(a.rows)] for j in range(a.cols)],
            a.rows,
        )
        assert smith_normal_form(t).diagonal == smith_normal_form(a).diagonal


class TestCountSolutionsMod:
    def test_invertible_system(self):
        a = IntMatrix.from_rows([[1, 0], [0, 1]])
        assert count_solutions_mod(a, 3) == 1

    def test_unconstrained_columns(self):
        a = IntMatrix.from_rows([[0, 0]])
        assert count_solutions_mod(a, 3) == 9

    def test_zero_divisor_pivot(self):
        # 2x = 0 mod 4 has solutions x in {0, 2}
        a = IntMatrix.from_rows([[2]])
        assert count_solutions_mod(a, 4) == 2

    def test_no_columns(self):
        a = IntMatrix.from_rows([], cols=0)
        assert count_solutions_mod(a, 5) == 1

    def test_no_rows(self):
        a = IntMatrix.from_rows([], cols=3)
        assert count_solutions_mod(a, 2) == 8

    def test_modulus_below_two_rejected(self):
        a = IntMatrix.from_rows([[1]])
        with pytest.raises(ValueError):
            count_solutions_mod(a, 1)
        with pytest.raises(ValueError):
            count_solutions_mod(a, 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(small_matrices(), st.sampled_from([2, 3, 4, 5, 6]))
    def test_matches_exhaustive_enumeration(self, a, modulus):
        assert count_solutions_mod(a, modulus) == count_by_enumeration(a, modulus)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_matrices(), st.sampled_from([2, 3, 4, 6]))
    def test_count_is_modulus_power_scaled_by_gcds(self, a, modulus):
        # closed form from the invariant factors
        d = smith_normal_form(a).diagonal
        expected = modulus ** (a.cols - len(d))
        for v in d:
            expected *= math.gcd(modulus, v) if v else modulus
        assert count_solutions_mod(a, modulus) == expected


class TestIntMatrix:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_empty_needs_explicit_cols(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([])

    def test_cols_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2]], cols=3)


class TestDiagonalSolve:
    """census._solutions_mod stops at a diagonal form; the Smith form is its oracle."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_matrices(), st.sampled_from([*range(2, 13), 4294967311]))
    def test_matches_smith_oracle(self, a, modulus):
        # a zero row constrains nothing, and the solve takes at least one row
        rows = [list(row) for row in a.entries] or [[0] * a.cols]
        assert _solutions_mod(rows, modulus) == count_solutions_mod(a, modulus)

    def test_diagonal_that_is_not_a_smith_form(self):
        # diag(2, 3) has Smith form diag(1, 6): gcds 2 * 3 and 1 * 6 at l = 6, 2 * 1 and 1 * 2 at l = 4
        rows = [[2, 0], [0, 3]]
        assert smith_normal_form(IntMatrix.from_rows(rows)).diagonal == (1, 6)
        assert _solutions_mod(rows, 6) == 6
        assert _solutions_mod(rows, 4) == 2
        # the same lattice before any diagonal is reached, and with a column to spare
        assert _solutions_mod([[2, 2], [0, 3]], 6) == 6
        assert _solutions_mod([[4, 0, 0], [0, 6, 0]], 12) == 4 * 6 * 12

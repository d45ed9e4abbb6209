"""Modular Eulerian matrices: recognition, Eulerization, orbit search."""

from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import helpers as H
import orbit_oracle as O
from skewswitch import (
    ENUM_GUARD,
    NotCoprimeError,
    ResourceGuardError,
    eulerian_in_orbit,
    eulerize,
    is_modular_eulerian,
    isomorphic,
    make,
    relabel,
    row_sum_profile,
    switch,
    switch_many,
    switching_equivalent,
)
from skewswitch import eulerian


@st.composite
def matrices(draw, moduli=(2, 3, 4, 5), max_size=6):
    modulus = draw(st.sampled_from(moduli))
    size = draw(st.integers(1, max_size))
    k = size * (size - 1) // 2
    upper = draw(st.lists(st.integers(0, modulus - 1), min_size=k, max_size=k))
    return H.from_upper(modulus, size, upper)


class TestIsModularEulerian:
    def test_zero_matrix(self):
        assert is_modular_eulerian(H.zero(3, 5))

    def test_fan_digraph_is_eulerian(self):
        assert is_modular_eulerian(H.from_edges(3, 4, H.FAN_4_ARCS))

    def test_single_switch_of_zero_is_not(self):
        assert not is_modular_eulerian(switch(H.zero(3, 3), 1))

    def test_degree_reading_at_modulus_three(self):
        # outdeg - indeg = 3 at the hub reads as zero, but the leaves fail
        star = H.from_edges(3, 4, ((1, 2), (1, 3), (1, 4)))
        assert row_sum_profile(star).sums == (0, 2, 2, 2)
        assert not is_modular_eulerian(star)


class TestRowSumProfile:
    def test_zero_matrix_all_in_bucket_zero(self):
        p = row_sum_profile(H.zero(4, 3))
        assert p.sums == (0, 0, 0)
        assert p.buckets == ((1, 2, 3), (), (), ())

    def test_single_switch_difference_profile(self):
        # row 1 holds two entries -1, rows 2 and 3 hold one entry +1
        p = row_sum_profile(switch(H.zero(3, 3), 1))
        assert p.sums == (1, 1, 1)
        assert p.buckets == ((), (1, 2, 3), ())

    def test_eulerize_display_buckets(self):
        p = row_sum_profile(make(4, 7, H.EULERIZE_7_INPUT))
        for k in range(4):
            assert p.buckets[k] == H.EULERIZE_7_BUCKETS[k]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(matrices())
    def test_weighted_bucket_sizes_vanish(self, m):
        # sum of all entries is zero by skew symmetry
        p = row_sum_profile(m)
        assert sum(k * len(p.buckets[k]) for k in range(m.modulus)) % m.modulus == 0
        assert sum(p.sums) % m.modulus == 0


class TestEulerize:
    def test_display_example(self):
        out, a = eulerize(make(4, 7, H.EULERIZE_7_INPUT))
        assert out == make(4, 7, H.EULERIZE_7_OUTPUT)
        assert a == H.EULERIZE_7_EXPONENTS

    def test_already_eulerian_untouched(self):
        m = H.from_edges(3, 4, H.FAN_4_ARCS)
        assert eulerize(m) == (m, (0, 0, 0, 0))

    def test_non_coprime_rejected(self):
        with pytest.raises(NotCoprimeError):
            eulerize(H.zero(2, 4))
        with pytest.raises(NotCoprimeError):
            eulerize(H.zero(3, 6))

    def test_exponents_scale_row_sums(self):
        m = make(4, 7, H.EULERIZE_7_INPUT)
        _, a = eulerize(m)
        sums = row_sum_profile(m).sums
        # 3 inverts 7 mod 4
        assert a == tuple(3 * s % 4 for s in sums)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(matrices(moduli=(2, 3, 4, 5), max_size=7))
    def test_output_is_eulerian_and_in_orbit(self, m):
        if m.size % m.modulus == 0 or (m.size % 2 == 0 and m.modulus % 2 == 0):
            import math

            if math.gcd(m.size, m.modulus) != 1:
                with pytest.raises(NotCoprimeError):
                    eulerize(m)
                return
        out, a = eulerize(m)
        assert is_modular_eulerian(out)
        assert switch_many(m, a) == out
        w = switching_equivalent(m, out)
        assert w is not None
        assert w.sigma == tuple(range(1, m.size + 1))


class TestEulerianInOrbit:
    def test_orbit_of_zero_two_vertices(self):
        for modulus in (2, 3, 4):
            assert eulerian_in_orbit(H.zero(modulus, 2)) == [H.zero(modulus, 2)]

    def test_non_coprime_two_four(self):
        # the orbit of the zero matrix holds four Eulerian graphs:
        # the empty graph and the three complete bipartite pairings
        got = eulerian_in_orbit(H.zero(2, 4))
        pairings = [
            switch_many(H.zero(2, 4), a)
            for a in ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))
        ]
        assert len(got) == 4
        assert H.zero(2, 4) in got
        for p in pairings:
            assert p in got

    def test_non_coprime_three_three(self):
        # zero, the directed triangle, and its reverse
        got = eulerian_in_orbit(H.zero(3, 3))
        assert len(got) == 3
        assert H.zero(3, 3) in got
        assert H.from_edges(3, 3, ((1, 2), (2, 3), (3, 1))) in got
        assert H.from_edges(3, 3, ((2, 1), (3, 2), (1, 3))) in got

    def test_coprime_orbit_is_singleton(self):
        got = eulerian_in_orbit(H.zero(3, 4))
        assert got == [H.zero(3, 4)]

    def test_members_are_eulerian_and_reachable(self):
        m = H.random_alt(random.Random(13), 3, 5)
        got = eulerian_in_orbit(m)
        assert len(got) == 1
        for e in got:
            assert is_modular_eulerian(e)
            assert H.potential_witness(H.difference(e, m)) is not None

    def test_sorted_deterministically(self):
        got = eulerian_in_orbit(H.zero(2, 4))
        assert got == sorted(got, key=lambda x: x.entries)

    def test_coprime_large_orbit_answers_at_once(self):
        # 10^8 switchings, but gcd(9, 10) = 1 leaves one candidate
        m = H.zero(10, 9)
        assert eulerian_in_orbit(m) == [eulerize(m)[0]]

    def test_resource_guard(self):
        # gcd(16, 4) = 4 leaves a coset of 4^15 switchings, over the guard
        assert 4**15 > ENUM_GUARD
        with pytest.raises(ResourceGuardError, match=r"4\^15"):
            eulerian_in_orbit(H.zero(4, 16))

    def test_empty_coset_needs_no_guard(self):
        # a 4^23 coset would trip the guard, but 24 a_3 = r_3 - r_1 = -1 (mod 4) has no solution
        m = H.from_edges(4, 24, ((1, 2),))
        assert row_sum_profile(m).sums[:3] == (1, 3, 0)
        assert eulerian_in_orbit(m) == []

    def test_coset_matches_orbit_scan(self):
        # all l^(n-1) switchings against the coset, on random and zero matrices;
        # the hit count predicted before listing is 0 or gcd(n, l)^(n-2)
        rng = random.Random(2024)
        for modulus in range(2, 9):
            for size in range(1, 7):
                cases = [H.zero(modulus, size)]
                cases += [H.random_alt(rng, modulus, size) for _ in range(15)]
                for m in cases:
                    got = eulerian_in_orbit(m)
                    assert got == O.eulerian_in_orbit_scan(m), m
                    hits = eulerian._eulerian_coset(m)[2]
                    assert hits == len(got), m
                    assert hits in (0, math.gcd(size, modulus) ** max(size - 2, 0)), m

    def test_output_guard_refuses_at_once(self, monkeypatch):
        # 2^23 candidates, 2^22 hits of 24x24 entries: about 2.4e9 entries.
        # The guard must fire before any switching is built; a build fails
        # here at once rather than filling memory.
        def no_build(*args):
            raise AssertionError("listing started before the guard")

        monkeypatch.setattr(eulerian, "switch_many", no_build)
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match=r"2\^23 .* holds 4194304 Eulerian matrices"):
            eulerian_in_orbit(H.zero(2, 24))
        assert time.perf_counter() - start < 1.0

    def test_output_guard_admits_zero_two_sixteen(self):
        # 2^14 hits of 16x16 entries, about 4.2e6, under the guard
        assert 2**14 * 16 * 16 <= ENUM_GUARD
        got = eulerian_in_orbit(H.zero(2, 16))
        assert len(got) == 16384
        assert all(is_modular_eulerian(e) for e in got[:: 1024])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(matrices(moduli=(2, 3, 5), max_size=6))
    def test_agrees_with_eulerize_when_coprime(self, m):
        import math

        if math.gcd(m.size, m.modulus) != 1:
            return
        assert eulerian_in_orbit(m) == [eulerize(m)[0]]


class TestUniquenessUpToIsomorphism:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from([(3, 4), (3, 5), (5, 4), (2, 5), (4, 5)]),
        st.randoms(use_true_random=False),
    )
    def test_switching_equivalent_eulerian_matrices_are_isomorphic(self, mn, rng):
        modulus, size = mn
        m = H.random_alt(rng, modulus, size)
        e = eulerize(m)[0]
        a = tuple(rng.randrange(modulus) for _ in range(size))
        sigma = H.random_permutation(rng, size)
        moved = relabel(switch_many(e, a), sigma)
        ep = eulerize(moved)[0]
        found = isomorphic(e, ep)
        assert found is not None
        assert relabel(e, found) == ep

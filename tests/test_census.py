"""Exact class counting: Burnside route, brute-force route, representatives."""

from __future__ import annotations

import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import census_oracle as CO
import dense_census as D
import helpers as H
from skewswitch import (
    COUNT_GUARD,
    CensusResult,
    CycleType,
    ResourceGuardError,
    brute_force_census,
    canonical_class_form,
    canonical_iso_form,
    count_eulerian_classes,
    count_switching_classes,
    cycle_types,
    enumerate_eulerian_representatives,
    is_modular_eulerian,
    isomorphic,
    relabel,
    switch_many,
)
from skewswitch import census
from skewswitch.census import (
    REFERENCE_TABLES,
    _check_cycle_types,
    _check_enumeration,
    _class_walk,
    _decode_matrix,
    _fixed_eulerian,
    _orbit_system,
    _pairs,
    _relabelings,
)
from smith_oracle import count_solutions_mod

S2_TABLE = (1, 1, 2, 3, 7, 16, 54, 243, 2038, 33120, 1182004)
S3_TABLE = (1, 1, 2, 4, 14, 120, 3222, 271287, 64154817, 41653775052, 74220906305025)
T4_TABLE = (1, 1, 3, 8, 62, 1760)
# switching classes at modulus 3 and size 30, as counted on one column per orbit variable
S3_AT_30 = int(
    "193896219401708934108200419545788472000543810679500045915728583634744625605510559662267"
    "669246951012420224621754390189168775101374770595137549760145502584713589740"
)

# frozen outputs of the independent enumeration oracle
ORACLE_CENSUS = {
    (2, 1): (1, 1),
    (2, 2): (1, 1),
    (2, 3): (2, 2),
    (2, 4): (3, 3),
    (2, 5): (7, 7),
    (3, 3): (2, 2),
    (3, 4): (4, 4),
    (4, 2): (1, 1),
    (4, 3): (3, 3),
    (4, 4): (8, 8),
}


def entry_vector(m):
    return [m.entries[i][j] for i, j in _pairs(m.size)]


class TestCycleTypes:
    def test_class_sizes_sum_to_factorial(self):
        for n in range(1, 9):
            assert sum(ct.class_size for ct in cycle_types(n)) == math.factorial(n)

    def test_parts_partition_the_size(self):
        for n in range(1, 8):
            for ct in cycle_types(n):
                assert sum(ct.parts) == n
                assert all(a >= b for a, b in zip(ct.parts, ct.parts[1:]))

    def test_count_matches_partition_numbers(self):
        assert [len(cycle_types(n)) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]

    def test_guard_refuses_before_building(self, monkeypatch):
        # p(46) = 105558 is over COUNT_GUARD and refused at once, however large the size
        start = time.perf_counter()
        for n in (46, 100, 10**9):
            with pytest.raises(ResourceGuardError, match=f"more than {COUNT_GUARD} cycle types"):
                cycle_types(n)
        assert time.perf_counter() - start < 0.1
        # p(45) = 89134 passes the guard; with no partitions to walk nothing is built
        monkeypatch.setattr(census, "_partitions", lambda n, cap: iter(()))
        assert cycle_types(45) == ()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cycle_types(0)
        with pytest.raises(ValueError):
            CycleType((1, 2), 3)
        with pytest.raises(ValueError):
            CycleType((0,), 1)


class TestFixedPointSystem:
    """The dense systems behind the test oracle in dense_census."""

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            D.fixed_point_system(3, (1, 1, 2))

    def test_action_encodes_relabeling(self):
        import random

        rng = random.Random(30)
        for modulus, size in ((2, 4), (3, 5), (4, 5), (5, 6)):
            m = H.random_alt(rng, modulus, size)
            sigma = H.random_permutation(rng, size)
            system = D.fixed_point_system(size, sigma)
            act = np.array(system.action.entries)
            moved = act @ np.array(entry_vector(m)) % modulus
            assert moved.tolist() == entry_vector(relabel(m, sigma))

    def test_action_is_signed_permutation(self):
        system = D.fixed_point_system(5, (2, 3, 4, 5, 1))
        rows = np.array(system.action.entries)
        assert (np.abs(rows).sum(axis=0) == 1).all()
        assert (np.abs(rows).sum(axis=1) == 1).all()

    def test_boundary_kernel_is_row_sum_condition(self):
        import random

        m = H.random_alt(random.Random(31), 4, 6)
        system = D.fixed_point_system(6, tuple(range(1, 7)))
        bound = np.array(system.boundary.entries)
        sums = bound @ np.array(entry_vector(m)) % 4
        # sign convention: vertex v picks up -entry on outgoing pair slots
        assert sums.tolist() == [-sum(row) % 4 for row in m.entries]
        assert (sums == 0).all() == is_modular_eulerian(m)

    def test_switching_columns_are_switch_differences(self):
        size, modulus = 5, 3
        system = D.fixed_point_system(size, tuple(range(1, size + 1)))
        sw = np.array(system.switching.entries)
        for v in range(size):
            a = tuple(1 if k == v else 0 for k in range(size))
            diff = entry_vector(switch_many(H.zero(modulus, size), a))
            assert (sw[:, v] % modulus).tolist() == diff


class TestBurnsideCounts:
    def test_switching_classes_graph_table(self):
        for n, expected in enumerate(S2_TABLE, start=1):
            assert count_switching_classes(2, n) == expected

    def test_switching_classes_digraph_table(self):
        for n, expected in enumerate(S3_TABLE, start=1):
            assert count_switching_classes(3, n) == expected

    def test_eulerian_classes_modulus_four_table(self):
        for n, expected in enumerate(T4_TABLE, start=1):
            assert count_eulerian_classes(4, n) == expected

    def test_counts_agree_when_modulus_prime(self):
        for modulus, max_n in ((2, 8), (3, 6), (5, 4)):
            for n in range(1, max_n + 1):
                assert count_switching_classes(modulus, n) == count_eulerian_classes(
                    modulus, n
                )

    def test_counts_agree_when_coprime(self):
        assert count_switching_classes(4, 3) == count_eulerian_classes(4, 3) == 3
        assert count_switching_classes(4, 5) == count_eulerian_classes(4, 5) == 62

    def test_hand_checked_non_coprime_values(self):
        assert count_switching_classes(4, 2) == 1
        assert count_switching_classes(4, 4) == 8

    def test_trivial_sizes(self):
        for modulus in (2, 3, 4, 9):
            assert count_switching_classes(modulus, 1) == 1
            assert count_switching_classes(modulus, 2) == 1
            assert count_eulerian_classes(modulus, 1) == 1
            assert count_eulerian_classes(modulus, 2) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            count_switching_classes(1, 3)
        with pytest.raises(ValueError):
            count_eulerian_classes(3, 0)

    def test_large_prime_modulus(self):
        # past 2**32, where fixed-width elimination would overflow
        p = 4294967311
        assert count_switching_classes(p, 3) == count_eulerian_classes(p, 3) == (p + 1) // 2
        assert count_switching_classes(p, 4) == count_eulerian_classes(p, 4)
        assert count_eulerian_classes(p, 4) == D.count_eulerian_classes(p, 4)
        assert count_switching_classes(p, 4) == D.count_switching_classes(p, 4)

    def test_digraphs_on_thirty_vertices_within_time(self):
        # 5604 cycle types: about 1 s on the lattice systems, 11-14 s with one column
        # per orbit variable (Python 3.11, one Intel Xeon core)
        start = time.perf_counter()
        got = count_switching_classes(3, 30)
        elapsed = time.perf_counter() - start
        assert got == S3_AT_30
        assert elapsed < 5.0, f"count_switching_classes(3, 30) took {elapsed:.1f}s"

    def test_cycle_type_guard_counts_partitions(self):
        # the pentagonal recurrence lands exactly on the number of cycle types
        for n in range(1, 31):
            p = len(cycle_types(n))
            _check_cycle_types(n, p)
            with pytest.raises(ResourceGuardError, match=f"p\\({n}\\) = {p}"):
                _check_cycle_types(n, p - 1)

    def test_count_guard_refuses_at_once(self):
        # p(45) = 89134 is admitted, p(46) = 105558 is not; nothing is solved before refusing
        start = time.perf_counter()
        for n in (46, 100, 10**9):
            for counter in (count_switching_classes, count_eulerian_classes):
                with pytest.raises(ResourceGuardError, match=f"more than {COUNT_GUARD} cycle types"):
                    counter(3, n)
        assert time.perf_counter() - start < 1.0
        _check_cycle_types(45, COUNT_GUARD)

    def test_reference_tables_match_recomputation(self):
        for (modulus, kind), values in REFERENCE_TABLES.items():
            counter = (
                count_switching_classes if kind == "classes" else count_eulerian_classes
            )
            assert tuple(counter(modulus, n) for n in range(1, len(values) + 1)) == values


class TestOrbitSystemAgainstDenseOracle:
    """The orbit lattice system against the dense systems of dense_census."""

    def test_fixed_counts_per_cycle_type(self):
        # pins the duality relabeling by relabeling, not only in the sum
        for size in range(1, 7):
            for ct in cycle_types(size):
                sigma = D.cycle_permutation(size, ct.parts)
                for modulus in range(2, 9):
                    fixed = _fixed_eulerian(ct.parts, modulus)
                    assert fixed == D.eulerian_fixed(modulus, size, sigma), (modulus, ct)
                    assert fixed == D.switching_fixed(modulus, size, sigma), (modulus, ct)

    def test_fixed_counts_match_orbit_variable_system(self):
        # the lattice reduction against one column per orbit variable, past the dense sizes
        for size in range(1, 13):
            for ct in cycle_types(size):
                system = D.orbit_variable_system(ct.parts)
                for modulus in (*range(2, 13), 4294967311):
                    expected = count_solutions_mod(system, modulus)
                    assert _fixed_eulerian(ct.parts, modulus) == expected, (modulus, ct)

    def test_system_shape(self):
        # parts (4, 2, 1): rows for lengths 4, 2, 1 and for the two half orbits;
        # columns for the two half orbits and the three pairs of lengths, out of
        # 7 orbit variables (offsets 1, 2 and 1; gcds 2, 1, 1)
        rows, free = _orbit_system((4, 2, 1))
        assert (len(rows), {len(row) for row in rows}, free) == (3 + 2, {2 + 3}, 7 - 5)
        # the identity: one merged row and no columns, so l^C(n-1, 2) fixed matrices
        rows, free = _orbit_system((1,) * 12)
        assert (rows, free) == ([[]], math.comb(11, 2))

    def test_whole_counts(self):
        for modulus in range(2, 13):
            for size in range(1, 8):
                s = count_switching_classes(modulus, size)
                t = count_eulerian_classes(modulus, size)
                assert s == t == D.count_switching_classes(modulus, size), (modulus, size)
                assert t == D.count_eulerian_classes(modulus, size), (modulus, size)


class TestBruteForceCensus:
    def test_matches_frozen_oracle(self):
        for (modulus, size), (s, t) in ORACLE_CENSUS.items():
            got = brute_force_census(modulus, size)
            assert (got.switching_classes, got.eulerian_classes) == (s, t)

    def test_agrees_with_burnside(self):
        for modulus, size in ORACLE_CENSUS:
            got = brute_force_census(modulus, size)
            assert got.switching_classes == count_switching_classes(modulus, size)
            assert got.eulerian_classes == count_eulerian_classes(modulus, size)

    def test_representatives_are_canonical_eulerian_and_distinct(self):
        got = brute_force_census(3, 4)
        reps = got.representatives
        assert len(reps) == got.eulerian_classes == 4
        for r in reps:
            assert is_modular_eulerian(r)
            assert canonical_iso_form(r) == r
        for a, b in combinations(reps, 2):
            assert isomorphic(a, b) is None
        assert list(reps) == sorted(reps, key=lambda m: m.entries)

    def test_representatives_match_classification_digraphs(self):
        reps = brute_force_census(3, 4).representatives
        displays = [H.from_edges(3, 4, arcs) for arcs, _, _ in H.CLASSES_4]
        matched = set()
        for r in reps:
            hits = [k for k, d in enumerate(displays) if isomorphic(r, d) is not None]
            assert len(hits) == 1
            matched.add(hits[0])
        assert matched == {0, 1, 2, 3}

    def test_agrees_with_full_walk_oracle(self):
        # every case the oracle's walk over all l^C(n,2) matrices answers in seconds
        cases = [(l, n) for l in range(2, 8) for n in range(1, 5)] + [(2, 5), (3, 5), (2, 6)]
        for modulus, size in cases:
            want = CO.brute_force_census(modulus, size)
            assert brute_force_census(modulus, size) == want, (modulus, size)
            assert enumerate_eulerian_representatives(modulus, size) == list(want.representatives)

    def test_class_walk_keeps_canonical_class_forms(self):
        # every matrix is switching equivalent to its isolation at vertex 1, so
        # the matrices with a zero first row carry every canonical_class_form
        for modulus in range(2, 6):
            for size in range(1, 6):
                zero_first_row = range(modulus ** math.comb(size - 1, 2))
                forms = {canonical_class_form(_decode_matrix(c, modulus, size)) for c in zero_first_row}
                walked = _class_walk(modulus, size, _relabelings(size))
                assert [_decode_matrix(c, modulus, size) for c in walked] == sorted(
                    forms, key=lambda m: m.entries
                ), (modulus, size)

    def test_switching_count_reads_the_isolation_step(self, monkeypatch):
        # the two counts are always equal; with every isolation read as the zero
        # matrix, each code is a class of its own and only the switching count moves
        monkeypatch.setattr(census, "_isolated_entries", lambda modulus, grid, u, pairs: [0] * len(pairs))
        got = brute_force_census(3, 5)
        assert (got.switching_classes, got.eulerian_classes) == (3**6, 14)

    def test_reproduces_reference_tables_without_burnside(self):
        # the published rows, from the enumeration alone: (2, 7) gives 54 and (4, 6) 1760
        rows = {(2, "classes"): 7, (3, "classes"): 6, (4, "eulerian"): 6}
        for (modulus, kind), top in rows.items():
            got = [brute_force_census(modulus, n) for n in range(1, top + 1)]
            counts = [r.switching_classes if kind == "classes" else r.eulerian_classes for r in got]
            assert tuple(counts) == REFERENCE_TABLES[modulus, kind][:top], (modulus, kind)

    def test_answers_what_the_full_walk_refused(self):
        # 4^10 * 5! and 5^10 * 5! were over the guard on all matrices; the walk
        # over a zero first row takes 4^6 and 5^6 of them
        for modulus in (4, 5):
            with pytest.raises(ResourceGuardError):
                CO.brute_force_census(modulus, 5)
            got = brute_force_census(modulus, 5)
            want = count_switching_classes(modulus, 5)
            assert (got.switching_classes, got.eulerian_classes, len(got.representatives)) == (want,) * 3

    def test_resource_guard(self):
        # two walks of codes plus n! images per orbit: (2, 8) scans 2 * 2^21 codes
        # but has 2 * 243 * 8! images; (3, 7) and (2, 40) are refused on the codes alone
        start = time.perf_counter()
        for modulus, size in ((2, 8), (3, 7), (2, 40), (10**30, 3)):
            with pytest.raises(ResourceGuardError, match="over the bound"):
                brute_force_census(modulus, size)
        assert time.perf_counter() - start < 1.0
        # answered, with the published counts, in test_reproduces_reference_tables_without_burnside
        for modulus, size in ((2, 7), (4, 6)):
            _check_enumeration("brute-force census", modulus, size, walks=2)

    def test_encoding_guard(self):
        # 3e6 codes fit the guard, but their 1.5e6 orbits of 3! images do not
        with pytest.raises(ResourceGuardError, match="orbits of 3! relabelings"):
            brute_force_census(3_000_000, 3)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            brute_force_census(0, 3)


class TestEnumerateEulerianRepresentatives:
    def test_single_vertex(self):
        assert enumerate_eulerian_representatives(3, 1) == [H.zero(3, 1)]

    def test_graphs_on_four_vertices(self):
        reps = enumerate_eulerian_representatives(2, 4)
        assert len(reps) == 3
        for r in reps:
            assert is_modular_eulerian(r)

    def test_counts_match_burnside(self):
        for modulus in (2, 3, 4, 5):
            for size in range(1, 6):
                reps = enumerate_eulerian_representatives(modulus, size)
                assert len(reps) == count_eulerian_classes(modulus, size)

    def test_larger_digraph_count(self):
        assert len(enumerate_eulerian_representatives(3, 6)) == 120

    def test_agrees_with_brute_force_representatives(self):
        for modulus, size in ((2, 4), (2, 5), (3, 4), (4, 3), (4, 4)):
            brute = CO.brute_force_census(modulus, size).representatives
            assert enumerate_eulerian_representatives(modulus, size) == list(brute)

    def test_pairwise_non_isomorphic(self):
        reps = enumerate_eulerian_representatives(3, 5)
        assert len(reps) == 14
        for a, b in combinations(reps, 2):
            assert isomorphic(a, b) is None

    def test_canonical_and_sorted(self):
        reps = enumerate_eulerian_representatives(4, 4)
        assert [canonical_iso_form(r) for r in reps] == reps
        assert reps == sorted(reps, key=lambda m: m.entries)

    def test_enumeration_guard(self):
        # 3^15 codes are refused at once; (2, 8) and (5, 6) scan fewer than 10^7
        # codes, but their orbits of n! images take them over the bound
        for modulus, size in ((3, 7), (2, 8), (5, 6)):
            with pytest.raises(ResourceGuardError, match="over the bound"):
                enumerate_eulerian_representatives(modulus, size)
        assert len(enumerate_eulerian_representatives(2, 7)) == 54
        # the same walk answers (4, 6) in test_reproduces_reference_tables_without_burnside
        _check_enumeration("listing", 4, 6, walks=1)

    def test_encoding_guard(self):
        with pytest.raises(ResourceGuardError, match="orbits of 3! relabelings"):
            enumerate_eulerian_representatives(3_000_000, 3)

    def test_output_is_bounded(self):
        # the codes and 3! images per orbit fit, but not with the orbits' 3^2
        # entries each; at 2499999 the listing held 761 MiB before this bound
        start = time.perf_counter()
        for modulus in (2_499_999, 1_176_471):
            with pytest.raises(ResourceGuardError, match="3\\^2 entries for each of"):
                enumerate_eulerian_representatives(modulus, 3)
        for modulus in (1_249_999, 800_001):
            with pytest.raises(ResourceGuardError, match="3\\^2 entries for each of"):
                brute_force_census(modulus, 3)
        assert time.perf_counter() - start < 1.0
        _check_enumeration("listing", 1_176_469, 3, walks=1)
        _check_enumeration("brute-force census", 799_999, 3, walks=2)

    @pytest.mark.parametrize(
        "modulus, size, brute",
        # the sizes the benchmark's census requests send
        [(l, n, False) for l, n in ((2, 4), (2, 5), (3, 4), (3, 5), (4, 4), (5, 4), (6, 4), (7, 4), (4, 3))]
        + [(l, n, True) for l, n in ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 4), (5, 4))],
    )
    def test_benchmark_sizes_still_answer(self, modulus, size, brute):
        if brute:
            got = brute_force_census(modulus, size).eulerian_classes
        else:
            got = len(enumerate_eulerian_representatives(modulus, size))
        assert got == count_eulerian_classes(modulus, size)

    def test_walk_is_checked_against_burnside(self, monkeypatch):
        # a walk that loses a class is an error, not a short listing
        walk = census._eulerian_walk
        monkeypatch.setattr(census, "_eulerian_walk", lambda *args: walk(*args)[1:])
        with pytest.raises(RuntimeError, match="met 13 classes, the Burnside count is 14"):
            enumerate_eulerian_representatives(3, 5)


class TestCensusResult:
    def test_fields(self):
        got = brute_force_census(2, 3)
        assert got == CensusResult(2, 3, 2, 2, got.representatives)
        assert got.modulus == 2 and got.size == 3

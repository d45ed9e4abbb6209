"""Skew matrices mod l: switching, relabeling, invariants, equivalence."""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import helpers as H
import search_oracle as SO
import triple_route as T
from skewswitch import (
    AltMatrix,
    EquivWitness,
    ResourceGuardError,
    brute_force_census,
    canonical_class_form,
    canonical_iso_form,
    count_switching_classes,
    enumerate_eulerian_representatives,
    eulerian_in_orbit,
    facets,
    isolate,
    isomorphic,
    make,
    relabel,
    switch,
    switch_many,
    switching_equivalent,
    verify_witness,
)
from skewswitch import skewmat


@st.composite
def matrices(draw, moduli=(2, 3, 4, 5, 6), max_size=6):
    modulus = draw(st.sampled_from(moduli))
    size = draw(st.integers(1, max_size))
    k = size * (size - 1) // 2
    upper = draw(st.lists(st.integers(0, modulus - 1), min_size=k, max_size=k))
    return H.from_upper(modulus, size, upper)


@st.composite
def matrix_and_vertex(draw):
    m = draw(matrices())
    v = draw(st.integers(1, m.size))
    return m, v


def compose(sigma, tau):
    # image of the composite "tau after sigma"
    return tuple(tau[sigma[i] - 1] for i in range(len(sigma)))


class TestMake:
    def test_accepts_reduced_skew_pair(self):
        m = make(3, 2, [[0, 1], [2, 0]])
        assert m.entries == ((0, 1), (2, 0))

    def test_rejects_non_skew_pair_naming_the_cell(self):
        with pytest.raises(ValueError) as err:
            make(3, 2, [[0, 1], [1, 0]])
        assert "(2,1)" in str(err.value) or "(1,2)" in str(err.value)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError) as err:
            AltMatrix(3, 1, ((1,),))
        assert "(1,1)" in str(err.value)

    def test_reduces_entries_mod_l(self):
        m = make(3, 2, [[0, 4], [-4, 0]])
        assert m.entries == ((0, 1), (2, 0))

    def test_rejects_unreduced_direct_construction(self):
        with pytest.raises(ValueError):
            AltMatrix(3, 2, ((0, 4), (2, 0)))

    def test_one_by_one(self):
        assert make(5, 1, [[0]]).entries == ((0,),)

    def test_self_paired_entries_at_even_modulus(self):
        # 2 + 2 = 4 = 0 mod 4, so entry 2 may sit opposite itself
        m = make(4, 2, [[0, 2], [2, 0]])
        assert m.entries == ((0, 2), (2, 0))

    @pytest.mark.parametrize("cell", [0.5, "1", None], ids=["float", "str", "None"])
    def test_refuses_entries_that_are_not_integers(self, cell):
        # int() would truncate 0.5 to the zero entry and parse "1": wrong answers, not refusals
        with pytest.raises(ValueError, match=r"entry at \(2,1\) must be an integer"):
            make(3, 2, [[0, 1], [cell, 0]])


class TestSwitch:
    def test_graph_display(self):
        m = make(2, 4, H.SWITCH_GRAPH_IN)
        assert switch(m, 3) == make(2, 4, H.SWITCH_GRAPH_OUT)

    def test_digraph_display(self):
        m = make(3, 4, H.SWITCH_DIGRAPH_IN)
        assert switch(m, 3) == make(3, 4, H.SWITCH_DIGRAPH_OUT)

    def test_switch_of_zero_decrements_row_increments_column(self):
        m = switch(H.zero(3, 4), 1)
        assert m.entries[0] == (0, 2, 2, 2)
        assert tuple(row[0] for row in m.entries) == (0, 1, 1, 1)

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            switch(H.zero(3, 3), 4)
        with pytest.raises(ValueError):
            switch(H.zero(3, 3), 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(matrix_and_vertex())
    def test_order_divides_modulus(self, mv):
        m, v = mv
        out = m
        for _ in range(m.modulus):
            out = switch(out, v)
        assert out == m

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(matrix_and_vertex())
    def test_commutes_with_other_vertices(self, mv):
        m, v = mv
        w = v % m.size + 1
        assert switch(switch(m, v), w) == switch(switch(m, w), v)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(matrices())
    def test_product_over_all_vertices_is_identity(self, m):
        out = m
        for v in range(1, m.size + 1):
            out = switch(out, v)
        assert out == m


class TestSwitchMany:
    def test_constant_exponents_act_trivially(self):
        m = H.random_alt(random.Random(5), 4, 5)
        for c in range(4):
            assert switch_many(m, (c,) * 5) == m

    def test_unit_vector_is_single_switch(self):
        m = H.random_alt(random.Random(6), 3, 4)
        assert switch_many(m, (0, 1, 0, 0)) == switch(m, 2)

    def test_entry_formula(self):
        # entry (i, j) moves by a_j - a_i
        m = switch_many(H.zero(5, 3), (0, 1, 3))
        assert m.entries == ((0, 1, 3), (4, 0, 2), (2, 3, 0))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            switch_many(H.zero(3, 3), (1, 2))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(matrices(), st.data())
    def test_matches_iterated_switch(self, m, data):
        a = data.draw(
            st.lists(
                st.integers(0, m.modulus - 1), min_size=m.size, max_size=m.size
            )
        )
        out = m
        for v, e in enumerate(a, start=1):
            for _ in range(e):
                out = switch(out, v)
        assert switch_many(m, tuple(a)) == out


class TestRelabel:
    def test_identity(self):
        m = H.random_alt(random.Random(7), 3, 5)
        assert relabel(m, (1, 2, 3, 4, 5)) == m

    def test_swap_two_vertices(self):
        m = make(3, 2, [[0, 1], [2, 0]])
        assert relabel(m, (2, 1)) == make(3, 2, [[0, 2], [1, 0]])

    def test_three_cycle_moves_single_entry(self):
        m = H.from_upper(3, 3, [1, 0, 0])
        # sigma sends 1 -> 2, 2 -> 3, 3 -> 1, so entry (1,2) lands at (2,3)
        out = relabel(m, (2, 3, 1))
        assert out == H.from_upper(3, 3, [0, 0, 1])

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            relabel(H.zero(3, 3), (1, 1, 2))
        with pytest.raises(ValueError):
            relabel(H.zero(3, 3), (1, 2))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(matrices(), st.randoms(use_true_random=False))
    def test_composition(self, m, rng):
        sigma = H.random_permutation(rng, m.size)
        tau = H.random_permutation(rng, m.size)
        assert relabel(relabel(m, sigma), tau) == relabel(m, compose(sigma, tau))


class TestTripleTensor:
    def test_zero_matrix(self):
        t = T.triple_tensor(H.zero(3, 4))
        assert t.values == (0, 0, 0, 0)

    def test_hand_example(self):
        # t_123 = m_12 + m_23 + m_31 = 1 + 1 + 1 = 0 mod 3
        m = H.from_upper(3, 3, [1, 2, 1])
        assert T.triple_tensor(m).values == (0,)

    def test_small_sizes_have_no_triples(self):
        assert T.triple_tensor(H.zero(4, 1)).values == ()
        assert T.triple_tensor(H.zero(4, 2)).values == ()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(matrix_and_vertex())
    def test_switching_invariance(self, mv):
        m, v = mv
        assert T.triple_tensor(switch(m, v)) == T.triple_tensor(m)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(matrices(), st.randoms(use_true_random=False))
    def test_relabel_acts_with_sign(self, m, rng):
        sigma = H.random_permutation(rng, m.size)
        t = T.triple_tensor(m)
        tp = T.triple_tensor(relabel(m, sigma))
        idx = {
            trip: k for k, trip in enumerate(combinations(range(1, m.size + 1), 3))
        }
        for (i, j, h), k in idx.items():
            image = (sigma[i - 1], sigma[j - 1], sigma[h - 1])
            target = tp.values[idx[tuple(sorted(image))]]
            flips = sum(
                1 for a, b in combinations(image, 2) if a > b
            )
            expected = t.values[k] if flips % 2 == 0 else (-t.values[k]) % m.modulus
            assert target == expected


class TestPotentialWitness:
    def test_zero_difference(self):
        assert H.potential_witness(H.zero(3, 4)) == (0, 0, 0, 0)

    def test_row_decrement_column_increment_difference(self):
        # the difference produced by one switch at vertex 1
        d = switch(H.zero(3, 4), 1)
        assert H.potential_witness(d) == (0, 2, 2, 2)

    def test_non_potential_difference(self):
        d = H.from_upper(3, 3, [1, 1, 1])
        assert H.potential_witness(d) is None

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(matrices(), st.data())
    def test_recovers_applied_exponents(self, m, data):
        a = data.draw(
            st.lists(
                st.integers(0, m.modulus - 1), min_size=m.size, max_size=m.size
            )
        )
        d = H.from_upper(
            m.modulus,
            m.size,
            [
                (a[j] - a[i]) % m.modulus
                for i in range(m.size)
                for j in range(i + 1, m.size)
            ],
        )
        got = H.potential_witness(d)
        assert got is not None
        assert got[0] == 0
        assert tuple((v - a[i] + a[0]) % m.modulus for i, v in enumerate(got)) == (
            0,
        ) * m.size

    def test_exhaustive_against_lattice(self):
        # present exactly on the differences reachable by switching
        for modulus, size in ((2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (4, 4)):
            lattice = set()
            for a in product(range(modulus), repeat=size - 1):
                exps = (0,) + a
                lattice.add(switch_many(H.zero(modulus, size), exps))
            k = size * (size - 1) // 2
            for upper in product(range(modulus), repeat=k):
                d = H.from_upper(modulus, size, upper)
                w = H.potential_witness(d)
                if d in lattice:
                    assert w is not None
                    assert switch_many(H.zero(modulus, size), w) == d
                else:
                    assert w is None


class TestSwitchingEquivalent:
    def test_single_switch_found_with_identity_relabeling(self):
        m = H.random_alt(random.Random(8), 3, 5)
        w = switching_equivalent(m, switch(m, 2))
        assert w == EquivWitness((1, 2, 3, 4, 5), (0, 1, 0, 0, 0))

    def test_pure_relabel_found(self):
        m = H.from_upper(3, 3, [1, 0, 0])
        w = switching_equivalent(m, relabel(m, (2, 3, 1)))
        assert w is not None
        assert verify_witness(m, relabel(m, (2, 3, 1)), w)

    def test_any_two_matrices_of_size_two_are_equivalent(self):
        for modulus in (2, 3, 4, 5):
            for x in range(modulus):
                for y in range(modulus):
                    a = H.from_upper(modulus, 2, [x])
                    b = H.from_upper(modulus, 2, [y])
                    assert switching_equivalent(a, b) is not None

    def test_six_vertex_counterexample_pair_not_equivalent(self):
        a = H.from_edges(3, 6, H.PAIR_6_A_ARCS)
        b = H.from_edges(3, 6, H.PAIR_6_B_ARCS)
        assert switching_equivalent(a, b) is None

    def test_three_variable_pair_not_equivalent_any_modulus(self):
        for modulus in (4, 5, 6, 7):
            a, b = H.three_var_pair(modulus)
            assert switching_equivalent(a, b) is None

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            switching_equivalent(H.zero(2, 3), H.zero(3, 3))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            switching_equivalent(H.zero(3, 3), H.zero(3, 4))
        with pytest.raises(ValueError):
            isomorphic(H.zero(3, 3), H.zero(3, 4))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(matrices(max_size=5), st.randoms(use_true_random=False))
    def test_witness_verifies_on_constructed_pairs(self, m, rng):
        a = tuple(rng.randrange(m.modulus) for _ in range(m.size))
        sigma = H.random_permutation(rng, m.size)
        target = relabel(switch_many(m, a), sigma)
        w = switching_equivalent(m, target)
        assert w is not None
        assert verify_witness(m, target, w)
        assert relabel(switch_many(m, w.exponents), w.sigma) == target

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(matrices(max_size=5))
    def test_deterministic(self, m):
        target = relabel(switch_many(m, (1,) * m.size), tuple(range(m.size, 0, -1)))
        assert switching_equivalent(m, target) == switching_equivalent(m, target)


class TestTripleRouteOracle:
    """The isolation route against the triple-sum route kept in tests/triple_route.py."""

    @pytest.mark.parametrize("modulus", range(2, 8))
    def test_routes_agree_on_yes_converse_and_perturbed_pairs(self, modulus):
        rng = random.Random(900 + modulus)
        for size in range(1, 7):
            for _ in range(4):
                m = H.random_alt(rng, modulus, size)
                a = tuple(rng.randrange(modulus) for _ in range(size))
                yes = relabel(switch_many(m, a), H.random_permutation(rng, size))
                # the converse -M always passes the profile pre-check
                converse = make(modulus, size, [[-x for x in row] for row in yes.entries])
                pairs = [yes, converse]
                if size >= 2:
                    i, j = rng.sample(range(size), 2)
                    grid = [list(row) for row in yes.entries]
                    grid[i][j] += rng.randrange(1, modulus)
                    grid[j][i] = -grid[i][j]
                    pairs.append(make(modulus, size, grid))
                for target in pairs:
                    new = switching_equivalent(m, target)
                    old = T.switching_equivalent(m, target)
                    assert (new is None) == (old is None)
                    for w in (new, old):
                        assert w is None or verify_witness(m, target, w)
                    same_new = canonical_class_form(m) == canonical_class_form(target)
                    same_old = T.canonical_class_form(m) == T.canonical_class_form(target)
                    assert same_new == same_old == (new is not None)
                assert switching_equivalent(m, yes) is not None

    def test_unverified_witness_is_never_returned(self, monkeypatch):
        m = H.random_alt(random.Random(14), 3, 5)
        monkeypatch.setattr(skewmat, "verify_witness", lambda *args: False)
        with pytest.raises(RuntimeError):
            switching_equivalent(m, switch(m, 2))


def _perturbed_pairs(rng, m):
    """A switched, relabeled copy of m, its converse, and a one-entry perturbation."""
    modulus, size = m.modulus, m.size
    a = tuple(rng.randrange(modulus) for _ in range(size))
    yes = relabel(switch_many(m, a), H.random_permutation(rng, size))
    pairs = [yes, make(modulus, size, [[-x for x in row] for row in yes.entries])]
    if size >= 2:
        i, j = rng.sample(range(size), 2)
        grid = [list(row) for row in yes.entries]
        grid[i][j] += rng.randrange(1, modulus)
        grid[j][i] = -grid[i][j]
        pairs.append(make(modulus, size, grid))
    return pairs


def _profile_by_definition(m, v):
    l = m.modulus
    folded = Counter(min(x, l - x) for row in isolate(m, v).entries for x in row)
    return tuple(sorted(folded.items()))


class TestVertexProfiles:
    """Per-vertex triple profiles: the pre-check and filter of switching_equivalent."""

    @pytest.mark.parametrize("modulus", [*range(2, 21), 127, 128, 129, 131])
    def test_profiles_are_folded_isolation_counts(self, modulus):
        # moduli up to 128 take the byte kernel, larger ones the triple pass
        rng = random.Random(700 + modulus)
        for size in range(1, 9):
            for m in [H.zero(modulus, size)] + [H.random_alt(rng, modulus, size) for _ in range(3)]:
                want = [_profile_by_definition(m, v) for v in range(1, size + 1)]
                assert skewmat._vertex_profiles(m) == want, m
                assert skewmat._vertex_profiles_by_triples(m) == want, m

    @pytest.mark.parametrize("modulus", [*range(2, 8), 17, 131])
    def test_witness_identical_to_unfiltered_search(self, modulus):
        # the search before profiles: folded triple multiset, then every isolation
        rng = random.Random(1100 + modulus)
        max_size = 8 if modulus <= 7 else 6
        for size in range(1, max_size + 1):
            for _ in range(6):
                m = H.random_alt(rng, modulus, size)
                for target in _perturbed_pairs(rng, m):
                    assert switching_equivalent(m, target) == T.switching_equivalent_unfiltered(m, target)

    def _count_searches(self, monkeypatch):
        calls = []
        search = skewmat._isomorphism

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(skewmat, "_isomorphism", counted)
        return calls

    def test_distinct_profiles_search_once(self, monkeypatch):
        rng = random.Random(21)
        m = H.random_alt(rng, 5, 24)
        profiles = skewmat._vertex_profiles(m)
        assert len(set(profiles)) == 24
        target = relabel(switch_many(m, [rng.randrange(5) for _ in range(24)]), H.random_permutation(rng, 24))
        calls = self._count_searches(monkeypatch)
        w = switching_equivalent(m, target)
        assert w is not None and verify_witness(m, target, w)
        assert len(calls) == 1

    def test_vertex_transitive_pair_still_verifies(self, monkeypatch):
        # every vertex of the Paley tournament has the same profile, so none is skipped
        rng = random.Random(19)
        m = H.paley(19, 3)
        assert len(set(skewmat._vertex_profiles(m))) == 1
        target = relabel(switch_many(m, [rng.randrange(3) for _ in range(19)]), H.random_permutation(rng, 19))
        calls = self._count_searches(monkeypatch)
        w = switching_equivalent(m, target)
        assert w is not None and verify_witness(m, target, w)
        assert w == T.switching_equivalent_unfiltered(m, target)
        assert len(calls) >= 1

    def test_profiles_sum_to_the_folded_triple_multiset(self):
        # so the profile pre-check rejects every pair the multiset pre-check rejected
        rng = random.Random(31)
        for modulus in (2, 3, 5, 131):
            for size in range(3, 8):
                m = H.random_alt(rng, modulus, size)
                total = Counter()
                for profile in skewmat._vertex_profiles(m):
                    total.update(dict(profile))
                folded = Counter(T.folded_triple_multiset(m))
                # each triple appears in three profiles, twice each; the rest are zeros
                zeros = size * (3 * size - 2)
                assert total - Counter({0: zeros}) == Counter({t: 6 * k for t, k in folded.items()})


class TestIsomorphic:
    def test_identity(self):
        m = H.random_alt(random.Random(9), 4, 5)
        assert isomorphic(m, m) == (1, 2, 3, 4, 5)

    def test_entry_multiset_obstruction(self):
        a = H.from_upper(5, 3, [0, 0, 1])
        b = H.from_upper(5, 3, [0, 0, 2])
        assert isomorphic(a, b) is None

    def test_swap(self):
        a = make(3, 2, [[0, 1], [2, 0]])
        b = make(3, 2, [[0, 2], [1, 0]])
        assert isomorphic(a, b) == (2, 1)

    def test_unverified_isomorphism_is_never_returned(self, monkeypatch):
        m = H.random_alt(random.Random(15), 3, 5)
        # a search that answers the identity although the target is relabeled
        monkeypatch.setattr(skewmat, "_extend_isomorphism", lambda *args: (1, 2, 3, 4, 5))
        target = relabel(m, (2, 3, 4, 5, 1))
        assert target != m
        with pytest.raises(RuntimeError):
            isomorphic(m, target)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(matrices(max_size=6), st.randoms(use_true_random=False))
    def test_relabel_roundtrip(self, m, rng):
        sigma = H.random_permutation(rng, m.size)
        target = relabel(m, sigma)
        found = isomorphic(m, target)
        assert found is not None
        assert relabel(m, found) == target


class TestCanonicalForms:
    def test_class_form_of_zero(self):
        # every isolation of a matrix in the zero class is the zero matrix
        assert canonical_class_form(H.zero(3, 4)) == H.zero(3, 4)
        assert canonical_class_form(switch(H.zero(3, 4), 2)) == H.zero(3, 4)

    def test_class_form_constant_on_display_pair(self):
        before = make(3, 4, H.SWITCH_DIGRAPH_IN)
        after = make(3, 4, H.SWITCH_DIGRAPH_OUT)
        assert canonical_class_form(before) == canonical_class_form(after)

    def test_class_form_separates_inequivalent_pair(self):
        a = H.from_edges(3, 6, H.PAIR_6_A_ARCS)
        b = H.from_edges(3, 6, H.PAIR_6_B_ARCS)
        assert canonical_class_form(a) != canonical_class_form(b)

    def test_class_form_partitions_all_3x3_matrices(self):
        forms = {
            canonical_class_form(H.from_upper(3, 3, upper))
            for upper in product(range(3), repeat=3)
        }
        assert len(forms) == 2

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(matrices(max_size=5), st.randoms(use_true_random=False))
    def test_class_form_invariant_under_switch_and_relabel(self, m, rng):
        a = tuple(rng.randrange(m.modulus) for _ in range(m.size))
        sigma = H.random_permutation(rng, m.size)
        moved = relabel(switch_many(m, a), sigma)
        form = canonical_class_form(m)
        assert canonical_class_form(moved) == form
        assert form.entries[0] == (0,) * m.size
        assert switching_equivalent(m, form) is not None

    @pytest.mark.parametrize("modulus, size", [(2, 5), (3, 4), (4, 4), (5, 4)])
    def test_class_form_count_matches_burnside(self, modulus, size):
        k = size * (size - 1) // 2
        forms = {
            canonical_class_form(H.from_upper(modulus, size, upper))
            for upper in product(range(modulus), repeat=k)
        }
        assert len(forms) == count_switching_classes(modulus, size)

    def test_iso_form_picks_lex_least_labeling(self):
        assert canonical_iso_form(make(3, 2, [[0, 2], [1, 0]])) == make(
            3, 2, [[0, 1], [2, 0]]
        )

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(matrices(max_size=5), st.randoms(use_true_random=False))
    def test_iso_form_invariant_and_reachable(self, m, rng):
        sigma = H.random_permutation(rng, m.size)
        canon = canonical_iso_form(m)
        assert canonical_iso_form(relabel(m, sigma)) == canon
        assert isomorphic(m, canon) is not None

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(matrices(max_size=4))
    def test_iso_form_is_row_major_minimum(self, m):
        flat = lambda x: tuple(v for row in x.entries for v in row)
        best = min(
            (flat(relabel(m, sigma)) for sigma in permutations(range(1, m.size + 1))),
        )
        assert flat(canonical_iso_form(m)) == best


class TestIsolate:
    def test_zeroes_the_requested_row_and_column(self):
        m = H.random_alt(random.Random(10), 4, 6)
        for v in range(1, 7):
            out = isolate(m, v)
            assert out.entries[v - 1] == (0,) * 6
            assert tuple(row[v - 1] for row in out.entries) == (0,) * 6

    def test_is_a_pure_switching(self):
        m = H.random_alt(random.Random(11), 3, 5)
        out = isolate(m, 3)
        assert H.potential_witness(H.difference(out, m)) is not None

    def test_idempotent(self):
        m = H.random_alt(random.Random(12), 4, 5)
        once = isolate(m, 2)
        assert isolate(once, 2) == once

    def test_fan_displays(self):
        fan = H.from_edges(3, 4, H.FAN_4_ARCS)
        assert H.arcs_of(isolate(fan, 1)) == set(H.FAN_4_ISOLATION_1)
        assert H.arcs_of(isolate(fan, 2)) == set(H.FAN_4_ISOLATION_2)
        assert isolate(fan, 4) == isolate(fan, 2)
        assert H.arcs_of(isolate(fan, 3)) == set(H.FAN_4_ISOLATION_3)


class TestSearchesAgainstRecursiveOracle:
    """The explicit-stack searches visit nodes as the recursive oracle does, so they answer alike."""

    @staticmethod
    def assert_same_answers(m, iso_target, equiv_target):
        shipped = (isomorphic(m, iso_target), switching_equivalent(m, equiv_target))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(skewmat, "_extend_isomorphism", SO.extend_isomorphism)
            assert (isomorphic(m, iso_target), switching_equivalent(m, equiv_target)) == shipped

    @staticmethod
    def assert_same_rows(m, firsts):
        # the rows of both canonical forms: least relabelings of m and of its isolations
        for v in firsts:
            assert skewmat._least_relabeling(m, v, [0]) == SO._least_relabeling(m, v)
            assert skewmat._least_relabeling(isolate(m, v), v, [0]) == SO._least_relabeling(isolate(m, v), v)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(matrices(), st.randoms(use_true_random=False))
    def test_property_cases(self, m, rng):
        sigma = H.random_permutation(rng, m.size)
        switched = relabel(switch_many(m, [rng.randrange(m.modulus) for _ in range(m.size)]), sigma)
        self.assert_same_answers(m, relabel(m, sigma), switched)
        other = H.random_alt(rng, m.modulus, m.size)
        self.assert_same_answers(m, other, other)
        self.assert_same_rows(m, range(1, m.size + 1))

    @pytest.mark.parametrize("p, modulus", [*((p, 2) for p in (5, 13, 17, 29, 37, 41)), *((p, 3) for p in (3, 7, 11, 19, 23, 31, 43))])
    def test_paley(self, p, modulus):
        rng = random.Random(p)
        m = H.paley(p, modulus)
        sigma = H.random_permutation(rng, p)
        switched = relabel(switch_many(m, [rng.randrange(modulus) for _ in range(p)]), sigma)
        self.assert_same_answers(m, relabel(m, sigma), switched)
        if p <= 31:  # above that, comparing the rows takes 0.2 s or more per prime
            self.assert_same_rows(m, [1])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero(self, n):
        z = H.zero(3, n)
        self.assert_same_answers(z, z, z)
        self.assert_same_rows(z, [1])


class TestWorkBound:
    """Each search counts its steps against ENUM_GUARD, per public call, however deep it goes.

    The 1100-vertex equiv answers too, in seconds; CI runs it.
    """

    @pytest.fixture(scope="class")
    def zero_1100(self):
        return H.zero(3, 1100)

    def test_straight_descent_answers_deep(self, zero_1100):
        assert isomorphic(zero_1100, zero_1100) == tuple(range(1, 1101))

    @pytest.mark.parametrize("form", [canonical_iso_form, canonical_class_form])
    def test_canonical_forms_refuse_deep(self, zero_1100, form):
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match="canonical-form search over 1100 vertices .* ENUM_GUARD"):
            form(zero_1100)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_straight_descent_costs(self, n):
        # the zero matrix places each vertex at its first try: 1 + 1 + 2 + ... + (n - 1) steps
        spent = [0]
        assert skewmat._isomorphism(H.zero(3, n), H.zero(3, n), spent) == tuple(range(1, n + 1))
        assert spent[0] == 1 + n * (n - 1) // 2

    def test_first_vertex_searches_share_the_bound(self, monkeypatch):
        # on zero(3, 6) each first-vertex search visits all 326 ordered
        # prefixes of the other five vertices, at 6 steps a node
        z = H.zero(3, 6)
        spent = [0]
        rows = skewmat._least_relabeling(z, 1, spent)
        assert spent[0] == 326 * 6
        monkeypatch.setattr(skewmat, "ENUM_GUARD", 2 * spent[0])
        assert skewmat._least_relabeling(z, 1, [0]) == rows
        for form in (canonical_iso_form, canonical_class_form):
            with pytest.raises(ResourceGuardError, match=f"over 6 vertices .* ENUM_GUARD = {2 * 326 * 6} steps"):
                form(z)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: canonical_iso_form(H.zero(3, 6)),
            lambda: facets(H.zero(3, 8)),
            lambda: enumerate_eulerian_representatives(3, 5),
            lambda: brute_force_census(3, 5),
            lambda: eulerian_in_orbit(H.zero(2, 8)),
        ],
        ids=["canonical_iso_form", "facets", "enumerate_eulerian_representatives", "brute_force_census", "eulerian_in_orbit"],
    )
    def test_one_bound_moves_every_guard(self, monkeypatch, call):
        # the searches, the walks and the Eulerian listing all read skewmat.ENUM_GUARD at each call
        call()
        monkeypatch.setattr(skewmat, "ENUM_GUARD", 100)
        with pytest.raises(ResourceGuardError):
            call()

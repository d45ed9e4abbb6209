"""Point simplicial complexes: faces, facets, isomorphism, isolations."""

from __future__ import annotations

import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import facet_oracle as FO
import helpers as H
import search_oracle as SO
from facet_oracle import facets_via_isolations, independence_number, is_face
from skewswitch import (
    ResourceGuardError,
    SimplicialComplex,
    complexes_isomorphic,
    dimension,
    facets,
    isolate,
    make,
    relabel,
    switch,
)
from skewswitch import pointcomplex, skewmat
from skewswitch.cli import EXIT_YES, run
from skewswitch.pointcomplex import _maximal_sets, _zero_triple_masks


@st.composite
def matrices(draw, moduli=(2, 3, 4, 5), max_size=6):
    modulus = draw(st.sampled_from(moduli))
    size = draw(st.integers(1, max_size))
    k = size * (size - 1) // 2
    upper = draw(st.lists(st.integers(0, modulus - 1), min_size=k, max_size=k))
    return H.from_upper(modulus, size, upper)


def relabeled_facets(c: SimplicialComplex, sigma):
    mapped = sorted(tuple(sorted(sigma[v - 1] for v in f)) for f in c.facets)
    return SimplicialComplex(c.n, tuple(mapped))


class TestSimplicialComplexValidation:
    def test_unsorted_facet_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(3, ((2, 1, 3),))

    def test_unsorted_facet_list_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(3, ((2, 3), (1, 2), (1, 3)))

    def test_contained_facet_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(3, ((1, 2), (1, 2, 3)))

    def test_uncovered_vertex_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(3, ((1, 2),))

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(3, ((1, 2, 4),))

    def test_no_vertices_rejected(self):
        # an empty complex has no dimension, and two of them are not an isomorphism question
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"vertex count must be at least 1, got {n}"):
                SimplicialComplex(n, ())

    def test_repeated_vertex_rejected(self):
        # (1, 1, 2) is sorted, but it is the edge {1, 2}, not a 2-simplex
        with pytest.raises(ValueError, match=r"facet \(1, 1, 2\) repeats a vertex"):
            SimplicialComplex(2, ((1, 1, 2),))
        with pytest.raises(ValueError, match=r"facet \(2, 2\) repeats a vertex"):
            SimplicialComplex(3, ((1, 2), (1, 3), (2, 2)))

    def test_duplicated_facet_rejected(self):
        with pytest.raises(ValueError, match=r"facet \(1, 2\) is contained in \(1, 2\)"):
            SimplicialComplex(3, ((1, 2), (1, 2), (2, 3)))

    def test_containment_names_first_pair(self):
        # facet order first, then the earliest facet holding it, before or after
        with pytest.raises(ValueError, match=r"facet \(1, 3\) is contained in \(1, 2, 3\)"):
            SimplicialComplex(4, ((1, 2, 3), (1, 3), (1, 4), (3, 4)))
        with pytest.raises(ValueError, match=r"facet \(\) is contained in \(1, 2\)"):
            SimplicialComplex(2, ((), (1, 2)))

    def test_incidence_masks(self):
        c = SimplicialComplex(4, ((1, 2, 3), (1, 4), (3, 4)))
        assert c.incidence == (0b011, 0b001, 0b101, 0b110)
        assert c == SimplicialComplex(4, c.facets) and hash(c) == hash(SimplicialComplex(4, c.facets))


class TestIsFace:
    def test_pairs_are_always_faces(self):
        m = H.random_alt(random.Random(20), 3, 5)
        for pair in combinations(range(1, 6), 2):
            assert is_face(m, pair)
        for v in range(1, 6):
            assert is_face(m, (v,))
        assert is_face(m, ())

    def test_nonzero_triple_sum_blocks(self):
        # t_123 = 1 + 1 + 2 = 1 mod 3
        m = H.from_upper(3, 3, [1, 1, 1])
        assert not is_face(m, (1, 2, 3))

    def test_zero_matrix_full_face(self):
        assert is_face(H.zero(4, 6), range(1, 7))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            is_face(H.zero(3, 3), (1, 4))


class TestFacets:
    def test_single_vertex(self):
        assert facets(H.zero(5, 1)).facets == ((1,),)

    def test_two_vertices(self):
        assert facets(H.from_upper(5, 2, [3])).facets == ((1, 2),)

    def test_zero_matrix_is_a_simplex(self):
        assert facets(H.zero(3, 5)).facets == ((1, 2, 3, 4, 5),)

    def test_three_vertex_two_cases(self):
        zero_sum, = facets(H.from_edges(3, 3, ((1, 2), (2, 3), (3, 1)))).facets
        assert zero_sum == (1, 2, 3)
        assert facets(H.from_upper(3, 3, [1, 0, 0])).facets == (
            (1, 2),
            (1, 3),
            (2, 3),
        )

    def test_classification_tables(self):
        for arcs, expected in H.CLASSES_3:
            assert facets(H.from_edges(3, 3, arcs)).facets == expected
        for arcs, expected, _ in H.CLASSES_4:
            assert facets(H.from_edges(3, 4, arcs)).facets == expected
        for arcs, expected in H.CLASSES_5:
            assert facets(H.from_edges(3, 5, arcs)).facets == expected

    def test_six_vertex_pair_display(self):
        for arcs in (H.PAIR_6_A_ARCS, H.PAIR_6_B_ARCS):
            assert facets(H.from_edges(3, 6, arcs)).facets == H.PAIR_6_FACETS

    def test_seven_vertex_pair_display(self):
        for arcs in (H.PAIR_7_A_ARCS, H.PAIR_7_B_ARCS):
            assert facets(H.from_edges(3, 7, arcs)).facets == H.PAIR_7_FACETS

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(matrices(), st.data())
    def test_matches_face_predicate(self, m, data):
        c = facets(m)
        for f in c.facets:
            assert is_face(m, f)
            # maximal: no extension stays a face
            for w in range(1, m.size + 1):
                if w not in f:
                    assert not is_face(m, tuple(sorted(f + (w,))))
        probe = data.draw(
            st.sets(st.integers(1, m.size), min_size=0, max_size=m.size)
        )
        inside = any(probe <= set(f) for f in c.facets)
        assert is_face(m, sorted(probe)) == inside

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(matrices(), st.randoms(use_true_random=False))
    def test_switch_invariant_relabel_equivariant(self, m, rng):
        v = rng.randrange(m.size) + 1
        assert facets(switch(m, v)) == facets(m)
        sigma = H.random_permutation(rng, m.size)
        assert facets(relabel(m, sigma)) == relabeled_facets(facets(m), sigma)


class TestDimension:
    def test_zero_matrix(self):
        assert dimension(facets(H.zero(3, 6))) == 5

    def test_six_vertex_pair(self):
        assert dimension(facets(H.from_edges(3, 6, H.PAIR_6_A_ARCS))) == 4

    def test_seven_vertex_pair(self):
        assert dimension(facets(H.from_edges(3, 7, H.PAIR_7_A_ARCS))) == 4

    def test_three_edges(self):
        assert dimension(facets(H.from_upper(3, 3, [1, 0, 0]))) == 1

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(matrices())
    def test_equals_max_isolation_independence_number(self, m):
        best = max(
            independence_number(isolate(m, v)) for v in range(1, m.size + 1)
        )
        assert dimension(facets(m)) == best - 1


class TestComplexesIsomorphic:
    def test_self_identity(self):
        c = facets(H.from_edges(3, 5, H.CLASSES_5[7][0]))
        assert complexes_isomorphic(c, c) == (1, 2, 3, 4, 5)

    def test_labels_two_and_three_differ(self):
        two = SimplicialComplex(4, H.CLASSES_4[1][1])
        three = SimplicialComplex(4, H.CLASSES_4[2][1])
        assert complexes_isomorphic(two, three) is None

    def test_equal_facet_lists_give_identity(self):
        a = facets(H.from_edges(3, 6, H.PAIR_6_A_ARCS))
        b = facets(H.from_edges(3, 6, H.PAIR_6_B_ARCS))
        assert complexes_isomorphic(a, b) == (1, 2, 3, 4, 5, 6)

    def test_size_mismatch_absent(self):
        a = facets(H.zero(3, 3))
        b = facets(H.zero(3, 4))
        assert complexes_isomorphic(a, b) is None

    def test_classification_complexes_pairwise_distinct(self):
        cxs = [SimplicialComplex(5, fac) for _, fac in H.CLASSES_5]
        for x, y in combinations(cxs, 2):
            assert complexes_isomorphic(x, y) is None

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(matrices(), st.randoms(use_true_random=False))
    def test_relabel_roundtrip(self, m, rng):
        sigma = H.random_permutation(rng, m.size)
        c = facets(m)
        cp = relabeled_facets(c, sigma)
        found = complexes_isomorphic(c, cp)
        assert found is not None
        assert relabeled_facets(c, found) == cp


class TestFacetsViaIsolations:
    # the isolations route lives in facet_oracle; criterion 08 compares it with facets on random inputs
    def test_exhaustive_small_digraphs(self):
        for size in (1, 2, 3, 4):
            k = size * (size - 1) // 2
            for upper in product(range(3), repeat=k):
                m = H.from_upper(3, size, upper)
                assert facets_via_isolations(m) == facets(m)

    def test_six_vertex_assembly(self):
        m = H.from_edges(3, 6, H.PAIR_6_A_ARCS)
        mis = {
            v: {
                tuple(x + 1 for x in s)
                for s in FO.maximal_independent_sets(isolate(m, v))
            }
            for v in (1, 2, 4)
        }
        assert mis[1] == {(1, 2, 3), (1, 4, 5, 6)}
        assert mis[2] == {(1, 2, 3), (2, 3, 4, 5, 6)}
        assert mis[4] == {(1, 4, 5, 6), (2, 3, 4, 5, 6)}
        assert facets_via_isolations(m).facets == H.PAIR_6_FACETS

    def test_seven_vertex_assembly(self):
        m = H.from_edges(3, 7, H.PAIR_7_A_ARCS)
        assert facets_via_isolations(m).facets == H.PAIR_7_FACETS


class TestIndependenceNumber:
    def test_zero_matrix(self):
        assert independence_number(H.zero(3, 5)) == 5

    def test_tournament(self):
        assert independence_number(H.from_upper(3, 3, [1, 1, 1])) == 1

    def test_seven_vertex_isolation(self):
        m = H.from_edges(3, 7, H.PAIR_7_A_ARCS)
        assert independence_number(isolate(m, 1)) == 5


def variety_components(m):
    """(support, projective dimension) of each linear component, as `complex --components` lists them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_text(f"{m.modulus} {m.size}\n" + "\n".join(" ".join(map(str, row)) for row in m.entries))
        out = io.StringIO()
        with redirect_stdout(out):
            assert run(["complex", "--components", str(path)]) == EXIT_YES
    return [(tuple(c["support"]), c["projective_dimension"]) for c in json.loads(out.getvalue())["components"]]


class TestVarietyComponents:
    def test_full_simplex(self):
        assert variety_components(H.zero(3, 3)) == [((1, 2, 3), 2)]

    def test_three_lines(self):
        assert variety_components(H.from_upper(3, 3, [1, 0, 0])) == [((1, 2), 1), ((1, 3), 1), ((2, 3), 1)]

    def test_zero_matrix_single_component(self):
        assert variety_components(H.zero(4, 6)) == [((1, 2, 3, 4, 5, 6), 5)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(matrices())
    def test_max_component_dimension_is_complex_dimension(self, m):
        c = facets(m)
        comps = variety_components(m)
        assert [support for support, _ in comps] == list(c.facets)
        assert max(d for _, d in comps) == dimension(c)
        assert all(d >= 0 for _, d in comps)


def underlying_edges(m):
    return {
        (i, j)
        for i in range(1, m.size + 1)
        for j in range(i + 1, m.size + 1)
        if m.entries[i - 1][j - 1] != 0
    }


def single_sigma_matches_all_isolations(m, mp):
    n = m.size
    graphs = [underlying_edges(isolate(m, v)) for v in range(1, n + 1)]
    graphs_p = [underlying_edges(isolate(mp, v)) for v in range(1, n + 1)]
    for sigma in permutations(range(1, n + 1)):
        ok = True
        for v in range(1, n + 1):
            mapped = {
                tuple(sorted((sigma[i - 1], sigma[j - 1]))) for i, j in graphs[v - 1]
            }
            if mapped != graphs_p[sigma[v - 1] - 1]:
                ok = False
                break
        if ok:
            return True
    return False


class TestIsolationCharacterization:
    # complexes are isomorphic exactly when one vertex bijection matches the
    # underlying graphs of all isolations simultaneously
    def test_both_directions_on_class_representatives(self):
        tables = {
            3: [arcs for arcs, _ in H.CLASSES_3],
            4: [arcs for arcs, _, _ in H.CLASSES_4],
            5: [arcs for arcs, _ in H.CLASSES_5],
        }
        for size, arc_lists in tables.items():
            mats = [H.from_edges(3, size, arcs) for arcs in arc_lists]
            for a in mats:
                for b in mats:
                    via_complex = (
                        complexes_isomorphic(facets(a), facets(b)) is not None
                    )
                    assert via_complex == single_sigma_matches_all_isolations(a, b)

    def test_positive_case_on_relabeled_matrix(self):
        rng = random.Random(21)
        m = H.random_alt(rng, 3, 5)
        moved = relabel(switch(m, 2), (3, 1, 4, 5, 2))
        assert single_sigma_matches_all_isolations(m, moved)
        assert complexes_isomorphic(facets(m), facets(moved)) is not None


def oracle_cases():
    rng = random.Random(71)
    for modulus in range(2, 8):
        for size in range(1, 10):
            for _ in range(4):
                yield H.random_alt(rng, modulus, size)
    for p in (5, 13, 17):
        yield H.paley(p, 2)
    for p in (3, 7, 11, 19):
        yield H.paley(p, 3)


class TestBitsetGrowerAgainstOracle:
    # the extension-oracle routes in facet_oracle visit sets in the same order

    def test_facets_in_visiting_order(self):
        for m in oracle_cases():
            assert _maximal_sets(_zero_triple_masks(m)) == FO.maximal_faces(m)
            assert facets(m) == FO.facets(m)


def complex_pairs():
    rng = random.Random(72)
    for modulus in (2, 3, 4, 5):
        for size in range(1, 9):
            for _ in range(3):
                m = H.random_alt(rng, modulus, size)
                sigma = H.random_permutation(rng, size)
                switched = relabel(switch(m, rng.randrange(size) + 1), sigma)
                yield facets(m), relabeled_facets(facets(m), sigma)
                yield facets(m), facets(switched)
                yield facets(m), facets(H.random_alt(rng, modulus, size))
    for p, modulus in ((5, 2), (13, 2), (3, 3), (7, 3)):
        m = H.paley(p, modulus)
        sigma = H.random_permutation(rng, p)
        yield facets(m), facets(relabel(switch(m, 2), sigma))
    displays = [SimplicialComplex(5, fac) for _, fac in H.CLASSES_5]
    yield from combinations(displays, 2)


class TestComplexIsomorphismAgainstOracle:
    def test_same_bijection_as_codegree_scan(self):
        found = 0
        for c, cp in complex_pairs():
            got = complexes_isomorphic(c, cp)
            assert got == FO.complexes_isomorphic(c, cp)
            found += got is not None
        assert found > 100  # the relabeled and switched pairs, at least


class TestSearchesAgainstRecursiveOracle:
    """The explicit-stack face and bijection searches visit nodes as the recursive oracle does."""

    @staticmethod
    def assert_same_bijection(c, cp):
        shipped = complexes_isomorphic(c, cp)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pointcomplex, "_extend_isomorphism", SO.extend_isomorphism)
            assert complexes_isomorphic(c, cp) == shipped

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(matrices(), st.randoms(use_true_random=False))
    def test_property_cases(self, m, rng):
        zero = _zero_triple_masks(m)
        assert _maximal_sets(zero) == SO._maximal_sets(zero)
        sigma = H.random_permutation(rng, m.size)
        self.assert_same_bijection(facets(m), facets(relabel(switch(m, rng.randrange(m.size) + 1), sigma)))
        self.assert_same_bijection(facets(m), facets(H.random_alt(rng, m.modulus, m.size)))

    def test_fixed_cases(self):
        # relabeled, switched and random pairs, Paley pairs and the displays, through the leaf check
        for c, cp in complex_pairs():
            self.assert_same_bijection(c, cp)
        paley = [H.paley(p, 2) for p in (5, 13, 17, 29, 37, 41)] + [H.paley(p, 3) for p in (3, 7, 11, 19, 23, 31, 43)]
        for m in [*oracle_cases(), *paley, *(H.zero(3, n) for n in range(1, 9))]:
            zero = _zero_triple_masks(m)
            assert _maximal_sets(zero) == SO._maximal_sets(zero)


class TestLeafCharge:
    """Each leaf of the complex search charges one step per facet it maps, before it maps them."""

    @staticmethod
    def paley_7_pair():
        m = H.paley(7, 3)
        c, cp = facets(m), facets(relabel(switch(m, 2), H.random_permutation(random.Random(3), 7)))
        # the co-degree search alone, with uncharged leaves, and its leaves
        leaves, spent = [], [0]
        sizes = sorted({len(f) for f in c.facets})
        prof, prof_p = pointcomplex._profiles(c, sizes), pointcomplex._profiles(cp, sizes)
        candidates = [[u for u in range(c.n) if prof_p[u] == pk] for pk in prof]
        codegrees = pointcomplex._codegrees(c), pointcomplex._codegrees(cp)
        skewmat._extend_isomorphism(
            *codegrees, candidates, spent, lambda s: leaves.append(s) or pointcomplex._carries_facets(c, set(cp.facets), s)
        )
        return c, cp, spent[0], len(leaves)

    def test_vertex_search_fits_and_leaf_checks_do_not(self, monkeypatch):
        c, cp, search, leaves = self.paley_7_pair()
        assert (search, leaves, len(c.facets)) == (899, 66, 14)
        answer = complexes_isomorphic(c, cp)
        monkeypatch.setattr(skewmat, "ENUM_GUARD", search)
        with pytest.raises(ResourceGuardError, match="isomorphism search over 7 vertices"):
            complexes_isomorphic(c, cp)
        # the last leaf accepts; the steps before it are checked when its last image is tried
        monkeypatch.setattr(skewmat, "ENUM_GUARD", search + (leaves - 1) * len(c.facets))
        assert complexes_isomorphic(c, cp) == answer
        monkeypatch.setattr(skewmat, "ENUM_GUARD", search + (leaves - 1) * len(c.facets) - 1)
        with pytest.raises(ResourceGuardError):
            complexes_isomorphic(c, cp)


class TestFaceSearchBound:
    """The face search visits every face; on zero(3, n), n 2^(n-1) + 1 steps against ENUM_GUARD."""

    def test_nineteen_vertices_answer(self):
        assert facets(H.zero(3, 19)).facets == (tuple(range(1, 20)),)

    def test_twenty_vertices_refuse(self):
        with pytest.raises(ResourceGuardError, match="face search over 20 vertices .* ENUM_GUARD"):
            facets(H.zero(3, 20))

    def test_charge_is_exact(self, monkeypatch):
        zero = _zero_triple_masks(H.zero(3, 8))
        monkeypatch.setattr(skewmat, "ENUM_GUARD", 8 * 2**7 + 1)
        assert _maximal_sets(zero) == [tuple(range(8))]
        monkeypatch.setattr(skewmat, "ENUM_GUARD", 8 * 2**7)
        with pytest.raises(ResourceGuardError):
            _maximal_sets(zero)

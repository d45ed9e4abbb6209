"""Algebra-level classification built on the matrix layer."""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

import helpers as H
from skewswitch import (
    ClassificationReport,
    EquivWitness,
    SkewAlgebraSpec,
    classify_pair,
    complexes_isomorphic,
    dimension,
    enumerate_eulerian_representatives,
    facets,
    isolate,
    isomorphic,
    make,
    relabel,
    switch_many,
    switching_equivalent,
    verify_witness,
)
from skewswitch import algfrontend


def spec_from_edges(modulus, size, edges):
    return SkewAlgebraSpec(H.from_edges(modulus, size, edges))


class TestSkewAlgebraSpec:
    def test_exposes_modulus_and_size(self):
        s = SkewAlgebraSpec(H.zero(3, 5))
        assert (s.modulus, s.size) == (3, 5)

    def test_frozen(self):
        s = SkewAlgebraSpec(H.zero(3, 5))
        with pytest.raises(AttributeError):
            s.matrix = H.zero(3, 4)


class TestClassificationReport:
    def test_rejects_isomorphic_without_grmod(self):
        c = facets(H.zero(2, 2))
        with pytest.raises(ValueError):
            ClassificationReport((1, 2), None, (1, 2), c, c)

    def test_rejects_grmod_without_complex_iso(self):
        c = facets(H.zero(2, 2))
        w = EquivWitness((1, 2), (0, 0))
        with pytest.raises(ValueError):
            ClassificationReport(None, w, None, c, c)


class TestClassifyPair:
    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classify_pair(SkewAlgebraSpec(H.zero(2, 3)), SkewAlgebraSpec(H.zero(3, 3)))

    def test_different_variable_counts(self):
        report = classify_pair(SkewAlgebraSpec(H.zero(3, 3)), SkewAlgebraSpec(H.zero(3, 4)))
        assert report.algebra_isomorphic is None
        assert report.grmod_equivalent is None
        assert report.complexes_isomorphic is None
        assert report.note is not None
        assert report.first_facets.facets == ((1, 2, 3),)
        assert report.second_facets.facets == ((1, 2, 3, 4),)
        assert (dimension(report.first_facets), dimension(report.second_facets)) == (2, 3)

    def test_six_vertex_pair(self):
        report = classify_pair(
            spec_from_edges(3, 6, H.PAIR_6_A_ARCS), spec_from_edges(3, 6, H.PAIR_6_B_ARCS)
        )
        assert report.algebra_isomorphic is None
        assert report.grmod_equivalent is None
        assert report.complexes_isomorphic is not None
        assert report.first_facets.facets == H.PAIR_6_FACETS
        assert report.second_facets.facets == H.PAIR_6_FACETS

    def test_seven_vertex_pair(self):
        report = classify_pair(
            spec_from_edges(3, 7, H.PAIR_7_A_ARCS), spec_from_edges(3, 7, H.PAIR_7_B_ARCS)
        )
        assert report.algebra_isomorphic is None
        assert report.grmod_equivalent is None
        assert report.complexes_isomorphic is not None
        assert report.first_facets.facets == H.PAIR_7_FACETS
        assert report.second_facets.facets == H.PAIR_7_FACETS

    def test_three_variable_pair(self):
        a, b = H.three_var_pair(5)
        report = classify_pair(SkewAlgebraSpec(a), SkewAlgebraSpec(b))
        assert report.algebra_isomorphic is None
        assert report.grmod_equivalent is None
        assert report.complexes_isomorphic is not None

    def test_relabeled_algebra_gets_all_three(self):
        rng = random.Random(40)
        m = H.random_alt(rng, 3, 5)
        sigma = H.random_permutation(rng, 5)
        report = classify_pair(SkewAlgebraSpec(m), SkewAlgebraSpec(relabel(m, sigma)))
        assert report.algebra_isomorphic is not None
        assert report.grmod_equivalent is not None
        assert report.complexes_isomorphic is not None

    def test_switched_algebra_keeps_grmod_but_can_lose_isomorphism(self):
        z = H.zero(3, 3)
        switched = switch_many(z, (1, 0, 0))
        report = classify_pair(SkewAlgebraSpec(z), SkewAlgebraSpec(switched))
        assert report.algebra_isomorphic is None
        assert report.grmod_equivalent is not None
        assert report.complexes_isomorphic is not None
        assert verify_witness(z, switched, report.grmod_equivalent)

    def test_self_pair_is_fully_positive(self):
        m = H.from_edges(3, 5, H.CLASSES_5[7][0])
        report = classify_pair(SkewAlgebraSpec(m), SkewAlgebraSpec(m))
        assert report.algebra_isomorphic is not None
        assert report.grmod_equivalent is not None
        assert report.complexes_isomorphic is not None

    def test_implication_chain_holds_on_all_three_variable_algebras(self):
        # the constructor rejects chain violations, so classifying every
        # pair doubles as a proof check on this finite grid
        mats = [H.from_upper(3, 3, [x, y, z]) for x in range(3) for y in range(3) for z in range(3)]
        for a in mats:
            for b in mats:
                classify_pair(SkewAlgebraSpec(a), SkewAlgebraSpec(b))

    def test_distinct_classes_stay_distinct_at_four_and_five_vertices(self):
        for size, table in ((4, H.CLASSES_4), (5, H.CLASSES_5)):
            reps = [H.from_edges(3, size, row[0]) for row in table]
            for a, b in combinations(reps, 2):
                report = classify_pair(SkewAlgebraSpec(a), SkewAlgebraSpec(b))
                assert report.grmod_equivalent is None
                assert report.complexes_isomorphic is None

    def test_grmod_matches_complex_verdict_on_eulerian_representatives(self):
        # at modulus 3 and five vertices the complex decides the category
        reps = enumerate_eulerian_representatives(3, 5)
        for a, b in combinations(reps, 2):
            report = classify_pair(SkewAlgebraSpec(a), SkewAlgebraSpec(b))
            assert (report.grmod_equivalent is None) == (
                report.complexes_isomorphic is None
            )


def carries_facets(c, cp, sigma):
    return {tuple(sorted(sigma[v - 1] for v in f)) for f in c.facets} == set(cp.facets)


def negated(m):
    # every triple sum changes sign, so the zero triples and the complex stay the same
    return make(m.modulus, m.size, [[-x for x in row] for row in m.entries])


def chain_pairs():
    """Random pairs in each relation: relabeled, switched and relabeled, negated (same complex), unrelated."""
    rng = random.Random(45)
    for modulus in range(2, 8):
        for size in range(1, 8):
            for _ in range(3):
                m = H.random_alt(rng, modulus, size)
                sigma = H.random_permutation(rng, size)
                switching = [rng.randrange(modulus) for _ in range(size)]
                yield "iso", m, relabel(m, sigma)
                yield "switch", m, relabel(switch_many(m, switching), sigma)
                yield "complex", m, relabel(switch_many(negated(m), switching), sigma)
                yield "none", m, H.random_alt(rng, modulus, size)


class TestWitnessChain:
    def test_verdicts_equal_the_direct_searches_and_every_yes_verifies(self):
        seen = set()
        for relation, a, b in chain_pairs():
            report = classify_pair(SkewAlgebraSpec(a), SkewAlgebraSpec(b))
            ca, cb = facets(a), facets(b)
            assert report.algebra_isomorphic == isomorphic(a, b)
            assert (report.grmod_equivalent is None) == (switching_equivalent(a, b) is None)
            assert (report.complexes_isomorphic is None) == (complexes_isomorphic(ca, cb) is None)
            if report.algebra_isomorphic:
                assert relabel(a, report.algebra_isomorphic) == b
                assert report.grmod_equivalent.exponents == (0,) * a.size
            if report.grmod_equivalent:
                assert verify_witness(a, b, report.grmod_equivalent)
                assert report.complexes_isomorphic == report.grmod_equivalent.sigma
            if report.complexes_isomorphic:
                assert carries_facets(ca, cb, report.complexes_isomorphic)
            verdicts = (report.algebra_isomorphic, report.grmod_equivalent, report.complexes_isomorphic)
            seen.add((relation, tuple(v is not None for v in verdicts)))
        # every relation, and the verdicts each one is built to reach
        assert {("iso", (True, True, True)), ("switch", (False, True, True))} <= seen
        assert {("complex", (False, False, True)), ("none", (False, False, False))} <= seen

    def test_searches_run_only_below_a_no(self, monkeypatch):
        calls = []
        for name in ("isomorphic", "switching_equivalent", "complexes_isomorphic"):
            found = getattr(algfrontend, name)
            monkeypatch.setattr(algfrontend, name, lambda *args, f=found, n=name: calls.append(n) or f(*args))
        m = H.random_alt(random.Random(46), 3, 6)
        classify_pair(SkewAlgebraSpec(m), SkewAlgebraSpec(relabel(m, (2, 3, 1, 5, 6, 4))))
        assert calls == ["isomorphic"]
        calls.clear()
        classify_pair(SkewAlgebraSpec(m), SkewAlgebraSpec(switch_many(m, (0, 1, 2, 0, 1, 2))))
        assert calls == ["isomorphic", "switching_equivalent"]

    def test_a_witness_that_fails_the_facet_check_raises(self, monkeypatch):
        m = H.from_edges(3, 6, H.PAIR_6_A_ARCS)
        c = facets(m)
        bad = next(s for s in permutations(range(1, 7)) if not carries_facets(c, c, s))
        monkeypatch.setattr(algfrontend, "isomorphic", lambda a, b: bad)
        with pytest.raises(RuntimeError, match="does not carry facets"):
            classify_pair(SkewAlgebraSpec(m), SkewAlgebraSpec(m))


class TestCentralVariableForm:
    # isolating variable v gives an equivalent presentation in which v commutes with all others
    def test_clears_row_and_column(self):
        rng = random.Random(42)
        m = H.random_alt(rng, 5, 6)
        for v in range(1, 7):
            out = SkewAlgebraSpec(isolate(m, v))
            assert all(x == 0 for x in out.matrix.entries[v - 1])
            assert all(row[v - 1] == 0 for row in out.matrix.entries)

    def test_is_grmod_equivalent_presentation(self):
        m = H.from_edges(3, 5, H.CLASSES_5[5][0])
        s = SkewAlgebraSpec(m)
        out = SkewAlgebraSpec(isolate(s.matrix, 2))
        report = classify_pair(s, out)
        assert report.grmod_equivalent is not None

    def test_idempotent(self):
        s = SkewAlgebraSpec(H.from_edges(3, 4, H.FAN_4_ARCS))
        once = SkewAlgebraSpec(isolate(s.matrix, 3))
        assert SkewAlgebraSpec(isolate(once.matrix, 3)) == once

    def test_fan_display(self):
        s = SkewAlgebraSpec(H.from_edges(3, 4, H.FAN_4_ARCS))
        out = SkewAlgebraSpec(isolate(s.matrix, 1))
        assert H.arcs_of(out.matrix) == set(H.FAN_4_ISOLATION_1)

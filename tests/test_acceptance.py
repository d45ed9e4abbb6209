"""Acceptance gate: one test per shipped guarantee, timed where promised.

Run with -v to get one pass/fail line per criterion.
"""

from __future__ import annotations

import json
import math
import random
import time
from itertools import combinations

import facet_oracle as FO
import helpers as H
from triple_route import triple_tensor
from skewswitch import (
    SimplicialComplex,
    SkewAlgebraSpec,
    brute_force_census,
    classify_pair,
    complexes_isomorphic,
    count_eulerian_classes,
    count_switching_classes,
    dimension,
    enumerate_eulerian_representatives,
    eulerian_in_orbit,
    eulerize,
    facets,
    isolate,
    isomorphic,
    make,
    relabel,
    row_sum_profile,
    switch,
    switch_many,
    switching_equivalent,
    verify_witness,
)
from skewswitch.cli import EXIT_NO, EXIT_YES, run

S2_TABLE = (1, 1, 2, 3, 7, 16, 54, 243, 2038, 33120, 1182004)
S3_TABLE = (1, 1, 2, 4, 14, 120, 3222, 271287, 64154817, 41653775052, 74220906305025)
T4_TABLE = (1, 1, 3, 8, 62, 1760)


def cli_count(capsys, modulus, n):
    assert run(["count", "--modulus", str(modulus), "--n", str(n)]) == EXIT_YES
    return int(capsys.readouterr().out.strip())


def test_criterion_01_graph_switching_table_via_cli(capsys):
    start = time.perf_counter()
    got = tuple(cli_count(capsys, 2, n) for n in range(1, 12))
    elapsed = time.perf_counter() - start
    assert got == S2_TABLE
    assert elapsed < 30.0, f"modulus-2 table took {elapsed:.1f}s"


def test_criterion_02_digraph_switching_table_via_cli(capsys):
    start = time.perf_counter()
    got = tuple(cli_count(capsys, 3, n) for n in range(1, 12))
    elapsed = time.perf_counter() - start
    assert got == S3_TABLE
    assert elapsed < 60.0, f"modulus-3 table took {elapsed:.1f}s"


def test_criterion_03_modulus_four_counts():
    got = tuple(count_eulerian_classes(4, n) for n in range(1, 7))
    assert got == T4_TABLE
    for n in range(1, 6):
        assert count_switching_classes(4, n) == count_eulerian_classes(4, n)


def test_criterion_04_eulerize_display():
    m = make(4, 7, H.EULERIZE_7_INPUT)
    result, exponents = eulerize(m)
    assert [list(r) for r in result.entries] == H.EULERIZE_7_OUTPUT
    assert pow(m.size, -1, m.modulus) == 3
    profile = row_sum_profile(m)
    buckets = {k: vs for k, vs in enumerate(profile.buckets) if vs}
    assert buckets == H.EULERIZE_7_BUCKETS
    assert exponents == H.EULERIZE_7_EXPONENTS


def match_display_classes(reps, display_facets):
    """Bijection between enumerated representatives and displayed complexes."""
    displays = [SimplicialComplex(reps[0].size, f) for f in display_facets]
    matched = []
    for r in reps:
        hits = [
            k
            for k, cx in enumerate(displays)
            if complexes_isomorphic(facets(r), cx) is not None
        ]
        assert len(hits) == 1, f"representative matches {len(hits)} displayed complexes"
        matched.append(hits[0])
    assert sorted(matched) == list(range(len(displays)))
    return matched


def test_criterion_05_classification_tables():
    reps5 = enumerate_eulerian_representatives(3, 5)
    assert len(reps5) == 14
    for a, b in combinations(reps5, 2):
        assert isomorphic(a, b) is None
        assert complexes_isomorphic(facets(a), facets(b)) is None
    match_display_classes(reps5, [f for _, f in H.CLASSES_5])

    reps4 = enumerate_eulerian_representatives(3, 4)
    assert len(reps4) == 4
    for a, b in combinations(reps4, 2):
        assert isomorphic(a, b) is None
        assert complexes_isomorphic(facets(a), facets(b)) is None
    order = match_display_classes(reps4, [f for _, f, _ in H.CLASSES_4])
    labels = [H.CLASSES_4[k][2] for k in order]
    assert sorted(labels) == ["0", "1", "2", "3"]

    # at three vertices the modulus divides the size: every Eulerian matrix
    # has zero triple sums, so Eulerian representatives live inside the zero
    # switching class and the two displayed complexes are realized by
    # switching class representatives instead
    reps3 = enumerate_eulerian_representatives(3, 3)
    assert len(reps3) == 2
    assert isomorphic(reps3[0], reps3[1]) is None
    assert count_switching_classes(3, 3) == 2
    class_reps = [H.from_edges(3, 3, arcs) for arcs, _ in H.CLASSES_3]
    assert switching_equivalent(class_reps[0], class_reps[1]) is None
    for rep, (_, expected) in zip(class_reps, H.CLASSES_3):
        assert facets(rep).facets == expected
    assert complexes_isomorphic(facets(class_reps[0]), facets(class_reps[1])) is None
    for r in reps3:
        assert switching_equivalent(r, class_reps[0]) is not None


def test_criterion_06_counterexample_pairs_via_cli(tmp_path, capsys):
    cases = (
        (6, H.PAIR_6_A_ARCS, H.PAIR_6_B_ARCS, H.PAIR_6_FACETS),
        (7, H.PAIR_7_A_ARCS, H.PAIR_7_B_ARCS, H.PAIR_7_FACETS),
    )
    for size, arcs_a, arcs_b, expected in cases:
        pa = tmp_path / f"a{size}.json"
        pb = tmp_path / f"b{size}.json"
        for path, arcs in ((pa, arcs_a), (pb, arcs_b)):
            m = H.from_edges(3, size, arcs)
            path.write_text(
                json.dumps(
                    {"modulus": 3, "size": size, "entries": [list(r) for r in m.entries]}
                ),
                encoding="utf-8",
            )
        assert run(["equiv", str(pa), str(pb)]) == EXIT_NO
        capsys.readouterr()
        assert run(["complex-iso", str(pa), str(pb)]) == EXIT_YES
        doc = json.loads(capsys.readouterr().out)
        assert doc["isomorphic"] is True
        assert doc["facets"] == [[list(f) for f in expected]] * 2


def test_criterion_07_brute_force_agrees_with_burnside():
    start = time.perf_counter()
    grid = [(2, n) for n in range(1, 7)]
    grid += [(3, n) for n in range(1, 5)]
    grid += [(4, n) for n in range(1, 5)]
    for modulus, n in grid:
        got = brute_force_census(modulus, n)
        assert got.switching_classes == count_switching_classes(modulus, n)
        assert got.eulerian_classes == count_eulerian_classes(modulus, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"census grid took {elapsed:.1f}s"


def random_case(rng, min_size=1):
    modulus = rng.choice((2, 3, 4, 5, 6, 7))
    size = rng.randint(min_size, 6)
    return H.random_alt(rng, modulus, size)


def test_criterion_08_property_suites():
    # switching at one vertex has order dividing the modulus
    rng = random.Random(801)
    for _ in range(200):
        m = random_case(rng)
        v = rng.randint(1, m.size)
        out = m
        for _ in range(m.modulus):
            out = switch(out, v)
        assert out == m

    # switching once at every vertex is the identity
    rng = random.Random(802)
    for _ in range(200):
        m = random_case(rng)
        out = m
        for v in range(1, m.size + 1):
            out = switch(out, v)
        assert out == m

    # switchings at different vertices commute
    rng = random.Random(803)
    for _ in range(200):
        m = random_case(rng, min_size=2)
        v, w = rng.sample(range(1, m.size + 1), 2)
        assert switch(switch(m, v), w) == switch(switch(m, w), v)

    # the triple tensor never moves under switching
    rng = random.Random(804)
    for _ in range(200):
        m = random_case(rng, min_size=3)
        a = tuple(rng.randrange(m.modulus) for _ in range(m.size))
        assert triple_tensor(switch_many(m, a)) == triple_tensor(m)

    # the facets agree with the isolations route kept in tests/facet_oracle.py
    rng = random.Random(805)
    for _ in range(200):
        m = random_case(rng)
        assert facets(m) == FO.facets_via_isolations(m)

    # dimension reads off the isolations
    rng = random.Random(806)
    for _ in range(200):
        m = random_case(rng)
        best = max(FO.independence_number(isolate(m, v)) for v in range(1, m.size + 1))
        assert dimension(facets(m)) == best - 1

    # every positive answer carries a witness that re-verifies
    rng = random.Random(807)
    for _ in range(200):
        m = random_case(rng)
        a = tuple(rng.randrange(m.modulus) for _ in range(m.size))
        sigma = H.random_permutation(rng, m.size)
        target = relabel(switch_many(m, a), sigma)
        w = switching_equivalent(m, target)
        assert w is not None and verify_witness(m, target, w)
        tau = isomorphic(relabel(m, sigma), m)
        assert tau is not None and relabel(relabel(m, sigma), tau) == m
        ca, cb = facets(m), facets(target)
        pi = complexes_isomorphic(ca, cb)
        assert pi is not None
        mapped = sorted(tuple(sorted(pi[v - 1] for v in f)) for f in ca.facets)
        assert mapped == sorted(cb.facets)

    # coprime sizes: the Eulerian matrix in the orbit is unique
    rng = random.Random(808)
    checked = 0
    while checked < 200:
        m = random_case(rng)
        if math.gcd(m.size, m.modulus) != 1 or m.modulus ** (m.size - 1) > 20000:
            continue
        unique, _ = eulerize(m)
        assert eulerian_in_orbit(m) == [unique]
        checked += 1

    # non-coprime failures, exactly as displayed
    orbit24 = eulerian_in_orbit(H.zero(2, 4))
    assert len(orbit24) == 4
    assert H.zero(2, 4) in orbit24
    assert switch_many(H.zero(2, 4), (1, 1, 0, 0)) in orbit24

    orbit36 = eulerian_in_orbit(H.zero(3, 6))
    assert len(orbit36) == 81
    bipartite = switch_many(H.zero(3, 6), (2, 2, 2, 0, 0, 0))
    assert bipartite != H.zero(3, 6) and bipartite in orbit36
    assert H.arcs_of(bipartite) == {(i, j) for i in (1, 2, 3) for j in (4, 5, 6)}

    orbit46 = eulerian_in_orbit(H.zero(4, 6))
    assert len(orbit46) == 16
    blocks = switch_many(H.zero(4, 6), (2, 2, 0, 0, 0, 0))
    assert blocks != H.zero(4, 6) and blocks in orbit46
    expected = [
        [0, 0, 2, 2, 2, 2],
        [0, 0, 2, 2, 2, 2],
        [2, 2, 0, 0, 0, 0],
        [2, 2, 0, 0, 0, 0],
        [2, 2, 0, 0, 0, 0],
        [2, 2, 0, 0, 0, 0],
    ]
    assert [list(r) for r in blocks.entries] == expected


def test_criterion_09_switch_and_isolation_displays():
    assert switch(make(2, 4, H.SWITCH_GRAPH_IN), 3) == make(2, 4, H.SWITCH_GRAPH_OUT)
    assert switch(make(3, 4, H.SWITCH_DIGRAPH_IN), 3) == make(3, 4, H.SWITCH_DIGRAPH_OUT)

    fan = H.from_edges(3, 4, H.FAN_4_ARCS)
    assert H.arcs_of(isolate(fan, 1)) == set(H.FAN_4_ISOLATION_1)
    assert isolate(fan, 2) == isolate(fan, 4)
    assert H.arcs_of(isolate(fan, 2)) == set(H.FAN_4_ISOLATION_2)
    assert H.arcs_of(isolate(fan, 3)) == set(H.FAN_4_ISOLATION_3)


def test_criterion_10_switching_witnesses_at_forty_vertices():
    rng = random.Random(1001)
    start = time.perf_counter()
    for modulus in (2, 3):
        m = H.random_alt(rng, modulus, 40)
        a = tuple(rng.randrange(modulus) for _ in range(40))
        target = relabel(switch_many(m, a), H.random_permutation(rng, 40))
        w = switching_equivalent(m, target)
        assert w is not None and verify_witness(m, target, w)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"forty-vertex equivalence took {elapsed:.1f}s"


def best_of_three(call):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return result, min(times)


def test_criterion_11_point_complexes_within_time():
    # 840 facets: about 11 ms on the bitset grower, about 490 ms on the extension
    # oracle (Python 3.11, one Intel Xeon core)
    m = H.random_alt(random.Random(1101), 2, 30)
    got, elapsed = best_of_three(lambda: facets(m))
    assert got == FO.facets(m)
    assert elapsed < 0.1, f"facets at thirty vertices took {elapsed:.3f}s"

    # a switched and relabeled pair on twenty vertices: about 6 ms, 50-60 ms with
    # the extension oracle and the facet-scanning co-degrees
    rng = random.Random(1102)
    a = H.random_alt(rng, 3, 20)
    b = relabel(switch_many(a, tuple(rng.randrange(3) for _ in range(20))), H.random_permutation(rng, 20))
    report, elapsed = best_of_three(lambda: classify_pair(SkewAlgebraSpec(a), SkewAlgebraSpec(b)))
    assert report.grmod_equivalent is not None and report.complexes_isomorphic is not None
    assert elapsed < 0.04, f"classify at twenty vertices took {elapsed:.3f}s"

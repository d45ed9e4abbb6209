"""Seeded request streams for the three workloads.

Each workload is an endless stream of rounds.  A round holds a fixed
number of requests of each kind and a run serves whole rounds, so every
seed spends its time on the same mix; the seed picks the matrices, the
relabelings and switchings applied to them, and the order in which sizes
from each kind's menu come up (every size comes up once per pass through
its menu).  Requests go through the
public CLI entry point `skewswitch.cli.run` with stdout captured in memory,
apart from the canonical-form pairs, which are direct library calls.

Each request carries its own check.  Expected answers come from the
construction of the input (a pair built by relabeling is isomorphic), from
the definitions in `oracle`, or from `expected.json`, which holds values
recorded once at the seed commit (counts, Paley facet lists).  A "no" is
only expected where an invariant computed by the benchmark proves it.

Inputs whose correct answer is about to change are left out: non-integer
JSON entries and the brute-force census at (2, 7).  Cases measured as out
of budget when the benchmark was defined, which the change that makes one
feasible adds here as a benchmark change of its own:

- complex-iso on Paley tournaments at p >= 11: did not finish in 30 s;
- equiv on a random l=2 n=40 yes-pair: 257 s;
- census --list at (4, 6): 240 s, and at (3, 6): 8.8 s;
- census --brute-force at (2, 7): did not finish in 9 min.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import skewswitch
import skewswitch.cli

import oracle as O

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Sizes per kind; each pass through a menu visits every entry once, in seeded order.
# A round holds every kind, so the seed changes the inputs but not the mix.  The
# equivalence searches are many and small rather than few and large: their cost
# varies by about 0.6 of its mean from one random pair to the next, so the
# run-to-run spread of a run's total falls with the number of pairs in it.  The
# counts per round put the median among the no-pairs (about 5 ms each) with a
# margin on both sides, and the 90th percentile among the canonical forms, whose
# cost varies far less from one matrix to the next than a search's.
EQUIV_SIZES = {2: (12, 13), 3: (16, 18), 5: (20, 22, 24)}
YES_PAIRS_PER_ROUND = 4
NO_PAIRS_PER_ROUND = 3
ISO_PAIRS_PER_RELATION = 1
CANONICAL_PAIRS_PER_ROUND = 4
ISO_SIZES = {2: (20, 24), 3: (24, 30), 5: (24, 30)}
PALEY_GRAPHS = (5, 13, 17, 29)  # p = 1 mod 4, modulus 2
# classify at p = 29 takes 1.1 s, a whole round, so it would make the mix depend on
# how many of them a run happens to reach
PALEY_GRAPHS_CLASSIFY = (5, 13, 17)
PALEY_TOURNAMENTS = (3, 7, 11, 19, 23, 31, 43)  # p = 3 mod 4, modulus 3
PALEY_TOURNAMENTS_COMPLEX = (3, 7)
CLASSIFY_SIZES = (14, 16, 18, 20)
CANONICAL_MODULI = (2, 3, 5)
CANONICAL_SIZE = 8  # at n = 9 a call takes 1-2 s
# each form sees a pair on which it must agree and one on which it must not
CANONICAL_RELATIONS = {"canonical_class_form": ("switch", "none"), "canonical_iso_form": ("iso", "switch")}

# Two cost tiers, each asked for both classes and eulerian: 100-200 ms and 300-400 ms
# a request.  With the layer probes below them, their sizes put the median inside the
# lower tier and the 90th percentile inside the upper one, and give each route a
# similar share.
COUNT_PRIME = ((3, 10), (5, 10), (7, 10), (2, 11), (2, 12), (3, 12))
COUNT_COMPOSITE = ((4, 9), (6, 9), (8, 9), (9, 9), (4, 10), (6, 10))

BATCH_MODULI = (2, 3, 4, 5, 6, 7)
BATCH_SIZES = (3, 4, 5, 6, 7, 8, 9)
BATCH_COUNTS = ((2, 7), (3, 6), (4, 5), (5, 5), (6, 4), (7, 4), (2, 5), (3, 7))
# enumerations of at most about 25 ms, so that four per round take about a third of
# the time and the 90th percentile falls among them; a larger one, such as --list at
# (5, 5) (0.37 s) or --brute-force at (3, 5) (0.76 s), would outweigh a whole round
CENSUS_LIST = ((2, 4), (2, 5), (3, 4), (3, 5), (4, 4), (5, 4), (6, 4), (7, 4))
CENSUS_BRUTE = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 4), (5, 4))
ENUMERATIONS_PER_ROUND = 4

# Small requests that reach every traced layer, added to every round of every
# workload, so that each per-layer time is measured on each workload instead of
# reading 0 on the workloads that otherwise bypass a layer.  They take about 1% of
# a decide or count round.
PROBE_SIZE = 5
PROBE_COUNT = (3, 4)  # a prime modulus: the rank route
PROBE_CENSUS = ((4, 3), (2, 3))  # a composite modulus with --list, then --brute-force


def count_keys() -> list[tuple[str, int, int]]:
    """Every (what, modulus, size) whose count some request checks."""
    sizes = set(COUNT_PRIME + COUNT_COMPOSITE + BATCH_COUNTS + CENSUS_LIST + CENSUS_BRUTE + PROBE_CENSUS)
    sizes.add(PROBE_COUNT)
    return [(what, l, n) for l, n in sorted(sizes) for what in ("classes", "eulerian")]


# counterexample pairs: same point complex, not switching equivalent (arcs i -> j, 1-indexed)
PAIR_6 = (3, 6, ((2, 1), (3, 1)), ((1, 2), (1, 3)))
PAIR_7 = (
    3,
    7,
    ((2, 1), (3, 1), (3, 2), (3, 4), (4, 1), (5, 1), (5, 3), (5, 6), (6, 1), (6, 3), (7, 1), (7, 3), (7, 6)),
    ((1, 2), (1, 3), (1, 4), (2, 3), (4, 3), (5, 2), (5, 4), (5, 6), (6, 2), (6, 4), (7, 2), (7, 4), (7, 6)),
)


@dataclass(frozen=True)
class Request:
    kind: str
    send: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def load_expected() -> dict:
    doc = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    counts = doc["counts"]
    for modulus, what, values in doc["reference_tables"]:
        for n, value in enumerate(values, start=1):
            key = f"{what}/{modulus}/{n}"
            if key in counts and counts[key] != value:
                raise ValueError(f"expected.json: {key} disagrees with the reference table")
    return doc


class Inputs:
    """Writes matrix files for CLI requests into one directory.

    With `slots` set, file names are reused after that many files, which is
    safe as long as a round writes fewer files than that and its requests
    are served before the next round is made.
    """

    def __init__(self, directory: Path, slots: int | None = None) -> None:
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self._count = 0
        self._slots = slots

    def write(self, e: O.Grid, l: int, text: bool = False) -> str:
        self._count += 1
        n = len(e)
        if text:
            body = f"{l} {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in e)
        else:
            body = json.dumps({"modulus": l, "size": n, "entries": e})
        slot = self._count % self._slots if self._slots else self._count
        path = self.directory / f"m{slot}.{'txt' if text else 'json'}"
        path.write_text(body, encoding="utf-8")
        return str(path)


def cli_send(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def send() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = skewswitch.cli.run(argv)
        return code, out.getvalue()

    return send


def json_request(kind: str, argv: list[str], code: int, check_doc: Callable[[dict], "str | None"]) -> Request:
    def check(resp) -> str | None:
        got, out = resp
        if got != code:
            return f"exit {got}, expected {code}"
        return check_doc(json.loads(out))

    return Request(kind, cli_send(argv), check)


def expect_equal(want) -> Callable[[Any], "str | None"]:
    return lambda got: None if got == want else f"got {str(got)[:200]}"


# ---- matrices -------------------------------------------------------------


def random_grid(rng: random.Random, l: int, n: int) -> O.Grid:
    e = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e[i][j] = rng.randrange(l)
            e[j][i] = (-e[i][j]) % l
    return e


def from_arcs(l: int, n: int, arcs) -> O.Grid:
    e = [[0] * n for _ in range(n)]
    for i, j in arcs:
        e[i - 1][j - 1] = 1 % l
        e[j - 1][i - 1] = (-1) % l
    return e


def paley(p: int, l: int) -> O.Grid:
    """Paley graph (l = 2, p = 1 mod 4) or Paley tournament (l = 3, p = 3 mod 4)."""
    residues = {x * x % p for x in range(1, p)}
    other = 0 if l == 2 else l - 1  # a non-edge in the graph, the reverse arc in the tournament
    return [[0 if i == j else 1 if (j - i) % p in residues else other for j in range(p)] for i in range(p)]


def permutation(rng: random.Random, n: int) -> list[int]:
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    return sigma


# relation of a generated pair, and the verdicts it fixes:
# (algebra isomorphic, switching equivalent, complexes isomorphic)
VERDICTS = {
    "iso": (True, True, True),
    "switch": (False, True, True),
    "complex": (False, False, True),
    "none": (False, False, False),
}


def partner(rng: random.Random, e: O.Grid, l: int, rel: str) -> tuple[O.Grid, str, list[int]]:
    """A second matrix in relation `rel` to e, the relation reached, and the relabeling used.

    "switch" redraws the switching until the sorted rows differ, which
    proves the pair is not isomorphic; "none" perturbs entries until the
    number of zero triples differs, which proves that no relation holds.
    Where a small matrix allows neither, the pair falls back to "iso".
    """
    n = len(e)
    sigma = permutation(rng, n)
    if rel == "switch":
        for _ in range(50):
            b = O.relabel(O.switch_many(e, l, [rng.randrange(l) for _ in range(n)]), sigma)
            if O.row_signature(b) != O.row_signature(e):
                return b, "switch", sigma
    if rel == "none":
        b = O.relabel(e, sigma)
        target = O.zero_triple_count(e, l)
        for _ in range(200):
            i, j = rng.sample(range(n), 2)
            b[i][j] = (b[i][j] + rng.randrange(1, l)) % l
            b[j][i] = (-b[i][j]) % l
            if O.zero_triple_count(b, l) != target:
                return b, "none", sigma
    return O.relabel(e, sigma), "iso", sigma


def shuffled_cycle(rng: random.Random, items) -> Iterator:
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


# ---- requests -------------------------------------------------------------


def equiv_request(kind, inputs: Inputs, l, a, b, rel, text=False) -> Request:
    yes = VERDICTS[rel][1]

    def check_doc(doc):
        if doc["equivalent"] is not yes:
            return f"equivalent={doc['equivalent']}"
        if yes:
            return O.equiv_witness_problem(a, b, l, doc["permutation"], doc["switch_exponents"])
        return None if doc["permutation"] is None and doc["switch_exponents"] is None else "witness on a no"

    argv = ["equiv", inputs.write(a, l, text), inputs.write(b, l, text)]
    return json_request(kind, argv, 0 if yes else 10, check_doc)


def iso_request(kind, inputs: Inputs, l, a, b, rel) -> Request:
    yes = VERDICTS[rel][0]

    def check_doc(doc):
        if doc["isomorphic"] is not yes:
            return f"isomorphic={doc['isomorphic']}"
        return O.iso_witness_problem(a, b, doc["permutation"]) if yes else None

    return json_request(kind, ["iso", inputs.write(a, l), inputs.write(b, l)], 0 if yes else 10, check_doc)


def facets_checker(e, l, want):
    """Check a facet list exactly when it is known, by its definition otherwise."""
    if want is not None:
        return lambda got: None if got == want else "facets differ from the expected list"
    return lambda got: O.facets_problem(e, l, got)


def pair_facets_problem(a, b, l, rel, sigma, fa, fb, got) -> str | None:
    ga, gb = got
    problem = facets_checker(a, l, fa)(ga)
    if problem:
        return "first " + problem
    if fb is None and rel in ("iso", "switch"):
        fb = O.map_facets(ga, sigma)
    problem = facets_checker(b, l, fb)(gb)
    return "second " + problem if problem else None


def complex_iso_request(kind, inputs, l, a, b, rel, sigma, fa=None, fb=None) -> Request:
    yes = VERDICTS[rel][2]

    def check_doc(doc):
        problem = pair_facets_problem(a, b, l, rel, sigma, fa, fb, doc["facets"])
        if problem:
            return problem
        if doc["isomorphic"] is not yes:
            return f"isomorphic={doc['isomorphic']}"
        if yes:
            return O.complex_witness_problem(*doc["facets"], doc["vertex_bijection"], len(a))
        return None if doc["vertex_bijection"] is None else "bijection on a no"

    argv = ["complex-iso", inputs.write(a, l), inputs.write(b, l)]
    return json_request(kind, argv, 0 if yes else 10, check_doc)


def classify_request(kind, inputs, l, a, b, rel, sigma, fa=None, fb=None) -> Request:
    algebra, grmod, complexes = VERDICTS[rel]
    n = len(a)

    def check_doc(doc):
        if doc["modulus"] != l or doc["sizes"] != [n, n] or doc["note"] is not None:
            return "wrong header"
        problem = pair_facets_problem(a, b, l, rel, sigma, fa, fb, doc["facets"])
        if problem:
            return problem
        if doc["dimensions"] != [max(map(len, f)) - 1 for f in doc["facets"]]:
            return "wrong dimensions"
        got = doc["algebra_isomorphic"]
        if (got is not None) is not algebra:
            return f"algebra_isomorphic={got}"
        if algebra and (problem := O.iso_witness_problem(a, b, got)):
            return problem
        got = doc["grmod_equivalent"]
        if (got is not None) is not grmod:
            return f"grmod_equivalent={got}"
        if grmod:
            if problem := O.equiv_witness_problem(a, b, l, got["permutation"], got["switch_exponents"]):
                return problem
            lambdas = [[i + 1, x % l] for i, x in enumerate(got["switch_exponents"])]
            if got["lambda_exponents"] != lambdas:
                return "lambda exponents do not match the switch exponents"
        got = doc["complexes_isomorphic"]
        if (got is not None) is not complexes:
            return f"complexes_isomorphic={got}"
        return O.complex_witness_problem(*doc["facets"], got, n) if complexes else None

    argv = ["classify", inputs.write(a, l), inputs.write(b, l)]
    return json_request(kind, argv, 0 if grmod else 10, check_doc)


def canonical_requests(kind: str, form: str, l, a, b, rel) -> list[Request]:
    """Two library calls, one canonical form each; the forms agree exactly on equivalent pairs.

    The second call's check compares with the first call's answer, so the
    two are served one after the other.
    """
    equal = VERDICTS[rel][1] if form == "canonical_class_form" else VERDICTS[rel][0]
    forms = []

    def call(m):
        return lambda: getattr(skewswitch, form)(m)

    def keep(got):
        forms.append(got)
        return None

    def compare(got):
        if not forms:
            return "no form for the first matrix"
        return None if (forms[-1] == got) is equal else f"forms {'differ' if equal else 'agree'}"

    ma, mb = skewswitch.make(l, len(a), a), skewswitch.make(l, len(b), b)
    return [Request(kind, call(ma), keep), Request(kind, call(mb), compare)]


def matrix_doc(e, l):
    return {"modulus": l, "size": len(e), "entries": e}


def count_request(kind, expected, what, l, n) -> Request:
    want = expected["counts"][f"{what}/{l}/{n}"]

    def check(resp):
        code, out = resp
        return None if code == 0 and out == f"{want}\n" else f"exit {code}, output {out[:80]!r}"

    return Request(kind, cli_send(["count", "--modulus", str(l), "--n", str(n), "--what", what]), check)


def census_request(kind, expected, l, n, brute, listed) -> Request:
    classes = expected["counts"][f"classes/{l}/{n}"]
    eulerian = expected["counts"][f"eulerian/{l}/{n}"]

    def check_doc(doc):
        head = [doc["modulus"], doc["size"], doc["switching_classes"], doc["eulerian_classes"]]
        if head != [l, n, classes, eulerian]:
            return f"got {head}"
        reps = doc["representatives"]
        if not listed:
            return None if reps is None else "unrequested representatives"
        if len(reps) != eulerian:
            return f"{len(reps)} representatives for {eulerian} classes"
        for r in reps:
            skew = all(r[i][j] == (-r[j][i]) % l and 0 <= r[i][j] < l for i in range(n) for j in range(n))
            if not skew or any(sum(row) % l for row in r):
                return "a representative is not an Eulerian skew matrix"
        return None

    argv = ["census", "--modulus", str(l), "--n", str(n)]
    argv += ["--brute-force"] * brute + ["--list"] * listed
    return json_request(kind, argv, 0, check_doc)


def tables_request(kind, expected, checked: bool) -> Request:
    lines = []
    for modulus, what, values in sorted(expected["reference_tables"]):
        if checked:
            lines.append(f"{what} modulus={modulus} n=1..{len(values)}: ok")
        else:
            lines.append(f"{what} modulus={modulus}: {values}")
    want = (0, "\n".join(lines) + "\n")
    return Request(kind, cli_send(["tables"] + ["--check"] * checked), expect_equal(want))


def layer_probes(rng: random.Random, inputs: Inputs, expected: dict) -> list[Request]:
    l, n = 3, PROBE_SIZE
    a = random_grid(rng, l, n)
    b, rel, sigma = partner(rng, a, l, "switch")
    fa, fb = O.facets_exhaustive(a, l), O.facets_exhaustive(b, l)
    probes = [classify_request("probe.classify", inputs, l, a, b, rel, sigma, fa, fb)]
    want = {"size": n, "facets": fa, "dimension": max(map(len, fa)) - 1}
    argv = ["complex", "--via", "isolations", inputs.write(a, l)]
    probes.append(json_request("probe.complex", argv, 0, expect_equal(want)))
    e = random_grid(rng, l, n - 1)  # gcd(4, 3) = 1
    want = O.eulerize(e, l)
    want = dict(matrix_doc(want.pop("entries"), l), **want)
    probes.append(json_request("probe.eulerize", ["eulerize", "--explain", inputs.write(e, l)], 0, expect_equal(want)))
    probes.append(count_request("probe.count", expected, "classes", *PROBE_COUNT))
    for (m, k), brute in zip(PROBE_CENSUS, (False, True)):
        probes.append(census_request("probe.census", expected, m, k, brute, listed=not brute))
    for form, rel in (("canonical_class_form", "switch"), ("canonical_iso_form", "iso")):
        a = random_grid(rng, l, n - 1)
        b, rel, _ = partner(rng, a, l, rel)
        probes += canonical_requests("probe.canonical", form, l, a, b, rel)
    return probes


# ---- workloads ------------------------------------------------------------


def decide(rng: random.Random, inputs: Inputs, expected: dict) -> Iterator[list[Request]]:
    """Large verdict pairs: the searches in skewmat and pointcomplex do nearly all the work."""
    equiv_sizes = {l: shuffled_cycle(rng, sizes) for l, sizes in EQUIV_SIZES.items()}
    iso_sizes = {l: shuffled_cycle(rng, sizes) for l, sizes in ISO_SIZES.items()}
    graphs = [shuffled_cycle(rng, PALEY_GRAPHS) for _ in range(2)]
    tours = [shuffled_cycle(rng, PALEY_TOURNAMENTS) for _ in range(2)]
    graphs_classify = shuffled_cycle(rng, PALEY_GRAPHS_CLASSIFY)
    tours_complex = shuffled_cycle(rng, [(p, c) for p in PALEY_TOURNAMENTS_COMPLEX for c in (0, 1)])
    classify_sizes = shuffled_cycle(rng, CLASSIFY_SIZES)
    relations = shuffled_cycle(rng, ("iso", "switch", "none"))
    counterexamples = shuffled_cycle(rng, ("pair6", "pair7", 4, 5, 6, 7))
    canonical = shuffled_cycle(
        rng, [(l, form, rel) for l in CANONICAL_MODULI for form, rels in CANONICAL_RELATIONS.items() for rel in rels]
    )
    paley_facets = expected["paley_facets"]

    def random_pair(l, n, rel):
        a = random_grid(rng, l, n)
        return (a, *partner(rng, a, l, rel))

    def paley_pair(p, l, rel):
        a = paley(p, l)
        b, rel, sigma = partner(rng, a, l, rel)
        fa = paley_facets.get(f"{l}/{p}")  # recorded where a complex is requested
        return a, b, rel, sigma, fa, fa and O.map_facets(fa, sigma)

    def counterexample(which):
        if which in ("pair6", "pair7"):
            l, n, arcs_a, arcs_b = PAIR_6 if which == "pair6" else PAIR_7
            a, b = from_arcs(l, n, arcs_a), from_arcs(l, n, arcs_b)
        else:
            l, n = which, 3
            a = [[0, 0, 0], [0, 0, 1], [0, l - 1, 0]]
            b = [[0, 0, 0], [0, 0, 2], [0, l - 2, 0]]
        b2, _, sigma = partner(rng, b, l, "switch")
        fb = O.map_facets(O.facets_exhaustive(b, l), sigma)
        return l, a, b2, "complex", sigma, O.facets_exhaustive(a, l), fb

    def one_round() -> Iterator[Request]:
        # above the median: the searches
        for l, sizes in equiv_sizes.items():
            for _ in range(YES_PAIRS_PER_ROUND):
                a, b, rel, _ = random_pair(l, next(sizes), "switch")
                yield equiv_request(f"equiv.random.l{l}", inputs, l, a, b, rel)
        a, b, rel, sigma, fa, fb = paley_pair(next(graphs_classify), 2, "switch")
        yield classify_request("classify.paley_graph", inputs, 2, a, b, rel, sigma, fa, fb)
        p, as_classify = next(tours_complex)
        a, b, rel, sigma, fa, fb = paley_pair(p, 3, "switch")
        build = classify_request if as_classify else complex_iso_request
        yield build("complex.paley_tournament", inputs, 3, a, b, rel, sigma, fa, fb)
        for build in (classify_request, complex_iso_request):
            a, b, rel, sigma = random_pair(3, next(classify_sizes), next(relations))
            yield build(f"{build.__name__.removesuffix('_request')}.random", inputs, 3, a, b, rel, sigma)
        for _ in range(CANONICAL_PAIRS_PER_ROUND):
            l, form, rel = next(canonical)
            a, b, rel, _ = random_pair(l, CANONICAL_SIZE, rel)
            yield from canonical_requests(form, form, l, a, b, rel)

        # around the median: no-pairs, which the equivalence check must still read and reject
        for l, sizes in iso_sizes.items():
            for _ in range(NO_PAIRS_PER_ROUND):
                a, b, rel, _ = random_pair(l, next(sizes), "none")
                yield equiv_request("equiv.random.no", inputs, l, a, b, rel)
        for family, l, menus in (("graph", 2, graphs), ("tournament", 3, tours)):
            for rel in ("switch", "none"):
                a, b, rel, *_ = paley_pair(next(menus[0]), l, rel)
                yield equiv_request(f"equiv.paley_{family}", inputs, l, a, b, rel)

        # below the median: isomorphism and the small counterexample pairs
        for l, sizes in iso_sizes.items():
            for rel in ("iso", "switch") * ISO_PAIRS_PER_RELATION:
                a, b, rel, _ = random_pair(l, next(sizes), rel)
                yield iso_request("iso.random", inputs, l, a, b, rel)
        for family, l, menus in (("graph", 2, graphs), ("tournament", 3, tours)):
            for rel in ("iso", "switch"):
                a, b, rel, *_ = paley_pair(next(menus[1]), l, rel)
                yield iso_request(f"iso.paley_{family}", inputs, l, a, b, rel)
        for build in (classify_request, complex_iso_request):
            l, a, b, rel, sigma, fa, fb = counterexample(next(counterexamples))
            kind = f"{build.__name__.removesuffix('_request')}.counterexample"
            yield build(kind, inputs, l, a, b, rel, sigma, fa, fb)
        yield from layer_probes(rng, inputs, expected)

    while True:
        yield list(one_round())


def count(rng: random.Random, inputs: Inputs, expected: dict) -> Iterator[list[Request]]:
    """Burnside counts on both solve routes: prime moduli by rank, composite by Smith normal form."""
    menu = [
        (route, what, l, n)
        for route, sizes in (("prime", COUNT_PRIME), ("composite", COUNT_COMPOSITE))
        for l, n in sizes
        for what in ("classes", "eulerian")
    ]

    def one_round() -> Iterator[Request]:
        rng.shuffle(menu)
        for route, what, l, n in menu:
            yield count_request(f"count.{route}", expected, what, l, n)
        yield tables_request("tables.check", expected, checked=True)
        yield from layer_probes(rng, inputs, expected)

    while True:
        yield list(one_round())


def batch(rng: random.Random, inputs: Inputs, expected: dict) -> Iterator[list[Request]]:
    """Many small requests over every command, where per-call fixed costs dominate."""
    shapes = shuffled_cycle(rng, [(l, n) for l in BATCH_MODULI for n in BATCH_SIZES])
    coprime = shuffled_cycle(
        rng, [(l, n) for l in BATCH_MODULI for n in BATCH_SIZES if math.gcd(l, n) == 1]
    )
    relations = shuffled_cycle(rng, ("iso", "switch", "none"))
    counts = shuffled_cycle(rng, [(w, l, n) for l, n in BATCH_COUNTS for w in ("classes", "eulerian")])
    enumerations = shuffled_cycle(
        rng,
        [("census.list", l, n, False, True) for l, n in CENSUS_LIST]
        + [("census.brute_force", l, n, True, k % 2 == 1) for k, (l, n) in enumerate(CENSUS_BRUTE)],
    )

    def matrix():
        l, n = next(shapes)
        return l, n, random_grid(rng, l, n)

    def one_round() -> Iterator[Request]:
        for text in (False, True):
            l, n, e = matrix()
            v = rng.randrange(1, n + 1)
            argv = ["switch", "-v", str(v), inputs.write(e, l, text)]
            yield json_request("switch", argv, 0, expect_equal(matrix_doc(O.switch(e, l, v), l)))
        l, n, e = matrix()
        v = rng.randrange(1, n + 1)
        argv = ["isolate", "-v", str(v), inputs.write(e, l)]
        yield json_request("isolate", argv, 0, expect_equal(matrix_doc(O.isolate(e, l, v), l)))
        l, n = next(coprime)
        e = random_grid(rng, l, n)
        want = O.eulerize(e, l)
        want = dict(matrix_doc(want.pop("entries"), l), **want)
        yield json_request("eulerize", ["eulerize", "--explain", inputs.write(e, l)], 0, expect_equal(want))

        for flags in ([], ["--components"], ["--via", "isolations"]):
            l, n, e = matrix()
            fs = O.facets_exhaustive(e, l)
            want = {"size": n, "facets": fs, "dimension": max(map(len, fs)) - 1}
            if flags == ["--components"]:
                want["components"] = [{"support": f, "projective_dimension": len(f) - 1} for f in fs]
            argv = ["complex", *flags, inputs.write(e, l, text=bool(flags))]
            yield json_request("complex", argv, 0, expect_equal(want))
        l, n, e = matrix()
        want = (0, O.dot_text(e) + "\n")
        yield Request("complex.dot", cli_send(["complex", "--emit-dot", inputs.write(e, l)]), expect_equal(want))

        for rel in ("switch", "none"):
            l, n, a = matrix()
            b, rel, _ = partner(rng, a, l, rel)
            yield equiv_request("equiv", inputs, l, a, b, rel, text=rel == "none")
        for rel in ("iso", "switch"):
            l, n, a = matrix()
            b, rel, _ = partner(rng, a, l, rel)
            yield iso_request("iso", inputs, l, a, b, rel)
        for build in (complex_iso_request, classify_request):
            l, n, a = matrix()
            b, rel, sigma = partner(rng, a, l, next(relations))
            fa, fb = O.facets_exhaustive(a, l), O.facets_exhaustive(b, l)
            yield build(build.__name__.removesuffix("_request"), inputs, l, a, b, rel, sigma, fa, fb)

        what, l, n = next(counts)
        yield count_request("count", expected, what, l, n)
        for _ in range(ENUMERATIONS_PER_ROUND):
            kind, l, n, brute, listed = next(enumerations)
            yield census_request(kind, expected, l, n, brute, listed)
        yield tables_request("tables", expected, checked=False)

        l, n, e = matrix()
        e[0][1] = (1 - e[1][0]) % l  # m_12 + m_21 = 1: not skew, refused as bad input
        yield Request("refuse.not_skew", cli_send(["switch", "-v", "1", inputs.write(e, l)]), expect_equal((2, "")))
        argv = ["census", "--brute-force", "--modulus", "2", "--n", "8"]
        yield Request("refuse.guard", cli_send(argv), expect_equal((3, "")))
        yield from layer_probes(rng, inputs, expected)

    while True:
        yield list(one_round())


WORKLOADS = {"decide": decide, "count": count, "batch": batch}

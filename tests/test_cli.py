"""Command-line interface: file formats, subcommands, exit codes."""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

import pytest

import dense_census as D
import facet_oracle as FO
import helpers as H
import skewswitch
from skewswitch import (
    REFERENCE_TABLES,
    EquivWitness,
    algfrontend,
    census,
    facets,
    isomorphic,
    make,
    relabel,
    switch,
    switch_many,
    switching_equivalent,
)
from skewswitch.cli import EXIT_GUARD, EXIT_NO, EXIT_USAGE, EXIT_YES, run

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
PYPROJECT = REPO_ROOT / "pyproject.toml"


def write_json(path, m):
    doc = {"modulus": m.modulus, "size": m.size, "entries": [list(r) for r in m.entries]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_text(path, m):
    rows = [f"{m.modulus} {m.size}"]
    rows += [" ".join(str(x) for x in row) for row in m.entries]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    return code, json.loads(capsys.readouterr().out)


class TestMatrixFiles:
    def test_json_and_text_formats_agree(self, tmp_path, capsys):
        m = make(3, 4, H.SWITCH_DIGRAPH_IN)
        pj = write_json(tmp_path / "m.json", m)
        pt = write_text(tmp_path / "m.txt", m)
        code_j, doc_j = run_json(capsys, ["switch", "-v", "3", pj])
        code_t, doc_t = run_json(capsys, ["switch", "-v", "3", pt])
        assert code_j == code_t == EXIT_YES
        assert doc_j == doc_t

    def test_missing_file(self, capsys):
        assert run(["switch", "-v", "1", "no-such-file.json"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"modulus": 3}', encoding="utf-8")
        assert run(["switch", "-v", "1", str(p)]) == EXIT_USAGE

    def test_deeply_nested_json_refused(self, tmp_path, capsys):
        # the JSON decoder recurses once per bracket, past any recursion limit
        depth = 200_000
        p = tmp_path / "nested.json"
        p.write_text('{"modulus": 3, "size": 1, "entries": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
        assert run(["switch", "-v", "1", str(p)]) == EXIT_USAGE
        assert f"{p}: JSON nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("entries", {"a": 1}),
            ("row", {"a": 1}),
            ("entry", {"a": 1}),
            ("modulus", "x" * 10_000),
            ("size", list(range(10_000))),
        ],
    )
    def test_refusal_quotes_a_short_prefix(self, tmp_path, capsys, field, value):
        if isinstance(value, dict):
            for _ in range(900):  # nested 900 deep, which the decoder still reads
                value = {"k": value}
        doc = {"modulus": 3, "size": 2, "entries": [[0, 1], [2, 0]]}
        if field in ("modulus", "size", "entries"):
            doc[field] = value
        else:
            doc["entries"][1] = value if field == "row" else [value, 0]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["switch", "-v", "1", str(p)]) == EXIT_USAGE
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {p}: ") and " must be " in line
        assert len(line) < len(str(p)) + 120, line

    @pytest.mark.parametrize(
        "text",
        ["3 " + "9" * 10_000 + "x\n0\n", "3 3 " + "4" * 10_000 + "\n0\n", "3 1\n" + "x" * 10_000 + "\n"],
        ids=["header-token", "header-line", "entry"],
    )
    def test_text_refusal_quotes_a_short_prefix(self, tmp_path, capsys, text):
        p = tmp_path / "bad.txt"
        p.write_text(text, encoding="utf-8")
        assert run(["switch", "-v", "1", str(p)]) == EXIT_USAGE
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {p}: ") and " must be " in line
        assert len(line) < len(str(p)) + 120, line

    def test_text_row_count_mismatch(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("3 3\n0 1 2\n2 0 1\n", encoding="utf-8")
        assert run(["switch", "-v", "1", str(p)]) == EXIT_USAGE

    def test_non_skew_entries_rejected(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(
            '{"modulus": 3, "size": 2, "entries": [[0, 1], [1, 0]]}', encoding="utf-8"
        )
        assert run(["switch", "-v", "1", str(p)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "doc, where",
        [
            ('{"modulus": 3, "size": 2, "entries": [[0, 1.7], [2, 0]]}', "entry (1, 2)"),
            ('{"modulus": 3, "size": 2, "entries": [[0, true], [2, 0]]}', "entry (1, 2)"),
            ('{"modulus": 3, "size": 2, "entries": [[0, 1], ["2", 0]]}', "entry (2, 1)"),
            ('{"modulus": 3, "size": 2, "entries": 5}', "entries"),
            ('{"modulus": 3, "size": 2, "entries": [[0, 1], 2]}', "row 2"),
            ('{"modulus": 3.0, "size": 2, "entries": [[0, 1], [2, 0]]}', "modulus"),
            ("3 2\n0 1.7\n2 0\n", "entry (1, 2)"),
            ("3 2\n0 1\nx 0\n", "entry (2, 1)"),
            ("3 x\n0 1\n2 0\n", "header size"),
            ("3.0 2\n0 1\n2 0\n", "header modulus"),
            # int() alone reads these as 10, 1, 2 and 3; the format takes a sign and ASCII digits only
            ("3 2\n0 1_0\n2 0\n", "entry (1, 2)"),
            ("3 2\n0 \u0661\n2 0\n", "entry (1, 2)"),
            ("3 \u0662\n0 1\n2 0\n", "header size"),
            ("3_0 2\n0 1\n2 0\n", "header modulus"),
            ("3 2\n0 1\n\uff12 0\n", "entry (2, 1)"),
            ("3 2\n0 +\n2 0\n", "entry (1, 2)"),
        ],
        ids=[
            "float",
            "bool",
            "string",
            "scalar-entries",
            "non-list-row",
            "float-modulus",
            "text-float",
            "text-word",
            "text-header-size",
            "text-header-modulus",
            "text-underscore",
            "text-arabic-indic-digit",
            "text-header-arabic-indic-digit",
            "text-header-underscore",
            "text-fullwidth-digit",
            "text-bare-sign",
        ],
    )
    def test_json_values_must_be_integers(self, tmp_path, capsys, doc, where):
        p = tmp_path / ("bad.json" if doc.startswith("{") else "bad.txt")
        p.write_text(doc, encoding="utf-8")
        assert run(["switch", "-v", "1", str(p)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{p}: {where} must be" in err

    def test_text_signs_and_unicode_spaces_accepted(self, tmp_path, capsys):
        p = tmp_path / "signed.txt"
        p.write_text("+3 2\n0\u00a0+1\n-1 0\n", encoding="utf-8")
        code, doc = run_json(capsys, ["switch", "-v", "1", str(p)])
        assert code == EXIT_YES
        assert doc["entries"] == [[0, 0], [0, 0]]

    def test_usage_error(self, capsys):
        assert run(["switch"]) == EXIT_USAGE
        assert run(["no-such-command"]) == EXIT_USAGE


class TestSwitchAndIsolate:
    def test_switch_display(self, tmp_path, capsys):
        p = write_json(tmp_path / "m.json", make(3, 4, H.SWITCH_DIGRAPH_IN))
        code, doc = run_json(capsys, ["switch", "-v", "3", p])
        assert code == EXIT_YES
        assert doc["entries"] == H.SWITCH_DIGRAPH_OUT

    def test_switch_bad_vertex(self, tmp_path, capsys):
        p = write_json(tmp_path / "m.json", make(3, 4, H.SWITCH_DIGRAPH_IN))
        assert run(["switch", "-v", "9", p]) == EXIT_USAGE

    def test_isolate_fan(self, tmp_path, capsys):
        p = write_json(tmp_path / "m.json", H.from_edges(3, 4, H.FAN_4_ARCS))
        code, doc = run_json(capsys, ["isolate", "-v", "1", p])
        assert code == EXIT_YES
        out = make(3, 4, doc["entries"])
        assert H.arcs_of(out) == set(H.FAN_4_ISOLATION_1)


class TestEulerize:
    def test_display_with_explanation(self, tmp_path, capsys):
        p = write_json(tmp_path / "m.json", make(4, 7, H.EULERIZE_7_INPUT))
        code, doc = run_json(capsys, ["eulerize", "--explain", p])
        assert code == EXIT_YES
        assert doc["entries"] == H.EULERIZE_7_OUTPUT
        assert doc["scale"] == 3
        assert doc["exponents"] == list(H.EULERIZE_7_EXPONENTS)
        assert doc["buckets"] == {
            str(k): list(vs) for k, vs in H.EULERIZE_7_BUCKETS.items()
        }

    def test_not_coprime_is_usage_error(self, tmp_path, capsys):
        p = write_json(tmp_path / "m.json", H.zero(2, 4))
        assert run(["eulerize", p]) == EXIT_USAGE


class TestVerdictCommands:
    def test_equiv_yes(self, tmp_path, capsys):
        a = H.zero(3, 4)
        b = switch(a, 2)
        pa = write_json(tmp_path / "a.json", a)
        pb = write_json(tmp_path / "b.json", b)
        code, doc = run_json(capsys, ["equiv", pa, pb])
        assert code == EXIT_YES
        assert doc["equivalent"] is True
        assert doc["permutation"] == [1, 2, 3, 4]
        assert doc["switch_exponents"] is not None

    def test_equiv_no(self, tmp_path, capsys):
        pa = write_json(tmp_path / "a.json", H.from_edges(3, 6, H.PAIR_6_A_ARCS))
        pb = write_json(tmp_path / "b.json", H.from_edges(3, 6, H.PAIR_6_B_ARCS))
        code, doc = run_json(capsys, ["equiv", pa, pb])
        assert code == EXIT_NO
        assert doc["equivalent"] is False

    def test_equiv_modulus_mismatch(self, tmp_path, capsys):
        pa = write_json(tmp_path / "a.json", H.zero(2, 3))
        pb = write_json(tmp_path / "b.json", H.zero(3, 3))
        assert run(["equiv", pa, pb]) == EXIT_USAGE

    def test_iso_both_ways(self, tmp_path, capsys):
        a, b = H.three_var_pair(5)
        pa = write_json(tmp_path / "a.json", a)
        pb = write_json(tmp_path / "b.json", b)
        assert run(["iso", pa, pb]) == EXIT_NO
        capsys.readouterr()
        code, doc = run_json(capsys, ["iso", pa, pa])
        assert code == EXIT_YES
        assert doc["permutation"] == [1, 2, 3]

    def test_complex_iso_pair(self, tmp_path, capsys):
        pa = write_json(tmp_path / "a.json", H.from_edges(3, 7, H.PAIR_7_A_ARCS))
        pb = write_json(tmp_path / "b.json", H.from_edges(3, 7, H.PAIR_7_B_ARCS))
        code, doc = run_json(capsys, ["complex-iso", pa, pb])
        assert code == EXIT_YES
        assert doc["isomorphic"] is True
        assert doc["facets"][0] == [list(f) for f in H.PAIR_7_FACETS]
        assert doc["facets"][1] == [list(f) for f in H.PAIR_7_FACETS]

    def test_complex_iso_distinct(self, tmp_path, capsys):
        pa = write_json(tmp_path / "a.json", H.from_edges(3, 4, H.CLASSES_4[0][0]))
        pb = write_json(tmp_path / "b.json", H.from_edges(3, 4, H.CLASSES_4[1][0]))
        assert run(["complex-iso", pa, pb]) == EXIT_NO


class TestComplex:
    def test_facets_direct_and_via_isolations(self, tmp_path, capsys):
        p = write_json(tmp_path / "m.json", H.from_edges(3, 6, H.PAIR_6_A_ARCS))
        code, doc = run_json(capsys, ["complex", p])
        assert code == EXIT_YES
        assert doc["facets"] == [list(f) for f in H.PAIR_6_FACETS]
        assert doc["dimension"] == 4
        # --via is still accepted, and every value prints the same bytes
        paley = write_json(tmp_path / "paley.json", H.paley(7, 3))
        for path in (p, paley):
            outs = []
            for via in ([], ["--via", "direct"], ["--via", "isolations"]):
                assert run(["complex", *via, path]) == EXIT_YES
                outs.append(capsys.readouterr().out)
            assert outs[1] == outs[0] and outs[2] == outs[0]
        assert json.loads(outs[0])["facets"] == [list(f) for f in FO.facets_via_isolations(H.paley(7, 3)).facets]

    def test_components(self, tmp_path, capsys):
        m = H.from_upper(3, 3, [1, 1, 1])
        p = write_json(tmp_path / "m.json", m)
        code, doc = run_json(capsys, ["complex", "--components", p])
        assert code == EXIT_YES
        assert doc["components"] == [
            {"support": [1, 2], "projective_dimension": 1},
            {"support": [1, 3], "projective_dimension": 1},
            {"support": [2, 3], "projective_dimension": 1},
        ]

    def test_no_option_state_carries_over_between_calls(self, tmp_path, capsys):
        p = write_json(tmp_path / "m.json", H.from_upper(3, 3, [1, 1, 1]))
        _, plain = run_json(capsys, ["complex", p])
        _, doc = run_json(capsys, ["complex", "--components", p])
        assert "components" in doc
        code, again = run_json(capsys, ["complex", p])
        assert code == EXIT_YES
        assert again == plain
        assert "components" not in again

    def test_emit_dot(self, tmp_path, capsys):
        p = write_json(tmp_path / "m.json", H.from_edges(3, 3, ((1, 2),)))
        code = run(["complex", "--emit-dot", p])
        out = capsys.readouterr().out
        assert code == EXIT_YES
        assert out.startswith("digraph")
        assert "1 -> 2" in out


class TestClassify:
    def test_six_vertex_pair(self, tmp_path, capsys):
        pa = write_json(tmp_path / "a.json", H.from_edges(3, 6, H.PAIR_6_A_ARCS))
        pb = write_json(tmp_path / "b.json", H.from_edges(3, 6, H.PAIR_6_B_ARCS))
        code, doc = run_json(capsys, ["classify", pa, pb])
        assert code == EXIT_NO
        assert doc["algebra_isomorphic"] is None
        assert doc["grmod_equivalent"] is None
        assert doc["complexes_isomorphic"] is not None
        assert doc["facets"] == [
            [list(f) for f in H.PAIR_6_FACETS],
            [list(f) for f in H.PAIR_6_FACETS],
        ]

    def test_equivalent_pair_reports_lambdas(self, tmp_path, capsys):
        a = H.zero(3, 3)
        pa = write_json(tmp_path / "a.json", a)
        pb = write_json(tmp_path / "b.json", switch(a, 2))
        code, doc = run_json(capsys, ["classify", pa, pb])
        assert code == EXIT_YES
        witness = doc["grmod_equivalent"]
        assert witness["permutation"] == [1, 2, 3]
        assert witness["lambda_exponents"] == [[1, 0], [2, 1], [3, 0]]

    def test_different_sizes(self, tmp_path, capsys):
        pa = write_json(tmp_path / "a.json", H.zero(3, 3))
        pb = write_json(tmp_path / "b.json", H.zero(3, 4))
        code, doc = run_json(capsys, ["classify", pa, pb])
        assert code == EXIT_NO
        assert doc["note"] is not None
        assert doc["dimensions"] == [2, 3]

    def test_isomorphic_pair_has_zero_exponents(self, tmp_path, capsys):
        m = H.random_alt(random.Random(47), 5, 6)
        sigma = (3, 1, 2, 6, 4, 5)
        pa = write_json(tmp_path / "a.json", m)
        pb = write_json(tmp_path / "b.json", relabel(m, sigma))
        code, doc = run_json(capsys, ["classify", pa, pb])
        assert code == EXIT_YES
        assert doc["algebra_isomorphic"] == list(isomorphic(m, relabel(m, sigma)))
        assert doc["grmod_equivalent"]["permutation"] == doc["algebra_isomorphic"]
        assert doc["grmod_equivalent"]["switch_exponents"] == [0] * 6
        assert doc["grmod_equivalent"]["lambda_exponents"] == [[i, 0] for i in range(1, 7)]
        assert doc["complexes_isomorphic"] == doc["algebra_isomorphic"]

    def test_lambda_exponents_rebuild_the_target(self, tmp_path, capsys):
        rng = random.Random(41)
        m = H.random_alt(rng, 4, 5)
        target = relabel(switch_many(m, (0, 3, 1, 2, 0)), (2, 5, 1, 3, 4))
        pa = write_json(tmp_path / "a.json", m)
        pb = write_json(tmp_path / "b.json", target)
        code, doc = run_json(capsys, ["classify", pa, pb])
        assert code == EXIT_YES
        witness = doc["grmod_equivalent"]
        lambdas = witness["lambda_exponents"]
        assert [i for i, _ in lambdas] == [1, 2, 3, 4, 5]
        assert [x for _, x in lambdas] == witness["switch_exponents"]
        assert all(0 <= x < 4 for _, x in lambdas)
        assert relabel(switch_many(m, [x for _, x in lambdas]), witness["permutation"]) == target


def paley_11_pair():
    """The Paley tournament p = 11 at l = 3, and a copy switched at vertex 2 and then relabeled."""
    m = H.paley(11, 3)
    return m, relabel(switch(m, 2), H.random_permutation(random.Random(3), 11))


class TestWitnessChain:
    """classify and complex-iso hand each witness down; the complex search runs only below a no."""

    @pytest.mark.parametrize("command", ["complex-iso", "classify"])
    def test_paley_11_pair_answers_with_the_witness_sigma(self, tmp_path, capsys, command):
        # the complex search alone takes 12 s here; the equivalence search about 0.3 ms
        a, b = paley_11_pair()
        pa, pb = write_json(tmp_path / "a.json", a), write_json(tmp_path / "b.json", b)
        start = time.perf_counter()
        code = run([command, pa, pb])
        elapsed = time.perf_counter() - start
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_YES
        sigma = doc["vertex_bijection" if command == "complex-iso" else "complexes_isomorphic"]
        assert sigma == list(switching_equivalent(a, b).sigma)
        ca, cb = facets(a), facets(b)
        assert {tuple(sorted(sigma[v - 1] for v in f)) for f in ca.facets} == set(cb.facets)
        assert elapsed < 0.1, f"{command} on the Paley p = 11 pair took {elapsed:.3f}s"

    @pytest.mark.parametrize(
        "a, b, code",
        [
            (H.from_edges(3, 4, H.CLASSES_4[0][0]), H.from_edges(2, 4, [(1, 2)]), EXIT_NO),
            (H.zero(3, 3), H.zero(3, 4), EXIT_NO),
            (H.zero(2, 3), H.zero(3, 3), EXIT_YES),  # one facet each: the complexes alone decide
        ],
        ids=["moduli", "sizes", "moduli-same-complex"],
    )
    def test_complex_iso_across_moduli_or_sizes(self, tmp_path, capsys, a, b, code):
        pa, pb = write_json(tmp_path / "a.json", a), write_json(tmp_path / "b.json", b)
        assert run(["complex-iso", pa, pb]) == code
        assert json.loads(capsys.readouterr().out)["isomorphic"] is (code == EXIT_YES)

    @pytest.mark.parametrize("command", ["complex-iso", "classify"])
    def test_unchecked_witness_is_never_printed(self, tmp_path, capsys, monkeypatch, command):
        m = H.from_edges(3, 6, H.PAIR_6_A_ARCS)
        target = switch(m, 2)
        faces = set(facets(m).facets)
        bad = next(s for s in permutations(range(1, 7)) if {tuple(sorted(s[v - 1] for v in f)) for f in faces} != faces)
        monkeypatch.setattr(algfrontend, "switching_equivalent", lambda x, y: EquivWitness(bad, (0,) * 6))
        pa, pb = write_json(tmp_path / "a.json", m), write_json(tmp_path / "b.json", target)
        with pytest.raises(RuntimeError, match="does not carry facets"):
            run([command, pa, pb])
        assert capsys.readouterr().out == ""


class TestCountCensusTables:
    def test_count_classes(self, capsys):
        assert run(["count", "--modulus", "2", "--n", "7"]) == EXIT_YES
        assert capsys.readouterr().out.strip() == "54"

    def test_count_eulerian(self, capsys):
        assert run(["count", "--modulus", "4", "--n", "5", "--what", "eulerian"]) == EXIT_YES
        assert capsys.readouterr().out.strip() == "62"

    def test_count_large_prime_modulus(self, capsys):
        assert run(["count", "--modulus", "4294967311", "--n", "4"]) == EXIT_YES
        assert capsys.readouterr().out.strip() == str(D.count_switching_classes(4294967311, 4))

    @pytest.mark.parametrize("command", ["count", "census"])
    def test_count_guard_exit_code(self, capsys, command):
        # p(100) is about 1.9e8 cycle types: hours of solving, refused at once
        start = time.perf_counter()
        assert run([command, "--modulus", "3", "--n", "100"]) == EXIT_GUARD
        assert time.perf_counter() - start < 1.0
        assert "cycle types" in capsys.readouterr().err

    def test_census_burnside(self, capsys):
        code, doc = run_json(capsys, ["census", "--modulus", "3", "--n", "4"])
        assert code == EXIT_YES
        assert doc["switching_classes"] == 4
        assert doc["eulerian_classes"] == 4
        assert doc["representatives"] is None

    def test_census_brute_force_with_list(self, capsys):
        code, doc = run_json(
            capsys, ["census", "--modulus", "2", "--n", "4", "--brute-force", "--list"]
        )
        assert code == EXIT_YES
        assert doc["switching_classes"] == 3
        assert len(doc["representatives"]) == 3

    def test_census_list_matches_brute_list(self, capsys):
        _, doc_a = run_json(capsys, ["census", "--modulus", "3", "--n", "4", "--list"])
        _, doc_b = run_json(
            capsys, ["census", "--modulus", "3", "--n", "4", "--brute-force", "--list"]
        )
        assert doc_a["representatives"] == doc_b["representatives"]

    def test_census_guard_exit_code(self, capsys):
        assert run(["census", "--modulus", "3", "--n", "7", "--list"]) == EXIT_GUARD
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--modulus", "2", "--n", "8", "--list"],
            ["--modulus", "2", "--n", "8", "--brute-force"],
            ["--modulus", "5", "--n", "6", "--list"],
        ],
    )
    def test_census_guard_counts_relabelings(self, capsys, argv):
        # fewer than 10^7 scanned codes each, but over 10^7 with n! images per orbit
        assert run(["census", *argv]) == EXIT_GUARD
        assert "relabelings, over the bound" in capsys.readouterr().err

    def test_tables_check(self, capsys):
        assert run(["tables", "--check"]) == EXIT_YES
        out = capsys.readouterr().out
        assert out.count("ok") == 3
        assert "MISMATCH" not in out

    def test_tables_check_mismatch_answers_no(self, capsys, monkeypatch):
        tables = dict(REFERENCE_TABLES)
        tables[(2, "classes")] = (1, 1, 2, 4)
        monkeypatch.setattr("skewswitch.census.REFERENCE_TABLES", tables)
        assert run(["tables", "--check"]) == EXIT_NO
        out = capsys.readouterr().out
        assert "classes modulus=2 n=1..4: MISMATCH" in out
        assert "computed [1, 1, 2, 3]" in out

    def test_tables_print(self, capsys):
        assert run(["tables"]) == EXIT_YES
        assert "1182004" in capsys.readouterr().out


def console_script_target(name):
    """The ``(module, function)`` that ``[project.scripts]`` binds to ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, function = target.partition(":")
    assert all(part.isidentifier() for part in module.split(".")), target
    assert function.isidentifier(), target
    return module, function


def run_console_script(name, argv, cwd):
    """Run the entry point as pip's generated wrapper does, importing from src/."""
    module, function = console_script_target(name)
    code = (
        f"import sys; from {module} import {function}; "
        f"sys.argv[0] = {name!r}; sys.exit({function}())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


# census --modulus 3 --n 4 --list, as listed by the numpy walk the orbit walk replaced
CENSUS_3_4_REPRESENTATIVES = [
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 0, 0], [0, 0, 1, 2], [0, 2, 0, 1], [0, 1, 2, 0]],
    [[0, 0, 1, 2], [0, 0, 1, 2], [2, 2, 0, 2], [1, 1, 1, 0]],
    [[0, 0, 1, 2], [0, 0, 2, 1], [2, 1, 0, 0], [1, 2, 0, 0]],
]

# ---- JSON output: one line per document, fixed answers --------------------

CONTRACT_FILES = {
    "path.txt": "3 4\n0 1 0 0\n2 0 1 0\n0 2 0 1\n0 0 2 0\n",
    "zero.txt": "3 4\n0 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n",
    # path relabeled by (2, 4, 1, 3)
    "relabeled.txt": "3 4\n0 0 1 2\n0 0 0 1\n2 0 0 0\n1 2 0 0\n",
    # relabeled, then switched at vertex 2
    "moved.txt": "3 4\n0 1 1 2\n2 0 2 0\n2 1 0 0\n1 0 0 0\n",
}
PATH_FACETS = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
CENSUS_3_4 = {"modulus": 3, "size": 4, "switching_classes": 4, "eulerian_classes": 4}

# (argv, exit code, parsed document) for each JSON command on the files above
OUTPUT_CONTRACT = {
    "switch": (
        ["switch", "-v", "2", "path.txt"],
        EXIT_YES,
        {"modulus": 3, "size": 4, "entries": [[0, 2, 0, 0], [1, 0, 0, 2], [0, 0, 0, 1], [0, 1, 2, 0]]},
    ),
    "isolate": (
        ["isolate", "-v", "3", "path.txt"],
        EXIT_YES,
        {"modulus": 3, "size": 4, "entries": [[0, 2, 0, 2], [1, 0, 0, 1], [0, 0, 0, 0], [1, 2, 0, 0]]},
    ),
    "eulerize": (
        ["eulerize", "--explain", "path.txt"],
        EXIT_YES,
        {
            "modulus": 3,
            "size": 4,
            "entries": [[0, 0, 2, 1], [0, 0, 1, 2], [1, 2, 0, 0], [2, 1, 0, 0]],
            "scale": 1,
            "row_sums": [1, 0, 0, 2],
            "buckets": {"0": [2, 3], "1": [1], "2": [4]},
            "exponents": [1, 0, 0, 2],
        },
    ),
    "equiv.yes": (
        ["equiv", "path.txt", "moved.txt"],
        EXIT_YES,
        {"equivalent": True, "permutation": [1, 3, 4, 2], "switch_exponents": [0, 0, 2, 1]},
    ),
    "equiv.no": (
        ["equiv", "path.txt", "zero.txt"],
        EXIT_NO,
        {"equivalent": False, "permutation": None, "switch_exponents": None},
    ),
    "iso.yes": (["iso", "path.txt", "relabeled.txt"], EXIT_YES, {"isomorphic": True, "permutation": [2, 4, 1, 3]}),
    "iso.no": (["iso", "path.txt", "moved.txt"], EXIT_NO, {"isomorphic": False, "permutation": None}),
    "complex": (["complex", "path.txt"], EXIT_YES, {"size": 4, "facets": PATH_FACETS, "dimension": 1}),
    "complex.components": (
        ["complex", "--components", "path.txt"],
        EXIT_YES,
        {
            "size": 4,
            "facets": PATH_FACETS,
            "dimension": 1,
            "components": [{"support": f, "projective_dimension": 1} for f in PATH_FACETS],
        },
    ),
    "complex-iso": (
        ["complex-iso", "path.txt", "moved.txt"],
        EXIT_YES,
        # the sigma of the equivalence witness (equiv.yes), not the lex-first bijection
        {"isomorphic": True, "vertex_bijection": [1, 3, 4, 2], "facets": [PATH_FACETS, PATH_FACETS]},
    ),
    "classify": (
        ["classify", "path.txt", "moved.txt"],
        EXIT_YES,
        {
            "modulus": 3,
            "sizes": [4, 4],
            "algebra_isomorphic": None,
            "grmod_equivalent": {
                "permutation": [1, 3, 4, 2],
                "switch_exponents": [0, 0, 2, 1],
                "lambda_exponents": [[1, 0], [2, 0], [3, 2], [4, 1]],
            },
            "complexes_isomorphic": [1, 3, 4, 2],
            "facets": [PATH_FACETS, PATH_FACETS],
            "dimensions": [1, 1],
            "note": None,
        },
    ),
    "census": (
        ["census", "--modulus", "3", "--n", "4"],
        EXIT_YES,
        dict(CENSUS_3_4, representatives=None),
    ),
    "census.list": (
        ["census", "--modulus", "3", "--n", "4", "--list"],
        EXIT_YES,
        dict(CENSUS_3_4, representatives=CENSUS_3_4_REPRESENTATIVES),
    ),
    "census.brute_force": (
        ["census", "--modulus", "3", "--n", "4", "--brute-force"],
        EXIT_YES,
        dict(CENSUS_3_4, representatives=None),
    ),
    "census.brute_force.list": (
        ["census", "--modulus", "3", "--n", "4", "--brute-force", "--list"],
        EXIT_YES,
        dict(CENSUS_3_4, representatives=CENSUS_3_4_REPRESENTATIVES),
    ),
}


@pytest.fixture
def contract_dir(tmp_path, monkeypatch):
    for name, body in CONTRACT_FILES.items():
        (tmp_path / name).write_text(body, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("case", sorted(OUTPUT_CONTRACT))
def test_json_output_is_one_line(contract_dir, capsys, case):
    argv, code, doc = OUTPUT_CONTRACT[case]
    assert run(argv) == code
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1, out
    assert json.loads(out) == doc


def test_switch_output_reads_back_as_input(contract_dir, capsys):
    for source, target in (("path.txt", "switched.json"), ("switched.json", "twice.json")):
        assert run(["switch", "-v", "2", source]) == EXIT_YES
        (contract_dir / target).write_text(capsys.readouterr().out, encoding="utf-8")
    assert run(["equiv", "path.txt", "twice.json"]) == EXIT_YES


@pytest.mark.parametrize("case", ["equiv.yes", "equiv.no", "iso.yes", "classify", "complex", "census.list"])
def test_json_commands_leave_no_cyclic_garbage(contract_dir, capsys, case):
    argv, code, _ = OUTPUT_CONTRACT[case]
    gc.collect()
    gc.disable()  # no automatic collection may hide garbage from the count below
    try:
        assert run(argv) == code
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("case", ["census", "census.list", "census.brute_force", "census.brute_force.list"])
def test_census_runs_one_burnside_sum(monkeypatch, capsys, case):
    calls = []

    def counted(modulus, size):
        calls.append((modulus, size))
        return counter(modulus, size)

    counter = census.count_eulerian_classes
    monkeypatch.setattr(census, "count_eulerian_classes", counted)
    argv, code, doc = OUTPUT_CONTRACT[case]
    assert run_json(capsys, argv) == (code, doc)
    assert len(calls) <= 1


def test_every_public_name_is_documented_in_readme():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    missing = [name for name in skewswitch.__all__ if f"`{name}`" not in readme]
    assert not missing, f"public names absent from README.md: {missing}"


PUBLIC_HOMES = {
    "algfrontend": "ClassificationReport SkewAlgebraSpec classify_pair",
    "census": "COUNT_GUARD ENUM_GUARD REFERENCE_TABLES CensusResult CycleType brute_force_census "
    "count_eulerian_classes count_switching_classes cycle_types enumerate_eulerian_representatives",
    "errors": "NotCoprimeError ResourceGuardError",
    "eulerian": "ORBIT_GUARD RowSumProfile eulerian_in_orbit eulerize is_modular_eulerian row_sum_profile",
    "pointcomplex": "SimplicialComplex complexes_isomorphic dimension facets",
    "skewmat": "AltMatrix EquivWitness Permutation SwitchExponents canonical_class_form canonical_iso_form "
    "isolate isomorphic make relabel switch switch_many switching_equivalent verify_witness",
}


def test_public_names_resolve_on_first_use(tmp_path):
    homes = {name: home for home, names in PUBLIC_HOMES.items() for name in names.split()}
    assert len(homes) == 39 and sorted(skewswitch.__all__) == sorted(homes)
    for name, home in homes.items():
        assert getattr(skewswitch, name) is getattr(getattr(skewswitch, home), name), name
    # a fresh interpreter, in which a bare import has loaded no submodule yet
    code = (
        "import json, sys, skewswitch; "
        "bare = [m for m in sys.modules if m.startswith('skewswitch.')]; "
        "listed = set(skewswitch.__all__) <= set(dir(skewswitch)); "
        f"modules = [getattr(skewswitch, home).__name__ for home in {sorted(PUBLIC_HOMES)!r}]; "
        "names = {}; exec('from skewswitch import *', names); "
        "same = all(names[n] is getattr(skewswitch, n) for n in skewswitch.__all__); "
        "print(json.dumps([bare, listed, modules, sorted(set(names) - {'__builtins__'}), same])); "
        "skewswitch.no_such_name"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    bare, listed, modules, star, same = json.loads(proc.stdout)
    assert bare == [] and listed and same
    assert modules == [f"skewswitch.{home}" for home in sorted(PUBLIC_HOMES)]
    assert star == sorted(homes)
    assert "AttributeError: module 'skewswitch' has no attribute 'no_such_name'" in proc.stderr


def test_import_leaves_numpy_unloaded(tmp_path):
    # a fresh interpreter: this test process has numpy and every submodule loaded already
    code = (
        "import json, sys; import skewswitch.cli, skewswitch; "
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('skewswitch.')); "
        "print(json.dumps(['numpy' in sys.modules, loaded()])); "
        "code = skewswitch.cli.run(['census', '--modulus', '3', '--n', '4', '--list']); "
        "print(json.dumps(loaded())); sys.exit(code)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == EXIT_YES, proc.stderr
    before, listing, after = proc.stdout.splitlines()
    # the CLI imports the library modules only when a command runs them
    assert json.loads(before) == [False, ["skewswitch.cli", "skewswitch.errors"]]
    assert {"skewswitch.census", "skewswitch.skewmat"} <= set(json.loads(after))
    assert not {"skewswitch.pointcomplex", "skewswitch.eulerian", "skewswitch.algfrontend"} & set(json.loads(after))
    doc = json.loads(listing)
    assert doc["eulerian_classes"] == 4
    assert doc["representatives"] == CENSUS_3_4_REPRESENTATIVES


def run_without_numpy(argv, cwd):
    """Run the CLI in a fresh interpreter in which importing numpy fails, as where it is not installed."""
    program = (
        "import sys; sys.modules['numpy'] = None; import skewswitch.cli; "
        f"sys.exit(skewswitch.cli.run({argv!r}))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, cwd=cwd, env=env)


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--modulus", "3", "--n", "4", "--list"],
        ["census", "--modulus", "3", "--n", "4", "--brute-force", "--list"],
    ],
)
def test_enumerations_answer_without_numpy(tmp_path, argv):
    proc = run_without_numpy(argv, tmp_path)
    assert proc.returncode == EXIT_YES, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["switching_classes"], doc["eulerian_classes"]) == (4, 4)
    assert doc["representatives"] == CENSUS_3_4_REPRESENTATIVES


@pytest.mark.parametrize(
    "argv, code",
    [
        # refused on the codes scanned, then on the orbits' n! images
        (["census", "--modulus", "3", "--n", "7", "--list"], EXIT_GUARD),
        (["census", "--modulus", "3", "--n", "7", "--brute-force"], EXIT_GUARD),
        (["census", "--modulus", "2", "--n", "8", "--list"], EXIT_GUARD),
        (["census", "--modulus", "2", "--n", "8", "--brute-force"], EXIT_GUARD),
        (["census", "--modulus", "3", "--n", "5"], EXIT_YES),
    ],
)
def test_enumerations_without_numpy_refuse(tmp_path, argv, code):
    proc = run_without_numpy(argv, tmp_path)
    assert proc.returncode == code, proc.stderr


class TestDeepSearchRefusal:
    """Searches count steps, not depth: at 1100 vertices the face search refuses, the switching calculus answers.

    iso answers there too (tests/test_skewmat.py), and CI runs the iso and equiv commands on it.
    """

    @pytest.fixture(scope="class")
    def zero_1100(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("deep") / "zero.txt"
        row = " ".join(["0"] * 1100)
        path.write_text("3 1100\n" + "\n".join([row] * 1100) + "\n", encoding="utf-8")
        return str(path)

    # every subset of the zero matrix is a face, so the search trips ENUM_GUARD
    @pytest.mark.parametrize("command", ["complex"])
    def test_search_refused(self, capsys, zero_1100, command):
        start = time.perf_counter()
        assert run([command, zero_1100]) == EXIT_GUARD
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "face search over 1100 vertices" in line and "ENUM_GUARD" in line

    @pytest.mark.parametrize("argv", [["switch", "-v", "1"], ["eulerize"]])
    def test_switching_answers(self, capsys, zero_1100, argv):
        code, doc = run_json(capsys, [*argv, zero_1100])
        assert code == EXIT_YES
        assert doc["size"] == 1100


def run_module(module, argv, cwd):
    """Run ``python -m module argv`` in a fresh interpreter importing from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, cwd=cwd, env=env
    )


@pytest.mark.parametrize("module", ["skewswitch", "skewswitch.cli"])
def test_python_dash_m(tmp_path, capsys, module):
    argv = ["count", "--modulus", "3", "--n", "4"]
    assert run(argv) == EXIT_YES
    proc = run_module(module, argv, tmp_path)
    assert (proc.returncode, proc.stdout) == (EXIT_YES, capsys.readouterr().out), proc.stderr

    a = write_text(tmp_path / "path.txt", H.from_edges(3, 4, [(1, 2), (2, 3), (3, 4)]))
    b = write_text(tmp_path / "zero.txt", H.zero(3, 4))
    proc = run_module(module, ["equiv", a, b], tmp_path)
    assert proc.returncode == EXIT_NO, proc.stderr
    assert json.loads(proc.stdout)["equivalent"] is False


class TestInstalledEntryPoint:
    def test_console_script(self, tmp_path):
        p = write_text(tmp_path / "m.txt", make(2, 4, H.SWITCH_GRAPH_IN))
        proc = run_console_script("skewswitch", ["switch", "-v", "3", p], tmp_path)
        assert proc.returncode == EXIT_YES, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["entries"] == H.SWITCH_GRAPH_OUT

        proc = run_console_script(
            "skewswitch", ["switch", "-v", "1", "no-such-file.json"], tmp_path
        )
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "error:" in proc.stderr

    @pytest.mark.skipif(
        shutil.which("skewswitch") is None, reason="skewswitch console script not installed"
    )
    def test_console_script_on_path(self, tmp_path):
        p = write_text(tmp_path / "m.txt", make(2, 4, H.SWITCH_GRAPH_IN))
        proc = subprocess.run(
            ["skewswitch", "switch", "-v", "3", str(p)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_YES
        doc = json.loads(proc.stdout)
        assert doc["entries"] == H.SWITCH_GRAPH_OUT

"""Command-line surface.

Matrices travel as JSON documents {"modulus": l, "size": n, "entries":
[[...]]} or as plain text (a "modulus size" header line, then n rows).
Verdict subcommands use the exit code for the mathematical answer so that
shell pipelines can branch on it: 0 yes, 10 no, 2 bad input or usage,
3 resource guard tripped.  `tables --check` answers 10 when a recomputed
table differs from its published copy.

Each handler imports the library modules it runs, so that a call loads only
what its command needs: start-up is most of the cost of a small request.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import ResourceGuardError

if TYPE_CHECKING:
    from .skewmat import AltMatrix

__all__ = ["run", "main"]

EXIT_YES = 0
EXIT_NO = 10
EXIT_USAGE = 2
EXIT_GUARD = 3


def _shown(value: object) -> str:
    # a container by its JSON type, anything else by a short prefix, so a refusal stays short
    return {list: "a JSON array", dict: "a JSON object"}.get(type(value)) or json.dumps(value)[:40]


def _json_int(value: object, what: str) -> int:
    # exact type: bool is a subclass of int, and int() would coerce floats and strings
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {_shown(value)}")
    return value


def _text_int(token: str, what: str) -> int:
    # int() alone would also read 1_0 and the digits of other scripts
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} must be an integer, got {token[:40]!r}")
    return int(token)


def _load_matrix(path: str) -> AltMatrix:
    from .skewmat import make

    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
        missing = {"modulus", "size", "entries"} - set(doc)
        if missing:
            raise ValueError(f"{path}: missing keys {sorted(missing)}")
        modulus = _json_int(doc["modulus"], f"{path}: modulus")
        size = _json_int(doc["size"], f"{path}: size")
        entries = doc["entries"]
        if not isinstance(entries, list):
            raise ValueError(f"{path}: entries must be a list of rows, got {_shown(entries)}")
        for i, row in enumerate(entries, start=1):
            if not isinstance(row, list):
                raise ValueError(f"{path}: row {i} must be a list, got {_shown(row)}")
            # the set of types is the fast check; the scan only finds the cell to name
            if not set(map(type, row)) <= {int}:
                j = [type(value) is int for value in row].index(False)
                _json_int(row[j], f"{path}: entry ({i}, {j + 1})")
        return make(modulus, size, entries)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}: header must be 'modulus size', got {lines[0][:40]!r}")
    modulus = _text_int(head[0], f"{path}: header modulus")
    size = _text_int(head[1], f"{path}: header size")
    if len(lines) != size + 1:
        raise ValueError(f"{path}: expected {size} rows, found {len(lines) - 1}")
    grid = []
    for i, ln in enumerate(lines[1:], start=1):
        # int() reads just the literals _text_int accepts on ASCII rows without "_"
        if ln.isascii() and "_" not in ln:
            try:
                grid.append([int(tok) for tok in ln.split()])
                continue
            except ValueError:
                pass
        grid.append([_text_int(tok, f"{path}: entry ({i}, {j})") for j, tok in enumerate(ln.split(), start=1)])
    return make(modulus, size, grid)


def _matrix_doc(m: AltMatrix) -> dict:
    return {"modulus": m.modulus, "size": m.size, "entries": m.entries}


def _emit(doc: dict) -> None:
    # one line in the input layout; without indent, json.dumps takes the C encoder
    print(json.dumps(doc))


def _cmd_switch(args: argparse.Namespace) -> int:
    from .skewmat import switch

    _emit(_matrix_doc(switch(_load_matrix(args.file), args.vertex)))
    return EXIT_YES


def _cmd_isolate(args: argparse.Namespace) -> int:
    from .skewmat import isolate

    _emit(_matrix_doc(isolate(_load_matrix(args.file), args.vertex)))
    return EXIT_YES


def _cmd_eulerize(args: argparse.Namespace) -> int:
    from .eulerian import eulerize, row_sum_profile

    m = _load_matrix(args.file)
    result, exponents = eulerize(m)
    doc = _matrix_doc(result)
    if args.explain:
        profile = row_sum_profile(m)
        doc["scale"] = pow(m.size, -1, m.modulus)
        doc["row_sums"] = profile.sums
        doc["buckets"] = {str(k): vs for k, vs in enumerate(profile.buckets) if vs}
        doc["exponents"] = exponents
    _emit(doc)
    return EXIT_YES


def _cmd_equiv(args: argparse.Namespace) -> int:
    from .skewmat import switching_equivalent

    witness = switching_equivalent(_load_matrix(args.first), _load_matrix(args.second))
    _emit(
        {
            "equivalent": witness is not None,
            "permutation": witness.sigma if witness else None,
            "switch_exponents": witness.exponents if witness else None,
        }
    )
    return EXIT_YES if witness else EXIT_NO


def _cmd_iso(args: argparse.Namespace) -> int:
    from .skewmat import isomorphic

    sigma = isomorphic(_load_matrix(args.first), _load_matrix(args.second))
    _emit({"isomorphic": sigma is not None, "permutation": sigma})
    return EXIT_YES if sigma else EXIT_NO


def _dot_digraph(m: AltMatrix) -> str:
    # arcs point toward the vertex seeing the smaller exponent, ties broken upward
    lines = ["digraph skew {"]
    lines += [f"  {v};" for v in range(1, m.size + 1)]
    for i in range(m.size):
        for j in range(i + 1, m.size):
            v = m.entries[i][j]
            if v == 0:
                continue
            w = m.entries[j][i]
            if v <= w:
                lines.append(f'  {i + 1} -> {j + 1} [label="{v}"];')
            else:
                lines.append(f'  {j + 1} -> {i + 1} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines)


def _cmd_complex(args: argparse.Namespace) -> int:
    from .pointcomplex import dimension, facets

    m = _load_matrix(args.file)
    if args.emit_dot:
        print(_dot_digraph(m))
        return EXIT_YES
    cx = facets(m)
    doc = {
        "size": cx.n,
        "facets": cx.facets,
        "dimension": dimension(cx),
    }
    if args.components:
        # one linear component of the point variety per facet F, of projective dimension |F| - 1
        doc["components"] = [{"support": f, "projective_dimension": len(f) - 1} for f in cx.facets]
    _emit(doc)
    return EXIT_YES


def _cmd_complex_iso(args: argparse.Namespace) -> int:
    from .algfrontend import _verdicts
    from .pointcomplex import complexes_isomorphic, facets

    # both face searches first, so a refused one refuses before any matrix search
    ca = facets(a := _load_matrix(args.first))
    cb = facets(b := _load_matrix(args.second))
    chained = (a.modulus, a.size) == (b.modulus, b.size)
    sigma = _verdicts(a, b, ca, cb)[2] if chained else complexes_isomorphic(ca, cb)
    _emit({"isomorphic": sigma is not None, "vertex_bijection": sigma, "facets": [ca.facets, cb.facets]})
    return EXIT_YES if sigma else EXIT_NO


def _cmd_classify(args: argparse.Namespace) -> int:
    from .algfrontend import SkewAlgebraSpec, classify_pair
    from .pointcomplex import dimension

    a = SkewAlgebraSpec(_load_matrix(args.first))
    b = SkewAlgebraSpec(_load_matrix(args.second))
    report = classify_pair(a, b)
    witness = report.grmod_equivalent
    doc = {
        "modulus": a.modulus,
        "sizes": [a.size, b.size],
        "algebra_isomorphic": report.algebra_isomorphic,
        "grmod_equivalent": {
            "permutation": witness.sigma,
            "switch_exponents": witness.exponents,
            # variable i is rescaled by the a_i-th power of the root; a_i is already reduced
            "lambda_exponents": [[i, x] for i, x in enumerate(witness.exponents, start=1)],
        }
        if witness
        else None,
        "complexes_isomorphic": report.complexes_isomorphic,
        "facets": [report.first_facets.facets, report.second_facets.facets],
        "dimensions": [dimension(report.first_facets), dimension(report.second_facets)],
        "note": report.note,
    }
    _emit(doc)
    return EXIT_YES if witness else EXIT_NO


def _cmd_count(args: argparse.Namespace) -> int:
    from .census import count_eulerian_classes, count_switching_classes

    counter = count_switching_classes if args.what == "classes" else count_eulerian_classes
    print(counter(args.modulus, args.n))
    return EXIT_YES


def _cmd_census(args: argparse.Namespace) -> int:
    from .census import brute_force_census, count_switching_classes, enumerate_eulerian_representatives

    # one Burnside sum per request: a listing is checked against it, and the
    # two counts are equal (the duality theorem in count_switching_classes)
    if args.brute_force:
        result = brute_force_census(args.modulus, args.n)
        s, t = result.switching_classes, result.eulerian_classes
        reps = result.representatives if args.list else None
    elif args.list:
        reps = enumerate_eulerian_representatives(args.modulus, args.n)
        s = t = len(reps)
    else:
        s = t = count_switching_classes(args.modulus, args.n)
        reps = None
    _emit(
        {
            "modulus": args.modulus,
            "size": args.n,
            "switching_classes": s,
            "eulerian_classes": t,
            "representatives": [r.entries for r in reps] if reps is not None else None,
        }
    )
    return EXIT_YES


def _cmd_tables(args: argparse.Namespace) -> int:
    from .census import REFERENCE_TABLES, count_eulerian_classes, count_switching_classes

    mismatched = False
    for (modulus, what), expected in sorted(REFERENCE_TABLES.items()):
        if args.check:
            counter = count_switching_classes if what == "classes" else count_eulerian_classes
            computed = tuple(counter(modulus, n) for n in range(1, len(expected) + 1))
            status = "ok" if computed == expected else "MISMATCH"
            print(f"{what} modulus={modulus} n=1..{len(expected)}: {status}")
            if computed != expected:
                mismatched = True
                print(f"  expected {list(expected)}")
                print(f"  computed {list(computed)}")
        else:
            print(f"{what} modulus={modulus}: {list(expected)}")
    return EXIT_NO if mismatched else EXIT_YES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewswitch",
        description="Switching calculus for skew exponent matrices over Z/lZ.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("switch", help="switch at one vertex")
    p.add_argument("-v", "--vertex", type=int, required=True, help="1-indexed vertex")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_switch)

    p = sub.add_parser("isolate", help="switch so one vertex's row and column vanish")
    p.add_argument("-v", "--vertex", type=int, required=True, help="1-indexed vertex")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_isolate)

    p = sub.add_parser("eulerize", help="the Eulerian matrix in the switching orbit")
    p.add_argument("file")
    p.add_argument("--explain", action="store_true", help="include scale, buckets, exponents")
    p.set_defaults(handler=_cmd_eulerize)

    p = sub.add_parser("equiv", help="decide switching equivalence (exit 0 yes / 10 no)")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("iso", help="decide matrix isomorphism (exit 0 yes / 10 no)")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("complex", help="point complex of a matrix")
    p.add_argument("file")
    p.add_argument(
        "--via",
        choices=["direct", "isolations"],
        default="direct",
        help="accepted for old scripts; both values run the one facet search",
    )
    p.add_argument("--components", action="store_true", help="list variety components")
    p.add_argument("--emit-dot", action="store_true", help="print the digraph in dot format")
    p.set_defaults(handler=_cmd_complex)

    p = sub.add_parser("complex-iso", help="compare point complexes (exit 0 yes / 10 no)")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_complex_iso)

    p = sub.add_parser("classify", help="all three classification questions for a pair")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("count", help="exact class count")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--what", choices=["classes", "eulerian"], default="classes")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("census", help="both class counts, optionally with representatives")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--brute-force", action="store_true", help="recount both by enumeration, without Burnside")
    p.add_argument("--list", action="store_true", help="include class representatives")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("tables", help="print or recheck the published count tables")
    p.add_argument("--check", action="store_true", help="recompute and diff")
    p.set_defaults(handler=_cmd_tables)

    return parser


# built once: parsing leaves the parser unchanged, and a parser per call is
# cyclic garbage that lingers until a full collection
_PARSER = _build_parser()


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map errors to the exit-code contract."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_YES if exc.code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Record the answers the benchmark checks against into expected.json.

Run once, from the root of the repository, at the commit whose answers are
taken as correct:

    python3 bench/record_expected.py

Counts are cross-checked against the published tables before they are
written.  Re-recording replaces the reference, so a change that alters an
expected answer shows up as a change to expected.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import skewswitch  # noqa: E402

import workloads as W  # noqa: E402


def compact_json(doc: dict) -> str:
    """One line per entry of each top-level section, so a changed answer shows as one changed line."""
    sections = []
    for key, value in doc.items():
        if isinstance(value, dict):
            entries = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in value.items())
            body = "{\n" + entries + "\n }"
        else:
            body = "[\n" + ",\n".join("  " + json.dumps(v, separators=(",", ":")) for v in value) + "\n ]"
        sections.append(f" {json.dumps(key)}: {body}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> None:
    counters = {"classes": skewswitch.count_switching_classes, "eulerian": skewswitch.count_eulerian_classes}
    counts = {f"{what}/{l}/{n}": counters[what](l, n) for what, l, n in W.count_keys()}
    tables = [[l, what, list(values)] for (l, what), values in sorted(skewswitch.REFERENCE_TABLES.items())]
    paley_facets = {}
    for l, primes in ((2, W.PALEY_GRAPHS), (3, W.PALEY_TOURNAMENTS_COMPLEX)):
        for p in primes:
            m = skewswitch.make(l, p, W.paley(p, l))
            paley_facets[f"{l}/{p}"] = [list(f) for f in skewswitch.facets(m).facets]
    doc = {"reference_tables": tables, "counts": counts, "paley_facets": paley_facets}
    W.EXPECTED_PATH.write_text(compact_json(doc), encoding="utf-8")
    W.load_expected()  # raises if a recorded count disagrees with a published table


if __name__ == "__main__":
    main()

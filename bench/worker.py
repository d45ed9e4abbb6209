"""One workload run in a fresh interpreter: a closed loop with one client.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR

Requests are sent one after another, each as soon as the previous answer
has been checked, in whole rounds until their service times add up to
SECONDS.  Input generation and answer checking happen between requests
and are not timed.  Every reported time is in reference seconds (see
calibration.py); the measured values are reported beside them.  A request
fails on a wrong answer, a witness that does not verify, an unexpected
exit code or an uncaught exception; the failure is counted and the loop
goes on.

With TRACE 1 the loop runs untraced for half the time, then the same
requests are replayed with every layer's public functions wrapped in span
recorders (see tracing.py).  Per-layer numbers come from the replay, and
the replay's service time over the untraced pass, minus 1, is the tracing
overhead.

The last line of stdout is one JSON object with the counts and metrics.
"""

from __future__ import annotations

import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SLICE_S = 0.1
INPUT_SLOTS = 1024  # more than any round writes
CALIBRATION_WINDOW = 2

# Per-layer metrics, all reported on every workload (0 where a layer is not reached).
# A function that calls another traced function does not count the callee's time
# in its own self time: the composite route of count_solutions_mod, for one, spends
# nearly all of its time in smith_normal_form.
PER_LAYER_CALLS = (
    "skewmat.switching_equivalent",
    "skewmat.isolate",
    "pointcomplex.facets",
    "modlinalg.IntMatrix.from_rows",
)
PER_LAYER_SELF = (
    "cli.run",
    "skewmat.make",
    "skewmat.switching_equivalent",
    "skewmat.triple_tensor",
    "skewmat.isomorphic",
    "skewmat.potential_witness",
    "skewmat.relabel",
    "skewmat.canonical_class_form",
    "skewmat.canonical_iso_form",
    "pointcomplex.facets",
    "pointcomplex.facets_via_isolations",
    "pointcomplex.complexes_isomorphic",
    "algfrontend.classify_pair",
    "census.fixed_point_system",
    "census.count_switching_classes",
    "census.count_eulerian_classes",
    "modlinalg.IntMatrix.from_rows",
    "modlinalg.smith_normal_form",
    "census.brute_force_census",
    "census.enumerate_eulerian_representatives",
    "eulerian.eulerize",
    "eulerian.row_sum_profile",
)
PER_LAYER_COUNTS = (
    "pointcomplex.facets.facets_out",
    "census.cycle_types.out",
    "modlinalg.count_solutions_mod.cells",
    "census.enumerate.candidates",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.calls": "count" for name in PER_LAYER_CALLS}
    units.update({name: "count" for name in PER_LAYER_COUNTS})
    units.update({f"{name}.self_s": "s" for name in PER_LAYER_SELF})
    units.update({f"modlinalg.count_solutions_mod.self_s.{r}": "s" for r in ("prime", "composite")})
    units["census.enumerate.classes_per_candidate"] = "ratio"
    units.update({f"{layer}.self_s": "s" for layer in tracing.LAYERS})
    units["trace.overhead_frac"] = "ratio"
    return units


def execute(request: workloads.Request, tracer: tracing.Tracer | None) -> tuple[float, str | None]:
    """Serve one request; return its service time and why it failed, or None."""
    problem = None
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        response = request.send()
    except Exception as exc:  # a crash is an answer that failed, and the loop goes on
        response, problem = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if problem is None:
        try:
            problem = request.check(response)
        except Exception as exc:  # malformed output
            problem = f"unreadable answer: {type(exc).__name__}: {exc}"
    return latency, problem


@dataclass
class Served:
    kind: str
    seconds: float  # measured service time
    problem: str | None
    scale: float  # reference seconds per measured second, from the calibrations around it
    request: workloads.Request | None  # kept only for a replay, since it holds the inputs

    @property
    def reference_s(self) -> float:
        return self.seconds * self.scale


def serve(
    rounds: Iterator[list[workloads.Request]], seconds: float, tracer=None, keep_requests=False
) -> list[Served]:
    """Closed loop over whole rounds until their service times reach `seconds`.

    Stopping only between rounds gives every run the same mix, whatever
    the seed and the machine's speed.  Requests are grouped into slices of
    at least SLICE_S of service time with a calibration between slices; a
    slice's requests are scaled by the median of the calibrations within
    CALIBRATION_WINDOW slices of it, which follows the machine's drift over
    seconds but not the jitter of a single calibration.
    """
    slices: list[list[tuple[str, float, str | None, workloads.Request | None]]] = []
    calibrations = [calibration.calibrate()]
    batch: list[tuple[str, float, str | None, workloads.Request | None]] = []
    busy = slice_busy = 0.0
    count = 0
    for round_ in rounds:
        for request in round_:
            if tracer is not None:
                tracer.request_id = count
            latency, problem = execute(request, tracer)
            batch.append((request.kind, latency, problem, request if keep_requests else None))
            count += 1
            busy += latency
            slice_busy += latency
            if slice_busy >= SLICE_S:
                calibrations.append(calibration.calibrate())
                slices.append(batch)
                batch, slice_busy = [], 0.0
        if busy >= seconds:
            break
    if batch:
        calibrations.append(calibration.calibrate())
        slices.append(batch)
    served = []
    for i, batch in enumerate(slices):
        window = calibrations[max(0, i - CALIBRATION_WINDOW) : i + CALIBRATION_WINDOW + 2]
        scale = calibration.REFERENCE_S / statistics.median(window)
        served += [Served(*entry[:3], scale, entry[3]) for entry in batch]
    return served


def summary(served: list[Served]) -> dict:
    failures = [(s.kind, s.problem) for s in served if s.problem]
    kinds: dict[str, list[float]] = {}
    for s in served:
        kinds.setdefault(s.kind, []).append(s.reference_s)
    total = sum(s.reference_s for s in served)
    return {
        "attempted": len(served),
        "failed": len(failures),
        "service_s": total,
        "measured_service_s": sum(s.seconds for s in served),
        "first_failures": failures[:5],
        # per kind: requests, median service time in ms, share of all service time
        "kinds": {k: [len(v), statistics.median(v) * 1e3, sum(v) / total] for k, v in sorted(kinds.items())},
    }


def latency_quantiles_ms(seconds: list[float]) -> tuple[float, float]:
    """Median and 90th percentile in ms."""
    if len(seconds) == 1:
        return seconds[0] * 1e3, seconds[0] * 1e3
    return statistics.median(seconds) * 1e3, statistics.quantiles(seconds, n=10)[8] * 1e3


def end_to_end(served: list[Served]) -> dict:
    s = summary(served)
    correct = s["attempted"] - s["failed"]
    p50, p90 = latency_quantiles_ms([x.reference_s for x in served])
    s["metrics"] = {
        "throughput_rps": correct / s["service_s"],
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    s["units"] = {"throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "peak_rss_mib": "MiB"}
    measured_p50, measured_p90 = latency_quantiles_ms([x.seconds for x in served])
    s["measured"] = {
        "throughput_rps": correct / s["measured_service_s"],
        "latency_p50_ms": measured_p50,
        "latency_p90_ms": measured_p90,
    }
    s["latency_samples"] = len(served)
    s["failed_frac"] = s["failed"] / s["attempted"]
    return s


def per_layer(untraced: list[Served], traced: list[Served], tracer: tracing.Tracer) -> dict:
    s = summary(traced)
    base = summary(untraced)
    seconds = tracer.self_seconds(lambda request: traced[request].scale)
    values = {f"{name}.calls": tracer.calls[name] for name in PER_LAYER_CALLS}
    values.update({name: tracer.counts[name] for name in PER_LAYER_COUNTS})
    values.update({f"{name}.self_s": float(seconds[name]) for name in PER_LAYER_SELF})
    for route in ("prime", "composite"):
        key = f"modlinalg.count_solutions_mod.self_s.{route}"
        values[key] = float(seconds[key])
    candidates = tracer.counts["census.enumerate.candidates"]
    values["census.enumerate.classes_per_candidate"] = (
        tracer.counts["census.enumerate.classes"] / candidates if candidates else 0.0
    )
    values.update({f"{layer}.self_s": float(seconds[layer]) for layer in tracing.LAYERS})
    values["trace.overhead_frac"] = s["service_s"] / base["service_s"] - 1
    s["metrics"] = values
    s["units"] = per_layer_units()
    s["attempted"] += base["attempted"]
    s["failed"] += base["failed"]
    s["first_failures"] = (base["first_failures"] + s["first_failures"])[:5]
    s["spans"] = len(tracer.spans)
    return s


def write_requests(served: list[Served], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in served:
            fh.write(json.dumps({"kind": s.kind, "seconds": s.seconds, "scale": s.scale, "problem": s.problem}) + "\n")


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, out_dir = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4])
    expected = workloads.load_expected()
    inputs_dir = out_dir / f"inputs-{workload}-{seed}-{trace:d}"
    shutil.rmtree(inputs_dir, ignore_errors=True)
    try:
        # a traced run replays the untraced pass, so it keeps every input file
        inputs = workloads.Inputs(inputs_dir, slots=None if trace else INPUT_SLOTS)
        stream = workloads.WORKLOADS[workload](random.Random(seed), inputs, expected)
        if not trace:
            served = serve(stream, seconds)
            result = end_to_end(served)
            write_requests(served, out_dir / f"requests-{workload}.jsonl")
        else:
            untraced = serve(stream, seconds / 2, keep_requests=True)
            tracer = tracing.Tracer()
            result = {"traced_functions": len(tracer.install())}
            try:
                traced = serve(iter([[s.request for s in untraced]]), math.inf, tracer)
            finally:
                tracer.uninstall()
            result.update(per_layer(untraced, traced, tracer))
            tracer.write_spans(out_dir / f"spans-{workload}.jsonl")
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""skewswitch benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from src/.  The
workload itself runs in a fresh interpreter (bench/worker.py), so that
memory one workload takes does not show up in another's peak RSS.

With --trace 0 the last line of stdout reports the end-to-end metrics:
throughput of correct answers, median and 90th-percentile service time
(both in reference time, which takes out the machine's speed drift; see
calibration.py), set-up time (the import of skewswitch.cli in a fresh
interpreter, the cost every CLI invocation pays; median of several, as
measured) and the worker's peak RSS.  With --trace 1 it reports the
per-layer metrics of a traced run instead.  The line before it holds the
details: sample counts, failed fraction, measured (unscaled) times,
per-kind medians and the first failures.  Per-request times and the spans
of a traced run are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("decide", "count", "batch")
SETUP_REPEATS = 11
TIME_LIMIT_S = 170
SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import skewswitch.cli; print(time.perf_counter() - t)"
)


def setup_seconds(deadline: float) -> float:
    """Median import time of skewswitch.cli over SETUP_REPEATS fresh interpreters.

    Single imports vary by about 15% from one process to the next, and
    calibrating them against the machine's speed does not narrow that, so
    the median is taken as measured.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if probe.returncode != 0:
            raise RuntimeError(f"importing skewswitch.cli failed:\n{probe.stderr}")
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "skewswitch" / "cli.py").is_file():
        print(f"bench: no package sources at {ROOT / 'src' / 'skewswitch'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds(deadline)
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.seconds),
         str(args.trace), str(OUT_DIR)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if worker.returncode != 0:
        print(worker.stderr, file=sys.stderr)
        return 1
    detail = json.loads(worker.stdout.splitlines()[-1])
    metrics.update(detail.pop("metrics"))
    units = detail.pop("units")
    if not args.trace:
        units["setup_s"] = "s"
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail}))
    print(
        json.dumps(
            {
                "correct": detail["failed"] == 0,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

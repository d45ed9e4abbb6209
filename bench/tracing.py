"""Outside-in tracing of the skewswitch layers.

The tracer wraps each public function of the seven package modules with a
span recorder and rebinds the wrapper at every module attribute that held
the original, so `cli.switching_equivalent` and
`skewmat.switching_equivalent` both record.  Nothing inside the package is
edited: spans sit at the layer boundaries, as seen from the benchmark.

Spans are kept in memory as (id, name, start_ns, end_ns, parent_id,
request_id, self_ns) and written out when the run ends.  A span's self time
is its duration minus the durations of the spans it directly encloses;
with a monotonic clock and strictly nested spans it is never negative.
Self times are also summed per (request, name), so that the caller can
scale each request's times by the machine speed measured around it.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter
from typing import Any, Callable

LAYERS = ("cli", "algfrontend", "skewmat", "pointcomplex", "eulerian", "census", "modlinalg")

# (name, attribute path inside the module) of methods traced beside the module functions
METHODS = (("modlinalg.IntMatrix.from_rows", ("modlinalg", "IntMatrix", "from_rows")),)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _count_solutions_hook(tracer: "Tracer", args, kwargs, result, self_ns: int) -> None:
    a, modulus = args[:2]
    tracer.counts["modlinalg.count_solutions_mod.cells"] += a.rows * a.cols
    route = "prime" if is_prime(modulus) else "composite"
    tracer.self_ns[tracer.request_id, f"modlinalg.count_solutions_mod.self_s.{route}"] += self_ns


def _enumeration_hook(free_vertex_pairs: Callable[[int], int], classes: Callable[[Any], int]):
    def hook(tracer: "Tracer", args, kwargs, result, self_ns: int) -> None:
        modulus, size = args[:2]
        tracer.counts["census.enumerate.candidates"] += modulus ** free_vertex_pairs(size)
        tracer.counts["census.enumerate.classes"] += classes(result)

    return hook


# counters recorded at the boundary of a traced call, after it returns
HOOKS: dict[str, Callable] = {
    "pointcomplex.facets": lambda tr, a, k, r, s: tr.counts.update(
        {"pointcomplex.facets.facets_out": len(r.facets)}
    ),
    "census.cycle_types": lambda tr, a, k, r, s: tr.counts.update({"census.cycle_types.out": len(r)}),
    "modlinalg.count_solutions_mod": _count_solutions_hook,
    "census.brute_force_census": _enumeration_hook(
        lambda n: n * (n - 1) // 2, lambda r: r.switching_classes
    ),
    "census.enumerate_eulerian_representatives": _enumeration_hook(
        lambda n: (n - 1) * (n - 2) // 2, len
    ),
}


class Tracer:
    """Span recorder; `active` is on only while a request is being served."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int, int]] = []
        self.self_ns: Counter[tuple[int, str]] = Counter()  # by (request id, name)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.functions: set[str] = set()
        self.request_id = -1
        self.active = False
        self._stack: list[list[int]] = []  # [span id, ns covered by direct children]
        self._next_id = 0
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        hook = HOOKS.get(name)
        self.functions.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0]
            tracer._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                duration = end - start
                self_ns = duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((span_id, name, start, end, parent, tracer.request_id, self_ns))
                tracer.self_ns[tracer.request_id, name] += self_ns
                tracer.calls[name] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result, self_ns)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every public function of every layer that exists; return the traced names."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"skewswitch.{layer}")
            except ModuleNotFoundError:
                continue
        bindings = list(modules.values()) + [importlib.import_module("skewswitch")]
        originals: dict[int, tuple[str, Callable]] = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if callable(fn) and not isinstance(fn, type) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (f"{layer}.{attr}", fn)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        for module in bindings:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)][1]:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        traced = sorted(name for name, _ in originals.values())
        for name, (layer, *path) in METHODS:
            owner = modules.get(layer)
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(path[-1]) if owner is not None else None
            if isinstance(raw, classmethod):
                self._restore.append((owner, path[-1], raw))
                setattr(owner, path[-1], classmethod(self.wrap(name, raw.__func__)))
                traced.append(name)
        return traced

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_seconds(self, scale: Callable[[int], float]) -> Counter[str]:
        """Self time per span name and per layer, each request's share scaled by scale(request id)."""
        out: Counter[str] = Counter()
        for (request, name), ns in self.self_ns.items():
            seconds = ns * 1e-9 * scale(request)
            out[name] += seconds
            if name in self.functions:
                out[name.split(".", 1)[0]] += seconds
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request, self_ns in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                            "self_ns": self_ns,
                        }
                    )
                    + "\n"
                )

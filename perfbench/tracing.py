"""Spans around sparsepin's library layers, recorded from outside the program.

`Tracer.install()` replaces every function listed in a layer module's
``__all__`` with a recording wrapper, at every binding of that function in a
loaded ``sparsepin`` module: ``simulate_visit_counts``, for one, is bound in
``sparsepin.walk``, ``sparsepin.experiments`` and ``sparsepin`` itself, and
calls inside a module go through its own binding.  `Tracer.remove()` puts
the originals back.  The benchmark opens one ``cli.main`` span per op, so
the ``cli`` layer's self time is the op time the library spans leave over.

Spans stay in memory until the run ends.  Work counts come from call
arguments and return values only: the program keeps no counters of its own
yet, so walker-steps and bisection trails are out of reach from here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

LAYERS = ("environment", "walk", "pinning", "experiments")


def _scan_counts(args, report):
    return {"points": len(report.points),
            "inconsistent": sum(not p.consistent for p in report.points)}


def _verify_rounds(args, report):
    # N starts at the resolved length and doubles once per extra round
    return {"rounds": round(math.log2(report.n_series / args["cfg"].resolved_n())) + 1}


# span name -> work counts of one call, from its bound arguments and result
COUNTS = {
    "environment.sample_renewal": lambda a, r: {"sites": a["horizon"]},
    "environment.sample_disorder": lambda a, r: {"draws": a["n"]},
    "walk.build_potential": lambda a, r: {"sites": a["env"].horizon},
    "walk.simulate_visit_counts": lambda a, r: {"walkers": a["replicas"]},
    "walk.expected_visits_exact": lambda a, r: {"sites": a["r"]},
    "walk.scale_values": lambda a, r: {"sites": a["n"]},
    "pinning.pinned_recursion": lambda a, r: {"sites": a["n"]},
    "pinning.free_partition": lambda a, r: {"sites": a["table"].n},
    "experiments.verify_key_relation": _verify_rounds,
    "experiments.regime_scan": _scan_counts,
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    counts: dict | None = None


class Tracer:
    """Records spans of the wrapped layer functions; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sparsepin.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "sparsepin" and not modname.startswith("sparsepin."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def remove(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    @contextmanager
    def span(self, name: str):
        """Record one span; the benchmark also opens one around each op."""
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                    self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = perf_counter()
        try:
            yield span
        except BaseException as err:
            span.error = type(err).__name__
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy time, shares, work counts and rates of one traced run."""
    by_id = {s.id: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_time = {s.id: s.end - s.start - child_time[s.id] for s in spans}

    busy = defaultdict(float)
    calls = defaultdict(int)
    fn_self = defaultdict(float)
    work = defaultdict(float)
    for s in spans:
        busy[s.name.split(".")[0]] += self_time[s.id]
        calls[s.name] += 1
        fn_self[s.name] += self_time[s.id]
        for key, value in (s.counts or {}).items():
            work[f"{s.name}.{key}"] += value
    total = sum(s.end - s.start for s in spans if s.parent is None)

    def under(s: Span, name: str) -> bool:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    # W(R) evaluated once: expected_visits_exact delegates to scale_values
    exact_sites = sum(s.counts["sites"] for s in spans
                      if s.name in ("walk.expected_visits_exact", "walk.scale_values")
                      and not (s.parent is not None
                               and by_id[s.parent].name == "walk.expected_visits_exact"))
    critical = "pinning.quenched_critical_point_estimate"
    fe_in_critical = sum(1 for s in spans
                         if s.name == "pinning.free_energy_estimate" and under(s, critical))
    mc = "walk.simulate_visit_counts"
    m = {}
    for layer in ("environment", "walk", "pinning"):
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.share"] = _rate(busy[layer], total)
    m["environment.calls"] = sum(n for name, n in calls.items()
                                 if name.startswith("environment."))
    m["environment.renewal_sites_per_s"] = _rate(
        work["environment.sample_renewal.sites"], fn_self["environment.sample_renewal"])
    m["environment.disorder_draws_per_s"] = _rate(
        work["environment.sample_disorder.draws"], fn_self["environment.sample_disorder"])
    m["walk.mc_calls"] = calls[mc]
    m["walk.walkers"] = work[f"{mc}.walkers"]
    m["walk.walkers_per_call"] = _rate(work[f"{mc}.walkers"], calls[mc])
    m["walk.walkers_per_s"] = _rate(work[f"{mc}.walkers"], fn_self[mc])
    m["walk.potential_sites_per_s"] = _rate(work["walk.build_potential.sites"],
                                            fn_self["walk.build_potential"])
    m["walk.exact_sites_per_s"] = _rate(
        exact_sites, fn_self["walk.expected_visits_exact"] + fn_self["walk.scale_values"])
    m["walk.budget_errors"] = sum(1 for s in spans
                                  if s.name == mc and s.error == "StepBudgetError")
    m["pinning.recursion_calls"] = calls["pinning.pinned_recursion"]
    m["pinning.recursion_sites"] = work["pinning.pinned_recursion.sites"]
    m["pinning.recursion_sites_per_s"] = _rate(work["pinning.pinned_recursion.sites"],
                                               fn_self["pinning.pinned_recursion"])
    m["pinning.free_sites_per_s"] = _rate(work["pinning.free_partition.sites"],
                                          fn_self["pinning.free_partition"])
    m["pinning.fe_evals"] = calls["pinning.free_energy_estimate"]
    m["pinning.fe_evals_per_critical"] = _rate(fe_in_critical, calls[critical])
    m["pinning.gc_calls"] = calls["pinning.grand_canonical"]
    m["pinning.gc_s"] = fn_self["pinning.grand_canonical"]
    m["pinning.bracket_errors"] = sum(1 for s in spans
                                      if s.name == critical and s.error == "BracketError")
    m["experiments.self_s"] = busy["experiments"]
    m["experiments.verify_rounds"] = work["experiments.verify_key_relation.rounds"]
    m["experiments.scan_points"] = work["experiments.regime_scan.points"]
    m["experiments.inconsistent_points"] = work["experiments.regime_scan.inconsistent"]
    m["cli.self_s"] = busy["cli"]
    return m

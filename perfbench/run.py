#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sparsepin command line.

    python3 perfbench/run.py                # every workload: metrics table + tracing overhead
    python3 perfbench/run.py --workload verify --seed 3 --seconds 30 --trace 0

A workload is a list of ops.  Op i is one in-process ``sparsepin.cli.main``
call whose ``--seed`` is derived from the workload seed and i, so the program
sees only generated command lines.  One closed-loop client runs the ops one
after another in this process (``--workers`` stays 1, no threads): one
warm-up op, then ops until ``--seconds`` have passed.  The benchmark checks
every op's report itself, at 5 standard errors where the program uses 3, so
a changed RNG stream layout cannot flip an op to failed by chance.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run with every library layer wrapped (see tracing.py); it runs a fixed
number of ops, seconds / nominal op time, so its work counts repeat exactly
for one seed.  The last line of stdout is one JSON object; BENCHMARK.json at
the repository root names every metric and its unit.  README.md in this
directory says why each workload is there and which metric each layer moves.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_STARTS = 7

sys.path.insert(0, str(SRC))
try:
    from sparsepin import cli
except ImportError as err:
    sys.exit(f"perfbench: cannot import sparsepin from {SRC}: {err}")


def _report(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text())


def check_verify(outdir: Path) -> str | None:
    doc = _report(outdir, "verify.json")
    rel = doc["key_relation"]
    rhs = rel["rhs"]
    if rhs["verdict"] != "converged":
        return f"series verdict {rhs['verdict']}"
    gap = abs(rel["lhs"]["mean"] - rhs["partial_sum"])
    tol = 5.0 * rel["lhs"]["stderr"] + rhs["tail_bound"]
    if not gap <= tol:
        return f"|lhs - rhs| = {gap} > 5 stderr + tail bound = {tol}"
    if not doc["tau_mean_bound"]["passed"]:
        return "tau_mean_bound failed"
    return None


def check_walk(outdir: Path) -> str | None:
    v = _report(outdir, "visits.json")["visits"]
    gap = abs(v["mean"] - v["exact"])
    if not gap <= 5.0 * v["stderr"]:
        return f"|mean - W(R)| = {gap} > 5 stderr = {5.0 * v['stderr']}"
    return None


def check_scan(outdir: Path) -> str | None:
    doc = _report(outdir, "scan.json")
    crit_tol = doc["config"]["crit_tol"]
    for p in doc["scan"]["points"]:
        # gaussian disorder, sigma = 1: lambda(beta) = beta^2 / 2
        if not abs(p["h_c_annealed"] + p["beta"] ** 2 / 2) <= 1e-12:
            return f"h_c_annealed {p['h_c_annealed']} at beta {p['beta']}"
        if p["bracket"] is not None:
            lo, hi = p["bracket"]
            if not (lo >= p["h_c_annealed"] and hi - lo <= crit_tol):
                return f"bracket {p['bracket']} at beta {p['beta']}"
    return None


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    check: Callable[[Path], str | None]
    nominal_op_s: float  # seed-code op time; sizes the traced run only


WORKLOADS = {
    "verify": Workload(("verify",), check_verify, 3.5),
    "walk": Workload(("walk", "--beta", "1", "--h=-1", "--f", "0.3", "--horizon", "100",
                      "--r", "50", "--replicas", "100000"), check_walk, 0.3),
    "scan": Workload(("scan",), check_scan, 5.0),
}


def op_seed(workload: str, seed: int, i: int) -> int:
    digest = hashlib.blake2b(f"{workload}/{seed}/{i}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def run_op(workload: str, seed: int, i: int, outdir: Path,
           tracer: tracing.Tracer | None = None) -> tuple[float, str | None]:
    """Run op i; return its wall time and why its report failed the check, if it did."""
    wl = WORKLOADS[workload]
    for old in outdir.iterdir():
        old.unlink()
    argv = [*wl.argv, "--seed", str(op_seed(workload, seed, i)), "--outdir", str(outdir)]
    span = contextlib.nullcontext()
    if tracer is not None:
        tracer.op = i
        span = tracer.span("cli.main")
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(sys.stderr):
            cli.main(argv)
    except Exception as err:  # an op that raises is a failed op, not a failed run
        return time.perf_counter() - start, f"raised {type(err).__name__}: {err}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, wl.check(outdir)
    except (OSError, KeyError, TypeError, ValueError) as err:
        return elapsed, f"unreadable report: {type(err).__name__}: {err}"


def setup_seconds() -> float:
    """Median time from spawning a fresh interpreter to `import sparsepin.cli` done."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sparsepin.cli, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    samples = []
    for _ in range(SETUP_STARTS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        samples.append(float(done.stdout) - start)
    return statistics.median(samples)


def _tally(workload: str, i: int, problem: str | None, failed: int) -> int:
    if problem is None:
        return failed
    print(f"{workload} op {i} failed: {problem}", file=sys.stderr)
    return failed + 1


def timed_run(workload: str, seed: int, seconds: float, outdir: Path) -> dict:
    setup_s = setup_seconds()
    _, problem = run_op(workload, seed, 0, outdir)
    failed = _tally(workload, 0, problem, 0)
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        elapsed, problem = run_op(workload, seed, len(times) + 1, outdir)
        times.append(elapsed)
        failed = _tally(workload, len(times), problem, failed)
    wall = time.perf_counter() - start
    attempted = len(times) + 1
    metrics = {
        "ops_per_s": len(times) / wall,
        "op_s_p50": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"ops_per_s": f"{len(times)} timed ops", "op_s_p50": f"{len(times)} timed ops",
             "setup_s": f"median of {SETUP_STARTS} interpreter starts",
             "peak_rss_mb": "ru_maxrss of this process"}
    print(f"{workload} failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops, warm-up included)")
    return _result(workload, "end_to_end", attempted, failed, metrics, notes)


def traced_run(workload: str, seed: int, seconds: float, outdir: Path) -> dict:
    n_ops = max(1, round(seconds / WORKLOADS[workload].nominal_op_s))
    bytes_written = 0
    with tracing.Tracer() as tracer:
        _, problem = run_op(workload, seed, 0, outdir, tracer)
        failed = _tally(workload, 0, problem, 0)
        tracer.spans.clear()
        start = time.perf_counter()
        for i in range(1, n_ops + 1):
            _, problem = run_op(workload, seed, i, outdir, tracer)
            failed = _tally(workload, i, problem, failed)
            bytes_written += sum(f.stat().st_size for f in outdir.iterdir())
        wall = time.perf_counter() - start
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["cli.bytes_written"] = bytes_written
    metrics["trace.ops_per_s"] = n_ops / wall
    tracer.dump(OUT / f"spans-{workload}-{seed}.jsonl")
    notes = dict.fromkeys(metrics, f"{n_ops} traced ops")
    return _result(workload, "per_layer", n_ops + 1, failed, metrics, notes)


def _result(workload: str, section: str, attempted: int, failed: int, metrics: dict,
            notes: dict) -> dict:
    declared = [m["name"] for m in SPEC[section]]
    if sorted(declared) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {declared}")
    for name in declared:
        print(f"{workload} {name} {metrics[name]:.6g} {UNITS[name]} ({notes[name]})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": UNITS[name]}
                        for name in declared}}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    outdir = OUT / f"{workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if trace else timed_run
        return run(workload, seed, seconds, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def run_all(seed: int, seconds: float) -> dict:
    """Each workload untraced then traced, each run in its own process."""
    summary = {}
    for workload in WORKLOADS:
        runs = []
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode or not lines:
                raise RuntimeError(f"{workload} --trace {trace} exited {done.returncode}")
            print("\n".join(lines[:-1]))
            runs.append(json.loads(lines[-1]))
        plain = runs[0]["metrics"]["ops_per_s"]["value"]
        traced = runs[1]["metrics"]["trace.ops_per_s"]["value"]
        overhead = plain / traced - 1.0
        print(f"{workload} tracing overhead {overhead:+.2%} "
              f"(traced {traced:.6g} ops/s, untraced {plain:.6g} ops/s)")
        summary[workload] = {"untraced": runs[0], "traced": runs[1],
                             "tracing_overhead": overhead}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

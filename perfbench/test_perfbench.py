"""Tests of the benchmark itself:  python3 -m pytest perfbench

They run a few single ops of each workload, about a minute in all.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing


def _bindings() -> dict:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "sparsepin" or name.startswith("sparsepin.")
            for attr, value in vars(module).items()}


def _one_op(workload: str, outdir: Path, tracer=None) -> dict:
    outdir.mkdir()
    _, problem = run.run_op(workload, 7, 1, outdir, tracer)
    assert problem is None
    return {f.name: f.read_bytes() for f in outdir.iterdir()}


def _same_objects(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


def test_untraced_op_and_removed_tracer_leave_sparsepin_untouched(tmp_path):
    before = _bindings()
    _one_op("walk", tmp_path / "plain")
    assert _same_objects(before, _bindings())
    with tracing.Tracer() as tracer:
        _one_op("walk", tmp_path / "traced", tracer)
        wrapped = _bindings()
    assert sum(wrapped[k] is not v for k, v in before.items()) > len(tracing.COUNTS)
    assert _same_objects(before, _bindings())


def test_tracer_wraps_every_binding_of_a_layer_function():
    import sparsepin
    from sparsepin import experiments, walk
    original = walk.simulate_visit_counts
    with tracing.Tracer():
        assert walk.simulate_visit_counts is not original
        assert experiments.simulate_visit_counts is walk.simulate_visit_counts
        assert sparsepin.simulate_visit_counts is walk.simulate_visit_counts
    assert walk.simulate_visit_counts is original


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_reports_are_byte_identical_with_tracing_on_and_off(workload, tmp_path):
    plain = _one_op(workload, tmp_path / "plain")
    with tracing.Tracer() as tracer:
        traced = _one_op(workload, tmp_path / "traced", tracer)
    assert plain and plain == traced
    assert any(s.name == "cli.main" for s in tracer.spans)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_same_seed_gives_identical_work_counts(workload, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    seconds = run.WORKLOADS[workload].nominal_op_s  # one traced op
    first, second = (run.run_one(workload, 3, seconds, trace=True) for _ in range(2))
    assert first["failed"] == second["failed"] == 0
    declared = {m["name"] for m in run.SPEC["per_layer"]}
    assert set(first["metrics"]) == declared
    # times, shares and rates end in _s or .share; every other metric is a count
    counts = {k for k in declared if not (k.endswith("_s") or k.endswith(".share"))}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["cli.bytes_written"]["value"] > 0


def test_checks_reject_wrong_reports(tmp_path):
    (tmp_path / "visits.json").write_text(json.dumps(
        {"visits": {"mean": 3.0, "exact": 2.0, "stderr": 0.1}}))
    assert run.check_walk(tmp_path) is not None
    (tmp_path / "visits.json").write_text(json.dumps(
        {"visits": {"mean": 2.4, "exact": 2.0, "stderr": 0.1}}))
    assert run.check_walk(tmp_path) is None

    def verify(gap, verdict="converged", passed=True):
        (tmp_path / "verify.json").write_text(json.dumps({
            "key_relation": {"lhs": {"mean": 1.0 + gap, "stderr": 0.01},
                             "rhs": {"partial_sum": 1.0, "tail_bound": 1e-3,
                                     "verdict": verdict}},
            "tau_mean_bound": {"passed": passed}}))
        return run.check_verify(tmp_path)

    assert verify(0.05) is None
    assert verify(0.06) is not None
    assert verify(0.0, verdict="inconclusive") is not None
    assert verify(0.0, passed=False) is not None

    def scan(beta, h_ann, bracket):
        (tmp_path / "scan.json").write_text(json.dumps({
            "config": {"crit_tol": 0.04},
            "scan": {"points": [{"beta": beta, "h_c_annealed": h_ann,
                                 "bracket": bracket, "consistent": False}]}}))
        return run.check_scan(tmp_path)

    assert scan(1.0, -0.5, [-0.3, -0.27]) is None
    assert scan(0.0, 0.0, None) is None
    assert scan(1.0, -0.5 + 1e-9, [-0.3, -0.27]) is not None
    assert scan(1.0, -0.5, [-0.6, -0.58]) is not None
    assert scan(1.0, -0.5, [-0.3, -0.2]) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""

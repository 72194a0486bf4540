"""CLI behavior: outputs, config precedence, reproducibility, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import pinned_table
from sparsepin import (BracketError, DisorderSpec, cli, make_kernel,
                       quenched_critical_point_estimates, sample_disorder)
from sparsepin._rng import derive_seed
from sparsepin.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, main
from sparsepin.experiments import ScanConfig, regime_scan
from sparsepin.pinning import _mean_stderr


def run(tmp_path, *args):
    return main([*args, "--outdir", str(tmp_path)])


def run_fresh(tmp_path, *args):
    """The CLI in a fresh interpreter that turns any RuntimeWarning into an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "sparsepin",
                           *args, "--outdir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)


def read_json(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def read_csv(tmp_path, name):
    lines = (tmp_path / name).read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_env_dirac_horizon(tmp_path):
    assert run(tmp_path, "env", "--kernel", "dirac", "--step", "1",
               "--horizon", "5") == EXIT_PASS
    doc = read_json(tmp_path, "environment.json")
    assert doc["environment"]["tau"] == [0, 1, 2, 3, 4, 5]
    assert doc["schema_version"] == 1
    assert doc["config"]["kernel"] == "dirac"


def test_env_zero_horizon(tmp_path):
    assert run(tmp_path, "env", "--kernel", "dirac", "--step", "1",
               "--horizon", "0") == EXIT_PASS
    assert read_json(tmp_path, "environment.json")["environment"]["tau"] == [0]


def test_env_kernel_table(tmp_path):
    assert run(tmp_path, "env", "--kernel", "power_law", "--alpha", "1",
               "--n-max", "2") == EXIT_PASS
    rows = read_csv(tmp_path, "kernel.csv")
    assert [float(r["weight"]) for r in rows] == pytest.approx([0.8, 0.2], rel=1e-15)


def test_parser_is_built_once_per_process(tmp_path, capsys):
    cli._parser.cache_clear()
    assert run(tmp_path, "env", "--horizon", "20") == EXIT_PASS
    first = (tmp_path / "environment.json").read_text()
    assert run(tmp_path, "walk", "--horizon", "20", "--replicas", "10") == EXIT_PASS
    assert main(["walk", "--no-such-flag"]) == EXIT_CONFIG
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert run(tmp_path, "env", "--horizon", "20") == EXIT_PASS
    assert (tmp_path / "environment.json").read_text() == first
    info = cli._parser.cache_info()
    assert info.misses == 1 and info.hits == 3


def test_walk_flat_exact_and_reproducible(tmp_path):
    args = ("walk", "--beta", "0", "--h", "0", "--f", "0", "--horizon", "20",
            "--r", "10", "--replicas", "4000", "--seed", "5")
    assert run(tmp_path, *args) == EXIT_PASS
    doc = read_json(tmp_path, "visits.json")
    assert doc["visits"]["exact"] == 10.0
    assert abs(doc["visits"]["mean"] - 10.0) <= 3 * doc["visits"]["stderr"]
    first = (tmp_path / "visits.json").read_bytes(), (tmp_path / "potential.csv").read_bytes()
    assert run(tmp_path, *args) == EXIT_PASS
    assert ((tmp_path / "visits.json").read_bytes(),
            (tmp_path / "potential.csv").read_bytes()) == first


def test_walk_drift_oracle(tmp_path):
    assert run(tmp_path, "walk", "--beta", "0", "--h", "0", "--f",
               str(math.log(3.0)), "--horizon", "40", "--r", "30",
               "--replicas", "30000", "--seed", "4") == EXIT_PASS
    doc = read_json(tmp_path, "visits.json")
    assert doc["visits"]["exact"] == pytest.approx(1.5, abs=1e-9)
    assert abs(doc["visits"]["mean"] - 1.5) <= 3 * doc["visits"]["stderr"]


def test_walk_potential_csv_columns(tmp_path):
    assert run(tmp_path, "walk", "--f", "0.5", "--horizon", "6",
               "--replicas", "10") == EXIT_PASS
    rows = read_csv(tmp_path, "potential.csv")
    assert list(rows[0]) == ["i", "V", "step_prob_up"]
    assert float(rows[0]["step_prob_up"]) == 1.0
    assert float(rows[3]["V"]) == pytest.approx(-1.5, abs=1e-12)


def test_pinning_zero_energy_and_homogeneous(tmp_path):
    assert run(tmp_path, "pinning", "--kernel", "geometric", "--q", "0.5",
               "--n-max", "64", "--beta", "0", "--h", str(math.log(2.0)),
               "--n", "400") == EXIT_PASS
    doc = read_json(tmp_path, "pinning.json")
    assert doc["homogeneous"]["free_energy"] == pytest.approx(math.log(1.5), abs=1e-10)
    assert doc["critical_points"]["annealed"] == 0.0

    assert run(tmp_path, "pinning", "--beta", "0", "--h", "0", "--n", "50") == EXIT_PASS
    rows = read_csv(tmp_path, "partition.csv")
    assert all(abs(float(r["log_z"])) < 1e-12 for r in rows)


def test_pinning_quenched_critical(tmp_path):
    assert run(tmp_path, "pinning", "--kernel", "power_law", "--alpha", "1",
               "--n-max", "20", "--beta", "0", "--n", "4000", "--critical",
               "--crit-tol", "0.02") == EXIT_PASS
    doc = read_json(tmp_path, "pinning.json")
    assert abs(doc["critical_points"]["quenched"]["h_hat"]) <= 0.05


def test_bisection_trail_in_reports(tmp_path):
    args = ("pinning", "--n-max", "20", "--beta", "1", "--n", "1500", "--critical",
            "--crit-tol", "0.05")
    assert run(tmp_path, *args) == EXIT_PASS
    quenched = read_json(tmp_path, "pinning.json")["critical_points"]["quenched"]
    # the annealed lower end, then the first upper end, then the midpoints
    trail = quenched["trail"]
    assert trail[0][0] == -0.5 and trail[1][0] == 0.25
    lo, hi = quenched["bracket"]
    assert {lo, hi} <= {h for h, _ in trail}
    for h, raw in trail:
        assert (raw > 0) == (h >= hi)
    first = (tmp_path / "pinning.json").read_bytes()
    assert run(tmp_path, *args) == EXIT_PASS
    assert (tmp_path / "pinning.json").read_bytes() == first

    scan = ("scan", "--beta-grid", "0,1", "--h-grid=-0.6,-0.05", "--n-max", "20",
            "--n-fe", "1500", "--n-gc", "500", "--crit-tol", "0.05", "--seed", "12")
    assert run(tmp_path, *scan) == EXIT_PASS
    critical = read_json(tmp_path, "scan.json")["scan"]["critical"]
    assert [c["beta"] for c in critical] == [0.0, 1.0]
    assert critical[0]["bracket"] is None and critical[0]["trail"] == []
    assert critical[1]["trail"][0][0] == -0.5
    assert critical[1]["bracket"][1] in [h for h, _ in critical[1]["trail"]]


def test_verify_trivial_limit_exit_zero(tmp_path):
    assert run(tmp_path, "verify", "--kernel", "power_law", "--alpha", "1",
               "--n-max", "8", "--beta", "1", "--h", "-1", "--f", "50",
               "--n-tau", "20", "--walk-replicas", "20", "--n-series", "30",
               "--seed", "6") == EXIT_PASS
    doc = read_json(tmp_path, "verify.json")
    assert doc["key_relation"]["verdict"] == "pass"
    assert doc["tau_mean_bound"]["passed"] is True


def test_verify_dirac_exit_zero(tmp_path):
    assert run(tmp_path, "verify", "--kernel", "dirac", "--step", "1",
               "--beta", "0.5", "--h", "-0.8", "--f", "0.2", "--n-tau", "10",
               "--walk-replicas", "400", "--seed", "7") == EXIT_PASS


def test_verify_default_config_passes(tmp_path):
    assert run(tmp_path, "verify", "--seed", "5") == EXIT_PASS
    doc = read_json(tmp_path, "verify.json")
    assert doc["key_relation"]["verdict"] == "pass"
    assert doc["key_relation"]["rhs"]["tail_bound"] is not None


def test_verify_inconclusive_exit_two(tmp_path):
    assert run(tmp_path, "verify", "--kernel", "power_law", "--alpha", "1",
               "--n-max", "8", "--beta", "0", "--h", "1", "--f", "0.1",
               "--n-tau", "4", "--walk-replicas", "4", "--n-series", "1200",
               "--seed", "3") == EXIT_INCONCLUSIVE


@pytest.mark.parametrize("args", [("--f", "15"), ("--n-tau", "2", "--walk-replicas", "1")])
def test_verify_zero_stderr_miss_is_inconclusive(tmp_path, args):
    # every walker leaves 0 and never returns, so the stderr and the
    # tolerance are 0 while S_N lies above 1: no evidence of a failure
    assert run(tmp_path, "verify", *args, "--seed", "1") == EXIT_INCONCLUSIVE
    relation = read_json(tmp_path, "verify.json")["key_relation"]
    assert (relation["lhs"]["mean"], relation["lhs"]["stderr"]) == (1.0, 0.0)
    assert relation["abs_difference"] > 0 and relation["verdict"] == "inconclusive"


def test_scan_small_grid(tmp_path):
    assert run(tmp_path, "scan", "--beta-grid", "0,1", "--h-grid=-0.6,-0.5,-0.05",
               "--kernel", "power_law", "--alpha", "0.6", "--n-max", "20",
               "--n-fe", "3000", "--n-gc", "1000", "--crit-tol", "0.05",
               "--seed", "12") == EXIT_PASS
    rows = read_csv(tmp_path, "scan.csv")
    by_key = {(float(r["beta"]), float(r["h"])): r["case"] for r in rows}
    assert by_key[(0.0, -0.6)] == "case23_merged"
    assert by_key[(1.0, -0.5)] == "boundary"
    doc = read_json(tmp_path, "scan.json")
    assert doc["scan"]["points"]


def test_walk_step_budget_exit(tmp_path):
    assert run(tmp_path, "walk", "--beta", "0", "--h", "0", "--f", "0",
               "--horizon", "500", "--r", "500", "--replicas", "64",
               "--step-budget", "200", "--seed", "3") == 1
    assert not any(tmp_path.iterdir())


def test_walk_step_budget_below_one_sweep_exit(tmp_path):
    assert run(tmp_path, "walk", "--horizon", "10", "--r", "2", "--f", "0",
               "--replicas", "1000", "--step-budget", "1") == 1
    assert not any(tmp_path.iterdir())


def test_refused_walk_leaves_outdir_empty(tmp_path):
    assert run(tmp_path, "walk", "--replicas", "1") == EXIT_CONFIG
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ("pinning", "--n", "1"),
    ("pinning", "--n", "100", "--critical", "--crit-tol", "0"),
    ("scan", "--transience", "--h", "0"),
    ("pinning", "--n", "100", "--beta", "1e308"),
    ("pinning", "--n", "100", "--critical", "--beta", "1e200"),
    ("pinning", "--n", "100", "--critical", "--crit-replicas", "3"),  # a removed flag
    ("pinning", "--n", "100", "--kernel", "dirac", "--step", "3"),
    ("pinning", "--n", "-5", "--critical"),
    ("pinning", "--n", "100", "--critical", "--crit-n", "-3"),
    ("scan", "--transience", "--h=-1", "--trans-walks", "200"),  # a removed flag
    ("scan", "--eps-small", "0.05"),  # a removed flag
    ("scan", "--crit-tol", "0"),
    ("scan", "--n-gc", "1"),
    ("walk", "--step-budget", "0"),
    ("verify", "--walk-replicas", "0", "--f", "0.01", "--h", "0.5"),
    ("env", "--disorder", "uniform_centered", "--half-width", "1e308", "--horizon", "3"),
    ("env", "--sigma", "1e308", "--horizon", "2000"),
])
def test_refused_runs_leave_outdir_empty(tmp_path, monkeypatch, args):
    def no_scan(*_):
        raise AssertionError("the scan ran before the refusal")

    monkeypatch.setattr(cli, "regime_scan", no_scan)
    assert run(tmp_path, *args) == EXIT_CONFIG
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, key", [
    (("scan", "--n-fe", "3000", "--n-gc", "1000"), "n_gc"),
    (("scan", "--n-fe", "3001"), "n_fe"),
    (("pinning", "--critical", "--beta", "1", "--h=-0.5", "--n", "3001"), "n"),
    (("pinning", "--critical", "--n", "300", "--crit-n", "301"), "crit_n"),
    (("pinning", "--beta", "1", "--h=-0.5", "--n", "3001"), "n"),
])
def test_unreachable_search_length_is_refused(tmp_path, capsys, args, key):
    # a dirac step-3 kernel ends renewal paths only at multiples of 3, so at
    # any other length raw = log z^c_n / n is -inf at every h: scan used to
    # report raw_mean -inf or "no localized phase found", pinning exit 1, and
    # pinning without --critical a free energy of -inf
    assert run(tmp_path, *args, "--kernel", "dirac", "--step", "3") == EXIT_CONFIG
    assert not any(tmp_path.iterdir())
    assert f"config error: {key} = " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pinning", "verify"])
def test_overflowing_contacts_are_refused_without_a_warning(tmp_path, command):
    # beta * omega overflows to inf; the refusal is the engine's finiteness
    # check, not numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, command, "--n" if command == "pinning" else "--n-series",
                   "100", "--beta", "1e308") == EXIT_CONFIG
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ("walk", "--beta", "1e308"),
    ("scan", "--transience", "--beta", "1e308", "--h=-1"),
])
def test_non_finite_potential_is_refused_promptly(tmp_path, args):
    # V overflows to inf and nan; the walk used to run on toward its step
    # budget
    start = time.perf_counter()
    done = run_fresh(tmp_path, *args)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert "potential values must be finite" in done.stderr
    assert time.perf_counter() - start < 10
    assert not any(tmp_path.iterdir())


def test_bisection_between_adjacent_floats_ends(tmp_path):
    # at beta 1e20 the root is of order -1e20, where adjacent floats are 16384
    # or more apart, far wider than crit_tol: no bracket there can narrow.  The
    # first pass probes the negative power of two below which floats lie more
    # than tol apart, and the search ends there.
    # n stays small: contacts this large take the engine's per-site rescue
    start = time.perf_counter()
    done = run_fresh(tmp_path, "pinning", "--critical", "--beta", "1e20", "--n", "50")
    assert done.returncode == EXIT_FAIL, done.stderr
    assert "floats are more than tol apart" in done.stderr
    assert time.perf_counter() - start < 10
    kernel = make_kernel("power_law", alpha=1.0, n_max=8)
    (est,) = quenched_critical_point_estimates(DisorderSpec("gaussian"), kernel, [(1e20, 0)],
                                               50, 0.04)
    assert isinstance(est, BracketError)
    lo, hi = est.scanned
    assert lo < hi < 0 and math.ulp(hi) > 0.04
    # the trail is kept: the start ends, then hi itself, where raw > 0
    assert est.trail[0][0] == lo and est.trail[-1][0] == hi and est.trail[-1][1] > 0
    assert run(tmp_path, "scan", "--beta-grid=1e20", "--h-grid=-1", "--n-fe", "50",
               "--n-gc", "100") == EXIT_PASS
    (search,) = read_json(tmp_path, "scan.json")["scan"]["critical"]
    assert "more than tol apart" in search["error"] and search["bracket"] is None
    (h, raw) = search["trail"][-1]
    assert h < 0 and math.ulp(h) > 0.04 and raw > 0 and f", {h}]" in search["error"]


def test_huge_beta_scan_ends_at_once(tmp_path):
    # at beta 1e150 a bisection from the annealed point, -5e299, takes some
    # 550 levels, each a pass of contacts that take the engine's per-site
    # rescue: more than 120 s at the default n_fe
    start = time.perf_counter()
    done = run_fresh(tmp_path, "scan", "--beta-grid=1e150", "--h-grid=-1,-0.5")
    assert done.returncode == EXIT_PASS, done.stderr
    assert time.perf_counter() - start < 10
    (search,) = read_json(tmp_path, "scan.json")["scan"]["critical"]
    assert "more than tol apart" in search["error"] and search["bracket"] is None
    assert len(search["trail"]) >= 3 and search["trail"][-1][1] > 0


def test_scan_grows_a_tiny_h_point(tmp_path):
    # h = -1e-200 lies just below 0, deep in the localized phase at beta = 1:
    # the certified test labels it case 1 without a warning
    done = run_fresh(tmp_path, "scan", "--beta-grid=1", "--h-grid=-1e-200", "--n-fe", "2000",
                     "--n-gc", "500")
    assert done.returncode == EXIT_PASS, done.stderr
    (point,) = read_json(tmp_path, "scan.json")["scan"]["points"]
    assert point["case"] == "case1" and point["consistent"]
    diag = point["diagnostics"]
    assert diag["rows"] == 16 and diag["raw_mean"] - 3.586 * diag["raw_se"] > 0


def test_free_energy_estimates_are_sequential_raws_of_fresh_rows(tmp_path):
    # pinning's free_energy, pinning --critical's raw at h_hat and scan's
    # case-1 diagnostics are one estimate: _mean_stderr of raw = log z^c_n / n
    # taken one row at a time on 16 fresh disorder rows drawn as one array
    spec, kernel = DisorderSpec("gaussian"), make_kernel("power_law", alpha=1.0, n_max=8)

    def one_at_a_time(n, beta, h, seed):
        omegas = sample_disorder(spec, 16 * n, seed).reshape(16, n)
        raws = [pinned_table(omega, kernel, beta, h, n).log_zc[n] / n for omega in omegas]
        mean, se = _mean_stderr(np.array(raws))
        return {"raw_mean": mean, "raw_se": se, "rows": 16}

    assert run(tmp_path, "pinning", "--beta", "1", "--h=-0.3", "--n", "500", "--critical",
               "--crit-n", "400", "--crit-tol", "0.05", "--seed", "4") == EXIT_PASS
    doc = read_json(tmp_path, "pinning.json")
    fe = doc["free_energy"]
    assert fe == {**one_at_a_time(500, 1.0, -0.3, derive_seed(4, "fe-rows")),
                  "f_hat": max(0.0, fe["raw_mean"])}
    quenched = doc["critical_points"]["quenched"]
    assert ({key: quenched[key] for key in ("raw_mean", "raw_se", "rows")}
            == one_at_a_time(400, 1.0, quenched["h_hat"], derive_seed(4, "crit-rows")))
    cfg = ScanConfig(kernel=kernel, disorder=spec, n_fe=400, n_gc=300, crit_tol=0.05, seed=4)
    point = regime_scan([0.0, 1.0], [-0.05], cfg).points[1]
    assert point.bracket[1] < -0.05 and point.case == "case1"
    assert point.diagnostics == one_at_a_time(300, 1.0, -0.05,
                                              derive_seed(4, "scan-rows", 1))


def test_free_energy_error_bar_stays_finite_at_huge_beta(tmp_path):
    # raw is near 4e199 at beta 1e200, so its squares overflow unless scaled
    done = run_fresh(tmp_path, "pinning", "--n", "100", "--beta", "1e200")
    assert done.returncode == EXIT_PASS, done.stderr
    fe = read_json(tmp_path, "pinning.json")["free_energy"]
    assert 1e197 < fe["raw_se"] < fe["raw_mean"] < 1e201


class _ReadRecorder(dict):
    """A config dict that records which keys a command reads."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("command, flags", [
    ("env", {"horizon": 10}),
    ("walk", {"horizon": 20, "replicas": 100}),
    ("pinning", {"n": 300, "gc_f": 0.0, "critical": True, "crit_tol": 0.2}),
    ("verify", {"n_tau": 4, "walk_replicas": 20, "n_series": 40}),
    ("scan", {"beta_grid": "0,1", "h_grid": "-0.5", "n_fe": 300, "n_gc": 200,
              "crit_tol": 0.2, "transience": True, "h": -1.0}),
])
def test_every_config_key_is_read(tmp_path, command, flags):
    # a settable key that its command never reads cannot change the output
    config = _ReadRecorder(cli.resolve_config(command, {}, flags))
    assert cli._COMMANDS[command](config, tmp_path) == EXIT_PASS
    assert config.read == set(cli._SCHEMAS[command])


_GC_KEYS = {"log_partial_sum", "partial_sum", "growth_rate", "verdict", "tail_bound",
            "window", "slope_tol"}


def test_result_blocks_hold_results_only(tmp_path):
    # every setting is written once, in the top-level config block; a block
    # maps to its exact key set (None marks a plain value)
    runs = [
        (("env", "--horizon", "10"), "environment.json", {
            "environment": {"tau", "omega"}, "kernel_mean": None}),
        (("walk", "--horizon", "20", "--replicas", "100"), "visits.json", {
            "visits": {"r", "exact", "mean", "stderr", "move_pairs"}}),
        (("pinning", "--beta", "1", "--n", "300", "--critical", "--crit-tol", "0.2",
          "--gc-f", "0"), "pinning.json", {
            "free_energy": {"f_hat", "raw_mean", "raw_se", "rows"},
            "homogeneous": {"free_energy", "residual"},
            "critical_points": {"annealed", "quenched"},
            "critical_points.quenched": {"h_hat", "bracket", "n", "trail", "raw_mean",
                                         "raw_se", "rows"},
            "grand_canonical": _GC_KEYS}),
        (("verify", "--n-tau", "4", "--walk-replicas", "20", "--n-series", "40"),
         "verify.json", {
            "key_relation": {"n_series", "r_absorb", "lhs", "rhs", "abs_difference",
                             "tolerance", "verdict"},
            "key_relation.lhs": {"mean", "stderr", "move_pairs"},
            "key_relation.rhs": _GC_KEYS,
            "tau_mean_bound": {"n_terms", "partial_sum", "tau_mean", "margin",
                               "term_violations", "passed"}}),
        (("scan", "--beta-grid", "0,1", "--h-grid=-0.5", "--n-fe", "300",
          "--n-gc", "200", "--crit-tol", "0.2", "--transience", "--h=-1"), "scan.json", {
            "scan": {"points", "critical"},
            "scan.points[]": {"beta", "h", "h_c_annealed", "bracket", "case",
                              "diagnostics", "consistent"},
            "scan.critical[]": {"beta", "bracket", "trail", "error"},
            "transience": {"absorbed_fraction", "within_3se_fraction", "move_pairs",
                           "env_rows"},
            "transience.env_rows[]": {"env", "exact", "mc_mean", "mc_stderr", "z",
                                      "within_3se"}}),
    ]
    for args, name, blocks in runs:
        assert run(tmp_path, *args) == EXIT_PASS, args
        doc = read_json(tmp_path, name)
        top = {k for k in blocks if "." not in k}
        assert set(doc) == {"schema_version", "command", "config", *top}, name
        assert set(doc["config"]) == set(cli._SCHEMAS[args[0]]), name
        for path, keys in blocks.items():
            nodes = [doc]
            for part in path.split("."):
                nodes = [node[part.removesuffix("[]")] for node in nodes]
                if part.endswith("[]"):
                    nodes = [item for items in nodes for item in items]
            assert nodes, path
            for node in nodes:
                assert keys is None or set(node) == keys, (name, path)


def test_pinning_grand_canonical_report(tmp_path):
    assert run(tmp_path, "pinning", "--kernel", "power_law", "--alpha", "0.7",
               "--n-max", "24", "--beta", "0", "--h=-1000", "--n", "96",
               "--gc-f", "0") == EXIT_PASS
    doc = read_json(tmp_path, "pinning.json")
    gc = doc["grand_canonical"]
    assert gc["verdict"] == "converged"
    from sparsepin import kernel_mean, make_kernel
    target = kernel_mean(make_kernel("power_law", alpha=0.7, n_max=24))
    assert gc["partial_sum"] == pytest.approx(target, abs=1e-9)


def test_scan_transience_report(tmp_path):
    assert run(tmp_path, "scan", "--beta-grid", "0", "--h-grid=-0.5",
               "--kernel", "power_law", "--alpha", "1", "--n-max", "5",
               "--n-fe", "2000", "--n-gc", "800", "--transience",
               "--beta", "0", "--h=-1", "--seed", "4") == EXIT_PASS
    doc = read_json(tmp_path, "scan.json")
    assert doc["transience"]["absorbed_fraction"] == 1.0


def test_pinning_rerun_from_embedded_config(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    args = ["pinning", "--kernel", "geometric", "--q", "0.45", "--n-max", "12",
            "--beta", "0.8", "--h=-0.5", "--n", "300", "--seed", "17"]
    assert main([*args, "--outdir", str(out1)]) == EXIT_PASS
    assert main(["pinning", "--config", str(out1 / "pinning.json"),
                 "--outdir", str(out2)]) == EXIT_PASS
    assert (out1 / "pinning.json").read_bytes() == (out2 / "pinning.json").read_bytes()
    assert (out1 / "partition.csv").read_bytes() == (out2 / "partition.csv").read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# walk config\nkernel = dirac\nstep = 1\nhorizon = 5\nseed = 9\n")
    assert main(["env", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_PASS
    assert len(read_json(tmp_path, "environment.json")["environment"]["omega"]) == 5
    # flag overrides the file
    assert main(["env", "--config", str(cfg), "--horizon", "3",
                 "--outdir", str(tmp_path)]) == EXIT_PASS
    assert len(read_json(tmp_path, "environment.json")["environment"]["omega"]) == 3


def test_rerun_from_embedded_config_is_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    assert main(["env", "--kernel", "geometric", "--q", "0.3", "--n-max", "7",
                 "--horizon", "40", "--seed", "21", "--outdir", str(out1)]) == EXIT_PASS
    assert main(["env", "--config", str(out1 / "environment.json"),
                 "--outdir", str(out2)]) == EXIT_PASS
    assert (out1 / "environment.json").read_bytes() == (out2 / "environment.json").read_bytes()
    assert (out1 / "kernel.csv").read_bytes() == (out2 / "kernel.csv").read_bytes()


def test_config_errors_exit_64(tmp_path, capsys):
    assert run(tmp_path, "env", "--kernel", "triangular") == EXIT_CONFIG
    assert run(tmp_path, "env", "--kernel", "geometric", "--q", "1.5") == EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 3\n")
    assert main(["env", "--config", str(bad), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    # a key removed from the schema, as in a scan report saved before h_hi went
    old_scan = tmp_path / "old_scan.cfg"
    old_scan.write_text("h_hi = 0.25\n")
    assert main(["scan", "--config", str(old_scan), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    # and as in a pinning report saved before the replica spread went
    old_pinning = tmp_path / "old_pinning.json"
    old_pinning.write_text(json.dumps({"config": {"n": 100, "crit_replicas": 3}}))
    assert main(["pinning", "--config", str(old_pinning),
                 "--outdir", str(tmp_path)]) == EXIT_CONFIG
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just a line\n")
    assert main(["env", "--config", str(malformed), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    # JSON values go through the same parser as key=value text
    json_cfgs = [tmp_path / f"bad{i}.json" for i in range(4)]
    for path, block in zip(json_cfgs, ({"seed": None}, {"horizon": 1.5}, {"seed": True},
                                       [1])):
        path.write_text(json.dumps({"config": block}))
    # library ValueErrors on bad values, refused before any long run
    for args in (*(("env", "--config", str(path)) for path in json_cfgs),
                 ("walk", "--f", "nan", "--step-budget", "2000"),
                 ("walk", "--beta", "-1"),
                 ("walk", "--replicas", "1"),
                 ("verify", "--n-tau", "1"),
                 ("scan", "--beta-grid", ""),
                 ("pinning", "--n", "100", "--h", "nan"),
                 ("pinning", "--n", "100", "--alpha", "nan"),
                 ("scan", "--beta-grid", "nan"),
                 ("env", "--config", str(tmp_path / "missing.cfg"))):
        capsys.readouterr()
        assert run(tmp_path, *args) == EXIT_CONFIG, args
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, args


@pytest.mark.parametrize("key, value", [("eps_small", 0.05), ("trans_envs", 50),
                                        ("trans_walks", 200), ("trans_r", 150)])
def test_removed_scan_keys_are_refused(tmp_path, capsys, key, value):
    # a scan report saved while these keys existed holds them at these values
    out = tmp_path / "out"
    for name, text in (("old.cfg", f"{key} = {value}\n"),
                       ("old.json", json.dumps({"config": {"n_fe": 8000, key: value}}))):
        (tmp_path / name).write_text(text)
        capsys.readouterr()
        assert main(["scan", "--config", str(tmp_path / name), "--outdir", str(out)]) \
            == EXIT_CONFIG
        assert f"unknown config key {key!r} for scan" in capsys.readouterr().err
        assert not out.exists()


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SPARSEPIN_OUTDIR", str(tmp_path))
    assert main(["env", "--kernel", "dirac", "--step", "2", "--horizon", "4"]) == EXIT_PASS
    assert (tmp_path / "environment.json").exists()

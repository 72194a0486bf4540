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

import sparsepin.walk
from oracles import pinned_table
from sparsepin import (BracketError, DisorderSpec, annealed_critical_point, cli, make_kernel,
                       pinned_recursions, quenched_critical_point_estimates, sample_disorder)
from sparsepin._rng import derive_seed
from sparsepin.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, main
from sparsepin.experiments import ScanConfig, regime_scan
from sparsepin.pinning import CRIT_H_HI, _mean_stderr, _midpoints


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


def _search_raws(config, beta, n, seed, hs):
    """raw at each h on the disorder draw of the quenched search of seed."""
    omega = sample_disorder(cli.build_disorder(config), n, derive_seed(seed, "crit-omega", 0))
    tables = pinned_recursions([beta * omega + h for h in hs], cli.build_kernel(config))
    return [t.log_zc[n] / n for t in tables]


def _assert_bracket_holds_its_root(config, search, beta, n, seed, tol):
    # the reported ends are derived, not evaluated: evaluate them on the
    # search's own draw.  They lie inside the trail's sign bracket, so each
    # evaluated point's sign says on which side of the bracket it lies
    lo, hi = search["bracket"]
    raw_lo, raw_hi = _search_raws(config, beta, n, seed, [lo, hi])
    assert raw_lo <= 0 < raw_hi
    assert annealed_critical_point(cli.build_disorder(config), beta) <= lo < hi <= lo + tol
    for h, raw in search["trail"]:
        assert (raw > 0) == (h >= hi) and (raw > 0) == (h > lo)
    assert search["passes"] >= 1


def test_bisection_trail_in_reports(tmp_path):
    args = ("pinning", "--n-max", "20", "--beta", "1", "--n", "1500", "--critical",
            "--crit-tol", "0.05")
    assert run(tmp_path, *args) == EXIT_PASS
    doc = read_json(tmp_path, "pinning.json")
    quenched = doc["critical_points"]["quenched"]
    # the first pass, in the order asked for: the annealed lower end, the
    # first upper end, then the midpoints below it
    trail = quenched["trail"]
    assert [h for h, _ in trail[:9]] == [-0.5, 0.25] + _midpoints(-0.5, 0.25, 0.05)
    assert len({h for h, _ in trail}) == len(trail)
    _assert_bracket_holds_its_root(doc["config"], quenched, 1.0, 1500,
                                   derive_seed(1, "critical"), 0.05)
    first = (tmp_path / "pinning.json").read_bytes()
    assert run(tmp_path, *args) == EXIT_PASS
    assert (tmp_path / "pinning.json").read_bytes() == first

    scan = ("scan", "--beta-grid", "0,1", "--h-grid=-0.6,-0.05", "--n-max", "20",
            "--n-fe", "1500", "--n-gc", "500", "--crit-tol", "0.05", "--seed", "12")
    assert run(tmp_path, *scan) == EXIT_PASS
    doc = read_json(tmp_path, "scan.json")
    critical = doc["scan"]["critical"]
    assert [c["beta"] for c in critical] == [0.0, 1.0]
    assert critical[0]["bracket"] is None and critical[0]["trail"] == []
    assert critical[0]["passes"] == 0
    assert critical[1]["trail"][0][0] == -0.5
    _assert_bracket_holds_its_root(doc["config"], critical[1], 1.0, 1500,
                                   derive_seed(12, "crit", 1), 0.05)


def test_default_reports_bracket_their_roots(tmp_path):
    # default scan at seeds 1..20 (40 searches) and pinning --beta 1
    # --critical: every reported bracket holds its draw's root
    labels = []
    for seed in range(1, 21):
        assert run(tmp_path, "scan", "--seed", str(seed)) == EXIT_PASS
        doc = read_json(tmp_path, "scan.json")
        for i_beta, search in enumerate(doc["scan"]["critical"][1:], start=1):
            assert search["passes"] == 1, seed
            _assert_bracket_holds_its_root(doc["config"], search, search["beta"], 8000,
                                           derive_seed(seed, "crit", i_beta), 0.04)
        labels += [(p["case"], p["consistent"]) for p in doc["scan"]["points"]]
    # plain bisection left 21 of these 300 points unresolved
    assert labels.count(("unresolved", True)) == 13
    assert all(consistent for _, consistent in labels)
    assert run(tmp_path, "pinning", "--beta", "1", "--critical") == EXIT_PASS
    doc = read_json(tmp_path, "pinning.json")
    quenched = doc["critical_points"]["quenched"]
    assert quenched["passes"] == 1
    _assert_bracket_holds_its_root(doc["config"], quenched, 1.0, 2000,
                                   derive_seed(1, "critical"), 0.02)


@pytest.mark.parametrize("command", [("scan",), ("pinning", "--beta", "1", "--critical")])
def test_crit_tol_beyond_every_float_spacing_runs(tmp_path, command):
    # no two adjacent floats lie more than 2^971 apart, so at such a tol
    # there is no sparse region to probe; its bound, -2^(52 + 972), used to
    # overflow.  One pass brackets the root, and a rerun repeats the report
    assert run(tmp_path, *command, "--crit-tol", "1e308") == EXIT_PASS
    name = f"{command[0]}.json"
    doc = read_json(tmp_path, name)
    if command[0] == "scan":
        searches = [(c, c["beta"], derive_seed(1, "crit", i))
                    for i, c in enumerate(doc["scan"]["critical"]) if c["beta"] > 0]
        n = 8000
    else:
        searches = [(doc["critical_points"]["quenched"], 1.0, derive_seed(1, "critical"))]
        n = 2000
    assert len(searches) >= 1
    for search, beta, seed in searches:
        assert search["passes"] == 1 and search["trail"][1][0] == CRIT_H_HI
        _assert_bracket_holds_its_root(doc["config"], search, beta, n, seed, 1e308)
    first = (tmp_path / name).read_bytes()
    again = tmp_path / "again"
    assert main([command[0], "--config", str(tmp_path / name), "--outdir", str(again)]) \
        == EXIT_PASS
    assert (again / name).read_bytes() == first


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


@pytest.mark.parametrize("args", [("--f", "15"),
                                  ("--f", "15", "--n-tau", "2", "--walk-replicas", "1")])
def test_verify_zero_stderr_miss_is_inconclusive(tmp_path, args):
    # every walker leaves 0 and never returns, so the stderr and the
    # tolerance are 0 while S_N lies above 1: no evidence of a failure.  At
    # f = 15 no walker returns at any seed, of the default 200 x 500 walkers
    # or of the two walkers of the second case
    assert run(tmp_path, "verify", *args, "--seed", "2") == EXIT_INCONCLUSIVE
    relation = read_json(tmp_path, "verify.json")["key_relation"]
    assert (relation["lhs"]["mean"], relation["lhs"]["stderr"]) == (1.0, 0.0)
    assert relation["abs_difference"] > 0 and relation["verdict"] == "inconclusive"


def _strict_json(path):
    """The JSON document at path, refusing NaN and Infinity, which RFC 8259 lacks."""
    def refuse(token):
        raise ValueError(f"{path.name} holds {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("args, name, code, nulls", [
    # a diverging series runs no walks, so the visit side has no value
    (("verify", "--h", "0.5", "--f", "0"), "verify.json", EXIT_INCONCLUSIVE,
     ["key_relation.lhs.mean", "key_relation.lhs.stderr", "key_relation.abs_difference",
      "key_relation.tolerance"]),
    # every tail term underflows to zero: a growth rate of -inf
    (("pinning", "--gc-f", "1e308", "--n", "50"), "pinning.json", EXIT_PASS,
     ["grand_canonical.growth_rate"]),
    # raw at the annealed point, about -1.4e308, overflows to -inf
    (("scan", "--beta-grid=1.7e154", "--h-grid=-1", "--n-fe", "50", "--n-gc", "50"),
     "scan.json", EXIT_PASS, ["scan.critical.0.trail.0.1"]),
])
def test_non_finite_values_are_written_as_null(tmp_path, args, name, code, nulls):
    assert run(tmp_path, *args) == code
    doc = _strict_json(tmp_path / name)
    for path in nulls:
        node = doc
        for key in path.split("."):
            node = node[int(key)] if isinstance(node, list) else node[key]
        assert node is None, path


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
    # a walker needs at least R = 500 steps, more than the budget of 200
    assert run(tmp_path, "walk", "--beta", "0", "--h", "0", "--f", "0",
               "--horizon", "500", "--r", "500", "--replicas", "64",
               "--step-budget", "200", "--seed", "3") == EXIT_CONFIG
    assert not any(tmp_path.iterdir())


def test_walk_step_budget_below_one_sweep_exit(tmp_path):
    # a walker needs at least R = 2 steps, more than the budget of 1
    assert run(tmp_path, "walk", "--horizon", "10", "--r", "2", "--f", "0",
               "--replicas", "1000", "--step-budget", "1") == EXIT_CONFIG
    assert not any(tmp_path.iterdir())


def test_walk_budget_that_walkers_can_meet_runs_and_may_fail(tmp_path, capsys):
    # W(50) is about 4 and 600 steps allow 276 visits, so the walk runs; out
    # of 30,000 walkers some still take longer (exit 1), and nothing is written
    assert run(tmp_path, "walk", "--beta", "1", "--h=-1", "--f", "0.3", "--horizon", "100",
               "--r", "50", "--replicas", "30000", "--step-budget", "600",
               "--seed", "1") == EXIT_FAIL
    assert "not absorbed within 600 steps" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_hopeless_walk_is_refused_at_once(tmp_path, capsys, monkeypatch):
    # at f = -5, W(R) is 9.45e62: a walker meets the default budget of 1e8
    # steps with probability below 1e-54, so the walk used to run for
    # minutes and then exit 1.  K visits take at least 2(K - 1) + R steps
    def no_walk(*_, **__):
        raise AssertionError("the walk ran before the refusal")

    monkeypatch.setattr(cli, "simulate_visit_counts", no_walk)
    start = time.perf_counter()
    assert run(tmp_path, "walk", "--f", "-5", "--horizon", "30", "--replicas", "10") \
        == EXIT_CONFIG
    assert time.perf_counter() - start < 1
    assert "W(R) = 9.45e+62" in capsys.readouterr().err
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
    ("pinning", "--n", "100", "--critical", "--crit-n", "400"),  # a removed flag
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
    # the trail is the whole first pass, whose last point is hi, where raw > 0
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


def test_search_from_near_the_float_limit_asks_for_finite_points(tmp_path):
    # at beta 1.7e154 the annealed point is about -1.4e308, and the sum of
    # two midpoints below -9e307 overflows: halving each first keeps every
    # point finite, where a midpoint of -inf made a contact the engine
    # refuses (exit 64).  The root lies where floats are sparse
    done = run_fresh(tmp_path, "scan", "--beta-grid=1.7e154", "--h-grid=-1", "--n-fe", "50",
                     "--n-gc", "50")
    assert done.returncode == EXIT_PASS, done.stderr
    (search,) = read_json(tmp_path, "scan.json")["scan"]["critical"]
    assert "more than tol apart" in search["error"] and search["passes"] == 1
    assert all(math.isfinite(h) for h, _ in search["trail"])


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

    assert run(tmp_path, "pinning", "--beta", "1", "--h=-0.3", "--n", "400", "--critical",
               "--crit-tol", "0.05", "--seed", "4") == EXIT_PASS
    doc = read_json(tmp_path, "pinning.json")
    fe = doc["free_energy"]
    assert fe == {**one_at_a_time(400, 1.0, -0.3, derive_seed(4, "fe-rows")),
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
            "critical_points.quenched": {"h_hat", "bracket", "trail", "passes",
                                         "raw_mean", "raw_se", "rows"},
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
            "scan.critical[]": {"beta", "bracket", "trail", "error", "passes"},
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


@pytest.mark.parametrize("args, report, block", [
    # one potential of 20 walkers: 4 pairs; 150 sets of 10 walkers: 1 pair;
    # the transience check's 50 environments of 200 walkers: 4 pairs
    (("walk", "--horizon", "60", "--r", "40", "--replicas", "20"), "visits.json", "visits"),
    (("verify", "--n-tau", "150", "--walk-replicas", "10"), "verify.json", "key_relation.lhs"),
    (("scan", "--beta-grid", "0", "--h-grid=-0.5", "--n-fe", "500", "--n-gc", "300",
      "--transience", "--beta", "0", "--h=-1"), "scan.json", "transience"),
])
def test_reports_state_the_move_length_the_engine_walked(tmp_path, monkeypatch, args, report,
                                                         block):
    walked = []
    real = sparsepin.walk.move_pairs
    monkeypatch.setattr(sparsepin.walk, "move_pairs",
                        lambda *counts: walked.append(real(*counts)) or walked[-1])
    assert run(tmp_path, *args, "--seed", "1") == EXIT_PASS
    doc = read_json(tmp_path, report)
    for key in block.split("."):
        doc = doc[key]
    assert walked == [doc["move_pairs"]]


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


@pytest.mark.parametrize("value", [0, 400])
def test_saved_pinning_report_naming_crit_n_is_refused(tmp_path, capsys, value):
    # the quenched search runs at --n; a pinning report saved while crit_n
    # existed names it, at its default 0 or at a length of its own
    out = tmp_path / "out"
    saved = tmp_path / "old.json"
    saved.write_text(json.dumps({"config": {"n": 300, "critical": True, "crit_n": value}}))
    assert main(["pinning", "--config", str(saved), "--outdir", str(out)]) == EXIT_CONFIG
    assert "unknown config key 'crit_n' for pinning" in capsys.readouterr().err
    assert not out.exists()


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SPARSEPIN_OUTDIR", str(tmp_path))
    assert main(["env", "--kernel", "dirac", "--step", "2", "--horizon", "4"]) == EXIT_PASS
    assert (tmp_path / "environment.json").exists()

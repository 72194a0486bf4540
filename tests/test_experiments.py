"""Cross-pipeline experiments: key relation, mean-gap bound, regimes, transience."""

import math
import os
import time
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from sparsepin import (DisorderSpec, Potential, experiments, make_kernel,
                       simulate_visit_counts, tau_mean_lower_bound, verify_key_relation)
from sparsepin._rng import derive_seed
from sparsepin.environment import log_mgf
from sparsepin.experiments import (KeyRelationConfig, ScanConfig,
                                   annealed_transience_check, regime_scan)
from sparsepin.walk import _mean_stderr


GAUSS = DisorderSpec("gaussian")


def test_key_relation_dirac_collapse():
    # deterministic renewal set: both sides reduce to the same weighted sum
    cfg = KeyRelationConfig(kernel=make_kernel("dirac", step=1), disorder=GAUSS,
                            beta=0.5, h=-0.8, f=0.2, n_tau=20, walk_replicas=2000,
                            seed=7)
    rep = verify_key_relation(cfg)
    assert rep.verdict == "pass"
    assert rep.abs_difference <= rep.tolerance
    assert rep.tolerance == 3 * rep.lhs["stderr"]


def test_key_relation_large_f_trivial_limit():
    cfg = KeyRelationConfig(kernel=make_kernel("power_law", alpha=1.0, n_max=8),
                            disorder=GAUSS, beta=1.0, h=-1.0, f=50.0,
                            n_tau=50, walk_replicas=50, seed=6, n_series=30)
    rep = verify_key_relation(cfg)
    assert rep.verdict == "pass"
    assert abs(rep.lhs["mean"] - 1.0) <= 1e-6
    assert abs(rep.rhs.partial_sum - 1.0) <= 1e-6


def test_key_relation_randomized_sweep():
    # headline property: the walk-MC and recursion pipelines agree at 3 sigma
    # across a randomized parameter sweep
    rng = np.random.default_rng(404)
    passes = 0
    for i in range(20):
        kern = make_kernel("power_law", alpha=float(rng.uniform(0.5, 1.5)),
                           n_max=int(rng.integers(2, 7)))
        cfg = KeyRelationConfig(
            kernel=kern, disorder=GAUSS, beta=float(rng.uniform(0, 1)),
            h=float(rng.uniform(-1.5, -0.3)), f=float(rng.uniform(0.2, 0.8)),
            n_tau=150, walk_replicas=150, seed=1000 + i)
        rep = verify_key_relation(cfg)
        passes += rep.verdict == "pass"
    assert passes >= 19


def test_key_relation_inconclusive_when_series_diverges():
    # localized homogeneous configuration discounted below its free energy
    cfg = KeyRelationConfig(kernel=make_kernel("power_law", alpha=1.0, n_max=8),
                            disorder=GAUSS, beta=0.0, h=1.0, f=0.1,
                            n_tau=10, walk_replicas=10, seed=3, n_series=1200)
    rep = verify_key_relation(cfg)
    assert rep.verdict == "inconclusive"
    assert math.isnan(rep.lhs["mean"])


def test_tau_mean_bound_saturated_by_dead_contacts():
    k = make_kernel("power_law", alpha=0.7, n_max=24)
    rep = tau_mean_lower_bound(k, GAUSS, 0.0, -1000.0, seed=2)
    assert rep.passed
    assert rep.partial_sum == pytest.approx(rep.tau_mean, abs=1e-9)


def test_tau_mean_bound_generic_and_dirac():
    k = make_kernel("power_law", alpha=1.2, n_max=12)
    rep = tau_mean_lower_bound(k, GAUSS, 0.9, -0.4, seed=4)
    assert rep.passed and rep.term_violations == 0
    assert rep.partial_sum >= rep.tau_mean - 1e-9
    kd = make_kernel("dirac", step=1)
    repd = tau_mean_lower_bound(kd, GAUSS, 0.5, -1.0, seed=5)
    assert repd.passed
    assert repd.tau_mean == 1.0
    assert repd.partial_sum >= 1.0 - 1e-12


def test_regime_scan_merges_and_boundary():
    kern = make_kernel("power_law", alpha=0.6, n_max=20)
    cfg = ScanConfig(kernel=kern, disorder=GAUSS, n_fe=4000,
                     crit_tol=0.05, n_gc=1500, seed=12)
    rep = regime_scan([0.0, 1.0], [-0.6, -0.5, -0.05], cfg)
    cases = rep.cases()
    assert cases[(0.0, -0.6)] == "case23_merged"
    assert cases[(0.0, -0.05)] == "case23_merged"
    # exact tie with the annealed curve is never force-classified
    assert cases[(1.0, -0.5)] == "boundary"
    assert cases[(1.0, -0.6)] == "case3"
    for p in rep.points:
        if p.beta == 0.0:
            assert p.bracket is None


def test_regime_scan_outside_label():
    kern = make_kernel("power_law", alpha=0.6, n_max=20)
    cfg = ScanConfig(kernel=kern, disorder=GAUSS, n_fe=3000,
                     crit_tol=0.05, n_gc=1000, seed=13)
    rep = regime_scan([0.0], [0.3], cfg)
    assert rep.points[0].case == "outside"


SCAN_KERNEL = make_kernel("power_law", alpha=0.6, n_max=40)
# the CLI's default scan at seed 1, and a small grid whose growth
# candidates include a case-2 point (1.5, -1.0) and an unresolved
# one (0.5, -0.1)
SCANS = {
    "default": ([0.0, 1.0, 2.0], [-2.2, -1.4, -1.2, -0.35, -0.05],
                ScanConfig(kernel=SCAN_KERNEL, disorder=GAUSS, n_fe=8000, n_gc=3000,
                           crit_tol=0.04, seed=1)),
    "small": ([0.5, 1.5], [-1.0, -0.6, -0.3, -0.1],
              ScanConfig(kernel=SCAN_KERNEL, disorder=GAUSS, n_fe=300, n_gc=400,
                         crit_tol=0.1, seed=1)),
}


def _candidates(betas, hs, cfg):
    return [(b, h) for b in betas if b > 0 for h in hs
            if -log_mgf(cfg.disorder, b) < h < 0]


@pytest.mark.parametrize("name", sorted(SCANS))
def test_scan_report_does_not_depend_on_worker_count(monkeypatch, name):
    betas, hs, cfg = SCANS[name]
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        reports.append(asdict(regime_scan(betas, hs, cfg)))
    assert reports[0] == reports[1]
    cases = {(p["beta"], p["h"]): p["case"] for p in reports[0]["points"]}
    speculative = {cases[c] for c in _candidates(betas, hs, cfg)}
    assert "case1" in speculative and len(speculative) > 1
    for p in reports[0]["points"]:
        assert ("visit_sum_growth" in p["diagnostics"]) == (p["case"] == "case1")


@pytest.mark.parametrize("cpus", [1, 2])
def test_scan_growth_runs_in_the_helper_with_two_cpus(monkeypatch, cpus):
    betas, hs, cfg = SCANS["small"]
    parent, growth, calls = os.getpid(), experiments._visit_sum_growth, []

    def counted(*args):
        if os.getpid() == parent:
            calls.append(args[1:])
        return growth(*args)

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(experiments, "_visit_sum_growth", counted)
    regime_scan(betas, hs, cfg)
    # with one CPU this process grows every candidate, case 1 or not
    assert calls == ([] if cpus == 2 else _candidates(betas, hs, cfg))


def test_scan_helper_failure_reaches_the_caller(monkeypatch):
    betas, hs, cfg = SCANS["small"]
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)

    def failing(*args):
        raise MemoryError("helper out of memory")

    def vanishing(*args):
        os._exit(0)  # ends without its report

    for broken, status in ((failing, 1), (vanishing, 0)):
        monkeypatch.setattr(experiments, "_visit_sum_growth", broken)
        with pytest.raises(RuntimeError, match=f"exited with status {status} without"):
            regime_scan(betas, hs, cfg)


def test_scan_failure_stops_the_helper(monkeypatch):
    # a refused scan is reported at once, not after the helper's growth
    betas, hs, cfg = SCANS["small"]
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_visit_sum_growth", lambda *args: time.sleep(60))

    def refused(*args):
        raise ValueError("refused")

    monkeypatch.setattr(experiments, "_quenched_scan", refused)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="refused"):
        regime_scan(betas, hs, cfg)
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("disorder", ["gaussian", "rademacher"])
def test_visit_sum_growth_is_total(disorder):
    # regime_scan grows points that need not be case 1, so no finite (beta, h)
    # may raise or warn: beta 1e5 overflows W(2R) / W(R), beta > 1.3e154
    # overflows beta ** 2, beta 1e303 overflows V to inf, h = -1e-200
    # underflows h ** 2 to a zero divisor, and h = -1e300 sends V to -inf
    cfg = replace(SCANS["small"][2], disorder=DisorderSpec(disorder))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        growth = {(beta, h): experiments._visit_sum_growth(cfg, beta, h)
                  for beta, h in [(1e5, -1.0), (1e155, -1.0), (1e303, -1.0),
                                  (1.0, -1e-200), (1.0, -1e300)]}
    assert all(type(g) is float for g in growth.values())
    assert growth[(1e5, -1.0)] == growth[(1e155, -1.0)] == growth[(1e303, -1.0)] == math.inf
    assert 1e50 < growth[(1.0, -1e-200)] < math.inf
    assert growth[(1.0, -1e300)] == 0.0


def test_transience_check_matches_exact_escape():
    kern = make_kernel("power_law", alpha=1.0, n_max=5)
    rep = annealed_transience_check(kern, GAUSS, 0.0, -1.0, n_envs=40,
                                    walks_per_env=400, r=120, seed=8)
    assert rep.absorbed_fraction == 1.0
    assert rep.within_3se_fraction >= 0.9


def test_transience_every_environment_finite():
    kern = make_kernel("power_law", alpha=0.8, n_max=6)
    rep = annealed_transience_check(kern, GAUSS, 0.7, -0.9, n_envs=1000,
                                    walks_per_env=40, r=120, seed=9)
    assert rep.absorbed_fraction == 1.0


def test_transience_requires_negative_h():
    kern = make_kernel("dirac", step=1)
    with pytest.raises(ValueError):
        annealed_transience_check(kern, GAUSS, 0.0, 0.0)


def recurrence_signature(r_values, replicas, seed=0):
    """Visit means of the flat-potential walk at growing R (control case).

    Recurrence shows as visit counts that track R with no saturation.
    """
    out = {}
    for r in r_values:
        pot = Potential(values=np.zeros(max(r_values) + 1))
        counts = simulate_visit_counts([pot], r, replicas, derive_seed(seed, "recurrence", r))
        mean, se = _mean_stderr(counts[0])
        out[int(r)] = {"mean": mean, "stderr": se}
    return out


def test_recurrence_signature_grows_with_r():
    sig = recurrence_signature([10, 20, 40], replicas=4000, seed=10)
    assert sig[20]["mean"] / sig[10]["mean"] > 1.5
    assert sig[40]["mean"] / sig[20]["mean"] > 1.5
    assert abs(sig[40]["mean"] - 40.0) <= 3 * sig[40]["stderr"]

"""Cross-pipeline experiments: key relation, mean-gap bound, regimes, transience."""

import math
import warnings

import numpy as np
import pytest

import sparsepin.walk
from sparsepin import (DisorderSpec, Potential, experiments, make_kernel,
                       simulate_visit_counts, tau_mean_lower_bound, verify_key_relation)
from sparsepin._rng import derive_seed
from sparsepin.experiments import (KeyRelationConfig, ScanConfig,
                                   annealed_transience_check, regime_scan)
from sparsepin.pinning import (FE_ROWS, CriticalPointEstimate, PartitionTable, _contact_rows,
                              _mean_stderr, grand_canonical, pinned_recursions)


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


def _scan_cfg(seed):
    # the CLI defaults of scan
    return ScanConfig(kernel=SCAN_KERNEL, disorder=GAUSS, n_fe=8000, n_gc=3000,
                      crit_tol=0.04, seed=seed)


def test_scan_has_no_inconsistent_point():
    # the default grid at seeds 1-20 and a grid near h = 0 at seeds 1-3; the
    # slope fit at f_hat / 2 and the visit-sum growth check flagged 6 and 17
    # case-1 points here, which the certified test labels case 1 or leaves
    # unresolved
    runs = ([([0.0, 1.0, 2.0], [-2.2, -1.4, -1.2, -0.35, -0.05], seed)
             for seed in range(1, 21)]
            + [([0.5, 1.0, 2.0], [-0.1, -0.05, -0.03, -0.02, -0.01, -0.005], seed)
               for seed in range(1, 4)])
    case1 = 0
    for betas, hs, seed in runs:
        for p in regime_scan(betas, hs, _scan_cfg(seed)).points:
            assert p.consistent, (seed, p)
            case1 += p.case == "case1"
    assert case1 > 100


def test_scan_entries_of_a_beta_do_not_depend_on_the_other_betas():
    # beta = 1 runs its search beside beta = 2's, and its case-1 rows in a
    # bigger n_gc pass, yet its critical entry and points are the same bits
    cfg = ScanConfig(kernel=make_kernel("power_law", alpha=0.6, n_max=40),
                     disorder=GAUSS, n_fe=2000, n_gc=1000, seed=5)
    hs = [-2.2, -1.4, -1.2, -0.35, -0.05]
    alone, beside = regime_scan([1.0], hs, cfg), regime_scan([1.0, 2.0], hs, cfg)
    assert alone.critical[0] == beside.critical[0]
    assert alone.critical[0]["bracket"] is not None
    assert [c["passes"] for c in beside.critical] == [1, 1]
    assert alone.points == beside.points[: len(hs)]
    # h = -0.35 lies below beta = 1's bracket, about [-0.3499, -0.3446]
    assert [p.case for p in beside.points] == ["case3", "case3", "case3", "case2",
                                               "case1", "case3", "case2", "case2",
                                               "case1", "case1"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scan_never_certifies_a_zero_free_energy(monkeypatch, seed):
    # a bracket forced far below the quenched critical point of beta = 2
    # puts h = -1.8 and -1.4, where F = 0, above it: they must not be case 1
    def forced(spec, kernel, searches, n, tol):
        return [CriticalPointEstimate(h_hat=-1.96, bracket=(-1.98, -1.94)) for _ in searches]

    monkeypatch.setattr(experiments, "quenched_critical_point_estimates", forced)
    rep = regime_scan([2.0], [-1.8, -1.4], _scan_cfg(seed))
    for p in rep.points:
        assert p.bracket == (-1.98, -1.94)
        assert p.case == "unresolved" and p.consistent
        d = p.diagnostics
        assert d["rows"] == FE_ROWS
        assert d["raw_mean"] - experiments.CASE1_T * d["raw_se"] <= 0


def test_case1_quantile_is_the_one_sided_three_sigma_t_quantile():
    stats = pytest.importorskip("scipy.stats")
    level = stats.norm.sf(3.0)
    assert level == pytest.approx(0.00135, abs=1e-6)
    assert experiments.CASE1_T == pytest.approx(
        stats.t.isf(0.00135, FE_ROWS - 1), abs=5e-4)


def test_scan_edge_grid_raises_and_warns_nothing():
    # h = -1e-200 next to a case-2 point and an unresolved one, on a small
    # budget; no (beta, h) may raise or warn
    cfg = ScanConfig(kernel=SCAN_KERNEL, disorder=GAUSS, n_fe=300, n_gc=400,
                     crit_tol=0.1, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = regime_scan([0.5, 1.5], [-1.0, -0.6, -0.3, -0.1, -1e-200], cfg)
    cases = rep.cases()
    assert {"case1", "case2", "unresolved"} <= set(cases.values())
    for p in rep.points:
        assert p.consistent
        if p.case == "case1":
            assert p.diagnostics["raw_mean"] > 0 and p.diagnostics["rows"] == 16


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


def test_transience_reports_the_move_length_the_engine_walked(monkeypatch):
    # 120 environments of 10 walks move by 1 pair, which only the
    # environment count selects
    walked = []
    real = sparsepin.walk.move_pairs
    monkeypatch.setattr(sparsepin.walk, "move_pairs",
                        lambda *counts: walked.append(real(*counts)) or walked[-1])
    rep = annealed_transience_check(make_kernel("power_law", alpha=0.8, n_max=6), GAUSS,
                                    0.0, -1.0, n_envs=120, walks_per_env=10, r=40, seed=3)
    assert walked == [rep.move_pairs] == [1]


@pytest.mark.parametrize("h, r, within", [(-1.0, 1, 1.0), (-10.0, 20, 0.0)])
def test_transience_zero_stderr_is_within_only_on_an_exact_match(h, r, within):
    # every walker of every environment counts one visit, so the stderr is
    # 0: at R = 1, W(1) = 1 matches exactly; at h = -10 every site pulls the
    # walker up, and W(20) = 1 + 4.5e-5 + ... misses
    rep = annealed_transience_check(make_kernel("dirac", step=1), GAUSS, 0.0, h, n_envs=3,
                                    walks_per_env=10, r=r, seed=1)
    assert all(row["mc_mean"] == 1.0 and row["mc_stderr"] == 0.0 for row in rep.env_rows)
    assert rep.within_3se_fraction == within


def test_transience_requires_negative_h():
    kern = make_kernel("dirac", step=1)
    with pytest.raises(ValueError):
        annealed_transience_check(kern, GAUSS, 0.0, 0.0)
    with pytest.raises(ValueError, match="walks_per_env >= 2"):
        annealed_transience_check(kern, GAUSS, 0.0, -1.0, walks_per_env=1)


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


def test_classify_leaves_both_bracket_ends_unresolved():
    # the bracket is closed: a point on either end is not classified
    lo, hi = -0.8, -0.6
    assert experiments._classify(1.0, lo, -1.5, (lo, hi)) == "unresolved"
    assert experiments._classify(1.0, hi, -1.5, (lo, hi)) == "unresolved"
    assert experiments._classify(1.0, math.nextafter(lo, -math.inf), -1.5, (lo, hi)) == "case2"
    assert experiments._classify(1.0, math.nextafter(hi, math.inf), -1.5, (lo, hi)) == "case1"


def _case1_tables(spread):
    # FE_ROWS tables whose raws are 0.01 +- spread: raw_mean 0.01 and
    # raw_se = spread * sqrt(16 / 15) / 4
    n = 10
    raws = 0.01 + spread * np.array([1.0, -1.0] * (FE_ROWS // 2))
    return [PartitionTable(n=n, kernel=SCAN_KERNEL,
                           log_zc=np.append(np.zeros(n), raw * n)) for raw in raws]


def test_case1_needs_its_mean_three_point_six_stderr_above_zero():
    # raw_mean > 0 in both; only the narrow spread clears CASE1_T stderr
    cfg = ScanConfig(kernel=SCAN_KERNEL, disorder=GAUSS)
    case, diag, ok = experiments._point_diagnostics(
        cfg, 1.0, -0.1, 0.5, "case1", _case1_tables(0.02), (-0.3, -0.2))
    assert diag["raw_mean"] > 0 and diag["raw_mean"] - experiments.CASE1_T * diag["raw_se"] <= 0
    assert case == "unresolved" and ok
    case, diag, ok = experiments._point_diagnostics(
        cfg, 1.0, -0.1, 0.5, "case1", _case1_tables(0.005), (-0.3, -0.2))
    assert diag["raw_mean"] - experiments.CASE1_T * diag["raw_se"] > 0
    assert case == "case1" and ok


@pytest.mark.parametrize("z, verdict", [(2.9, "pass"), (-2.9, "pass"),
                                        (3.1, "fail"), (-3.1, "fail")])
def test_verify_tolerance_is_three_stderr(monkeypatch, z, verdict):
    # the Monte Carlo side is replaced by S_N + z stderr
    se = 0.01

    def shifted(cfg, omega, n):
        (table,) = pinned_recursions(_contact_rows(omega, cfg.beta, [cfg.h]), cfg.kernel)
        return grand_canonical(table, cfg.f).partial_sum + z * se, se

    monkeypatch.setattr(experiments, "_mc_visits_over_tau", shifted)
    rep = verify_key_relation(KeyRelationConfig(
        kernel=make_kernel("power_law", alpha=1.0, n_max=8), disorder=GAUSS,
        beta=1.0, h=-1.0, f=0.3, seed=5))
    assert rep.tolerance == 3 * se
    assert rep.verdict == verdict


@pytest.mark.parametrize("z, within", [(2.9, True), (-2.9, True),
                                       (3.5, False), (-3.5, False)])
def test_transience_within_is_three_stderr(monkeypatch, z, within):
    # every environment's counts are 1, 1, 2, 2: mean 1.5, stderr sqrt(1/3) / 2;
    # W(R) is replaced so that each sits z stderr from it
    se = math.sqrt(1 / 3) / 2
    monkeypatch.setattr(experiments, "simulate_visit_counts",
                        lambda pots, *_, **__: np.tile([1, 1, 2, 2], (len(pots), 1)))
    monkeypatch.setattr(experiments, "expected_visits_exact", lambda pot, r: 1.5 - z * se)
    rep = annealed_transience_check(make_kernel("power_law", alpha=1.0, n_max=5), GAUSS,
                                    0.0, -1.0, n_envs=3, walks_per_env=4, r=20, seed=1)
    assert [row["z"] for row in rep.env_rows] == pytest.approx([z] * 3)
    assert rep.within_3se_fraction == float(within)


def test_tau_mean_bound_fails_a_sum_1e6_short(monkeypatch):
    # with dead contacts the partial sum equals E(tau_1) to 1e-9, so a mean
    # gap 1e-6 larger must fail the bound
    k = make_kernel("power_law", alpha=0.7, n_max=24)
    mean_gap = experiments.kernel_mean(k)
    assert tau_mean_lower_bound(k, GAUSS, 0.0, -1000.0, seed=2).passed
    monkeypatch.setattr(experiments, "kernel_mean", lambda kernel: mean_gap + 1e-6)
    rep = tau_mean_lower_bound(k, GAUSS, 0.0, -1000.0, seed=2)
    assert rep.term_violations == 0 and rep.margin < 0
    assert not rep.passed

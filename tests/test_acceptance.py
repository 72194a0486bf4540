"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion, including its runtime against the stated budget.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import brute_force_partition, pinned_table
from sparsepin import (DisorderSpec, Potential, WalkParams, build_potential,
                       expected_visits_exact, free_energy_estimate,
                       homogeneous_free_energy, kernel_mean, make_kernel,
                       pinned_recursions, quenched_critical_point_estimate, ruin_prob,
                       sample_disorder, sample_environment, simulate_visit_counts,
                       step_prob, tau_mean_lower_bound, verify_key_relation)
from sparsepin._rng import derive_seed
from sparsepin.experiments import KeyRelationConfig, ScanConfig, regime_scan
from sparsepin.pinning import _mean_stderr

GAUSS = DisorderSpec("gaussian")


def _report(num, ok, detail, t0, budget):
    elapsed = time.time() - t0
    ok = ok and elapsed < budget
    line = (f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail}) "
            f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    print(line)
    assert ok, line


def test_criterion_1_finite_r_visits_identity():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    hits = 0
    for i in range(20):
        alpha = rng.uniform(0.5, 1.5)
        n_max = int(rng.integers(2, 7))
        kern = make_kernel("power_law", alpha=alpha, n_max=n_max)
        params = WalkParams(beta=rng.uniform(0, 1), h=rng.uniform(-1.5, 0.5),
                            f=rng.uniform(0.05, 0.6))
        env = sample_environment(kern, GAUSS, 50, derive_seed(77, "acc1-env", i))
        pot = build_potential(env, params)
        r = int(rng.integers(10, 51))
        exact = expected_visits_exact(pot, r)
        counts = simulate_visit_counts([pot], r, 100000, derive_seed(77, "acc1-mc", i))
        mean, se = _mean_stderr(counts[0])
        hits += abs(mean - exact) <= 3 * se
    _report(1, hits >= 19, f"{hits}/20 potentials within 3 stderr at 1e5 replicas",
            t0, 60)


def test_criterion_2_ruin_formula_vs_linear_system():
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 11))
        pot = Potential(values=np.concatenate([[0.0], rng.uniform(-2, 2, m)]))
        a = int(rng.integers(0, m - 1))
        c = int(rng.integers(a + 2, m + 2))
        b = int(rng.integers(a + 1, c))
        dv = pot.increments()
        interior = list(range(a + 1, c))
        mat = np.zeros((len(interior), len(interior)))
        rhs = np.zeros(len(interior))
        for row, i in enumerate(interior):
            p = step_prob(float(dv[i - 1]))
            mat[row, row] = 1.0
            if row + 1 < len(interior):
                mat[row, row + 1] = -p
            else:
                rhs[row] += p
            if row - 1 >= 0:
                mat[row, row - 1] = -(1.0 - p)
        oracle = float(np.linalg.solve(mat, rhs)[b - (a + 1)])
        worst = max(worst, abs(ruin_prob(pot, a, b, c) - oracle))
    _report(2, worst <= 1e-12, f"worst |formula - solve| = {worst:.2e} over 100 potentials",
            t0, 1)


def test_criterion_3_partition_recursions_vs_brute_force():
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        n_max = int(rng.integers(1, 5))
        kind = rng.choice(["power_law", "geometric", "dirac"])
        if kind == "power_law":
            kern = make_kernel("power_law", alpha=float(rng.uniform(0, 2)), n_max=n_max)
        elif kind == "geometric":
            kern = make_kernel("geometric", q=float(rng.uniform(0.2, 0.8)), n_max=n_max)
        else:
            kern = make_kernel("dirac", step=n_max)
        beta, h = float(rng.uniform(0, 1.5)), float(rng.uniform(-2, 2))
        omega = rng.normal(size=12)
        table = pinned_table(omega, kern, beta, h, 12)
        for n in range(13):
            z_free, z_pin = brute_force_partition(omega, kern, beta, h, n)
            worst = max(worst, abs(math.exp(table.log_z[n]) - z_free) / z_free)
            if z_pin > 0:
                worst = max(worst, abs(math.exp(table.log_zc[n]) - z_pin) / z_pin)
    _report(3, worst <= 1e-10, f"worst relative error {worst:.2e} over 50 configs, n <= 12",
            t0, 10)


def test_criterion_4_last_renewal_decomposition():
    t0 = time.time()
    n = 10000
    kern = make_kernel("power_law", alpha=0.8, n_max=8)
    omega = sample_disorder(GAUSS, n, seed=13)
    table = pinned_table(omega, kern, 0.7, -0.3, n)
    worst = 0.0
    for m in range(n + 1):
        k_lo = max(0, m - kern.n_max + 1)
        shift = float(np.max(table.log_zc[k_lo : m + 1]))
        terms = [math.exp(table.log_zc[j] - shift) * float(kern.tail[m - j])
                 for j in range(k_lo, m + 1)]
        ref = math.log(math.fsum(terms)) + shift
        worst = max(worst, abs(table.log_z[m] - ref) / max(abs(ref), 1.0))
    _report(4, worst <= 1e-12, f"worst relative log deviation {worst:.2e} up to n=1e4",
            t0, 5)


def test_criterion_5_key_relation():
    t0 = time.time()
    kern = make_kernel("power_law", alpha=1.0, n_max=8)
    rep = verify_key_relation(KeyRelationConfig(
        kernel=kern, disorder=GAUSS, beta=1.0, h=-1.0, f=0.3,
        n_tau=1000, walk_replicas=1000, seed=5))
    ok = rep.verdict == "pass"
    trivial = verify_key_relation(KeyRelationConfig(
        kernel=kern, disorder=GAUSS, beta=1.0, h=-1.0, f=50.0,
        n_tau=50, walk_replicas=50, seed=6, n_series=30))
    ok &= (trivial.verdict == "pass"
           and abs(trivial.lhs["mean"] - 1.0) <= 1e-6
           and abs(trivial.rhs.partial_sum - 1.0) <= 1e-6)
    collapse = verify_key_relation(KeyRelationConfig(
        kernel=make_kernel("dirac", step=1), disorder=GAUSS, beta=0.5, h=-0.8,
        f=0.2, n_tau=20, walk_replicas=2000, seed=7))
    ok &= collapse.verdict == "pass"
    _report(5, ok,
            f"main |LHS-RHS|={rep.abs_difference:.4f} <= tol={rep.tolerance:.4f}; "
            f"f=50 limit and dirac collapse pass", t0, 300)


def test_criterion_6_homogeneous_free_energy():
    t0 = time.time()
    kern = make_kernel("geometric", q=0.5, n_max=64)
    est = free_energy_estimate([pinned_table(np.zeros(20000), kern, 0.0, math.log(2.0),
                                             20000)])
    err = abs(est.f_hat - math.log(1.5))
    _report(6, err <= 1e-3, f"|f_hat - log(3/2)| = {err:.2e} at n=2e4", t0, 30)


def test_criterion_7_annealed_consistency():
    t0 = time.time()
    n, beta, h = 200, 1.0, -1.0
    kern = make_kernel("power_law", alpha=1.0, n_max=400)
    # one contact row per disorder draw, all in one engine call
    contact = np.stack([beta * sample_disorder(GAUSS, n, derive_seed(11, "ann", r)) + h
                        for r in range(1000)])
    zs = np.array([math.exp(table.log_z[n]) for table in pinned_recursions(contact, kern)])
    hom = pinned_table(np.zeros(n), kern, 0.0, h + 0.5, n)
    target = math.exp(hom.log_z[n])
    mean, se = float(zs.mean()), float(zs.std(ddof=1) / math.sqrt(len(zs)))
    z = (mean - target) / se
    _report(7, abs(z) <= 3.0,
            f"mean Z_200 = {mean:.4e} vs shifted homogeneous {target:.4e}, z = {z:+.2f}",
            t0, 60)


def test_criterion_8_critical_points():
    t0 = time.time()
    kern = make_kernel("power_law", alpha=1.0, n_max=40)
    est0 = quenched_critical_point_estimate(GAUSS, kern, 0.0, 20000, 0.01, seed=42)
    ok = abs(est0.h_hat) <= 0.02
    est1 = quenched_critical_point_estimate(GAUSS, kern, 1.0, 20000, 0.02, seed=42)
    ok &= -0.5 <= est1.h_hat < 0.0
    _report(8, ok, f"beta=0: {est0.h_hat:+.4f} (|.| <= 0.02); "
                   f"beta=1: {est1.h_hat:+.4f} in [-0.5, 0)", t0, 600)


def test_criterion_9_tau_mean_bound():
    t0 = time.time()
    kern = make_kernel("power_law", alpha=0.7, n_max=24)
    table = pinned_table(np.zeros(96), kern, 0.0, -1000.0, 96)
    target = kernel_mean(kern)
    partial = np.exp(np.logaddexp.accumulate(table.log_z))
    worst = float(np.max(np.abs(partial[kern.n_max:] - target)))
    bound = tau_mean_lower_bound(kern, GAUSS, 0.0, -1000.0, seed=2)
    _report(9, worst <= 1e-9 and bound.passed,
            f"max |S_N - E(tau)| = {worst:.2e} for N >= n_max", t0, 1)


def test_criterion_10_regime_scan_stability():
    t0 = time.time()
    kern = make_kernel("power_law", alpha=0.6, n_max=40)
    cfg = ScanConfig(kernel=kern, disorder=GAUSS, n_fe=10000,
                     crit_tol=0.04, n_gc=3000, seed=99)
    betas = [0.0, 1.0, 2.0]
    hs = [-2.2, -1.4, -1.2, -0.35, -0.05]
    base = regime_scan(betas, hs, cfg)
    doubled = regime_scan(betas, hs, replace(cfg, n_fe=2 * cfg.n_fe, n_gc=2 * cfg.n_gc))
    numbered = {"case1", "case2", "case3"}
    flips = [(p.beta, p.h, p.case, q.case)
             for p, q in zip(base.points, doubled.points)
             if p.case in numbered and q.case in numbered and p.case != q.case]
    case2_base = sum(p.case == "case2" for p in base.points)
    case2_doubled = sum(p.case == "case2" for p in doubled.points)
    ok = not flips and case2_base > 0 and case2_doubled > 0
    _report(10, ok, f"no case flips under doubling ({len(flips)} flips); "
                    f"case-2 band size {case2_base}->{case2_doubled}", t0, 900)

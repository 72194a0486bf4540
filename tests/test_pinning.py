"""Partition recursions vs enumeration, free energy, critical points."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparsepin.pinning
from oracles import brute_force_partition, pinned_table
from sparsepin import (BracketError, DisorderSpec, SparseEnvironment, WalkParams,
                       annealed_critical_point, build_potential, expected_visits_exact,
                       free_energy_estimate, free_partition, grand_canonical,
                       homogeneous_free_energy, homogeneous_series_verdict, kernel_mean,
                       kernel_tail, log_mgf, make_kernel, pinned_recursions,
                       quenched_critical_point_estimate,
                       quenched_critical_point_estimates, sample_disorder)
from sparsepin._rng import derive_seed
from sparsepin.experiments import ScanConfig, regime_scan
from sparsepin.pinning import (CRIT_H_HI, FE_ROWS, CriticalPointEstimate, _bisection,
                               _convex_bracket, _fresh_rows, _margin, _mean_stderr,
                               _midpoints)


def random_kernel(rng):
    n_max = int(rng.integers(1, 5))
    kind = rng.choice(["power_law", "geometric", "dirac"])
    if kind == "power_law":
        return make_kernel("power_law", alpha=float(rng.uniform(0, 2)), n_max=n_max)
    if kind == "geometric":
        return make_kernel("geometric", q=float(rng.uniform(0.2, 0.8)), n_max=n_max)
    return make_kernel("dirac", step=n_max)


# ---------------------------------------------------------------------------
# recursions vs the enumeration oracle

def test_pinned_single_step():
    k = make_kernel("power_law", alpha=0.7, n_max=3)
    omega = np.array([0.4, -1.0, 0.2])
    t = pinned_table(omega, k, 1.3, -0.2, 3)
    assert math.exp(t.log_zc[1]) == pytest.approx(
        float(k.weights[0]) * math.exp(1.3 * 0.4 - 0.2), rel=1e-13)


def test_dirac_unit_kernel_trivial():
    k = make_kernel("dirac", step=1)
    t = pinned_table(np.zeros(20), k, 0.0, 0.0, 20)
    assert np.allclose(t.log_zc, 0.0, atol=1e-13)
    assert np.allclose(t.log_z, t.log_zc, atol=1e-13)


def test_free_is_one_without_energy():
    k = make_kernel("power_law", alpha=0.9, n_max=5)
    t = pinned_table(np.zeros(60), k, 0.0, 0.0, 60)
    assert np.allclose(t.log_z, 0.0, atol=1e-12)


def test_recursions_match_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(10):
        kern = random_kernel(rng)
        beta, h = float(rng.uniform(0, 1.5)), float(rng.uniform(-2, 2))
        omega = rng.normal(size=12)
        table = pinned_table(omega, kern, beta, h, 12)
        for n in range(13):
            z_free, z_pin = brute_force_partition(omega, kern, beta, h, n)
            assert math.exp(table.log_z[n]) == pytest.approx(z_free, rel=1e-10)
            if z_pin > 0:
                assert math.exp(table.log_zc[n]) == pytest.approx(z_pin, rel=1e-10)
            else:
                assert table.log_zc[n] == -math.inf


def test_brute_force_edges():
    k = make_kernel("power_law", alpha=1.0, n_max=2)
    omega = np.array([0.3])
    z1, zc1 = brute_force_partition(omega, k, 1.0, -0.5, 1)
    assert z1 == pytest.approx(0.8 * math.exp(0.3 - 0.5) + 0.2, rel=1e-14)
    assert zc1 == pytest.approx(0.8 * math.exp(0.3 - 0.5), rel=1e-14)
    assert brute_force_partition(np.empty(0), k, 1.0, 2.0, 0) == (1.0, 1.0)
    zf, _ = brute_force_partition(np.zeros(9), k, 0.0, 0.0, 9)
    assert zf == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(ValueError):
        brute_force_partition(np.zeros(20), k, 0.0, 0.0, 15)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["power_law", "geometric", "dirac"]),
       n_max=st.integers(1, 5), shape=st.floats(0.05, 0.95),
       beta=st.floats(0.0, 1.5), h=st.floats(-2.0, 2.0),
       n=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_recursions_match_brute_force_property(kind, n_max, shape, beta, h, n, seed):
    kern = {"power_law": lambda: make_kernel("power_law", alpha=2 * shape, n_max=n_max),
            "geometric": lambda: make_kernel("geometric", q=shape, n_max=n_max),
            "dirac": lambda: make_kernel("dirac", step=n_max)}[kind]()
    omega = np.random.default_rng(seed).normal(size=n)
    table = pinned_table(omega, kern, beta, h, n)
    z_free, z_pin = brute_force_partition(omega, kern, beta, h, n)
    assert math.exp(table.log_z[n]) == pytest.approx(z_free, rel=1e-10)
    if z_pin > 0:
        assert math.exp(table.log_zc[n]) == pytest.approx(z_pin, rel=1e-10)
    else:
        assert table.log_zc[n] == -math.inf


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["power_law", "geometric", "dirac"]),
       n_max=st.integers(1, 5), shape=st.floats(0.05, 0.95),
       beta=st.floats(0.0, 1.5), h=st.floats(-2.0, 2.0), f=st.floats(0.0, 1.0),
       n=st.integers(0, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_identity_is_exact_over_every_renewal_set(kind, n_max, shape, beta, h, f, n,
                                                  seed):
    # the paper's identity at finite N: averaged over every renewal set
    # tau in [1, N], the walk's exact visit count W_tau(N + 1) equals the
    # grand-canonical partial sum S_N = sum_{m <= N} Z_m e^{-fm}
    kern = _kernel(kind, n_max, shape)
    omega = np.random.default_rng(seed).normal(size=n)
    params = WalkParams(beta=beta, h=h, f=f)
    terms = []
    for mask in range(2 ** n):
        tau = np.array([0] + [i for i in range(1, n + 1) if mask >> (i - 1) & 1])
        gaps = np.diff(tau)
        if gaps.size and gaps.max() > kern.n_max:
            continue
        # P(tau) = prod K(gaps) * P(tau_1 > N - last point)
        weight = math.prod(float(kern.weights[g - 1]) for g in gaps)
        weight *= kernel_tail(kern, n - int(tau[-1]))
        if weight > 0:
            pot = build_potential(SparseEnvironment(horizon=n, tau=tau, omega=omega), params)
            terms.append(weight * expected_visits_exact(pot, n + 1))
    (table,) = pinned_recursions([beta * omega + h], kern)
    assert math.fsum(terms) == pytest.approx(grand_canonical(table, f).partial_sum,
                                             rel=1e-12)


def test_free_column_is_computed_once(monkeypatch):
    calls = []
    original = sparsepin.pinning.free_partition

    def counting(table):
        calls.append(table)
        return original(table)

    monkeypatch.setattr(sparsepin.pinning, "free_partition", counting)
    k = make_kernel("power_law", alpha=1.0, n_max=4)
    t = pinned_table(np.zeros(50), k, 0.0, -0.5, 50)
    assert not calls
    first = grand_canonical(t, 0.1)
    second = grand_canonical(t, 0.0)
    assert len(calls) == 1
    assert first.partial_sum < second.partial_sum


def test_recursion_input_validation():
    k = make_kernel("dirac", step=1)
    for contact in (np.zeros(5), np.zeros((2, 3, 5)), [[0.0, math.nan]],
                    [[0.0, 1.0], [-math.inf, 0.0]]):
        with pytest.raises(ValueError):
            pinned_recursions(contact, k)
    # a NaN beta is refused like a negative one, not reported as a bracket failure
    spec = DisorderSpec("gaussian")
    with pytest.raises(ValueError, match="beta"):
        log_mgf(spec, math.nan)
    with pytest.raises(ValueError, match="beta"):
        quenched_critical_point_estimate(spec, k, math.nan, 100, 0.1)


# ---------------------------------------------------------------------------
# grand canonical series

def test_grand_canonical_large_f_keeps_origin_term():
    k = make_kernel("power_law", alpha=1.0, n_max=4)
    omega = sample_disorder(DisorderSpec("gaussian"), 200, seed=3)
    t = pinned_table(omega, k, 1.0, 0.5, 200)
    rep = grand_canonical(t, 50.0)
    assert rep.partial_sum == pytest.approx(1.0, abs=1e-12)
    assert rep.verdict == "converged"


def test_grand_canonical_saturates_at_tau_mean():
    k = make_kernel("power_law", alpha=0.7, n_max=24)
    t = pinned_table(np.zeros(96), k, 0.0, -1000.0, 96)
    rep = grand_canonical(t, 0.0)
    assert rep.verdict == "converged"
    assert rep.partial_sum == pytest.approx(kernel_mean(k), abs=1e-11)
    assert rep.tail_bound == pytest.approx(0.0, abs=1e-200)


def test_grand_canonical_divergence_rate_matches_free_energy():
    k = make_kernel("power_law", alpha=1.0, n_max=8)
    t = pinned_table(np.zeros(1500), k, 0.0, 1.0, 1500)
    rep = grand_canonical(t, 0.0)
    assert rep.verdict == "diverging"
    target = homogeneous_free_energy(k, 1.0).free_energy
    assert rep.growth_rate == pytest.approx(target, rel=0.05)


def test_grand_canonical_monotone_in_f():
    k = make_kernel("geometric", q=0.4, n_max=10)
    omega = sample_disorder(DisorderSpec("rademacher"), 400, seed=9)
    t = pinned_table(omega, k, 0.8, -0.3, 400)
    sums = [grand_canonical(t, f).partial_sum for f in (0.2, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(sums, sums[1:]))
    # term-wise: every n >= 1 term strictly shrinks when f grows
    terms_02 = t.log_z - 0.2 * np.arange(401)
    terms_05 = t.log_z - 0.5 * np.arange(401)
    assert np.all(terms_05[1:] < terms_02[1:])
    assert terms_05[0] == terms_02[0]


def test_grand_canonical_verdicts_match_closed_form():
    # the slope fit on homogeneous (annealed) tables that the regime scan
    # used to run, against the exact condition e^h sum_k K(k) e^{-fk} < 1
    k = make_kernel("power_law", alpha=0.6, n_max=40)
    n = 3000
    for h in (-1.0, -0.3, -0.05, 0.05, 0.2, 0.5, 1.0):
        table = pinned_table(np.zeros(n), k, 0.0, h, n)
        free_energy = homogeneous_free_energy(k, h).free_energy
        # what the regime scan's labels imply, so it records no annealed
        # verdicts: below the annealed curve (h < 0) every f >= 0 converges,
        # above it the series diverges at half the free energy
        if h < 0:
            assert homogeneous_series_verdict(k, h, 0.0) == "converged", h
            assert homogeneous_series_verdict(k, h, 0.05) == "converged", h
        else:
            assert homogeneous_series_verdict(k, h, 0.5 * free_energy) == "diverging", h
        for f in (0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8):
            if abs(f - free_energy) < 0.02:
                continue
            exact = homogeneous_series_verdict(k, h, f)
            assert exact == ("converged" if f > free_energy else "diverging")
            assert grand_canonical(table, f).verdict == exact, (h, f)
    # on the critical line the renewal series sum_n P(n in tau) diverges
    assert homogeneous_series_verdict(k, 0.0, 0.0) == "diverging"
    assert homogeneous_series_verdict(k, -1e-9, 0.0) == "converged"
    assert homogeneous_series_verdict(k, 5.0, 800.0) == "converged"


def test_last_renewal_identity_internal():
    k = make_kernel("power_law", alpha=0.8, n_max=8)
    omega = sample_disorder(DisorderSpec("gaussian"), 2000, seed=13)
    t = pinned_table(omega, k, 0.7, -0.3, 2000)
    for n in range(2001):
        k_lo = max(0, n - k.n_max + 1)
        shift = float(np.max(t.log_zc[k_lo : n + 1]))
        terms = [math.exp(t.log_zc[j] - shift) * float(k.tail[n - j])
                 for j in range(k_lo, n + 1)]
        ref = math.log(math.fsum(terms)) + shift
        assert t.log_z[n] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_tau_mean_factorization_at_zero_drift():
    # convergent configuration: free sum = E(tau_1) * pinned sum
    k = make_kernel("power_law", alpha=1.0, n_max=6)
    omega = sample_disorder(DisorderSpec("gaussian"), 3000, seed=5)
    t = pinned_table(omega, k, 0.7, -1.5, 3000)
    s_free = grand_canonical(t, 0.0)
    s_pin = math.exp(np.logaddexp.reduce(t.log_zc))
    assert s_free.verdict == "converged"
    assert s_free.partial_sum / s_pin == pytest.approx(kernel_mean(k), rel=1e-8)


# ---------------------------------------------------------------------------
# free energy and critical points

def test_free_energy_zero_below_criticality():
    k = make_kernel("power_law", alpha=1.0, n_max=8)
    for h in (0.0, -0.4):
        est = free_energy_estimate([pinned_table(np.zeros(20000), k, 0.0, h, 20000)])
        assert est.f_hat <= 1e-2
        assert est.f_hat >= 0.0


def test_free_energy_matches_homogeneous_solution():
    k = make_kernel("power_law", alpha=1.0, n_max=8)
    h = 0.4
    est = free_energy_estimate([pinned_table(np.zeros(20000), k, 0.0, h, 20000)])
    target = homogeneous_free_energy(k, h).free_energy
    assert est.f_hat == pytest.approx(target, abs=1e-3)
    assert est.f_hat == est.raw_mean and est.rows == 1 and math.isnan(est.raw_se)


def test_free_energy_jensen_annealed_bound():
    k = make_kernel("power_law", alpha=1.0, n_max=8)
    spec = DisorderSpec("gaussian")
    beta, h = 1.0, 0.2
    omega = sample_disorder(spec, 20000, seed=31)
    est = free_energy_estimate([pinned_table(omega, k, beta, h, 20000)])
    annealed = homogeneous_free_energy(k, h + log_mgf(spec, beta)).free_energy
    assert est.f_hat <= annealed + 1e-2


def test_free_energy_monotone_in_h():
    k = make_kernel("power_law", alpha=1.0, n_max=8)
    omega = sample_disorder(DisorderSpec("gaussian"), 8000, seed=32)
    hs = [-0.5, -0.1, 0.2, 0.6, 1.2]
    ests = [free_energy_estimate([pinned_table(omega, k, 0.8, h, 8000)])
            for h in hs]
    # raw rises strictly in h for fixed disorder, so no tolerance is needed
    for a, b in zip(ests, ests[1:]):
        assert b.raw_mean > a.raw_mean and b.f_hat >= a.f_hat


def test_homogeneous_free_energy_closed_form():
    k = make_kernel("geometric", q=0.5, n_max=64)
    sol = homogeneous_free_energy(k, math.log(2.0))
    assert sol.free_energy == pytest.approx(math.log(1.5), abs=1e-11)
    assert sol.residual <= 1e-10
    assert homogeneous_free_energy(k, 0.0).free_energy == 0.0
    assert homogeneous_free_energy(k, -3.0).free_energy == 0.0


def test_homogeneous_untruncated_geometric_formula():
    # e^{-F} = e^{-h} / ((1-q) + q e^{-h}) for the untruncated geometric law
    q, h = 0.37, 0.9
    k = make_kernel("geometric", q=q, n_max=200)
    target = -math.log(math.exp(-h) / ((1 - q) + q * math.exp(-h)))
    assert homogeneous_free_energy(k, h).free_energy == pytest.approx(target, abs=1e-10)


def test_annealed_critical_point_values():
    assert annealed_critical_point(DisorderSpec("gaussian"), 0.0) == 0.0
    assert annealed_critical_point(DisorderSpec("gaussian"), 1.0) == pytest.approx(-0.5)
    assert annealed_critical_point(DisorderSpec("rademacher"), 1.0) == pytest.approx(
        -math.log(math.cosh(1.0)))


def test_quenched_critical_point_smoke():
    k = make_kernel("power_law", alpha=1.0, n_max=20)
    est = quenched_critical_point_estimate(DisorderSpec("gaussian"), k, 0.0,
                                           6000, 0.02, seed=3)
    assert abs(est.h_hat) <= 0.05
    assert est.bracket[0] <= est.h_hat <= est.bracket[1]


def _raw(omega, kernel, beta, h, n):
    # raw = (1/n) log z^c_n on one disorder row
    return pinned_table(omega, kernel, beta, h, n).log_zc[n] / n


def _crit_raw(spec, kernel, beta, n, seed, h):
    # raw on the estimator's own disorder draw
    omega = sample_disorder(spec, n, derive_seed(seed, "crit-omega", 0))
    return _raw(omega, kernel, beta, h, n)


def test_quenched_critical_point_bracket_failure():
    # dirac step 2 and odd n: no renewal path ends at n, z^c_n = 0 for every
    # h, so no h localizes and the search range is exhausted
    k = make_kernel("dirac", step=2)
    with pytest.raises(BracketError, match="no localized phase") as err:
        quenched_critical_point_estimate(DisorderSpec("gaussian"), k, 0.5,
                                         11, 0.02, seed=3)
    assert err.value.scanned == (-0.125, 2.25)


def test_quenched_critical_point_already_localized():
    # at n = 10 the sampled F_n can already be positive on the annealed curve
    k = make_kernel("power_law", alpha=1.0, n_max=4)
    spec = DisorderSpec("gaussian")
    assert _crit_raw(spec, k, 1.0, 10, 23, -0.5) > 0
    with pytest.raises(BracketError, match="already localized") as err:
        quenched_critical_point_estimate(spec, k, 1.0, 10, 0.02, seed=23)
    assert err.value.scanned == (-0.5, 0.25)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["power_law", "geometric", "dirac"]),
       n_max=st.integers(1, 6), shape=st.floats(0.05, 0.95),
       beta=st.floats(0.0, 1.5), h=st.floats(-2.0, 2.0), dh=st.floats(1e-3, 1.0),
       n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
def test_log_zc_strictly_increasing_in_h(kind, n_max, shape, beta, h, dh, n, seed):
    # every path to m carries at least one contact factor e^h
    kern = {"power_law": lambda: make_kernel("power_law", alpha=2 * shape, n_max=n_max),
            "geometric": lambda: make_kernel("geometric", q=shape, n_max=n_max),
            "dirac": lambda: make_kernel("dirac", step=n_max)}[kind]()
    omega = np.random.default_rng(seed).normal(size=n)
    lo = pinned_table(omega, kern, beta, h, n).log_zc
    hi = pinned_table(omega, kern, beta, h + dh, n).log_zc
    finite = np.isfinite(lo)
    assert np.array_equal(finite, np.isfinite(hi))
    assert np.all(hi[1:][finite[1:]] > lo[1:][finite[1:]])


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["power_law", "geometric"]), n_max=st.integers(1, 10),
       shape=st.floats(0.05, 0.95), beta=st.floats(0.0, 2.0),
       family=st.sampled_from(["gaussian", "rademacher", "uniform_centered"]),
       n=st.integers(2, 300), tol=st.floats(0.01, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_quenched_bracket_holds_the_sign_change(kind, n_max, shape, beta, family, n,
                                                tol, seed):
    kern = (make_kernel("power_law", alpha=2 * shape, n_max=n_max) if kind == "power_law"
            else make_kernel("geometric", q=shape, n_max=n_max))
    spec = DisorderSpec(family)
    try:
        est = quenched_critical_point_estimate(spec, kern, beta, n, tol, seed=seed)
    except BracketError as err:
        lo, hi = err.scanned
        assert (_crit_raw(spec, kern, beta, n, seed, lo) > 0
                or not _crit_raw(spec, kern, beta, n, seed, hi) > 0)
        return
    lo, hi = est.bracket
    assert annealed_critical_point(spec, beta) <= lo < hi <= lo + tol
    assert _crit_raw(spec, kern, beta, n, seed, lo) <= 0 < _crit_raw(spec, kern, beta,
                                                                      n, seed, hi)
    assert est.h_hat == 0.5 * (lo + hi)


def test_quenched_critical_point_respects_jensen():
    # F(beta, h) >= F(0, h) gives h_c(beta) <= 0; the scan kernel at n = 8000
    # used to put two of these five brackets above 0
    k = make_kernel("power_law", alpha=0.6, n_max=40)
    ests = [quenched_critical_point_estimate(DisorderSpec("gaussian"), k, 1.0,
                                             8000, 0.04, seed=s)
            for s in range(1, 6)]
    assert all(e.bracket[1] <= 0 for e in ests), [e.bracket for e in ests]
    mids = [e.h_hat for e in ests]
    assert max(mids) - min(mids) <= 0.1


def _raws_at_root(spec, kernel, beta, n, seed, h):
    # raw at h on each of the FE_ROWS fresh rows, one row at a time
    omegas = sample_disorder(spec, FE_ROWS * n, seed).reshape(FE_ROWS, n)
    return np.array([_raw(omega, kernel, beta, h, n) for omega in omegas])


def test_quenched_replica_spread_uses_raw():
    # the error bar at h_hat is taken over raw: f_hat is clamped at 0, so an
    # error bar of f_hat would hide every row that falls below 0 at h_hat
    k = make_kernel("power_law", alpha=1.0, n_max=8)
    spec = DisorderSpec("gaussian")
    est = quenched_critical_point_estimate(spec, k, 1.0, 2000, 0.02, seed=5)
    seed = derive_seed(5, "crit-rows")
    rows = _fresh_rows(spec, 2000, 1.0, [est.h_hat], seed)
    at_root = free_energy_estimate(pinned_recursions(np.concatenate(rows), k))
    raws = _raws_at_root(spec, k, 1.0, 2000, seed, est.h_hat)
    assert min(raws) < 0 < max(raws)
    assert (at_root.raw_mean, at_root.raw_se) == _mean_stderr(raws)
    assert at_root.raw_se != _mean_stderr(np.maximum(raws, 0.0))[1]
    assert at_root.f_hat == max(0.0, at_root.raw_mean) and at_root.rows == FE_ROWS


# ---------------------------------------------------------------------------
# the batched scaled engine against the log-domain loops it replaced

def _ref_lse(a):
    m = np.max(a)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(a - m))))


def _reference_log_zc(contact, kernel):
    """The per-site log-sum-exp recursion for one row of contact energies."""
    n = len(contact)
    log_k = kernel.log_weights
    log_zc = np.empty(n + 1)
    log_zc[0] = 0.0
    for m in range(1, n + 1):
        kmax = min(m, kernel.n_max)
        prev = log_zc[m - kmax : m][::-1]
        log_zc[m] = contact[m - 1] + _ref_lse(log_k[:kmax] + prev)
    return log_zc


def _reference_free(log_zc, kernel):
    """The per-site last-renewal loop for log Z_0..n."""
    log_tail = kernel.log_tail
    log_z = np.empty(len(log_zc))
    log_z[0] = 0.0
    for m in range(1, len(log_zc)):
        k_lo = max(0, m - kernel.n_max + 1)
        log_z[m] = _ref_lse(log_zc[k_lo : m + 1] + log_tail[: m - k_lo + 1][::-1])
    return log_z


def _kernel(kind, n_max, shape):
    if kind == "power_law":
        return make_kernel("power_law", alpha=2 * shape, n_max=n_max)
    if kind == "geometric":
        return make_kernel("geometric", q=shape, n_max=n_max)
    return make_kernel("dirac", step=n_max)


def _close_in_log(new, ref):
    # relative to |log z^c|, floored at 1 where the log itself is near 0
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(new), finite)
    assert np.array_equal(new[~finite], ref[~finite])
    err = np.abs(new[finite] - ref[finite]) / np.maximum(1.0, np.abs(ref[finite]))
    assert err.max(initial=0.0) <= 1e-11, err.max()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["power_law", "geometric", "dirac"]),
       n_max=st.integers(1, 12), shape=st.floats(0.05, 0.95),
       beta=st.floats(0.0, 400.0), h=st.floats(-1000.0, 1000.0),
       n=st.integers(0, 300), seed=st.integers(0, 2 ** 32 - 1))
# window values that fell subnormal: the fast path stored sum * exp(contact)
# below e^-700 with a sum in range, and the per-site rescue stored
# exp(contact) itself; the next block start scaled their lost bits up
@example(kind="dirac", n_max=5, shape=0.5, beta=211.0, h=-425.0, n=65, seed=188)
@example(kind="power_law", n_max=3, shape=0.5, beta=116.0, h=-762.0, n=65, seed=1)
@example(kind="dirac", n_max=7, shape=0.5, beta=362.0, h=0.0, n=70, seed=2446222008)
@example(kind="power_law", n_max=1, shape=0.5, beta=0.0, h=-732.0, n=65, seed=0)
def test_scaled_engine_matches_log_domain_loop(kind, n_max, shape, beta, h, n, seed):
    kern = _kernel(kind, n_max, shape)
    omega = np.random.default_rng(seed).normal(size=n)
    table = pinned_table(omega, kern, beta, h, n)
    ref = _reference_log_zc(beta * omega + h, kern)
    _close_in_log(table.log_zc, ref)


def test_scaled_engine_extreme_contacts():
    # contacts of +-1000 and alternating signs push every window far out of
    # the linear range; gapped kernels keep residue classes apart
    rng = np.random.default_rng(4)
    for kern in (make_kernel("power_law", alpha=0.6, n_max=40),
                 make_kernel("geometric", q=0.3, n_max=7),
                 make_kernel("dirac", step=3)):
        for contact in (np.full(200, -1000.0), np.full(200, 1000.0),
                        np.where(np.arange(200) % 2, 1000.0, -1000.0),
                        400.0 * rng.normal(size=200)):
            _close_in_log(sparsepin.pinning._log_zc_rows(contact[None, :], kern)[0],
                          _reference_log_zc(contact, kern))


def test_engine_rows_do_not_depend_on_their_batch(monkeypatch):
    calls = []
    engine = sparsepin.pinning._log_zc_rows

    def counting(contact, kernel):
        calls.append(len(contact))
        return engine(contact, kernel)

    monkeypatch.setattr(sparsepin.pinning, "_log_zc_rows", counting)
    rng = np.random.default_rng(8)
    for kern in (make_kernel("power_law", alpha=0.6, n_max=40),
                 make_kernel("geometric", q=0.5, n_max=5),
                 make_kernel("dirac", step=2)):
        omega = rng.normal(size=3000)
        hs = np.array([-2.2, -0.7, -0.05, 0.0, 0.3, 5.0, -1000.0])
        betas = np.array([1.0, 2.0, 0.5, 0.0, 1.0, 30.0, 1.0])
        contact = betas[:, None] * omega + hs[:, None]
        calls.clear()
        batch = [table.log_zc for table in pinned_recursions(contact, kern)]
        assert calls == [7] and batch[0].shape == (3001,)
        for b in range(7):
            assert np.array_equal(batch[b], pinned_recursions(contact[b : b + 1], kern)[0].log_zc)
            assert np.array_equal(batch[b],
                                  pinned_recursions(contact[[b, 6 - b]], kern)[0].log_zc)
        # every batch size from 1 to 40, 64 and 232 rows, from three offsets
        # into a pool of rows that mixes the same betas and h, over three
        # blocks: each row of each batch equals the row run alone
        pool = betas[np.arange(249) % 7, None] * rng.normal(size=(249, 130)) \
            + hs[np.arange(249) % 7, None]
        alone = [sparsepin.pinning._log_zc_rows(pool[b : b + 1], kern)[0] for b in range(249)]
        for rows in [*range(1, 41), 64, 232]:
            for offset in (0, 3, 17):
                out = sparsepin.pinning._log_zc_rows(pool[offset : offset + rows], kern)
                for b in range(rows):
                    assert np.array_equal(out[b], alone[offset + b]), (rows, offset, b)
    # a batch that a budget of 2^18 cells, rows * (n + 1 + n_max), would cut
    # into 13 + 4 rows is still one engine call
    calls.clear()
    tables = pinned_recursions(rng.normal(size=(17, 20000)) - 0.5,
                               make_kernel("power_law", alpha=0.6, n_max=8))
    assert calls == [17] and len(tables) == 17


@pytest.mark.parametrize("width", [40, 1151, 1152])
def test_engine_gemvs_stay_below_the_blas_threading_size(width):
    # OpenBLAS splits a gemv of 2304 * 4 entries or more (460800 in 0.3.31)
    # across threads, in shares of rows that need not be multiples of 4: a
    # row's sum then depends on its place in the batch.  The engine slices
    # its rows so that no gemv is that large: 224 rows at 40 sites, 8 at
    # 1151; from 1152 sites it sums on numpy's own loop.  424 rows at 1151
    # sites would be one gemv that 0.3.31 threads, and 3 or 4 BLAS threads
    # would split it into shares of 142 or 106 rows
    assert sparsepin.pinning._gemv_rows(width) == {40: 224, 1151: 8, 1152: 0}[width]
    kern = make_kernel("power_law", alpha=0.6, n_max=width)
    contact = np.random.default_rng(9).normal(size=(424, 130)) - 0.5
    out = sparsepin.pinning._log_zc_rows(contact, kern)
    for b in range(424):
        assert np.array_equal(out[b], sparsepin.pinning._log_zc_rows(contact[b : b + 1], kern)[0])
    for b in (0, 423):
        _close_in_log(out[b], _reference_log_zc(contact[b], kern))


def test_engine_rescues_at_block_edges(monkeypatch):
    # a contact of +1000 overflows exp(contact), so the next site's window
    # sum is inf and that row alone is rebuilt from its logs by one
    # log-sum-exp: a spike at site s rescues site s + 1, here the last site
    # of block 0, the first of block 1 and the last of block 1
    calls = []
    lse = sparsepin.pinning._lse

    def counting(a):
        calls.append(len(a))
        return lse(a)

    monkeypatch.setattr(sparsepin.pinning, "_lse", counting)
    block = sparsepin.pinning._BLOCK
    kern = make_kernel("power_law", alpha=0.6, n_max=40)
    rng = np.random.default_rng(6)
    for site in (block - 1, block, 2 * block - 1):
        contact = 0.3 * rng.normal(size=(3, 3 * block)) - 0.2
        contact[1, site - 1] = 1000.0
        calls.clear()
        out = sparsepin.pinning._log_zc_rows(contact, kern)
        assert calls == [kern.n_max]
        for b in range(3):
            _close_in_log(out[b], _reference_log_zc(contact[b], kern))
            assert np.array_equal(out[b],
                                  sparsepin.pinning._log_zc_rows(contact[b : b + 1], kern)[0])


@pytest.mark.parametrize("step", [2, 3])
def test_gap_sites_of_a_dirac_kernel_take_no_rescue(monkeypatch, step):
    # z^c = 0 at every site that is not a multiple of the step: that is
    # exact, not an underflow, so no row of any block is rebuilt from its logs
    calls = []
    lse = sparsepin.pinning._lse

    def counting(a):
        calls.append(len(a))
        return lse(a)

    monkeypatch.setattr(sparsepin.pinning, "_lse", counting)
    kern = make_kernel("dirac", step=step)
    contact = 0.8 * np.random.default_rng(step).normal(size=(8, 3 * step * 64 + 5)) - 0.3
    out = sparsepin.pinning._log_zc_rows(contact, kern)
    assert calls == []
    for b in range(8):
        _close_in_log(out[b], _reference_log_zc(contact[b], kern))
        assert np.all(np.isneginf(out[b][np.arange(contact.shape[1] + 1) % step != 0]))


@pytest.mark.parametrize("rows", [1, 5, 9, 33])
def test_engine_mixes_rescued_and_clean_rows(rows):
    # rows at h = -1000 take a rescue at every site once z_0 leaves their
    # window; the dirac kernel's gap sites sit in every block
    block = sparsepin.pinning._BLOCK
    rng = np.random.default_rng(rows)
    for kern in (make_kernel("power_law", alpha=0.6, n_max=40), make_kernel("dirac", step=3)):
        for n in (block - 1, block, block + 1, 3 * block + 7):
            contact = 0.8 * rng.normal(size=(rows, n)) - 0.3
            contact[::3] -= 1000.0
            out = sparsepin.pinning._log_zc_rows(contact, kern)
            for b in range(rows):
                _close_in_log(out[b], _reference_log_zc(contact[b], kern))
                assert np.array_equal(
                    out[b], sparsepin.pinning._log_zc_rows(contact[b : b + 1], kern)[0])


def test_engine_memory_is_one_output_table():
    # the site-major window is O((n_max + block) * rows) beside the output
    kern = make_kernel("power_law", alpha=0.6, n_max=40)
    contact = np.random.default_rng(3).normal(size=(32, 8000)) - 0.3
    tracemalloc.start()
    try:
        out = sparsepin.pinning._log_zc_rows(contact, kern)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (32, 8001)
    assert peak <= 1.25 * out.nbytes + 2 ** 20, peak / out.nbytes


def test_vectorised_free_column_matches_loop():
    rng = np.random.default_rng(10)
    for kern, n in ((make_kernel("power_law", alpha=0.8, n_max=8), 10000),
                    (make_kernel("power_law", alpha=1.0, n_max=400), 200),
                    (make_kernel("geometric", q=0.4, n_max=30), 5000),
                    (make_kernel("dirac", step=3), 1000)):
        omega = rng.normal(size=n)
        table = pinned_table(omega, kern, 0.7, -0.3, n)
        ref = _reference_free(table.log_zc, kern)
        assert np.array_equal(np.isfinite(table.log_z), np.isfinite(ref))
        err = np.abs(table.log_z - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-12


def _sequential_bisection(spec, kernel, beta, n, tol, seed):
    """The one-h-at-a-time plain bisection: its bracket holds the same root
    as the convex search's."""
    omega = sample_disorder(spec, n, derive_seed(seed, "crit-omega", 0))

    def raw(h):
        return _raw(omega, kernel, beta, h, n)

    lo = annealed_critical_point(spec, beta)
    trail = [(lo, raw(lo))]
    hi = CRIT_H_HI
    while True:
        trail.append((hi, raw(hi)))
        if trail[-1][1] > 0:
            break
        hi += 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        trail.append((mid, raw(mid)))
        if trail[-1][1] > 0:
            hi = mid
        else:
            lo = mid
    return (lo, hi), trail


@pytest.mark.parametrize("beta,n,tol,seed", [
    (1.0, 2000, 0.04, 1), (1.0, 2000, 0.001, 2), (0.0, 1500, 0.02, 3),
    (2.0, 3000, 0.3, 4), (0.5, 800, 1e-6, 5), (1.5, 500, 2.5, 6)])
def test_multisection_bracket_equals_sequential_bisection(beta, n, tol, seed):
    # the convex bracket and plain bisection's both hold the draw's root, so
    # they overlap; every raw the search holds is the one-row raw at its h
    k = make_kernel("power_law", alpha=0.6, n_max=40)
    spec = DisorderSpec("gaussian")
    est = quenched_critical_point_estimate(spec, k, beta, n, tol, seed=seed)
    bracket, _ = _sequential_bisection(spec, k, beta, n, tol, seed)
    _assert_search_holds_its_root(spec, k, beta, n, tol, seed, est)
    lo, hi = est.bracket
    assert max(lo, bracket[0]) <= min(hi, bracket[1])
    ann = annealed_critical_point(spec, beta)
    first = [ann, CRIT_H_HI] + _midpoints(ann, CRIT_H_HI, tol)
    assert [h for h, _ in est.trail[: len(first)]] == first


def _sign_bracket(trail):
    # the evaluated points next to the sign change of a trail's raws
    a = max(h for h, raw in trail if not raw > 0)
    b = min(h for h, raw in trail if raw > 0)
    return a, b


def _assert_search_holds_its_root(spec, kernel, beta, n, tol, seed, est):
    # the estimate's ends, derived from its trail, hold the root of raw on
    # the search's own draw, within tol, inside the trail's sign bracket
    omega = sample_disorder(spec, n, derive_seed(seed, "crit-omega", 0))
    assert est.trail == [(h, _raw(omega, kernel, beta, h, n)) for h, _ in est.trail]
    lo, hi = est.bracket
    a, b = _sign_bracket(est.trail)
    assert annealed_critical_point(spec, beta) <= a <= lo < hi <= b
    assert hi - lo <= tol and est.h_hat == 0.5 * (lo + hi)
    assert est.bracket == _convex_bracket(dict(est.trail))
    assert _raw(omega, kernel, beta, lo, n) <= 0 < _raw(omega, kernel, beta, hi, n)


def test_replica_spread_is_one_batch_of_sequential_raws(monkeypatch):
    # the FE_ROWS rows at h_hat run in one engine call and give raws equal
    # to those of one row at a time
    calls = []
    engine = sparsepin.pinning._log_zc_rows

    def counting(contact, kernel):
        calls.append(contact.shape)
        return engine(contact, kernel)

    k = make_kernel("power_law", alpha=1.0, n_max=8)
    spec = DisorderSpec("gaussian")
    est = quenched_critical_point_estimate(spec, k, 1.0, 1000, 0.05, seed=9)
    seed = derive_seed(9, "crit-rows")
    monkeypatch.setattr(sparsepin.pinning, "_log_zc_rows", counting)
    tables = pinned_recursions(np.concatenate(_fresh_rows(spec, 1000, 1.0, [est.h_hat],
                                                          seed)), k)
    assert calls == [(FE_ROWS, 1000)]
    raws = _raws_at_root(spec, k, 1.0, 1000, seed, est.h_hat)
    assert np.array_equal([t.log_zc[1000] / 1000 for t in tables], raws)
    assert free_energy_estimate(tables) == free_energy_estimate(
        [pinned_table(omega, k, 1.0, est.h_hat, 1000)
         for omega in sample_disorder(spec, FE_ROWS * 1000, seed).reshape(FE_ROWS, 1000)])


def test_lockstep_searches_match_one_search_at_a_time():
    # at n = 10, seed 23 is already localized on the annealed curve at
    # beta = 1, and beta = 2, seed 1 has raw(CRIT_H_HI) <= 0, so its
    # speculative first-pass midpoints all lie below its root
    k = make_kernel("power_law", alpha=1.0, n_max=4)
    spec = DisorderSpec("gaussian")
    n, tol = 10, 1e-4
    assert not _crit_raw(spec, k, 2.0, n, 1, CRIT_H_HI) > 0
    searches = [(0.5, 0), (1.0, 23), (2.0, 1), (1.0, 0), (0.5, 4)]
    lockstep = quenched_critical_point_estimates(spec, k, searches, n, tol)
    assert [isinstance(est, BracketError) for est in lockstep] == [False, True, False,
                                                                   False, False]
    for (beta, seed), est in zip(searches, lockstep, strict=True):
        try:
            alone = quenched_critical_point_estimate(spec, k, beta, n, tol, seed=seed)
        except BracketError as err:
            assert str(est) == str(err) and est.scanned == err.scanned
            assert (est.trail, est.passes) == (err.trail, err.passes)
            # the error keeps its whole first pass, the one request it made
            lo = annealed_critical_point(spec, beta)
            first = [lo, CRIT_H_HI] + _midpoints(lo, CRIT_H_HI, tol)
            assert len(first) == 9 and est.passes == 1
            assert est.trail == [(h, _crit_raw(spec, k, beta, n, seed, h)) for h in first]
            continue
        assert est == alone
        _assert_search_holds_its_root(spec, k, beta, n, tol, seed, est)
        bracket, _ = _sequential_bisection(spec, k, beta, n, tol, seed)
        assert max(est.bracket[0], bracket[0]) <= min(est.bracket[1], bracket[1])
    assert lockstep[2].trail[1] == (CRIT_H_HI, _crit_raw(spec, k, 2.0, n, 1, CRIT_H_HI))
    # its next upper end, a pass of its own, follows its first pass's points
    first = 2 + len(_midpoints(annealed_critical_point(spec, 2.0), CRIT_H_HI, tol))
    assert lockstep[2].trail[first][0] == CRIT_H_HI + 0.5 and lockstep[2].trail[first][1] > 0


def _drive(search, raw):
    """Answer each request of a search with raw at its h; (requests, result)."""
    requests = [next(search)]
    try:
        while True:
            requests.append(search.send([raw(h) for h in requests[-1]]))
    except StopIteration as stop:
        return requests, stop.value


def test_search_asks_for_each_higher_upper_end_alone():
    # raw(h) = h - 1 has its root at 1, so CRIT_H_HI = 0.25 and 0.75 fail
    # and 1.25 wins; the first request holds lo, CRIT_H_HI and the three
    # levels of midpoints below it, and each higher end is a request of its
    # own.  A line is its own chord and secant: the bracket is the root
    # widened by the margin, and no midpoint is asked for
    requests, est = _drive(_bisection(-1.0, 0.01), lambda h: h - 1.0)
    mids = _midpoints(-1.0, CRIT_H_HI, 0.01)
    assert requests[0] == [-1.0, CRIT_H_HI] + mids and len(mids) == 7
    assert requests[1:] == [[CRIT_H_HI + 0.5], [CRIT_H_HI + 1.0]]
    assert est.trail == [(h, h - 1.0) for request in requests for h in request]
    assert est.passes == 3
    assert est.bracket == (1.0 - _margin(1.0), 1.0 + _margin(1.0))


@pytest.mark.parametrize("lo,tol,raw,outcome,passes", [
    # raw(lo) > 0 at the annealed end
    (-1.0, 0.01, lambda h: h + 2.0, "already localized at the annealed critical point", 1),
    # no raw > 0 up to the last upper end, 2.25
    (-1.0, 0.01, lambda h: -1.0, "no localized phase found", 5),
    # the root lies below -2^48, where floats at tol = 0.04 are sparse
    (-1e20, 0.04, lambda h: h + 1e19, "the sign change lies where floats are more than tol", 1),
    # a bracket narrowed to adjacent floats, still wider than tol
    (-1.0, 1e-16, lambda h: h - 0.6, "no float lies between the bracket's ends", 10),
    # a bracket no wider than tol
    (-1.0, 0.01, lambda h: h - 1.0, None, 3),
])
def test_every_outcome_carries_every_answered_pair(lo, tol, raw, outcome, passes):
    # estimates and errors alike: the trail is every answered (h, raw), in
    # the order asked for, and passes counts the requests
    requests, result = _drive(_bisection(lo, tol), raw)
    assert result.trail == [(h, raw(h)) for request in requests for h in request]
    assert result.passes == len(requests) == passes
    if outcome is None:
        assert isinstance(result, CriticalPointEstimate)
    else:
        assert isinstance(result, BracketError) and str(result).startswith(outcome)


# forced convex raws: f, its chord slope between two points, and its root
_FAMILIES = {
    "quadratic": lambda c: (lambda h: (h + 1.0) ** 2 - c, lambda x, y: x + y + 2.0,
                            math.sqrt(c) - 1.0),
    "exponential": lambda c: (lambda h: math.exp(h) - c,
                              lambda x, y: (math.exp(y) - math.exp(x)) / (y - x), math.log(c)),
}


def _closed_form_bracket(f, slope, trail):
    """The convex bracket of the points of a trail, from f's own chord
    slopes: (lower, upper, the secants it used)."""
    hs = sorted(h for h, _ in trail)
    j = next(i for i, h in enumerate(hs) if f(h) > 0)
    a, b = hs[j - 1], hs[j]
    chord = a - f(a) / slope(a, b)
    roots, used = [b], []
    if j >= 2 and slope(hs[j - 2], a) > 0:
        roots.append(a - f(a) / slope(hs[j - 2], a))
        used.append("left")
    if j + 1 < len(hs) and slope(b, hs[j + 1]) > 0:
        roots.append(b - f(b) / slope(b, hs[j + 1]))
        used.append("right")
    upper = min(roots)
    return max(a, chord - _margin(chord)), min(b, upper + _margin(upper)), used


@pytest.mark.parametrize("family,c,lo,tol,secants", [
    ("quadratic", 1.21, -0.5, 0.01, ["left", "right"]),
    ("quadratic", 1.44, -0.5, 0.05, ["left"]),
    ("exponential", 0.6, -1.0, 0.01, ["left", "right"]),
    ("exponential", 0.4, -1.0, 0.05, ["right"])])
def test_first_pass_ends_are_the_chord_and_secant_roots(family, c, lo, tol, secants):
    # raws of a convex f: the first pass (lo, CRIT_H_HI, seven midpoints)
    # brackets the root to tol.  The lower end is the chord's root and the
    # upper end the least secant root, each widened by the margin; where the
    # root lies next to lo or to CRIT_H_HI, only one secant exists
    f, slope, root = _FAMILIES[family](c)
    requests, est = _drive(_bisection(lo, tol), f)
    assert requests == [[lo, CRIT_H_HI] + _midpoints(lo, CRIT_H_HI, tol)] and est.passes == 1
    *ends, used = _closed_form_bracket(f, slope, est.trail)
    assert used == secants
    assert est.bracket == pytest.approx(ends, abs=1e-14, rel=0)
    lower, upper = est.bracket
    assert lower < root < upper and upper - lower <= tol
    margin = _margin(root)
    assert est.bracket[0] < ends[0] + margin / 2 and est.bracket[1] > ends[1] - margin / 2


@pytest.mark.parametrize("family,c", [("quadratic", 1.21), ("exponential", 1.1)])
def test_later_passes_ask_for_the_convex_brackets_new_midpoints(family, c):
    # at tol = 1e-9 the search needs more passes; each asks for the
    # midpoints of the bracket its raws so far give that it does not hold,
    # and the last bracket is the closed-form one of all its raws
    f, slope, root = _FAMILIES[family](c)
    tol = 1e-9
    requests, est = _drive(_bisection(-0.5, tol), f)
    assert len(requests) == est.passes > 1
    assert est.trail == [(h, f(h)) for request in requests for h in request]
    held = dict(est.trail[: len(requests[0])])
    for request in requests[1:]:
        mids = dict.fromkeys(_midpoints(*_convex_bracket(held), tol))
        assert request == [h for h in mids if h not in held]
        held.update((h, f(h)) for h in request)
    *ends, _ = _closed_form_bracket(f, slope, est.trail)
    assert est.bracket == pytest.approx(ends, abs=1e-14, rel=0)
    assert est.bracket[0] < root < est.bracket[1] and est.bracket[1] - est.bracket[0] <= tol


def test_search_skips_the_sparse_probe_where_no_floats_are_sparse():
    # below -2^(52 + e), with 2^(e - 1) <= tol < 2^e, adjacent floats lie
    # more than tol apart; from tol = 2^971 no two do, and that bound would
    # overflow: the first request holds no probe, and the search runs on
    lo = -1.5e308
    first = next(_bisection(lo, 2.0 ** 970))
    assert first == [lo, CRIT_H_HI] + _midpoints(lo, CRIT_H_HI, 2.0 ** 970) + [-(2.0 ** 1023)]
    assert all(map(math.isfinite, first))
    for tol in (2.0 ** 971, 1e308, sys.float_info.max):
        requests, est = _drive(_bisection(lo, tol), lambda h: h)
        assert requests == [[lo, CRIT_H_HI] + _midpoints(lo, CRIT_H_HI, tol)]
        assert est.passes == 1
        assert lo <= est.bracket[0] < 0 < est.bracket[1] <= CRIT_H_HI


def test_raws_that_overflow_keep_the_bracket_around_the_root():
    # at beta 1.7e154 and tol 1e308 (no sparse probe) raw at the annealed
    # point, about -1.4e308, overflows to -inf: the secant through it has an
    # infinite slope and gives no upper end, and the chord's root, measured
    # from h = 0.25, keeps the distance of about 2e155 below it
    k = make_kernel("power_law", alpha=0.6, n_max=40)
    spec = DisorderSpec("gaussian")
    est = quenched_critical_point_estimate(spec, k, 1.7e154, 50, 1e308, seed=1)
    assert est.trail[0] == (annealed_critical_point(spec, 1.7e154), -math.inf)
    assert est.passes == 1 and all(map(math.isfinite, (h for h, _ in est.trail)))
    lo, hi = est.bracket
    assert lo < hi and -1e160 < lo < -1e150
    assert _crit_raw(spec, k, 1.7e154, 50, 1, lo) <= 0 < _crit_raw(spec, k, 1.7e154, 50, 1, hi)


def test_bracket_of_adjacent_floats_wider_than_tol_ends_the_search():
    # tol = 1e-16 is below the float spacing near this root (about 0.59), so
    # the bracket narrows to two adjacent floats and can narrow no further
    k = make_kernel("power_law", alpha=1.0, n_max=4)
    spec = DisorderSpec("gaussian")
    (err,) = quenched_critical_point_estimates(spec, k, [(2.0, 1)], 10, 1e-16)
    assert isinstance(err, BracketError)
    assert str(err).startswith("no float lies between the bracket's ends")
    lo, hi = err.scanned
    assert math.nextafter(lo, math.inf) == hi and hi - lo > 1e-16
    # narrower than the margin, the bracket is the trail's sign bracket, two
    # evaluated points; the trail holds every raw the search bought
    assert (lo, hi) == _sign_bracket(err.trail) and err.trail[-1][0] in (lo, hi)
    omega = sample_disorder(spec, 10, derive_seed(1, "crit-omega", 0))
    assert err.trail == [(h, _raw(omega, k, 2.0, h, 10)) for h, _ in err.trail]
    assert len({h for h, _ in err.trail}) == len(err.trail) and err.passes > 2
    with pytest.raises(BracketError) as alone:
        quenched_critical_point_estimate(spec, k, 2.0, 10, 1e-16, seed=1)
    assert str(alone.value) == str(err)
    assert (alone.value.trail, alone.value.passes) == (err.trail, err.passes)


def test_default_scan_makes_one_engine_call_at_n_fe_and_one_at_n_gc(monkeypatch):
    calls = []
    engine = sparsepin.pinning._log_zc_rows

    def counting(contact, kernel):
        calls.append(contact.shape)
        return engine(contact, kernel)

    monkeypatch.setattr(sparsepin.pinning, "_log_zc_rows", counting)
    # the CLI defaults of scan
    cfg = ScanConfig(kernel=make_kernel("power_law", alpha=0.6, n_max=40),
                     disorder=DisorderSpec("gaussian"), n_fe=8000, crit_tol=0.04,
                     n_gc=3000, seed=1)
    report = regime_scan([0.0, 1.0, 2.0], [-2.2, -1.4, -1.2, -0.35, -0.05], cfg)
    assert [c["bracket"] is not None for c in report.critical] == [False, True, True]
    assert [c["passes"] for c in report.critical] == [0, 1, 1]
    # the first pass: lo, CRIT_H_HI and seven midpoints for each of the two
    # searches, and no higher upper end; its raws bracket both roots to tol
    assert calls[0] == (18, 8000)
    assert [n for _, n in calls] == [8000, 3000]


def test_scan_with_no_case_1_or_2_point_makes_no_empty_engine_call(monkeypatch):
    # at beta = 1e150 the search ends at its first pass with a bracket error,
    # so both points are unresolved and the n_gc pass has no row to run
    shapes = []
    engine = sparsepin.pinning._log_zc_rows

    def recording(contact, kernel):
        shapes.append(contact.shape)
        return engine(contact, kernel)

    monkeypatch.setattr(sparsepin.pinning, "_log_zc_rows", recording)
    cfg = ScanConfig(kernel=make_kernel("power_law", alpha=0.6, n_max=40),
                     disorder=DisorderSpec("gaussian"), n_fe=300, n_gc=200, seed=1)
    report = regime_scan([1e150], [-1.0, -0.5], cfg)
    assert [p.case for p in report.points] == ["unresolved", "unresolved"]
    assert shapes and all(rows > 0 for rows, _ in shapes)
    assert [n for _, n in shapes] == [300] * len(shapes)


def test_mean_stderr_of_a_known_sample():
    # the standard error of the mean takes the n - 1 sample variance
    mean, stderr = _mean_stderr(np.array([1.0, 2.0, 3.0, 4.0]))
    assert mean == 2.5
    assert stderr == pytest.approx(math.sqrt(5 / 12), rel=1e-12)


def test_tail_verdict_converges_at_a_slope_above_its_tolerance():
    # a geometric series of slope -5e-3 lies 5x beyond GC_SLOPE_TOL = 1e-3
    slope, verdict, bound = sparsepin.pinning._tail_verdict(-5e-3 * np.arange(400), 100)
    assert slope == pytest.approx(-5e-3)
    assert verdict == "converged" and bound > 0


def test_tail_bound_covers_the_true_tail_of_noisy_geometric_series():
    # 200 series log t_n = -3e-3 n + 0.1 N(0, 1), seed 7: the bound from the
    # first 400 terms (slope fit over the last 100) must cover the sum of
    # terms 400 onwards, run out to 20,400 terms (e^-60 beyond), in at
    # least 95% of them.  The slope's noise term widens the ratio; without
    # it a slope fit that comes out steep undercuts the tail about half
    # the time
    rng = np.random.default_rng(7)
    n = np.arange(20400)
    log_terms = -3e-3 * n + 0.1 * rng.standard_normal((200, len(n)))
    covered = 0
    for row in log_terms:
        _, verdict, bound = sparsepin.pinning._tail_verdict(row[:400], 100)
        covered += verdict == "converged" and bound >= math.fsum(np.exp(row[400:]))
    assert covered >= 0.95 * len(log_terms)

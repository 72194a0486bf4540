"""Exact walk formulas and their Monte Carlo counterparts."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsepin.walk
from sparsepin import (DisorderSpec, Potential, SparseEnvironment, StepBudgetError,
                       WalkParams, build_potential, expected_visits_exact,
                       make_kernel, ruin_prob, sample_environment,
                       scale_values, simulate_visit_counts, step_prob)
from sparsepin._rng import rng_for
from sparsepin.walk import _mean_stderr


def flat(m):
    return Potential(values=np.zeros(m + 1))


def drifted(f, m):
    return Potential(values=-f * np.arange(m + 1.0))


def fast(m):
    """Steeply downhill: every up-probability is exactly 1, one visit each."""
    return Potential(values=-800.0 * np.arange(m + 1.0))


def trap(m):
    """Steeply uphill: every up-probability is exactly 0, never absorbed."""
    return Potential(values=800.0 * np.arange(m + 1.0))


# ---------------------------------------------------------------------------
# potential construction

def test_build_potential_flat_and_drift():
    k = make_kernel("power_law", alpha=1.0, n_max=4)
    env = sample_environment(k, DisorderSpec("gaussian"), 30, seed=1)
    v0 = build_potential(env, WalkParams())
    assert np.all(v0.values == 0.0)
    vf = build_potential(env, WalkParams(f=0.5))
    assert vf.values == pytest.approx(-0.5 * np.arange(31), abs=1e-12)


def test_build_potential_contact_example():
    env = SparseEnvironment(horizon=3, tau=np.array([0, 2]),
                            omega=np.array([0.0, 2.0, 0.0]))
    pot = build_potential(env, WalkParams(beta=1.0, h=-1.0, f=0.0))
    assert pot.values == pytest.approx([0.0, 0.0, 1.0, 1.0], abs=1e-14)


def test_build_potential_non_contact_increments():
    k = make_kernel("power_law", alpha=0.8, n_max=5)
    env = sample_environment(k, DisorderSpec("gaussian"), 200, seed=3)
    params = WalkParams(beta=0.7, h=-0.4, f=0.31)
    pot = build_potential(env, params)
    dv = pot.increments()
    mask = np.ones(200, dtype=bool)
    mask[env.tau[env.tau >= 1] - 1] = False
    assert dv[mask] == pytest.approx(-0.31, abs=1e-12)
    assert pot.values[0] == 0.0


def test_walk_params_validation():
    with pytest.raises(ValueError):
        WalkParams(beta=-0.1)
    for bad in (dict(f=math.nan), dict(h=-math.inf), dict(beta=math.inf)):
        with pytest.raises(ValueError):
            WalkParams(**bad)


def test_integer_params_match_float_params():
    k = make_kernel("power_law", alpha=1.0, n_max=4)
    spec = DisorderSpec("gaussian")
    env = sample_environment(k, spec, 40, seed=2)
    ints, floats = WalkParams(beta=1, h=-1, f=0), WalkParams(beta=1.0, h=-1.0, f=0.0)
    assert np.array_equal(build_potential(env, ints).values,
                          build_potential(env, floats).values)


# ---------------------------------------------------------------------------
# exact formulas

def test_step_prob_values():
    assert step_prob(0.0) == 0.5
    assert step_prob(1.0) == pytest.approx(1.0 / (1.0 + math.e), rel=1e-15)
    assert step_prob(-1.0) == pytest.approx(1.0 - step_prob(1.0), abs=1e-16)


def test_step_prob_complement_within_one_ulp():
    rng = np.random.default_rng(0)
    xs = np.concatenate([rng.uniform(-5, 5, 200), [50.0, -50.0, 500.0, -500.0, 745.0]])
    for x in xs:
        s = step_prob(float(x)) + step_prob(float(-x))
        assert abs(s - 1.0) <= 2.3e-16
        assert 0.0 <= step_prob(float(x)) <= 1.0
    # strictly inside (0,1) wherever that is representable in float64
    for x in rng.uniform(-30, 30, 200):
        assert 0.0 < step_prob(float(x)) < 1.0


def test_scale_values():
    assert scale_values(flat(20), 10) == 10.0
    assert scale_values(flat(20), 0) == 0.0
    f = 0.37
    pot = drifted(f, 40)
    for n in (1, 7, 40):
        assert scale_values(pot, n) == pytest.approx((1 - math.exp(-f * n)) / (1 - math.exp(-f)), rel=1e-12)
    with pytest.raises(ValueError):
        scale_values(pot, 42)
    # strictly increasing with increments exp(V_n)
    rng = np.random.default_rng(4)
    pot2 = Potential(values=np.concatenate([[0.0], rng.uniform(-3, 3, 15)]))
    for n in range(16):
        assert scale_values(pot2, n + 1) - scale_values(pot2, n) == pytest.approx(
            math.exp(pot2.values[n]), rel=1e-12)


def _ruin_linear_system(pot, a, b, c):
    """Independent oracle: solve the harmonic system directly."""
    dv = pot.increments()
    interior = list(range(a + 1, c))
    m = len(interior)
    mat = np.zeros((m, m))
    rhs = np.zeros(m)
    for row, i in enumerate(interior):
        p = step_prob(float(dv[i - 1]))
        mat[row, row] = 1.0
        if row + 1 < m:
            mat[row, row + 1] = -p
        else:
            rhs[row] += p
        if row - 1 >= 0:
            mat[row, row - 1] = -(1.0 - p)
    sol = np.linalg.solve(mat, rhs)
    return float(sol[b - (a + 1)])


def test_ruin_prob_flat_and_boundary():
    pot = flat(30)
    assert ruin_prob(pot, 0, 1, 25) == pytest.approx(1.0 / 25.0, rel=1e-12)
    assert ruin_prob(pot, 3, 9, 9) == 1.0
    with pytest.raises(ValueError):
        ruin_prob(pot, 5, 5, 9)
    with pytest.raises(ValueError):
        ruin_prob(pot, 0, 1, 99)


def test_ruin_prob_matches_linear_system():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = int(rng.integers(3, 11))
        pot = Potential(values=np.concatenate([[0.0], rng.uniform(-2, 2, m)]))
        a = int(rng.integers(0, m - 1))
        c = int(rng.integers(a + 2, m + 2))
        b = int(rng.integers(a + 1, c))
        assert abs(ruin_prob(pot, a, b, c) - _ruin_linear_system(pot, a, b, c)) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=12),
       data=st.data())
def test_ruin_prob_matches_linear_system_property(values, data):
    pot = Potential(values=np.array([0.0, *values]))
    m = len(values)
    a = data.draw(st.integers(0, m - 1))
    c = data.draw(st.integers(a + 2, m + 1))
    b = data.draw(st.integers(a + 1, c - 1))
    assert ruin_prob(pot, a, b, c) == pytest.approx(_ruin_linear_system(pot, a, b, c),
                                                   rel=1e-10, abs=1e-12)


def test_ruin_prob_extreme_potential_is_finite():
    pot = Potential(values=np.array([0.0, 400.0, 800.0, 400.0, 0.0]))
    p = ruin_prob(pot, 0, 2, 4)
    assert 0.0 < p <= 1.0


def test_expected_visits_exact():
    assert expected_visits_exact(flat(20), 10) == 10.0
    assert expected_visits_exact(flat(20), 1) == 1.0
    pot = drifted(0.3, 200)
    limit = 1.0 / (1.0 - math.exp(-0.3))
    vals = [expected_visits_exact(pot, r) for r in (5, 10, 20, 40)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < limit for v in vals)
    assert expected_visits_exact(pot, 200) == pytest.approx(limit, rel=1e-12)
    with pytest.raises(ValueError):
        expected_visits_exact(pot, 0)
    with pytest.raises(ValueError):
        expected_visits_exact(pot, 202)


# ---------------------------------------------------------------------------
# Monte Carlo

def visits_mean_stderr(pot, r, replicas, seed):
    return _mean_stderr(simulate_visit_counts([pot], r, replicas, seed)[0])


def test_simulate_visits_deterministic_and_positive():
    pot = drifted(math.log(3.0), 30)
    a = simulate_visit_counts([pot], 30, 1, seed=11)
    assert a.shape == (1, 1) and a[0, 0] >= 1
    assert np.array_equal(a, simulate_visit_counts([pot], 30, 1, seed=11))


def test_mc_visits_flat_oracle():
    mean, se = visits_mean_stderr(flat(20), 10, 100000, seed=3)
    assert abs(mean - 10.0) <= 3 * se


def test_mc_visits_drift_oracle():
    pot = drifted(math.log(3.0), 40)
    exact = expected_visits_exact(pot, 30)
    assert exact == pytest.approx(1.5, abs=1e-9)
    mean, se = visits_mean_stderr(pot, 30, 100000, seed=4)
    assert abs(mean - exact) <= 3 * se


def test_mc_visits_deterministic_pair():
    pot = drifted(0.3, 20)
    assert (visits_mean_stderr(pot, 15, 2, seed=8)
            == visits_mean_stderr(pot, 15, 2, seed=8))
    # one replica has a mean but no standard error
    mean, se = visits_mean_stderr(pot, 15, 1, seed=8)
    assert mean >= 1 and math.isnan(se)


def test_visit_counts_geometric_mean_and_variance():
    k = make_kernel("power_law", alpha=1.0, n_max=3)
    env = sample_environment(k, DisorderSpec("gaussian"), 40, seed=21)
    pot = build_potential(env, WalkParams(beta=0.5, h=-0.6, f=0.15))
    r = 35
    w = expected_visits_exact(pot, r)
    counts = simulate_visit_counts([pot], r, 50000, seed=22)[0].astype(float)
    n = len(counts)
    mean, var = counts.mean(), counts.var(ddof=1)
    se_mean = counts.std(ddof=1) / math.sqrt(n)
    assert abs(mean - w) <= 3 * se_mean
    # geometric(success 1/W): variance W^2 - W; stderr of the sample variance
    # from the fourth central moment
    target_var = w * w - w
    m4 = np.mean((counts - mean) ** 4)
    se_var = math.sqrt(max(m4 - var ** 2, 0.0) / n)
    assert abs(var - target_var) <= 3 * se_var


def test_same_seed_repeats_across_chunks():
    # 30000 replicas span four 8192-replica chunks, each on its own substream
    pot = drifted(0.25, 60)
    assert (visits_mean_stderr(pot, 50, 30000, seed=5)
            == visits_mean_stderr(pot, 50, 30000, seed=5))
    c1 = simulate_visit_counts([pot], 50, 30000, seed=5)[0]
    assert np.array_equal(c1, simulate_visit_counts([pot], 50, 30000, seed=5)[0])
    assert not np.array_equal(c1[:8192], c1[8192:16384])


def _reference_visit_counts(potential, r, replicas, seed):
    """Per-potential one-step walker loop: chunks of 8192, sweeps of 32 steps."""
    counts = np.ones(replicas, dtype=np.int64)
    if r == 1:
        return counts
    pad = np.full(r + 34, 9.0)
    pad[1:r] = step_prob(potential.increments()[: r - 1])
    for c, start in enumerate(range(0, replicas, 8192)):
        rng = rng_for(seed, "visits", c)
        size = min(8192, replicas - start)
        pos = np.zeros(size, dtype=np.int64)
        visits = np.ones(size, dtype=np.int64)
        idx = np.arange(start, start + size)
        u = np.empty(size)
        while len(pos):
            n = len(pos)
            for _ in range(32):
                rng.random(out=u[:n])
                pos += np.where(u[:n] < pad[pos], 1, -1)
                visits += pos == 0
            absorbed = pos >= r
            counts[idx[absorbed]] = visits[absorbed]
            pos, visits, idx = pos[~absorbed], visits[~absorbed], idx[~absorbed]
    return counts


def _two_step_reference_counts(potential, r, replicas, seed):
    """Per-potential two-step loop on sites: one uniform per step pair,
    chunks of 8192, sweeps of 16 pairs."""
    counts = np.ones(replicas, dtype=np.int64)
    if r == 1:
        return counts
    p = np.ones(r + 40)
    p[1:r] = step_prob(potential.increments()[: r - 1])
    q = 1.0 - p
    for c, start in enumerate(range(0, replicas, 8192)):
        rng = rng_for(seed, "visits", c)
        size = min(8192, replicas - start)
        pos = np.zeros(size, dtype=np.int64)
        visits = np.ones(size, dtype=np.int64)
        idx = np.arange(start, start + size)
        while len(pos):
            for _ in range(16):
                u = rng.random(len(pos))
                # q[-1] at site 0 reads a sentinel; q_0 = 0 decides anyway
                down_down = u < q[pos] * q[pos - 1]
                up_up = u >= 1.0 - p[pos] * p[pos + 1]
                pos += 2 * up_up - 2 * down_down
                visits += pos == 0
            absorbed = pos >= r
            counts[idx[absorbed]] = visits[absorbed]
            pos, visits, idx = pos[~absorbed], visits[~absorbed], idx[~absorbed]
    return counts


@pytest.mark.parametrize("replicas", [1, 8191, 8192, 20000])
@pytest.mark.parametrize("r", [1, 2, 3, 30])
def test_batch_of_one_matches_per_potential_walk(replicas, r):
    pot = drifted(0.3, 40)
    batch = simulate_visit_counts([pot], r, replicas, seed=12)
    assert batch.shape == (1, replicas)
    assert np.array_equal(batch[0], _two_step_reference_counts(pot, r, replicas, seed=12))


def _chi2_sf(stat, dof):
    """P(chi^2_dof >= stat), from the series of the lower regularized gamma."""
    a, x = dof / 2.0, stat / 2.0
    term = total = 1.0 / a
    k = 0
    while term > 1e-17 * total:
        k += 1
        term *= x / (a + k)
        total += term
    return 1.0 - total * math.exp(a * math.log(x) - x - math.lgamma(a))


def _geometric_chi2_pvalue(counts, w):
    """Chi-square p-value of visit counts against Geometric(1/w) on 1, 2, ...

    Counts k with an expected frequency of at least 5 get a bin each; the
    rest of the support is one tail bin.
    """
    n, p = len(counts), 1.0 / w
    expected = []
    while n * p * (1.0 - p) ** len(expected) >= 5.0:
        expected.append(n * p * (1.0 - p) ** len(expected))
    k = len(expected)
    expected.append(n * (1.0 - p) ** k)
    observed = np.bincount(np.minimum(counts, k + 1), minlength=k + 2)[1:]
    stat = float(np.sum((observed - expected) ** 2 / np.array(expected)))
    return _chi2_sf(stat, k)


def test_chi2_sf_known_values():
    assert _chi2_sf(2.0 * math.log(10.0), 2) == pytest.approx(0.1, rel=1e-12)
    assert _chi2_sf(3.8414588206941285, 1) == pytest.approx(0.05, rel=1e-9)
    assert _chi2_sf(29.58829844507442, 10) == pytest.approx(0.001, rel=1e-9)


@pytest.mark.parametrize("r", [10, 11])
def test_visit_count_histogram_is_geometric(r):
    # the visit count is Geometric(1/W(R)) on 1, 2, ...; both engines, one
    # seed and one level fixed in advance.  W(11) exceeds W(10) by 2.6%,
    # which the test tells apart, so an R off by one fails it
    k = make_kernel("power_law", alpha=1.0, n_max=3)
    env = sample_environment(k, DisorderSpec("gaussian"), 40, seed=21)
    pot = build_potential(env, WalkParams(beta=0.5, h=-0.6, f=0.15))
    w = expected_visits_exact(pot, r)
    w_other = expected_visits_exact(pot, 21 - r)
    for counts in (simulate_visit_counts([pot], r, 100000, seed=23)[0],
                   _reference_visit_counts(pot, r, 100000, seed=23)):
        assert counts.min() >= 1
        assert _geometric_chi2_pvalue(counts, w) > 1e-3
        assert _geometric_chi2_pvalue(counts, w_other) < 1e-3


def test_batch_rows_follow_their_own_potential():
    # 5 x 3000 walkers: chunk 0 holds rows 0-1 and part of row 2
    pots = [drifted(0.3, 40), flat(40), drifted(0.6, 40), flat(40), drifted(0.3, 40)]
    counts = simulate_visit_counts(pots, 25, 3000, seed=13)
    assert counts.shape == (5, 3000)
    assert np.array_equal(counts, simulate_visit_counts(pots, 25, 3000, seed=13))
    for pot, row in zip(pots, counts):
        se = row.std(ddof=1) / math.sqrt(len(row))
        assert abs(row.mean() - expected_visits_exact(pot, 25)) <= 3 * se
    # deterministic rows: a fast row is all ones, a trapped one all censored
    mixed = simulate_visit_counts([fast(40), trap(40), fast(40)], 25, 5000,
                                  seed=13, step_budget=64, censor=True)
    assert np.all(mixed[[0, 2]] == 1) and np.all(mixed[1] == -1)


def test_batch_step_budget_error_names_global_replica(monkeypatch):
    # the first trapped walker, 0-based walker 10000, sits in the second
    # chunk, which a forked helper runs when there are two workers
    for workers in (1, 2):
        monkeypatch.setattr(sparsepin.walk, "_worker_count", lambda n, w=workers: w)
        with pytest.raises(StepBudgetError) as err:
            simulate_visit_counts([fast(40), fast(40), trap(40)], 25, 5000,
                                  seed=14, step_budget=64)
        assert err.value.replica == 10000


@pytest.mark.parametrize("workers", [2, 3])
def test_counts_do_not_depend_on_worker_count(monkeypatch, workers):
    # 7 x 3000 walkers make three chunks; with 2 workers this process runs
    # chunks 0 and 2 and a forked helper chunk 1
    pots = [drifted(0.3, 40), flat(40), drifted(0.6, 40), trap(40), flat(40),
            drifted(0.1, 40), fast(40)]
    runs = {}
    for count in (1, workers):
        monkeypatch.setattr(sparsepin.walk, "_worker_count", lambda n, w=count: w)
        runs[count] = (simulate_visit_counts(pots[:3] + pots[4:], 25, 3000, seed=15),
                       simulate_visit_counts(pots, 25, 3000, seed=15, step_budget=200,
                                             censor=True))
    for serial, parallel in zip(runs[1], runs[workers]):
        assert np.array_equal(serial, parallel)
    assert np.all(runs[1][1][3] == -1)
    # chunks 1 and 2 both fail; the error names the lower one's walker
    with pytest.raises(StepBudgetError) as err:
        simulate_visit_counts([fast(40), fast(40), trap(40), trap(40)], 25, 5000,
                              seed=14, step_budget=64)
    assert err.value.replica == 10000


def test_helper_failure_reaches_the_parent(monkeypatch):
    parent, chunk = os.getpid(), sparsepin.walk._visits_chunk
    monkeypatch.setattr(sparsepin.walk, "_worker_count", lambda n: 2)
    pots = [flat(20)] * 3

    def failing(*args):
        if os.getpid() != parent:
            raise MemoryError("helper out of memory")
        chunk(*args)

    def vanishing(*args):
        if os.getpid() != parent:
            os._exit(0)  # ends without its report
        chunk(*args)

    for broken, status in ((failing, 1), (vanishing, 0)):
        monkeypatch.setattr(sparsepin.walk, "_visits_chunk", broken)
        with pytest.raises(RuntimeError, match=f"exited with status {status} without"):
            simulate_visit_counts(pots, 10, 5000, seed=16)


def test_worker_count_needs_two_chunks_per_process(monkeypatch):
    monkeypatch.setattr(sparsepin.walk, "_usable_cpus", lambda: 8)
    counts = [sparsepin.walk._worker_count(n) for n in (1, 2, 3, 4, 13, 100)]
    assert counts == [1, 1, 1, 2, 6, 8]


@pytest.mark.parametrize("files, quota", [
    ({"cpu.max": "200000 100000\n"}, 2), ({"cpu.max": "150000 100000\n"}, 2),
    ({"cpu.max": "max 100000\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "50000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
    ({}, None)])
def test_cgroup_cpu_quota(tmp_path, files, quota):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert sparsepin.walk._cgroup_cpu_quota(str(tmp_path)) == quota


def test_batch_input_validation():
    with pytest.raises(ValueError):
        simulate_visit_counts([], 5, 10, seed=1)
    with pytest.raises(ValueError):
        simulate_visit_counts([flat(20)], 5, 0, seed=1)
    with pytest.raises(ValueError):
        simulate_visit_counts([flat(20), flat(5)], 10, 10, seed=1)
    with pytest.raises(ValueError):
        simulate_visit_counts([flat(20)], 0, 10, seed=1)


def test_visit_count_z_scores_are_standard_normal():
    # 400 environments at the verify defaults (beta 1, h -1, f 0.3), 1000
    # walkers each.  The z-score of each MC mean against W(R) should be
    # N(0,1); the tolerances are 4 sampling standard deviations for M = 400
    # z-scores, plus the known first-order bias -gamma/(2 sqrt(n)) of a
    # studentized mean of a law with skewness gamma (the counts are
    # geometric with success probability 1/W(R))
    kern = make_kernel("power_law", alpha=1.0, n_max=8)
    params = WalkParams(beta=1.0, h=-1.0, f=0.3)
    m, n, r = 400, 1000, 40
    pots = [build_potential(sample_environment(kern, DisorderSpec("gaussian"), r, seed=e),
                            params) for e in range(m)]
    w = np.array([expected_visits_exact(pot, r) for pot in pots])
    counts = simulate_visit_counts(pots, r, n, seed=1)
    z = (counts.mean(axis=1) - w) / (counts.std(axis=1, ddof=1) / math.sqrt(n))
    p = 1.0 / w
    skew_bias = float(np.mean((2.0 - p) / np.sqrt(1.0 - p))) / (2.0 * math.sqrt(n))
    assert abs(z.mean() + skew_bias) <= 4.0 / math.sqrt(m)
    assert abs(z.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / (m - 1))
    # at most the count of |z| > 3 that N(0,1) exceeds with probability < 1e-4
    p3 = math.erfc(3.0 / math.sqrt(2.0))
    cdf, cap = 0.0, -1
    while 1.0 - cdf >= 1e-4:
        cap += 1
        cdf += math.comb(m, cap) * p3 ** cap * (1.0 - p3) ** (m - cap)
    assert np.count_nonzero(np.abs(z) > 3.0) <= cap


def test_step_budget_error_and_censoring():
    pot = flat(400)
    with pytest.raises(StepBudgetError) as err:
        simulate_visit_counts([pot], 400, 100, seed=6, step_budget=500)
    assert err.value.replica >= 0
    censored = simulate_visit_counts([pot], 400, 100, seed=6, step_budget=500,
                                     censor=True)
    assert np.all(censored == -1)


def test_step_budget_below_one_sweep_is_enforced():
    # every walker needs two steps to reach R = 2, even where going up is certain
    counts = simulate_visit_counts([fast(10)], 2, 1000, seed=3, step_budget=1,
                                   censor=True)
    assert np.all(counts == -1)
    with pytest.raises(StepBudgetError):
        simulate_visit_counts([fast(10)], 2, 1000, seed=3, step_budget=1)
    assert np.all(simulate_visit_counts([fast(10)], 2, 1000, seed=3,
                                        step_budget=2) == 1)


def test_odd_step_budget_is_exact():
    # R = 3 is hit at step 3, inside the second step pair
    assert np.all(simulate_visit_counts([fast(10)], 3, 1000, seed=3,
                                        step_budget=3) == 1)
    counts = simulate_visit_counts([fast(10)], 3, 1000, seed=3, step_budget=2,
                                   censor=True)
    assert np.all(counts == -1)

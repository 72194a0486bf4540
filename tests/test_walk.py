"""Exact walk formulas, their Monte Carlo counterparts, and the speed estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepin import (DisorderSpec, Potential, SparseEnvironment, StepBudgetError,
                       WalkParams, build_potential, expected_visits_exact,
                       make_kernel, mc_speed, mc_visits, ruin_prob, sample_environment,
                       scale_values, simulate_visit_counts, simulate_visit_counts_batch,
                       step_prob)
from sparsepin._rng import rng_for
from sparsepin.walk import sparse_increment_stream


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


def homogeneous_increment_stream(params):
    """Increment stream with Delta V_i = -f at every site of Z (beta = h = 0)."""

    def stream(replica, rng, n_sites):
        return np.full(2 * n_sites + 1, -params.f)

    return stream


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

def test_simulate_visits_deterministic_and_positive():
    pot = drifted(math.log(3.0), 30)
    a = simulate_visit_counts(pot, 30, 1, seed=11)
    assert a.shape == (1,) and a[0] >= 1
    assert np.array_equal(a, simulate_visit_counts(pot, 30, 1, seed=11))


def test_mc_visits_flat_oracle():
    mean, se = mc_visits(flat(20), 10, 100000, seed=3)
    assert abs(mean - 10.0) <= 3 * se


def test_mc_visits_drift_oracle():
    pot = drifted(math.log(3.0), 40)
    exact = expected_visits_exact(pot, 30)
    assert exact == pytest.approx(1.5, abs=1e-9)
    mean, se = mc_visits(pot, 30, 100000, seed=4)
    assert abs(mean - exact) <= 3 * se


def test_mc_visits_deterministic_pair():
    pot = drifted(0.3, 20)
    assert mc_visits(pot, 15, 2, seed=8) == mc_visits(pot, 15, 2, seed=8)
    with pytest.raises(ValueError):
        mc_visits(pot, 15, 1, seed=8)


def test_visit_counts_geometric_mean_and_variance():
    k = make_kernel("power_law", alpha=1.0, n_max=3)
    env = sample_environment(k, DisorderSpec("gaussian"), 40, seed=21)
    pot = build_potential(env, WalkParams(beta=0.5, h=-0.6, f=0.15))
    r = 35
    w = expected_visits_exact(pot, r)
    counts = simulate_visit_counts(pot, r, 50000, seed=22).astype(float)
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
    assert mc_visits(pot, 50, 30000, seed=5) == mc_visits(pot, 50, 30000, seed=5)
    c1 = simulate_visit_counts(pot, 50, 30000, seed=5)
    assert np.array_equal(c1, simulate_visit_counts(pot, 50, 30000, seed=5))
    assert not np.array_equal(c1[:8192], c1[8192:16384])


def _reference_visit_counts(potential, r, replicas, seed):
    """Per-potential walker loop: one table, chunks of 8192, sweeps of 32 steps."""
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


@pytest.mark.parametrize("replicas", [1, 8191, 8192, 20000])
@pytest.mark.parametrize("r", [1, 30])
def test_batch_of_one_matches_per_potential_walk(replicas, r):
    pot = drifted(0.3, 40)
    batch = simulate_visit_counts_batch([pot], r, replicas, seed=12)
    assert batch.shape == (1, replicas)
    ref = _reference_visit_counts(pot, r, replicas, seed=12)
    assert np.array_equal(batch[0], ref)
    assert np.array_equal(simulate_visit_counts(pot, r, replicas, seed=12), ref)


def test_batch_rows_follow_their_own_potential():
    # 5 x 3000 walkers: chunk 0 holds rows 0-1 and part of row 2
    pots = [drifted(0.3, 40), flat(40), drifted(0.6, 40), flat(40), drifted(0.3, 40)]
    counts = simulate_visit_counts_batch(pots, 25, 3000, seed=13)
    assert counts.shape == (5, 3000)
    assert np.array_equal(counts, simulate_visit_counts_batch(pots, 25, 3000, seed=13))
    for pot, row in zip(pots, counts):
        se = row.std(ddof=1) / math.sqrt(len(row))
        assert abs(row.mean() - expected_visits_exact(pot, 25)) <= 3 * se
    # deterministic rows: a fast row is all ones, a trapped one all censored
    mixed = simulate_visit_counts_batch([fast(40), trap(40), fast(40)], 25, 5000,
                                        seed=13, step_budget=64, censor=True)
    assert np.all(mixed[[0, 2]] == 1) and np.all(mixed[1] == -1)


def test_batch_step_budget_error_names_global_replica():
    # the first trapped walker, 0-based walker 10000, sits in the second chunk
    with pytest.raises(StepBudgetError) as err:
        simulate_visit_counts_batch([fast(40), fast(40), trap(40)], 25, 5000,
                                    seed=14, step_budget=64)
    assert err.value.replica == 10000


def test_batch_input_validation():
    with pytest.raises(ValueError):
        simulate_visit_counts_batch([], 5, 10, seed=1)
    with pytest.raises(ValueError):
        simulate_visit_counts_batch([flat(20)], 5, 0, seed=1)
    with pytest.raises(ValueError):
        simulate_visit_counts_batch([flat(20), flat(5)], 10, 10, seed=1)
    with pytest.raises(ValueError):
        simulate_visit_counts_batch([flat(20)], 0, 10, seed=1)


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
    counts = simulate_visit_counts_batch(pots, r, n, seed=1)
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
        simulate_visit_counts(pot, 400, 100, seed=6, step_budget=500)
    assert err.value.replica >= 0
    censored = simulate_visit_counts(pot, 400, 100, seed=6, step_budget=500, censor=True)
    assert np.all(censored == -1)


# ---------------------------------------------------------------------------
# speed of the walk on Z

def test_mc_speed_symmetric_zero():
    stream = homogeneous_increment_stream(WalkParams())
    mean, se = mc_speed(stream, 400, 600, seed=1)
    assert abs(mean) <= 3 * se


def test_mc_speed_homogeneous_drift():
    f = 0.4
    stream = homogeneous_increment_stream(WalkParams(f=f))
    mean, se = mc_speed(stream, 1500, 800, seed=2)
    assert abs(mean - math.tanh(f / 2.0)) <= 3 * se


def test_mc_speed_sparse_positive():
    # h below the annealed curve with a square-integrable gap law gives
    # strictly positive speed
    kern = make_kernel("power_law", alpha=1.0, n_max=6)
    spec = DisorderSpec("gaussian")
    beta, h = 0.6, -0.8
    assert h < -0.5 * beta ** 2
    stream = sparse_increment_stream(kern, spec, WalkParams(beta=beta, h=h))
    mean, se = mc_speed(stream, 2000, 300, seed=3)
    assert mean > 3 * se

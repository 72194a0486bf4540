"""Exact walk formulas and their Monte Carlo counterparts."""

import functools
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
from sparsepin.pinning import _mean_stderr


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


def test_build_potential_at_zero_drift_has_no_negative_zero():
    # potential.csv prints a -0.0 as "-0.0"; at f = 0 every V before the
    # first renewal point, and every V of a flat potential, is +0.0
    env = SparseEnvironment(horizon=5, tau=np.array([0, 3]),
                            omega=np.array([0.0, 0.0, 0.5, 0.0, 0.0]))
    for params in (WalkParams(), WalkParams(beta=1.0, h=-1.0)):
        values = build_potential(env, params).values
        assert (values == 0.0).any()
        assert not np.signbit(values[values == 0.0]).any()


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
    # 40000 replicas span three 16384-replica chunks, each on its own substream
    pot = drifted(0.25, 60)
    assert (visits_mean_stderr(pot, 50, 40000, seed=5)
            == visits_mean_stderr(pot, 50, 40000, seed=5))
    c1 = simulate_visit_counts([pot], 50, 40000, seed=5)[0]
    assert np.array_equal(c1, simulate_visit_counts([pot], 50, 40000, seed=5)[0])
    assert not np.array_equal(c1[:16384], c1[16384:32768])


def _reference_visit_counts(potential, r, replicas, seed):
    """Per-potential one-step walker loop: chunks of 16384, sweeps of 32 steps."""
    counts = np.ones(replicas, dtype=np.int64)
    if r == 1:
        return counts
    pad = np.full(r + 34, 9.0)
    pad[1:r] = step_prob(potential.increments()[: r - 1])
    for c, start in enumerate(range(0, replicas, 16384)):
        rng = rng_for(seed, "visits", c)
        size = min(16384, replicas - start)
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


def _move_reference_counts(potentials, r, replicas, seed, pairs, step_budget=None,
                           censor=False):
    """One-chunk-at-a-time loop over the engine's move tables of `pairs`
    step pairs: chunks of 16384 walkers ordered by potential, then replica,
    chunk c on (seed, "visits", c) with the tables of the potentials it
    holds.  A move is 2 * pairs steps over C = 4, 16 or 256 alias columns
    at 1, 4 or 16 pairs, on one uniform u a walker: column floor(u C), and
    the alias where u reaches the column's stored threshold (c + t) / C.  A
    sweep is max(32, 4 * pairs) steps of moves.  The last sweep ends at the
    budget rounded up to a whole move, e steps past it; a walker then
    counts as absorbed only at 2j >= R + e, having hit R within the budget.
    Walkers still running count -1 with censor, else the first of them is
    named by StepBudgetError."""
    columns = {1: 4, 4: 16, 16: 256}[pairs]
    sweep = max(32, 4 * pairs)
    sweep_moves = sweep // (2 * pairs)
    total = len(potentials) * replicas
    counts = np.ones(total, dtype=np.int64)
    dv = np.stack([pot.increments()[: r - 1] for pot in potentials])
    half = (r + 1) // 2 + sweep // 2
    for c, start in enumerate(range(0, total, 16384)):
        rng = rng_for(seed, "visits", c)
        idx = np.arange(start, min(start + 16384, total))
        row = idx // replicas
        rows = slice(row[0], row[-1] + 1)
        thr, nxt, vis = sparsepin.walk._move_tables(dv[rows], r, pairs)
        base = (row - row[0]) * half
        state, visits = base.copy(), np.ones(len(idx), dtype=np.int64)
        steps = 0
        while len(idx):
            moves = sweep_moves if step_budget is None else min(
                sweep_moves, -(-(step_budget - steps) // (2 * pairs)))
            for _ in range(moves):
                steps += 2 * pairs
                u = rng.random(len(idx))
                column = columns * state + (u * columns).astype(np.int64)
                slot = 2 * column + (u >= thr[column])
                state = nxt[slot] // columns
                visits += vis[slot]
            past = 0 if step_budget is None else max(0, steps - step_budget)
            absorbed = 2 * (state - base) >= r + past
            counts[idx[absorbed]] = visits[absorbed]
            keep = ~absorbed
            idx, base, state, visits = idx[keep], base[keep], state[keep], visits[keep]
            if len(idx) and step_budget is not None and steps >= step_budget:
                if not censor:
                    raise StepBudgetError(int(idx[0]), step_budget)
                counts[idx] = -1
                break
    return counts.reshape(len(potentials), replicas)


def _each_move_length(monkeypatch):
    """1, 4 and 16, the engine's move lengths in step pairs, each forced on
    the engine in turn whatever its walkers per potential."""
    for pairs in (1, 4, 16):
        monkeypatch.setattr(sparsepin.walk, "move_pairs",
                            lambda replicas, potentials, p=pairs: p)
        yield pairs


def _assert_exact_move_law(r, pairs):
    """Every start's law of (end site, visits to 0) over one move of `pairs`
    step pairs, read back from its alias columns, equals a dynamic program
    over the pair laws built here from step_prob, to 1e-14; starts run from
    0 through the band above R."""
    rough = Potential(values=np.concatenate([[0.0], np.cumsum(
        np.random.default_rng(3).normal(size=40))]))
    pots = [flat(40), drifted(0.3, 40), drifted(-0.2, 40), fast(40), trap(40), rough]
    dv = np.stack([pot.increments()[: r - 1] for pot in pots])
    thr, nxt, vis = sparsepin.walk._move_tables(dv, r, pairs)
    columns = {1: 4, 4: 16, 8: 64, 16: 256}[pairs]
    rows, half = len(pots), (r + 1) // 2 + max(32, 4 * pairs) // 2
    assert len(thr) == columns * rows * half
    for row in range(rows):
        # p_0 = 1 forces 0 -> 1, and from R on the chain only climbs
        p_up = np.ones(2 * half)
        p_up[1:r] = step_prob(dv[row])
        q_up = 1.0 - p_up
        down = np.array([q_up[2 * j] * q_up[2 * j - 1] if j else 0.0 for j in range(half)])
        up = p_up[0:2 * half:2] * p_up[1:2 * half:2]
        pair = np.stack([down, 1.0 - down - up, up])
        # a move never starts within `pairs` states of the top of the table
        for j in range(half - pairs):
            law = {(j, 0): 1.0}
            for _ in range(pairs):
                after = {}
                for (site, seen), p in law.items():
                    for step in (-1, 0, 1):
                        # down = 0 at site 0, so no mass goes below it
                        if pair[step + 1, site] > 0:
                            key = (site + step, seen + (site + step == 0))
                            after[key] = after.get(key, 0.0) + p * pair[step + 1, site]
                law = after
            back = {}
            for col in range(columns):
                at = columns * (row * half + j) + col
                # thresholds are stored as (col + t) / C
                t = thr[at] * columns - col
                for b, w in ((0, t), (1, 1.0 - t)):
                    key = (int(nxt[2 * at + b]) // columns - row * half, int(vis[2 * at + b]))
                    back[key] = back.get(key, 0.0) + w / columns
            for key in law.keys() | back.keys():
                assert abs(law.get(key, 0.0) - back.get(key, 0.0)) <= 1e-14, (row, j, key)


@pytest.mark.parametrize("r", [1, 2, 3, 30, 31])
def test_move_tables_hold_the_exact_four_pair_law(r):
    _assert_exact_move_law(r, 4)


@pytest.mark.parametrize("pairs", [1, 8])
@pytest.mark.parametrize("r", [1, 2, 3, 30, 31])
def test_move_tables_hold_the_exact_one_and_eight_pair_laws(r, pairs):
    # at 1 pair a start at 0 or 2 has 2 or 3 outcomes in 4 columns, so a
    # spare column whose cell some start reaches would count that cell twice
    _assert_exact_move_law(r, pairs)


@pytest.mark.parametrize("r", [1, 2, 3, 30, 31])
def test_move_tables_hold_the_exact_sixteen_pair_law(r):
    # the engine's longest move: 256 columns, at most 153 outcomes a start
    _assert_exact_move_law(r, 16)


@pytest.mark.parametrize("pairs", [1, 4, 16])
def test_move_tables_do_not_depend_on_their_block_size(monkeypatch, pairs):
    # blocks of one state, of runs that split a row or its near starts, of
    # one row and of two rows, against the tables built as one block
    dv = np.random.default_rng(pairs).normal(0.0, 2.0, size=(5, 60))
    columns = {1: 4, 4: 16, 16: 256}[pairs]
    monkeypatch.setattr(sparsepin.walk, "_TABLE_BLOCK", 2 ** 40)
    whole = sparsepin.walk._move_tables(dv, 61, pairs)
    for states in (1, 3, 7, 45, 63, 100):
        monkeypatch.setattr(sparsepin.walk, "_TABLE_BLOCK", states * columns)
        for built, one in zip(sparsepin.walk._move_tables(dv, 61, pairs), whole, strict=True):
            assert built.dtype == one.dtype and np.array_equal(built, one), states


@pytest.mark.parametrize("pairs", [1, 4, 16])
def test_move_tables_end_laws_on_a_long_row(pairs):
    # R = 301: at 16 pairs a row has 183 states of 256 columns, so entries
    # of the tables run past 2^15; every start's law of its end state must
    # be row j of the pair law's `pairs`-th power
    r = 301
    rough = Potential(values=np.concatenate([[0.0], np.cumsum(
        np.random.default_rng(5).normal(-0.1, 1.0, size=300))]))
    dv = np.stack([pot.increments()[: r - 1] for pot in (drifted(0.3, 300), rough)])
    thr, nxt, vis = sparsepin.walk._move_tables(dv, r, pairs)
    columns = {1: 4, 4: 16, 16: 256}[pairs]
    half = (r + 1) // 2 + max(32, 4 * pairs) // 2
    for row in range(len(dv)):
        p_up = np.ones(2 * half)
        p_up[1:r] = step_prob(dv[row])
        q_up = 1.0 - p_up
        step = np.zeros((half, half))
        j = np.arange(half)
        step[j[1:], j[1:] - 1] = q_up[2 * j[1:]] * q_up[2 * j[1:] - 1]
        step[j[:-1], j[:-1] + 1] = p_up[2 * j[:-1]] * p_up[2 * j[:-1] + 1]
        step[j, j] = 1.0 - step.sum(axis=1)
        step[-1, -1] = 1.0  # the top state only climbs, on sentinels
        law = np.linalg.matrix_power(step, pairs)
        at = columns * (row * half + j[:half - pairs, None]) + np.arange(columns)
        t = thr[at] * columns - np.arange(columns)
        back = np.zeros((half - pairs, half))
        for b, w in ((0, t), (1, 1.0 - t)):
            end = nxt[2 * at + b] // columns - row * half
            assert ((end >= 0) & (end < half)).all()
            np.add.at(back, (np.broadcast_to(j[:half - pairs, None], end.shape), end), w / columns)
        assert np.abs(back - law[:half - pairs]).max() <= 1e-13


def _sequential_alias(flat, columns):
    """Vose's sweep in column order, one round per column over all laws at
    once: flat holds `columns` rows of masses, flat[c * states + s] for
    column c of law s, each law summing to `columns`, then two spare
    entries.  On return flat holds each column's threshold, and the
    returned array each column's alias, as its entry.  The current small
    outcome (mass below 1) is filled from the current large one, and a
    large one whose remaining mass drops below 1 is finished like a small
    one, filled from the next large one."""
    spare = len(flat) - 2
    dump = spare + 1  # takes the writes of laws with nothing to finish
    states = spare // columns
    small = flat[:spare].reshape(columns, states) < 1.0
    # first[kind, c, s]: law s's first small (kind 0) or large (kind 1)
    # outcome at column c or later, the spare entry if none
    first = np.full((2, columns + 2, states), spare, dtype=np.int64)
    for c in range(columns - 1, -1, -1):
        entry = np.arange(c * states, (c + 1) * states)
        first[0, c] = np.where(small[c], entry, first[0, c + 1])
        first[1, c] = np.where(small[c], first[1, c + 1], entry)
    next_small, next_large = first[:, 1:].reshape(2, -1)
    low, big = first[:, 0].copy()
    partner = np.arange(spare + 2)
    flat[spare] = 1.0  # an exhausted small outcome lends nothing
    rest = flat[big]  # what the current large outcome has left
    for _ in range(columns - 1):
        following = next_large[big]
        # a large outcome left below 1 is finished, unless it is the last
        spent = (rest < 1.0) & (following < spare)
        done = np.where(spent, big, dump)
        flat[done] = rest
        partner[done] = following
        partner[np.where(spent, dump, low)] = big
        rest += np.where(spent, flat[following], flat[low])
        rest -= 1.0
        big = np.where(spent, following, big)
        low = np.where(spent, low, next_small[low])
    flat[big] = 1.0
    return partner


def _random_laws(rng, laws, columns, kind):
    """Laws of `columns` masses summing to `columns`: continuous masses with
    many zeros (kind 0), or multiples of 1/2 or 1/4 (kinds 1 and 2), which
    sum exactly and so give masses of exactly 1 and exact ties between
    the lights' deficits and the heavies' surpluses."""
    if kind == 0:
        m = rng.random((laws, columns)) * (rng.random((laws, columns)) < 0.5)
        m[:, 0] += 0.1
        return m / m.sum(axis=1, keepdims=True) * columns
    if kind == 1:
        m = rng.integers(0, 4, (laws, columns)) / 2
    else:
        m = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=(laws, columns))
    m[:, -1] += columns - m.sum(axis=1)
    m[m[:, -1] < 0] = 1.0  # a law that cannot balance is all ones
    return m


@pytest.mark.parametrize("columns", [4, 16, 256])
def test_alias_matches_the_sequential_sweep(columns):
    rng = np.random.default_rng(columns)
    for kind in (0, 1, 2):
        for _ in range(20):
            m = _random_laws(rng, 30, columns, kind)
            assert np.allclose(m.sum(axis=1), columns, rtol=0, atol=1e-12)
            own, thr, alias = sparsepin.walk._alias(m.copy())
            # own permutes each law's columns; map the tables back to them
            rows = np.arange(len(m))[:, None]
            assert np.array_equal(np.sort(own, axis=1),
                                  np.broadcast_to(np.arange(columns), m.shape))
            by_column = np.empty(m.shape, dtype=np.int64)
            by_column[rows, own] = alias
            thresholds = np.empty(m.shape)
            thresholds[rows, own] = thr
            flat = np.concatenate([m.T.ravel(), [0.0, 0.0]])
            partner = _sequential_alias(flat, columns)[:-2].reshape(columns, -1).T
            assert np.array_equal(by_column, partner // len(m))
            assert np.abs(thresholds - flat[:-2].reshape(columns, -1).T).max() <= 1e-14 * columns


@pytest.mark.parametrize("columns", [4, 16, 64])
def test_scan_gives_accumulate_bits_on_both_paths(columns):
    # fewer laws than 32 per column take numpy's accumulate, more take one
    # call per column: the same pairs in the same order, so the same bits
    rng = np.random.default_rng(columns)
    for laws in (32 * columns - 1, 32 * columns):
        for ufunc, reverse, a in ((np.add, False, rng.random((laws, columns))),
                                  (np.maximum, False, rng.random((laws, columns))),
                                  (np.minimum, True,
                                   rng.integers(0, columns, (laws, columns)).astype(np.int16))):
            got = a.copy()
            sparsepin.walk._scan(got, ufunc, reverse)
            want = ufunc.accumulate(a[:, ::-1] if reverse else a, axis=1)
            assert np.array_equal(got, want[:, ::-1] if reverse else want)


def _near_support_from_sets(pairs):
    """_near_support's rows, built from Python sets of (site, visits)."""
    rows = []
    for j in range(pairs + 1):
        ends = {(j, 0)}
        for _ in range(pairs):
            ends = {(s + d, v + (s + d == 0)) for s, v in ends for d in (-1, 0, 1)
                    if s + d >= 0}
        rows.append(sorted((s - j + pairs) * (pairs + 1) + v for s, v in ends))
    support = np.zeros((pairs + 1, 1 << (max(map(len, rows)) - 1).bit_length()),
                       dtype=np.int64)
    for j, cells in enumerate(rows):
        support[j, :len(cells)] = cells
    return support


@pytest.mark.parametrize("pairs", [1, 2, 4, 8, 16])
def test_near_support_matches_the_set_construction(pairs):
    support = sparsepin.walk._near_support(pairs)
    assert np.array_equal(support, _near_support_from_sets(pairs))
    assert support.shape[1] == {1: 4, 2: 8, 4: 16, 8: 64, 16: 256}[pairs]


@pytest.mark.parametrize("replicas", [1, 8191, 8192, 16383, 16384, 20000, 40000])
@pytest.mark.parametrize("r", [1, 2, 3, 30])
def test_batch_of_one_matches_per_potential_walk(monkeypatch, replicas, r):
    pot = drifted(0.3, 40)
    for pairs in _each_move_length(monkeypatch):
        batch = simulate_visit_counts([pot], r, replicas, seed=12)
        assert batch.shape == (1, replicas)
        assert np.array_equal(batch[0],
                              _move_reference_counts([pot], r, replicas, 12, pairs)[0])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_batch_matches_one_chunk_at_a_time(monkeypatch, workers):
    # 7 x 10000 walkers make five chunks of very different lifetimes (chunk 0
    # is mostly fast walkers, chunks 1 and 2 hold trapped ones): two workers run
    # chunks 0, 2, 4 and 1, 3, three run 0, 3 and 1, 4 and 2.  Without the
    # trapped row, six rows make four chunks
    pots = [fast(40), flat(40), drifted(0.3, 40), trap(40), drifted(0.6, 40), fast(40),
            flat(40)]
    free = pots[:3] + pots[4:]
    trapped = [fast(40), trap(40), trap(40), fast(40)]
    for pairs in _each_move_length(monkeypatch):
        monkeypatch.setattr(sparsepin.walk, "_worker_count", lambda n: workers)
        assert np.array_equal(simulate_visit_counts(free, 25, 10000, seed=17),
                              _move_reference_counts(free, 25, 10000, 17, pairs))
        # 1000 steps are not a whole number of 32-step moves
        censored = simulate_visit_counts(pots, 25, 10000, seed=17, step_budget=1000,
                                         censor=True)
        assert np.array_equal(censored, _move_reference_counts(
            pots, 25, 10000, 17, pairs, step_budget=1000, censor=True))
        assert np.all(censored[3] == -1) and np.any(censored[1] == -1)
        # with one worker, chunks 0 and 1 both hold trapped walkers; the error
        # names chunk 0's first
        monkeypatch.setattr(sparsepin.walk, "_worker_count", lambda n: 1)
        for walk in (simulate_visit_counts,
                     functools.partial(_move_reference_counts, pairs=pairs)):
            with pytest.raises(StepBudgetError) as err:
                walk(trapped, 25, 10000, seed=14, step_budget=64)
            assert err.value.replica == 10000


def test_sweep_visit_counter_does_not_wrap(monkeypatch):
    # gently uphill: W(30) is about 68, and the most frequent walkers of
    # 20000 return to 0 several hundred times, past a uint8's range
    pot = Potential(values=0.05 * np.arange(41.0))
    for pairs in _each_move_length(monkeypatch):
        counts = simulate_visit_counts([pot], 30, 20000, seed=18)
        assert counts.max() > 255
        assert np.array_equal(counts, _move_reference_counts([pot], 30, 20000, 18, pairs))


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


def test_batch_rows_follow_their_own_potential(monkeypatch):
    # 5 x 3000 walkers: one chunk holds all five rows
    pots = [drifted(0.3, 40), flat(40), drifted(0.6, 40), flat(40), drifted(0.3, 40)]
    for _ in _each_move_length(monkeypatch):
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
    # the first trapped walker is 0-based walker 10000 inside chunk 0, or
    # walker 20000 in chunk 1, which a forked helper runs when there are two
    # workers
    for _ in _each_move_length(monkeypatch):
        for workers in (1, 2):
            monkeypatch.setattr(sparsepin.walk, "_worker_count", lambda n, w=workers: w)
            for fasts, first in ((2, 10000), (4, 20000)):
                with pytest.raises(StepBudgetError) as err:
                    simulate_visit_counts([fast(40)] * fasts + [trap(40)], 25, 5000,
                                          seed=14, step_budget=64)
                assert err.value.replica == first


@pytest.mark.parametrize("workers", [2, 3])
def test_counts_do_not_depend_on_worker_count(monkeypatch, workers):
    # 7 x 3000 walkers make two chunks; with 2 workers this process runs
    # chunk 0 and a forked helper chunk 1
    pots = [drifted(0.3, 40), flat(40), drifted(0.6, 40), trap(40), flat(40),
            drifted(0.1, 40), fast(40)]
    for _ in _each_move_length(monkeypatch):
        runs = {}
        for count in (1, workers):
            monkeypatch.setattr(sparsepin.walk, "_worker_count", lambda n, w=count: w)
            runs[count] = (simulate_visit_counts(pots[:3] + pots[4:], 25, 3000, seed=15),
                           simulate_visit_counts(pots, 25, 3000, seed=15, step_budget=200,
                                                 censor=True))
        for serial, parallel in zip(runs[1], runs[workers]):
            assert np.array_equal(serial, parallel)
        assert np.all(runs[1][1][3] == -1)
        # chunks 0 and 1 both fail; the error names the lower one's walker
        with pytest.raises(StepBudgetError) as err:
            simulate_visit_counts([fast(40), fast(40), trap(40), trap(40)], 25, 5000,
                                  seed=14, step_budget=64)
        assert err.value.replica == 10000


def test_helper_failure_reaches_the_parent(monkeypatch):
    parent, chunk = os.getpid(), sparsepin.walk._visits_chunk
    monkeypatch.setattr(sparsepin.walk, "_worker_count", lambda n: 2)
    # 4 x 5000 walkers make two chunks, so the helper runs chunk 1
    pots = [flat(20)] * 4

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


def test_move_pairs_bands():
    # few walkers a potential move by 1 pair where there are many
    # potentials; verify's 500 and scan --transience's 200 by 4; the
    # benchmark walk's 100,000 by 16; one potential never by 1
    walkers = [1, 5, 31, 32, 200, 500, 9999, 10000, 100000]
    assert [sparsepin.walk.move_pairs(n, 200) for n in walkers] == [1, 1, 1, 4, 4, 4, 4, 16, 16]
    assert [sparsepin.walk.move_pairs(n, 1) for n in walkers] == [4, 4, 4, 4, 4, 4, 4, 16, 16]
    assert [sparsepin.walk.move_pairs(20, k) for k in (1, 99, 100, 4000)] == [4, 4, 1, 1]


def test_worker_count_equals_two_8192_walker_chunks_per_process(monkeypatch):
    # the count that 8192-walker chunks gave, at least two of them a process
    monkeypatch.setattr(sparsepin.walk, "_usable_cpus", lambda: 8)
    for total in range(1, 300001):
        assert sparsepin.walk._worker_count(total) == max(1, min(8, -(-total // 8192) // 2))


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


def test_step_budget_error_and_censoring(monkeypatch):
    pot = flat(400)
    for _ in _each_move_length(monkeypatch):
        with pytest.raises(StepBudgetError) as err:
            simulate_visit_counts([pot], 400, 100, seed=6, step_budget=500)
        assert err.value.replica >= 0
        censored = simulate_visit_counts([pot], 400, 100, seed=6, step_budget=500,
                                         censor=True)
        assert np.all(censored == -1)


def test_step_budget_below_one_sweep_is_enforced(monkeypatch):
    # every walker needs two steps to reach R = 2, even where going up is certain
    for _ in _each_move_length(monkeypatch):
        counts = simulate_visit_counts([fast(10)], 2, 1000, seed=3, step_budget=1,
                                       censor=True)
        assert np.all(counts == -1)
        with pytest.raises(StepBudgetError):
            simulate_visit_counts([fast(10)], 2, 1000, seed=3, step_budget=1)
        assert np.all(simulate_visit_counts([fast(10)], 2, 1000, seed=3,
                                            step_budget=2) == 1)


def test_odd_step_budget_is_exact(monkeypatch):
    # R = 3 is hit at step 3, inside the second step pair
    for _ in _each_move_length(monkeypatch):
        assert np.all(simulate_visit_counts([fast(10)], 3, 1000, seed=3,
                                            step_budget=3) == 1)
        counts = simulate_visit_counts([fast(10)], 3, 1000, seed=3, step_budget=2,
                                       censor=True)
        assert np.all(counts == -1)

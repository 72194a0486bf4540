"""Kernel, renewal sampling, disorder, and log-MGF checks."""

import math

import numpy as np
import pytest

from sparsepin import (DisorderSpec, SparseEnvironment, kernel_mean,
                       kernel_tail, log_mgf, make_kernel, sample_disorder,
                       sample_environment, sample_renewal)
from sparsepin._rng import derive_seed, rng_for
from sparsepin.experiments import KeyRelationConfig, _renewal_potentials
from sparsepin.walk import WalkParams, build_potential


def test_power_law_weights_hand_normalized():
    k = make_kernel("power_law", alpha=1.0, n_max=2)
    # raw shape (1, 1/4) normalizes to (0.8, 0.2)
    assert k.weights == pytest.approx([0.8, 0.2], rel=1e-15)
    k3 = make_kernel("power_law", alpha=0.0, n_max=3)
    assert k3.weights == pytest.approx([6 / 11, 3 / 11, 2 / 11], rel=1e-14)


def test_single_point_support():
    for alpha in (0.0, 1.3, 7.0):
        k = make_kernel("power_law", alpha=alpha, n_max=1)
        assert k.weights == pytest.approx([1.0], abs=0)


def test_geometric_renormalized():
    q, n_max = 0.3, 12
    k = make_kernel("geometric", q=q, n_max=n_max)
    norm = 1.0 - q ** n_max
    for n in range(1, n_max + 1):
        assert k.weights[n - 1] == pytest.approx((1 - q) * q ** (n - 1) / norm, rel=1e-12)


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        make_kernel("power_law", alpha=-0.5, n_max=4)
    with pytest.raises(ValueError, match="alpha"):
        make_kernel("power_law", alpha=float("nan"), n_max=4)
    with pytest.raises(ValueError):
        make_kernel("power_law", alpha=1.0, n_max=0)
    with pytest.raises(ValueError):
        make_kernel("geometric", q=1.0, n_max=4)
    with pytest.raises(ValueError):
        make_kernel("geometric", q=0.0, n_max=4)
    with pytest.raises(ValueError):
        make_kernel("dirac", step=0)
    with pytest.raises(ValueError):
        make_kernel("triangular")


def test_weights_sum_exactly_one():
    for k in (make_kernel("power_law", alpha=0.8, n_max=100),
              make_kernel("geometric", q=0.6, n_max=40),
              make_kernel("dirac", step=5)):
        assert math.fsum(k.weights) == 1.0


def test_tail_differences_are_weights_exactly():
    k = make_kernel("power_law", alpha=1.3, n_max=50)
    for n in range(k.n_max):
        assert float(k.tail[n]) - float(k.tail[n + 1]) == float(k.weights[n])


def test_tail_endpoints_and_monotonicity():
    k = make_kernel("geometric", q=0.5, n_max=20)
    assert kernel_tail(k, 0) == 1.0
    assert kernel_tail(k, k.n_max) == 0.0
    assert kernel_tail(k, k.n_max + 7) == 0.0
    tails = [kernel_tail(k, n) for n in range(k.n_max + 1)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert kernel_tail(make_kernel("power_law", alpha=1.0, n_max=2), 1) == pytest.approx(0.2, rel=1e-15)


def test_power_law_proportionality():
    alpha = 0.7
    k = make_kernel("power_law", alpha=alpha, n_max=200)
    ratio = k.weights * np.arange(1, 201) ** (1 + alpha)
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-10


def test_kernel_mean_values():
    assert kernel_mean(make_kernel("dirac", step=1)) == 1.0
    assert kernel_mean(make_kernel("power_law", alpha=1.0, n_max=2)) == pytest.approx(1.2, rel=1e-15)
    # truncated geometric mean approaches 1/(1-q) from below as n_max grows
    means = [kernel_mean(make_kernel("geometric", q=0.5, n_max=n)) for n in (5, 10, 20, 60)]
    assert all(a < b for a, b in zip(means, means[1:]))
    assert means[-1] == pytest.approx(2.0, abs=1e-12)


def test_sample_renewal_unit_gaps_and_edges():
    k = make_kernel("dirac", step=1)
    assert sample_renewal(k, 5, seed=3).tolist() == [0, 1, 2, 3, 4, 5]
    assert sample_renewal(k, 0, seed=3).tolist() == [0]


def test_sample_renewal_gap_frequencies():
    k = make_kernel("power_law", alpha=1.0, n_max=2)
    tau = sample_renewal(k, 200000, seed=11)
    gaps = np.diff(tau)
    n = len(gaps)
    assert n > 100000
    freq1 = np.mean(gaps == 1)
    se = math.sqrt(0.8 * 0.2 / n)
    assert abs(freq1 - 0.8) <= 3 * se


def test_sample_renewal_deterministic():
    k = make_kernel("power_law", alpha=0.6, n_max=9)
    a = sample_renewal(k, 5000, seed=42)
    b = sample_renewal(k, 5000, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_renewal(k, 5000, seed=43))


def _renewal_loop(kernel, horizon, rng):
    """Reference sampler: the per-gap loop over blocks of drawn gaps."""
    support = np.arange(1, kernel.n_max + 1)
    points = [0]
    pos = 0
    while True:
        block = rng.choice(support, size=max(16, horizon // 4 + 1), p=kernel.weights)
        for gap in block:
            pos += int(gap)
            if pos > horizon:
                return np.array(points, dtype=np.int64)
            points.append(pos)


def test_sample_renewal_matches_reference_loop():
    kernels = (make_kernel("dirac", step=1), make_kernel("dirac", step=7),
               make_kernel("power_law", alpha=0.4, n_max=300),
               make_kernel("power_law", alpha=1.0, n_max=8),
               make_kernel("geometric", q=0.6, n_max=20))
    for k in kernels:
        for horizon in (0, 1, 5, 15, 16, 64, 1000, 12345):
            for seed in range(5):
                fast = sample_renewal(k, horizon, seed)
                ref = _renewal_loop(k, horizon, rng_for(seed, "renewal"))
                assert fast.dtype == ref.dtype and np.array_equal(fast, ref)


@pytest.mark.parametrize("kernel", [
    make_kernel("dirac", step=1), make_kernel("dirac", step=7),
    make_kernel("power_law", alpha=1.0, n_max=8),
    make_kernel("power_law", alpha=0.4, n_max=300),  # longer than the horizon
    make_kernel("geometric", q=0.6, n_max=20)], ids=lambda k: f"n_max{k.n_max}")
def test_batched_renewal_tables_match_per_set_potentials(kernel):
    # verify's block-built potentials against sample_renewal ->
    # build_potential one set at a time, bit for bit, so the walk tables
    # match too; n_tau 1, 25 and 26 sit at the edges of the TAU_BLOCK = 25
    # set blocks
    n, seed = 200, 11
    omega = sample_disorder(DisorderSpec("gaussian"), n, seed=3)
    for beta, h, f in ((1.0, -1.0, 0.3), (0.0, -1.0, 0.3), (1.0, -1.0, 0.0)):
        for n_tau in (1, 25, 26):
            cfg = KeyRelationConfig(kernel=kernel, disorder=DisorderSpec("gaussian"),
                                    beta=beta, h=h, f=f, n_tau=n_tau, seed=seed)
            pots = list(_renewal_potentials(cfg, omega, n))
            assert len(pots) == n_tau
            params = WalkParams(beta=beta, h=h, f=f)
            for t in range(n_tau):
                tau = sample_renewal(kernel, n, derive_seed(seed, "tau", t))
                pot = build_potential(SparseEnvironment(horizon=n, tau=tau, omega=omega),
                                      params)
                assert np.array_equal(pots[t].values, pot.values)


def test_sample_disorder_families():
    rad = sample_disorder(DisorderSpec("rademacher"), 4, seed=1)
    assert set(np.unique(rad)) <= {-1.0, 1.0}
    assert len(sample_disorder(DisorderSpec("gaussian"), 0, seed=1)) == 0
    g = sample_disorder(DisorderSpec("gaussian"), 10 ** 6, seed=5)
    assert abs(g.mean()) <= 3e-3
    u = sample_disorder(DisorderSpec("uniform_centered", half_width=0.4), 1000, seed=2)
    assert np.all(np.abs(u) <= 0.4)
    assert np.array_equal(g, sample_disorder(DisorderSpec("gaussian"), 10 ** 6, seed=5))


def test_disorder_validation():
    with pytest.raises(ValueError):
        DisorderSpec("cauchy")
    with pytest.raises(ValueError):
        DisorderSpec("gaussian", sigma=0.0)
    with pytest.raises(ValueError):
        DisorderSpec("uniform_centered", half_width=-1.0)
    # an infinite scale, or a uniform whose width 2 * half_width overflows
    for family, scale in (("gaussian", dict(sigma=math.inf)),
                          ("uniform_centered", dict(half_width=math.inf)),
                          ("uniform_centered", dict(half_width=1e308))):
        with pytest.raises(ValueError):
            DisorderSpec(family, **scale)
    # a finite sigma whose draws overflow is refused when it is sampled
    with pytest.raises(ValueError, match="overflow"):
        sample_disorder(DisorderSpec("gaussian", sigma=1e308), 2000, seed=1)


def test_log_mgf_closed_forms():
    for spec in (DisorderSpec("gaussian", sigma=2.0), DisorderSpec("rademacher"),
                 DisorderSpec("uniform_centered", half_width=1.5)):
        assert log_mgf(spec, 0.0) == 0.0
    assert log_mgf(DisorderSpec("gaussian"), 1.0) == pytest.approx(0.5, rel=1e-15)
    assert log_mgf(DisorderSpec("rademacher"), 1.0) == pytest.approx(math.log(math.cosh(1.0)), rel=1e-12)
    # uniform: against the direct formula at moderate argument
    spec = DisorderSpec("uniform_centered", half_width=1.0)
    assert log_mgf(spec, 0.5) == pytest.approx(math.log(math.sinh(0.5) / 0.5), rel=1e-12)
    # continuity across the small-argument series switch
    assert log_mgf(spec, 1.0001e-4) == pytest.approx(log_mgf(spec, 0.9999e-4), rel=1e-6)
    with pytest.raises(ValueError):
        log_mgf(spec, -0.1)


def test_log_mgf_convex():
    eps = 1e-3
    for spec in (DisorderSpec("gaussian", sigma=0.7), DisorderSpec("rademacher"),
                 DisorderSpec("uniform_centered", half_width=2.0)):
        for beta in (0.01, 0.5, 1.0, 2.0, 4.0):
            d2 = log_mgf(spec, beta + eps) - 2 * log_mgf(spec, beta) + log_mgf(spec, abs(beta - eps))
            assert d2 >= -1e-6


def test_environment_validation_and_roundtrip():
    k = make_kernel("power_law", alpha=1.0, n_max=4)
    env = sample_environment(k, DisorderSpec("gaussian"), 50, seed=9)
    assert env.tau[0] == 0 and env.tau[-1] <= 50
    assert np.all(np.diff(env.tau) >= 1) and np.all(np.diff(env.tau) <= 4)
    assert len(env.omega) == 50
    again = sample_environment(k, DisorderSpec("gaussian"), 50, seed=9)
    assert np.array_equal(env.tau, again.tau) and np.array_equal(env.omega, again.omega)

    with pytest.raises(ValueError):
        SparseEnvironment(horizon=5, tau=np.array([1, 2]), omega=np.zeros(5))
    with pytest.raises(ValueError):
        SparseEnvironment(horizon=5, tau=np.array([0, 2, 2]), omega=np.zeros(5))
    with pytest.raises(ValueError):
        SparseEnvironment(horizon=5, tau=np.array([0, 7]), omega=np.zeros(5))
    with pytest.raises(ValueError):
        SparseEnvironment(horizon=5, tau=np.array([0, 2]), omega=np.zeros(4))

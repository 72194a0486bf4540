"""The two layers of randomness: renewal locations tau and disorder omega.

A sparse environment is a renewal set tau = {0 = tau_0 < tau_1 < ...} whose
gaps are i.i.d. with kernel K(n) = P(tau_1 = n), plus an i.i.d. centered
disorder value omega_i at every site.  Kernels are truncated to a finite
support 1..n_max and renormalized, so means, tails and all downstream
identities are exact finite sums.  Infinite-mean ("strongly sparse")
behavior is only approached by raising n_max at alpha <= 1; that remains an
approximation and is documented as such.

Renewal sets have one sampler, _renewal_ends.  It draws the gaps of many
sets at once, each set on its own substream, by the inverse CDF that
Generator.choice computes, and returns one row of renewal points per set:
`verify` builds its potentials from those rows without a
SparseEnvironment per set, and sample_renewal is the same sampler for one
set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import rng_for

__all__ = [
    "DisorderSpec",
    "RenewalKernel",
    "SparseEnvironment",
    "make_kernel",
    "kernel_mean",
    "kernel_tail",
    "sample_renewal",
    "sample_disorder",
    "sample_environment",
    "log_mgf",
]

_DISORDER_FAMILIES = ("gaussian", "rademacher", "uniform_centered")


@dataclass(frozen=True)
class DisorderSpec:
    """A zero-mean disorder family with analytic log-MGF.

    family: "gaussian" (parameter sigma), "rademacher" (+-1 fair), or
    "uniform_centered" (uniform on [-half_width, half_width]).
    """

    family: str
    sigma: float = 1.0
    half_width: float = 1.0

    def __post_init__(self):
        if self.family not in _DISORDER_FAMILIES:
            raise ValueError(f"unknown disorder family {self.family!r}")
        if self.family == "gaussian" and not 0 < self.sigma < math.inf:
            raise ValueError("gaussian sigma must be positive and finite")
        # numpy draws the uniform from its finite width 2 * half_width
        if self.family == "uniform_centered" and not 0 < 2.0 * self.half_width < math.inf:
            raise ValueError("uniform half_width must be positive, with 2 * half_width finite")


@dataclass(frozen=True, eq=False)
class RenewalKernel:
    """Gap law K(1..n_max), stored together with exact tails.

    weights[k-1] = K(k).  tail[j] = P(tau_1 > j) for j = 0..n_max with
    tail[0] = 1.0 and tail[n_max] = 0.0 pinned exactly; weights are the
    adjacent tail differences, so tail(n) - tail(n+1) == K(n+1) holds in
    floating point without tolerance and the weight sum telescopes to 1.
    """

    n_max: int
    weights: np.ndarray
    tail: np.ndarray

    @property
    def log_weights(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.weights)

    @property
    def log_tail(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.tail)


def _kernel_from_raw(raw: np.ndarray) -> RenewalKernel:
    """Normalize a raw weight shape into tails-first kernel storage."""
    n_max = len(raw)
    total = math.fsum(raw)
    # suffix[j] = sum of raw weights strictly beyond gap j
    suffix = np.concatenate([np.cumsum(raw[::-1])[::-1][1:], [0.0]])
    tail = np.empty(n_max + 1)
    tail[0] = 1.0
    tail[1:] = suffix / total
    tail[n_max] = 0.0
    weights = tail[:-1] - tail[1:]
    if np.any(weights <= 0):
        raise ValueError("kernel weights underflow to zero on declared support")
    return RenewalKernel(n_max=n_max, weights=weights, tail=tail)


def make_kernel(kind: str, *, alpha: float | None = None, q: float | None = None,
                n_max: int | None = None, step: int | None = None) -> RenewalKernel:
    """Build a renewal gap kernel.

    power_law: K(n) proportional to n^-(1+alpha) on 1..n_max (the slowly
    varying prefactor is the normalization constant).
    geometric: K(n) = (1-q) q^(n-1) renormalized to 1..n_max.
    dirac: all mass on a single gap length `step`.
    """
    if kind == "power_law":
        if alpha is None or not alpha >= 0:
            raise ValueError("power_law needs alpha >= 0")
        if n_max is None or n_max < 1:
            raise ValueError("power_law needs n_max >= 1")
        n = np.arange(1, n_max + 1, dtype=float)
        return _kernel_from_raw(n ** -(1.0 + alpha))
    if kind == "geometric":
        if q is None or not 0.0 < q < 1.0:
            raise ValueError("geometric needs q in (0,1)")
        if n_max is None or n_max < 1:
            raise ValueError("geometric needs n_max >= 1")
        n = np.arange(1, n_max + 1, dtype=float)
        # shape q^(n-1); the (1-q) prefactor cancels in normalization
        return _kernel_from_raw(q ** (n - 1.0))
    if kind == "dirac":
        if step is None or step < 1:
            raise ValueError("dirac needs step >= 1")
        weights = np.zeros(step)
        weights[step - 1] = 1.0
        tail = np.concatenate([np.ones(step), [0.0]])
        return RenewalKernel(n_max=step, weights=weights, tail=tail)
    raise ValueError(f"unknown kernel kind {kind!r}")


def kernel_mean(kernel: RenewalKernel) -> float:
    """E(tau_1) as an exact finite sum over the support."""
    n = np.arange(1, kernel.n_max + 1, dtype=float)
    return math.fsum(n * kernel.weights)


def kernel_tail(kernel: RenewalKernel, n: int) -> float:
    """P(tau_1 > n); 1 at n=0, 0 from n_max on."""
    if n < 0:
        raise ValueError("tail index must be >= 0")
    if n >= kernel.n_max:
        return 0.0
    return float(kernel.tail[n])


def sample_renewal(kernel: RenewalKernel, horizon: int, seed: int) -> np.ndarray:
    """Renewal points 0 = tau_0 < tau_1 < ... <= horizon, i.i.d. gaps from K."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    (ends,) = _renewal_ends(kernel, horizon, [seed])
    cut = int(np.searchsorted(ends, horizon, side="right"))
    return np.concatenate([np.zeros(1, dtype=np.int64), ends[:cut]])


def _renewal_ends(kernel: RenewalKernel, horizon: int, seeds) -> np.ndarray:
    """Renewal points tau_1 < tau_2 < ... of one set per seed, one row each;
    every row runs past the horizon, and its points beyond it are spare.

    Set k draws its gaps on its own substream (seeds[k], "renewal") by the
    inverse CDF that Generator.choice(p=K) computes, in blocks of
    max(16, horizon // 4 + 1) uniforms, until every set has passed the
    horizon.  A set that has passed it still draws the blocks the others
    need; its generator is then discarded, so a set's points up to the
    horizon do not depend on the other seeds.
    """
    cdf = kernel.weights.cumsum()
    cdf /= cdf[-1]
    rngs = [rng_for(seed, "renewal") for seed in seeds]
    u = np.empty((len(rngs), max(16, horizon // 4 + 1)))
    parts, last = [], np.zeros((len(rngs), 1), dtype=np.int64)
    while last.min() <= horizon:
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        parts.append(last + np.cumsum(cdf.searchsorted(u, side="right") + 1, axis=1))
        last = parts[-1][:, -1:]
    return np.concatenate(parts, axis=1)


def sample_disorder(spec: DisorderSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the disorder family; omega[i-1] is the site-i value."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = rng_for(seed, "disorder")
    if spec.family == "gaussian":
        omega = rng.normal(0.0, spec.sigma, size=n)
    elif spec.family == "rademacher":
        omega = rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    else:
        omega = rng.uniform(-spec.half_width, spec.half_width, size=n)
    if not np.isfinite(omega).all():
        raise ValueError("disorder draws overflow to infinity; sigma is too large")
    return omega


def log_mgf(spec: DisorderSpec, beta: float) -> float:
    """lambda(beta) = log E exp(beta * omega_1), in closed form per family."""
    if not beta >= 0:
        raise ValueError("beta must be >= 0")
    if beta == 0.0:
        return 0.0
    if spec.family == "gaussian":
        x = beta * spec.sigma
        return 0.5 * x * x  # inf, not OverflowError, past sqrt(2 * max float)
    if spec.family == "rademacher":
        # log cosh(beta), safe for large beta
        return beta + math.log1p(math.exp(-2.0 * beta)) - math.log(2.0)
    x = beta * spec.half_width
    if x < 1e-4:
        # log(sinh x / x) = x^2/6 - x^4/180 + O(x^6)
        return x * x / 6.0 - x ** 4 / 180.0
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0 * x)


@dataclass(frozen=True, eq=False)
class SparseEnvironment:
    """One realization of (tau, omega) up to a horizon.

    tau starts at 0 and stays <= horizon; omega holds one value per site
    1..horizon (values at non-tau sites are generated but inert, which keeps
    tau and omega independent by construction).
    """

    horizon: int
    tau: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=np.int64)
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if len(tau) == 0 or tau[0] != 0:
            raise ValueError("tau must start at 0")
        if np.any(np.diff(tau) <= 0):
            raise ValueError("tau must be strictly increasing")
        if tau[-1] > self.horizon:
            raise ValueError("tau points must not exceed the horizon")
        if len(self.omega) != self.horizon:
            raise ValueError("omega must hold one value per site 1..horizon")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))


def sample_environment(kernel: RenewalKernel, spec: DisorderSpec, horizon: int,
                       seed: int) -> SparseEnvironment:
    """Independent (tau, omega) pair from one labeled seed."""
    tau = sample_renewal(kernel, horizon, seed)
    omega = sample_disorder(spec, horizon, seed)
    return SparseEnvironment(horizon=horizon, tau=tau, omega=omega)

"""Nearest-neighbor walk driven by a potential V.

The chain steps up from site i with probability 1/(1 + exp(V_i - V_{i-1})),
so it rolls downhill in V.  Everything exact here comes from the scale
function W(n) = sum_{k<n} exp(V_k): ruin probabilities are ratios of W
increments, and the expected number of visits to the origin before first
hitting R (for the chain folded onto the non-negative integers, with the
forced 0 -> 1 step) is exactly W(R).

Monte Carlo counterparts are chunk-vectorized with one labeled substream
per fixed-size chunk, which makes every statistic bit-identical for a given
master seed.  Walkers of many potentials advance in one synchronous loop
over a stacked up-probability table, so a renewal average over hundreds of
environments costs a few large chunks rather than hundreds of small ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rng import rng_for
from .environment import SparseEnvironment, _draw_disorder, _renewal_points
from .pinning import _lse

__all__ = [
    "WalkParams",
    "Potential",
    "StepBudgetError",
    "build_potential",
    "step_prob",
    "scale_values",
    "ruin_prob",
    "expected_visits_exact",
    "simulate_visit_counts",
    "simulate_visit_counts_batch",
    "mc_visits",
    "mc_speed",
    "sparse_increment_stream",
]

DEFAULT_STEP_BUDGET = 10 ** 8
_CHUNK = 8192
_SWEEP = 32  # steps between compaction sweeps


class StepBudgetError(RuntimeError):
    """A trajectory exhausted its step budget before absorbing at R."""

    def __init__(self, replica: int, budget: int):
        super().__init__(
            f"replica {replica} not absorbed within {budget} steps; "
            "R is too large for this drift"
        )
        self.replica = replica


@dataclass(frozen=True)
class WalkParams:
    """Contact energy scale beta >= 0, contact bias h, external drift f."""

    beta: float = 0.0
    h: float = 0.0
    f: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.beta, self.h, self.f)):
            raise ValueError("beta, h and f must be finite")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


@dataclass(frozen=True, eq=False)
class Potential:
    """V_0..V_M with V_0 = 0."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if len(v) == 0 or v[0] != 0.0:
            raise ValueError("potential must start at V_0 = 0")
        object.__setattr__(self, "values", v)

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def increments(self) -> np.ndarray:
        """Delta V_i = V_i - V_{i-1} for i = 1..M."""
        return np.diff(self.values)


def build_potential(env: SparseEnvironment, params: WalkParams) -> Potential:
    """V_i = V_{i-1} + (h + beta*omega_i) * [i in tau] - f."""
    m = env.horizon
    incr = np.full(m, -params.f)
    contact_sites = env.tau[env.tau >= 1]
    if len(contact_sites):
        incr[contact_sites - 1] += params.h + params.beta * env.omega[contact_sites - 1]
    values = np.concatenate([[0.0], np.cumsum(incr)])
    return Potential(values=values)


def step_prob(delta_v):
    """Up-step probability 1/(1 + exp(delta_v)), overflow-safe, in (0,1).

    Scalar in, float out; array in, array out.  step_prob(x) + step_prob(-x)
    is 1 to within one ulp because both branches share the denominator.
    """
    dv = np.asarray(delta_v, dtype=float)
    with np.errstate(over="ignore"):
        e = np.exp(-np.abs(dv))
    p = np.where(dv >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
    if np.isscalar(delta_v) or dv.ndim == 0:
        return float(p)
    return p


def scale_values(potential: Potential, n: int) -> float:
    """Scale function W(n) = sum_{0 <= k < n} exp(V_k); W(0) = 0."""
    v = potential.values
    if not 0 <= n <= len(v):
        raise ValueError(f"n must lie in 0..{len(v)}")
    return math.fsum(np.exp(v[:n]))


def ruin_prob(potential: Potential, a: int, b: int, c: int) -> float:
    """P(exit through c before a | start at b) = (W(b)-W(a)) / (W(c)-W(a)).

    Requires a < b <= c <= M+1; evaluated in the log domain so potentials
    reaching +-hundreds stay finite.
    """
    v = potential.values
    if not (a < b <= c):
        raise ValueError("need a < b <= c")
    if a < 0 or c > len(v):
        raise ValueError("interval out of the potential's range")
    if b == c:
        return 1.0
    log_num = _lse(v[a:b])
    log_den = _lse(v[a:c])
    return float(np.exp(log_num - log_den))


def expected_visits_exact(potential: Potential, r: int) -> float:
    """Expected visits to 0 (time 0 included) before first hitting R.

    For the folded chain this is exactly W(R): each visit launches an
    excursion from 1 that escapes to R with probability 1/W(R), so the
    visit count is geometric with that success probability.
    """
    if not 1 <= r <= potential.horizon + 1:
        raise ValueError("need 1 <= R <= M+1")
    return scale_values(potential, r)


def simulate_visit_counts(potential: Potential, r: int, replicas: int, seed: int,
                          step_budget: int = DEFAULT_STEP_BUDGET,
                          censor: bool = False) -> np.ndarray:
    """Visit counts of `replicas` independent folded trajectories.

    From 0 the chain moves to 1 with probability one; from 1 <= i < R it
    moves up with probability step_prob(V_i - V_{i-1}); R absorbs.  This is
    simulate_visit_counts_batch over the single potential, so the returned
    array depends only on (potential, r, replicas, seed).
    """
    return simulate_visit_counts_batch([potential], r, replicas, seed,
                                       step_budget=step_budget, censor=censor)[0]


def simulate_visit_counts_batch(potentials, r: int, replicas: int, seed: int,
                                step_budget: int = DEFAULT_STEP_BUDGET,
                                censor: bool = False) -> np.ndarray:
    """Visit counts of `replicas` folded trajectories in each potential.

    `potentials` is any iterable; it is read once, so a generator keeps
    only one potential alive at a time.  Returns an (n_potentials,
    replicas) array.  Walkers are ordered by potential, then replica, and
    simulated in fixed chunks of 8192 that may span several potentials;
    chunk c uses the substream (seed, "visits", c), so the result depends
    only on (potentials, r, replicas, seed).

    A trajectory that exhausts the step budget raises StepBudgetError with
    its global replica index, k * replicas + j for replica j of potential k;
    with censor=True it instead reports -1, which the transience
    diagnostics use to measure the absorbed fraction.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    table = _up_table(potentials, r)
    n_pot, width = table.shape
    total = n_pot * replicas
    counts = np.empty(total, dtype=np.int64)
    if r == 1:
        # the forced 0 -> 1 step absorbs immediately
        counts[:] = 1
        return counts.reshape(n_pot, replicas)
    pad = table.ravel()
    for c, start in enumerate(range(0, total, _CHUNK)):
        stop = min(start + _CHUNK, total)
        base = np.arange(start, stop) // replicas * width
        _visits_chunk(pad, base, r, counts[start:stop], rng_for(seed, "visits", c),
                      step_budget, start, censor)
    return counts.reshape(n_pot, replicas)


def _up_table(potentials, r: int) -> np.ndarray:
    """One row per potential: a sentinel at position 0 (the forced 0 -> 1
    step), up-probabilities at 1..R-1, then sentinels for a sweep past R."""
    rows = []
    for pot in potentials:
        if not 1 <= r <= pot.horizon + 1:
            raise ValueError("need 1 <= R <= M+1 for every potential")
        row = np.full(r + _SWEEP + 2, 9.0)
        row[1:r] = step_prob(pot.increments()[: r - 1])
        rows.append(row)
    if not rows:
        raise ValueError("need at least one potential")
    return np.stack(rows)


def _visits_chunk(pad: np.ndarray, base: np.ndarray, r: int, counts: np.ndarray,
                  rng: np.random.Generator, step_budget: int, replica_offset: int,
                  censor: bool) -> None:
    """Synchronous vectorized evolution of one chunk of folded walkers.

    Walker w lives on the table row starting at base[w], at flat position
    base[w] + i; its visit count goes to counts[w].  Each row carries
    sentinels above 1: at position 0 the sentinel realizes the forced
    0 -> 1 step, and walkers that cross R march upward on sentinels until
    the next compaction sweep collects them, so the hot loop has no
    per-step branching at all.  Compaction moves the running walkers to
    the front of buffers allocated once per chunk (base among them), and
    every step writes into those: fresh temporaries of ever-smaller sizes
    fragment the heap, and the resident set then grows run after run.
    """
    size = len(base)
    pos, visits, idx = base.copy(), np.ones(size, dtype=np.int64), np.arange(size)
    u, p_up, rel = np.empty(size), np.empty(size), np.empty(size, dtype=np.int64)
    up, home = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    n = size
    steps = 0
    while True:
        pos_n, base_n, visits_n = pos[:n], base[:n], visits[:n]
        u_n, p_n, rel_n, up_n, home_n = u[:n], p_up[:n], rel[:n], up[:n], home[:n]
        for _ in range(_SWEEP):
            steps += 1
            rng.random(out=u_n)
            # positions never leave the table, so clipping never acts
            pad.take(pos_n, out=p_n, mode="clip")
            np.less(u_n, p_n, out=up_n)
            pos_n += up_n
            pos_n += up_n
            pos_n -= 1
            visits_n += np.equal(pos_n, base_n, out=home_n)
        absorbed = np.greater_equal(np.subtract(pos_n, base_n, out=rel_n), r, out=up_n)
        if absorbed.any():
            counts[idx[:n][absorbed]] = visits_n[absorbed]
            keep = np.logical_not(absorbed, out=home_n)
            alive = int(np.count_nonzero(keep))
            for buf in (pos, base, visits, idx):
                buf[:alive] = buf[:n][keep]
            n = alive
            if not n:
                return
        if steps >= step_budget:
            if censor:
                counts[idx[:n]] = -1
                return
            raise StepBudgetError(int(replica_offset + idx[0]), step_budget)


def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of the mean; nan where x is too short."""
    mean = float(np.mean(x)) if len(x) else math.nan
    stderr = float(np.std(x, ddof=1) / math.sqrt(len(x))) if len(x) > 1 else math.nan
    return mean, stderr


def mc_visits(potential: Potential, r: int, replicas: int, seed: int,
              step_budget: int = DEFAULT_STEP_BUDGET) -> tuple[float, float]:
    """(mean, stderr) of the visit count over independent replicas."""
    if replicas < 2:
        raise ValueError("need replicas >= 2 for a standard error")
    return _mean_stderr(simulate_visit_counts(potential, r, replicas, seed,
                                              step_budget=step_budget))


# ---------------------------------------------------------------------------
# speed of the unfolded walk on the integers

def sparse_increment_stream(kernel, spec, params: WalkParams) -> Callable:
    """Two-sided sparse environment increments, one fresh draw per replica.

    Sites i >= 1 and i <= 0 carry independent renewal/disorder layers with
    the same law, so every increment of the potential on Z is distributed as
    (h + beta*omega) * [site in tau] - f.
    """

    def stream(replica: int, rng: np.random.Generator, n_sites: int) -> np.ndarray:
        dv = np.full(2 * n_sites + 1, -params.f)
        for side in (1, -1):
            tau = _renewal_points(kernel, n_sites, rng)
            kick = params.h + params.beta * _draw_disorder(spec, n_sites + 1, rng)
            # Delta V_i sits at index n_sites + i.  Right layer: sites
            # tau_1, tau_2, ...; left layer: sites 0, -tau_1, ..., where
            # site 0 is a renewal point by convention
            sel = tau[1:] if side == 1 else tau
            dv[n_sites + side * sel] += kick[sel]
        return dv

    return stream


def mc_speed(increment_stream: Callable, n_steps: int, replicas: int,
             seed: int) -> tuple[float, float]:
    """(mean, stderr) of X_n / n for the walk on Z.

    `increment_stream(replica, rng, n_sites)` must return Delta V_i for
    i = -n_sites..n_sites, laid out at index n_sites + i.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if replicas < 2:
        raise ValueError("need replicas >= 2")
    ratios = np.empty(replicas)
    block = 256
    for start in range(0, replicas, block):
        size = min(block, replicas - start)
        p_up = np.empty((size, 2 * n_steps + 1))
        for j in range(size):
            dv = increment_stream(start + j, rng_for(seed, "speed-env", start + j), n_steps)
            p_up[j] = step_prob(dv)
        rng = rng_for(seed, "speed-walk", start // block)
        pos = np.zeros(size, dtype=np.int64)
        rows = np.arange(size)
        for _ in range(n_steps):
            u = rng.random(size)
            up = u < p_up[rows, pos + n_steps]
            pos += np.where(up, 1, -1)
        ratios[start : start + size] = pos / n_steps
    return _mean_stderr(ratios)

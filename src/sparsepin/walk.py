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
over stacked tables, so a renewal average over hundreds of environments
costs a few large chunks rather than hundreds of small ones.  One uniform
moves a walker two steps: the folded chain starts at 0, so it sits on an
even site after every step pair, and only there can it visit 0.  The
two-step tables are products of one-step probabilities, never values of W,
so the Monte Carlo side stays independent of the exact one.  A step pair
is one draw, one gather and one comparison per table, and one add of the
comparisons' int8 difference to the position.

The chunks run on the CPUs the process may use: its affinity mask, capped
by its cgroup's CPU quota and by the walker total over _CHUNK, halves
rounded down (_worker_count).  The caller forks one helper per extra
process (_run_workers); worker j of k runs chunks c = j mod k in
increasing order, one engine call each (_visits_chunk).  Counts are
written in place into an anonymous shared mmap, and each worker writes
its first step-budget failure into its own slot after them.  A chunk
draws from its own substream whoever runs it, so the counts are the same
for any number of workers; without fork or with one usable CPU nothing
is forked.  Threads would be simpler but ran no faster than one process:
the hot loop is many short numpy calls, and the GIL serialises the
Python work between them.  V is built in one place, _potential_rows, for
one set (build_potential) or a block of renewal sets over one disorder
(`verify`), and a Potential with a non-finite value is refused.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._rng import rng_for
from .environment import SparseEnvironment
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
]

DEFAULT_STEP_BUDGET = 10 ** 8
_CHUNK = 16384
_SWEEP = 32  # steps between compaction sweeps
_UNREPORTED = -2  # a worker's report slot until it reports; -1 reports no failure


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
        # integer inputs would otherwise make integer increment arrays
        for name in ("beta", "h", "f"):
            object.__setattr__(self, name, float(getattr(self, name)))
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
        if not np.isfinite(v).all():
            raise ValueError("potential values must be finite (is beta * omega too large?)")
        object.__setattr__(self, "values", v)

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def increments(self) -> np.ndarray:
        """Delta V_i = V_i - V_{i-1} for i = 1..M."""
        return np.diff(self.values)


def build_potential(env: SparseEnvironment, params: WalkParams) -> Potential:
    """V_i = V_{i-1} + (h + beta*omega_i) * [i in tau] - f."""
    (values,) = _potential_rows(env.tau[None, 1:], env.omega, params)
    return Potential(values=values)


def _potential_rows(ends: np.ndarray, omega: np.ndarray, params: WalkParams) -> np.ndarray:
    """build_potential's V_0..V_n for many renewal sets over one disorder
    omega_1..omega_n, one row per set.

    Row k of ends holds the renewal points >= 1 of set k; points past the
    horizon n = len(omega) are ignored, so the rows of
    environment._renewal_ends serve as they are.
    """
    sets, n = len(ends), len(omega)
    keep = ends <= n
    sites = ends[keep] - 1
    # flat indices into the (sets, n) increments, row k starting at k * n
    flat = (ends + (n * np.arange(sets) - 1)[:, None])[keep]
    incr = np.full(sets * n, -params.f)
    values = np.zeros((sets, n + 1))
    # an overflow leaves inf or nan in V, which Potential refuses
    with np.errstate(over="ignore", invalid="ignore"):
        incr[flat] += params.h + params.beta * omega[sites]
        np.cumsum(incr.reshape(sets, n), axis=1, out=values[:, 1:])
    return values


def step_prob(delta_v):
    """Up-step probability 1/(1 + exp(delta_v)), overflow-safe, in (0,1).

    Scalar in, float out; array in, array out.  step_prob(x) + step_prob(-x)
    is 1 to within one ulp because both branches share the denominator.
    """
    dv = np.asarray(delta_v, dtype=float)
    # in place, so a table costs three arrays of its size: dv, e and p
    e = np.abs(dv, out=np.empty_like(dv))
    np.negative(e, out=e)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    p = np.where(dv >= 0, e, 1.0)
    e += 1.0
    p /= e
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


def simulate_visit_counts(potentials, r: int, replicas: int, seed: int,
                          step_budget: int = DEFAULT_STEP_BUDGET,
                          censor: bool = False) -> np.ndarray:
    """Visit counts of `replicas` folded trajectories in each potential.

    From 0 the chain moves to 1 with probability one; from 1 <= i < R it
    moves up with probability step_prob(V_i - V_{i-1}); R absorbs.
    `potentials` is any iterable of Potentials; it is read once, so a
    generator keeps only one potential alive at a time.  Returns an
    (n_potentials, replicas) array.
    Walkers are ordered by potential, then replica, and simulated in fixed
    chunks of 16384 that may span several potentials, one engine call each
    (_visits_chunk); chunk c uses the substream (seed, "visits", c), so the
    result depends only on (potentials, r, replicas, seed), never on how
    many processes share the chunks (see _worker_count and _run_workers).

    A trajectory that exhausts the step budget raises StepBudgetError with
    its global replica index, k * replicas + j for replica j of potential k,
    from the lowest chunk that has one; with censor=True it instead reports
    -1, which the transience diagnostics use to measure the absorbed
    fraction.
    """
    import mmap  # here, so importing sparsepin stays as fast as before

    if replicas < 1:
        raise ValueError("need at least one replica")
    if step_budget < 1:
        raise ValueError("step_budget must be >= 1")
    lo, hi = _two_step_tables(_up_probs(potentials, r), r)
    n_pot, width = lo.shape
    total = n_pot * replicas
    lo, hi = lo.ravel(), hi.ravel()
    n_chunks = -(-total // _CHUNK)
    workers = _worker_count(total)
    # shared with the forked helpers, which write their chunks in place:
    # the counts, then one report slot per worker
    shared = np.frombuffer(mmap.mmap(-1, 8 * (total + workers)), dtype=np.int64)
    counts, reports = shared[:total], shared[total:]
    reports.fill(_UNREPORTED)

    def run(worker: int) -> int:
        """Chunks c = worker mod workers in increasing order; the global
        replica of the first budget failure, else -1."""
        for c in range(worker, n_chunks, workers):
            try:
                _visits_chunk(lo, hi, c, replicas, width, r, counts, seed, step_budget, censor)
            except StepBudgetError as err:
                return err.replica
        return -1

    _run_workers(run, reports)
    # chunks hold consecutive walkers, so the lowest failing chunk's walker
    # is the lowest of all
    failures = reports[reports >= 0]
    if len(failures):
        raise StepBudgetError(int(failures.min()), step_budget)
    return counts.reshape(n_pot, replicas)


def _worker_count(total: int) -> int:
    """Processes to split `total` walkers among: one per usable CPU, but at
    most total / _CHUNK rounded half down, since a fork costs about half a
    chunk of the cheapest walk (on 2 CPUs, 16,384 walkers ran faster alone
    and 32,768 faster split)."""
    return max(1, min(_usable_cpus(), (total + _CHUNK // 2 - 1) // _CHUNK))


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask, capped by its cgroup's CPU
    quota; 1 where it cannot fork helpers."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    cpus = len(os.sched_getaffinity(0))
    quota = _cgroup_cpu_quota()
    return max(1, min(cpus, quota)) if quota else cpus


def _cgroup_cpu_quota(root: str = "/sys/fs/cgroup") -> int | None:
    """CPUs' worth of time the cgroup at root may use, rounded up; None
    without a quota.  cgroup v2 keeps "quota period" in cpu.max ("max" for
    none), v1 keeps them in cpu/cpu.cfs_quota_us (-1 for none) and
    cpu/cpu.cfs_period_us."""
    for names in (("cpu.max",), ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        try:
            words = []
            for name in names:
                with open(os.path.join(root, name)) as text:
                    words += text.read().split()
            if words[0] in ("max", "-1"):
                return None
            return -(-int(words[0]) // int(words[1]))
        except (OSError, IndexError, ValueError):
            continue
    return None


def _run_workers(run, reports: np.ndarray) -> None:
    """reports[j] = run(j) for each worker j: run(0) here, the rest in
    forked helpers.

    reports is memory the caller shares with the helpers, such as an
    anonymous mmap, filled with _UNREPORTED; run(j) returns an int >= -1.
    A helper never returns into the caller's stack; it leaves through
    os._exit, with status 1 and a traceback on stderr if run raised.  A
    helper that ends without its report is a RuntimeError here, never a
    silently missing result.  If run(0) raises, the helpers are killed, as
    their results are moot, and that exception propagates.
    """
    helpers = []
    try:
        for worker in range(1, len(reports)):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    reports[worker] = run(worker)
                    status = 0
                except BaseException:
                    import traceback
                    traceback.print_exc()
                finally:
                    os._exit(status)
            helpers.append((worker, pid))
        reports[0] = run(0)
    except BaseException:
        import signal
        for _, pid in helpers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        ends = [(worker, pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
                for worker, pid in helpers]
    for worker, pid, status in ends:
        if status or reports[worker] == _UNREPORTED:
            raise RuntimeError(f"helper {pid} exited with status {status} "
                               "without reporting")


def _up_probs(potentials, r: int) -> np.ndarray:
    """Up-step probabilities at sites 1..R-1, one row per potential, in one
    step_prob pass over the stacked increments.  Increments are a fresh
    array, so a generator of potentials keeps only one potential alive."""
    rows = []
    for pot in potentials:
        if not 1 <= r <= pot.horizon + 1:
            raise ValueError("need 1 <= R <= M+1 for every potential")
        rows.append(pot.increments()[: r - 1])
    if not rows:
        raise ValueError("need at least one potential")
    dv = np.stack(rows)
    del rows  # step_prob's temporaries need not sit beside the rows
    return step_prob(dv)


def _two_step_tables(up: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-step thresholds (lo, hi), one row per potential, over even sites.

    Entry j of a row belongs to site 2j.  With one-step up-probabilities p
    (p_0 = 1 for the forced 0 -> 1 step, the rows of `up` at 1..R-1 and
    p = 1 at every site >= R) and q = 1 - p, lo = q_{2j} q_{2j-1} is the
    chance of down-down and hi = 1 - p_{2j} p_{2j+1} that of anything but
    up-up, so a uniform u < lo moves two sites down, u >= hi two sites up,
    and anything between returns to 2j.  The rows run a whole sweep past
    R, where lo = hi = 0 and walkers only climb.
    """
    half = (r + 1) // 2 + _SWEEP // 2
    p = np.ones((len(up), 2 * half))
    p[:, 1:r] = up
    q = 1.0 - p
    lo = np.zeros((len(p), half))
    lo[:, 1:] = q[:, 2::2] * q[:, 1:-1:2]
    return lo, 1.0 - p[:, 0::2] * p[:, 1::2]


def _visits_chunk(lo: np.ndarray, hi: np.ndarray, c: int, replicas: int, width: int,
                  r: int, counts: np.ndarray, seed: int, step_budget: int,
                  censor: bool) -> None:
    """Synchronous vectorized evolution of chunk c of folded walkers, the
    global walkers c * _CHUNK onwards, on its substream (seed, "visits", c).

    Every iteration advances each walker two steps with one uniform.  The
    chain starts at 0, so between iterations it sits on an even site 2i,
    where it can only visit 0; walker w keeps i at flat position base[w] + i
    of the (lo, hi) rows, width entries each.  A uniform below lo steps
    down-down (from 2 that is a visit), one at or above hi up-up, anything
    else back to 2i (from 0 that is the forced step up and back, a visit):
    the step is the int8 difference of the two comparisons, one add.
    Walkers that cross R march upward on sentinels until the next
    compaction sweep collects them, so the hot loop has no per-step
    branching at all.  A sweep counts its visits in uint8 (at most
    _SWEEP // 2 per walker) and adds them to the int64 totals once.

    Counts go to counts[w] for global walker w; a StepBudgetError names the
    chunk's first unfinished walker.  Compaction moves the running walkers
    to the front of buffers allocated once per call, and every step writes
    into those: fresh temporaries of ever-smaller sizes fragment the heap,
    and the resident set then grows run after run.
    """
    rng = rng_for(seed, "visits", c)
    idx = np.arange(c * _CHUNK, min((c + 1) * _CHUNK, len(counts)))
    base = idx // replicas * width
    size = len(idx)
    pos, visits = base.copy(), np.ones(size, dtype=np.int64)
    # one gather buffer for lo and hi; rel reuses it at the end of a sweep
    u, gather = np.empty(size), np.empty(size)
    rel = gather.view(np.int64)
    down, up = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    hits = np.empty(size, dtype=np.uint8)
    n = size
    steps = 0
    while True:
        pos_n, base_n, u_n, g_n = pos[:n], base[:n], u[:n], gather[:n]
        down_n, up_n, hits_n = down[:n], up[:n], hits[:n]
        down_8, up_8 = down_n.view(np.int8), up_n.view(np.int8)
        hits_n.fill(0)
        # the last sweep stops at the budget, rounded up to an even step
        for _ in range(min(_SWEEP, step_budget - steps + 1) // 2):
            steps += 2
            rng.random(out=u_n)
            # positions never leave the table, so clipping never acts
            lo.take(pos_n, out=g_n, mode="clip")
            np.less(u_n, g_n, out=down_n)
            hi.take(pos_n, out=g_n, mode="clip")
            np.greater_equal(u_n, g_n, out=up_n)
            pos_n += np.subtract(up_8, down_8, out=down_8)
            hits_n += np.equal(pos_n, base_n, out=up_n)
        visits[:n] += hits_n
        # a walker at 2 rel >= R hit R at time steps - (2 rel - R), which
        # must lie within the budget; only an odd budget's last sweep passes it
        need = (r + max(0, steps - step_budget) + 1) // 2
        absorbed = np.greater_equal(np.subtract(pos_n, base_n, out=rel[:n]), need, out=up_n)
        if absorbed.any():
            counts[idx[:n][absorbed]] = visits[:n][absorbed]
            keep = np.logical_not(absorbed, out=down_n)
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
            raise StepBudgetError(int(idx[0]), step_budget)

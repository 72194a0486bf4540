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
so the Monte Carlo side stays independent of the exact one.

The chunks run on the CPUs the process may use: its affinity mask, capped
by its cgroup's CPU quota, with at least two chunks per process.  The
caller forks one helper per extra process (_run_workers, which `scan`
also uses to check case-1 growth beside its quenched search); worker j
of k runs chunks c = j mod k in increasing order and writes its counts
in place into an anonymous shared mmap, and each helper sends back only
its first step-budget failure, as two integers over a pipe.  A chunk
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
_CHUNK = 8192
_SWEEP = 32  # steps between compaction sweeps
_MIN_CHUNKS = 2  # chunks per process below which forking a helper does not pay


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
    chunks of 8192 that may span several potentials; chunk c uses the
    substream (seed, "visits", c), so the result depends only on
    (potentials, r, replicas, seed), never on how many processes share
    the chunks (see _worker_count and _run_workers).

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
    workers = _worker_count(n_chunks)
    # shared with the forked helpers, which write their chunks in place
    counts = np.frombuffer(mmap.mmap(-1, 8 * total), dtype=np.int64)

    def run(worker: int):
        """Chunks c = worker mod workers in increasing order; the first
        budget failure as (chunk, global replica), else None."""
        for c in range(worker, n_chunks, workers):
            start = c * _CHUNK
            stop = min(start + _CHUNK, total)
            base = np.arange(start, stop) // replicas * width
            try:
                _visits_chunk(lo, hi, base, r, counts[start:stop], rng_for(seed, "visits", c),
                              step_budget, start, censor)
            except StepBudgetError as err:
                return c, err.replica
        return None

    failures = [f for f in _run_workers(run, workers) if f is not None]
    if failures:
        raise StepBudgetError(min(failures)[1], step_budget)
    return counts.reshape(n_pot, replicas)


def _worker_count(n_chunks: int) -> int:
    """Processes to split n_chunks among: one per usable CPU, but at least
    _MIN_CHUNKS chunks each, since a fork costs about one chunk of the
    cheapest walk (on 2 CPUs, 2 chunks ran faster alone and 4 faster split)."""
    return max(1, min(_usable_cpus(), n_chunks // _MIN_CHUNKS))


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


def _run_workers(run, workers: int) -> list:
    """[run(0), ..., run(workers - 1)]: run(0) here, the rest in forked helpers.

    Each result is None or a pair of ints, which a helper writes to its pipe
    as two int64 words: an exception would have to be pickled, and
    StepBudgetError's arguments do not round-trip; anything larger goes
    through memory the caller shares with the helpers, such as an anonymous
    mmap.  A helper never returns into the caller's stack; it leaves through
    os._exit, with status 1 and a traceback on stderr if run raised.  A
    helper that ends without its report is a RuntimeError here, never a
    silently missing result.  If run(0) raises, the helpers are killed, as
    their results are moot, and that exception propagates.
    """
    helpers, results = [], []
    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    result = run(worker)
                    os.write(write, np.array(result or (-1, -1), dtype=np.int64).tobytes())
                    status = 0
                except BaseException:
                    import traceback
                    traceback.print_exc()
                finally:
                    os._exit(status)
            os.close(write)
            helpers.append((pid, read))
        results.append(run(0))
    except BaseException:
        import signal
        for pid, _ in helpers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        reports = []
        for pid, read in helpers:
            with os.fdopen(read, "rb") as pipe:
                report = pipe.read()
            reports.append((pid, report, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for pid, report, status in reports:
        if status or len(report) != 16:
            raise RuntimeError(f"helper {pid} exited with status {status} "
                               "without reporting")
        chunk, replica = np.frombuffer(report, dtype=np.int64).tolist()
        results.append(None if chunk < 0 else (chunk, replica))
    return results


def _up_probs(potentials, r: int) -> np.ndarray:
    """Up-step probabilities at sites 1..R-1, one row per potential."""
    rows = []
    for pot in potentials:
        if not 1 <= r <= pot.horizon + 1:
            raise ValueError("need 1 <= R <= M+1 for every potential")
        rows.append(step_prob(pot.increments()[: r - 1]))
    if not rows:
        raise ValueError("need at least one potential")
    return np.stack(rows)


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


def _visits_chunk(lo: np.ndarray, hi: np.ndarray, base: np.ndarray, r: int,
                  counts: np.ndarray, rng: np.random.Generator, step_budget: int,
                  replica_offset: int, censor: bool) -> None:
    """Synchronous vectorized evolution of one chunk of folded walkers.

    Every iteration advances each walker two steps with one uniform.  The
    chain starts at 0, so between iterations it sits on an even site 2i,
    where it can only visit 0; walker w keeps i at flat position base[w] + i
    of the (lo, hi) rows and its visit count in counts[w].  A uniform below
    lo steps down-down (from 2 that is a visit), one at or above hi up-up,
    anything else back to 2i (from 0 that is the forced step up and back, a
    visit).  Walkers that cross R march upward on sentinels until the next
    compaction sweep collects them, so the hot loop has no per-step
    branching at all.  Compaction moves the running walkers to the front of
    buffers allocated once per chunk (base among them), and every step
    writes into those: fresh temporaries of ever-smaller sizes fragment the
    heap, and the resident set then grows run after run.
    """
    size = len(base)
    pos, visits, idx = base.copy(), np.ones(size, dtype=np.int64), np.arange(size)
    u, t_lo, t_hi = np.empty(size), np.empty(size), np.empty(size)
    rel = np.empty(size, dtype=np.int64)
    b_lo, b_hi = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    n = size
    steps = 0
    while True:
        pos_n, base_n, visits_n, u_n = pos[:n], base[:n], visits[:n], u[:n]
        lo_n, hi_n, rel_n, b_lo_n, b_hi_n = t_lo[:n], t_hi[:n], rel[:n], b_lo[:n], b_hi[:n]
        # the last sweep stops at the budget, rounded up to an even step
        for _ in range(min(_SWEEP, step_budget - steps + 1) // 2):
            steps += 2
            rng.random(out=u_n)
            # positions never leave the table, so clipping never acts
            lo.take(pos_n, out=lo_n, mode="clip")
            hi.take(pos_n, out=hi_n, mode="clip")
            pos_n += np.greater_equal(u_n, lo_n, out=b_lo_n)
            pos_n += np.greater_equal(u_n, hi_n, out=b_hi_n)
            pos_n -= 1
            visits_n += np.equal(pos_n, base_n, out=b_lo_n)
        # a walker at 2 rel >= R hit R at time steps - (2 rel - R), which
        # must lie within the budget; only an odd budget's last sweep passes it
        need = (r + max(0, steps - step_budget) + 1) // 2
        absorbed = np.greater_equal(np.subtract(pos_n, base_n, out=rel_n), need, out=b_hi_n)
        if absorbed.any():
            counts[idx[:n][absorbed]] = visits_n[absorbed]
            keep = np.logical_not(absorbed, out=b_lo_n)
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

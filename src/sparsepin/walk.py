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
costs a few large chunks rather than hundreds of small ones.  One draw
moves a walker a whole number of step pairs: the folded chain starts at
0, so it sits on an even site after every step pair, and only there can
it visit 0.  Each chunk builds its move tables straight from the
increments of the potentials it holds (_move_tables): the one-step
probabilities step_prob(Delta V) give the three laws of a step pair,
products of them, never values of W, so the Monte Carlo side stays
independent of the exact one.  An exact dynamic program over those laws
gives, for every even start, the joint law of the end site and the visits
to 0 over the move's pairs (only starts within two sites per pair of 0
can visit it), and each law is stored as an alias table (Walker 1977, Vose
1991) with as many columns as the power of two that holds a start's
outcomes, built in closed form from prefix sums of the columns' deficits
and surpluses (_alias).  A move is one uniform, whose integer part times
C picks the column and whose rest is the coin, one threshold gather and
comparison, and two gathers: the next state and the move's visits.  A
call picks its move length once from its walkers per potential and its
potential count (move_pairs): 2 steps on 4 columns where many potentials
have few walkers each, since a table costs more than a walker-move and
few walkers share it; 32 steps on 256 columns where a potential has so
many walkers that its 6,656 bytes of tables per state are nothing next to
the walk; and 8 steps on 16 columns otherwise.

The chunks run on the CPUs the process may use: its affinity mask, capped
by its cgroup's CPU quota and by the walker total over _CHUNK, halves
rounded down (_worker_count).  The caller forks one helper per extra
process (_run_workers); worker j of k runs chunks c = j mod k in
increasing order, one engine call each (_visits_chunk), and builds each
chunk's move tables itself, keeping them for its next chunk when that
holds the same potentials.  Counts are
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

import functools
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
    "move_pairs",
]

DEFAULT_STEP_BUDGET = 10 ** 8
_CHUNK = 16384
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
    # 0.0 - f, not -f: at f = 0 the increments are +0.0, which csv prints as 0.0
    incr = np.full(sets * n, 0.0 - params.f)
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
    e = np.exp(-np.abs(dv))
    p = np.where(dv >= 0, e, 1.0) / (1.0 + e)
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
    incs = []
    for pot in potentials:
        if not 1 <= r <= pot.horizon + 1:
            raise ValueError("need 1 <= R <= M+1 for every potential")
        incs.append(pot.increments()[: r - 1])
    if not incs:
        raise ValueError("need at least one potential")
    # increments are fresh arrays, so a generator of potentials keeps only
    # one potential alive, and the stack only their first R - 1
    dv = np.stack(incs)
    del incs
    n_pot = len(dv)
    total = n_pot * replicas
    n_chunks = -(-total // _CHUNK)
    workers = _worker_count(total)
    pairs = move_pairs(replicas, n_pot)
    # shared with the forked helpers, which write their chunks in place:
    # the counts, then one report slot per worker
    shared = np.frombuffer(mmap.mmap(-1, 8 * (total + workers)), dtype=np.int64)
    counts, reports = shared[:total], shared[total:]
    reports.fill(_UNREPORTED)

    def run(worker: int) -> int:
        """Chunks c = worker mod workers in increasing order; the global
        replica of the first budget failure, else -1.  Each chunk walks on
        the move tables of the potentials it holds, built here unless the
        worker's last chunk held the same ones."""
        held = tables = None
        for c in range(worker, n_chunks, workers):
            rows = slice(c * _CHUNK // replicas, (min((c + 1) * _CHUNK, total) - 1) // replicas + 1)
            if rows != held:
                tables = None  # the last chunk's tables go before the next are built
                held, tables = rows, _move_tables(dv[rows], r, pairs)
            try:
                _visits_chunk(tables, pairs, rows.start, c, replicas, r, counts, seed,
                              step_budget, censor)
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


def move_pairs(replicas: int, potentials: int) -> int:
    """Step pairs per walker move for `replicas` walkers in each of
    `potentials` potentials: 16 from 10,000 walkers a potential on, 1 below
    32 walkers a potential where there are 100 potentials or more, else 4.

    A longer move saves walker-moves but costs a larger table per state,
    which a potential's walkers share; with few potentials the tables are
    cheap and every move pays a round of numpy calls, so longer moves win.
    Walk times on one CPU, medians of 3 to 15 runs on a noisy 2-core box:
    - one potential of `walk` (beta 1, h -1, f 0.3, R 50), 1 / 4 / 16
      pairs: 1.22 / 1.11 / 2.65 ms at 2 walkers, 1.42 / 0.99 / 2.57 at 20,
      4.23 / 1.82 / 2.89 at 3,000, 9.47 / 3.69 / 3.63 at 10,000, 26.3 /
      9.9 / 5.7 at 30,000 and 80.2 / 28.3 / 14.0 at 100,000.
    - verify's renewal potentials (beta 1, h -1, f 0.3, R 201), 1 against
      4 pairs: at 10 walkers a potential 9.8 against 5.7 ms over 20
      potentials and 20.2 against 41.7 ms over 200; at 20 walkers 5.8
      against 3.8 ms over 10, 17.1 against 18.9 ms over 100 and 67.8
      against 116 ms over 500; over 100,000 walkers 0.55 against 0.72 s
      at 30 walkers a potential, 0.47 against 0.51 s at 50 and 0.38
      against 0.30 s at 100.
    - the same, 4 against 16 pairs over 100,000 walkers: 102 against 231 ms
      at 2,000 walkers a potential, 99 against 101 ms at 5,000, 94 against
      85 ms at 10,000 and 98 against 67 ms at 20,000.
    The choice reads neither the chunks nor the workers, so it is the same
    for every chunk of a call and for any number of workers.
    """
    if replicas >= 10000:
        return 16
    return 1 if replicas < 32 and potentials >= 100 else 4


def _sweep(pairs: int) -> int:
    """Steps between compaction sweeps at `pairs` step pairs a move: 32, or
    two moves where moves are longer than 16 steps, so every sweep holds
    at least two moves.  States run half a sweep past R, so the sentinel
    band stays 16 states where moves are short."""
    return max(32, 4 * pairs)


def _worker_count(total: int) -> int:
    """Processes to split `total` walkers among: one per usable CPU, but at
    most total / _CHUNK rounded half down.  On 2 CPUs a fork and join cost
    about 2.5 ms, some one chunk of the cheapest walk (every step up to
    R = 50): 16,384 walkers ran faster alone; at 32,768 that walk ran about
    1 ms slower split and a drift-0.3 walk about as fast (the box was too
    noisy to say more); from 49,152 on split ran as fast or faster."""
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


@functools.cache
def _near_support(pairs: int) -> np.ndarray:
    """Cells (end offset + pairs) * (pairs + 1) + visits that a move of
    `pairs` step pairs from site 2j, j <= pairs, can end in, one row per j.

    A move is `pairs` step pairs of -2, 0 or +2 sites, never below 0, and
    counts a visit whenever a pair ends at 0.  The row width is the table's
    column count: the least power of two that holds every row, so 4, 16
    and 256 for 1, 4 and 16 pairs (at most 3, 15 and 153 cells).  Unused
    slots hold cell 0, an end `pairs` pairs down with no visit, which no
    start reaches: from 2j, j <= pairs, that many pairs down end at 0 with
    a visit, or would pass below 0.
    """
    # reach[j, s, v]: a move from 2j can be at site 2s with v visits so far
    reach = np.zeros((pairs + 1, 2 * pairs + 1, pairs + 1), dtype=bool)
    reach[np.arange(pairs + 1), np.arange(pairs + 1), 0] = True
    for _ in range(pairs):
        after = reach.copy()
        after[:, 1:] |= reach[:, :-1]
        after[:, :-1] |= reach[:, 1:]
        after[:, 0, 1:] = after[:, 0, :-1]  # a pair that ends at 0 visits it
        after[:, 0, 0] = False
        reach = after
    # row-major order runs by site, then visits, so each row's cells ascend
    j, site, seen = np.nonzero(reach)
    count = reach.sum(axis=(1, 2))
    support = np.zeros((pairs + 1, 1 << (int(count.max()) - 1).bit_length()), dtype=np.int64)
    support[j, np.arange(len(j)) - (np.cumsum(count) - count)[j]] = \
        (site - j + pairs) * (pairs + 1) + seen
    support.flags.writeable = False  # one array serves every call
    return support


def _move_tables(dv: np.ndarray, r: int,
                 pairs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alias tables (thr, nxt, vis) of one move, `pairs` step pairs, from
    every even site of the potentials whose increments at sites 1..R-1
    are the rows of dv.

    Each row gets half = (R + 1) // 2 + _sweep(pairs) // 2 states: state s
    = row * half + j stands for site 2j of that row, so the states run half
    a sweep past R, where walkers only climb.  With one-step
    up-probabilities p (p_0 = 1 for the forced 0 -> 1 step, step_prob(dv)
    at 1..R-1 and p = 1 at every site >= R) and q = 1 - p, a step pair
    from 2j moves two sites down with probability q_{2j} q_{2j-1}, two up
    with p_{2j} p_{2j+1}, and returns to 2j otherwise.  A move from 2j ends
    at site 2j + 2d, d = -pairs..pairs, and visits 0 up to `pairs` times;
    an exact dynamic program over the pair laws gives that joint law.  Only
    starts j <= pairs can reach 0, so the others carry 2 pairs + 1 end
    cells and no visit axis.  Each law is split into C equal columns
    (_alias), C = _near_support(pairs).shape[1].  Entry C s + c of thr
    holds (c + t) / C for column c's threshold t, so that one uniform u
    picks column floor(u C) and its alias when u >= thr; entries 2 C s + 2
    c + b of nxt and vis hold its outcome, b = 0 below the threshold and 1
    at or above it: C times the next state, and the visits.  Ends past the
    top of a row stop at its last state, since a move never starts within
    `pairs` states of the top (_visits_chunk).  Per state the tables take
    26 C bytes: 104, 416 and 6,656 bytes at 1, 4 and 16 pairs.
    """
    support = _near_support(pairs)
    near_starts, columns = support.shape
    rows, half = len(dv), (r + 1) // 2 + _sweep(pairs) // 2
    cells = 2 * pairs + 1
    p = np.ones((rows, 2 * half))
    p[:, 1:r] = step_prob(dv)
    q = 1.0 - p
    # laws[x, row, i]: down, stay or up at state i - pairs; above the
    # table the chain keeps climbing
    laws = np.zeros((3, rows, half + 2 * pairs))
    down, stay, up = laws[:, :, pairs:pairs + half]
    np.multiply(q[:, 2::2], q[:, 1:-1:2], out=down[:, 1:])
    # up is taken as 1 - (1 - p_{2j} p_{2j+1}): equal to within one
    # rounding, and it sums with 1 - p_{2j} p_{2j+1} to exactly 1
    np.multiply(p[:, 0::2], p[:, 1::2], out=stay)
    np.subtract(1.0, stay, out=stay)
    np.subtract(1.0, stay, out=up)
    stay -= down
    del p, q
    laws[2, :, pairs + half:] = 1.0
    # window[x][k, row, j]: the law at state j + k - pairs, end cell k of start j
    window = np.moveaxis(np.lib.stride_tricks.sliding_window_view(laws, half, axis=2), 2, 1)

    def pair(p, cell, down, stay, up):
        """One more step pair of the end-cell laws p, in place, over the
        cells `cell`: all that have mass, and their neighbours."""
        q = p[cell] * stay[cell]
        q[:-1] += p[cell][1:] * down[cell][1:]
        q[1:] += p[cell][:-1] * up[cell][:-1]
        p[cell] = q

    # far[k, row, j]: end cell k of start j, each law scaled to sum to C
    far = np.zeros((cells, rows, half))
    far[pairs] = columns
    for t in range(1, pairs + 1):
        pair(far, slice(pairs - t, pairs + t + 1), *window)
    # starts j <= pairs again, with a visit axis last: a pair that ends at
    # 0, cell pairs - j, moves that cell's mass up one visit
    near = np.zeros((cells, rows, near_starts, pairs + 1))
    near[pairs, ..., 0] = columns
    j = np.arange(near_starts)
    for _ in range(pairs):
        pair(near, slice(None), *(law[:, :, :near_starts, None] for law in window))
        at_zero = near[pairs - j, :, j]
        near[pairs - j, :, j] = 0.0
        near[pairs - j, :, j, 1:] = at_zero[..., :-1]
    by_start = near.transpose(2, 0, 3, 1).reshape(near_starts, -1, rows)  # (j, cell, row)
    masses = np.zeros((rows, half, columns))
    masses[..., :cells] = far.transpose(1, 2, 0)
    masses[:, :near_starts] = by_start[j[:, None], support].transpose(2, 0, 1)
    del far, near, by_start
    own, thr, partner = _alias(masses.reshape(-1, columns))
    del masses
    thr += np.arange(columns)
    thr /= columns
    # outcomes: column c of start j ends at state ends[j, c] of its row,
    # with seen[j, c] visits
    ends = np.arange(half)[:, None] + np.minimum(np.arange(columns), cells - 1) - pairs
    ends[:, cells:] = np.arange(half)[:, None]  # empty columns stay put
    ends[:near_starts] = j[:, None] + support // (pairs + 1) - pairs
    np.clip(ends, 0, half - 1, out=ends)
    ends *= columns
    seen = np.zeros((half, columns), dtype=np.uint8)
    seen[:near_starts] = support % (pairs + 1)
    nxt = np.empty((rows, half, columns, 2), dtype=np.int64)
    vis = np.empty((rows, half, columns, 2), dtype=np.uint8)
    start = (columns * np.arange(half))[:, None]
    for b, cell in enumerate((own, partner)):
        cell = cell.reshape(rows, half, columns) + start  # entries of ends and seen
        ends.ravel().take(cell, out=nxt[..., b], mode="clip")
        seen.ravel().take(cell, out=vis[..., b], mode="clip")
    nxt += (columns * half * np.arange(rows))[:, None, None, None]
    return thr.ravel(), nxt.ravel(), vis.ravel()


def _scan(a: np.ndarray, ufunc, reverse: bool = False) -> None:
    """a[:, c] = ufunc(a[:, c - 1], a[:, c]) for c = 1, 2, .., in place;
    from the right with reverse.  Both ways below combine the same pairs in
    the same order, so they give the same bits: accumulate costs a few ns
    an entry, while one call per column costs a microsecond or so however
    many rows it covers, so it is the faster where rows far outnumber
    columns.  A cumsum on one CPU, accumulate against one call per column:
    87 against 19 us over 3,861 laws of 4 columns, 271 against 187 us at
    16, and 45 against 295 us over 57 laws of 256."""
    laws, columns = a.shape
    if reverse:
        a = a[:, ::-1]
    if laws < 32 * columns:
        ufunc.accumulate(a, axis=1, out=a)
        return
    for c in range(1, columns):
        ufunc(a[:, c - 1], a[:, c], out=a[:, c])


def _alias(masses: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walker's alias tables of the laws masses[s], each a row of C column
    masses summing to C, as (own, thr, alias): column p of law s keeps
    outcome own[s, p] below threshold thr[s, p] and takes outcome alias[s,
    p] at or above it.  Both name columns of masses[s].

    A light outcome (mass below 1) keeps its mass and takes the rest from a
    heavy one.  This is Vose's sweep in column order, in closed form: the
    current light outcome is filled from the current heavy one, and a heavy
    one whose remaining mass drops below 1 is finished like a light one,
    filled from the next heavy one.  With sigma the lights' deficits 1 - m
    and tau the heavies' surpluses m - 1, each summed in column order, a
    heavy holds 1 + tau - sigma once the lights before it have taken sigma.
    So merge each law's keys, the deficits before each light and the
    surpluses through each heavy, a light first on a tie (one sort of their
    bits, which order floats >= 0 as the floats do).  In that merged order a
    light takes from the next heavy, or the last if none follows; a heavy
    but the last, with surpluses below the law's total deficit, is finished
    by the light before it at threshold 1 + tau - sigma, sigma the deficits
    through that light, and takes from the next heavy; every other heavy
    keeps its outcome, at threshold 1.  The table's columns are the law's
    in merged order.  Blends use factors 0 and 1, exact on finite values.
    """
    laws, columns = masses.shape
    heavy = masses >= 1.0
    light = ~heavy
    lack = np.subtract(1.0, masses)
    np.maximum(lack, 0.0, out=lack)
    key = np.empty_like(masses)
    key[:, 0] = 0.0
    key[:, 1:] = lack[:, :-1]
    _scan(key, np.add)  # the deficits before each column
    total = key[:, -1:] + lack[:, -1:]
    tau = np.subtract(masses, 1.0)
    np.maximum(tau, 0.0, out=tau)
    _scan(tau, np.add)  # the surpluses through each column
    key *= light
    tau *= heavy
    key += tau
    bits = key.view(np.uint64)
    bits <<= np.uint64(1)
    bits |= heavy
    order = np.argsort(bits, axis=1, kind="stable")
    own = order.astype(np.int16)
    order += (columns * np.arange(laws))[:, None]
    # from here on every array runs in merged order; the sorted keys go
    # into tau's memory, and their low bit marks the heavies
    bits = bits.take(order, out=tau.view(np.uint64), mode="clip")
    np.bitwise_and(bits, np.uint64(1), out=heavy.view(np.uint8), casting="unsafe")
    np.logical_not(heavy, out=light)
    bits >>= np.uint64(1)
    key = bits.view(np.float64)
    # the deficits through the last light at or before each place
    filled = lack.take(order)
    filled += key
    filled *= light
    _scan(filled, np.maximum)
    thr = masses.take(order)
    del order
    # the next heavy at or after each place (C where none follows), and the
    # last at or before it: heavies are merged in column order, so past
    # the law's last heavy column that is the last
    ahead = own - columns
    ahead *= heavy
    ahead += columns
    _scan(ahead, np.minimum, reverse=True)
    behind = own + 1
    behind *= heavy
    behind -= 1
    _scan(behind, np.maximum)
    alias = np.empty_like(own)
    alias[:, :-1] = ahead[:, 1:]
    alias[:, -1:] = columns
    ahead -= alias
    ahead *= light
    alias += ahead  # a light's from its own place on, a heavy's after it
    behind -= alias
    behind *= alias == columns
    alias += behind  # the last heavy where none follows
    finished = alias != own
    finished &= heavy
    finished &= key < total
    # a light keeps its mass, a finished heavy 1 + tau - sigma, others 1
    key -= filled
    key *= finished
    thr *= light
    thr += heavy
    thr += key
    heavy ^= finished
    np.subtract(own, alias, out=ahead)
    ahead *= heavy
    alias += ahead  # a heavy not finished keeps its own outcome
    return own, thr, alias


def _visits_chunk(tables: tuple, pairs: int, first: int, c: int, replicas: int, r: int,
                  counts: np.ndarray, seed: int, step_budget: int, censor: bool) -> None:
    """Synchronous vectorized evolution of chunk c of folded walkers, the
    global walkers c * _CHUNK onwards, on its substream (seed, "visits", c).

    tables are the move tables (_move_tables) of `pairs` step pairs for the
    potentials the chunk holds, potential `first` onwards; C is their
    column count.  Every iteration moves each walker 2 * pairs steps by one
    alias draw on one uniform u: column floor(u C), exact since C is a
    power of two, then its threshold gathered and compared with u, and the
    next state and the move's visits to 0 gathered from the chosen slot.
    A sweep of _sweep(pairs) steps is 16, 4 or 2 moves at 1, 4 or 16
    pairs.  Walker w keeps C times its state; each potential's states run
    half a sweep past its even sites below R, so the walkers that cross R
    march upward on sentinels until the next compaction sweep collects
    them, and the hot loop has no per-walker branching at all.  A sweep
    counts its visits in uint8 (at most half a sweep per walker, one per
    pair) and adds them to the int64 totals once.

    Counts go to counts[w] for global walker w; a StepBudgetError names the
    chunk's first unfinished walker.  Compaction takes the running walkers
    through one index array into a scratch buffer and back, and a move
    writes only into buffers allocated once per call: fresh temporaries of
    ever-smaller sizes fragment the heap, and the resident set then grows
    run after run.
    """
    thr, nxt, vis = tables
    columns = _near_support(pairs).shape[1]
    sweep, move = _sweep(pairs), 2 * pairs  # steps per sweep and per move
    rng = rng_for(seed, "visits", c)
    idx = np.arange(c * _CHUNK, min((c + 1) * _CHUNK, len(counts)))
    size = len(idx)
    row = idx // replicas - first
    # thr holds C entries per state
    base = row * (len(thr) // (row[-1] + 1))
    pos, visits = base.copy(), np.ones(size, dtype=np.int64)
    slot = np.empty(size, dtype=np.int64)
    u, cut = np.empty(size), np.empty(size)
    coin = np.empty(size, dtype=bool)
    hits, seen = np.empty(size, dtype=np.uint8), np.empty(size, dtype=np.uint8)
    n = size
    steps = 0
    while True:
        pos_n, slot_n, u_n, cut_n = pos[:n], slot[:n], u[:n], cut[:n]
        coin_n, hits_n, seen_n = coin[:n], hits[:n], seen[:n]
        hits_n.fill(0)
        # the last sweep stops at the budget, rounded up to a whole move
        for _ in range(min(sweep, step_budget - steps + move - 1) // move):
            steps += move
            rng.random(out=u_n)
            np.multiply(u_n, columns, out=slot_n, casting="unsafe")
            slot_n += pos_n
            # slots never leave the tables, so clipping never acts
            thr.take(slot_n, out=cut_n, mode="clip")
            np.greater_equal(u_n, cut_n, out=coin_n)
            slot_n += slot_n
            slot_n += coin_n
            nxt.take(slot_n, out=pos_n, mode="clip")
            vis.take(slot_n, out=seen_n, mode="clip")
            hits_n += seen_n
        visits[:n] += hits_n
        # a walker at 2j >= R hit R at time steps - (2j - R), which must lie
        # within the budget; only a sweep that ends past the budget passes it
        need = (r + max(0, steps - step_budget) + 1) // 2
        absorbed = np.greater_equal(np.subtract(pos_n, base[:n], out=slot_n), columns * need,
                                    out=coin_n)
        if absorbed.any():
            counts[idx[:n][absorbed]] = visits[:n][absorbed]
            keep = np.flatnonzero(np.logical_not(absorbed, out=coin_n))
            n = len(keep)
            if not n:
                return
            for buf in (pos, base, visits, idx):
                buf.take(keep, out=slot[:n], mode="clip")
                buf[:n] = slot[:n]
        if steps >= step_budget:
            if censor:
                counts[idx[:n]] = -1
                return
            raise StepBudgetError(int(idx[0]), step_budget)

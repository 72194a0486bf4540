"""Disordered pinning model: partition functions, free energy, critical points.

The pinned partition function z^c_n (endpoint forced onto the renewal set)
obeys the renewal recursion

    z^c_0 = 1,   z^c_m = exp(beta*omega_m + h) * sum_k K(k) z^c_{m-k},

and the free one decomposes over the last renewal point before n,

    Z_n = sum_{k<=n} z^c_k * P(tau_1 > n - k),     Z_0 = 1.

Tables are returned in the log domain (values pass e^700 in localized
scans).  The recursion itself runs in linear arithmetic on a window scaled
by a log-normaliser per row, the scaling trick of the HMM forward
algorithm.  The rows run site-major, so a site costs two numpy calls for
all rows at once, and the logs are written once per block of sites.
`pinned_recursions` is the one engine entry: it takes a (B, n) array of
finite contact energies beta*omega_m + h, any mix of omega, beta and h per
row, and runs it in as few engine calls as a cell budget allows
(rows * (n + 1 + n_max) <= _CELLS, 32 rows at n = 8000, n_max = 40).  An
engine call of 32 rows costs about twice as much per site as one of a
single row, so the quenched critical-point search runs in lockstep: each
multisection pass is one engine call for every unfinished (beta, seed)
search, and the first pass also evaluates the first bisection levels below
CRIT_H_HI on speculation.
Z_0 = 1 is the empty-product convention: it makes the grand-canonical sum
sum_n Z_n e^{-fn} equal, term by term, the renewal-averaged expected visit
count of the walk, time-0 visit included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._rng import derive_seed
from .environment import DisorderSpec, RenewalKernel, log_mgf, sample_disorder

__all__ = [
    "PartitionTable",
    "GrandCanonicalReport",
    "HomogeneousSolution",
    "FreeEnergyEstimate",
    "CriticalPointEstimate",
    "BracketError",
    "pinned_recursions",
    "free_partition",
    "grand_canonical",
    "free_energy_estimate",
    "homogeneous_free_energy",
    "homogeneous_series_verdict",
    "annealed_critical_point",
    "quenched_critical_point_estimate",
    "quenched_critical_point_estimates",
]

GC_SLOPE_TOL = 1e-3
CRIT_H_HI = 0.25  # first upper end tried by the quenched bisection
_CELLS = 2 ** 18  # rows * (n + 1 + n_max) per engine call: a 2-MB log table
_SCALE_LIMIT = 200.0  # a window sum outside e^{+-200} is rebuilt from the logs
_BLOCK = 64  # sites between window renormalisations
_LN2 = math.log(2.0)
_MULTISECTION_LEVELS = 3  # bisection levels evaluated per batched pass


class BracketError(RuntimeError):
    """Bisection could not bracket the sign change of the free energy."""

    def __init__(self, h_lo: float, h_hi: float, message: str):
        super().__init__(f"{message} (scanned h in [{h_lo}, {h_hi}])")
        self.scanned = (h_lo, h_hi)


@dataclass(frozen=True, eq=False)
class PartitionTable:
    """log z^c up to length n for one (omega, beta, h, kernel); log Z on demand."""

    n: int
    kernel: RenewalKernel
    log_zc: np.ndarray

    @cached_property
    def log_z(self) -> np.ndarray:
        return free_partition(self)


@dataclass(frozen=True)
class GrandCanonicalReport:
    """The partial sum S_N = sum_{n<=N} Z_n e^{-fn} and its convergence verdict.

    verdict is "converged" (with a geometric tail bound), "diverging" (with
    the fitted growth rate), or "inconclusive" when the last-window slope of
    the log terms is within +-slope_tol of flat.
    """

    log_partial_sum: float
    partial_sum: float
    growth_rate: float
    verdict: str
    tail_bound: float | None
    window: int
    slope_tol: float


@dataclass(frozen=True)
class HomogeneousSolution:
    """Free energy of the disorder-free model at bias h."""

    free_energy: float
    residual: float


@dataclass(frozen=True)
class FreeEnergyEstimate:
    """(1/n) log z^c_n clamped at 0, with a convergence diagnostic.

    window_spread is the max-min of (1/m) log z^c_m over m in [n/2, n]; the
    raw (unclamped) value is kept for the f_hat >= -spread sanity check.
    """

    f_hat: float
    window_spread: float
    raw: float


@dataclass(frozen=True)
class CriticalPointEstimate:
    """Bisection output: bracket (lo, hi) with raw(lo) <= 0 < raw(hi), its
    midpoint h_hat, the max-min of raw at h_hat across replicas, and the
    trail of (h, raw) pairs the bisection decided on, start ends included."""

    h_hat: float
    bracket: tuple[float, float]
    replica_spread: float
    n: int
    trail: list = field(default_factory=list)


def _lse(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) along the last axis, shifted by the max so large
    entries stay finite."""
    m = np.max(a, axis=-1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        return (m + np.log(np.sum(np.exp(a - m), axis=-1, keepdims=True)))[..., 0]


def _log_zc_rows(contact: np.ndarray, kernel: RenewalKernel) -> np.ndarray:
    """log z^c_0..n for each row of a (B, n) array of contact energies.

    The rows run site-major: buf[j, b] = z^c e^{-scale_b} at site m0 + 1 +
    j - n_max of row b, for a block of _BLOCK sites after its window.  A
    site costs one matmul of the reversed kernel with the window, for all
    rows, and one multiply by exp(contact).  At each block start every
    row's window is scaled by a power of two to a maximum in [1/2, 1), and
    the block's logs are written at once as log(sum) + contact + scale.
    When a row's window sum leaves e^{+-_SCALE_LIMIT} (or over/underflows)
    inside a block, the block is redone site by site from its first such
    site: that row alone takes the site from its stored logs by a
    log-sum-exp and restarts its window at the new normaliser.  A gap site,
    which no renewal path reaches, has z^c = 0 exactly in every row: it is
    set to 0 and never summed or rescued.  The reversed kernel view
    keeps matmul on numpy's own loop, which sums each row's window in a
    fixed order, so a row's result does not depend on its batch.
    """
    rows, n = contact.shape
    width = kernel.n_max
    unreachable = ~_reachable(kernel, n)
    gapped = bool(unreachable.any())
    wrev = kernel.weights[::-1]
    log_wrev = kernel.log_weights[::-1]
    # site j sits at index j + width; the entries before site 0 are empty
    logs = np.full((rows, n + 1 + width), -np.inf)
    logs[:, width] = 0.0
    buf = np.zeros((width + _BLOCK, rows))
    buf[width - 1] = 1.0
    acc, gain = np.empty((_BLOCK, rows)), np.empty((_BLOCK, rows))
    # per-site views, made once: slicing in the site loop costs as much as the sum
    windows, sums = [buf[i : i + width] for i in range(_BLOCK)], list(acc)
    targets, gains = list(buf[width:]), list(gain)
    # scale = base + shift * log 2: base from the last rescue, shift from the
    # power-of-two renormalisations since, so no rounding accumulates
    base, shift = np.zeros(rows), np.zeros(rows, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for m0 in range(0, n, _BLOCK):
            size = min(_BLOCK, n - m0)
            # exponent 0 leaves a zero or inf window as it is: its next site is rescued
            _, exponent = np.frexp(buf[:width].max(axis=0))
            np.ldexp(buf[:width], -exponent, out=buf[:width])
            shift += exponent
            scale = base + shift * _LN2
            block = np.ascontiguousarray(contact[:, m0 : m0 + size].T)
            np.exp(block, out=gain[:size])
            # a gap site holds exactly 0 in every row and is never summed
            gap, live = unreachable[m0 + 1 : m0 + 1 + size], range(size)
            if gapped:
                acc[:size][gap] = 0.0
                buf[width : width + size][gap] = 0.0
                live = np.flatnonzero(~gap).tolist()
            for i in live:
                np.matmul(wrev, windows[i], sums[i])
                np.multiply(sums[i], gains[i], targets[i])
            log_acc = np.log(acc[:size])
            bad = np.flatnonzero(~((np.abs(log_acc) <= _SCALE_LIMIT).all(axis=1) | gap))
            clean = int(bad[0]) if len(bad) else size
            log_acc[:clean] += block[:clean]
            log_acc[:clean] += scale
            logs[:, m0 + 1 + width : m0 + 1 + width + clean] = log_acc[:clean].T
            for i in range(clean, size):
                if gap[i]:
                    continue  # its logs stay -inf
                m = m0 + 1 + i
                np.matmul(wrev, windows[i], sums[i])
                np.multiply(sums[i], gains[i], targets[i])
                log_sum = np.log(sums[i])
                for b in np.flatnonzero(~(np.abs(log_sum) <= _SCALE_LIMIT)):
                    window = logs[b, m : m + width]
                    total = float(_lse(window + log_wrev))
                    if math.isfinite(total):
                        base[b], shift[b], scale[b] = total, 0, total
                        buf[i : i + width, b] = np.exp(window - total)
                        log_sum[b], buf[width + i, b] = 0.0, gain[i, b]
                    else:  # log z^c_m itself is infinite
                        log_sum[b], buf[width + i, b] = total, 0.0
                logs[:, m + width] = log_sum + block[i] + scale
            buf[:width] = buf[size : size + width]
    return logs[:, width:]


def _reachable(kernel: RenewalKernel, n: int) -> np.ndarray:
    """reach[m]: some renewal path ends at site m, for m = 0..n.

    With finite contacts z^c_m = 0 exactly where reach[m] is False.  A path
    ending at m is a sum of gaps, so with g the shortest gap, m is reached
    iff it is at least the least reached site of its residue mod g; those g
    least sites are shortest paths over the longer gaps (Bellman-Ford).
    """
    gaps = np.flatnonzero(kernel.weights) + 1
    g = int(gaps[0])
    least = np.full(g, np.inf)
    least[0] = 0.0
    for _ in range(g - 1):
        for k in gaps[1:]:
            np.minimum(least, np.roll(least, k) + k, out=least)
    m = np.arange(n + 1)
    return m >= least[m % g]


def _contact_rows(omega: np.ndarray, beta: float, hs) -> np.ndarray:
    """beta * omega_m + h at every site of omega, one row per h.

    An overflow gives inf without a warning: pinned_recursions refuses
    non-finite contacts with a ValueError, which is the caller's answer.
    """
    with np.errstate(over="ignore"):
        return beta * omega + np.asarray(hs, dtype=float)[:, None]


def pinned_recursions(contact, kernel: RenewalKernel) -> list[PartitionTable]:
    """log z^c_0..n for each row of a (B, n) array of contact energies.

    Row b holds beta*omega_m + h for m = 1..n, so rows may mix disorder
    draws, betas and biases.  The rows run in engine calls of at most
    _CELLS // (n + 1 + n_max) rows; a row's table does not depend on the
    other rows of its call, so any batching returns the same tables.
    """
    contact = np.asarray(contact, dtype=float)
    if contact.ndim != 2:
        raise ValueError("contact energies must be a (rows, n) array")
    if not np.isfinite(contact).all():
        raise ValueError("contact energies must be finite")
    n = contact.shape[1]
    step = max(1, _CELLS // (n + 1 + kernel.n_max))
    return [PartitionTable(n=n, kernel=kernel, log_zc=log_zc)
            for start in range(0, len(contact), step)
            for log_zc in _log_zc_rows(contact[start : start + step], kernel)]


def free_partition(table: PartitionTable) -> np.ndarray:
    """log Z_0..n from the pinned column via the last-renewal decomposition.

    log Z_m is a log-sum-exp of log z^c_{m-j} + log P(tau_1 > j) over
    j < min(n_max, n + 1), taken over sliding windows in blocks of rows.
    """
    width = min(table.kernel.n_max, table.n + 1)
    padded = np.concatenate([np.full(width - 1, -np.inf), table.log_zc])
    windows = sliding_window_view(padded, width)
    log_tail_rev = table.kernel.log_tail[width - 1 :: -1]
    block = max(1, 2 ** 15 // width)
    return np.concatenate([_lse(windows[start : start + block] + log_tail_rev)
                           for start in range(0, table.n + 1, block)])


def grand_canonical(table: PartitionTable, f: float) -> GrandCanonicalReport:
    """Sum Z_n e^{-fn} over n <= table.n, with a convergence verdict.

    The verdict comes from the least-squares slope of the finite log terms
    over the trailing window of max(8, min(400, (n+1)//4)) terms: geometric
    decay gives "converged" plus a tail bound term_N * r/(1-r) at a
    noise-inflated ratio r, sustained growth gives "diverging", anything
    flatter than GC_SLOPE_TOL is "inconclusive".
    """
    log_terms = table.log_z - f * np.arange(table.n + 1)
    w = max(8, min(400, (table.n + 1) // 4))
    growth_rate, verdict, tail_bound = _tail_verdict(log_terms, w)
    log_sum = float(_lse(log_terms))
    with np.errstate(over="ignore"):
        partial = float(np.exp(log_sum))
    return GrandCanonicalReport(log_partial_sum=log_sum, partial_sum=partial,
                                growth_rate=growth_rate, verdict=verdict,
                                tail_bound=tail_bound, window=w, slope_tol=GC_SLOPE_TOL)


def _tail_verdict(log_terms: np.ndarray, w: int) -> tuple[float, str, float | None]:
    """(growth rate, verdict, tail bound) from the last w log terms."""
    tail_terms = log_terms[-w:]
    finite = np.isfinite(tail_terms)
    if finite.sum() < max(2, w // 4):
        # terms underflow to exact zero: the series has effectively terminated
        return float("-inf"), "converged", 0.0
    x = np.arange(len(tail_terms), dtype=float)[finite]
    y = tail_terms[finite]
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    slope_se = math.sqrt(max(float(np.sum(resid ** 2)), 1e-300) / max(len(y) - 2, 1)
                         / float(np.sum((x - x.mean()) ** 2)))
    if slope < -GC_SLOPE_TOL:
        ratio = math.exp(min(slope + 3.0 * slope_se, -1e-12))
        last_finite = int(np.nonzero(np.isfinite(log_terms))[0][-1])
        bound = math.exp(float(log_terms[last_finite])) * ratio / (1.0 - ratio)
        return float(slope), "converged", bound
    return float(slope), "diverging" if slope > GC_SLOPE_TOL else "inconclusive", None


def free_energy_estimate(table: PartitionTable) -> FreeEnergyEstimate:
    """f_hat = max(0, (1/n) log z^c_n) plus the trailing-window spread."""
    n = table.n
    if n < 2:
        raise ValueError("free energy estimation needs n >= 2")
    raw = float(table.log_zc[n] / n)
    ms = np.arange(max(1, n // 2), n + 1)
    vals = table.log_zc[ms] / ms
    return FreeEnergyEstimate(f_hat=max(0.0, raw),
                              window_spread=float(vals.max() - vals.min()),
                              raw=raw)


def _kernel_laplace(kernel: RenewalKernel, f: float) -> float:
    """sum_k K(k) e^{-f k}, exactly rounded."""
    return math.fsum(kernel.weights * np.exp(-f * np.arange(1.0, kernel.n_max + 1)))


def homogeneous_free_energy(kernel: RenewalKernel, h: float) -> HomogeneousSolution:
    """Root of sum_n K(n) e^{-F n} = e^{-h}; F = 0 in the delocalized phase.

    The left side decreases strictly from 1 to 0 on F >= 0 and the root is
    at most h, so plain bisection on [0, h] to 1e-12 is enough.
    """
    if h <= 0:
        return HomogeneousSolution(free_energy=0.0, residual=0.0)
    target = math.exp(-h)

    def phi(f_val):
        return _kernel_laplace(kernel, f_val) - target

    lo, hi = 0.0, h
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return HomogeneousSolution(free_energy=root, residual=abs(phi(root)))


def homogeneous_series_verdict(kernel: RenewalKernel, h: float, f: float) -> str:
    """Exact verdict on sum_n Z_n e^{-fn} of the disorder-free model at bias h.

    The pinned series is 1 / (1 - e^h L(f)), L(f) = sum_k K(k) e^{-fk}, and
    the free one that times a finite tail sum: both converge iff e^h L(f) < 1.
    """
    laplace = _kernel_laplace(kernel, f)
    return "converged" if laplace == 0.0 or h < -math.log(laplace) else "diverging"


def annealed_critical_point(spec: DisorderSpec, beta: float) -> float:
    """h_c^a(beta) = -lambda(beta): averaging the disorder shifts h by lambda."""
    return -log_mgf(spec, beta)


def quenched_critical_point_estimate(spec: DisorderSpec, kernel: RenewalKernel,
                                     beta: float, n: int, replicas: int,
                                     tol: float, seed: int = 0) -> CriticalPointEstimate:
    """The quenched search of quenched_critical_point_estimates for one
    (beta, seed); raises its BracketError."""
    (est,) = quenched_critical_point_estimates(spec, kernel, [(beta, seed)], n,
                                               replicas, tol)
    if isinstance(est, BracketError):
        raise est
    return est


def quenched_critical_point_estimates(spec: DisorderSpec, kernel: RenewalKernel,
                                      searches, n: int, replicas: int,
                                      tol: float) -> list:
    """Bisect h for the sign change of raw = (1/n) log z^c_n on one disorder
    draw, for each (beta, seed) of `searches`.

    For fixed disorder log z^c_n rises strictly in h (every path carries a
    contact factor e^h), so the bracket holds this sample's root exactly.
    It starts from the annealed critical point, a rigorous lower bound, and
    the first of CRIT_H_HI + 0.5 i, i = 0..4, with raw > 0, and narrows to
    width <= tol.  The searches run in lockstep as a multisection: each pass
    is one pinned_recursions call for every unfinished search, evaluating
    every midpoint of its next _MULTISECTION_LEVELS bisection levels.  The
    first pass evaluates the six start ends and, on speculation, the
    midpoints below CRIT_H_HI; they are dropped when a higher upper end
    wins.  So each bracket and trail is the one the one-h-at-a-time
    bisection gives.  The spread of raw at the midpoint across `replicas`
    independent sequences is reported as the error bar.

    Returns one entry per search, in order: its CriticalPointEstimate, or
    the BracketError that ended it, which leaves the other searches running.
    """
    if not (tol > 0 and replicas >= 1):
        raise ValueError("need tol > 0 and replicas >= 1")
    if n < 2:
        raise ValueError("free energy estimation needs n >= 2")

    def omega(seed, r):
        return sample_disorder(spec, n, derive_seed(seed, "crit-omega", r))

    def raws(blocks):
        """raw at each row of each contact block, one engine pass for all."""
        if not blocks:
            return []
        tables = iter(pinned_recursions(np.concatenate(blocks), kernel))
        return [[float(next(tables).log_zc[n] / n) for _ in block] for block in blocks]

    draws = [omega(seed, 0) for _, seed in searches]
    starts = [[annealed_critical_point(spec, beta)] + [CRIT_H_HI + 0.5 * i for i in range(5)]
              for beta, _ in searches]
    speculative = [_midpoints(hs[0], CRIT_H_HI, tol) for hs in starts]
    first = raws([_contact_rows(draw, beta, hs + mids)
                  for (beta, _), draw, hs, mids in zip(searches, draws, starts, speculative)])
    out = [None] * len(searches)
    brackets, trails = {}, {}  # of the searches still running, by index
    for i, (hs, mids, vals) in enumerate(zip(starts, speculative, first)):
        lo = hs[0]
        if vals[0] > 0:
            out[i] = BracketError(lo, CRIT_H_HI,
                                  "already localized at the annealed critical point")
            continue
        trail = [(lo, vals[0])]
        for h, raw in zip(hs[1:], vals[1:6]):
            trail.append((h, raw))
            if raw > 0:
                break
        else:
            out[i] = BracketError(lo, hs[-1], "no localized phase found")
            continue
        hi = trail[-1][0]
        if hi == CRIT_H_HI:
            lo, hi = _descend(lo, hi, dict(zip(mids, vals[6:])), trail, tol)
        brackets[i], trails[i] = (lo, hi), trail
    while todo := [i for i, (lo, hi) in brackets.items() if hi - lo > tol]:
        mids = [_midpoints(*brackets[i], tol) for i in todo]
        vals = raws([_contact_rows(draws[i], searches[i][0], hs)
                     for i, hs in zip(todo, mids)])
        for i, hs, v in zip(todo, mids, vals):
            brackets[i] = _descend(*brackets[i], dict(zip(hs, v)), trails[i], tol)
    h_hats = {i: 0.5 * (lo + hi) for i, (lo, hi) in brackets.items()}
    spreads = [[0.0]] * len(h_hats)
    if replicas > 1:
        # one row per disorder draw
        spreads = raws([searches[i][0] * np.stack([omega(searches[i][1], r)
                                                   for r in range(replicas)]) + h_hat
                        for i, h_hat in h_hats.items()])
    for (i, h_hat), vals in zip(h_hats.items(), spreads):
        out[i] = CriticalPointEstimate(h_hat=h_hat, bracket=brackets[i],
                                       replica_spread=float(max(vals) - min(vals)), n=n,
                                       trail=trails[i])
    return out


def _midpoints(lo: float, hi: float, tol: float) -> list[float]:
    """Every midpoint the next _MULTISECTION_LEVELS bisection levels of
    (lo, hi) can visit, by the bisection's own arithmetic."""
    mids, level = [], [(lo, hi)]
    for _ in range(_MULTISECTION_LEVELS):
        below = []
        for a, b in level:
            if b - a > tol:
                mid = 0.5 * (a + b)
                mids.append(mid)
                below += [(a, mid), (mid, b)]
        level = below
    return mids


def _descend(lo: float, hi: float, raw_at: dict, trail: list,
             tol: float) -> tuple[float, float]:
    """Take the next _MULTISECTION_LEVELS bisection steps from raw_at,
    appending each decided (h, raw) to trail."""
    for _ in range(_MULTISECTION_LEVELS):
        if not hi - lo > tol:
            break
        mid = 0.5 * (lo + hi)
        trail.append((mid, raw_at[mid]))
        if raw_at[mid] > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi

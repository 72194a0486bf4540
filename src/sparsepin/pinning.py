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
row, and runs it in one engine call.  An engine call of 32 rows costs
about twice as much per site as one of a single row, so the quenched
critical-point searches run in lockstep.  Each (beta, seed) search is a
plain bisection written as a generator that asks for the raws it lacks,
_MULTISECTION_LEVELS levels of midpoints at a time (its first request also
holds its start ends and, on speculation, the levels below CRIT_H_HI); a
driver answers every running search's request with one engine call a pass.
One estimate serves every finite-n free energy (`pinning`, `pinning
--critical`, scan's case-1 test): the mean and standard error of
raw = (1/n) log z^c_n over the FE_ROWS fresh disorder rows of _fresh_rows.
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
FE_ROWS = 16  # fresh disorder rows per free-energy estimate
CRIT_H_HI = 0.25  # first upper end tried by the quenched bisection
_SCALE_LIMIT = 200.0  # a window sum outside e^{+-200} is rebuilt from the logs
_STORE_LIMIT = 700.0  # nor may a stored window value leave e^{+-700}, near subnormal
_BLOCK = 64  # sites between window renormalisations
_LN2 = math.log(2.0)
_MULTISECTION_LEVELS = 3  # bisection levels evaluated per batched pass


class BracketError(RuntimeError):
    """Bisection could not bracket the sign change of the free energy;
    trail holds the (h, raw) pairs it decided on before it stopped."""

    def __init__(self, h_lo: float, h_hi: float, message: str, trail=()):
        super().__init__(f"{message} (scanned h in [{h_lo}, {h_hi}])")
        self.scanned = (h_lo, h_hi)
        self.trail = list(trail)


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
    """Mean and standard error of raw = (1/n) log z^c_n over `rows`
    independent disorder rows, and f_hat = max(0, raw_mean).

    log z^c is superadditive (Giacomin, Random Polymer Models, 2007), so
    E raw_n <= F at every n: raw_mean estimates F from below, and raw_se is
    its error bar.
    """

    f_hat: float
    raw_mean: float
    raw_se: float
    rows: int


@dataclass(frozen=True)
class CriticalPointEstimate:
    """Bisection output: bracket (lo, hi) with raw(lo) <= 0 < raw(hi), its
    midpoint h_hat, and the trail of (h, raw) pairs the bisection decided
    on, start ends included."""

    h_hat: float
    bracket: tuple[float, float]
    n: int
    trail: list = field(default_factory=list)


def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of the mean; nan where x is too short."""
    mean = float(np.mean(x)) if len(x) else math.nan
    stderr = float(np.std(x, ddof=1) / math.sqrt(len(x))) if len(x) > 1 else math.nan
    return mean, stderr


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
    inside a block, or the value it would store, sum * exp(contact), leaves
    e^{+-_STORE_LIMIT}, the block is redone site by site from its first such
    site: that row alone takes the site from its stored logs by a
    log-sum-exp and restarts its window at log z^c of that site, stored as
    1.  So no window value is stored subnormal, where the next block-start
    renormalisation would scale its lost bits up as if exact.  A gap site,
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
            log_new = log_acc + block  # log of the stored window value
            bad = np.flatnonzero(~(_in_range(log_acc, log_new).all(axis=1) | gap))
            clean = int(bad[0]) if len(bad) else size
            log_new[:clean] += scale
            logs[:, m0 + 1 + width : m0 + 1 + width + clean] = log_new[:clean].T
            for i in range(clean, size):
                if gap[i]:
                    continue  # its logs stay -inf
                m = m0 + 1 + i
                np.matmul(wrev, windows[i], sums[i])
                np.multiply(sums[i], gains[i], targets[i])
                log_sum = np.log(sums[i])
                log_new = log_sum + block[i]
                logs[:, m + width] = log_new + scale
                for b in np.flatnonzero(~_in_range(log_sum, log_new)):
                    window = logs[b, m : m + width]
                    log_zc = float(_lse(window + log_wrev)) + block[i, b]
                    logs[b, m + width] = log_zc
                    if math.isfinite(log_zc):
                        # the window restarts at log z^c_m, stored as 1
                        base[b], shift[b], scale[b] = log_zc, 0, log_zc
                        buf[i : i + width, b] = np.exp(window - log_zc)
                        buf[width + i, b] = 1.0
                    else:  # log z^c_m itself is infinite
                        buf[width + i, b] = 0.0
            buf[:width] = buf[size : size + width]
    return logs[:, width:]


def _in_range(log_sum: np.ndarray, log_new: np.ndarray) -> np.ndarray:
    """Where a site's scaled window sum and its stored value z^c e^{-scale}
    are both safely inside the float range; False where either is nan."""
    return (np.abs(log_sum) <= _SCALE_LIMIT) & (np.abs(log_new) <= _STORE_LIMIT)


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


def _require_reachable(kernel: RenewalKernel, n: int, key: str) -> None:
    """Refuse a length n >= 0 that no renewal path reaches: z^c_n = 0 there,
    so raw = (1/n) log z^c_n is -inf at every h, which no estimate or search
    can use.  key names n in the error; a negative n is left to the caller's
    range check."""
    if n >= 0 and not _reachable(kernel, n)[n]:
        raise ValueError(f"{key} = {n}: no renewal path of this kernel ends at site {n}, "
                         "so log z^c_n is -inf at every h")


def _contact_rows(omega: np.ndarray, beta: float, hs) -> np.ndarray:
    """beta * omega_m + h at every site of omega, one row per h.

    An overflow gives inf without a warning: pinned_recursions refuses
    non-finite contacts with a ValueError, which is the caller's answer.
    """
    with np.errstate(over="ignore"):
        return beta * omega + np.asarray(hs, dtype=float)[:, None]


def _fresh_rows(spec: DisorderSpec, n: int, beta: float, hs, seed: int) -> list[np.ndarray]:
    """FE_ROWS disorder rows of length n, drawn as one array from seed, as
    one contact block per row, one contact row per h."""
    omegas = sample_disorder(spec, FE_ROWS * n, seed)
    return [_contact_rows(omega, beta, hs) for omega in omegas.reshape(FE_ROWS, n)]


def pinned_recursions(contact, kernel: RenewalKernel) -> list[PartitionTable]:
    """log z^c_0..n for each row of a (B, n) array of contact energies.

    Row b holds beta*omega_m + h for m = 1..n, so rows may mix disorder
    draws, betas and biases.  All rows run in one engine call; a row's
    table does not depend on the other rows of its call.
    """
    contact = np.asarray(contact, dtype=float)
    if contact.ndim != 2:
        raise ValueError("contact energies must be a (rows, n) array")
    if not np.isfinite(contact).all():
        raise ValueError("contact energies must be finite")
    n = contact.shape[1]
    return [PartitionTable(n=n, kernel=kernel, log_zc=log_zc)
            for log_zc in _log_zc_rows(contact, kernel)]


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


def free_energy_estimate(tables) -> FreeEnergyEstimate:
    """The FreeEnergyEstimate of a list of tables of length n, one per
    independent disorder row, such as the FE_ROWS rows of _fresh_rows."""
    if not tables or tables[0].n < 2:
        raise ValueError("free energy estimation needs n >= 2")
    raws = np.array([t.log_zc[t.n] / t.n for t in tables])
    # raws beyond 2^500 (beta near 1e150) are scaled by an exact power of
    # two, so that their squares stay finite
    scale = 2.0 ** max(0, int(np.frexp(np.abs(raws).max())[1]) - 500)
    with np.errstate(invalid="ignore"):  # raw = -inf where no path ends at n
        mean, se = _mean_stderr(raws / scale)
    return FreeEnergyEstimate(f_hat=max(0.0, mean * scale), raw_mean=mean * scale,
                              raw_se=se * scale, rows=len(tables))


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
                                     beta: float, n: int, tol: float,
                                     seed: int = 0) -> CriticalPointEstimate:
    """The quenched search of quenched_critical_point_estimates for one
    (beta, seed); raises its BracketError."""
    (est,) = quenched_critical_point_estimates(spec, kernel, [(beta, seed)], n, tol)
    if isinstance(est, BracketError):
        raise est
    return est


def quenched_critical_point_estimates(spec: DisorderSpec, kernel: RenewalKernel,
                                      searches, n: int, tol: float) -> list:
    """Bisect h for the sign change of raw = (1/n) log z^c_n on one disorder
    draw, for each (beta, seed) of `searches`.

    For fixed disorder log z^c_n rises strictly in h (every path carries a
    contact factor e^h), so the bracket holds this sample's root exactly.
    Each search is the plain bisection of _bisection, a generator that asks
    for the raws it lacks; this driver draws each search's disorder and
    runs the searches in lockstep, answering every running search's request
    with one pinned_recursions call per pass.  A request holds the midpoints
    of the next _MULTISECTION_LEVELS bisection levels, and the first also
    the start ends and, on speculation, the levels below CRIT_H_HI.

    Returns one entry per search, in order: its CriticalPointEstimate, or
    the BracketError that ended it, carrying the trail so far, which leaves
    the other searches running.
    """
    if not tol > 0:
        raise ValueError("need tol > 0")
    if n < 2:
        raise ValueError("free energy estimation needs n >= 2")
    draws = [sample_disorder(spec, n, derive_seed(seed, "crit-omega", 0))
             for _, seed in searches]
    runs = [_bisection(annealed_critical_point(spec, beta), n, tol) for beta, _ in searches]
    out = [None] * len(searches)
    answers = dict.fromkeys(range(len(searches)))  # raws to send, by running search
    while True:
        requests = {}
        for i, raws in answers.items():
            try:
                requests[i] = runs[i].send(raws)
            except StopIteration as stop:
                out[i] = stop.value
        if not requests:
            return out
        blocks = [_contact_rows(draws[i], searches[i][0], hs) for i, hs in requests.items()]
        tables = iter(pinned_recursions(np.concatenate(blocks), kernel))
        answers = {i: [float(next(tables).log_zc[n] / n) for _ in hs]
                   for i, hs in requests.items()}


def _bisection(lo: float, n: int, tol: float):
    """One quenched search from the annealed end lo, as a generator: it
    yields each list of h whose raws it needs, is sent back those raws, and
    returns its CriticalPointEstimate or BracketError.

    The upper end is the first of CRIT_H_HI + 0.5 i, i = 0..4, with raw > 0,
    and the bracket narrows to width <= tol.  The first request holds the
    six start ends and, on speculation, the midpoints below CRIT_H_HI, which
    go unused when a higher upper end wins; each later one, made when the
    next midpoint's raw is not yet held, the midpoints of the next
    _MULTISECTION_LEVELS levels.  A bracket still wider than tol
    whose ends are adjacent floats cannot narrow, and ends the search with
    an error.  So does a root below `sparse`, the power of two between
    -2^53 tol and -2^52 tol below which adjacent floats lie more than tol
    apart (at beta = 1e20 the root is of order -1e20, where they are 16384
    or more apart): when lo lies below that bound, the first request holds
    it too, and a positive raw there ends the search with that point last
    in its trail.  Otherwise the point goes unused, so every bracket and
    trail is the one the one-h-at-a-time bisection gives.
    """
    ends = [CRIT_H_HI + 0.5 * i for i in range(5)]
    sparse = -math.ldexp(1.0, math.frexp(tol)[1] + 52)
    probe = [sparse] if lo < sparse else []
    hs = [lo] + ends + _midpoints(lo, CRIT_H_HI, tol) + probe
    raw_at = dict(zip(hs, (yield hs)))
    trail = [(lo, raw_at[lo])]
    if raw_at[lo] > 0:
        return BracketError(lo, CRIT_H_HI, "already localized at the annealed critical point",
                            trail)
    for hi in ends:
        trail.append((hi, raw_at[hi]))
        if raw_at[hi] > 0:
            break
    else:
        return BracketError(lo, hi, "no localized phase found", trail)
    if probe and raw_at[sparse] > 0:
        trail.append((sparse, raw_at[sparse]))
        return BracketError(lo, sparse, "the sign change lies where floats are more "
                            "than tol apart", trail)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return BracketError(lo, hi, "no float lies between the bracket's ends", trail)
        if mid not in raw_at:
            hs = _midpoints(lo, hi, tol)
            raw_at.update(zip(hs, (yield hs)))
        trail.append((mid, raw_at[mid]))
        if raw_at[mid] > 0:
            hi = mid
        else:
            lo = mid
    return CriticalPointEstimate(h_hat=0.5 * (lo + hi), bracket=(lo, hi), n=n, trail=trail)


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

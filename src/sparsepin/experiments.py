"""End-to-end experiments tying the walk and the pinning model together.

The headline check equates two pipelines that share only the disorder and
the gap kernel: the renewal-averaged Monte Carlo count of visits to the
origin for the drifted walk (left side), and the grand-canonical partial
sum of the pinning partition function (right side).  Tying the absorption
level to the series length, R = N + 1, makes the two sides equal in
expectation at every finite N, so the Monte Carlo error is the only gap to
account for; the geometric tail bound on S_inf - S_N is reported beside it.

The regime scan checks case 1 (per-environment transience between the
quenched curve and 0) by the growth of the scale sum W over sampled
environments.  Only beta > 0 and -lambda(beta) < h < 0 can be case 1,
and that set is known before the quenched search, so with two usable
CPUs one forked helper computes the growth of that whole set while the
caller runs the search, the classification and the series verdicts.
Values for points that end up in another case are thrown away; with one
usable CPU nothing is forked and only case-1 points are checked.  The
reports are the same either way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._rng import derive_seed
from .environment import (DisorderSpec, RenewalKernel, _renewal_ends, kernel_mean,
                          log_mgf, sample_disorder, sample_environment)
from .pinning import (BracketError, GrandCanonicalReport, _contact_rows, _lse,
                      free_energy_estimate, grand_canonical, homogeneous_free_energy,
                      homogeneous_series_verdict, pinned_recursions,
                      quenched_critical_point_estimates)
from .walk import (Potential, WalkParams, _mean_stderr, _potential_rows, _run_workers,
                   _usable_cpus, build_potential, expected_visits_exact,
                   simulate_visit_counts)

__all__ = [
    "KeyRelationConfig",
    "KeyRelationReport",
    "TauMeanBoundReport",
    "ScanConfig",
    "RegimePoint",
    "RegimeReport",
    "TransienceReport",
    "verify_key_relation",
    "tau_mean_lower_bound",
    "regime_scan",
    "annealed_transience_check",
]

TRANSIENCE_STEP_BUDGET = 10 ** 6
GROWTH_ENVS = 8  # environments per case-1 visit-sum growth check
TAU_BLOCK = 25  # renewal sets per batched potential build in verify


@dataclass(frozen=True)
class KeyRelationConfig:
    """Inputs of the visit-count / partition-sum comparison."""

    kernel: RenewalKernel
    disorder: DisorderSpec
    beta: float
    h: float
    f: float
    n_tau: int = 1000
    walk_replicas: int = 1000
    seed: int = 0
    n_series: int | None = None  # series length N; R = N + 1.  None = auto

    def resolved_n(self) -> int:
        if self.n_series is not None:
            return self.n_series
        drift = max(self.f, 0.05)
        return max(8 * self.kernel.n_max, int(math.ceil(60.0 / drift)))


@dataclass(frozen=True)
class KeyRelationReport:
    """Both sides of the identity with their uncertainties and the verdict.

    lhs holds the mean and stderr of the renewal-averaged visit count, rhs
    the grand-canonical partial sum S_N with its verdict.
    """

    n_series: int
    r_absorb: int
    lhs: dict
    rhs: GrandCanonicalReport
    abs_difference: float
    tolerance: float
    verdict: str  # pass | fail | inconclusive


def verify_key_relation(cfg: KeyRelationConfig) -> KeyRelationReport:
    """Compare renewal-averaged MC visit counts against the partition sum.

    One disorder sequence is shared by both sides (the average runs over
    renewal locations only).  The left side averages, over n_tau sampled
    renewal sets, the mean visit count of walk_replicas folded trajectories
    absorbed at R = N + 1; its expectation is exactly the partial sum
    S_N = sum_{n<=N} Z_n e^{-fn} at every N, so the verdict compares the two
    at 3 Monte Carlo stderr; the geometric tail bound on S_inf - S_N is
    reported as separate evidence.  A non-convergent right side yields
    verdict "inconclusive", never "fail", and runs no walks.
    """
    if cfg.n_tau < 2:
        raise ValueError("need n_tau >= 2 for a standard error")
    n = cfg.resolved_n()
    omega = sample_disorder(cfg.disorder, n, derive_seed(cfg.seed, "omega"))
    (table,) = pinned_recursions(_contact_rows(omega, cfg.beta, [cfg.h]), cfg.kernel)
    gc = grand_canonical(table, cfg.f)
    converged = gc.verdict == "converged"
    # a non-convergent series leaves both sides infinite (or undecidable),
    # so no MC time is spent on it
    nan = float("nan")
    lhs_mean, lhs_se = _mc_visits_over_tau(cfg, omega, n) if converged else (nan, nan)
    diff, tol = abs(lhs_mean - gc.partial_sum), 3.0 * lhs_se
    verdict = ("pass" if diff <= tol else "fail") if converged else "inconclusive"
    return KeyRelationReport(n_series=n, r_absorb=n + 1,
                             lhs={"mean": lhs_mean, "stderr": lhs_se}, rhs=gc,
                             abs_difference=diff, tolerance=tol, verdict=verdict)


def _mc_visits_over_tau(cfg: KeyRelationConfig, omega: np.ndarray,
                        n: int) -> tuple[float, float]:
    """Mean/stderr over renewal replicas of per-replica MC visit means."""
    counts = simulate_visit_counts(_renewal_potentials(cfg, omega, n), n + 1,
                                   cfg.walk_replicas, derive_seed(cfg.seed, "walk"))
    return _mean_stderr(counts.mean(axis=1))


def _renewal_potentials(cfg: KeyRelationConfig, omega: np.ndarray, n: int):
    """Potentials of the n_tau renewal sets over the disorder omega, lazily.

    The sets are sampled and their V rows built TAU_BLOCK at a time, with
    no SparseEnvironment per set.  Set t keeps the substream that
    sample_renewal(kernel, n, derive_seed(seed, "tau", t)) uses, so its
    potential is bit for bit the one build_potential gives.
    """
    params = WalkParams(beta=cfg.beta, h=cfg.h, f=cfg.f)
    for start in range(0, cfg.n_tau, TAU_BLOCK):
        seeds = [derive_seed(cfg.seed, "tau", t)
                 for t in range(start, min(start + TAU_BLOCK, cfg.n_tau))]
        for values in _potential_rows(_renewal_ends(cfg.kernel, n, seeds), omega, params):
            yield Potential(values=values)


@dataclass(frozen=True)
class TauMeanBoundReport:
    """Partial sums at f = 0 against the exact mean gap E(tau_1)."""

    n_terms: int
    partial_sum: float
    tau_mean: float
    margin: float
    term_violations: int
    passed: bool


def tau_mean_lower_bound(kernel: RenewalKernel, disorder: DisorderSpec, beta: float,
                         h: float, n_terms: int | None = None,
                         seed: int = 0) -> TauMeanBoundReport:
    """Check sum_{n<=N} Z_n >= E(tau_1) - slack at zero drift, N >= n_max.

    Term-wise Z_n >= P(tau_1 > n) because the empty renewal path alone
    contributes the tail; summed to any N >= n_max that already gives the
    mean gap, so the bound must hold with at most float slack.
    """
    n = n_terms if n_terms is not None else max(kernel.n_max, 64)
    if n < kernel.n_max:
        raise ValueError("need n_terms >= n_max for the saturated bound")
    omega = sample_disorder(disorder, n, derive_seed(seed, "omega"))
    (table,) = pinned_recursions(_contact_rows(omega, beta, [h]), kernel)
    s = math.exp(float(_lse(table.log_z)))
    mean_gap = kernel_mean(kernel)
    # beyond n_max the tail is 0, so no log Z_m can fall below it
    viol = int(np.count_nonzero(
        table.log_z[: kernel.n_max + 1] < kernel.log_tail - 1e-12))
    margin = s - mean_gap
    return TauMeanBoundReport(n_terms=n, partial_sum=s, tau_mean=mean_gap, margin=margin,
                              term_violations=viol,
                              passed=(margin >= -1e-9 * max(1.0, mean_gap) and viol == 0))


@dataclass(frozen=True)
class ScanConfig:
    """Budgets for the regime scan."""

    kernel: RenewalKernel
    disorder: DisorderSpec
    n_fe: int = 10000          # disorder length for free-energy bisection
    crit_tol: float = 0.04
    n_gc: int = 3000           # series length for convergence verdicts
    eps_small: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (self.crit_tol > 0 and self.eps_small > 0
                and min(self.n_fe, self.n_gc) >= 2):
            raise ValueError("need crit_tol > 0, eps_small > 0, n_fe >= 2 and n_gc >= 2")


@dataclass(frozen=True)
class RegimePoint:
    """Classification of one (beta, h) grid point with its diagnostics."""

    beta: float
    h: float
    h_c_annealed: float
    bracket: tuple[float, float] | None
    case: str
    diagnostics: dict = field(default_factory=dict)
    consistent: bool = True


@dataclass(frozen=True)
class RegimeReport:
    points: list
    critical: list = field(default_factory=list)  # one quenched search per beta

    def cases(self) -> dict:
        return {(p.beta, p.h): p.case for p in self.points}


def regime_scan(beta_grid, h_grid, cfg: ScanConfig) -> RegimeReport:
    """Classify each (beta, h) against the annealed curve -lambda(beta) and
    the quenched bracket (quenched_critical_point_estimates at n_fe, crit_tol,
    every beta > 0 in one lockstep search).

    case1: between the quenched bracket and 0 (walk still transient per
    environment, renewal-averaged count diverging below the free energy);
    case2: between the annealed curve and the bracket (quenched sums finite,
    disorder-averaged sums diverging); case3: below the annealed curve
    (everything finite).  Points inside the bracket are "unresolved", exact
    ties with the annealed curve "boundary", h >= 0 "outside"; at beta = 0
    the curves merge into "case23_merged".  `consistent` says whether the
    quenched series verdicts on a separate n_gc-long disorder row agree
    with the label; those at beta = 0 are exact and only recorded, and the
    annealed ones follow from the label.  The report's `critical` list
    holds each beta's bracket and bisection trail (or the bracket error).

    Every case-1 point also gets its visit-sum growth (_visit_sum_growth).
    With two usable CPUs a forked helper computes it, on speculation, for
    every point with beta > 0 and -lambda(beta) < h < 0, the only points
    _classify can call case 1, while this process runs everything else;
    it joins the helper only when all other diagnostics are done.  With one
    usable CPU, or no such point, nothing is forked and the growth is
    computed here for the case-1 points alone.  The report is the same.
    """
    candidates = list(dict.fromkeys(
        (beta, h) for beta in beta_grid if beta > 0
        for h in h_grid if -log_mgf(cfg.disorder, beta) < h < 0))
    growth = {}
    if candidates and _usable_cpus() > 1:
        import mmap  # here, so importing sparsepin stays as fast as before

        shared = np.frombuffer(mmap.mmap(-1, 8 * len(candidates)))
        reports = []

        def run(worker: int) -> None:
            if worker:
                _speculative_growth(cfg, candidates, shared)
            else:
                reports.append(_quenched_scan(beta_grid, h_grid, cfg))

        _run_workers(run, 2)
        (report,) = reports
        growth = dict(zip(candidates, shared.tolist()))
    else:
        report = _quenched_scan(beta_grid, h_grid, cfg)
    for i, p in enumerate(report.points):
        if p.case == "case1":
            g = growth.get((p.beta, p.h), math.nan)
            if math.isnan(g):  # not computed, or it raised or warned in the helper
                g = _visit_sum_growth(cfg, p.beta, p.h)
            p.diagnostics["visit_sum_growth"] = g
            report.points[i] = replace(p, consistent=p.consistent and g < 0.05)
    return report


def _quenched_scan(beta_grid, h_grid, cfg: ScanConfig) -> RegimeReport:
    """regime_scan without the visit-sum growth of its case-1 points."""
    # every beta's quenched search in one lockstep multisection; only the
    # brackets are used, so no replica spread is computed
    searches = [(beta, derive_seed(cfg.seed, "crit", i_beta))
                for i_beta, beta in enumerate(beta_grid) if beta > 0]
    found = iter(quenched_critical_point_estimates(cfg.disorder, cfg.kernel, searches,
                                                   cfg.n_fe, 1, cfg.crit_tol))
    critical, cases, rows = [], [], []
    blocks = [np.empty((0, cfg.n_gc))]
    for i_beta, beta in enumerate(beta_grid):
        search = {"beta": beta, "bracket": None, "trail": [], "error": None}
        est = next(found) if beta > 0 else None
        if isinstance(est, BracketError):
            search["error"] = str(est)
        elif est is not None:
            search.update(bracket=est.bracket, trail=est.trail)
        critical.append(search)
        h_ann = -log_mgf(cfg.disorder, beta)
        cases.append([_classify(beta, h, h_ann, search["bracket"]) for h in h_grid])
        omega_row = sample_disorder(cfg.disorder, cfg.n_gc,
                                    derive_seed(cfg.seed, "scan-omega", i_beta))
        quenched = [h for h, case in zip(h_grid, cases[-1]) if case in ("case1", "case2")]
        blocks.append(beta * omega_row + np.asarray(quenched, dtype=float)[:, None])
        rows += [(i_beta, h) for h in quenched]
    # the quenched tables of the whole grid come from one engine pass
    tables = dict(zip(rows, pinned_recursions(np.concatenate(blocks), cfg.kernel)))
    points = []
    for i_beta, (beta, search) in enumerate(zip(beta_grid, critical)):
        lam = log_mgf(cfg.disorder, beta)
        for h, case in zip(h_grid, cases[i_beta]):
            diag, ok = _point_diagnostics(cfg, beta, h, lam, case,
                                          tables.get((i_beta, h)), search["bracket"])
            points.append(RegimePoint(beta=beta, h=h, h_c_annealed=-lam,
                                      bracket=search["bracket"], case=case,
                                      diagnostics=diag, consistent=ok))
    return RegimeReport(points=points, critical=critical)


def _classify(beta: float, h: float, h_ann: float, bracket) -> str:
    if beta == 0.0:
        if h == 0.0:
            return "boundary"
        return "case23_merged" if h < 0 else "outside"
    if h == h_ann:
        return "boundary"
    if h < h_ann:
        return "case3"
    if bracket is None:
        return "unresolved"
    lo, hi = bracket
    if lo <= h <= hi:
        return "unresolved"
    if h < lo:
        return "case2"
    if h >= 0:
        return "outside"
    return "case1"


def _point_diagnostics(cfg: ScanConfig, beta: float, h: float, lam: float,
                       case: str, table, bracket) -> tuple[dict, bool]:
    """Convergence verdicts expected for the classified case, plus checks.

    `table` is the point's quenched n_gc table (case1 and case2 only).
    E Z_n is the homogeneous Z_n at h + lambda, whose series converges iff
    e^{h+lambda} L(f) < 1: at every f >= 0 in case3, and not at half the
    annealed free energy in case2, so the label fixes the annealed verdicts.
    At beta = 0 the quenched table is the homogeneous one at h, so only the
    quenched slope fits at beta > 0 can fail the check.
    """
    diag: dict = {}
    expected_ok = True
    if case == "case1":
        est = free_energy_estimate(table)
        diag["f_hat"] = est.f_hat
        if est.f_hat > 1e-3:
            gc = grand_canonical(table, 0.5 * est.f_hat)
            diag["quenched_below_f_hat"] = gc.verdict
            expected_ok &= gc.verdict == "diverging"
        # regime_scan adds "visit_sum_growth" and its check
    elif case in ("case2", "case23_merged"):
        def verdict(f):
            if table is None:
                return homogeneous_series_verdict(cfg.kernel, h, f)
            return grand_canonical(table, f).verdict

        diag["quenched_at_eps"] = verdict(cfg.eps_small)
        expected_ok &= diag["quenched_at_eps"] == "converged"
        # the zero-drift series converges too slowly to call near the
        # bracket; only check it with a clear margin below
        strict = bracket is not None and h < bracket[0] - 6.0 * cfg.crit_tol
        if case == "case23_merged" or strict:
            diag["quenched_at_zero"] = verdict(0.0)
            expected_ok &= diag["quenched_at_zero"] == "converged"
        if case == "case2":
            diag["annealed_free_energy"] = homogeneous_free_energy(cfg.kernel,
                                                                   h + lam).free_energy
    return diag, expected_ok


def _speculative_growth(cfg: ScanConfig, candidates, out: np.ndarray) -> None:
    """out[k] = _visit_sum_growth(cfg, *candidates[k]), or nan where that
    raised or warned.  A candidate need not be case 1, so its error or
    warning must not surface here; regime_scan recomputes a case-1 point's
    nan in process, where the error or warning then shows as it would
    without the helper."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, (beta, h) in enumerate(candidates):
            try:
                out[k] = _visit_sum_growth(cfg, beta, h)
            except Exception:
                out[k] = math.nan


def _visit_sum_growth(cfg: ScanConfig, beta: float, h: float) -> float:
    """Worst relative growth of W(2R) over W(R) across sampled environments.

    The expected visit count before hitting R is exactly W(R); a stalling
    scale sum (small growth) evidences per-environment transience without
    trajectory simulation.  R scales like beta^2 Var(omega) E(tau)/h^2 so
    the contact drift has beaten the disorder fluctuations by R.  The growth
    (W(2R) - W(R)) / W(R) is one ratio of log-sums over disjoint windows of
    V, so it neither cancels nor overflows.
    """
    params = WalkParams(beta=beta, h=h, f=0.0)
    mean_gap = kernel_mean(cfg.kernel)
    r_star = 8.0 * max(beta ** 2 * cfg.disorder.variance, 1.0) * mean_gap / h ** 2
    r = int(min(50000, max(600, r_star)))
    worst = 0.0
    for e in range(GROWTH_ENVS):
        env = sample_environment(cfg.kernel, cfg.disorder, 2 * r,
                                 derive_seed(cfg.seed, "scan-env", beta, e))
        v = build_potential(env, params).values
        worst = max(worst, float(np.exp(_lse(v[r : 2 * r]) - _lse(v[:r]))))
    return worst


@dataclass(frozen=True)
class TransienceReport:
    """Per-environment visit statistics for the zero-drift transient regime."""

    absorbed_fraction: float
    within_3se_fraction: float
    env_rows: list


def annealed_transience_check(kernel: RenewalKernel, disorder: DisorderSpec,
                              beta: float, h: float, n_envs: int = 100,
                              walks_per_env: int = 400, r: int = 150,
                              seed: int = 0) -> TransienceReport:
    """Visit counts stay finite at h < 0, f = 0, and match the exact formula.

    For each sampled environment the mean MC visit count is compared to
    W(R) = sum_{i<R} exp(V_i) at three standard errors, and trajectories
    that exceed TRANSIENCE_STEP_BUDGET steps (censored) are tallied;
    transience shows up as an absorbed fraction of one.
    """
    if h >= 0:
        raise ValueError("transience check requires h < 0")
    if walks_per_env < 2:
        raise ValueError("need walks_per_env >= 2 for a standard error")
    params = WalkParams(beta=beta, h=h, f=0.0)
    pots = [build_potential(sample_environment(kernel, disorder, r,
                                               derive_seed(seed, "env", e)), params)
            for e in range(n_envs)]
    counts = simulate_visit_counts(pots, r, walks_per_env, derive_seed(seed, "walks"),
                                   step_budget=TRANSIENCE_STEP_BUDGET, censor=True)
    rows = []
    within = 0
    for e, (pot, env_counts) in enumerate(zip(pots, counts)):
        exact = expected_visits_exact(pot, r)
        mean, se = _mean_stderr(env_counts[env_counts >= 0])
        z = (mean - exact) / se if se and se > 0 else float("nan")
        matches = bool(abs(z) <= 3.0) if math.isfinite(z) else False
        within += matches
        rows.append({"env": e, "exact": exact, "mc_mean": mean, "mc_stderr": se,
                     "z": z, "within_3se": matches})
    return TransienceReport(absorbed_fraction=float(np.mean(counts >= 0)),
                            within_3se_fraction=within / n_envs,
                            env_rows=rows)


"""End-to-end experiments tying the walk and the pinning model together.

The headline check equates two pipelines that share only the disorder and
the gap kernel: the renewal-averaged Monte Carlo count of visits to the
origin for the drifted walk (left side), and the grand-canonical partial
sum of the pinning partition function (right side).  Tying the absorption
level to the series length, R = N + 1, makes the two sides equal in
expectation at every finite N, so the Monte Carlo error is the only gap to
account for; the geometric tail bound on S_inf - S_N is reported beside it.

The regime scan runs in one process.  It certifies case 1 by a one-sided
t-test of pinning.free_energy_estimate over fresh disorder rows, inside its
one engine pass at n_gc (_point_diagnostics).  Per-environment transience
at h < 0 needs no check: the law of large numbers sends V_n / n to
h / E(tau_1) < 0 in every case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import derive_seed
from .environment import (DisorderSpec, RenewalKernel, _renewal_ends, kernel_mean,
                          log_mgf, sample_disorder, sample_environment)
from .pinning import (BracketError, GrandCanonicalReport, _contact_rows, _fresh_rows, _lse,
                      _mean_stderr, _require_reachable, free_energy_estimate, grand_canonical,
                      homogeneous_free_energy, homogeneous_series_verdict, pinned_recursions,
                      quenched_critical_point_estimates)
from .walk import (Potential, WalkParams, _potential_rows, build_potential,
                   expected_visits_exact, move_pairs, simulate_visit_counts)

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
# one-sided Student-t quantile, pinning.FE_ROWS - 1 degrees of freedom, at
# the one-sided 3-sigma normal tail 0.00135, fixed before any data was seen
CASE1_T = 3.586
TAU_BLOCK = 25  # renewal sets per batched potential build in verify
EPS_SMALL = 0.05  # a case-2 point's quenched series must converge at this discount


@dataclass(frozen=True)
class KeyRelationConfig:
    """Inputs of the visit-count / partition-sum comparison."""

    kernel: RenewalKernel
    disorder: DisorderSpec
    beta: float
    h: float
    f: float
    n_tau: int = 200
    walk_replicas: int = 500
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

    lhs holds the mean and stderr of the renewal-averaged visit count and
    the walk's step pairs per move (walk.move_pairs), rhs the
    grand-canonical partial sum S_N with its verdict.
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
    verdict "inconclusive", never "fail", and runs no walks.  A zero stderr
    passes only an exact match and is "inconclusive" otherwise.
    """
    if cfg.n_tau < 2:
        raise ValueError("need n_tau >= 2 for a standard error")
    if cfg.walk_replicas < 1:
        raise ValueError("need walk_replicas >= 1")
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
    # a zero stderr (every walk alike) cannot tell a near miss from a failure
    if not converged or (diff > tol and lhs_se == 0):
        verdict = "inconclusive"
    else:
        verdict = "pass" if diff <= tol else "fail"
    return KeyRelationReport(n_series=n, r_absorb=n + 1,
                             lhs={"mean": lhs_mean, "stderr": lhs_se,
                                  "move_pairs": move_pairs(cfg.walk_replicas, cfg.n_tau)}, rhs=gc,
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
                         h: float, seed: int = 0) -> TauMeanBoundReport:
    """Check sum_{n<=N} Z_n >= E(tau_1) - slack at zero drift, N = max(n_max, 64).

    Term-wise Z_n >= P(tau_1 > n) because the empty renewal path alone
    contributes the tail; summed to any N >= n_max that already gives the
    mean gap, so the bound must hold with at most float slack.
    """
    n = max(kernel.n_max, 64)
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
    n_fe: int = 8000           # disorder length for free-energy bisection
    crit_tol: float = 0.04
    n_gc: int = 3000           # series length for convergence verdicts
    seed: int = 0

    def __post_init__(self):
        if not (self.crit_tol > 0 and min(self.n_fe, self.n_gc) >= 2):
            raise ValueError("need crit_tol > 0, n_fe >= 2 and n_gc >= 2")
        _require_reachable(self.kernel, self.n_fe, "n_fe")
        _require_reachable(self.kernel, self.n_gc, "n_gc")


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

    case1: between the quenched bracket and 0, where the quenched free
    energy F is certified positive (renewal-averaged count diverging below
    F, walk still transient per environment); a point there that the test
    cannot certify is "unresolved".  case2: between the annealed curve and
    the bracket (quenched sums finite, disorder-averaged sums diverging);
    case3: below the annealed curve (everything finite).  Points inside the
    bracket are "unresolved", exact ties with the annealed curve
    "boundary", h >= 0 "outside"; at beta = 0 the curves merge into
    "case23_merged".  `consistent` says whether the quenched series
    verdicts on a separate n_gc-long disorder row per beta agree with a
    case-2 label; those at beta = 0 are exact and only recorded, and the
    annealed ones follow from the label.  The report's `critical` list
    holds each beta's bracket, search trail and engine passes (or the
    bracket error, the trail up to it and the passes).  The case-2 rows
    and the FE_ROWS test rows of every case-1 point all run in one engine
    pass at n_gc, which a grid with neither skips.
    """
    searches = [(beta, derive_seed(cfg.seed, "crit", i_beta))
                for i_beta, beta in enumerate(beta_grid) if beta > 0]
    found = iter(quenched_critical_point_estimates(cfg.disorder, cfg.kernel, searches,
                                                   cfg.n_fe, cfg.crit_tol))
    critical, cases, keys, blocks = [], [], [], []
    for i_beta, beta in enumerate(beta_grid):
        search = {"beta": beta, "bracket": None, "trail": [], "error": None, "passes": 0}
        est = next(found) if beta > 0 else None
        if isinstance(est, BracketError):
            search.update(error=str(est), trail=est.trail, passes=est.passes)
        elif est is not None:
            search.update(bracket=est.bracket, trail=est.trail, passes=est.passes)
        critical.append(search)
        h_ann = -log_mgf(cfg.disorder, beta)
        cases.append([_classify(beta, h, h_ann, search["bracket"]) for h in h_grid])
        labels = dict(zip(h_grid, cases[-1]))  # one entry per distinct h
        case1 = [h for h, case in labels.items() if case == "case1"]
        case2 = [h for h, case in labels.items() if case == "case2"]
        if case2:  # one table per point, all on one row
            omega = sample_disorder(cfg.disorder, cfg.n_gc,
                                    derive_seed(cfg.seed, "scan-omega", i_beta))
            blocks.append(_contact_rows(omega, beta, case2))
            keys += [(i_beta, h) for h in case2]
        if case1:  # one table per point on each fresh row
            rows = _fresh_rows(cfg.disorder, cfg.n_gc, beta, case1,
                               derive_seed(cfg.seed, "scan-rows", i_beta))
            blocks += rows
            keys += [(i_beta, h) for _ in rows for h in case1]
    tables: dict = {}
    if keys:
        for key, table in zip(keys, pinned_recursions(np.concatenate(blocks), cfg.kernel)):
            tables.setdefault(key, []).append(table)
    points = []
    for i_beta, (beta, search) in enumerate(zip(beta_grid, critical)):
        lam = log_mgf(cfg.disorder, beta)
        for h, case in zip(h_grid, cases[i_beta]):
            case, diag, ok = _point_diagnostics(cfg, beta, h, lam, case,
                                                tables.get((i_beta, h), []),
                                                search["bracket"])
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
                       case: str, tables, bracket) -> tuple[str, dict, bool]:
    """The point's final label, its diagnostics and its `consistent` flag.

    `tables` are the point's quenched n_gc tables: one per test row for
    case1, one for case2, none otherwise.  A case-1 label stands when the
    rows certify F > 0: E raw_n <= F at every n (see FreeEnergyEstimate),
    so raw_mean - CASE1_T * raw_se > 0 shows F > 0.  No finite-n raw can
    show F = 0, so an uncertified point is "unresolved", never
    inconsistent.  E Z_n is the homogeneous Z_n at h + lambda, whose series
    converges iff e^{h+lambda} L(f) < 1: at every f >= 0 in case3, and not
    at half the annealed free energy in case2, so the label fixes the
    annealed verdicts.  At beta = 0 the quenched table is the homogeneous
    one at h, so only the quenched slope fits of case 2 at beta > 0 can
    fail the check.
    """
    diag: dict = {}
    expected_ok = True
    if case == "case1":
        est = free_energy_estimate(tables)
        diag = {"raw_mean": est.raw_mean, "raw_se": est.raw_se, "rows": est.rows}
        if not est.raw_mean - CASE1_T * est.raw_se > 0:
            case = "unresolved"
    elif case in ("case2", "case23_merged"):
        def verdict(f):
            if not tables:
                return homogeneous_series_verdict(cfg.kernel, h, f)
            return grand_canonical(tables[0], f).verdict

        diag["quenched_at_eps"] = verdict(EPS_SMALL)
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
    return case, diag, expected_ok


@dataclass(frozen=True)
class TransienceReport:
    """Per-environment visit statistics for the zero-drift transient regime."""

    absorbed_fraction: float
    within_3se_fraction: float
    move_pairs: int  # step pairs per walker move (walk.move_pairs)
    env_rows: list


def annealed_transience_check(kernel: RenewalKernel, disorder: DisorderSpec,
                              beta: float, h: float, n_envs: int = 50,
                              walks_per_env: int = 200, r: int = 150,
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
        # a zero stderr (every walk alike) is within only on an exact match
        matches = bool(abs(z) <= 3.0 if math.isfinite(z) else se == 0 and mean == exact)
        within += matches
        rows.append({"env": e, "exact": exact, "mc_mean": mean, "mc_stderr": se,
                     "z": z, "within_3se": matches})
    return TransienceReport(absorbed_fraction=float(np.mean(counts >= 0)),
                            within_3se_fraction=within / n_envs,
                            move_pairs=move_pairs(walks_per_env, n_envs), env_rows=rows)


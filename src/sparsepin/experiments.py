"""End-to-end experiments tying the walk and the pinning model together.

The headline check equates two pipelines that share only the disorder and
the gap kernel: the renewal-averaged Monte Carlo count of visits to the
origin for the drifted walk (left side), and the grand-canonical partial
sum of the pinning partition function (right side).  Tying the absorption
level to the series length, R = N + 1, makes the two sides equal in
expectation at every finite N, so the Monte Carlo error and the geometric
tail bound are the only gaps to account for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._rng import derive_seed
from .environment import (DisorderSpec, RenewalKernel, SparseEnvironment,
                          kernel_mean, log_mgf, sample_disorder, sample_environment,
                          sample_renewal)
from .pinning import (BracketError, free_energy_estimate, grand_canonical,
                      homogeneous_free_energy, pinned_recursion,
                      quenched_critical_point_estimate)
# simulate_visit_counts is not called here, but stays bound: perfbench's
# tracer test checks that this module's binding of it gets wrapped
from .walk import (WalkParams, _mean_stderr, build_potential, expected_visits_exact,
                   simulate_visit_counts, simulate_visit_counts_batch)  # noqa: F401

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
    max_rounds: int = 3

    def resolved_n(self) -> int:
        if self.n_series is not None:
            return self.n_series
        drift = max(self.f, 0.05)
        return max(8 * self.kernel.n_max, int(math.ceil(60.0 / drift)))


@dataclass(frozen=True)
class KeyRelationReport:
    """Both sides of the identity with their uncertainties and the verdict."""

    beta: float
    h: float
    f: float
    kernel: dict
    disorder: dict
    seed: int
    n_series: int
    r_absorb: int
    n_tau: int
    walk_replicas: int
    lhs_mean: float
    lhs_stderr: float
    rhs_partial_sum: float
    rhs_tail_bound: float | None
    rhs_verdict: str
    rhs_growth_rate: float
    abs_difference: float
    tolerance: float
    verdict: str  # pass | fail | inconclusive

    def to_dict(self) -> dict:
        return {
            "beta": self.beta, "h": self.h, "f": self.f,
            "kernel": self.kernel, "disorder": self.disorder, "seed": self.seed,
            "n_series": self.n_series, "r_absorb": self.r_absorb,
            "n_tau": self.n_tau, "walk_replicas": self.walk_replicas,
            "lhs": {"mean": self.lhs_mean, "stderr": self.lhs_stderr},
            "rhs": {"partial_sum": self.rhs_partial_sum,
                    "tail_bound": self.rhs_tail_bound,
                    "verdict": self.rhs_verdict,
                    "growth_rate": self.rhs_growth_rate},
            "abs_difference": self.abs_difference,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


def verify_key_relation(cfg: KeyRelationConfig) -> KeyRelationReport:
    """Compare renewal-averaged MC visit counts against the partition sum.

    One disorder sequence is shared by both sides (the average runs over
    renewal locations only).  The left side averages, over n_tau sampled
    renewal sets, the mean visit count of walk_replicas folded trajectories
    absorbed at R = N + 1; its expectation is exactly the partial sum
    S_N = sum_{n<=N} Z_n e^{-fn}.  N is doubled until the geometric tail
    bound on S_inf - S_N drops below 0.1 of the Monte Carlo stderr (or
    max_rounds is hit).  A non-convergent right side yields verdict
    "inconclusive", never "fail".
    """
    if cfg.n_tau < 2:
        raise ValueError("need n_tau >= 2 for a standard error")
    n = cfg.resolved_n()
    lhs_mean = lhs_se = float("nan")
    tail = None
    for round_idx in range(cfg.max_rounds):
        omega = sample_disorder(cfg.disorder, n, derive_seed(cfg.seed, "omega"))
        table = pinned_recursion(omega, cfg.kernel, cfg.beta, cfg.h, n)
        gc = grand_canonical(table, cfg.f)
        if gc.verdict != "converged":
            # both sides would be infinite (or undecidable); don't burn MC time
            break
        lhs_mean, lhs_se = _mc_visits_over_tau(cfg, omega, n)
        tail = gc.tail_bound
        if tail >= 0.1 * max(lhs_se, 1e-12) and round_idx < cfg.max_rounds - 1:
            n *= 2
            continue
        break
    rhs = gc.partial_sum
    diff = abs(lhs_mean - rhs)
    tol = 3.0 * lhs_se + (tail or 0.0)
    if gc.verdict != "converged":
        verdict = "inconclusive"
    else:
        verdict = "pass" if diff <= tol else "fail"
    return KeyRelationReport(
        beta=cfg.beta, h=cfg.h, f=cfg.f, kernel=cfg.kernel.to_dict(),
        disorder=cfg.disorder.to_dict(), seed=cfg.seed, n_series=n, r_absorb=n + 1,
        n_tau=cfg.n_tau, walk_replicas=cfg.walk_replicas,
        lhs_mean=lhs_mean, lhs_stderr=lhs_se, rhs_partial_sum=rhs,
        rhs_tail_bound=tail, rhs_verdict=gc.verdict, rhs_growth_rate=gc.growth_rate,
        abs_difference=diff, tolerance=tol, verdict=verdict)


def _mc_visits_over_tau(cfg: KeyRelationConfig, omega: np.ndarray,
                        n: int) -> tuple[float, float]:
    """Mean/stderr over renewal replicas of per-replica MC visit means."""
    params = WalkParams(beta=cfg.beta, h=cfg.h, f=cfg.f)
    # lazy, so the engine holds one potential at a time while it fills its table
    taus = (sample_renewal(cfg.kernel, n, derive_seed(cfg.seed, "tau", t))
            for t in range(cfg.n_tau))
    pots = (build_potential(SparseEnvironment(horizon=n, tau=tau, omega=omega), params)
            for tau in taus)
    counts = simulate_visit_counts_batch(pots, n + 1, cfg.walk_replicas,
                                         derive_seed(cfg.seed, "walk"))
    return _mean_stderr(counts.mean(axis=1))


@dataclass(frozen=True)
class TauMeanBoundReport:
    """Partial sums at f = 0 against the exact mean gap E(tau_1)."""

    beta: float
    h: float
    kernel: dict
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
    table = pinned_recursion(omega, kernel, beta, h, n)
    log_s = float(np.logaddexp.accumulate(table.log_z)[-1])
    s = math.exp(log_s)
    mean_gap = kernel_mean(kernel)
    # beyond n_max the tail is 0, so no log Z_m can fall below it
    viol = int(np.count_nonzero(
        table.log_z[: kernel.n_max + 1] < kernel.log_tail - 1e-12))
    margin = s - mean_gap
    return TauMeanBoundReport(beta=beta, h=h, kernel=kernel.to_dict(), n_terms=n,
                              partial_sum=s, tau_mean=mean_gap, margin=margin,
                              term_violations=viol,
                              passed=(margin >= -1e-9 * max(1.0, mean_gap) and viol == 0))


@dataclass(frozen=True)
class ScanConfig:
    """Budgets for the regime scan; double() scales every budget knob."""

    kernel: RenewalKernel
    disorder: DisorderSpec
    n_fe: int = 10000          # disorder length for free-energy bisection
    crit_replicas: int = 3
    crit_tol: float = 0.04
    n_gc: int = 3000           # series length for convergence verdicts
    eps_small: float = 0.05
    mc_envs: int = 8
    seed: int = 0
    h_hi: float = 0.25

    def double(self) -> "ScanConfig":
        return replace(self, n_fe=2 * self.n_fe, crit_replicas=2 * self.crit_replicas,
                       n_gc=2 * self.n_gc, mc_envs=2 * self.mc_envs)


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
    config: dict

    def cases(self) -> dict:
        return {(p.beta, p.h): p.case for p in self.points}


def regime_scan(beta_grid, h_grid, cfg: ScanConfig) -> RegimeReport:
    """Classify each (beta, h) against the annealed and quenched curves.

    case1: between the estimated quenched critical point and 0 (walk still
    transient per environment, renewal-averaged count diverging below the
    free energy); case2: between the annealed curve and the quenched bracket
    (quenched sums finite, disorder-averaged sums diverging); case3: at or
    below the annealed curve (everything finite).  Points inside the
    bisection bracket stay "unresolved", exact ties with the annealed curve
    are "boundary", h >= 0 is "outside".  At beta = 0 the two curves merge
    and classified points are labeled "case23_merged".
    """
    points = []
    for i_beta, beta in enumerate(beta_grid):
        lam = log_mgf(cfg.disorder, beta)
        h_ann = -lam
        bracket = None
        bracket_err = None
        if beta > 0:
            try:
                est = quenched_critical_point_estimate(
                    cfg.disorder, cfg.kernel, beta, cfg.n_fe, cfg.crit_replicas,
                    cfg.crit_tol, seed=derive_seed(cfg.seed, "crit", i_beta),
                    h_hi=cfg.h_hi)
                bracket = est.bracket
            except BracketError as err:
                bracket_err = str(err)
        omega_row = sample_disorder(cfg.disorder, cfg.n_gc,
                                    derive_seed(cfg.seed, "scan-omega", i_beta))
        for h in h_grid:
            case = _classify(beta, h, h_ann, bracket)
            diag, ok = _point_diagnostics(cfg, beta, h, h_ann, lam, case,
                                          omega_row, bracket)
            if bracket_err:
                diag["bracket_error"] = bracket_err
            points.append(RegimePoint(beta=beta, h=h, h_c_annealed=h_ann,
                                      bracket=bracket, case=case,
                                      diagnostics=diag, consistent=ok))
    config = {"kernel": cfg.kernel.to_dict(), "disorder": cfg.disorder.to_dict(),
              "n_fe": cfg.n_fe, "crit_replicas": cfg.crit_replicas,
              "crit_tol": cfg.crit_tol, "n_gc": cfg.n_gc,
              "eps_small": cfg.eps_small, "seed": cfg.seed}
    return RegimeReport(points=points, config=config)


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


def _point_diagnostics(cfg: ScanConfig, beta: float, h: float, h_ann: float,
                       lam: float, case: str, omega_row: np.ndarray,
                       bracket) -> tuple[dict, bool]:
    """Convergence verdicts expected for the classified case, plus checks."""
    diag: dict = {}
    expected_ok = True
    n = cfg.n_gc
    if case in ("case1", "case2", "case23_merged"):
        table = pinned_recursion(omega_row, cfg.kernel, beta, h, n)
        if case == "case1":
            est = free_energy_estimate(table)
            diag["f_hat"] = est.f_hat
            if est.f_hat > 1e-3:
                gc = grand_canonical(table, 0.5 * est.f_hat)
                diag["quenched_below_f_hat"] = gc.verdict
                expected_ok &= gc.verdict == "diverging"
            growth = _visit_sum_growth(cfg, beta, h)
            diag["visit_sum_growth"] = growth
            expected_ok &= growth < 0.05
        else:
            gc_eps = grand_canonical(table, cfg.eps_small)
            diag["quenched_at_eps"] = gc_eps.verdict
            expected_ok &= gc_eps.verdict == "converged"
            # the zero-drift series converges too slowly to call near the
            # bracket; only check it with a clear margin below
            strict = bracket is not None and h < bracket[0] - 6.0 * cfg.crit_tol
            if case == "case23_merged" or strict:
                gc0 = grand_canonical(table, 0.0)
                diag["quenched_at_zero"] = gc0.verdict
                expected_ok &= gc0.verdict == "converged"
        if case == "case2":
            f_ann = homogeneous_free_energy(cfg.kernel, h + lam).free_energy
            diag["annealed_free_energy"] = f_ann
            if f_ann > 1e-3:
                table_a = pinned_recursion(np.zeros(n), cfg.kernel, 0.0, h + lam, n)
                gc_a = grand_canonical(table_a, 0.5 * f_ann)
                diag["annealed_below_f"] = gc_a.verdict
                expected_ok &= gc_a.verdict == "diverging"
    elif case == "case3":
        table_a = pinned_recursion(np.zeros(n), cfg.kernel, 0.0, h + lam, n)
        gc_a = grand_canonical(table_a, cfg.eps_small)
        diag["annealed_at_eps"] = gc_a.verdict
        expected_ok &= gc_a.verdict == "converged"
        if h < h_ann:
            gc_a0 = grand_canonical(table_a, 0.0)
            diag["annealed_at_zero"] = gc_a0.verdict
            expected_ok &= gc_a0.verdict == "converged"
    return diag, expected_ok


def _visit_sum_growth(cfg: ScanConfig, beta: float, h: float) -> float:
    """Worst relative growth of W(2R) over W(R) across sampled environments.

    The expected visit count before hitting R is exactly W(R); a stalling
    scale sum (small growth) evidences per-environment transience without
    trajectory simulation.  R scales like beta^2 Var(omega) E(tau)/h^2 so
    the contact drift has beaten the disorder fluctuations by R.
    """
    params = WalkParams(beta=beta, h=h, f=0.0)
    mean_gap = kernel_mean(cfg.kernel)
    r_star = 8.0 * max(beta ** 2 * cfg.disorder.variance, 1.0) * mean_gap / h ** 2
    r = int(min(50000, max(600, r_star)))
    worst = 0.0
    for e in range(cfg.mc_envs):
        env = sample_environment(cfg.kernel, cfg.disorder, 2 * r,
                                 derive_seed(cfg.seed, "scan-env", beta, e))
        pot = build_potential(env, params)
        w_r = expected_visits_exact(pot, r)
        w_2r = expected_visits_exact(pot, 2 * r)
        worst = max(worst, (w_2r - w_r) / w_r)
    return worst


@dataclass(frozen=True)
class TransienceReport:
    """Per-environment visit statistics for the zero-drift transient regime."""

    beta: float
    h: float
    n_envs: int
    walks_per_env: int
    r_absorb: int
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
    params = WalkParams(beta=beta, h=h, f=0.0)
    pots = [build_potential(sample_environment(kernel, disorder, r,
                                               derive_seed(seed, "env", e)), params)
            for e in range(n_envs)]
    counts = simulate_visit_counts_batch(pots, r, walks_per_env,
                                         derive_seed(seed, "walks"),
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
                     "z": z, "within_3se": matches,
                     "escape_prob_exact": 1.0 / exact,
                     "escape_prob_mc": 1.0 / mean if mean and mean > 0 else float("nan")})
    return TransienceReport(beta=beta, h=h, n_envs=n_envs,
                            walks_per_env=walks_per_env, r_absorb=r,
                            absorbed_fraction=float(np.mean(counts >= 0)),
                            within_3se_fraction=within / n_envs,
                            env_rows=rows)


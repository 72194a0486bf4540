"""Command-line front end: env | walk | pinning | verify | scan.

Configuration is a flat key=value text file (or the JSON emitted by a
previous run, whose embedded "config" block is reused, each value parsed
like its text) plus flag overrides; flags win.  Every JSON output embeds
its fully resolved config, master seed included; the settings appear there
only, and the other blocks hold results (report dataclasses written by
dataclasses.asdict, and the environment's tau and omega).  Outputs contain
no timestamps, so re-running a saved config reproduces each file byte for
byte.  Output location comes from --outdir or SPARSEPIN_OUTDIR
(default: current directory).

Exit codes: 0 pass, 1 fail (including a failed critical-point bracket),
2 inconclusive, 64 bad configuration (an unreadable config file, a
non-finite number, or any ValueError the library raises on its inputs).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._rng import derive_seed
from .environment import (DisorderSpec, kernel_mean, make_kernel, sample_disorder,
                          sample_environment)
from .experiments import (KeyRelationConfig, ScanConfig, annealed_transience_check,
                          regime_scan, tau_mean_lower_bound, verify_key_relation)
from .pinning import (BracketError, _contact_rows, _fresh_rows, _mean_stderr,
                      _require_reachable, annealed_critical_point, free_energy_estimate,
                      grand_canonical, homogeneous_free_energy, pinned_recursions,
                      quenched_critical_point_estimate)
from .walk import (DEFAULT_STEP_BUDGET, StepBudgetError, WalkParams, build_potential,
                   expected_visits_exact, move_pairs, simulate_visit_counts, step_prob)

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONFIG = 64


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto the config exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"config error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


# key -> (type, default); grids are comma-separated strings so that config
# files and embedded configs stay flat.  Every key is read by its command.
# Budgets the library takes default to its config dataclasses' values.
_COMMON = {
    "seed": (int, 1),
    "kernel": (str, "power_law"),
    "alpha": (float, 1.0),
    "q": (float, 0.5),
    "n_max": (int, 8),
    "step": (int, 1),
    "disorder": (str, "gaussian"),
    "sigma": (float, 1.0),
    "half_width": (float, 1.0),
}
_ENERGY = {"beta": (float, 0.0), "h": (float, 0.0)}

_SCHEMAS = {
    "env": {**_COMMON, "horizon": (int, 50)},
    "walk": {**_COMMON, **_ENERGY, "f": (float, 0.0), "horizon": (int, 50),
             "r": (int, 0), "replicas": (int, 10000),
             "step_budget": (int, DEFAULT_STEP_BUDGET)},
    "pinning": {**_COMMON, **_ENERGY, "n": (int, 2000), "gc_f": (float, None),
                "critical": (bool, False), "crit_tol": (float, 0.02), "crit_n": (int, 0)},
    "verify": {**_COMMON, "beta": (float, 1.0), "h": (float, -1.0),
               "f": (float, 0.3), "n_tau": (int, KeyRelationConfig.n_tau),
               "walk_replicas": (int, KeyRelationConfig.walk_replicas),
               "n_series": (int, 0)},
    "scan": {**_COMMON, **_ENERGY, "alpha": (float, 0.6), "n_max": (int, 40),
             "beta_grid": (str, "0,1,2"),
             "h_grid": (str, "-2.2,-1.4,-1.2,-0.35,-0.05"),
             "n_fe": (int, ScanConfig.n_fe), "n_gc": (int, ScanConfig.n_gc),
             "crit_tol": (float, ScanConfig.crit_tol), "transience": (bool, False)},
}


def _parse_value(key: str, kind, raw: str):
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
    else:
        try:
            return kind(raw)
        except ValueError:
            pass
    raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}")


def load_config_file(path: str) -> dict:
    """key=value lines, or JSON (a prior report's embedded config is reused)."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err.strerror}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        data = data.get("config", data)
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: the config block must be a JSON object")
        return data
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        out[key.strip()] = raw.strip()
    return out


def resolve_config(command: str, file_values: dict, flag_values: dict) -> dict:
    """defaults < config file < flags; refuses unknown keys and non-finite floats."""
    schema = _SCHEMAS[command]
    config = {k: default for k, (_, default) in schema.items()}
    for key, raw in file_values.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for {command}")
        kind, default = schema[key]
        if raw is None and default is None:
            config[key] = None
        elif isinstance(raw, (str, int, float)):
            # a JSON scalar parses as its text, exactly like a key=value entry
            config[key] = _parse_value(key, kind, str(raw))
        else:
            raise ConfigError(f"{key}: expected {kind.__name__}, got {json.dumps(raw)}")
    for key, val in flag_values.items():
        if val is not None and key in schema:
            config[key] = val
    for key, val in config.items():
        if schema[key][0] is float and val is not None and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val!r}")
    return config


def build_kernel(config: dict):
    return make_kernel(config["kernel"], alpha=config["alpha"], q=config["q"],
                       n_max=config["n_max"], step=config["step"])


def build_disorder(config: dict) -> DisorderSpec:
    return DisorderSpec(family=config["disorder"], sigma=config["sigma"],
                        half_width=config["half_width"])


def _grid(text: str) -> list[float]:
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad grid {text!r}") from None
    if not grid:
        raise ConfigError("empty grid")
    if not all(math.isfinite(x) for x in grid):
        raise ConfigError(f"non-finite entry in grid {text!r}")
    return grid


def write_json(path: Path, command: str, config: dict, payload: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "config": config,
           **payload}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_env(config: dict, outdir: Path) -> int:
    kernel = build_kernel(config)
    disorder = build_disorder(config)
    env = sample_environment(kernel, disorder, config["horizon"],
                             derive_seed(config["seed"], "env"))
    write_json(outdir / "environment.json", "env", config,
               {"environment": {"tau": env.tau.tolist(), "omega": env.omega.tolist()},
                "kernel_mean": kernel_mean(kernel)})
    write_csv(outdir / "kernel.csv", ["n", "weight", "tail"],
              [(n + 1, float(kernel.weights[n]), float(kernel.tail[n + 1]))
               for n in range(kernel.n_max)])
    return EXIT_PASS


def cmd_walk(config: dict, outdir: Path) -> int:
    kernel = build_kernel(config)
    disorder = build_disorder(config)
    params = WalkParams(beta=config["beta"], h=config["h"], f=config["f"])
    env = sample_environment(kernel, disorder, config["horizon"],
                             derive_seed(config["seed"], "env"))
    pot = build_potential(env, params)
    r = config["r"] or pot.horizon
    if not 1 <= r <= pot.horizon + 1:
        raise ConfigError(f"r must lie in 1..{pot.horizon + 1}")
    if config["replicas"] < 2:
        raise ConfigError("need replicas >= 2 for a standard error")
    # refused or failed walks must leave no output behind, so simulate first
    counts = simulate_visit_counts([pot], r, config["replicas"],
                                   derive_seed(config["seed"], "mc"),
                                   step_budget=config["step_budget"])
    mean, stderr = _mean_stderr(counts[0])
    exact = expected_visits_exact(pot, r)
    p_up = [1.0, *step_prob(pot.increments()).tolist()]
    write_csv(outdir / "potential.csv", ["i", "V", "step_prob_up"],
              [(i, float(pot.values[i]), p_up[i]) for i in range(pot.horizon + 1)])
    write_json(outdir / "visits.json", "walk", config,
               {"visits": {"r": r, "exact": exact, "mean": mean, "stderr": stderr,
                           "move_pairs": move_pairs(config["replicas"], 1)}})
    return EXIT_PASS


def cmd_pinning(config: dict, outdir: Path) -> int:
    kernel = build_kernel(config)
    disorder = build_disorder(config)
    beta, h, n, seed = config["beta"], config["h"], config["n"], config["seed"]
    _require_reachable(kernel, n, "n")
    if config["critical"] and config["crit_n"]:
        _require_reachable(kernel, config["crit_n"], "crit_n")
    omega = sample_disorder(disorder, n, derive_seed(seed, "omega"))
    # the seeded row of partition.csv and the estimate's fresh rows, in one engine call
    table, *fresh = pinned_recursions(np.concatenate(
        [_contact_rows(omega, beta, [h]),
         *_fresh_rows(disorder, n, beta, [h], derive_seed(seed, "fe-rows"))]), kernel)
    # refused runs must leave no output behind, so compute everything first
    payload = {
        "free_energy": asdict(free_energy_estimate(fresh)),
        "homogeneous": asdict(homogeneous_free_energy(kernel, h)),
        "critical_points": {
            "annealed": annealed_critical_point(disorder, beta),
        },
    }
    if config["gc_f"] is not None:
        payload["grand_canonical"] = asdict(grand_canonical(table, config["gc_f"]))
    if config["critical"]:
        est = quenched_critical_point_estimate(disorder, kernel, beta, config["crit_n"] or n,
                                               config["crit_tol"],
                                               seed=derive_seed(seed, "critical"))
        rows = _fresh_rows(disorder, est.n, beta, [est.h_hat], derive_seed(seed, "crit-rows"))
        at_root = free_energy_estimate(pinned_recursions(np.concatenate(rows), kernel))
        payload["critical_points"]["quenched"] = dict(
            asdict(est), raw_mean=at_root.raw_mean, raw_se=at_root.raw_se, rows=at_root.rows)
    write_csv(outdir / "partition.csv", ["n", "log_zc", "log_z"],
              [(m, float(table.log_zc[m]), float(table.log_z[m]))
               for m in range(n + 1)])
    write_json(outdir / "pinning.json", "pinning", config, payload)
    return EXIT_PASS


def cmd_verify(config: dict, outdir: Path) -> int:
    kernel = build_kernel(config)
    disorder = build_disorder(config)
    relation = verify_key_relation(KeyRelationConfig(
        kernel=kernel, disorder=disorder, beta=config["beta"], h=config["h"],
        f=config["f"], n_tau=config["n_tau"], walk_replicas=config["walk_replicas"],
        seed=config["seed"], n_series=config["n_series"] or None))
    bound = tau_mean_lower_bound(kernel, disorder, config["beta"], config["h"],
                                 seed=config["seed"])
    write_json(outdir / "verify.json", "verify", config,
               {"key_relation": asdict(relation),
                "tau_mean_bound": asdict(bound)})
    if relation.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    if relation.verdict == "pass" and bound.passed:
        return EXIT_PASS
    return EXIT_FAIL


def cmd_scan(config: dict, outdir: Path) -> int:
    kernel = build_kernel(config)
    disorder = build_disorder(config)
    beta_grid, h_grid = _grid(config["beta_grid"]), _grid(config["h_grid"])
    scan_cfg = ScanConfig(kernel=kernel, disorder=disorder, n_fe=config["n_fe"],
                          crit_tol=config["crit_tol"], n_gc=config["n_gc"],
                          seed=config["seed"])
    payload = {}
    if config["transience"]:
        # cheap next to the scan and refuses its own bad inputs (h >= 0
        # among them), so it runs first and a refused run costs no scan
        trans = annealed_transience_check(kernel, disorder, config["beta"], config["h"],
                                          seed=derive_seed(config["seed"], "transience"))
        payload["transience"] = asdict(trans)
    report = regime_scan(beta_grid, h_grid, scan_cfg)
    write_csv(outdir / "scan.csv",
              ["beta", "h", "h_c_annealed", "hc_lo", "hc_hi", "case", "consistent"],
              [(p.beta, p.h, p.h_c_annealed,
                p.bracket[0] if p.bracket else "", p.bracket[1] if p.bracket else "",
                p.case, p.consistent) for p in report.points])
    write_json(outdir / "scan.json", "scan", config, {"scan": asdict(report), **payload})
    return EXIT_PASS


_COMMANDS = {"env": cmd_env, "walk": cmd_walk, "pinning": cmd_pinning,
             "verify": cmd_verify, "scan": cmd_scan}


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    for key, (kind, _) in _SCHEMAS[command].items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, dest=key, action="store_const", const=True,
                                default=None)
        else:
            parser.add_argument(flag, dest=key, type=kind, default=None)


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built once per process: a build costs about
    2.6 ms, some 7% of a 1e5-walker `walk`."""
    parser = _Parser(
        prog="sparsepin",
        description="Sparse-environment random walks, the pinning model, and "
                    "the identity between renewal-averaged return counts and "
                    "grand-canonical partition sums.  Grid-valued flags need "
                    "the --flag=value form when the first entry is negative.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value file or JSON from a prior run")
        p.add_argument("--outdir", help="output directory (default $SPARSEPIN_OUTDIR or .)")
        _add_flags(p, name)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        file_values = load_config_file(args.config) if args.config else {}
        flag_values = {k: getattr(args, k) for k in _SCHEMAS[args.command]}
        config = resolve_config(args.command, file_values, flag_values)
        outdir = Path(args.outdir or os.environ.get("SPARSEPIN_OUTDIR", "."))
        outdir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, outdir)
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BracketError as err:
        print(f"bracket failure: {err}", file=sys.stderr)
        return EXIT_FAIL
    except StepBudgetError as err:
        print(f"step budget exhausted: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

"""CLI behavior: outputs, config precedence, reproducibility, exit codes."""

import json
import math

import pytest

from sparsepin import cli
from sparsepin.cli import EXIT_CONFIG, EXIT_INCONCLUSIVE, EXIT_PASS, main


def run(tmp_path, *args):
    return main([*args, "--outdir", str(tmp_path)])


def read_json(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def read_csv(tmp_path, name):
    lines = (tmp_path / name).read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_env_dirac_horizon(tmp_path):
    assert run(tmp_path, "env", "--kernel", "dirac", "--step", "1",
               "--horizon", "5") == EXIT_PASS
    doc = read_json(tmp_path, "environment.json")
    assert doc["environment"]["tau"] == [0, 1, 2, 3, 4, 5]
    assert doc["schema_version"] == 1
    assert doc["config"]["kernel"] == "dirac"


def test_env_zero_horizon(tmp_path):
    assert run(tmp_path, "env", "--kernel", "dirac", "--step", "1",
               "--horizon", "0") == EXIT_PASS
    assert read_json(tmp_path, "environment.json")["environment"]["tau"] == [0]


def test_env_kernel_table(tmp_path):
    assert run(tmp_path, "env", "--kernel", "power_law", "--alpha", "1",
               "--n-max", "2") == EXIT_PASS
    rows = read_csv(tmp_path, "kernel.csv")
    assert [float(r["weight"]) for r in rows] == pytest.approx([0.8, 0.2], rel=1e-15)


def test_walk_flat_exact_and_reproducible(tmp_path):
    args = ("walk", "--beta", "0", "--h", "0", "--f", "0", "--horizon", "20",
            "--r", "10", "--replicas", "4000", "--seed", "5")
    assert run(tmp_path, *args) == EXIT_PASS
    doc = read_json(tmp_path, "visits.json")
    assert doc["visits"]["exact"] == 10.0
    assert abs(doc["visits"]["mean"] - 10.0) <= 3 * doc["visits"]["stderr"]
    for key in ("mean", "stderr", "replicas", "seed"):
        assert key in doc["visits"]
    first = (tmp_path / "visits.json").read_bytes(), (tmp_path / "potential.csv").read_bytes()
    assert run(tmp_path, *args) == EXIT_PASS
    assert ((tmp_path / "visits.json").read_bytes(),
            (tmp_path / "potential.csv").read_bytes()) == first


def test_walk_drift_oracle(tmp_path):
    assert run(tmp_path, "walk", "--beta", "0", "--h", "0", "--f",
               str(math.log(3.0)), "--horizon", "40", "--r", "30",
               "--replicas", "30000", "--seed", "4") == EXIT_PASS
    doc = read_json(tmp_path, "visits.json")
    assert doc["visits"]["exact"] == pytest.approx(1.5, abs=1e-9)
    assert abs(doc["visits"]["mean"] - 1.5) <= 3 * doc["visits"]["stderr"]


def test_walk_potential_csv_columns(tmp_path):
    assert run(tmp_path, "walk", "--f", "0.5", "--horizon", "6",
               "--replicas", "10") == EXIT_PASS
    rows = read_csv(tmp_path, "potential.csv")
    assert list(rows[0]) == ["i", "V", "step_prob_up"]
    assert float(rows[0]["step_prob_up"]) == 1.0
    assert float(rows[3]["V"]) == pytest.approx(-1.5, abs=1e-12)


def test_pinning_zero_energy_and_homogeneous(tmp_path):
    assert run(tmp_path, "pinning", "--kernel", "geometric", "--q", "0.5",
               "--n-max", "64", "--beta", "0", "--h", str(math.log(2.0)),
               "--n", "400") == EXIT_PASS
    doc = read_json(tmp_path, "pinning.json")
    assert doc["homogeneous"]["free_energy"] == pytest.approx(math.log(1.5), abs=1e-10)
    assert doc["critical_points"]["annealed"] == 0.0

    assert run(tmp_path, "pinning", "--beta", "0", "--h", "0", "--n", "50") == EXIT_PASS
    rows = read_csv(tmp_path, "partition.csv")
    assert all(abs(float(r["log_z"])) < 1e-12 for r in rows)


def test_pinning_quenched_critical(tmp_path):
    assert run(tmp_path, "pinning", "--kernel", "power_law", "--alpha", "1",
               "--n-max", "20", "--beta", "0", "--n", "4000", "--critical",
               "--crit-tol", "0.02", "--crit-replicas", "2") == EXIT_PASS
    doc = read_json(tmp_path, "pinning.json")
    assert abs(doc["critical_points"]["quenched"]["h_hat"]) <= 0.05


def test_verify_trivial_limit_exit_zero(tmp_path):
    assert run(tmp_path, "verify", "--kernel", "power_law", "--alpha", "1",
               "--n-max", "8", "--beta", "1", "--h", "-1", "--f", "50",
               "--n-tau", "20", "--walk-replicas", "20", "--n-series", "30",
               "--seed", "6") == EXIT_PASS
    doc = read_json(tmp_path, "verify.json")
    assert doc["key_relation"]["verdict"] == "pass"
    assert doc["tau_mean_bound"]["passed"] is True


def test_verify_dirac_exit_zero(tmp_path):
    assert run(tmp_path, "verify", "--kernel", "dirac", "--step", "1",
               "--beta", "0.5", "--h", "-0.8", "--f", "0.2", "--n-tau", "10",
               "--walk-replicas", "400", "--seed", "7") == EXIT_PASS


def test_verify_default_config_passes(tmp_path):
    assert run(tmp_path, "verify", "--seed", "5") == EXIT_PASS
    doc = read_json(tmp_path, "verify.json")
    assert doc["key_relation"]["verdict"] == "pass"
    assert doc["key_relation"]["rhs"]["tail_bound"] is not None


def test_verify_inconclusive_exit_two(tmp_path):
    assert run(tmp_path, "verify", "--kernel", "power_law", "--alpha", "1",
               "--n-max", "8", "--beta", "0", "--h", "1", "--f", "0.1",
               "--n-tau", "4", "--walk-replicas", "4", "--n-series", "1200",
               "--seed", "3") == EXIT_INCONCLUSIVE


def test_scan_small_grid(tmp_path):
    assert run(tmp_path, "scan", "--beta-grid", "0,1", "--h-grid=-0.6,-0.5,-0.05",
               "--kernel", "power_law", "--alpha", "0.6", "--n-max", "20",
               "--n-fe", "3000", "--n-gc", "1000", "--crit-tol", "0.05",
               "--crit-replicas", "2", "--seed", "12") == EXIT_PASS
    rows = read_csv(tmp_path, "scan.csv")
    by_key = {(float(r["beta"]), float(r["h"])): r["case"] for r in rows}
    assert by_key[(0.0, -0.6)] == "case23_merged"
    assert by_key[(1.0, -0.5)] == "boundary"
    doc = read_json(tmp_path, "scan.json")
    assert doc["scan"]["points"]


def test_walk_speed_report(tmp_path):
    assert run(tmp_path, "walk", "--beta", "0", "--h", "0", "--f", "0.4",
               "--horizon", "30", "--r", "20", "--replicas", "2000",
               "--speed", "--speed-steps", "800", "--speed-replicas", "500",
               "--seed", "2") == EXIT_PASS
    doc = read_json(tmp_path, "visits.json")
    target = math.tanh(0.2)
    assert abs(doc["speed"]["mean"] - target) <= 4 * doc["speed"]["stderr"]


def test_walk_step_budget_exit(tmp_path):
    assert run(tmp_path, "walk", "--beta", "0", "--h", "0", "--f", "0",
               "--horizon", "500", "--r", "500", "--replicas", "64",
               "--step-budget", "200", "--seed", "3") == 1
    assert not any(tmp_path.iterdir())


def test_refused_walk_leaves_outdir_empty(tmp_path):
    assert run(tmp_path, "walk", "--replicas", "1") == EXIT_CONFIG
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ("pinning", "--n", "1"),
    ("pinning", "--n", "100", "--critical", "--crit-tol", "0"),
    ("scan", "--transience", "--h", "0"),
])
def test_refused_runs_leave_outdir_empty(tmp_path, monkeypatch, args):
    def no_scan(*_):
        raise AssertionError("the scan ran before the refusal")

    monkeypatch.setattr(cli, "regime_scan", no_scan)
    assert run(tmp_path, *args) == EXIT_CONFIG
    assert not any(tmp_path.iterdir())


def test_pinning_grand_canonical_report(tmp_path):
    assert run(tmp_path, "pinning", "--kernel", "power_law", "--alpha", "0.7",
               "--n-max", "24", "--beta", "0", "--h=-1000", "--n", "96",
               "--gc-f", "0") == EXIT_PASS
    doc = read_json(tmp_path, "pinning.json")
    gc = doc["grand_canonical"]
    assert gc["verdict"] == "converged"
    from sparsepin import kernel_mean, make_kernel
    target = kernel_mean(make_kernel("power_law", alpha=0.7, n_max=24))
    assert gc["partial_sum"] == pytest.approx(target, abs=1e-9)


def test_scan_transience_report(tmp_path):
    assert run(tmp_path, "scan", "--beta-grid", "0", "--h-grid=-0.5",
               "--kernel", "power_law", "--alpha", "1", "--n-max", "5",
               "--n-fe", "2000", "--n-gc", "800", "--transience",
               "--beta", "0", "--h=-1", "--trans-envs", "20",
               "--trans-walks", "100", "--trans-r", "80",
               "--seed", "4") == EXIT_PASS
    doc = read_json(tmp_path, "scan.json")
    assert doc["transience"]["absorbed_fraction"] == 1.0


def test_pinning_rerun_from_embedded_config(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    args = ["pinning", "--kernel", "geometric", "--q", "0.45", "--n-max", "12",
            "--beta", "0.8", "--h=-0.5", "--n", "300", "--seed", "17"]
    assert main([*args, "--outdir", str(out1)]) == EXIT_PASS
    assert main(["pinning", "--config", str(out1 / "pinning.json"),
                 "--outdir", str(out2)]) == EXIT_PASS
    assert (out1 / "pinning.json").read_bytes() == (out2 / "pinning.json").read_bytes()
    assert (out1 / "partition.csv").read_bytes() == (out2 / "partition.csv").read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# walk config\nkernel = dirac\nstep = 1\nhorizon = 5\nseed = 9\n")
    assert main(["env", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_PASS
    assert read_json(tmp_path, "environment.json")["environment"]["horizon"] == 5
    # flag overrides the file
    assert main(["env", "--config", str(cfg), "--horizon", "3",
                 "--outdir", str(tmp_path)]) == EXIT_PASS
    assert read_json(tmp_path, "environment.json")["environment"]["horizon"] == 3


def test_rerun_from_embedded_config_is_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    assert main(["env", "--kernel", "geometric", "--q", "0.3", "--n-max", "7",
                 "--horizon", "40", "--seed", "21", "--outdir", str(out1)]) == EXIT_PASS
    assert main(["env", "--config", str(out1 / "environment.json"),
                 "--outdir", str(out2)]) == EXIT_PASS
    assert (out1 / "environment.json").read_bytes() == (out2 / "environment.json").read_bytes()
    assert (out1 / "kernel.csv").read_bytes() == (out2 / "kernel.csv").read_bytes()


def test_config_errors_exit_64(tmp_path, capsys):
    assert run(tmp_path, "env", "--kernel", "triangular") == EXIT_CONFIG
    assert run(tmp_path, "env", "--kernel", "geometric", "--q", "1.5") == EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 3\n")
    assert main(["env", "--config", str(bad), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("just a line\n")
    assert main(["env", "--config", str(malformed), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    # library ValueErrors on bad values, refused before any long run
    for args in (("walk", "--f", "nan", "--step-budget", "2000"),
                 ("walk", "--beta", "-1"),
                 ("walk", "--replicas", "1"),
                 ("verify", "--n-tau", "1"),
                 ("scan", "--beta-grid", ""),
                 ("pinning", "--n", "100", "--h", "nan"),
                 ("pinning", "--n", "100", "--alpha", "nan"),
                 ("scan", "--beta-grid", "nan"),
                 ("env", "--config", str(tmp_path / "missing.cfg"))):
        capsys.readouterr()
        assert run(tmp_path, *args) == EXIT_CONFIG, args
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, args


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SPARSEPIN_OUTDIR", str(tmp_path))
    assert main(["env", "--kernel", "dirac", "--step", "2", "--horizon", "4"]) == EXIT_PASS
    assert (tmp_path / "environment.json").exists()

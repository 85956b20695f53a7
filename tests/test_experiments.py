"""Experiment runners and the command line: outputs, pass/fail gates, exit codes."""
import csv
import hashlib
import json
import os

import numpy as np
import pytest

from xmd import cli, expfam, simplex
from xmd.config import ExperimentConfig
from xmd.experiments import rank_methods, run_experiment

# sha256 of the CSVs and of summary.json without wall_time (see
# ``output_digest``) at n_steps=200, seed 0, recorded from the one-trajectory-
# at-a-time runners that the batched runners replaced.
ONLINE_DIGESTS = {
    "student-t-online": "acf8425a4d58aa617eea1f93a62d5abf757f386cca4489acab19ec27f139a440",
    "dirichlet-online": "f8439e692191faf0b2d95ae82dfdb5e24549ab2e93d47c06769a4dfa42059044",
}


def output_digest(out_dir):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if not (name.endswith(".csv") or name == "summary.json"):
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "summary.json":
            payload = json.loads(data)
            del payload["wall_time"]
            data = json.dumps(payload, sort_keys=True).encode()
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


def run(tmp_path, experiment, **overrides):
    config = ExperimentConfig(experiment=experiment, **overrides).validate()
    out_dir = str(tmp_path / experiment)
    return run_experiment(config, out_dir), out_dir


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


# ---------------------------------------------------------------------------
# online runners


@pytest.mark.parametrize("experiment", sorted(ONLINE_DIGESTS))
def test_online_outputs_are_unchanged(tmp_path, experiment):
    status = cli.main([experiment, "--seed", "0", "--out", str(tmp_path),
                       "--override", "n_steps=200"])
    assert status == 0
    assert output_digest(str(tmp_path / experiment)) == ONLINE_DIGESTS[experiment]


def test_student_t_fails_on_skipped_updates(tmp_path):
    # x^2 overflows for x ~ 1e200, so every update is skipped
    with np.errstate(over="ignore"):
        summary, out_dir = run(tmp_path, "student-t-online", mu_star=1e200, n_steps=20,
                               n_traj=3)
    assert summary.metrics["skipped_updates"] == 60
    assert not summary.passed
    with open(os.path.join(out_dir, "summary.json")) as fh:
        assert json.load(fh)["passed"] is False


def test_student_t_fails_when_the_error_does_not_shrink(tmp_path):
    # far from the truth the factor pi/pi_y is small, and after 1000 steps the
    # median mu error is still ~0.9 of its k = 0 value
    status = cli.main(["student-t-online", "--out", str(tmp_path), "--override", "mu_star=1e6",
                       "--override", "n_steps=1000"])
    assert status == 1
    with open(tmp_path / "student-t-online" / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["metrics"]["median_mu_error"] > 0.25e6
    assert summary["metrics"]["skipped_updates"] == 0


def test_student_t_fails_on_non_finite_estimate(tmp_path, monkeypatch):
    def nan_params(theta, nu):
        return expfam.StudentTParams(np.full(len(theta), np.nan), np.ones(len(theta)), nu)

    monkeypatch.setattr(expfam, "student_t_params", nan_params)
    summary, _ = run(tmp_path, "student-t-online", n_steps=5, n_traj=2)
    assert summary.metrics["skipped_updates"] == 0
    assert not summary.passed


def test_dirichlet_fails_on_skipped_updates(tmp_path):
    # at noise level 50 the gamma draws underflow to 0, so some observations
    # are infinite and their updates are skipped (the state repeats)
    with np.errstate(all="ignore"):
        summary, out_dir = run(tmp_path, "dirichlet-online", lam=-50.0, dim=3,
                               n_steps=50, n_traj=3)
    assert not summary.passed
    dists = [[row[1] for row in read_rows(os.path.join(out_dir, f"trajectory_{t:02d}.csv"))]
             for t in range(3)]
    assert any(a == b for traj in dists for a, b in zip(traj, traj[1:]))


def test_dirichlet_fails_on_non_finite_distance(tmp_path, monkeypatch):
    monkeypatch.setattr(expfam, "log_distance", lambda eta, eta_p: np.full(len(eta), np.inf))
    summary, _ = run(tmp_path, "dirichlet-online", dim=3, n_steps=5, n_traj=2)
    assert not summary.passed


# ---------------------------------------------------------------------------
# simplex comparison


def test_simplex_compare_fails_on_nan_and_ranks_it_last(tmp_path, monkeypatch):
    monkeypatch.setattr(simplex, "step_entropic",
                        lambda p, obj_grad, delta: np.full_like(p, np.nan))
    summary, _ = run(tmp_path, "simplex-compare", n_steps=50, n_inits=2, alpha_list=[0.5])
    assert np.isnan(summary.metrics["final_mean_costs"]["entropic"])
    assert summary.metrics["ranking"] == ["conformal_a0.5", "entropic"]
    assert not summary.passed


def test_simplex_compare_passes_when_finite(tmp_path):
    summary, out_dir = run(tmp_path, "simplex-compare", n=5, n_steps=50, n_inits=2,
                           alpha_list=[0.5])
    assert all(np.isfinite(v) for v in summary.metrics["final_mean_costs"].values())
    assert all(float(row[5]) > 0.0 for row in read_rows(os.path.join(out_dir, "final_costs.csv")))
    assert summary.passed


def test_rank_methods_puts_non_finite_last_in_method_order():
    finals = {"a": np.nan, "b": 3.0, "c": np.inf, "d": 1.0, "e": -np.inf, "f": 2.0}
    assert rank_methods(finals) == ["d", "f", "b", "a", "c", "e"]


# ---------------------------------------------------------------------------
# configuration errors exit with status 2


@pytest.mark.parametrize("override", [
    'delta_schedule="abc/k"',
    'delta_schedule="const:-1"',
    "delta_schedule=5",
    "n_steps=abc",
    "n_steps=0",
    "n_traj=2.5",
    "seed=true",
    "nu=nan",
    "nu=1" + "0" * 400,
    "mu0=abc",
    "alpha_list=[0.1, x]",
    "out=3",
])
def test_bad_override_exits_with_status_2(tmp_path, override, capsys):
    status = cli.main(["student-t-online", "--out", str(tmp_path), "--override", override])
    assert status == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not os.listdir(tmp_path)


def test_bad_config_file_exits_with_status_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text('experiment = "dirichlet-online"\nn_steps = "many"\n')
    assert cli.main(["dirichlet-online", "--config", str(path)]) == 2
    assert "n_steps" in capsys.readouterr().err

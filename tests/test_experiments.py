"""Experiment runners and the command line: outputs, pass/fail gates, exit codes."""
import csv
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hypothesis import given, reject, strategies as st

import xmd
from xmd import cli, expfam, simplex
from xmd.config import (EXPERIMENTS, ConfigError, ExperimentConfig, _build,
                        canonical_dumps, parse_config)
from xmd.experiments import SLOPE_BAND, rank_methods, run_experiment

# sha256 of the CSVs and of summary.json without wall_time (see
# ``output_digest``) at n_steps=200, seed 0, recorded from the one-trajectory-
# at-a-time runners that the batched runners replaced.
ONLINE_DIGESTS = {
    "student-t-online": "acf8425a4d58aa617eea1f93a62d5abf757f386cca4489acab19ec27f139a440",
    "dirichlet-online": "f8439e692191faf0b2d95ae82dfdb5e24549ab2e93d47c06769a4dfa42059044",
}

# the same digest of the two fixed-instance diagnostics suites at their
# defaults, recorded before the conformal clock joined the RK4 state
DIAGNOSTICS_DIGESTS = {
    "geodesic-check": "af23c991c8cce5a8c951516f50208398143ddc6077d1b8d304c33063612d1791",
    "lyapunov-suite": "c772af6fe74a862e0db99da510c687d3b41eee032c012efdbbdae2b8171126d5",
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


def test_dirichlet_fails_off_the_square_root_rate(tmp_path):
    # a constant step stops the error shrinking: the log-log slope is positive
    status = cli.main(["dirichlet-online", "--out", str(tmp_path), "--override",
                       "delta_schedule=const:0.5", "--override", "n_steps=1000"])
    assert status == 1
    with open(tmp_path / "dirichlet-online" / "summary.json") as fh:
        slope = json.load(fh)["metrics"]["slope"]
    assert slope > SLOPE_BAND[1]


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
# diagnostics


@pytest.mark.parametrize("experiment", sorted(DIAGNOSTICS_DIGESTS))
def test_diagnostics_outputs_are_unchanged(tmp_path, experiment):
    assert cli.main([experiment, "--out", str(tmp_path)]) == 0
    assert output_digest(str(tmp_path / experiment)) == DIAGNOSTICS_DIGESTS[experiment]


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


@pytest.mark.parametrize("experiment, overrides", [
    *(pytest.param("student-t-online", [o], id=o) for o in [
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
        # every character that str.splitlines breaks on
        *(f'out="a{c}b"' for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    ]),
    # configs that used to run on a degenerate model instead of failing
    pytest.param("student-t-online", ["sigma_star=0", "n_steps=5"], id="sigma_star=0"),
    pytest.param("student-t-online", ["sigma0=-1"], id="sigma0=-1"),
    pytest.param("dirichlet-online", ["truth_concentration=0"], id="truth_concentration=0"),
    pytest.param("simplex-compare", ['target="dirichlet"', "target_a=0", "n_steps=2"],
                 id="target_a=0"),
    pytest.param("flow-equivalence", ["dt=2"], id="dt=2"),
    # alpha values that never move the method, or run one method twice
    *(pytest.param("simplex-compare", [o, "n_steps=2"], id=o) for o in [
        "alpha_list=[nan]",
        "alpha_list=[-inf]",
        "alpha_list=[0.5, 0.5]",
        "alpha_list=[0, 0.0]",
    ]),
])
def test_bad_override_exits_with_status_2(tmp_path, experiment, overrides, capsys):
    argv = [experiment, "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--override", item]
    status = cli.main(argv)
    assert status == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not os.listdir(tmp_path)


def test_cli_import_leaves_scipy_unloaded():
    # every run pays for its imports in start-up time; numpy is the only dependency
    src = os.path.dirname(os.path.dirname(xmd.__file__))
    code = ("import sys, xmd.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0


def test_benchmark_per_layer_functions_exist():
    # the benchmark's traced run fails with a KeyError on a per-layer metric
    # whose function the tracer cannot find: a public function defined in its
    # xmd module, or a method of a class defined there
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        specs = json.load(fh)["per_layer"]
    functions = {spec["name"].rsplit(".", 1)[0] for spec in specs
                 if spec["name"].rsplit(".", 1)[1] in ("calls", "self_s", "us_per_call")}
    assert functions
    for function in sorted(functions):
        module_name, *path = function.split(".")
        module = importlib.import_module(f"xmd.{module_name}")
        owner = module
        for attr in path[:-1]:
            owner = vars(owner).get(attr)
            assert inspect.isclass(owner) and owner.__module__ == module.__name__, function
        value = vars(owner).get(path[-1])
        assert inspect.isfunction(value) and not path[-1].startswith("_"), function
        assert value.__module__ == module.__name__, function


def test_bad_config_file_exits_with_status_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text('experiment = "dirichlet-online"\nn_steps = "many"\n')
    assert cli.main(["dirichlet-online", "--config", str(path)]) == 2
    assert "n_steps" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the canonical serialization round-trips


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


@st.composite
def valid_configs(draw):
    positive = _finite(min_value=0.0, exclude_min=True)
    data = {
        "experiment": draw(st.sampled_from(EXPERIMENTS)),
        "seed": draw(st.integers(min_value=0)),
        "out": draw(st.text()),
        "delta_schedule": draw(st.sampled_from(["1/k", "1/sqrt(k)", "1/(d*sqrt(k))"])
                               | positive.map(lambda c: f"const:{c!r}")),
        "n_steps": draw(st.integers(min_value=1)),
        "n_traj": draw(st.integers(min_value=1)),
        "nu": draw(positive),
        "mu_star": draw(_finite()),
        "sigma_star": draw(_finite()),
        "mu0": draw(_finite()),
        "sigma0": draw(_finite()),
        "dim": draw(st.integers(min_value=1)),
        "lam": draw(_finite(max_value=0.0, exclude_max=True)),
        "truth_concentration": draw(_finite()),
        "n": draw(st.integers(min_value=2)),
        "alpha_list": draw(st.lists(_finite(max_value=1.0, exclude_max=True)
                                    | st.integers(max_value=0), max_size=5)),
        "target": draw(st.sampled_from(["barycenter", "dirichlet"])),
        "target_a": draw(_finite()),
        "n_inits": draw(st.integers(min_value=1)),
        "dt": draw(positive),
        "t_end": draw(positive),
    }
    # every config file and override goes through _build; keep what it accepts
    try:
        return _build(data)
    except ConfigError:
        reject()


@given(valid_configs())
def test_canonical_dumps_round_trips(config):
    assert parse_config(canonical_dumps(config)) == config


"""Experiment runners and the command line: outputs, pass/fail gates, exit codes."""
import collections
import csv
import functools
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

from hypothesis import given, reject, strategies as st

import xmd
from xmd import cli, core, experiments, expfam, flows, simplex
from xmd.core import SolverError
from xmd.config import (EXPERIMENTS, MAX_TIME_STEPS, NU_MAX, NU_MIN, ConfigError,
                        ExperimentConfig, _build, canonical_dumps, parse_config)
from xmd.experiments import (SLOPE_BAND, _write_csv, converged_k, rank_methods,
                             run_experiment)

# sha256 of the CSVs and of summary.json without wall_time (see
# ``output_digest``) at n_steps=200, seed 0, recorded from the one-trajectory-
# at-a-time runners that the batched runners replaced.
ONLINE_DIGESTS = {
    "student-t-online": "acf8425a4d58aa617eea1f93a62d5abf757f386cca4489acab19ec27f139a440",
    "dirichlet-online": "f8439e692191faf0b2d95ae82dfdb5e24549ab2e93d47c06769a4dfa42059044",
}

# the same digest of the diagnostics suites, each with its arguments:
# geodesic-check at its default, recorded once it checked its 40 instances at
# 25 points of each segment; lyapunov-suite at its default, recorded once it
# stepped on graded grids of stretch 8 (200 steps for the 1-d path and 256 for
# the 2-d path, with the Richardson estimates in its summary); and
# flow-equivalence at the benchmark's t_end=0.1 and its default dt 1e-2
DIAGNOSTICS_DIGESTS = {
    "geodesic-check":
        ((), "04d42b8767af43a57e0dcb0119f15884926bac20d1691f7687fc25fbcf192ad7"),
    "lyapunov-suite":
        ((), "2bd388c747d1d049748c9cf2578b905abb4a551e21878e60147c195c57d9341c"),
    "flow-equivalence":
        (("--override", "t_end=0.1"),
         "5f2c24183aef62aac52dd03a298999c848c6c48d4d1db148d4f054e442ca1dd9"),
}


# the same digest of simplex-compare, keyed by its arguments, recorded once
# the conformal step took alpha in closed form: every conformal row stepped in
# one call per k with alpha as a column, pi(neg p) the (-alpha)-powering and q
# the (1 - alpha)-powering of p, log q stepped from (1 - alpha) log p and
# mapped back by one normalization of its dilated value, and the ranking by
# converged_k: at n_steps=50, seed 0; and, toward a Dirichlet target, with
# alpha = -1, 0 and 0.5, which power by -1, 0 or 0.5: the exponents at which
# numpy's ** leaves pow for a fast path
SIMPLEX_DIGESTS = {
    ("--seed", "0", "--override", "n_steps=50"):
        "6114199f478e3aa02dec73345797827121b519cfa2a1eed14182f5b4e0395dc4",
    ("--seed", "1", "--override", "alpha_list=[-1.0,0.0,0.5,0.9]",
     "--override", "target=dirichlet", "--override", "n_steps=200"):
        "f47d23225fe8eb519c7c0180ce77e0b21cf1dcdbc239450bcfef80401eb61c5e",
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


def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path):
    # the column writer against csv.writer fed rows under the per-field rule
    # it replaced: a str as it is, an int by str, anything else repr(float(x))
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e22, 1 / 3])
    count = len(floats)
    columns = [
        ["entropic", "conformal_a0.5"] * (count // 2),
        floats,
        floats[::-1],  # a strided view
        np.arange(count),
        [3, np.int64(4), True, -7, np.int32(0), 10 ** 20, 0, 1],
        [np.float64(x) for x in floats],
        ["", 0.5, "", -0.0, "", np.float64(1e22), "", 2],
        range(count),
    ]
    header = [f"c{i}" for i in range(len(columns))]
    assert _write_csv(str(tmp_path), "new.csv", header, columns) == "new.csv"
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([x if isinstance(x, (str, int)) else repr(float(x)) for x in row])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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
        shape = np.shape(theta)[:-1]
        return expfam.StudentTParams(np.full(shape, np.nan), np.ones(shape), nu)

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
    args, digest = DIAGNOSTICS_DIGESTS[experiment]
    assert cli.main([experiment, "--out", str(tmp_path), *args]) == 0
    assert output_digest(str(tmp_path / experiment)) == digest


def _bench_module(name):
    """bench/<name>.py, loaded by path (the benchmark is not a package)
    once, as the module ``bench_<name>``: the dataclasses of workloads.py
    need their module in sys.modules."""
    if f"bench_{name}" not in sys.modules:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            f"bench_{name}", os.path.join(root, "bench", f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[f"bench_{name}"] = module
        spec.loader.exec_module(module)
    return sys.modules[f"bench_{name}"]


@pytest.mark.parametrize("experiment", sorted(DIAGNOSTICS_DIGESTS))
def test_diagnostics_write_the_rows_the_benchmark_expects(tmp_path, experiment):
    # the benchmark counts a checks.csv with any other metric column, an
    # added row included, as incorrect output; run each suite as its
    # workload does and check the outputs with the benchmark's own checks
    workloads = _bench_module("workloads")
    (overrides,) = [o for e, o in workloads.WORKLOADS["flows"] if e == experiment]
    assert cli.main(workloads.cli_argv(experiment, overrides, 0, str(tmp_path))) == 0
    out_dir = str(tmp_path / experiment)
    assert ([row[1] for row in read_rows(os.path.join(out_dir, "checks.csv"))]
            == workloads.DIAGNOSTIC_CHECKS[experiment])
    attempted, failed, problems = workloads.check_outputs(experiment, out_dir)
    assert (attempted, failed, problems) == (len(workloads.DIAGNOSTIC_CHECKS[experiment]), 0, [])


# RK4 stages per suite at its DIAGNOSTICS_DIGESTS arguments: flow-equivalence
# steps two 10-step paths, geodesic-check none (it checks velocities at the
# points of its segments, through core.metric), and lyapunov-suite a 1-d path
# of 200 steps and a 2-d path of 256, each batched with its companion of half
# its steps: 100 steps of the batch and 100 of the path alone (1-d), 128 and
# 128 (2-d)
RK4_STAGES = {"flow-equivalence": 80, "geodesic-check": 0, "lyapunov-suite": 1824}


@pytest.mark.parametrize("experiment", sorted(RK4_STAGES))
def test_diagnostics_make_their_count_of_rk4_stages(tmp_path, monkeypatch, experiment):
    # each RK4 stage assembles its metrics once through the flows binding of
    # _assemble_metric; core.metric calls the core binding, so only stages count
    assemble = flows._assemble_metric
    stages = []

    def counted(*args):
        stages.append(None)
        return assemble(*args)

    monkeypatch.setattr(flows, "_assemble_metric", counted)
    args, _ = DIAGNOSTICS_DIGESTS[experiment]
    assert cli.main([experiment, "--out", str(tmp_path), *args]) == 0
    assert len(stages) == RK4_STAGES[experiment]


# guarded-step tries per caller for each runner at its benchmark size, seed 0:
# no online update retries; the 50 calls of each simplex step make 28 and 21
# retries in all; the discrete Lyapunov run steps 45 times, to its fixed point, and
# each of its steps is accepted at once
GUARDED_TRIES = {
    "student-t-online": (("--override", "n_steps=1000"), {"online_update": 1000}),
    "dirichlet-online": (("--override", "n_steps=1000"), {"online_update": 1000}),
    "simplex-compare": (("--override", "n_steps=50"), {"step_conformal": 78, "step_entropic": 71}),
    "flow-equivalence": (("--override", "t_end=0.1"), {}),
    "geodesic-check": ((), {}),
    "lyapunov-suite": ((), {"step_adaptive_mirror": 45}),
}


@pytest.mark.parametrize("experiment", sorted(GUARDED_TRIES))
def test_runners_make_their_count_of_guarded_step_tries(tmp_path, monkeypatch, experiment):
    # a try maps its candidates by finish, if given, then tests them by
    # accept, so a try calls finish once, or accept once when there is no
    # finish; each count goes to the function that called the guarded step
    guarded = flows._guarded_step
    tries = collections.Counter()

    def counted(x, base, direction, delta, accept, finish=None):
        caller = sys._getframe(1).f_code.co_name

        def tried(f):
            def call(*args):
                tries[caller] += 1
                return f(*args)
            return call

        if finish is None:
            return guarded(x, base, direction, delta, tried(accept))
        return guarded(x, base, direction, delta, accept, tried(finish))

    for module in (flows, simplex, expfam):
        monkeypatch.setattr(module, "_guarded_step", counted)
    args, counts = GUARDED_TRIES[experiment]
    assert cli.main([experiment, "--seed", "0", "--out", str(tmp_path), *args]) == 0
    assert tries == counts


def _checks(out_dir):
    """checks.csv as {metric: (value, passed)}."""
    return {row[1]: (float(row[2]), row[4] == "True")
            for row in read_rows(os.path.join(out_dir, "checks.csv"))}


def _summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def _flow_equivalence(tmp_path, *overrides):
    """The exit status of flow-equivalence under ``overrides`` and its
    sup_deviation row (value, passed)."""
    out = tmp_path / "-".join(overrides)
    argv = ["flow-equivalence", "--out", str(out)]
    for item in overrides:
        argv += ["--override", item]
    status = cli.main(argv)
    return status, _checks(str(out / "flow-equivalence"))["sup_deviation"]


def test_flow_equivalence_default_grid_is_in_rk4_asymptotic_range(tmp_path):
    # the exact paths coincide, so the deviation is integration error: at
    # the defaults (t_end 1, dt 1e-2) it is 1e-4 of the tolerance or less,
    # and halving dt divides it by about 16, RK4's rate
    assert ExperimentConfig("flow-equivalence").t_end == 1.0
    status, (dev, ok) = _flow_equivalence(tmp_path)
    assert status == 0 and ok
    assert 0.0 < dev <= 1e-4 * experiments.EQUIVALENCE_TOL
    _, (half, _) = _flow_equivalence(tmp_path, f"dt={ExperimentConfig.dt / 2}")
    assert 8.0 < dev / half < 32.0


def _clock_fast(gen, obj, theta0, s, hessian_flow=flows.integrate_hessian_flow):
    return hessian_flow(gen, obj, theta0, 1.01 * s)


def _weight_dropped(gen, obj, theta0, s):
    return flows._integrate_clocked(gen, obj, theta0, s).theta


@pytest.mark.parametrize("fault", [_clock_fast, _weight_dropped])
@pytest.mark.parametrize("t_end", ["t_end=0.1", "t_end=1.0"])
def test_flow_equivalence_fails_a_time_change_fault_on_its_default_grid(tmp_path, monkeypatch,
                                                                        capsys, fault, t_end):
    # a Hessian path on a clock 1% fast, or the Hessian flow without its
    # weight, leaves the time change by 6e-4 to 0.18: the default grid reads
    # the deviation of the grid 10x finer, so it cannot hide the fault
    monkeypatch.setattr(flows, "integrate_hessian_flow", fault)
    status, (dev, ok) = _flow_equivalence(tmp_path, t_end)
    assert status == 1 and not ok
    assert "flow-equivalence: FAIL" in capsys.readouterr().out
    assert "errors" not in _summary(str(tmp_path / t_end / "flow-equivalence"))["metrics"]
    _, (fine, _) = _flow_equivalence(tmp_path, t_end, "dt=1e-3")
    assert dev == pytest.approx(fine, rel=1e-3)


def test_lyapunov_suite_reports_its_error_estimates_in_budget(tmp_path):
    summary, out_dir = run(tmp_path, "lyapunov-suite")
    assert summary.passed
    metrics = _summary(out_dir)["metrics"]
    for label in ("1d", "2d"):
        assert 0.0 < 2.0 * metrics[f"richardson_error_{label}"] < flows.MONOTONE_TOL
    assert "errors" not in metrics


def test_lyapunov_suite_fails_a_path_too_coarse_for_its_error_budget(tmp_path, monkeypatch,
                                                                    capsys):
    # on the graded grid of 20 steps neither path shows a rise of E, but the
    # Richardson estimate of E's error (1.5e-3 and 7.4e-6) is far over its
    # budget: the grid cannot tell a rise from its own error, so the
    # violations rows fail
    monkeypatch.setattr(experiments, "LYAPUNOV_STEPS", {"1d": 20, "2d": 20})
    assert cli.main(["lyapunov-suite", "--out", str(tmp_path)]) == 1
    assert "lyapunov-suite: FAIL" in capsys.readouterr().out
    out_dir = str(tmp_path / "lyapunov-suite")
    checks = _checks(out_dir)
    assert checks["violations_1d"] == checks["violations_2d"] == (0.0, False)
    assert checks["bound_dominates_1d"] == (1.0, True)
    metrics = _summary(out_dir)["metrics"]
    assert 2.0 * metrics["richardson_error_2d"] > 1e4 * flows.MONOTONE_TOL


def test_lyapunov_grids_are_the_coarsest_their_budget_certifies(tmp_path, monkeypatch):
    # each path meets 2 x richardson_error < MONOTONE_TOL on its grid, and
    # misses it on the rung below: half the steps, the same stretch
    grids = dict(experiments.LYAPUNOV_STEPS)
    assert all(n % 2 == 0 for n in grids.values())
    estimates = {}
    for div in (1, 2):
        monkeypatch.setattr(experiments, "LYAPUNOV_STEPS",
                            {label: n // div for label, n in grids.items()})
        out = tmp_path / f"n_over_{div}"
        assert cli.main(["lyapunov-suite", "--out", str(out)]) == (0 if div == 1 else 1)
        metrics = _summary(str(out / "lyapunov-suite"))["metrics"]
        estimates[div] = {label: metrics[f"richardson_error_{label}"] for label in grids}
    for label in grids:
        assert 2.0 * estimates[1][label] < flows.MONOTONE_TOL
        assert 2.0 * estimates[2][label] >= flows.MONOTONE_TOL


def test_cli_docstring_states_the_suite_grids():
    # the usage text names the grids lyapunov-suite steps on, and the points
    # at which geodesic-check checks its velocities
    doc = " ".join(cli.__doc__.split())
    steps = experiments.LYAPUNOV_STEPS
    assert f"(stretch {experiments.GRID_STRETCH:g})" in doc
    assert f"at {experiments.GEODESIC_POINTS} points of each segment" in doc
    assert (f"{steps['1d']} steps (the 1-d path) and {steps['2d']} steps "
            "(the 2-d path) to t_end 4") in doc


def _put_fault(monkeypatch, name, fault):
    """Replace the function ``name`` by ``fault`` at every binding the runners
    read: in core, and in flows, which imports it."""
    for module in (core, flows):
        monkeypatch.setattr(module, name, fault)


def test_geodesic_check_fails_the_metric_sign_fault(tmp_path, monkeypatch, capsys):
    # G = hess phi - lam u u^T turns the primal velocity off its segment and
    # changes the dual velocity, at every point
    _put_fault(monkeypatch, "_assemble_metric",
               lambda gen, u, h: h - gen.lam * (u[..., None] * u[..., None, :]))
    assert cli.main(["geodesic-check", "--out", str(tmp_path)]) == 1
    assert "geodesic-check: FAIL" in capsys.readouterr().out
    checks = _checks(str(tmp_path / "geodesic-check"))
    assert not checks["dual_collinearity"][1] and checks["dual_collinearity"][0] > 1e-3
    assert not checks["primal_collinearity"][1] and checks["primal_collinearity"][0] > 1e-3
    # in one dimension every velocity lies along the segment, and the dual
    # velocity is off by a factor
    assert not checks["scalar_instance_max_error"][1]
    assert checks["scalar_instance_max_error"][0] > 1.0


def test_lyapunov_suite_fails_the_clock_sign_fault_without_a_traceback(tmp_path, monkeypatch,
                                                                      capsys):
    # with the clock exp(-lam phi), the two forms of the smoothness
    # denominator disagree and conformal_smoothness_estimate raises a
    # RegularityError: the discrete check's rows fail, every row is written
    # and the error's text is kept in the summary
    _put_fault(monkeypatch, "conformal_weight",
               lambda gen, theta: np.exp(-gen.lam * gen.value(theta)))
    assert cli.main(["lyapunov-suite", "--out", str(tmp_path)]) == 1
    assert "lyapunov-suite: FAIL" in capsys.readouterr().out
    out_dir = str(tmp_path / "lyapunov-suite")
    checks = _checks(out_dir)
    assert list(checks) == ["violations_1d", "bound_dominates_1d", "violations_2d",
                            "violations", "bound_dominates"]
    for metric in ("violations", "bound_dominates"):
        assert np.isnan(checks[metric][0]) and not checks[metric][1]
    (error,) = _summary(out_dir)["metrics"]["errors"]
    assert error.startswith("lyapunov-discrete: RegularityError: smoothness denominators")


def test_lyapunov_suite_steps_its_discrete_run_to_the_fixed_point_only(tmp_path,
                                                                       monkeypatch):
    # of the k_max = 2000 steps, step 45 returns its input's bits, so every
    # later step would too: the run stops there and fills the rest
    step = flows.step_adaptive_mirror
    steps = []

    def counted(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(flows, "step_adaptive_mirror", counted)
    summary, _ = run(tmp_path, "lyapunov-suite")
    assert summary.passed
    assert len(steps) == 45
    gen, obj, theta, delta = steps[-1]
    assert step(gen, obj, theta, delta).tobytes() == theta.tobytes()
    assert steps[-2][2].tobytes() != theta.tobytes()


def test_lyapunov_suite_fails_a_nan_smoothness_pair_without_a_traceback(tmp_path, monkeypatch,
                                                                        capsys):
    # a NaN B_Phi at one of the 42 pairs left the smoothness estimate, and
    # the discrete rows, as they were; now the discrete check fails with the
    # pair named, and the continuous checks run as before
    big_phi_bregman = flows.big_phi_bregman

    def nan_at_one_pair(gen, x, y):
        if np.array_equal(x, [0.5]) and np.array_equal(y, [-0.5]):
            return np.nan
        return big_phi_bregman(gen, x, y)

    monkeypatch.setattr(flows, "big_phi_bregman", nan_at_one_pair)
    assert cli.main(["lyapunov-suite", "--out", str(tmp_path)]) == 1
    assert "lyapunov-suite: FAIL" in capsys.readouterr().out
    out_dir = str(tmp_path / "lyapunov-suite")
    checks = _checks(out_dir)
    assert checks["violations_1d"] == checks["violations_2d"] == (0.0, True)
    for metric in ("violations", "bound_dominates"):
        assert np.isnan(checks[metric][0]) and not checks[metric][1]
    assert _summary(out_dir)["metrics"]["errors"] == [
        "lyapunov-discrete: DomainError: non-finite smoothness ratio at pair ([0.5], [-0.5]): "
        "B_f = 0.5, denominator nan"]


def test_a_diagnostics_check_that_raises_fails_only_its_own_rows(tmp_path, monkeypatch):
    def no_path(gen, obj, theta0, t):
        raise SolverError("no path")
    monkeypatch.setattr(experiments, "lyapunov_continuous", no_path)
    summary, out_dir = run(tmp_path, "lyapunov-suite")
    assert not summary.passed
    checks = _checks(out_dir)
    for metric in ("violations_1d", "bound_dominates_1d", "violations_2d"):
        assert np.isnan(checks[metric][0]) and not checks[metric][1]
    assert checks["violations"] == (0.0, True) and checks["bound_dominates"] == (1.0, True)
    assert summary.metrics["errors"] == ["lyapunov-continuous: SolverError: no path"] * 2
    assert not any(key.startswith("richardson_error") for key in summary.metrics)


# ---------------------------------------------------------------------------
# simplex comparison


def test_simplex_outputs_are_unchanged(tmp_path):
    for i, (args, digest) in enumerate(SIMPLEX_DIGESTS.items()):
        out = tmp_path / str(i)
        assert cli.main(["simplex-compare", "--out", str(out), *args]) == 0
        assert output_digest(str(out / "simplex-compare")) == digest, args


def test_simplex_compare_fails_a_bad_alpha_alone(tmp_path, capsys):
    # at alpha = -200, pi(neg p), the 200-powering of p, underflows to zero at
    # the lightest weights of the initial points, so their flow direction is
    # not finite: those rows turn NaN and fail the run, with no
    # RuntimeWarning (which the suite turns into an error), and the rows of
    # the other methods, stepped in the same batch, keep their bits
    argv = ["simplex-compare", "--override", "n_steps=20", "--override"]
    assert cli.main([*argv, "alpha_list=[-200.0, 0.5]", "--out", str(tmp_path / "bad")]) == 1
    assert "simplex-compare: FAIL" in capsys.readouterr().out
    assert cli.main([*argv, "alpha_list=[0.5]", "--out", str(tmp_path / "good")]) == 0
    bad = read_rows(tmp_path / "bad" / "simplex-compare" / "final_costs.csv")
    good = read_rows(tmp_path / "good" / "simplex-compare" / "final_costs.csv")
    assert any(row[4] == "nan" for row in bad if row[0] == "conformal_a-200.0")
    assert [row for row in bad if row[0] != "conformal_a-200.0"] == good
    with open(tmp_path / "bad" / "simplex-compare" / "summary.json") as fh:
        metrics = json.load(fh)["metrics"]
    assert np.isnan(metrics["final_mean_costs"]["conformal_a-200.0"])
    assert metrics["ranking"][-1] == "conformal_a-200.0"


def test_simplex_compare_runs_entropic_alone(tmp_path):
    summary, out_dir = run(tmp_path, "simplex-compare", n_steps=20, alpha_list=[])
    assert list(summary.metrics["final_mean_costs"]) == ["entropic"]
    assert {row[0] for row in read_rows(os.path.join(out_dir, "final_costs.csv"))} == {"entropic"}
    assert summary.passed


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
    ks = summary.metrics["converged_k"]
    assert list(ks) == list(summary.metrics["final_mean_costs"])
    assert all(k is None or 0 < k <= 50 for k in ks.values())
    assert all(float(row[5]) > 0.0 for row in read_rows(os.path.join(out_dir, "final_costs.csv")))
    assert summary.passed


def test_simplex_compare_steps_every_conformal_row_in_one_call_per_k(tmp_path, monkeypatch):
    calls = {"step_conformal": 0, "step_entropic": 0}
    for name in calls:
        def counted(*args, _name=name, _step=getattr(simplex, name)):
            calls[_name] += 1
            return _step(*args)
        monkeypatch.setattr(simplex, name, counted)
    summary, out_dir = run(tmp_path / "three", "simplex-compare", n=5, n_steps=7, n_inits=3,
                           alpha_list=[0.0, -1.0, 0.5])
    assert calls == {"step_conformal": 7, "step_entropic": 7}
    assert summary.passed
    # alpha = 0 alone steps its rows with the bits they get among the others
    alone, alone_dir = run(tmp_path / "alone", "simplex-compare", n=5, n_steps=7, n_inits=3,
                           alpha_list=[0.0])
    assert alone.passed
    assert list(alone.metrics["final_mean_costs"]) == ["conformal_a0.0", "entropic"]
    rows = read_rows(os.path.join(out_dir, "final_costs.csv"))
    assert read_rows(os.path.join(alone_dir, "final_costs.csv")) == [
        row for row in rows if row[0] in ("conformal_a0.0", "entropic")]


# the package definitions that no runner enters, each with the reason it stays
UNREACHED_ALLOWED = {
    "flows.FlowState.__len__": "the flows.integrate hook of bench/spans.py reads len(result)",
    "flows.step_primal_euler": "a runner check of the Euler schemes' order is planned",
    "flows.step_dual_euler": "a runner check of the Euler schemes' order is planned",
    "expfam.log_loss": "a runner check that online_update is the dual Euler step "
                       "on the log loss is planned",
}

def _package_definitions():
    """{code: name} of every function defined at module level in a module
    of the package, and of every method, static method and property getter, setter
    or cached property of a class defined there, by its source (so without
    the methods that dataclasses generate); for ``simplex`` also every nested
    function and lambda."""
    defined = {}

    def collect(code, short, nested=False):
        defined[code] = f"{short}.{code.co_qualname}"
        for const in code.co_consts if nested else ():
            if inspect.iscode(const):
                collect(const, short, nested)

    for short in sorted(info.name for info in pkgutil.iter_modules(xmd.__path__)):
        module = importlib.import_module(f"xmd.{short}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                collect(value.__code__, short, nested=short == "simplex")
            elif inspect.isclass(value):
                for member in vars(value).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        functions = [member.__func__]
                    elif isinstance(member, property):
                        functions = [member.fget, member.fset, member.fdel]
                    elif isinstance(member, functools.cached_property):
                        functions = [member.func]
                    else:
                        functions = [member]
                    for fn in functions:
                        if (inspect.isfunction(fn)
                                and fn.__code__.co_filename == module.__file__):
                            collect(fn.__code__, short)
    return defined


def test_every_package_function_is_entered_by_a_runner(tmp_path):
    # the reach census of src/xmd: the six runners at a few steps, one of
    # them started from --config, enter every function, method and property
    # the package defines, and every nested function of simplex, except the
    # allow-list, so nothing in it is reached by tests alone
    defined = _package_definitions()
    config = tmp_path / "flow-equivalence.cfg"
    config.write_text('experiment = "flow-equivalence"\nt_end = 0.1\n')
    runs = [["student-t-online", "--override", "n_steps=3"],
            ["dirichlet-online", "--override", "n_steps=3"],
            ["simplex-compare", "--override", "n_steps=3", "--override", "n_inits=2"],
            ["flow-equivalence", "--config", str(config)],
            ["geodesic-check"],
            ["lyapunov-suite"]]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
    sys.setprofile(profile)
    try:
        statuses = [cli.main([*argv, "--out", str(tmp_path)]) for argv in runs]
    finally:
        sys.setprofile(None)
    # three steps are too few for the online claims, which fail with status 1
    assert statuses == [1, 1, 0, 0, 0, 0]
    assert len(defined) > 100
    assert {"simplex._descends.<locals>.accept", "core.Domain.box", "core.Generator.is_bregman",
            "flows.ConvergenceReport.monotone", "rng.substream"} <= set(defined.values())
    assert sorted(name for code, name in defined.items()
                  if code not in entered) == sorted(UNREACHED_ALLOWED)


def test_rank_methods_puts_non_finite_last_in_method_order():
    # no method converges: they rank by final mean cost
    finals = {"a": np.nan, "b": 3.0, "c": np.inf, "d": 1.0, "e": -np.inf, "f": 2.0}
    curves = {label: np.array([10.0, final]) for label, final in finals.items()}
    assert rank_methods(curves) == ["d", "f", "b", "a", "c", "e"]


def test_rank_methods_ranks_converged_methods_by_first_k_above_round_off():
    curves = {
        "never": [1.0, 1e-6, 1e-9, 1e-11],
        "slow": [1.0, 1e-3, 1e-13, 5e-17],
        "lost": [1.0, 1e-13, np.nan, np.nan],
        "fast": [4.0, 4e-12, 1e-13, 1e-16],
        "round_off": [1.0, 1e-3, 1e-13, -7e-17],
        "stalled": [1.0, 0.1, 3e-12, 2e-12],
        "late": [1.0, 0.5, 0.1, 1e-12],
    }
    ks = {label: converged_k(curve) for label, curve in curves.items()}
    assert ks == {"never": None, "slow": 2, "lost": 1, "fast": 1, "round_off": 2,
                  "stalled": None, "late": 3}
    # round_off ends below zero, which ranked it first by final cost; it
    # reaches the tolerance at the k of slow, and ties keep method order
    assert rank_methods(curves) == ["fast", "slow", "round_off", "late", "stalled",
                                    "never", "lost"]


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
        # rng.substream keys on the seed's low 64 bits, so these would rerun
        # seeds 2**64 - 1 and 0
        "seed=-1",
        "seed=18446744073709551616",
        "nu=nan",
        "nu=1" + "0" * 400,
        # nu + 1 rounds to 1, so lam = -2/(nu+1) is exactly -2
        "nu=1e-16",
        "nu=1e-17",
        # chi-square(nu) draws would be 0 (see config.NU_MIN)
        "nu=1e-15",
        "nu=0.1",
        # lgamma(nu/2) of the generator's constant overflows
        "nu=1e308",
        "nu=5.2e305",
        # a non-finite number for an integer key
        "n=1e400",
        "n_inits=-inf",
        "seed=1e400",
        "n_steps=nan",
        "mu0=abc",
        "alpha_list=[0.1, x]",
        "out=3",
        # every character that str.splitlines breaks on
        *(f'out="a{c}b"' for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    ]),
    # configs that used to run on a degenerate model instead of failing
    pytest.param("student-t-online", ["sigma_star=0", "n_steps=5"], id="sigma_star=0"),
    pytest.param("student-t-online", ["sigma0=-1"], id="sigma0=-1"),
    # starts off the model: mu0^2 + sigma0^2 rounds to mu0^2, on the dual
    # boundary; a subnormal eta2 inverts outside the parameter set; mu0^2 or
    # sigma0^2 overflows
    *(pytest.param("student-t-online", o, id=",".join(o)) for o in [
        ["sigma0=1e-9"],
        ["sigma0=1e-8"],
        ["mu0=0", "sigma0=1e-155"],
        ["mu0=1e160"],
        ["sigma0=1e160"],
    ]),
    pytest.param("dirichlet-online", ["truth_concentration=0"], id="truth_concentration=0"),
    pytest.param("simplex-compare", ['target="dirichlet"', "target_a=0", "n_steps=2"],
                 id="target_a=0"),
    pytest.param("flow-equivalence", ["dt=2"], id="dt=2"),
    # an override may not switch the experiment, as a config file for
    # another one may not
    pytest.param("geodesic-check", ["experiment=flow-equivalence"],
                 id="experiment=flow-equivalence"),
    # true and false are bare strings, not bools: neither a target nor a count
    pytest.param("simplex-compare", ["target=true", "n_steps=2"], id="target=true"),
    pytest.param("student-t-online", ["n_steps=true"], id="n_steps=true"),
    # settings that the fixed-instance suites would ignore
    *(pytest.param(experiment, [o], id=f"{experiment}-{o}")
      for experiment in ("geodesic-check", "lyapunov-suite")
      for o in ["dt=1e-3", "t_end=0.5"]),
    # alpha values that never move the method, or run one method twice
    *(pytest.param("simplex-compare", [o, "n_steps=2"], id=o) for o in [
        "alpha_list=[nan]",
        "alpha_list=[-inf]",
        "alpha_list=[-1" + "0" * 400 + "]",
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


def test_a_t_end_under_the_default_dt_names_both_values(tmp_path, capsys):
    # t_end alone below the default dt 1e-2 is rejected with both numbers, so
    # the message says what to lower; with dt lowered too, the run passes
    argv = ["flow-equivalence", "--out", str(tmp_path), "--override", "t_end=0.005"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dt must not exceed t_end")
    assert "0.01" in err and "0.005" in err
    assert not os.listdir(tmp_path)
    assert cli.main(argv + ["--override", "dt=1e-3"]) == 0


def test_a_student_t_start_off_the_model_names_mu0_and_sigma0(tmp_path, capsys):
    argv = ["student-t-online", "--out", str(tmp_path), "--override", "n_steps=5"]
    assert cli.main(argv + ["--override", "sigma0=1e-9"]) == 2
    err = capsys.readouterr().err
    assert "mu0 = 1.0" in err and "sigma0 = 1e-09" in err
    # a power of ten up, mu0^2 + sigma0^2 keeps sigma0 and the run reaches
    # its verdict
    assert cli.main(argv + ["--override", "sigma0=1e-7"]) == 1
    assert capsys.readouterr().out.startswith("student-t-online: FAIL")


def test_nu_bounds_keep_student_t_draws_finite(tmp_path):
    # a chi-square(nu) draw is 0 with probability about 2**(-538 nu) (see
    # config.NU_MIN): the zero rate of 4e5 draws at nu = 0.02 matches it,
    # and at NU_MIN it is below 1e-32
    zeros = np.mean(np.random.default_rng(0).chisquare(0.02, 400_000) == 0.0)
    assert 0.5 < zeros / 2.0 ** (-538 * 0.02) < 2.0
    assert 2.0 ** (-538 * NU_MIN) < 1e-32
    # at either bound the run skips no update and warns of nothing (pytest
    # turns a RuntimeWarning into an error)
    for nu in (NU_MIN, NU_MAX):
        summary, _ = run(tmp_path / repr(nu), "student-t-online", nu=nu, n_steps=50)
        assert summary.metrics["skipped_updates"] == 0


@pytest.mark.parametrize("overrides", [
    pytest.param(["t_end=1e300"], id="t_end=1e300"),
    pytest.param(["dt=1e-300"], id="dt=1e-300"),
    pytest.param(["t_end=1000.0001", "dt=1e-4"], id="one-step-past-the-bound"),
])
def test_a_flow_grid_beyond_its_bound_exits_with_status_2(tmp_path, overrides, capsys,
                                                         monkeypatch):
    # round(t_end/dt) steps past MAX_TIME_STEPS used to reach np.linspace,
    # which raised "Maximum allowed size exceeded" or tried to allocate them
    def no_grid(*args):
        raise AssertionError("a time grid was built")
    monkeypatch.setattr(flows, "_time_grid", no_grid)
    argv = ["flow-equivalence", "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--override", item]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not os.listdir(tmp_path)
    # the bound itself is a valid grid
    assert round(1000.0 / 1e-4) == MAX_TIME_STEPS
    ExperimentConfig("flow-equivalence", t_end=1000.0, dt=1e-4).validate()


def test_out_of_range_cli_seed_exits_with_status_2(tmp_path, capsys):
    # --seed is set after the config is built, so validate() must see it too
    status = cli.main(["student-t-online", "--seed", "-1", "--out", str(tmp_path)])
    assert status == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("overrides, expected", [
    pytest.param([], 0, id="PASS"),
    pytest.param(["sigma0=1e-7"], 1, id="FAIL"),
])
def test_cli_survives_a_closed_stdout(tmp_path, overrides, expected):
    # the reader closes the pipe before the run prints anything: the printout
    # is dropped, with no traceback, and the exit code is the run's own
    src = os.path.dirname(os.path.dirname(xmd.__file__))
    argv = [sys.executable, "-m", "xmd.cli", "student-t-online", "--out", str(tmp_path),
            "--override", "n_steps=200"]
    for item in overrides:
        argv += ["--override", item]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == expected
    assert err == b""
    with open(tmp_path / "student-t-online" / "summary.json") as fh:
        assert json.load(fh)["passed"] is (expected == 0)


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
    # xmd module, or a method of a class defined there; and such a metric
    # reads 0 unless bench/spans.py's Tracer.installed() wraps the function
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
    tracer = _bench_module("spans").Tracer()
    with tracer.installed():
        wrapped = set(tracer.names)
    assert sorted(functions - wrapped) == []


def test_bad_config_file_exits_with_status_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text('experiment = "dirichlet-online"\nn_steps = "many"\n')
    assert cli.main(["dirichlet-online", "--config", str(path)]) == 2
    assert "n_steps" in capsys.readouterr().err
    # a file that is not valid UTF-8
    path.write_bytes(b'experiment = "dirichlet-online"\nout = "\xff"\n')
    assert cli.main(["dirichlet-online", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


# ---------------------------------------------------------------------------
# the canonical serialization round-trips


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


@st.composite
def valid_configs(draw):
    positive = _finite(min_value=0.0, exclude_min=True)
    experiment = draw(st.sampled_from(EXPERIMENTS))
    target = draw(st.sampled_from(["barycenter", "dirichlet"]))

    def checked_by(*experiments):
        """Floats as the experiment accepts them: positive where its
        validation requires it, else any finite value."""
        return positive if experiment in experiments else _finite()

    data = {
        "experiment": experiment,
        "seed": draw(st.integers(min_value=0)),
        "out": draw(st.text()),
        "delta_schedule": draw(st.sampled_from(["1/k", "1/sqrt(k)", "1/(d*sqrt(k))"])
                               | positive.map(lambda c: f"const:{c!r}")),
        "n_steps": draw(st.integers(min_value=1)),
        "n_traj": draw(st.integers(min_value=1)),
        "nu": draw(_finite(min_value=NU_MIN, max_value=NU_MAX)
                   if experiment == "student-t-online" else positive),
        "mu_star": draw(_finite()),
        "sigma_star": draw(checked_by("student-t-online")),
        "mu0": draw(_finite()),
        "sigma0": draw(checked_by("student-t-online")),
        "dim": draw(st.integers(min_value=1)),
        "lam": draw(_finite(max_value=0.0, exclude_max=True)),
        "truth_concentration": draw(checked_by("dirichlet-online")),
        "n": draw(st.integers(min_value=2)),
        "alpha_list": draw(st.lists(_finite(max_value=1.0, exclude_max=True)
                                    | st.integers(max_value=0), max_size=5)),
        "target": target,
        "target_a": draw(checked_by("simplex-compare") if target == "dirichlet" else _finite()),
        "n_inits": draw(st.integers(min_value=1)),
    }
    if experiment in ("geodesic-check", "lyapunov-suite"):
        # they run fixed instances, and accept only the default grid
        data["t_end"], data["dt"] = ExperimentConfig.t_end, ExperimentConfig.dt
    else:
        # dt at most t_end, and t_end/dt within the bound on a flow's time grid
        data["t_end"] = draw(positive)
        data["dt"] = data["t_end"] / draw(_finite(min_value=1.0, max_value=MAX_TIME_STEPS))
    # every config file and override goes through _build; keep what it accepts
    try:
        return _build(data)
    except ConfigError:
        reject()


@given(valid_configs())
def test_canonical_dumps_round_trips(config):
    assert parse_config(canonical_dumps(config)) == config


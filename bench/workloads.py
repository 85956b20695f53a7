"""Benchmark workloads, one pass of a workload, and the checks on its outputs.

A workload is a fixed list of ``xmd`` CLI invocations, run in order through
``xmd.cli.main`` in this process; one run of that list is a *pass*. Shapes are
the CLI defaults; only the run lengths are set here, so that one pass takes
about a second (the ``flows`` pass is longer because ``geodesic-check`` and
``lyapunov-suite`` have no length setting).

The checks never read a runner's ``passed`` flag. They recount, from the CSVs
and ``summary.json``, how many operations the pass attempted and how many
failed, and they report as *problems* any output that is missing, malformed
or inconsistent with the summary. An operation is one estimator trajectory,
one simplex (method, initial point) trajectory, or one diagnostics check.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

WORKLOADS = {
    "online-t": [("student-t-online", {"n_steps": 1000})],
    "online-dirichlet": [("dirichlet-online", {"n_steps": 1000})],
    "simplex": [("simplex-compare", {"n_steps": 50})],
    "flows": [("flow-equivalence", {"t_end": 0.1}),
              ("geodesic-check", {}),
              ("lyapunov-suite", {})],
}

DIAGNOSTIC_CHECKS = {
    "flow-equivalence": ["sup_deviation"],
    "geodesic-check": ["dual_collinearity", "dual_coefficient_error",
                       "primal_collinearity", "scalar_instance_max_error"],
    "lyapunov-suite": ["violations_1d", "bound_dominates_1d", "violations_2d",
                       "violations", "bound_dominates"],
}


@dataclass
class PassResult:
    wall_s: float
    times: list = field(default_factory=list)
    between: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    fingerprint: str = ""
    output_bytes: int = 0


def cli_argv(experiment: str, overrides: dict, seed: int, out_root: str) -> list[str]:
    argv = [experiment, "--seed", str(seed), "--out", out_root]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value}"]
    return argv


def run_pass(invocations, seed: int, out_root: str, tracer=None,
             between=None) -> PassResult:
    """Run each invocation through ``xmd.cli.main``, then check the outputs.

    Each invocation is timed on its own, and the pass's ``wall_s`` is the sum
    of those times. ``between``, if given, is called between two invocations,
    outside the timed regions, and its return values are kept in order.
    With a tracer, only the invocations are traced, not the checks.
    ``cli.main`` is looked up after the tracer is installed, so the tracer
    sees it. An invocation that raises is recorded as a problem and the pass
    goes on.
    """
    from xmd import cli

    problems, times, kept = [], [], []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for i, (experiment, overrides) in enumerate(invocations):
            if i and between is not None:
                kept.append(between())
            argv = cli_argv(experiment, overrides, seed, out_root)
            status = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(argv)
            except Exception:  # a crash is reported, not fatal to the benchmark
                problems.append(f"{experiment} raised:\n{traceback.format_exc()}")
            times.append(time.perf_counter() - t0)
            if status not in (None, 0, 1):
                problems.append(f"{experiment} exited with status {status}")
    result = PassResult(wall_s=math.fsum(times), times=times, between=kept,
                        problems=problems)

    digest = hashlib.sha256()
    for experiment, _ in invocations:
        out_dir = os.path.join(out_root, experiment)
        try:
            attempted, failed, found = check_outputs(experiment, out_dir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            result.problems.append(f"{experiment}: unreadable output: {exc!r}")
            continue
        result.attempted += attempted
        result.failed += failed
        result.problems += [f"{experiment}: {p}" for p in found]
        for name in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, name)
            result.output_bytes += os.path.getsize(path)
            digest.update(f"{experiment}/{name}\0".encode())
            digest.update(comparable_bytes(path))
    result.fingerprint = digest.hexdigest()
    return result


def comparable_bytes(path: str) -> bytes:
    """File contents, with the one field that differs between equal runs
    (``wall_time`` in ``summary.json``) removed."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) != "summary.json":
        return data
    payload = json.loads(data)
    payload.pop("wall_time", None)
    return json.dumps(payload, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# output checks


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _repeats(values: list) -> int:
    """Consecutive identical rows: a skipped update leaves the state as it was."""
    return sum(1 for prev, cur in zip(values, values[1:]) if prev == cur)


def check_outputs(experiment: str, out_dir: str) -> tuple[int, int, list[str]]:
    """Return (attempted, failed, problems) for one invocation's outputs."""
    from xmd.config import parse_config

    with open(os.path.join(out_dir, "config.txt")) as fh:
        config = parse_config(fh.read())
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    problems = []
    if summary.get("experiment") != experiment:
        problems.append(f"summary is for {summary.get('experiment')!r}")
    metrics = summary["metrics"]
    if experiment == "student-t-online":
        attempted, failed = _check_student_t(config, metrics, out_dir, problems)
    elif experiment == "dirichlet-online":
        attempted, failed = _check_dirichlet(config, metrics, out_dir, problems)
    elif experiment == "simplex-compare":
        attempted, failed = _check_simplex(config, metrics, out_dir, problems)
    else:
        attempted, failed = _check_diagnostics(experiment, metrics, out_dir, problems)
    return attempted, failed, problems


def _trajectory(out_dir: str, traj: int, header: list[str], first_k: int,
                n_steps: int, problems: list) -> list[tuple]:
    name = f"trajectory_{traj:02d}.csv"
    got_header, rows = _read_csv(os.path.join(out_dir, name))
    ks = [int(r[0]) for r in rows]
    if got_header != header or ks != list(range(first_k, n_steps + 1)):
        problems.append(f"{name}: unexpected header or step column")
    return [tuple(float(x) for x in r[1:]) for r in rows]


def _check_student_t(config, metrics, out_dir, problems) -> tuple[int, int]:
    failed = skipped = 0
    for traj in range(config.n_traj):
        values = _trajectory(out_dir, traj, ["k", "mu", "sigma"], 0,
                             config.n_steps, problems)
        repeats = _repeats(values[1:])
        skipped += repeats
        mu, sigma = values[-1]
        failed += not _finite(mu, sigma) or repeats > 0
        if not _same(metrics["final_mu_errors"][traj], abs(mu - config.mu_star)):
            problems.append(f"final_mu_errors[{traj}] disagrees with its CSV")
    if metrics["skipped_updates"] != skipped:
        problems.append(f"skipped_updates {metrics['skipped_updates']} "
                        f"but {skipped} repeated rows in the CSVs")
    return config.n_traj, failed


def _check_dirichlet(config, metrics, out_dir, problems) -> tuple[int, int]:
    failed = 0
    for traj in range(config.n_traj):
        values = _trajectory(out_dir, traj, ["k", "dist"], 1, config.n_steps, problems)
        (dist,) = values[-1]
        failed += not _finite(dist) or _repeats(values) > 0
        if not _same(metrics["final_dists"][traj], dist):
            problems.append(f"final_dists[{traj}] disagrees with its CSV")
    return config.n_traj, failed


def _check_simplex(config, metrics, out_dir, problems) -> tuple[int, int]:
    labels = [f"conformal_a{a}" for a in config.alpha_list] + ["entropic"]
    header, rows = _read_csv(os.path.join(out_dir, "final_costs.csv"))
    if header != ["method", "alpha", "init", "k", "f_value", "min_weight"]:
        problems.append("final_costs.csv: unexpected header")
    expected = [(label, j) for label in labels for j in range(config.n_inits)]
    if [(r[0], int(r[2])) for r in rows] != expected:
        problems.append("final_costs.csv: not one row per (method, init)")
    failed = 0
    finals = {label: [] for label in labels}
    for row in rows:
        f_value, min_weight = float(row[4]), float(row[5])
        failed += not (math.isfinite(f_value) and min_weight > 0.0)
        if int(row[3]) != config.n_steps:
            problems.append(f"final_costs.csv: row {row[:3]} stops at k={row[3]}")
        finals.setdefault(row[0], []).append(f_value)
    for label in labels:
        reported = metrics["final_mean_costs"].get(label, float("nan"))
        mean = math.fsum(finals[label]) / len(finals[label]) if finals[label] else math.nan
        if not (_same(reported, mean) or abs(reported - mean) <= 1e-12 * abs(mean)):
            problems.append(f"final_mean_costs[{label}] disagrees with final_costs.csv")
    _, curve_rows = _read_csv(os.path.join(out_dir, "mean_curves.csv"))
    if len(curve_rows) != len(labels) * (config.n_steps + 1):
        problems.append("mean_curves.csv: wrong number of rows")
    return len(rows), failed


def _check_diagnostics(experiment, metrics, out_dir, problems) -> tuple[int, int]:
    header, rows = _read_csv(os.path.join(out_dir, "checks.csv"))
    if header != ["suite", "metric", "value", "tolerance", "passed"]:
        problems.append("checks.csv: unexpected header")
    if [r[1] for r in rows] != DIAGNOSTIC_CHECKS[experiment]:
        problems.append(f"checks.csv: expected checks {DIAGNOSTIC_CHECKS[experiment]}")
    failed = 0
    for _, name, value, tol, _ in rows:
        value, tol = float(value), float(tol)
        if name.startswith("violations"):
            ok = value <= tol
        elif name.startswith("bound_dominates"):
            ok = value >= tol
        else:
            ok = value < tol
        failed += not (math.isfinite(value) and ok)
        if not _same(metrics.get(name, math.nan), value):
            problems.append(f"summary metric {name} disagrees with checks.csv")
    return len(rows), failed

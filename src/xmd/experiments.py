"""Experiment runners behind the command-line interface.

Each runner consumes a validated ExperimentConfig, writes CSV artifacts plus a
summary.json into the output directory, and returns a RunSummary whose
``passed`` flag drives the process exit status. Output is deterministic for a
fixed (config, seed): every random draw comes from a keyed substream.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import astuple, dataclass, field
from typing import Optional

import numpy as np

from . import expfam, simplex
from .config import ExperimentConfig, delta_schedule
from .core import GeometryError
from .flows import (Objective, _time_grid, conformal_smoothness_estimate,
                    discrete_lyapunov_run, geodesic_flow_check, lyapunov_continuous,
                    quadratic_objective, time_change_compare)
from .generators import (dirichlet_generator, log_reciprocal_generator, quadratic_generator,
                         student_t_generator)
from .rng import INIT_STREAM, TRUTH_STREAM, substream


@dataclass
class RunSummary:
    experiment: str
    wall_time: float = 0.0
    metrics: dict = field(default_factory=dict)
    files: list = field(default_factory=list)
    passed: bool = True

    def write(self, out_dir: str) -> str:
        path = os.path.join(out_dir, "summary.json")
        payload = {
            "experiment": self.experiment,
            "wall_time": self.wall_time,
            "metrics": self.metrics,
            "files": self.files,
            "passed": self.passed,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.files.append("summary.json")
        return path


def _field(x) -> str:
    return x if isinstance(x, str) else str(x) if isinstance(x, int) else repr(float(x))


def _write_csv(out_dir: str, name: str, header: list[str], columns) -> str:
    """Write the CSV ``name`` from its header and its columns, of equal length.

    A numpy column is written as the repr of each value as a Python float.
    In any other column a str is written as it is, an int by ``str`` and
    anything else as ``repr(float(x))``. Fields are joined by "," and every
    line, the header's too, ends in "\\r\\n". Nothing is quoted: the str
    fields are the runners' own labels, with no ",", '"' or line break, and
    for them these are the bytes ``csv.writer`` writes.
    """
    fields = [map(repr, col.astype(float, copy=False).tolist()) if isinstance(col, np.ndarray)
              else map(_field, col) for col in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*fields, strict=True)]
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
    return name


# ---------------------------------------------------------------------------
# online estimation of the Student-t location-scale family

# Largest passing ratio of a median final error to its k = 0 value. Over seeds
# 0-19, the larger of the mu and sigma ratios reaches, at n_steps 200 / 1000 /
# 10000 (the default): 0.15 / 0.045 / 0.018 at nu = 3 (the default), 0.20 /
# 0.088 / 0.034 at nu = 1, 0.29 / 0.14 / 0.050 at nu = 0.5 and 0.68 / 0.23 /
# 0.11 at nu = 0.2 (NU_MIN), with no skipped update. So the claim holds at every
# seed for nu >= 1 from n_steps = 200, and over the whole accepted nu range
# from n_steps = 1000; at n_steps = 200 it fails at 3 of 20 seeds at nu = 0.5
# and 15 of 20 at nu = 0.2, where the tails are too heavy (no mean below
# nu = 1) for 200 draws. A start far from the truth (mu_star=1e6) ends near 0.9.
ERROR_SHRINK = 0.25


def run_student_t(config: ExperimentConfig, out_dir: str) -> RunSummary:
    t0 = time.perf_counter()
    fam = expfam.student_t_family(config.nu)
    schedule = delta_schedule(config.delta_schedule)
    truth = expfam.StudentTParams(config.mu_star, config.sigma_star, config.nu)

    # one (n_steps, n_traj) sample block; each trajectory draws all of its
    # normals before its chi-squares, so it must be drawn whole
    xs = np.stack([expfam.student_t_sample(truth, substream(config.seed, traj), config.n_steps)
                   for traj in range(config.n_traj)], axis=1)
    eta0 = expfam.student_t_moments(config.mu0, config.sigma0)
    state = expfam.start_state(fam, np.tile(eta0, (config.n_traj, 1)))
    ys = fam.statistics(xs)
    thetas = np.empty((config.n_steps, config.n_traj, 2))
    for k in range(1, config.n_steps + 1):
        state = expfam.online_update(fam, state, ys[k - 1], schedule(k))
        thetas[k - 1] = state.theta
    params = expfam.student_t_params(thetas, config.nu)
    mu = np.concatenate([np.full((1, config.n_traj), config.mu0), params.mu])
    sigma = np.concatenate([np.full((1, config.n_traj), config.sigma0), params.sigma])

    summary = RunSummary(experiment=config.experiment)
    for traj in range(config.n_traj):
        summary.files.append(_write_csv(out_dir, f"trajectory_{traj:02d}.csv",
                                        ["k", "mu", "sigma"],
                                        [range(config.n_steps + 1), mu[:, traj], sigma[:, traj]]))
    mu_err = [abs(float(m) - config.mu_star) for m in mu[-1]]
    sig_err = [abs(float(s) - config.sigma_star) for s in sigma[-1]]
    summary.metrics = {
        "final_mu_errors": mu_err,
        "final_sigma_errors": sig_err,
        "median_mu_error": float(np.median(mu_err)),
        "median_sigma_error": float(np.median(sig_err)),
        "max_mu_error": max(mu_err),
        "max_sigma_error": max(sig_err),
        "skipped_updates": state.skipped,
    }
    # the error shrinks with k (a start at the truth cannot show it, and fails)
    shrunk = (np.median(mu_err) <= ERROR_SHRINK * abs(config.mu0 - config.mu_star)
              and np.median(sig_err) <= ERROR_SHRINK * abs(config.sigma0 - config.sigma_star))
    summary.passed = bool(np.all(np.isfinite(mu[-1])) and np.all(np.isfinite(sigma[-1]))
                          and state.skipped == 0 and shrunk)
    summary.wall_time = time.perf_counter() - t0
    return summary


# ---------------------------------------------------------------------------
# online estimation of the Dirichlet perturbation model

# Passing band of the log-log slope of the error against k, around the
# paper's k^(-1/2) rate: over seeds 0-19 the slope lies in [-0.63, -0.31] at
# n_steps=200, [-0.60, -0.43] at 1000 and [-0.60, -0.46] at the CLI default
# 10000; with a constant step (const:0.5) the error stalls at slopes +0.03 to +2.4.
SLOPE_BAND = (-0.75, -0.25)

# Steps per block of Dirichlet draws: drawing each trajectory's stream in
# blocks gives the same numbers as one full draw, without holding all of it.
SAMPLE_BLOCK = 128


def run_dirichlet_online(config: ExperimentConfig, out_dir: str) -> RunSummary:
    t0 = time.perf_counter()
    d = config.dim
    sigma = -config.lam
    rng_truth = substream(config.seed, TRUTH_STREAM)
    p_star = simplex.as_simplex(
        np.maximum(rng_truth.dirichlet(np.full(1 + d, config.truth_concentration)), 1e-9))
    eta_star = expfam.simplex_to_eta(p_star)
    model = expfam.DirichletPerturbModel(p=p_star, sigma=sigma)
    fam = expfam.dirichlet_family(config.lam, d)
    schedule = delta_schedule(config.delta_schedule)

    rngs = [substream(config.seed, traj) for traj in range(config.n_traj)]
    state = expfam.start_state(fam, np.ones((config.n_traj, d)))
    dist = np.empty((config.n_steps, config.n_traj))
    for start in range(0, config.n_steps, SAMPLE_BLOCK):
        size = min(SAMPLE_BLOCK, config.n_steps - start)
        qs = np.stack([expfam.dirichlet_perturb_sample(model, rng, size) for rng in rngs],
                      axis=1)
        for i in range(size):
            k = start + i + 1
            state = expfam.online_update(fam, state, fam.statistics(qs[i]), schedule(k))
            dist[k - 1] = expfam.log_distance(state.eta, eta_star)

    summary = RunSummary(experiment=config.experiment)
    for traj in range(config.n_traj):
        summary.files.append(_write_csv(out_dir, f"trajectory_{traj:02d}.csv", ["k", "dist"],
                                        [range(1, config.n_steps + 1), dist[:, traj]]))
    # the fit pools (k, dist) over trajectories in trajectory order
    ks = np.broadcast_to(np.arange(1, config.n_steps + 1), (config.n_traj, config.n_steps))
    in_fit = (ks >= 100) & (ks <= 10000) & (dist.T > 0.0)
    slope = float("nan")
    if np.count_nonzero(in_fit) > 2:
        slope = float(np.polyfit(np.log10(ks[in_fit]), np.log10(dist.T[in_fit]), 1)[0])
    final_dists = [float(x) for x in dist[-1]]
    summary.metrics = {
        "slope": slope,
        "final_dists": final_dists,
        "median_final_dist": float(np.median(final_dists)),
    }
    summary.passed = bool(np.all(np.isfinite(dist[-1])) and state.skipped == 0
                          and SLOPE_BAND[0] <= slope <= SLOPE_BAND[1])
    summary.wall_time = time.perf_counter() - t0
    return summary


# ---------------------------------------------------------------------------
# simplex descent comparison


def run_simplex_compare(config: ExperimentConfig, out_dir: str) -> RunSummary:
    t0 = time.perf_counter()
    n = config.n
    d = n - 1
    schedule = delta_schedule(config.delta_schedule, dim=d)

    if config.target == "barycenter":
        p_star = simplex.barycenter(n)
    else:
        rng_truth = substream(config.seed, TRUTH_STREAM)
        p_star = simplex.sample_simplex(rng_truth, n, config.target_a)

    inits = np.stack([simplex.sample_simplex(substream(config.seed, INIT_STREAM + j), n)
                      for j in range(config.n_inits)])

    def objective(p):
        return simplex.dirichlet_cost(p, p_star)

    def grad(p):
        return simplex.dirichlet_cost_grad(p, p_star)

    # every (method, initial point) is a row of one batch, method-major; the
    # conformal rows come first and step in one call, which takes their alpha
    # as a column, one exponent per row, and the entropic rows in another
    alphas = config.alpha_list
    methods = [(f"conformal_a{a}", a) for a in alphas] + [("entropic", None)]
    n_inits = config.n_inits
    conformal = len(alphas) * n_inits
    alpha_column = np.repeat(alphas, n_inits)[:, None]

    p = np.tile(inits, (len(methods), 1))
    curves = np.empty((len(p), config.n_steps + 1))
    curves[:, 0] = objective(p)
    min_w = p.min(axis=-1)
    for k in range(1, config.n_steps + 1):
        dk = schedule(k)
        if conformal:
            p[:conformal] = simplex.step_conformal(alpha_column, grad, p[:conformal], dk)
        p[conformal:] = simplex.step_entropic(p[conformal:], grad, dk)
        curves[:, k] = objective(p)
        # fmin skips NaN: a row keeps the least weight of its finite iterates
        min_w = np.fmin(min_w, p.min(axis=-1))

    blocks = {label: slice(i * n_inits, (i + 1) * n_inits)
              for i, (label, _) in enumerate(methods)}
    mean_curves = {label: curves[block].mean(axis=0) for label, block in blocks.items()}
    finals = {label: float(curves[block, -1].mean()) for label, block in blocks.items()}

    summary = RunSummary(experiment=config.experiment)
    summary.files.append(_write_csv(
        out_dir, "final_costs.csv", ["method", "alpha", "init", "k", "f_value", "min_weight"],
        [[label for label, _ in methods for _ in range(n_inits)],
         ["" if alpha is None else float(alpha) for _, alpha in methods for _ in range(n_inits)],
         list(range(n_inits)) * len(methods), [config.n_steps] * len(p),
         curves[:, -1], min_w]))
    summary.files.append(_write_csv(
        out_dir, "mean_curves.csv", ["method", "k", "mean_f"],
        [[label for label in mean_curves for _ in range(config.n_steps + 1)],
         list(range(config.n_steps + 1)) * len(mean_curves),
         np.concatenate(list(mean_curves.values()))]))
    summary.metrics = {
        "target": config.target,
        "target_a": config.target_a,
        "final_mean_costs": finals,
        "converged_k": {label: converged_k(curve) for label, curve in mean_curves.items()},
        "ranking": rank_methods(mean_curves),
    }
    summary.passed = (all(np.isfinite(v) for v in finals.values())
                      and bool(np.all(min_w > 0.0)))
    summary.wall_time = time.perf_counter() - t0
    return summary


# A method has converged at the first k at which its mean cost is at most
# CONVERGED times its k = 0 value, far above the round-off (about 1e-17) at
# which the costs of the fastest methods end. A crossing's margin can still be
# thin: at the CLI defaults and seed 2, conformal_a0.3's mean cost is 1.0005
# of the threshold at k = 5661 and 0.99996 of it at its converged_k 5662, so
# a relative change of 5e-5 in its curve moves that k and may reorder the
# ranking (ROADMAP item 4, step 5).
CONVERGED = 1e-12


def converged_k(curve) -> Optional[int]:
    """The first k at which the mean cost ``curve[k]`` is at most CONVERGED
    times ``curve[0]``, or None if it never is."""
    curve = np.asarray(curve, dtype=float)
    hits = np.flatnonzero(curve <= CONVERGED * curve[0])
    return int(hits[0]) if hits.size else None


def rank_methods(mean_curves: dict) -> list:
    """Labels by mean cost curve, best first: the methods that converge, by
    their ``converged_k``; then the others, by final mean cost; and last the
    methods whose final mean cost is not finite. Ties keep method order."""
    def key(label):
        curve = mean_curves[label]
        if not np.isfinite(curve[-1]):
            return (2, 0.0)
        k = converged_k(curve)
        return (0, k) if k is not None else (1, curve[-1])
    return sorted(mean_curves, key=key)


# ---------------------------------------------------------------------------
# diagnostics suites

# lyapunov-suite steps on graded grids (``flows._time_grid``)
# of one stretch: the steps grow geometrically, the last about GRID_STRETCH
# times the first, fine near t = 0, where the paths move fastest and the RK4
# error is made, and coarse where they have settled. For an even step count,
# every other point of a graded grid holds the bits of the grid of half the
# steps at the same stretch, so each grid below is the coarsest rung of the
# halving ladder n * 2^k, at this stretch, that its error budget certifies.
GRID_STRETCH = 8.0

# geodesic-check checks its claims at GEODESIC_POINTS interior points of each
# segment of 40 instances: two fixed pairs, and each point of every registered
# generator's grid toward the next. Clean, each value is round-off, at most
# 3.7e-14; the metric-sign fault reads at least 0.66 on every generator (2.0 in
# 1-d), G x 1.01 reads 9.9e-3 and the dual-velocity sign at least 0.38.
GEODESIC_POINTS = 25
GEODESIC_TOL = 1e-10


def _geodesic_check(gen, pair=None):
    """The geodesic report of the (theta_star, theta0) pair, if one is given,
    and of each point of gen's grid toward the next, as one batch."""
    stars, starts = np.array(gen.grid)[1:], np.array(gen.grid)[:-1]
    if pair is not None:
        stars, starts = np.vstack([pair[0], stars]), np.vstack([pair[1], starts])
    return geodesic_flow_check(gen, stars, starts, GEODESIC_POINTS)


# lyapunov-suite steps each path on its own graded grid to t_end 4, keyed by
# the label of its Richardson estimate in summary.json: the 1-d path in 200
# steps, the 2-d path in 256. A companion path on every other point of that
# grid, the rung below on the ladder, gives the Richardson estimate of the
# error in E(t) = L[theta_star : theta_t]. Both step in one RK4 batch
# (``flows.lyapunov_continuous``): the companion spans two steps, then sits
# out a step, and keeps the bits of a run of its own. A violations row passes
# only if the report is monotone, which requires twice the estimate to be
# under flows.MONOTONE_TOL = 1e-9, so that integration error can neither
# invent nor hide a rise of E. Twice the estimate reads (no grid shows a
# rise):
#
#   1-d steps   1-d        1-d, metric-sign fault   2-d steps   2-d
#   100         7.0e-9     1.3e-7                   128         6.3e-9
#   200         4.2e-10    7.8e-9                   256         3.7e-10
#   400         2.5e-11    4.7e-10                  512         2.3e-11
#
# so both paths sit about 2.5x under the budget, and the metric-sign fault
# is caught by the 1-d budget with a margin of 7.8x. Against a run 16 times
# finer on the same stretch the estimate reads 3% over the error of E on both
# paths. The least margins of the bound over the gap, 0.065 (1-d) and 0.123
# (2-d), read the same to three digits on these grids and on uniform grids of
# 400 and 800 steps. On the graded grid of 20 steps twice the 2-d estimate
# is 1.5e-5, and its row fails. The discrete run of 2000 steps reaches its
# fixed point at step 45, which returns its input's bits, and stops stepping
# there (``flows.discrete_lyapunov_run``).
LYAPUNOV_STEPS = {"1d": 200, "2d": 256}

# flow-equivalence steps on the grid of ExperimentConfig.dt, 1e-2 by default,
# 100 steps to the default t_end 1. The exact conformal path and the Hessian
# path read at its clock coincide, so the sup deviation is the integration
# error plus any fault: a coarser grid can only raise it, never hide a fault,
# and the suite needs no companion run. At dt 1e-4, 1e-3 and 1e-2 the
# deviation is 2.2e-16, 1.1e-15 and 7.4e-12 at t_end 0.1, and 5.1e-15,
# 7.7e-14 and 8.0e-10 at t_end 1, against the tolerance 1e-4; halving dt from
# 1e-2 divides it by 16, RK4's rate. On all three grids a Hessian path on a
# clock 1% fast reads 6.1e-4 (t_end 0.1) and 1.8e-2 (t_end 1), and the
# Hessian flow without its weight reads 2.3e-2 and 0.18.
EQUIVALENCE_TOL = 1e-4


def _check(suite: str, named, measure, errors: list) -> list:
    """The checks.csv rows (suite, metric, value, tolerance, passed) of one
    check: one row per (metric, tolerance) of ``named``, with the (value,
    passed) pairs that ``measure()`` returns in that order. A GeometryError
    out of ``measure`` fails every row of the check, with value NaN, and its
    text joins ``errors``: the check reports FAIL, not a traceback."""
    try:
        results = measure()
    except GeometryError as exc:
        errors.append(f"{suite}: {type(exc).__name__}: {exc}")
        results = [(np.nan, False)] * len(named)
    return [(suite, metric, value, tol, ok)
            for (metric, tol), (value, ok) in zip(named, results, strict=True)]


def run_diagnostics(config: ExperimentConfig, out_dir: str) -> RunSummary:
    t0 = time.perf_counter()
    checks = []  # (suite, metric, value, tolerance, ok)
    extra = {}  # summary metrics that are not checks
    errors = []

    if config.experiment == "flow-equivalence":
        def equivalence():
            gen = log_reciprocal_generator(1.0)
            obj = quadratic_objective([2.0])
            dev = time_change_compare(gen, obj, [0.5], config.t_end, config.dt)
            return [(dev, dev < EQUIVALENCE_TOL)]
        checks += _check("flow-equivalence", [("sup_deviation", EQUIVALENCE_TOL)], equivalence,
                         errors)

    elif config.experiment == "geodesic-check":
        def two_d():
            reports = [_geodesic_check(quadratic_generator(-0.5, 2), ([0.5, -0.3], [-0.8, 0.6])),
                       _geodesic_check(quadratic_generator(0.7, 3)),
                       _geodesic_check(student_t_generator(3.0)),
                       _geodesic_check(dirichlet_generator(-0.5, 2))]
            worst = np.max([astuple(rep) for rep in reports], axis=0)
            return [(e, e < GEODESIC_TOL) for e in worst.tolist()]

        def one_d():
            rep = _geodesic_check(log_reciprocal_generator(1.0), ([2.0], [1.0]))
            return [(rep.max_error, rep.max_error < GEODESIC_TOL)]
        checks += _check("geodesic-check", [("dual_collinearity", GEODESIC_TOL),
                                            ("dual_coefficient_error", GEODESIC_TOL),
                                            ("primal_collinearity", GEODESIC_TOL)], two_d, errors)
        checks += _check("geodesic-check", [("scalar_instance_max_error", GEODESIC_TOL)], one_d,
                         errors)

    elif config.experiment == "lyapunov-suite":
        def continuous(gen, obj, theta0, label):
            """The report of the path from theta0; the Richardson estimate of
            its error in E goes in the summary."""
            rep = lyapunov_continuous(gen, obj, theta0,
                                      _time_grid(4.0, LYAPUNOV_STEPS[label], GRID_STRETCH))
            extra[f"richardson_error_{label}"] = rep.richardson_error
            return rep

        def one_d():
            # f* = 1, not 0, so that bound_dominates reads the gap's sign and
            # offset: a gap taken as f(theta_hat) + f* exceeds the bound, and
            # an f whose minimum is off theta_star gives a negative gap
            q = quadratic_objective([2.0])
            obj = Objective(lambda t: q.value(t) + 1.0, q.grad, q.theta_star)
            rep = continuous(log_reciprocal_generator(1.0), obj, [1.0], "1d")
            return [(len(rep.violations), rep.monotone),
                    (float(rep.bound_dominates), rep.bound_dominates)]

        def two_d():
            rep = continuous(quadratic_generator(-0.5, 2), quadratic_objective([0.3, -0.2]),
                             [-0.6, 0.7], "2d")
            return [(len(rep.violations), rep.monotone)]

        def discrete():
            gen = quadratic_generator(-0.5, 1)
            obj = quadratic_objective([0.0])
            grid = np.linspace(-0.5, 0.5, 7)
            pairs = [(np.array([a]), np.array([b])) for a in grid for b in grid if a != b]
            smooth = conformal_smoothness_estimate(gen, obj, pairs)
            rep = discrete_lyapunov_run(gen, obj, [0.9], 0.5 / smooth, 2000)
            return [(len(rep.violations), rep.monotone),
                    (float(rep.bound_dominates), rep.bound_dominates)]
        checks += _check("lyapunov-continuous", [("violations_1d", 0), ("bound_dominates_1d", 1)],
                         one_d, errors)
        checks += _check("lyapunov-continuous", [("violations_2d", 0)], two_d, errors)
        checks += _check("lyapunov-discrete", [("violations", 0), ("bound_dominates", 1)],
                         discrete, errors)
    else:
        raise ValueError(f"not a diagnostics experiment: {config.experiment}")

    summary = RunSummary(experiment=config.experiment)
    suites, metrics, values, tolerances, oks = zip(*checks)
    summary.files.append(_write_csv(out_dir, "checks.csv",
                                    ["suite", "metric", "value", "tolerance", "passed"],
                                    [suites, metrics, np.array(values, dtype=float),
                                     np.array(tolerances, dtype=float), map(str, oks)]))
    summary.metrics = {m: float(v) for _, m, v, _, _ in checks} | extra
    if errors:
        summary.metrics["errors"] = errors
    summary.passed = all(ok for *_, ok in checks)
    summary.wall_time = time.perf_counter() - t0
    return summary


RUNNERS = {
    "student-t-online": run_student_t,
    "dirichlet-online": run_dirichlet_online,
    "simplex-compare": run_simplex_compare,
    "flow-equivalence": run_diagnostics,
    "geodesic-check": run_diagnostics,
    "lyapunov-suite": run_diagnostics,
}


def run_experiment(config: ExperimentConfig, out_dir: str) -> RunSummary:
    os.makedirs(out_dir, exist_ok=True)
    summary = RUNNERS[config.experiment](config, out_dir)
    summary.write(out_dir)
    return summary

"""The fault table: each runner's ``passed`` against one-line faults of the
geometry, the online estimator and the simplex flow.

A row puts one fault into the package by ``monkeypatch`` and runs one runner
at its benchmark size through the command line. It asserts that the runner
reports FAIL with exit status 1, and raises no traceback. A runner that
cannot see a fault is a blind spot: its row is marked ``xfail(strict=True)``
with the reason, so that the row fails the suite once the runner starts to
catch the fault, and the marker must go.
"""
import inspect

import numpy as np
import pytest

from xmd import cli, core, experiments, expfam, flows, simplex


def _clock_sign(gen, theta):
    return np.exp(-gen.lam * gen.value(theta))


def _metric_sign(gen, u, h):
    return h - gen.lam * (u[..., None] * u[..., None, :])


def _metric_scale(gen, u, h):
    return 1.01 * (h + gen.lam * (u[..., None] * u[..., None, :]))


def _dual_velocity_sign(gen, pair, df):
    corr = df - gen.lam * pair.eta * np.vecdot(pair.theta, df)[..., None]
    return -pair.pi[..., None] * corr


def _edited(module, name, old, new):
    """``module.name`` compiled from its own source with the one expression
    ``old`` written as ``new``, in the namespace of ``module``: a fault in an
    expression that no other function computes."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


_GAP_PLUS_F_STAR = _edited(flows, "lyapunov_continuous",
                           "obj.value(batch.theta_hat[clocked, 0]) - f_star",
                           "obj.value(batch.theta_hat[clocked, 0]) + f_star")
_QUADRATIC_SHIFT = _edited(flows, "quadratic_objective",
                           "diff = _vec(t) - center", "diff = _vec(t) + center")

# each fault replaces one function at every binding the runners read: flows
# imports conformal_weight and _assemble_metric from core, experiments imports
# lyapunov_continuous and quadratic_objective from flows, and the runners call
# online_update, transport_map and simplex_flow_rhs through their modules
FAULTS = {
    "clock_sign": [(core, "conformal_weight", _clock_sign),
                   (flows, "conformal_weight", _clock_sign)],
    "metric_sign": [(core, "_assemble_metric", _metric_sign),
                    (flows, "_assemble_metric", _metric_sign)],
    "metric_scale": [(core, "_assemble_metric", _metric_scale),
                     (flows, "_assemble_metric", _metric_scale)],
    "dual_velocity_sign": [(flows, "_dual_velocity", _dual_velocity_sign)],
    "online_rate_inverted": [(expfam, "online_update", _edited(
        expfam, "online_update", "delta * (pi / pi_y)", "delta * (pi_y / pi)"))],
    "transport_map_plus_alpha": [(simplex, "transport_map", _edited(
        simplex, "transport_map", "(1.0 - _exponent(alpha))", "(1.0 + _exponent(alpha))"))],
    "flow_rhs_sign": [(simplex, "simplex_flow_rhs", _edited(
        simplex, "simplex_flow_rhs", "(-p / pi_neg)", "(p / pi_neg)"))],
    "flow_rhs_pi_plus_alpha": [(simplex, "simplex_flow_rhs", _edited(
        simplex, "simplex_flow_rhs", "-_exponent(alpha) * _log(p)",
        "_exponent(alpha) * _log(p)"))],
    "lyapunov_gap_plus_f_star": [(flows, "lyapunov_continuous", _GAP_PLUS_F_STAR),
                                 (experiments, "lyapunov_continuous", _GAP_PLUS_F_STAR)],
    "quadratic_value_shift": [(flows, "quadratic_objective", _QUADRATIC_SHIFT),
                              (experiments, "quadratic_objective", _QUADRATIC_SHIFT)],
}

# each runner at its size in the benchmark's workloads
RUNNERS = {
    "student-t-online": ["--override", "n_steps=1000"],
    "dirichlet-online": ["--override", "n_steps=1000"],
    "simplex-compare": ["--override", "n_steps=50"],
    "flow-equivalence": ["--override", "t_end=0.1"],
    "geodesic-check": [],
    "lyapunov-suite": [],
}

SIMPLEX_FAULTS = ("transport_map_plus_alpha", "flow_rhs_sign", "flow_rhs_pi_plus_alpha")

# the runners that call each faulted function
CALLERS = {
    "clock_sign": ("flow-equivalence", "lyapunov-suite"),
    "metric_sign": ("flow-equivalence", "geodesic-check", "lyapunov-suite"),
    "metric_scale": ("flow-equivalence", "geodesic-check", "lyapunov-suite"),
    "dual_velocity_sign": ("geodesic-check",),
    "online_rate_inverted": ("student-t-online", "dirichlet-online"),
    **dict.fromkeys(SIMPLEX_FAULTS, ("simplex-compare",)),
    "lyapunov_gap_plus_f_star": ("lyapunov-suite",),
    "quadratic_value_shift": ("flow-equivalence", "lyapunov-suite"),
}

# (fault, runner): why the runner cannot see the fault
BLIND_SPOTS = {
    ("clock_sign", "flow-equivalence"):
        "both sides of the time change take their clock from the same conformal_weight",
    ("clock_sign", "geodesic-check"):
        "the geodesic flows solve with G alone and read no clock",
    ("metric_sign", "flow-equivalence"):
        "the time change holds for any metric: both sides solve with the same G",
    **{("metric_scale", runner):
       "both sides of each check share G: a scaled G only slows the flow it checks "
       "(ROADMAP item 2)" for runner in ("flow-equivalence", "lyapunov-suite")},
    ("dual_velocity_sign", "flow-equivalence"):
        "the time change is checked in the primal coordinate and reads no dual velocity",
    ("dual_velocity_sign", "lyapunov-suite"):
        "the Lyapunov checks run in the primal coordinate and read no dual velocity",
    ("quadratic_value_shift", "flow-equivalence"): "reads only the objective's gradient",
    # the guarded step rejects every step up the cost, so a flow that points
    # the wrong way leaves p where it is
    **{(fault, "simplex-compare"):
       "passed checks only finite, positive weights, not a claim of the paper on the "
       "simplex flow (ROADMAP item 4)" for fault in SIMPLEX_FAULTS},
}
for fault, callers in CALLERS.items():
    for runner in RUNNERS:
        if runner not in callers:
            BLIND_SPOTS.setdefault((fault, runner),
                                   f"the runner never calls {FAULTS[fault][0][1]}")

# caught today: the clock sign by the discrete check (the two forms of the
# smoothness denominator disagree); the metric sign by geodesic-check on every
# generator, the 1-d instance included, and by lyapunov-suite's error budget
# (the 1-d Richardson estimate reads 3.9e-9, and twice it, 7.8e-9, exceeds
# MONOTONE_TOL 7.8-fold); the metric scaled by 1.01 by geodesic-check's dual
# velocity, off by 9.9e-3 at every point; the dual-velocity sign by
# geodesic-check's dual coefficient; the inverted online rate by both online
# runners; the gap taken as f + f*, and the quadratic value shifted to
# 1/2 |theta + c|^2, by lyapunov-suite's bound_dominates_1d, whose objective
# has f* = 1 and whose gap must not be negative
ROWS = [pytest.param(fault, runner, id=f"{fault}-{runner}",
                     marks=[pytest.mark.xfail(reason=BLIND_SPOTS[fault, runner],
                                              raises=AssertionError, strict=True)]
                     if (fault, runner) in BLIND_SPOTS else [])
        for fault in FAULTS for runner in RUNNERS]


@pytest.mark.parametrize("fault, runner", ROWS)
def test_a_runner_fails_a_fault_of_the_geometry(tmp_path, monkeypatch, capsys, fault, runner):
    for module, name, value in FAULTS[fault]:
        monkeypatch.setattr(module, name, value)
    status = cli.main([runner, "--out", str(tmp_path), *RUNNERS[runner]])
    assert f"{runner}: FAIL" in capsys.readouterr().out
    assert status == 1

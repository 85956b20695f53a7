"""Tracing must not change what ``xmd`` computes, and its self times must add
up. Each workload runs at a tiny length, untraced and traced."""
from __future__ import annotations

import os

import pytest

from spans import Tracer, summarize
from workloads import WORKLOADS, comparable_bytes, run_pass

TINY = {
    "student-t-online": {"n_steps": 20, "n_traj": 2},
    "dirichlet-online": {"n_steps": 20, "n_traj": 2},
    "simplex-compare": {"n_steps": 3, "n_inits": 2},
    "flow-equivalence": {"t_end": 0.01},
}


def _outputs(root, invocations) -> dict:
    files = {}
    for experiment, _ in invocations:
        out_dir = os.path.join(root, experiment)
        for name in sorted(os.listdir(out_dir)):
            files[f"{experiment}/{name}"] = comparable_bytes(os.path.join(out_dir, name))
    return files


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_changes_no_output(workload, tmp_path):
    invocations = [(e, TINY.get(e, {})) for e, _ in WORKLOADS[workload]]
    plain = run_pass(invocations, 0, str(tmp_path / "plain"))
    tracer = Tracer()
    traced = run_pass(invocations, 0, str(tmp_path / "traced"), tracer)
    spans = tracer.take()

    assert plain.problems == [] and traced.problems == []
    assert (plain.attempted, plain.failed) == (traced.attempted, traced.failed)
    assert _outputs(tmp_path / "plain", invocations) == \
        _outputs(tmp_path / "traced", invocations)

    summary = summarize(spans, tracer.names)
    assert "cli.main" in summary["functions"]
    assert all(f["self_s"] >= 0.0 for f in summary["functions"].values())
    # the pass's own loop around cli.main is outside every span
    assert summary["self_total_s"] <= traced.wall_s
    assert summary["self_total_s"] == pytest.approx(traced.wall_s, rel=0.02, abs=2e-3)


def test_leaving_the_tracer_restores_every_binding():
    from xmd import core, experiments, flows

    originals = (core.metric, flows.metric, core.Domain.contains,
                 dict(experiments.RUNNERS))
    with Tracer().installed():
        assert flows.metric is not originals[1]
        assert core.Domain.contains is not originals[2]
        assert experiments.RUNNERS["flow-equivalence"] is not \
            originals[3]["flow-equivalence"]
    assert (core.metric, flows.metric, core.Domain.contains,
            dict(experiments.RUNNERS)) == originals

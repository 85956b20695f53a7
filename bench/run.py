"""Run one benchmark workload of ``xmd`` and print its metrics.

    python3 bench/run.py --workload online-t --seed 0 --seconds 20 --trace 0

Run it from the repository root. With ``--trace 0`` it prints the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics from
a traced run. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Run outputs,
spans and a ``result.json`` with the environment go to
``.bench_out/<workload>/``. See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads are pinned before numpy is first imported (numpy is only
# imported inside functions), here and in the set-up probes, so that every
# workload runs on one thread.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
REFERENCE_STEPS = 20000

# A fresh interpreter imports the CLI and parses and validates the
# workload's configs the way ``xmd.cli.main`` does, then prints the clock.
PROBE = """
import json, sys, time
from xmd.cli import build_parser
from xmd.config import ExperimentConfig, apply_overrides
for argv in json.loads(sys.argv[1]):
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(experiment=args.experiment).validate()
    config = apply_overrides(config, args.override)
    config.seed = args.seed
    config.validate()
print(time.monotonic())
"""


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(invocations, seed: int, out_root: str) -> float:
    """Median over SETUP_PROBES fresh interpreters of the time until the
    CLI is imported and the workload's configs are validated."""
    from workloads import cli_argv

    argvs = json.dumps([cli_argv(e, o, seed, out_root) for e, o in invocations])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", PROBE, argvs], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def reference_seconds() -> float:
    """Wall time of a fixed computation that uses no ``xmd`` code: small-array
    numpy arithmetic behind Python calls, the mix of the ``xmd`` hot paths.

    The host's speed drifts by 10-30% over minutes. Timing this next to each
    pass measures the speed the pass ran at."""
    import numpy as np

    x = np.linspace(0.1, 1.0, 8)
    t0 = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        y = np.sqrt(x * x + 1.0)
        float(y @ x)
        if not np.all(np.isfinite(y)):
            raise FloatingPointError("reference computation overflowed")
    return time.perf_counter() - t0


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "blas_pin": BLAS_PIN,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(invocations, seed, seconds, out_root, trace) -> dict:
    """Run passes in a closed loop until ``seconds`` have elapsed.

    The reference computation is timed before the first pass, between the
    invocations of every untraced pass and after it, so each untraced
    invocation lies between two reference timings.
    Traced, untraced and traced passes alternate, so that both see the same
    machine state.
    """
    from spans import Tracer, summarize
    from workloads import run_pass

    tracer = Tracer() if trace else None
    plain, traced, traced_spans, summaries = [], [], [], []
    refs = [reference_seconds()]
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(run_pass(invocations, seed, out_root, between=reference_seconds))
        refs.append(reference_seconds())
        if tracer is not None:
            traced.append(run_pass(invocations, seed, out_root, tracer))
            traced_spans.append(tracer.take())
            summaries.append(summarize(traced_spans[-1], tracer.names))
        if time.perf_counter() >= deadline:
            break
    return {"plain": plain, "traced": traced, "spans": traced_spans, "refs": refs,
            "summaries": summaries, "names": tracer.names if tracer else []}


def check_passes(run: dict) -> list[str]:
    """Problems found in any pass, plus any pass whose outputs differ from the
    first: every pass uses the same seed, traced or not."""
    passes = run["plain"] + run["traced"]
    problems = [p for r in passes for p in r.problems]
    if len({r.fingerprint for r in passes}) != 1:
        problems.append("outputs differ between passes of the same seed")
    for summary, result in zip(run["summaries"], run["traced"]):
        if summary["min_self_s"] < -1e-9:
            problems.append("a span has negative self time")
        if abs(summary["self_total_s"] - result.wall_s) > 0.02 * result.wall_s:
            problems.append("self times do not add up to the traced wall time")
    return problems


def wall_ref(run: dict) -> float:
    """Median over untraced passes of the pass's wall time in reference
    units: the sum over its invocations of each one's time divided by the
    mean of the reference timings on either side of it."""
    refs = run["refs"]
    ratios = []
    for i, r in enumerate(run["plain"]):
        around = [refs[i], *r.between, refs[i + 1]]
        ratios.append(math.fsum(t / (0.5 * (around[j] + around[j + 1]))
                                for j, t in enumerate(r.times)))
    return statistics.median(ratios)


def end_to_end(run: dict, setup_s: float) -> dict:
    attempted, failed = run["plain"][0].attempted, run["plain"][0].failed
    return {
        "setup_s": setup_s,
        "wall_ref": wall_ref(run),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(summary: dict, result) -> dict:
    """Derived per-layer values of one traced pass, by metric name."""
    fns = summary["functions"]
    counters = summary["counters"]

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    values = {
        "expfam.online_update.inverse_per_update":
            _ratio(summary["inverse_in_update"], calls("expfam.online_update")),
        "expfam.online_update.skipped": counters["expfam.online_update.skipped"],
        "simplex.step_conformal.nonfinite": counters["simplex.step_conformal.nonfinite"],
        "simplex.step_entropic.nonfinite": counters["simplex.step_entropic.nonfinite"],
        "flows.rhs_primal.calls_per_step":
            _ratio(summary["rhs_in_integrate"],
                   4 * counters["flows.integrate.scheduled_steps"]),
        "core.theta_of_zeta.residuals_per_call":
            _ratio(summary["residuals_in_newton"], calls("core.theta_of_zeta")),
        "experiments.output_bytes": result.output_bytes,
    }
    for name, f in fns.items():
        values[f"{name}.calls"] = f["calls"]
        values[f"{name}.self_s"] = f["self_s"]
        values[f"{name}.us_per_call"] = 1e6 * f["span_s"] / f["calls"]
    return values


def per_layer(run: dict, specs: list[dict]) -> dict:
    """Median over traced passes of each per-layer metric, plus the run-level
    times. A function the workload never calls reads 0."""
    passes = [layer_values(s, r) for s, r in zip(run["summaries"], run["traced"])]
    plain = statistics.median(r.wall_s for r in run["plain"])
    traced = statistics.median(r.wall_s for r in run["traced"])
    out = {}
    run_level = {"trace.overhead_frac": traced / plain - 1.0,
                 "run.wall_s": plain,
                 "run.reference_s": statistics.median(run["refs"])}
    for spec in specs:
        name = spec["name"]
        if name in run_level:
            out[name] = run_level[name]
            continue
        function, stat = name.rsplit(".", 1)
        known = (function in run["names"] if stat in ("calls", "self_s", "us_per_call")
                 else name in passes[0])
        if not known:
            raise KeyError(f"BENCHMARK.json names an unknown per-layer metric {name}")
        out[name] = statistics.median(p.get(name, 0) for p in passes)
    return out


def write_artifacts(out_root: Path, run: dict, result: dict, env: dict) -> None:
    import numpy as np

    if run["spans"]:
        arrays = {}
        for i, spans in enumerate(run["spans"]):
            for key in ("name", "parent", "start", "end"):
                arrays[f"pass{i}_{key}"] = spans[key]
        np.savez(out_root / "spans.npz", names=np.array(run["names"]), **arrays)
    functions = run["summaries"][-1]["functions"] if run["summaries"] else {}
    with open(out_root / "result.json", "w") as fh:
        json.dump({"environment": env, "result": result,
                   "pass_wall_s": [r.wall_s for r in run["plain"]],
                   "pass_invocation_s": [r.times for r in run["plain"]],
                   "reference_s": run["refs"],
                   "reference_between_s": [r.between for r in run["plain"]],
                   "traced_pass_wall_s": [r.wall_s for r in run["traced"]],
                   "functions": functions}, fh, indent=2, sort_keys=True)


def print_breakdown(summary: dict, wall_s: float, top: int = 12) -> None:
    """Functions with the most self time in the last traced pass, to stderr."""
    ranked = sorted(summary["functions"].items(), key=lambda kv: -kv[1]["self_s"])
    print(f"self time of the last traced pass ({wall_s:.3f} s):", file=sys.stderr)
    for name, f in ranked[:top]:
        print(f"  {name:40s} {f['self_s']:8.3f} s {100 * f['self_s'] / wall_s:5.1f}%"
              f" {f['calls']:9d} calls", file=sys.stderr)


def main(argv=None) -> int:
    if not (SRC / "xmd").is_dir():
        print(f"no xmd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    args = parse_args(argv)
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    invocations = WORKLOADS[args.workload]
    out_root = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    setup_s = None if args.trace else setup_seconds(invocations, args.seed, str(out_root))
    run = measure(invocations, args.seed, args.seconds, str(out_root), args.trace)
    problems = check_passes(run)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    if args.trace:
        values = per_layer(run, spec["per_layer"])
        specs = spec["per_layer"]
    else:
        values = end_to_end(run, setup_s)
        specs = spec["end_to_end"]
    # Every pass repeats the same operations on the same seed, and
    # check_passes requires their outputs to be identical, so the counts are
    # those of one pass: they depend on the seed alone, not on how many
    # passes fitted into the run.
    first = run["plain"][0]
    result = {
        "correct": not problems,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }
    env = environment(args)
    write_artifacts(out_root, run, result, env)
    if run["summaries"]:
        print_breakdown(run["summaries"][-1], run["traced"][-1].wall_s)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

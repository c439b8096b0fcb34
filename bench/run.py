"""Benchmark for dualac: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload gridworld --seed 0 --seconds 25 --trace 0

Workloads (defined, with why each exists, in workloads.py): gridworld,
gridworld_naive, pendulum, oracle.

The run prints a report with every metric by name and unit, then, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics,
measured with nothing wrapped; with --trace 1 they are its per-layer
metrics, from a run in which every second op runs traced (see tracer.py).
The full result -- all ten end-to-end metrics, the machine record, the
record digests, the raw op times and the traced call tree -- is written to
.bench_results/<workload>-seed<seed>-trace<t>.json.

BENCHMARK.json gates only the end-to-end metrics that every workload has
and that never read 0: op_ms.p50 (the closed-loop op: a training iteration
or an oracle case), setup_s and peak_rss_mb.  The others are printed and
stored; fail_share shows as `failed` in the last line.

The run exits nonzero when an output check fails: an iteration error, a
non-finite record, repeats of one seed that differ, a policy that beats the
exact optimum, a failed oracle identity or a nonzero `oracle-check` exit.
"""

from __future__ import annotations

import argparse
import json
import logging
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
P90_TAIL = 10  # p90 is reported only with at least this many samples above it
CHECK_TOLERANCE = 0.05  # share by which traced phase or layer sums may miss wall time


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_probe(workload: str, seed: int) -> float:
    """Import dualac and build the starting state in this fresh interpreter."""
    t0 = time.perf_counter()
    import workloads

    workloads.build(workloads.WORKLOADS[workload], seed)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def _p90(samples: list[float]):
    """p90 when at least P90_TAIL samples lie above it, else None."""
    if len(samples) < 2:
        return None
    p90 = statistics.quantiles(samples, n=10)[-1]
    return p90 if sum(s > p90 for s in samples) >= P90_TAIL else None


def end_to_end(wl, repeats, setup, quality, peak_rss, failed, attempted) -> tuple[dict, int]:
    """All ten end-to-end metrics, None where one does not apply, and the
    number of untraced op samples."""
    op_ms = [1e3 * t for r in repeats for t, traced in zip(r.op_s, r.traced) if not traced]
    train = wl.env is not None
    p50 = statistics.median(op_ms) if op_ms else None
    p90 = _p90(op_ms)
    timed_s = sum(op_ms) / 1e3
    steps = sum(n for r in repeats for n, traced in zip(r.steps, r.traced) if not traced)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "iter_ms.p50": (p50 if train else None, "ms"),
        "iter_ms.p90": (p90 if train else None, "ms"),
        "env_steps_per_s": (steps / timed_s if train and timed_s else None, "1/s"),
        "return_ratio": (quality.get("return_ratio"), "ratio"),
        "final_return": (quality.get("final_return") if wl.env == "pendulum" else None, "return"),
        "case_ms.p50": (None if train else p50, "ms"),
        "case_ms.p90": (None if train else p90, "ms"),
        "fail_share": (failed / attempted, "share"),
        "peak_rss_mb": (peak_rss, "MB"),
        # the closed-loop op time under one name for every workload
        "op_ms.p50": (p50, "ms"),
    }, len(op_ms)


def per_layer(tr, repeats, fallbacks: int) -> dict:
    """Per-layer metrics from the traced ops, per op (iteration or case) for
    work and ms, per call for us."""
    from tracer import LAYERS, PHASES

    ops = [(t, traced) for r in repeats for t, traced in zip(r.op_s, r.traced)]
    n = max(1, sum(traced for _, traced in ops))
    records = [rec for r in repeats for rec in r.records if hasattr(rec, "inner_converged")]
    traced_records = [rec for r in repeats for rec, traced in zip(r.records, r.traced)
                      if traced and hasattr(rec, "inner_converged")]

    def ms(*names):
        return 1e3 * tr.total_s(*names) / n

    def us(*names):
        return 1e6 * tr.total_s(*names) / max(1, tr.calls(*names))

    def per_op(x):
        return x / n

    out = {f"driver.{p}.ms": (1e3 * tr.phase_s[p] / n, "ms") for p in PHASES}
    out["driver.self.ms"] = (1e3 * tr.phase_s["self"] / n, "ms")
    out.update(
        {
            "optim.fit.steps": (per_op(tr.calls("estimators.grad_v_estimate")), "count"),
            "optim.fit.converged_share": (
                statistics.fmean(r.inner_converged for r in records) if records else 0.0, "share"),
            "optim.fit.residual": (statistics.median(r.inner_residual for r in records) if records else 0.0, "norm"),
            "optim.fisher.rows": (per_op(tr.counts["optim.fisher.rows"]), "count"),
            "optim.fisher.ms": (ms("optim.fisher_estimate"), "ms"),
            "optim.cg.matvecs": (per_op(tr.calls("optim.FisherOperator.__call__")), "count"),
            "optim.cg.ms": (ms("optim.cg_solve"), "ms"),
            "optim.ng.fallbacks": (fallbacks / len(records) if records else 0.0, "count"),
            "estimators.grad_v.calls": (per_op(tr.calls("estimators.grad_v_estimate")), "count"),
            "estimators.grad_v.us": (us("estimators.grad_v_estimate"), "us"),
            "estimators.sample.steps": (per_op(tr.counts["estimators.sample.steps"]), "count"),
            "estimators.sample.ms": (ms("estimators.sample_trajectories"), "ms"),
            "estimators.grad_pi.ms": (ms("estimators.grad_pi_estimate"), "ms"),
            "estimators.deltas.ms": (
                ms("estimators.traj_deltas", "estimators.delta_means_by_start", "estimators.alpha_closed_form"), "ms"),
            "estimators.exact.paths": (per_op(tr.counts["estimators.exact.paths"]), "count"),
            "estimators.exact.ms": (ms("estimators.exact_grad_v", "estimators.exact_grad_pi"), "ms"),
            "policies.sample.us": (us("policies.TabularSoftmaxPolicy.sample", "policies.GaussianRbfPolicy.sample"), "us"),
            "policies.features.rows": (per_op(tr.counts["policies.features.rows"]), "count"),
            "policies.features.us": (us("policies.RbfFeatureMap.__call__"), "us"),
            "policies.value_grad.calls": (
                per_op(tr.calls("policies.LinearValue.eval_and_grad", "policies.TabularValue.eval_and_grad")), "count"),
            "policies.value_grad.us": (
                us("policies.LinearValue.eval_and_grad", "policies.TabularValue.eval_and_grad"), "us"),
        }
    )
    score = [f"policies.{c}.{m}" for c in ("TabularSoftmaxPolicy", "GaussianRbfPolicy")
             for m in ("log_prob_and_grad", "score_batch")]
    steps = ("envs.TabularEnv.step_state", "envs.PendulumEnv.step_state")
    out.update(
        {
            "policies.score.calls": (per_op(tr.calls(*score)), "count"),
            "policies.score.us": (us(*score), "us"),
            "envs.step.calls": (per_op(tr.calls(*steps)), "count"),
            "envs.step.us": (us(*steps), "us"),
            "envs.clips": (per_op(sum(c for r in repeats for c, traced in zip(r.clips, r.traced) if traced)), "count"),
            "mdp.value_iteration.ms": (ms("mdp.value_iteration"), "ms"),
            "mdp.occupancy.ms": (ms("mdp.discounted_state_occupancy"), "ms"),
            "mdp.load.ms": (ms("mdp.load_mdp"), "ms"),
            "lagrangian.paths": (per_op(tr.counts["lagrangian.paths"]), "count"),
            "lagrangian.enum.ms": (ms("lagrangian.multi_step_lagrangian"), "ms"),
            "lagrangian.dp.ms": (ms("lagrangian.expected_delta_dp", "lagrangian.path_reg_value_gradient"), "ms"),
            "lagrangian.inner_min_v.ms": (ms("lagrangian.inner_min_v_exact"), "ms"),
            "cli.oracle_check.self_ms": (1e3 * tr.stats["cli.main"][2] / n if "cli.main" in tr.stats else 0.0, "ms"),
        }
    )
    for layer, self_s in tr.layer_self_s().items():
        out[f"self.{layer}.ms"] = (1e3 * self_s / n, "ms")
    # each traced op against the untraced op just before it, so that drift
    # in the machine's speed cancels
    ratios = [b / a for (a, a_traced), (b, b_traced) in zip(ops, ops[1:]) if b_traced and not a_traced]
    out["trace.overhead"] = (statistics.median(ratios) if ratios else None, "ratio")
    # Sums that must meet wall time: the driver phases plus driver.self
    # against the iterations' own wall_time, and every layer's self time
    # against the benchmark's clock around each op.
    wall = sum(r.wall_time for r in traced_records)
    phase_sum = sum(tr.phase_s.values())
    out["trace.phase_gap"] = (abs(phase_sum - wall) / wall if wall else 0.0, "share")
    op_s = sum(t for t, traced in ops if traced)
    out["trace.self_gap"] = (abs(sum(tr.layer_self_s().values()) - op_s) / op_s if op_s else 0.0, "share")
    return out


def _fmt(value, unit) -> str:
    return f"{value:.6g} {unit}" if value is not None else "n/a"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "dualac" / "__init__.py").is_file():
        print(f"error: no dualac sources under {ROOT / 'src'}; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        print(repr(_setup_probe(args.workload, args.seed)))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import machine
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    setup = setup_seconds(wl.name, args.seed)
    host = machine.machine_record()
    host["probe_ms_start"] = machine.calibration_probe_ms()

    fallbacks = tracing.FallbackCounter()
    optim_log = logging.getLogger("dualac.optim")
    optim_log.addHandler(fallbacks)
    optim_log.propagate = False  # counted, not printed: the report stays parsable

    tr = tracing.Tracer() if args.trace else None
    RESULTS.mkdir(exist_ok=True)
    mdp_path = RESULTS / f"oracle-mdp-seed{args.seed}.json"
    try:
        repeats = workloads.run(wl, args.seed, args.seconds, tr, str(mdp_path))
    finally:
        mdp_path.unlink(missing_ok=True)
    host["probe_ms_end"] = machine.calibration_probe_ms()

    # output checks: each one an attempted operation
    failures = [f for r in repeats for f in r.failures]
    attempted = sum(r.attempted for r in repeats)
    quality = {}
    digests = [r.digest() for r in repeats]
    if wl.env is not None and not failures:
        if len(repeats) > 1:
            attempted += 1
            if len(set(digests)) != 1:
                failures.append(f"repeats of seed {args.seed} gave different records: {sorted(set(digests))}")
        quality = workloads.policy_quality(repeats[-1])
        if "return_ratio" in quality:
            attempted += 1
            low, high = quality.pop("return_ratio_range")
            if not 0.0 <= low <= high <= 1.0 + 1e-9:
                failures.append(f"return_ratio range {low!r}..{high!r} leaves [0, 1]: the exact oracles disagree")

    if wl.env is None and tr is not None:
        attempted += 1
        if any(a != b for a, b in zip(digests[0::2], digests[1::2])):
            failures.append("a traced oracle case gave other results than its untraced twin")
    layers = None
    if tr is not None:
        layers = per_layer(tr, repeats, fallbacks.count)
        for gap in ("trace.phase_gap", "trace.self_gap"):
            attempted += 1
            if layers[gap][0] > CHECK_TOLERANCE:
                failures.append(f"{gap} {layers[gap][0]:.3g} above {CHECK_TOLERANCE}: the traced sums miss wall time")
    correct = not failures
    metrics, n_samples = end_to_end(wl, repeats, setup, quality, machine.peak_rss_mb(), len(failures), attempted)

    print(f"workload {wl.name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): {wl.why}")
    print(f"  {sum(len(r.op_s) for r in repeats)} ops in {len(repeats)} repeats; {n_samples} untraced samples "
          f"(a p90 needs {P90_TAIL} above it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {_fmt(value, unit)}")
    if layers is not None:
        for name, (value, unit) in layers.items():
            print(f"  {name:<28} {_fmt(value, unit)}")
        if tr.missing:
            print(f"  not traced (missing in this version): {', '.join(sorted(tr.missing))}")
    print(f"  machine {json.dumps(host)}")
    print(f"  record digest {digests[0] if wl.env else digests[:3]}")
    for f in failures:
        print(f"  FAILED {f}")

    RESULTS.joinpath(f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": {"name": wl.name, "why": wl.why, "default_seed": workloads.DEFAULT_SEED,
                             "heldout_seed": workloads.HELDOUT_SEED},
                "seed": args.seed,
                "seconds": args.seconds,
                "correct": correct,
                "attempted": attempted,
                "failures": failures,
                "setup_samples_s": setup,
                "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "per_layer": None if layers is None else {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
                "machine": host,
                "record_digests": digests,
                "op_ms": [[1e3 * t for t in r.op_s] for r in repeats],
                "traced": [r.traced for r in repeats],
                "call_tree": None if tr is None else tr.tree(),
            },
            indent=1,
        )
    )

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else metrics
    result = {}
    for m in wanted:
        value, unit = source[m["name"]]
        if value is None and not correct:
            continue  # a failed run may not have reached the op that measures it
        if value is None or unit != m["unit"]:
            print(f"error: metric {m['name']} is {value!r} {unit}, BENCHMARK.json wants {m['unit']}", file=sys.stderr)
            return 3
        result[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

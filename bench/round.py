"""One round of one workload in a fresh process; run.py starts it.

Prints one JSON line: the monotonic clock when set-up ended, the wall and
CPU time of the round after set-up, the peak resident memory, the
operations with their failures and, in a traced round, the per-layer
figures.

    python3 bench/round.py --workload ladder --seed 1 --out bench/out/ladder [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import awwlab  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# per-layer figures read off the span summary, named <span>.<s|self_s|calls>
SPAN_METRICS = (
    "reduced.volterra_solve.self_s", "reduced.PropagatorTable.s",
    "reduced.PropagatorTable.at.calls", "reduced.PropagatorTable.at.s",
    "atom.AtomPath.matrix.calls", "reduced.EffectiveGenerator.s",
    "reduced.EffectiveGenerator.call.calls", "reduced.effective_solve.self_s",
    "bath.half_line_transform.calls", "bath.half_line_transform.s",
    "bath.correlation.calls", "bath.correlation.s", "bath.decay_and_shift.calls",
    "exact.propagate_exact.s", "exact.discretize_bath.s",
    "exact.field_amplitude_closed_form.s", "exact.Trajectory.z_at.calls",
    "emission.observable_average.s", "emission.regime_B_limit.s",
    "asymptotics.tables_for.s", "asymptotics.leading_order_z.s", "atom.eigenframe.s",
    "atom.kato_intertwiner.s", "atom.berry_phase.s",
    "spectral.perturbed_spectrum.calls", "spectral.perturbed_spectrum.s",
    "spectral.riesz_projection.s", "spectral.adiabatic_evolution_diagnostic.self_s",
    "harness.run_sweep.self_s", "harness.run_simulate.self_s",
    "harness.write_trajectory_csv.s",
)
RESULT_COUNTS = ("reduced.volterra.steps", "exact.nfev", "exact.modes",
                 "exact.trajectory_mb")


def layer_metrics(tracer, l1_misses, out_dir):
    summary = tracer.summary()
    out = {}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        out[metric] = float(summary.get(span, {}).get(field, 0))
    out.update({name: float(tracer.counts.get(name, 0.0)) for name in RESULT_COUNTS})
    out["bath.correlation_l1_norm.misses"] = float(l1_misses)
    out["harness.csv_mb"] = workloads.harness_csv_mib(out_dir)
    for stage in spans.COST_STAGES:
        per_point = tracer.stage_time_per_point(stage)
        eps = sorted(per_point)
        # log-log slope of the stage's time per point against eps; 0 when
        # the workload has fewer than two eps points
        out[f"{stage}.cost_exp"] = (
            checks.loglog_slope(eps, [per_point[e] for e in eps]) if len(eps) >= 2 else 0.0)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    inputs = workloads.INPUTS[args.workload](args.seed, args.out)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        l1_cache = spans.install(tracer, awwlab)
        misses0 = l1_cache.cache_info().misses

    ready = time.monotonic()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    rnd = workloads.ROUNDS[args.workload](inputs)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    result = {"ready": ready, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "ops": rnd.ops}
    if tracer is not None:
        result["layers"] = layer_metrics(
            tracer, l1_cache.cache_info().misses - misses0, args.out)
        result["spans"] = len(tracer.names)
        tracer.dump(os.path.join(args.out, "trace.json"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

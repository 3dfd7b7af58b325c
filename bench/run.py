"""awwlab benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload ladder --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Each round of the workload runs in a
fresh process with one BLAS thread (bench/round.py), so every round pays
interpreter start, imports and input generation: that is `setup_s`. Rounds
start until the next one would end after --seconds; at least one runs, and
with --trace 1 at least two, alternating untraced and traced. The last line
of standard output is the JSON result; the lines before it give each
metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ladder", "emission", "spectral-d3")
ROUND_TIMEOUT_S = 170.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def run_round(workload, seed, out_dir, traced, deadline):
    env = dict(os.environ, **SINGLE_THREAD)
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload", workload,
           "--seed", str(seed), "--out", out_dir] + (["--trace"] if traced else [])
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} round exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["round_s"] = time.monotonic() - spawned
    result["traced"] = traced
    return result


def per_layer(traced_rounds, untraced_rounds):
    """Median of each layer figure over the traced rounds.

    Counts must repeat exactly between rounds; a count that does not is
    reported on standard error.
    """
    names = traced_rounds[0]["layers"]
    out = {}
    for name in names:
        values = [r["layers"][name] for r in traced_rounds]
        if not name.endswith("_s") and not name.endswith("cost_exp") \
                and len(set(values)) > 1:
            sys.stderr.write(f"count {name} differs between rounds: {values}\n")
        out[name] = statistics.median(values)
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_rounds)
                               - statistics.median(r["wall_s"] for r in untraced_rounds))
    return out


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("cost_exp"):
        return "slope"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "awwlab", "__init__.py")):
        sys.exit(f"no awwlab sources under {os.path.join(ROOT, 'src')}")
    out_dir = os.path.join(HERE, "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)

    start = time.monotonic()
    deadline = start + ROUND_TIMEOUT_S
    min_rounds = 2 if args.trace else 1
    rounds = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args.workload, args.seed, out_dir, traced, deadline))
        last = rounds[-1]
        sys.stderr.write(f"round {len(rounds)}{' traced' if traced else ''}: "
                         f"setup {last['setup_s']:.3f} s, wall {last['wall_s']:.3f} s\n")
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and elapsed + last["round_s"] > args.seconds:
            break

    ops = [op for r in rounds for op in r["ops"]]
    for op in ops:
        if op["error"] or op["failures"]:
            sys.stderr.write(f"FAILED {op['name']}: {op['error'] or op['failures']}\n")
    untraced = [r for r in rounds if not r["traced"]]
    if args.trace:
        metrics = per_layer([r for r in rounds if r["traced"]], untraced)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {name: statistics.median(r[name] for r in untraced) for name in END_TO_END}
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not any(op["failures"] for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["error"] or op["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(os.path.join(HERE, "out", f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"rounds": rounds, **result}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

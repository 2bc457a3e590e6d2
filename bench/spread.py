#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver takes it.

Runs each workload once per seed (``run.py --workload W --seed S
--trace 0``, a fresh process each, seeds interleaved across workloads so
that slow machine drift lands on all of them), then prints for every
metric its median and the distance between the first and third
quartile as a share of the median, next to the metric's bound.  With
``--out`` the numbers and the environment go to a JSON file;
``bench/baseline.json`` is this at the commit that defined the
benchmark::

    python3 bench/spread.py --seeds 10 --out bench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)  # bench/ itself would shadow the package

from bench import spec  # noqa: E402
from bench.run import environment, run_in_child  # noqa: E402


def main(argv=None) -> int:
    names = [n for n, _ in spec.WORKLOADS]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    env = environment()
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    values: dict = {w: {n: [] for n, *_ in spec.END_TO_END}
                    for w in args.workloads.split(",")}
    failed = 0
    for seed in seeds:
        for workload, by_metric in values.items():
            result = run_in_child(workload, seed, spec.RUN_SECONDS, 0)
            failed += result["failed"]
            for name, samples in by_metric.items():
                samples.append(result["metrics"][name]["value"])
            print(f"seed {seed} {workload}: attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)

    summary: dict = {}
    worst = 0.0
    for workload, by_metric in values.items():
        print(f"== {workload}  ({len(seeds)} runs)")
        summary[workload] = {}
        for name, unit, _, bound in spec.END_TO_END:
            samples = by_metric[name]
            q1, _, q3 = quantiles(samples, n=4)
            spread = (q3 - q1) / median(samples)
            if name != "setup_s":  # the driver exempts it from this check
                worst = max(worst, spread / bound)
            summary[workload][name] = {
                "unit": unit, "median": median(samples), "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": samples}
            print(f"  {name:12s} median {median(samples):<12.6g} {unit:4s} "
                  f"spread {spread:.3f}  (bound {bound})")
    print(f"largest spread / bound (setup_s aside): {worst:.2f}; "
          f"failed ops: {failed}")
    if args.out:
        args.out.write_text(json.dumps(
            {"environment": env, "seeds": seeds,
             "run_seconds": spec.RUN_SECONDS, "workloads": summary},
            indent=1) + "\n")
    return 0 if failed == 0 and worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--out FILE] [WORKLOAD ...]

Runs ``perfbench/run.py --trace 0`` once per seed for each workload (all of
BENCHMARK.json by default) with the declared ``run_seconds``, then prints,
per workload and metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
next to a third of the metric's bound.  ``--out`` writes the same as JSON,
with the provenance of each workload's first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    summary = {}
    ok = True
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failures = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failures += result["failed"] + (not result["correct"])
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            print(f"{name} seed={seed} " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        record = json.loads(Path(f".perfbench_out/BENCH_{name}_seed{args.first_seed}_trace0.json").read_text())
        summary[name] = {"failed": failures, "provenance": record["provenance"], "metrics": {}}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            steady = spread < m["bound"] / 3
            ok &= steady or m["name"] == "setup_s"
            summary[name]["metrics"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "values": vals,
            }
            print(f"  {m['name']:<12} median={med:.6g} {m['unit']} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f} (bound/3={m['bound'] / 3:.4f}){'' if steady else '  UNSTEADY'}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

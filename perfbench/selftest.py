"""Self-test of the benchmark itself.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

For every workload in BENCHMARK.json, a tiny run with --trace 0 and one with
--trace 1 must print, as the last line, a correct result carrying exactly
the declared metrics with their units; a tiny run with --corrupt (one output
perturbed, e.g. a mean deficiency off by 1e-9 relative) must report a
failure, which shows the correctness gate is live.  Finally the benchmark
must exit non-zero, printing no result, in a directory without the program.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path


def bench(*args, cwd="."):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = bench("--workload", workload, "--trace", str(trace), "--tiny")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()} if result else None
            if code != 0 or got != want:
                problems.append(f"{workload} trace={trace}: exit {code}, metrics {got}")
            elif not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{workload} trace={trace}: not correct: {result}")
            elif not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{workload} trace={trace}: non-finite metric in {result['metrics']}")
        code, result = bench("--workload", workload, "--trace", "0", "--tiny", "--corrupt")
        if code != 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: corrupted output not caught: exit {code}, {result}")
        print(f"{workload}: checked", flush=True)

    bare = Path(".perfbench_out") / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("--workload", spec["workloads"][0]["name"], cwd=bare)
    if code == 0 or result is not None:
        problems.append(f"without the program: exit {code}, result {result}")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

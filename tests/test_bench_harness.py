"""The benchmark harness still imports against the package.

``perfbench/tracer.py`` looks up the functions it traces as kmarkets
attributes at import time, so renaming or deleting one of them breaks the
benchmark; this catches it in a fraction of a second.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_and_workloads_import_against_src():
    pythonpath = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    code = "import json, tracer, workloads; print(json.dumps(sorted(workloads.WORKLOADS)))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert json.loads(done.stdout) == sorted(w["name"] for w in declared)

"""kmarkets benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout (the package is read from ``src``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or ``all``.  With
``--trace 0`` every iteration runs untraced in a fresh interpreter;
``wall_s``, ``cpu_s`` and ``peak_rss_mb`` are medians over the iterations of
one run, ``work_per_s`` is the total work over the total wall time, and
``setup_s`` is the median over fresh interpreters, probed between the
iterations, of the time until ``import kmarkets`` is done.  An iteration of
a CLI workload includes each CLI process's own start-up, which a CLI user
pays on every call.  With ``--trace 1`` untraced and traced in-process
iterations alternate; the per-layer metrics are medians over the traced
ones and ``trace.overhead_frac`` compares the two.  Outputs are checked
after the timed part; a failed check counts into ``failed``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
samples and provenance go to ``.perfbench_out/BENCH_<workload>_seed<N>_trace<T>.json``
and the spans of the latest traced run to ``.perfbench_out/spans_<workload>.jsonl``.

Every process runs with one BLAS/OpenMP thread.

``--tiny`` shrinks every input and ``--corrupt`` perturbs one output before
the checks; both exist for ``perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread in this process and every child, set before numpy
# loads: on a host with few shared cores, BLAS threads busy-waiting on another
# core make wall time depend on what else runs there, not on the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
ITERATION = HERE / "iteration.py"


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p)
    return env


def _run(cmd, env, timeout=CHILD_TIMEOUT_S):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -9, out, err + f"\ntimed out after {timeout} s"
    return proc.returncode, out, err


def setup_probe(env):
    """Seconds from starting a fresh interpreter to ``import kmarkets`` done."""
    cmd = [sys.executable, "-c", "import time, kmarkets; print(time.perf_counter())"]
    start = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    code, out, err = _run(cmd, env)
    if code != 0:
        raise RuntimeError(f"cannot import kmarkets: {err.strip()}")
    return float(out) - start


def run_iteration(request, env):
    code, out, err = _run([sys.executable, str(ITERATION), json.dumps(request)], env)
    if code != 0:
        return None, err.strip().splitlines()[-1:] or [f"exit {code}"]
    return json.loads(out.splitlines()[-1]), []


def measure(wl, params, modes, seconds, env, spans_file, min_rounds, setup=None):
    """Alternate the given modes for about ``seconds``; return samples per mode.

    With a ``setup`` list, one set-up probe runs before each round, so the
    probes sample the same stretch of time as the iterations.
    """
    samples = {mode: [] for mode in modes}
    crashes = []
    start = time.perf_counter()
    rounds = 0
    while True:
        if setup is not None:
            setup.append(setup_probe(env))
        for mode in modes:
            request = {"workload": wl.name, "params": params, "mode": mode, "out_dir": str(OUT_DIR),
                       "spans_file": str(spans_file), "tag": f"{mode}-{rounds}"}
            result, err = run_iteration(request, env)
            if result is None:
                crashes.append(f"{mode} iteration {rounds} crashed: {err}")
            else:
                samples[mode].append(result)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + 0.5 * elapsed / rounds >= seconds:
            return samples, crashes


def _blas():
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads, "thread_env": env}


def provenance(seed, params):
    import numpy as np

    from kmarkets import DEFAULT_QUAD

    commit = None
    if Path(".git").exists():
        code, out, _ = _run(["git", "rev-parse", "HEAD"], dict(os.environ), timeout=30)
        commit = out.strip() if code == 0 else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": commit,
        "seed": seed,
        "quadrature": dict(dataclasses.asdict(DEFAULT_QUAD), **params.get("quad", {})),
        "platform": platform.platform(),
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def _inputs(wl, seed, tiny):
    params = wl.params(seed, tiny=tiny)
    if hasattr(wl, "prepare"):  # inputs that live in files
        wl.prepare(params, OUT_DIR)
    return params


def run_workload(wl, args, spec, env):
    """Measure one workload; return its result object and report lines."""
    params = _inputs(wl, args.seed, args.tiny)
    warm = _inputs(wl, args.seed, tiny=True)
    run_iteration({"workload": wl.name, "params": warm, "mode": "e2e" if not args.trace else "inproc",
                   "out_dir": str(OUT_DIR), "spans_file": "", "tag": "warm-up"}, env)

    spans_file = OUT_DIR / f"spans_{wl.name}.jsonl"
    if args.trace:
        spans_file.unlink(missing_ok=True)
    modes = ("inproc", "traced") if args.trace else ("e2e",)
    setup = None
    if not args.trace:
        for _ in range(2):  # fill the bytecode and file caches
            setup_probe(env)
        setup = []
    samples, crashes = measure(wl, params, modes, args.seconds, env, spans_file, 1 if args.trace else 2, setup)
    while setup is not None and len(setup) < (3 if args.tiny else SETUP_PROBES):
        setup.append(setup_probe(env))

    runs = [r for mode in modes for r in samples[mode]]
    outputs = [r["output"] for r in runs]
    if args.corrupt and outputs:
        wl.corrupt(params, outputs[-1])
    failed, notes = wl.check(params, outputs) if outputs else (0, [])
    failed += wl.ops(params) * len(crashes)
    replay_bad = [r for r in runs if r.get("replay_matches") is False]
    failed += wl.ops(params) * len(replay_bad)
    notes += crashes + ["serial replay differs from the pooled run"] * len(replay_bad)
    attempted = wl.ops(params) * (len(runs) + len(crashes))

    lines = [f"== {wl.name}  seed={args.seed}  trace={args.trace}  iterations={len(runs)}"]
    if args.trace:
        traced, plain = samples["traced"], samples["inproc"]
        metrics = {name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]} if traced else {}
        base = _median([r["wall_s"] for r in plain])
        metrics["trace.overhead_frac"] = (_median([r["wall_s"] for r in traced]) - base) / base if plain else float("nan")
        wanted = spec["per_layer"]
        if wl.serial_replay:
            lines.append("note: pool workers are invisible to the tracer; layer calls and engine self time come "
                         "from a serial traced replay of the same points, which is bit-identical by the seed contract")
        lines.append("note: adversarial.quad_cells_per_s is computed from QuadratureConfig, not counted")
        lines.append(f"note: k_reduced_frac base = {metrics.get('pricing.k_markets_erm.calls', 0):.0f} K-markets fits")
    else:
        walls = [r["wall_s"] for r in runs]
        metrics = {
            "wall_s": _median(walls),
            "cpu_s": _median([r["cpu_s"] for r in runs]),
            "setup_s": _median(setup),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
            # work completed per second over the whole measured window
            "work_per_s": wl.work(params) * len(walls) / sum(walls) if walls else float("nan"),
        }
        wanted = spec["end_to_end"]
        spread = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        lines.append(f"note: wall_s, cpu_s and peak_rss_mb are medians of {len(walls)} iterations (wall_s q1 "
                     f"{spread[0]:.4g}, q3 {spread[2]:.4g}, max {max(walls, default=float('nan')):.4g}); "
                     f"setup_s is the median of {len(setup)} fresh interpreters; work_per_s is {wl.work_name}, "
                     f"total work over total wall time")
    for m in wanted:
        metrics.setdefault(m["name"], float("nan"))  # only when every iteration crashed
        lines.append(f"{m['name']:<42} {metrics[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        lines.append(f"{wl.work_name:<42} {metrics['work_per_s']:.6g} 1/s")
    lines.append(f"{'fail_frac':<42} {failed / attempted if attempted else 1.0:.6g} ({failed} failed / {attempted} attempted)")
    lines += [f"FAIL {n}" for n in notes]

    prov = provenance(args.seed, params)
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}}
    record = {"workload": wl.name, "result": result, "provenance": prov, "setup_samples": setup,
              "samples": {mode: [{k: v for k, v in r.items() if k != "output"} for r in samples[mode]] for mode in modes},
              "notes": notes, "params": {k: v for k, v in params.items() if k != "input"}}
    (OUT_DIR / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (self-test)")
    parser.add_argument("--corrupt", action="store_true", help="perturb one output before checking (self-test)")
    args = parser.parse_args(argv)

    if not (Path("src") / "kmarkets" / "__init__.py").is_file():
        return _fail("src/kmarkets not found; run from the root of a kmarkets checkout")
    sys.path.insert(0, str(Path("src").resolve()))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    OUT_DIR.mkdir(exist_ok=True)
    env = _child_env()

    results = {}
    for name in names:
        try:
            results[name], lines = run_workload(WORKLOADS[name], args, spec, env)
        except RuntimeError as exc:
            return _fail(str(exc))
        print("\n".join(lines), flush=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured iteration of a workload, in a fresh interpreter.

Usage: python3 perfbench/iteration.py '<json request>'

The request names the workload, its parameters, an output directory and a
mode: ``e2e`` runs the workload as a user would (library calls or CLI
subprocesses), ``inproc`` runs CLI workloads through ``kmarkets.cli.main``
in this process, and ``traced`` does the same as ``inproc`` under the span
recorder.  Prints one JSON line: wall, CPU (self and waited-for children),
peak RSS, the summarized output and, when traced, the layer metrics.
Running each iteration in its own process keeps peak RSS per iteration.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from workloads import WORKLOADS


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def _timed(wl, params, out_dir, inprocess):
    cpu0, t0 = _cpu_s(), time.perf_counter()
    raw = wl.run(params, out_dir, inprocess)
    wall = time.perf_counter() - t0
    return raw, {"wall_s": wall, "cpu_s": _cpu_s() - cpu0, "peak_rss_mb": _peak_rss_mb()}


def main(request):
    wl = WORKLOADS[request["workload"]]
    params, out_dir, mode = request["params"], request["out_dir"], request["mode"]
    if mode != "e2e" or not wl.uses_cli:
        import kmarkets.cli  # noqa: F401  importing is set-up, not workload
    if mode != "traced":
        raw, result = _timed(wl, params, out_dir, inprocess=mode == "inproc")
        result["output"] = wl.summarize(params, raw)
        return result

    from tracer import Recorder, layer_metrics

    outer = Recorder()
    with outer.installed():
        raw, result = _timed(wl, params, out_dir, inprocess=True)
    result["output"] = wl.summarize(params, raw)
    inner = outer
    if wl.serial_replay:
        inner = Recorder()
        with inner.installed():
            replay = wl.summarize(params, wl.run(dict(params, workers=1), out_dir, True))
        result["replay_matches"] = replay == result["output"]
    from kmarkets import DEFAULT_QUAD

    quad = params.get("quad", {"y_panels": DEFAULT_QUAD.y_panels, "x_panels": DEFAULT_QUAD.x_panels})
    result["layers"] = layer_metrics(outer.summary(), inner.summary(), quad)
    spans = request["spans_file"]
    outer.write(spans, f"{request['tag']}-outer")
    if inner is not outer:
        inner.write(spans, f"{request['tag']}-serial-replay")
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

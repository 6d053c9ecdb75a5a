"""Span recorder that traces kmarkets from outside, by wrapping its functions.

While installed, every public function listed in ``TRACED`` is replaced, in
each kmarkets module that holds a reference to it (so the names that
``kmarkets.experiment`` and ``kmarkets.cli`` import are covered too), by a
wrapper that records a span: name, start, end, parent.  The process pool of
``kmarkets.experiment`` is replaced by a subclass whose ``with`` block is the
``experiment.pool`` span.  Spans stay in memory until ``write``.  Calls made
inside pool workers are not seen.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

import kmarkets
from kmarkets import adversarial, cli, experiment, families, oracle, pricing

ingest = importlib.import_module("kmarkets.ingest")  # the package re-exports a function of that name

MODULES = (kmarkets, families, pricing, oracle, experiment, adversarial, ingest, cli)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> (function, counts(args, kwargs, result) or None)
TRACED = {
    "families.sample": (families.sample, lambda a, k, r: {"points": int(_arg(a, k, 1, "n"))}),
    "pricing.uniform_erm": (
        pricing.uniform_erm,
        lambda a, k, r: {"points": int(np.size(_arg(a, k, 0, "valuations")))},
    ),
    "pricing.k_markets_erm": (
        pricing.k_markets_erm,
        lambda a, k, r: {
            "points": len(_arg(a, k, 0, "data")),
            "k_reduced": int(r[1].k_effective < r[1].k_requested),
        },
    ),
    "oracle.expected_revenue": (oracle.expected_revenue, None),
    "oracle.welfare": (oracle.welfare, None),
    "oracle.optimal_uniform_price": (oracle.optimal_uniform_price, None),
    "oracle.optimal_3pd_policy": (oracle.optimal_3pd_policy, None),
    "experiment.crossing_scan": (experiment.crossing_scan, None),
    "experiment._curve": (experiment._curve, None),
    "adversarial.hellinger_sq": (adversarial.hellinger_sq, None),
    "adversarial.kl_divergence": (adversarial.kl_divergence, None),
    "adversarial.gilbert_varshamov": (
        adversarial.gilbert_varshamov,
        lambda a, k, r: {"words": int(r.words.shape[0])},
    ),
    "adversarial.packing_price_separation": (adversarial.packing_price_separation, None),
    "adversarial.lemma_c3_check": (adversarial.lemma_c3_check, None),
    "adversarial.concavity_margin": (adversarial.concavity_margin, None),
    "ingest.ingest": (
        ingest.ingest,
        lambda a, k, r: {"rows": r[1].rows_read, "bidders_kept": r[1].bidders_kept},
    ),
    "cli.main": (cli.main, None),
}
POOL = "experiment.pool"


class Recorder:
    """In-memory spans: [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index, counts=None):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = counts
        self._stack.pop()

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index)
                raise
            self._close(index, counts(args, kwargs, result) if counts else None)
            return result

        return traced

    def _pool_class(self, base):
        recorder = self

        class TracedPool(base):
            def __enter__(self):
                self._span = recorder._open(POOL)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    recorder._close(self._span)

        return TracedPool

    @contextlib.contextmanager
    def installed(self):
        """Patch every reference to a traced function; restore on exit."""
        wrappers = {id(fn): (fn, self._wrap(name, fn, counts)) for name, (fn, counts) in TRACED.items()}
        patched = [(experiment, "ProcessPoolExecutor", experiment.ProcessPoolExecutor)]
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        experiment.ProcessPoolExecutor = self._pool_class(experiment.ProcessPoolExecutor)
        try:
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def summary(self):
        """Per span name: calls, s (inclusive), self_s, summed counts, and
        root_s, the time in spans whose parent has another layer prefix."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
            if parent < 0 or self.spans[parent][0].split(".")[0] != name.split(".")[0]:
                agg["root_s"] += end - start
            for key, value in (counts or {}).items():
                agg[key] += value
        return {name: dict(agg) for name, agg in out.items()}

    def write(self, path, root_id):
        """Dump spans as JSON lines sharing one root identifier."""
        with open(path, "a") as fh:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                fh.write(json.dumps({"root": root_id, "id": i, "parent": parent, "name": name,
                                     "start": start, "end": end, "counts": counts}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(outer, inner, quad):
    """Per-layer metrics from two span summaries.

    ``outer`` is the traced pass as the user runs it (pool and CLI numbers);
    ``inner`` is the pass whose layer calls were all visible, the serial
    replay when the workload uses a pool, else ``outer`` itself.  A ``.s``
    metric is the time inside the calls, child spans included; a ``self_s``
    metric leaves the child spans out.  ``adversarial.quad_cells_per_s`` is computed from the quadrature grid:
    one pass per Hellinger call, two per KL call.
    """
    def get(summary, name, key):
        return summary.get(name, {}).get(key, 0.0)

    m = {}
    for name, unit_key in (("families.sample", "ns_per_point"), ("pricing.uniform_erm", "ns_per_point"),
                           ("pricing.k_markets_erm", "ns_per_point"), ("oracle.expected_revenue", "us_per_call"),
                           ("oracle.welfare", "us_per_call"), ("oracle.optimal_uniform_price", None),
                           ("oracle.optimal_3pd_policy", None), ("adversarial.hellinger_sq", None),
                           ("adversarial.kl_divergence", None)):
        calls, s = get(inner, name, "calls"), get(inner, name, "s")
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = s
        if unit_key == "ns_per_point":
            m[f"{name}.ns_per_point"] = _ratio(s, get(inner, name, "points")) * 1e9
        elif unit_key == "us_per_call":
            m[f"{name}.us_per_call"] = _ratio(s, calls) * 1e6
    m["pricing.k_markets_erm.k_reduced_frac"] = _ratio(
        get(inner, "pricing.k_markets_erm", "k_reduced"), get(inner, "pricing.k_markets_erm", "calls")
    )
    engine = [n for n in inner if n.startswith("experiment.") and n != POOL]
    m["experiment.self_s"] = sum((get(inner, n, "self_s") for n in engine), 0.0)
    m["experiment.self_frac"] = _ratio(m["experiment.self_s"], sum(get(inner, n, "root_s") for n in engine))
    m["experiment.pool.starts"] = get(outer, POOL, "calls")
    m["experiment.pool.wait_s"] = get(outer, POOL, "s")
    cells = (quad["y_panels"] + 1) * (quad["x_panels"] + 1)
    passes = get(inner, "adversarial.hellinger_sq", "calls") + 2 * get(inner, "adversarial.kl_divergence", "calls")
    m["adversarial.quad_cells_per_s"] = _ratio(
        passes * cells, get(inner, "adversarial.hellinger_sq", "s") + get(inner, "adversarial.kl_divergence", "s")
    )
    m["adversarial.gilbert_varshamov.s"] = get(inner, "adversarial.gilbert_varshamov", "s")
    m["adversarial.gilbert_varshamov.words"] = get(inner, "adversarial.gilbert_varshamov", "words")
    for name in ("packing_price_separation", "lemma_c3_check", "concavity_margin"):
        m[f"adversarial.{name}.s"] = get(inner, f"adversarial.{name}", "s")
    m["ingest.ingest.s"] = get(inner, "ingest.ingest", "s")
    m["ingest.ingest.rows_per_s"] = _ratio(get(inner, "ingest.ingest", "rows"), m["ingest.ingest.s"])
    m["ingest.ingest.bidders_kept"] = get(inner, "ingest.ingest", "bidders_kept")
    m["cli.main.self_s"] = get(outer, "cli.main", "self_s")
    return m

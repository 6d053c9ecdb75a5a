"""The benchmark's workloads: seeded inputs, the measured body and the checks.

Each workload builds its inputs from the run seed alone (``params``), runs
the program on them (``run``, the timed part), turns the raw result into
plain JSON (``summarize``, untimed) and checks a run's outputs (``check``,
untimed, in the parent).  The program only ever receives the generated
inputs.  ``tiny`` shrinks every size for the self-test and the warm-up.

Why these four:
  mc_crossing  library crossing_scan at n = 2^6..2^15: per-point sampling,
               sorting and quadrature cost at large n.
  mc_small_n   four CLI runs at n = 64..1024, three serial and one small one
               with a 2-worker pool: per-call Python overhead, welfare, the K
               schedule, pool start-up, CSV.
  lower_bound  the divergence, codebook and localization numerics alone.
  price_ingest `kmarkets price` on an auction CSV: the ingest loop and the
               CLI's own path.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

SEED_STRIDE = 1 << 32  # seed offset between curve points (the engine's contract)
REL_TOL = 1e-12  # recomputed mean deficiency must match to this relative error


def call_cli(argv, inprocess):
    """Run ``kmarkets <argv>``; return (exit code, stdout)."""
    if inprocess:
        from kmarkets import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()
    proc = subprocess.run(
        [sys.executable, "-m", "kmarkets.cli", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def _stratified(rng, lo, hi, count):
    """One uniform draw from each of ``count`` equal strata of [lo, hi]."""
    edges = np.linspace(lo, hi, count + 1)
    return [float(v) for v in edges[:-1] + rng.random(count) * np.diff(edges)]


def _relative_gap(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# --- Monte Carlo: the reference loop behind the recompute gate ------------


def recompute_mean_deficiency(kind, strategy, n, reps, seed0):
    """Mean deficiency of one curve point, looped through the public API.

    ``strategy`` is the CLI spelling (uniform, k=K, ksched=NAME); replication
    j draws its data from seed ``seed0 + j``.  This is the engine's contract
    written out one replication at a time.
    """
    from kmarkets import (
        Constant,
        PowerSimulated,
        expected_revenue,
        k_markets_erm,
        k_schedule,
        optimal_3pd_policy,
        optimal_uniform_price,
        sample,
        uniform_erm,
        welfare,
    )

    spec = PowerSimulated()
    uniform = strategy == "uniform"
    if kind == "revenue":
        bench = (
            optimal_uniform_price(spec)[1]
            if uniform
            else expected_revenue(spec, optimal_3pd_policy(spec))
        )
    else:
        best = Constant(optimal_uniform_price(spec)[0]) if uniform else optimal_3pd_policy(spec)
        bench = welfare(spec, best)
    defs = np.empty(reps)
    for j in range(reps):
        data = sample(spec, n, seed0 + j)
        if uniform:
            pf = Constant(uniform_erm(data.y))
        else:
            key, value = strategy.split("=")
            k = int(value) if key == "k" else k_schedule(n, value)
            pf, _ = k_markets_erm(data, k)
        if kind == "revenue":
            defs[j] = bench - expected_revenue(spec, pf)
        else:
            defs[j] = abs(welfare(spec, pf) - bench)
    return float(defs.mean())


def _check_repeats(outputs):
    """Indices of iterations whose output differs from the first one's."""
    return [i for i, out in enumerate(outputs) if out != outputs[0]]


class McCrossing:
    """Library ``crossing_scan``, serial, revenue kind, shared seeds."""

    name = "mc_crossing"
    uses_cli = False
    work_name = "reps_per_s"
    serial_replay = False

    def params(self, seed, tiny=False):
        rng = np.random.default_rng([seed, 1])
        ns = [2**e for e in (range(6, 10) if tiny else range(6, 16))]
        return {
            "ns": ns,
            "k": 4,
            "reps": 4 if tiny else 100,
            "base_seed": int(rng.integers(1 << 31)),
            "check_strategy": "uniform" if rng.random() < 0.5 else "k=4",
            "check_index": int(rng.integers(len(ns))),
        }

    def ops(self, p):
        return 2 * len(p["ns"])  # curve points

    def work(self, p):
        return 2 * len(p["ns"]) * p["reps"]  # replications

    def run(self, p, out_dir, inprocess):
        from kmarkets import PowerSimulated, crossing_scan

        return crossing_scan(PowerSimulated(), p["ns"], k=p["k"], reps=p["reps"], base_seed=p["base_seed"])

    def summarize(self, p, raw):
        return {
            "n_crossing": raw.n_crossing,
            "points": [
                [pt.strategy_tag, pt.n, pt.mean_deficiency, pt.mean_revenue]
                for pt in raw.uniform_curve + raw.kmarkets_curve
            ],
        }

    def corrupt(self, p, out):
        row = self._check_row(p, out)
        row[2] *= 1.0 + 1e-9

    def _check_row(self, p, out):
        n = p["ns"][p["check_index"]]
        return next(r for r in out["points"] if r[0] == p["check_strategy"] and r[1] == n)

    def check(self, p, outputs):
        """One failure per curve point that is not reproduced or recomputed."""
        i = p["check_index"]
        want = recompute_mean_deficiency(
            "revenue", p["check_strategy"], p["ns"][i], p["reps"], p["base_seed"] + i * SEED_STRIDE
        )
        failed = 0
        notes = []
        for it, out in enumerate(outputs):
            bad = {j for j, row in enumerate(out["points"]) if row != outputs[0]["points"][j]}
            row = self._check_row(p, out)
            if _relative_gap(row[2], want) > REL_TOL:
                bad.add(out["points"].index(row))
                notes.append(f"iteration {it}: {row[0]} n={row[1]} mean {row[2]!r} != recomputed {want!r}")
            if bad:
                notes.append(f"iteration {it}: {len(bad)} curve points wrong or differing from iteration 0")
            failed += len(bad)
        return failed, notes


class McSmallN:
    """Four ``kmarkets`` CLI runs on the power family at small n.

    The three large runs are serial: on a shared host with few cores the
    wall time of a pooled run measures the scheduler more than the program.
    A fourth, small run uses a 2-worker pool, so pool start-up (one pool per
    n) is timed without dominating the total.
    """

    name = "mc_small_n"
    uses_cli = True
    work_name = "reps_per_s"
    serial_replay = True  # pool workers are invisible to the tracer
    # (command, strategy, pooled)
    RUNS = (
        ("welfare", "uniform", False),
        ("welfare", "k=4", False),
        ("simulate", "ksched=theory", False),
        ("simulate", "k=4", True),
    )

    def params(self, seed, tiny=False):
        rng = np.random.default_rng([seed, 2])
        ns = [64, 128, 256] if tiny else [64, 128, 256, 512, 1024]
        return {
            "ns": ns,
            "reps": 4 if tiny else 300,
            "pool_reps": 4 if tiny else 16,
            "workers": 2,  # pool size of the pooled run; the serial replay sets 1
            "seeds": [int(s) for s in rng.integers(1 << 31, size=len(self.RUNS))],
            "check_run": int(rng.integers(len(self.RUNS))),
            "check_index": int(rng.integers(len(ns))),
        }

    def _reps(self, p, run):
        return p["pool_reps"] if self.RUNS[run][2] else p["reps"]

    def ops(self, p):
        return len(self.RUNS)  # CLI invocations

    def work(self, p):
        return len(p["ns"]) * sum(self._reps(p, r) for r in range(len(self.RUNS)))

    def run(self, p, out_dir, inprocess):
        results = []
        for i, (command, strategy, pooled) in enumerate(self.RUNS):
            path = Path(out_dir) / f"small_n_{i}.csv"
            argv = [
                command, "--family", "power", "--strategy", strategy,
                "--n", ",".join(map(str, p["ns"])), "--reps", str(self._reps(p, i)),
                "--seed", str(p["seeds"][i]), "--workers", str(p["workers"] if pooled else 1), "--out", str(path),
            ]
            code, _ = call_cli(argv, inprocess)
            results.append([code, path.read_text() if code == 0 else None])
        return results

    def summarize(self, p, raw):
        return raw

    def corrupt(self, p, out):
        run = out[p["check_run"]]
        lines = run[1].splitlines()
        cells = lines[1 + p["check_index"]].split(",")
        cells[2] = format(float(cells[2]) * (1.0 + 1e-9), ".17g")
        lines[1 + p["check_index"]] = ",".join(cells)
        run[1] = "\n".join(lines) + "\n"

    def check(self, p, outputs):
        """One failure per CLI run that exits non-zero, differs or miscomputes."""
        r, i = p["check_run"], p["check_index"]
        command, strategy, _ = self.RUNS[r]
        kind = "welfare" if command == "welfare" else "revenue"
        want = recompute_mean_deficiency(
            kind, strategy, p["ns"][i], self._reps(p, r), p["seeds"][r] + i * SEED_STRIDE
        )
        failed = 0
        notes = []
        for it, out in enumerate(outputs):
            bad = {j for j, (code, csv) in enumerate(out) if code != 0 or [code, csv] != outputs[0][j]}
            if r not in bad:
                row = out[r][1].splitlines()[1 + i].split(",")
                if int(row[0]) != p["ns"][i] or _relative_gap(float(row[2]), want) > REL_TOL:
                    bad.add(r)
                    notes.append(f"iteration {it}: {command} {strategy} n={row[0]} mean {row[2]} != recomputed {want!r}")
            notes += [f"iteration {it}: run {j} failed or differs from iteration 0" for j in sorted(bad)]
            failed += len(bad)
        return failed, notes


CODEBOOK_SIZES = {8: 256, 16: 32768, 24: 524288}


def codebook_violations(words, m):
    """Pairs of codewords closer than ceil(m/8), counted exactly.

    Marks every codeword on a 2^m bitmap and looks up each word XOR every
    mask of weight 1..d-1; duplicated words count too.
    """
    d = -(-m // 8)
    ints = np.asarray(words, dtype=np.int64) @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))
    member = np.zeros(1 << m, dtype=bool)
    member[ints] = True
    violations = ints.size - int(np.count_nonzero(member))
    for r in range(1, d):
        for combo in combinations(range(m), r):
            violations += int(np.count_nonzero(member[ints ^ sum(1 << b for b in combo)]))
    return violations


def _slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


class LowerBound:
    """Acceptance numerics of the lower bound, no Monte Carlo."""

    name = "lower_bound"
    uses_cli = False
    work_name = "checks_per_s"
    serial_replay = False

    def params(self, seed, tiny=False):
        rng = np.random.default_rng([seed, 3])

        def bump(m):  # m/8 perturbed bins at seeded positions
            bits = np.zeros(m, dtype=int)
            bits[rng.choice(m, size=max(1, m // 8), replace=False)] = 1
            return bits.tolist()

        kl_m = [8, 16] if tiny else [8, 16, 32, 64]
        alpha = rng.integers(2, size=16)
        flip = np.zeros(16, dtype=int)
        flip[rng.choice(16, size=int(rng.integers(1, 17)), replace=False)] = 1  # patterns must differ
        return {
            "quad": {"y_panels": 512, "x_panels": 256} if tiny else {"y_panels": 4096, "x_panels": 1024},
            "mpr_a": _stratified(rng, 0.5, 1.5, 2),
            "mpr_delta": _stratified(rng, 0.01, 0.1, 2),
            "cond_delta": _stratified(rng, 0.02, 0.2, 2 if tiny else 4),
            "kl": [[m, bump(m)] for m in kl_m],
            "gv_m": [8, 16] if tiny else [8, 16, 24],
            "lemma_b": [-b for b in _stratified(rng, 0.5, 1.5, 2)] + _stratified(rng, 0.5, 1.5, 2),
            "lemma_delta": _stratified(rng, 0.005, 0.02, 3),
            "separation": [alpha.tolist(), (alpha ^ flip).tolist()],
        }

    def ops(self, p):
        return (
            len(p["mpr_a"]) * len(p["mpr_delta"])  # one Hellinger bound per (a, delta)
            + 2  # conditional Hellinger and packing KL scaling slopes
            + len(p["gv_m"])  # one codebook per m
            + len(p["lemma_b"]) * len(p["lemma_delta"])  # localization + concavity per (b, delta)
            + 1  # price separation
        )

    def work(self, p):
        return self.ops(p)

    def run(self, p, out_dir, inprocess):
        from kmarkets import (
            Packing,
            PerturbedConditional,
            QuadratureConfig,
            UniformJoint,
            concavity_margin,
            gilbert_varshamov,
            hellinger_sq,
            kl_divergence,
            lemma_c3_check,
            marginal_perturbation_report,
            packing_price_separation,
        )

        cfg = QuadratureConfig(**p["quad"])
        return {
            "reports": [marginal_perturbation_report(a, d, cfg) for a in p["mpr_a"] for d in p["mpr_delta"]],
            "cond": [
                hellinger_sq(PerturbedConditional(a=1.0, delta=d, x0=0.5), UniformJoint(), cfg)
                for d in p["cond_delta"]
            ],
            "kl": [
                kl_divergence(Packing(m=m, a=1.0, alpha=tuple(bits)), Packing(m=m, a=1.0, alpha=(0,) * m), cfg)
                for m, bits in p["kl"]
            ],
            "books": [gilbert_varshamov(m) for m in p["gv_m"]],
            "lemma": [
                [lemma_c3_check(b, d, cfg).inside, concavity_margin(b, d)]
                for b in p["lemma_b"]
                for d in p["lemma_delta"]
            ],
            "separation": packing_price_separation(16, 1.0, *p["separation"], cfg=cfg),
        }

    def summarize(self, p, raw):
        return {
            "reports": [[r.hellinger_sq, r.kl, r.analytic_bound] for r in raw["reports"]],
            "cond": raw["cond"],
            "kl": raw["kl"],
            "books": [[b.m, int(b.words.shape[0]), codebook_violations(b.words, b.m)] for b in raw["books"]],
            "lemma": raw["lemma"],
            "separation": raw["separation"],
        }

    def corrupt(self, p, out):
        out["books"][-1][2] += 1

    def check(self, p, outputs):
        """One failure per acceptance condition that does not hold."""
        from kmarkets.families import C_STAR

        failed = 0
        notes = []
        for it, out in enumerate(outputs):
            bad = [
                f"hellinger bound (a,delta) #{i}"
                for i, (hsq, kl, bound) in enumerate(out["reports"])
                if not (0.0 <= hsq <= bound * (1.0 + 1e-3) and math.isfinite(kl) and kl >= 0.0)
            ]
            if not abs(_slope(p["cond_delta"], out["cond"]) - 4.0) <= 0.1:
                bad.append("conditional hellinger slope")
            if not abs(_slope([m for m, _ in p["kl"]], out["kl"]) + 3.0) <= 0.15:
                bad.append("packing kl slope")
            bad += [
                f"codebook m={m}"
                for m, words, violations in out["books"]
                if words != CODEBOOK_SIZES[m] or violations != 0
            ]
            bad += [
                f"lemma (b,delta) #{i}"
                for i, (inside, margin) in enumerate(out["lemma"])
                if not (inside and margin <= -C_STAR + 1e-3)
            ]
            if not (math.isfinite(out["separation"]) and out["separation"] > 0.0):
                bad.append("price separation")
            failed += len(bad)
            notes += [f"iteration {it}: {b}" for b in bad]
        return failed, notes


def write_auction_csv(path, seed, rows):
    """Seeded auction export with repeat bidders, tied bids and negative ratings."""
    rng = np.random.default_rng([seed, 4])
    bidders = max(1, rows // 4)  # about four bids per bidder
    bidder = rng.integers(bidders, size=rows)
    auction = rng.integers(max(1, rows // 10), size=rows)
    rating = rng.integers(-20, 2000, size=bidders)  # eBay-style, can go negative
    bid = np.round(rng.gamma(2.0, 40.0, size=rows))  # whole dollars: many ties
    with open(path, "w") as fh:
        fh.write("auction_id,bid,bidder_id,bidder_rating\n")
        fh.writelines(
            f"a{a},{b:.2f},u{u},{rating[u]}\n" for a, b, u in zip(auction.tolist(), bid.tolist(), bidder.tolist())
        )


def brute_force_price(y):
    """Lowest maximizer of p * #{y >= p} / n over the sample's own values."""
    y = np.asarray(y, dtype=float)
    cand = np.unique(y)
    counts = np.concatenate(
        [(y[None, :] >= c[:, None]).sum(axis=1) for c in np.array_split(cand, max(1, cand.size // 256))]
    )
    return float(cand[np.argmax(cand * counts / y.size)])


def parse_price_output(text):
    """(rows_read, bidders_kept, k_effective, [(n, price)]) from `kmarkets price`."""
    def field(name):
        return int(re.search(rf"\b{name}=(\d+)", text)[1])

    markets = [(int(n), float(p)) for n, p in re.findall(r"^market \d+: .* n=(\d+) price=(\S+)$", text, re.M)]
    return field("rows_read"), field("bidders_kept"), field("k_effective"), markets


class PriceIngest:
    """``kmarkets price --k 4`` on a seeded 200k-row auction CSV."""

    name = "price_ingest"
    uses_cli = True
    work_name = "rows_per_s"
    serial_replay = False

    def params(self, seed, tiny=False):
        return {"seed": seed, "rows": 2000 if tiny else 200_000, "k": 4}

    def prepare(self, p, out_dir):
        path = Path(out_dir) / f"auctions_{p['rows']}.csv"  # rewritten by every run
        write_auction_csv(path, p["seed"], p["rows"])
        p["input"] = str(path)

    def ops(self, p):
        return 1  # CLI invocation

    def work(self, p):
        return p["rows"]

    def run(self, p, out_dir, inprocess):
        return list(call_cli(["price", "--input", p["input"], "--k", str(p["k"])], inprocess))

    def summarize(self, p, raw):
        return raw

    def corrupt(self, p, out):
        lines = out[1].splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("market"))
        head, price = lines[i].split("price=")
        lines[i] = f"{head}price={float(price) * (1.0 + 1e-9):.17g}"
        out[1] = "\n".join(lines) + "\n"

    def check(self, p, outputs):
        """One failure per invocation that exits non-zero or prints wrong prices."""
        from kmarkets import Constant, ingest, k_markets_erm

        data, report = ingest(p["input"])
        pf, part = k_markets_erm(data, p["k"])
        prices = [pf.p] if isinstance(pf, Constant) else list(pf.prices)
        want = (report.rows_read, report.bidders_kept, part.k_effective, [(m.size, q) for m, q in zip(part.markets, prices)])
        brute = [brute_force_price(data.y[m]) for m in part.markets]
        failed = 0
        notes = []
        if brute != prices:
            notes.append(f"k_markets_erm prices {prices} are not the brute-force maximizers {brute}")
        for it, (code, text) in enumerate(outputs):
            got = parse_price_output(text) if code == 0 else None
            if got != want or brute != prices:
                failed += 1
                notes.append(f"iteration {it}: exit {code}, printed {got} != in-process {want}")
        return failed, notes


WORKLOADS = {w.name: w for w in (McCrossing(), McSmallN(), LowerBound(), PriceIngest())}

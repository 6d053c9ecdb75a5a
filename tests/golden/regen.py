"""Golden outputs: one line per seeded output of each layer and of the CLI, pinned bit for bit.

``lines()`` computes every output and renders it as one ``name = value``
line: a float as ``.17g``, a sequence of floats as a list of them, an array
as the SHA-256 of its C-ordered bytes with its shape and dtype, and text
(CLI stdout, CSV files) as a JSON string.  ``tests/test_golden.py``
recomputes every line and compares it with ``outputs.txt``.  The file's
``#`` header records the Python, numpy, machine and numpy CPU features it
was made with, for diagnosing a mismatch; it is not compared.

Rewrite the file, from the root of a checkout, with

    PYTHONPATH=src python tests/golden/regen.py

The file is test data.  A change that moves a line names the line and the
reason; regenerating it to make the test pass defeats it.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from kmarkets import (
    Dataset,
    Packing,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    UniformJoint,
    concavity_margin,
    expected_revenue,
    gilbert_varshamov,
    hellinger_sq,
    k_markets_erm,
    kl_divergence,
    lemma_c3_check,
    marginal_perturbation_report,
    optimal_3pd_policy,
    optimal_uniform_price,
    packing_price_separation,
    uniform_erm,
    validate_density,
    welfare,
)
from kmarkets.cli import main as cli_main
from kmarkets.families import sample_rows

OUTPUTS = Path(__file__).resolve().parent / "outputs.txt"

PACKING_ALPHA = (1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0)
FAMILIES = {
    "uniform": UniformJoint(),
    "power": PowerSimulated(),
    "perturbed": PerturbedUniform(a=1.2, delta=0.05),
    "conditional": PerturbedConditional(a=1.0, delta=0.1, x0=0.4),
    "packing": Packing(m=16, a=1.0, alpha=PACKING_ALPHA),
}
# Seeds of the form base_seed + i*2^32 + j, the last with a base above 2^64.
SEEDS = (4242, 4242 + 2 * 2**32 + 3, 2**64 + 17 + 5 * 2**32 + 1)
SAMPLE_SIZE = 64


def fmt(value) -> str:
    """One output rendered exactly, on one line."""
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"sha256:{digest} shape={value.shape} dtype={value.dtype}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(fmt(v) for v in value) + "]"
    raise TypeError(f"no golden rendering for {type(value).__name__}")


def _layers():
    """Sampling, ERM, the oracles and the density checks of every library family."""
    for fam, spec in FAMILIES.items():
        x, y = sample_rows(spec, SAMPLE_SIZE, SEEDS)
        fits = []
        for i, (x_row, y_row) in enumerate(zip(x, y)):
            yield f"sample_rows.{fam}.seed{i}.x", x_row
            yield f"sample_rows.{fam}.seed{i}.y", y_row
            yield f"uniform_erm.{fam}.seed{i}", uniform_erm(y_row)
            pf, partition = k_markets_erm(Dataset(y=y_row, x=x_row), 4)
            yield f"k_markets_erm.{fam}.seed{i}", [partition.k_effective, list(pf.prices)]
            fits.append(pf)
        yield f"optimal_uniform_price.{fam}", list(optimal_uniform_price(spec))
        policy = optimal_3pd_policy(spec)
        yield f"optimal_3pd_policy.{fam}", policy.prices
        yield f"expected_revenue.{fam}.3pd", expected_revenue(spec, policy)
        yield f"expected_revenue.{fam}.k4", expected_revenue(spec, fits[0])
        yield f"welfare.{fam}.k4", welfare(spec, fits[0])
        for grid in (101, 1025):
            report = validate_density(spec, grid)
            yield f"validate_density.{fam}.grid{grid}", [report.max_norm_error, report.min_density]


def _lower_bound():
    """The divergence, localization and codebook checks behind the lower bounds."""
    for a, delta in ((0.8, 0.03), (1.3, 0.08)):
        r = marginal_perturbation_report(a, delta)
        yield f"marginal_perturbation_report.a{a}.delta{delta}", [
            r.hellinger_sq, r.kl, r.analytic_bound, r.bound_satisfied
        ]
    for delta in (0.05, 0.15):
        value = hellinger_sq(PerturbedConditional(a=1.0, delta=delta, x0=0.5), UniformJoint())
        yield f"hellinger_sq.conditional.delta{delta}", value
    for m in (8, 16, 32, 64):
        bits = tuple(int(j % 8 == 3) for j in range(m))
        value = kl_divergence(Packing(m=m, a=1.0, alpha=bits), Packing(m=m, a=1.0, alpha=(0,) * m))
        yield f"kl_divergence.packing.m{m}", value
    flipped = tuple(b ^ (j % 3 == 0) for j, b in enumerate(PACKING_ALPHA))
    yield "packing_price_separation.m16", packing_price_separation(16, 1.0, PACKING_ALPHA, flipped)
    for b in (-1.0, 0.0, 1.2):
        r = lemma_c3_check(b, 0.01)
        yield f"lemma_c3_check.b{b}", [r.p_star, list(r.interval), r.inside]
        yield f"concavity_margin.b{b}", concavity_margin(b, 0.01)
    for m in (8, 16, 24):
        yield f"gilbert_varshamov.m{m}", gilbert_varshamov(m).words


def _auction_csv(path: Path) -> None:
    rng = np.random.default_rng(20)
    with open(path, "w") as fh:
        fh.write("auction_id,bid,bidder_id,bidder_rating\n")
        for row in range(400):
            bid, bidder, rating = rng.uniform(1.0, 90.0), rng.integers(150), rng.integers(0, 500)
            fh.write(f"a{row // 4},{bid:.2f},b{bidder},{rating}\n")


# One small run of every CLI subcommand: (name, argv, --out file or None).
CLI_RUNS = (
    ("price", ["price", "--input", "bids.csv", "--k", "4"], None),
    ("simulate", ["simulate", "--family", "power", "--n", "64,128,256", "--reps", "4", "--seed", "11",
                  "--strategy", "k=2", "--out", "simulate.csv"], "simulate.csv"),
    ("welfare", ["welfare", "--family", "perturbed", "--a", "1.0", "--delta", "0.05", "--n", "64,128",
                 "--reps", "4", "--seed", "12", "--strategy", "uniform"], None),
    ("pointwise", ["pointwise", "--family", "power", "--n", "64,128", "--reps", "4", "--seed", "13",
                   "--k", "4", "--at", "0.3"], None),
    ("rates", ["rates", "--curve", "simulate.csv"], None),
    ("crossing", ["crossing", "--family", "packing", "--m", "8", "--a", "1.0", "--alpha", "10010110",
                  "--n", "64,256", "--k", "4", "--reps", "4", "--seed", "14", "--out", "crossing.csv"],
     "crossing.csv"),
    ("adversarial.gv", ["adversarial", "gv", "--m", "16"], None),
    ("adversarial.hellinger", ["adversarial", "hellinger", "--a", "1.0", "--delta", "0.05"], None),
    ("adversarial.kl", ["adversarial", "kl", "--m", "16", "--a", "1.0"], None),
    ("adversarial.separation", ["adversarial", "separation", "--m", "16", "--a", "1.0"], None),
    ("adversarial.lemma-c3", ["adversarial", "lemma-c3", "--b", "1.0", "--delta", "0.01"], None),
    ("adversarial.validate.power", ["adversarial", "validate", "--family", "power", "--grid", "2001"], None),
    ("adversarial.validate.conditional", ["adversarial", "validate", "--family", "perturbed", "--a", "1.0",
                                          "--delta", "0.1", "--x0", "0.4", "--grid", "1025"], None),
)


def _cli():
    """stdout, exit code and --out file of each CLI run, in a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _auction_csv(tmp / "bids.csv")
        for name, argv, out in CLI_RUNS:
            argv = [str(tmp / a) if a.endswith(".csv") else a for a in argv]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
            yield f"cli.{name}.exit", code
            yield f"cli.{name}.stdout", buf.getvalue().replace(str(tmp), "<dir>")
            if out:
                yield f"cli.{name}.out", (tmp / out).read_text()


def lines() -> list[tuple[str, str]]:
    """Every golden output as (name, rendered value), in file order."""
    out = [(name, fmt(value)) for part in (_layers, _lower_bound, _cli) for name, value in part()]
    if len({name for name, _ in out}) != len(out):
        raise ValueError("golden output names repeat")
    return out


def read() -> dict[str, str]:
    """The name = value lines of the golden file, header and blank lines skipped."""
    out = {}
    for line in OUTPUTS.read_text().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.partition(" = ")
            out[name] = value
    return out


def header() -> list[str]:
    """Where the file was made: Python, numpy, the machine and numpy's CPU features."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        np.show_runtime()
    simd = re.search(r"'simd_extensions': (\{.*?\})", buf.getvalue(), re.S)
    simd = ast.literal_eval(simd.group(1)) if simd else "unknown"
    return [
        f"# python {platform.python_version()}, numpy {np.__version__}, {platform.system()} {platform.machine()}",
        f"# numpy simd_extensions: {simd}",
    ]


def main() -> int:
    rendered = lines()
    OUTPUTS.write_text("\n".join([*header(), *(f"{n} = {v}" for n, v in rendered)]) + "\n")
    print(f"wrote {len(rendered)} lines to {OUTPUTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

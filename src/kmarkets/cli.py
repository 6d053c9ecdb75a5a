"""Command-line front end.

Subcommands: price, simulate, pointwise, welfare, rates, crossing, and a
family of adversarial checks.  Exit codes: 0 success, 1 usage error, 2
data or parameter error.  Every randomized command requires --seed.  All
emitted CSV numbers are rendered with 17 significant digits so parsing
them back is lossless.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields

from .adversarial import (
    concavity_margin,
    gilbert_varshamov,
    kl_divergence,
    lemma_c3_check,
    marginal_perturbation_report,
    packing_price_separation,
)
from .experiment import (
    _KINDS,
    DeficiencyPoint,
    Strategy,
    _check_n_list,
    _curve,
    _pointwise_kind,
    crossing_scan,
    fit_rate,
    kmarkets_strategy,
    uniform_strategy,
)
from .families import (
    Packing,
    ParameterDomainError,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    UniformJoint,
    validate_density,
)
from .ingest import _csv_reader, IngestError, ingest
from .oracle import QuadratureConfig
from .pricing import k_markets_erm

CURVE_COLUMNS = ("n", "strategy", "mean_deficiency", "std_error", "reps", "mean_revenue")


def _g17(value: float) -> str:
    return format(float(value), ".17g")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; this tool reserves 2
    # for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def write_curve(points, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CURVE_COLUMNS)
    for p in points:
        writer.writerow(
            [p.n, p.strategy_tag, _g17(p.mean_deficiency), _g17(p.std_error), p.reps, _g17(p.mean_revenue)]
        )


def read_curve(path) -> list[DeficiencyPoint]:
    """Parse a deficiency-curve CSV back into points."""
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise IngestError("empty curve file")
        header = [h.strip() for h in header]
        if tuple(header) != CURVE_COLUMNS:
            raise IngestError(f"unexpected curve header: {header}")
        points = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                n, tag, mean, se, reps, revenue = row  # a short or a long row fails here too
                point = DeficiencyPoint(int(n), tag, float(mean), float(se), int(reps), float(revenue))
            except ValueError:
                raise IngestError(f"line {line_no}: malformed curve row of {len(row)} cells") from None
            if point.n < 1 or point.reps < 1:
                raise IngestError(f"line {line_no}: n and reps must be >= 1")
            if not all(map(math.isfinite, (point.mean_deficiency, point.std_error, point.mean_revenue))):
                raise IngestError(f"line {line_no}: non-finite number")
            points.append(point)
    if not points:
        raise IngestError("curve file has no data rows")
    return points


def _parse_strategy(text: str) -> Strategy:
    if text == "uniform":
        return uniform_strategy()
    if text.startswith("k="):
        try:
            return kmarkets_strategy(k=int(text[2:]))
        except ValueError:
            raise ParameterDomainError(f"bad market count in strategy {text!r}") from None
    if text.startswith("ksched="):
        return kmarkets_strategy(schedule=text[len("ksched="):])
    raise ParameterDomainError(f"unknown strategy {text!r}")


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterDomainError(f"bad sample-size list {text!r}") from None
    return _check_n_list(ns)


def _parse_bits(text: str, m: int) -> tuple[int, ...]:
    bits = tuple(int(ch) for ch in text.strip() if ch in "01")
    if len(bits) != len(text.strip()) or len(bits) != m:
        raise ParameterDomainError(f"alpha must be a bit string of length {m}")
    return bits


def _alpha_pair(args) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """--alpha and --alpha2, defaulting to all zeros and every eighth bin set."""
    alpha = _parse_bits(args.alpha, args.m) if args.alpha else (0,) * args.m
    if args.alpha2:
        return alpha, _parse_bits(args.alpha2, args.m)
    return alpha, tuple(1 if i % 8 == 0 else 0 for i in range(args.m))


def _add_alpha_pair_args(p) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--alpha")
    p.add_argument("--alpha2")


# --family name -> class, whose dataclass fields name the family flags it takes
# (perturbed with --x0 is PerturbedConditional); each field needs a flag in _add_family_args.
_FAMILIES = {"uniform": UniformJoint, "power": PowerSimulated, "perturbed": PerturbedUniform, "packing": Packing}


def _add_family_args(p) -> None:
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--a", type=float, help="perturbation amplitude")
    p.add_argument("--delta", type=float, help="perturbation scale")
    p.add_argument("--x0", type=float, help="center of the covariate window (conditional perturbation)")
    p.add_argument("--m", type=int, help="number of covariate bins (packing)")
    p.add_argument("--alpha", help="bit string selecting perturbed bins (packing)")


def _add_run_args(p) -> None:
    """Family, sample sizes, replications, seed, output and pool flags."""
    _add_family_args(p)
    p.add_argument("--n", required=True, help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--workers", type=int, default=1)


def _build_family(args):
    """The --family class, built from exactly the family flags named by its fields."""
    names = {f.name for family in (*_FAMILIES.values(), PerturbedConditional) for f in fields(family)}
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    cls = _FAMILIES[args.family]
    if cls is PerturbedUniform and "x0" in given:
        cls = PerturbedConditional
    takes = [f.name for f in fields(cls)]
    if set(given) != set(takes):
        flags = ", ".join(f"--{name}" for name in takes) or "no family flags"
        raise ParameterDomainError(f"--family {args.family} ({cls.__name__}) takes {flags}")
    if "alpha" in given:
        given["alpha"] = _parse_bits(given["alpha"], given["m"])
    return cls(**given)


def _add_quad_args(p, axes: str) -> None:
    """--quad-y/--quad-x for the axes whose Simpson rule the command runs; dest is the config field."""
    for axis in axes:
        p.add_argument(f"--quad-{axis}", dest=f"{axis}_panels", type=int, default=argparse.SUPPRESS,
                       help=f"Simpson panels in {axis}")


def _quad_config(args) -> QuadratureConfig:
    """The quadrature flags given, and the QuadratureConfig defaults for the rest."""
    given = {f.name: getattr(args, f.name) for f in fields(QuadratureConfig) if hasattr(args, f.name)}
    return QuadratureConfig(**given)


def _cmd_price(args) -> int:
    data, report = ingest(args.input, has_header=not args.no_header)
    pf, partition = k_markets_erm(data, args.k)
    print(f"rows_read={report.rows_read} bidders_kept={report.bidders_kept}")
    print(f"bid_range=[{_g17(report.y_min)}, {_g17(report.y_max)}]")
    print(f"rating_range=[{_g17(report.x_min)}, {_g17(report.x_max)}]")
    print(f"k_requested={partition.k_requested} k_effective={partition.k_effective}")
    k = pf.k
    for i, price in enumerate(pf.prices):
        lo, hi = i / k, (i + 1) / k
        closer = "]" if i == k - 1 else ")"
        n_i = partition.markets[i].size
        print(f"market {i + 1}: x [{_g17(lo)}, {_g17(hi)}{closer} n={n_i} price={_g17(price)}")
    return 0


def _cmd_curve(args) -> int:
    """simulate, welfare and pointwise: one curve of the subcommand's arm (strategy, kind)."""
    spec = _build_family(args)
    strategy, kind = args.arm(args)
    ns = _parse_n_list(args.n)
    points = _curve(spec, strategy, ns, args.reps, args.seed, _quad_config(args), kind, args.workers)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_curve(points, fh)
        print(f"wrote {len(points)} rows to {args.out}")
    else:
        write_curve(points, sys.stdout)
    return 0


def _cmd_rates(args) -> int:
    points = read_curve(args.curve)
    tags = sorted({p.strategy_tag for p in points})
    if args.strategy is not None:
        points = [p for p in points if p.strategy_tag == args.strategy]
        if not points:
            raise IngestError(f"no rows with strategy {args.strategy!r} (have: {', '.join(tags)})")
    elif len(tags) > 1:
        raise IngestError(f"curve mixes strategies {', '.join(tags)}; pick one with --strategy")
    fit = fit_rate(points)
    print(f"points={len(points)} strategy={points[0].strategy_tag}")
    print(f"slope={_g17(fit.slope)}")
    print(f"intercept={_g17(fit.intercept)}")
    print(f"r_squared={_g17(fit.r_squared)}")
    return 0


def _cmd_crossing(args) -> int:
    spec = _build_family(args)
    result = crossing_scan(
        spec, _parse_n_list(args.n), args.k, args.reps, args.seed, _quad_config(args), args.workers
    )
    if result.n_crossing is None:
        print("crossing=none")
    else:
        print(f"crossing={result.n_crossing}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_curve(list(result.uniform_curve) + list(result.kmarkets_curve), fh)
        print(f"wrote curves to {args.out}")
    return 0


def _cmd_adv_gv(args) -> int:
    book = gilbert_varshamov(args.m)
    d = -(-args.m // 8)
    print(f"m={args.m} words={book.words.shape[0]} min_distance>={d}")
    return 0


def _cmd_adv_hellinger(args) -> int:
    report = marginal_perturbation_report(args.a, args.delta, _quad_config(args))
    print(f"hellinger_sq={_g17(report.hellinger_sq)}")
    print(f"kl={_g17(report.kl)}")
    print(f"analytic_bound={_g17(report.analytic_bound)}")
    print(f"bound_satisfied={str(report.bound_satisfied).lower()}")
    return 0


def _cmd_adv_kl(args) -> int:
    alpha, alpha2 = _alpha_pair(args)
    value = kl_divergence(
        Packing(m=args.m, a=args.a, alpha=alpha),
        Packing(m=args.m, a=args.a, alpha=alpha2),
        _quad_config(args),
    )
    print(f"kl={_g17(value)}")
    return 0


def _cmd_adv_separation(args) -> int:
    alpha, alpha2 = _alpha_pair(args)
    value = packing_price_separation(args.m, args.a, alpha, alpha2, args.grid)
    print(f"separation={_g17(value)}")
    return 0


def _cmd_adv_lemma_c3(args) -> int:
    result = lemma_c3_check(args.b, args.delta)
    print(f"p_star={_g17(result.p_star)}")
    print(f"interval=({_g17(result.interval[0])}, {_g17(result.interval[1])})")
    print(f"inside={str(result.inside).lower()}")
    print(f"max_second_derivative={_g17(concavity_margin(args.b, args.delta))}")
    return 0


def _cmd_adv_validate(args) -> int:
    spec = _build_family(args)
    report = validate_density(spec, args.grid)
    print(f"max_norm_error={_g17(report.max_norm_error)}")
    print(f"min_density={_g17(report.min_density)}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="kmarkets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("price", help="K-markets prices from an auction CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--no-header", action="store_true")
    p.set_defaults(func=_cmd_price)

    for name, kind in (("simulate", _KINDS["revenue"]), ("welfare", _KINDS["welfare"])):
        p = sub.add_parser(name, help=f"{name} deficiency curve")
        _add_run_args(p)
        _add_quad_args(p, "x")
        p.add_argument("--strategy", required=True)
        p.set_defaults(func=_cmd_curve, arm=lambda a, kind=kind: (_parse_strategy(a.strategy), kind))

    p = sub.add_parser("pointwise", help="pointwise deficiency curve")
    _add_run_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--at", type=float, required=True, help="covariate value to evaluate at")
    p.set_defaults(func=_cmd_curve, arm=lambda a: (kmarkets_strategy(k=a.k), _pointwise_kind(a.at)))

    p = sub.add_parser("rates", help="fit a rate to a saved curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--strategy")
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("crossing", help="where K-markets catches uniform pricing")
    _add_run_args(p)
    _add_quad_args(p, "x")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_crossing)

    adv = sub.add_parser("adversarial", help="lower-bound construction checks")
    advsub = adv.add_subparsers(dest="check", required=True, parser_class=_Parser)

    p = advsub.add_parser("gv", help="greedy codebook")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_adv_gv)

    p = advsub.add_parser("hellinger", help="marginal perturbation divergences")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_quad_args(p, "y")
    p.set_defaults(func=_cmd_adv_hellinger)

    p = advsub.add_parser("kl", help="KL between two packing laws")
    _add_alpha_pair_args(p)
    _add_quad_args(p, "yx")
    p.set_defaults(func=_cmd_adv_kl)

    p = advsub.add_parser("separation", help="optimal-policy L2 gap between packings")
    _add_alpha_pair_args(p)
    p.add_argument("--grid", type=int, default=1025)
    p.set_defaults(func=_cmd_adv_separation)

    p = advsub.add_parser("lemma-c3", help="optimal-price interval of the perturbed marginal")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=_cmd_adv_lemma_c3)

    p = advsub.add_parser("validate", help="density normalization report")
    _add_family_args(p)
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=_cmd_adv_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (IngestError, ParameterDomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

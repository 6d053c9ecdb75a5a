"""The CLI's flag surface: each command takes exactly the flags it reads."""

import argparse
from dataclasses import fields

import pytest

from kmarkets import (
    Packing,
    PerturbedConditional,
    QuadratureConfig,
    deficiency_curve,
    kl_divergence,
    kmarkets_strategy,
    packing_price_separation,
    uniform_strategy,
)
from kmarkets.cli import _FAMILIES, _build_parser, main, read_curve

FAMILY = {"--family", "--a", "--delta", "--x0", "--m", "--alpha"}
RUN = FAMILY | {"--n", "--reps", "--seed", "--out", "--workers"}
ALPHA_PAIR = {"--m", "--a", "--alpha", "--alpha2"}

# command -> the flags it registers (besides --help)
SURFACE = {
    "price": {"--input", "--k", "--no-header"},
    "simulate": RUN | {"--strategy", "--quad-x"},
    "welfare": RUN | {"--strategy", "--quad-x"},
    "pointwise": RUN | {"--k", "--at"},
    "rates": {"--curve", "--strategy"},
    "crossing": RUN | {"--k", "--quad-x"},
    "adversarial gv": {"--m"},
    "adversarial hellinger": {"--a", "--delta", "--quad-y"},
    "adversarial kl": ALPHA_PAIR | {"--quad-y", "--quad-x"},
    "adversarial separation": ALPHA_PAIR | {"--grid"},
    "adversarial lemma-c3": {"--b", "--delta"},
    "adversarial validate": FAMILY | {"--grid"},
}

# A small valid run of each command that has or could have a quadrature rule.
RUN_ARGS = ["--family", "power", "--n", "16,32,64", "--reps", "3", "--seed", "1"]
ARGV = {
    "simulate": ["--strategy", "k=2", *RUN_ARGS],
    "welfare": ["--strategy", "uniform", *RUN_ARGS],
    "pointwise": ["--k", "2", "--at", "0.5", *RUN_ARGS],
    "crossing": ["--k", "2", *RUN_ARGS],
    "adversarial hellinger": ["--a", "1.0", "--delta", "0.05"],
    "adversarial kl": ["--m", "8", "--a", "1.0"],
    "adversarial separation": ["--m", "8", "--a", "1.0", "--grid", "65"],
    "adversarial lemma-c3": ["--b", "1.0", "--delta", "0.1"],
}
QUAD_FLAGS = ("--quad-x", "--quad-y")
# Panel counts each flag is run at, 16 and 32 unless listed: kl of a packing
# of m = 8 bins exits 2 at 16 x panels, which divide 2m.
PANELS = {("adversarial kl", "--quad-x"): ("32", "64")}


def _leaf_parsers(parser, prefix=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, prefix + (name,))


def _run(command, extra, tmp_path, capsys):
    """Exit code, and stdout plus any --out file, of one command."""
    argv = command.split() + ARGV[command] + extra
    out = tmp_path / "out.csv"
    if "--out" in SURFACE[command]:
        argv += ["--out", str(out)]
    code = main(argv)
    text = capsys.readouterr().out.replace(str(out), "OUT")
    return code, text + (out.read_text() if out.exists() else "")


def test_every_command_registers_exactly_its_table_flags():
    surface = {
        name: {opt for a in p._actions for opt in a.option_strings if opt not in ("-h", "--help")}
        for name, p in _leaf_parsers(_build_parser())
    }
    assert surface == SURFACE
    assert sum(map(len, surface.values())) == 81


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in ARGV for f in QUAD_FLAGS if f in SURFACE[c]],
)
def test_each_quadrature_flag_changes_the_output(tmp_path, capsys, command, flag):
    coarse, fine = PANELS.get((command, flag), ("16", "32"))
    code_coarse, out_coarse = _run(command, [flag, coarse], tmp_path, capsys)
    code_fine, out_fine = _run(command, [flag, fine], tmp_path, capsys)
    assert code_coarse == code_fine == 0
    assert out_coarse != out_fine


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in ARGV for f in QUAD_FLAGS if f not in SURFACE[c]],
)
def test_a_quadrature_flag_where_no_rule_runs_is_a_usage_error(tmp_path, capsys, command, flag):
    assert main(command.split() + ARGV[command] + [flag, "16"]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_every_family_field_is_a_family_flag():
    names = {f.name for cls in (*_FAMILIES.values(), PerturbedConditional) for f in fields(cls)}
    assert {f"--{name}" for name in names} | {"--family"} == FAMILY


@pytest.mark.parametrize(
    "family, message",
    [
        (["--family", "power", "--a", "1.5", "--delta", "0.1", "--m", "8"],
         "power (PowerSimulated) takes no family flags"),
        (["--family", "uniform", "--alpha", "1"], "uniform (UniformJoint) takes no family flags"),
        (["--family", "perturbed", "--a", "1.0", "--delta", "0.1", "--m", "8"], "takes --a, --delta"),
        (["--family", "perturbed", "--a", "1.0"], "(PerturbedUniform) takes --a, --delta"),
        (["--family", "perturbed", "--delta", "0.1", "--x0", "0.5"],
         "(PerturbedConditional) takes --a, --delta, --x0"),
        (["--family", "packing", "--m", "8", "--a", "1.5", "--alpha", "10010001", "--delta", "0.1"],
         "(Packing) takes --m, --a, --alpha"),
    ],
)
@pytest.mark.parametrize("command", [["simulate", "--strategy", "uniform"], ["adversarial", "validate"]])
def test_family_flags_must_match_the_family_fields(capsys, command, family, message):
    run = ["--n", "8,16", "--reps", "2", "--seed", "1"] if command[0] == "simulate" else []
    assert main(command + family + run) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_packing_curve_equals_the_library_curve(tmp_path):
    out = tmp_path / "curve.csv"
    argv = ["simulate", "--family", "packing", "--m", "8", "--a", "1.5", "--alpha", "10010001",
            "--strategy", "k=2", "--n", "16,32,64", "--reps", "4", "--seed", "3", "--quad-x", "64",
            "--out", str(out)]
    assert main(argv) == 0
    spec = Packing(m=8, a=1.5, alpha=(1, 0, 0, 1, 0, 0, 0, 1))
    want = deficiency_curve(spec, kmarkets_strategy(k=2), [16, 32, 64], 4, 3, QuadratureConfig(x_panels=64))
    assert read_curve(out) == want


def test_conditional_perturbation_curve_equals_the_library_curve(tmp_path):
    out = tmp_path / "curve.csv"
    argv = ["welfare", "--family", "perturbed", "--a", "1.0", "--delta", "0.1", "--x0", "0.5",
            "--strategy", "uniform", "--n", "16,32,64", "--reps", "4", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    spec = PerturbedConditional(a=1.0, delta=0.1, x0=0.5)
    assert read_curve(out) == deficiency_curve(spec, uniform_strategy(), [16, 32, 64], 4, 3, kind="welfare")


def test_adversarial_kl_prints_the_library_value(capsys):
    argv = ["adversarial", "kl", "--m", "8", "--a", "1.2", "--alpha", "10000001", "--alpha2", "01100000",
            "--quad-y", "256", "--quad-x", "32"]
    assert main(argv) == 0
    want = kl_divergence(
        Packing(m=8, a=1.2, alpha=(1, 0, 0, 0, 0, 0, 0, 1)),
        Packing(m=8, a=1.2, alpha=(0, 1, 1, 0, 0, 0, 0, 0)),
        QuadratureConfig(y_panels=256, x_panels=32),
    )
    assert capsys.readouterr().out == f"kl={want:.17g}\n"


def test_adversarial_separation_prints_the_library_value(capsys):
    # no --alpha/--alpha2: all zeros against every eighth bin set
    assert main(["adversarial", "separation", "--m", "16", "--a", "1.2", "--grid", "129"]) == 0
    want = packing_price_separation(16, 1.2, (0,) * 16, (1,) + (0,) * 7 + (1,) + (0,) * 7, 129)
    assert capsys.readouterr().out == f"separation={want:.17g}\n"


def test_pointwise_rejects_a_covariate_outside_the_unit_interval(capsys):
    assert main(["pointwise", "--k", "2", "--at", "1.5", *RUN_ARGS]) == 2
    captured = capsys.readouterr()
    assert "x0 must lie in [0, 1]" in captured.err
    assert captured.out == ""


def test_crossing_with_one_market_is_at_the_first_size(capsys):
    # K = 1 is the single price, so K-markets ties uniform at once
    assert main(["crossing", "--k", "1", *RUN_ARGS]) == 0
    assert capsys.readouterr().out == "crossing=16\n"

"""Auction-export ingestion and the command line surface."""

import numpy as np
import pytest

from kmarkets import IngestError, ingest, k_markets_erm, uniform_erm
from kmarkets.cli import main, read_curve
from kmarkets.experiment import deficiency_curve, fit_rate, uniform_strategy
from kmarkets.families import PowerSimulated

HEADER = "auction_id,bid,bidder_id,bidder_rating\n"


def _write(tmp_path, body, name="bids.csv", header=HEADER):
    p = tmp_path / name
    p.write_text(header + body)
    return p


def test_normalization(tmp_path):
    p = _write(tmp_path, "a1,2,b1,10\na1,4,b2,20\na2,6,b3,30\n")
    data, report = ingest(p)
    np.testing.assert_allclose(data.y, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(data.x, [0.0, 0.5, 1.0])
    assert report.rows_read == 3
    assert report.bidders_kept == 3
    assert (report.y_min, report.y_max) == (2.0, 6.0)
    assert (report.x_min, report.x_max) == (10.0, 30.0)


def test_keeps_each_bidders_highest_bid(tmp_path):
    p = _write(
        tmp_path,
        "a1,5,walt,100\na2,9,walt,250\na3,7,walt,180\na1,1,skyler,400\n",
    )
    data, report = ingest(p)
    assert report.rows_read == 4
    assert report.bidders_kept == 2
    # walt keeps the 9 with the rating from that same row
    np.testing.assert_allclose(data.y, [1.0, 0.0])  # bids 9, 1 normalized
    np.testing.assert_allclose(data.x, [0.0, 1.0])  # ratings 250, 400
    assert (report.y_min, report.y_max) == (1.0, 9.0)
    assert (report.x_min, report.x_max) == (250.0, 400.0)


def test_tied_max_bid_keeps_first_row(tmp_path):
    p = _write(tmp_path, "a1,5,b1,10\na2,5,b1,99\na3,2,b2,50\n")
    data, _ = ingest(p)
    assert data.x[0] == 0.0  # rating 10, not 99


def test_degenerate_ranges_map_to_midpoint(tmp_path):
    p = _write(tmp_path, "a1,3,b1,7\n")
    data, _ = ingest(p)
    assert data.y[0] == 0.5
    assert data.x[0] == 0.5


def test_no_header_mode(tmp_path):
    p = _write(tmp_path, "a1,2,b1,10\na2,6,b2,30\n", header="")
    data, report = ingest(p, has_header=False)
    assert report.bidders_kept == 2
    np.testing.assert_allclose(data.y, [0.0, 1.0])


def test_header_only_is_an_error(tmp_path):
    p = _write(tmp_path, "")
    with pytest.raises(IngestError, match="no usable rows"):
        ingest(p)


def test_empty_file_is_an_error(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(IngestError, match="empty input"):
        ingest(p)


def test_missing_column_is_named(tmp_path):
    p = _write(tmp_path, "a1,2,b1\n", header="auction_id,bid,bidder_id\n")
    with pytest.raises(IngestError, match="bidder_rating"):
        ingest(p)


def test_row_errors_carry_line_numbers(tmp_path):
    p = _write(tmp_path, "a1,2,b1,10\na2,high,b2,20\n")
    with pytest.raises(IngestError, match="line 3: non-numeric bid or rating"):
        ingest(p)
    p = _write(tmp_path, "a1,-2,b1,10\n", name="neg.csv")
    with pytest.raises(IngestError, match="line 2: negative bid"):
        ingest(p)
    p = _write(tmp_path, "a1,2\n", name="short.csv")
    with pytest.raises(IngestError, match="line 2: expected 4 columns, got 2"):
        ingest(p)


def test_a_rating_range_wider_than_a_float_is_named(tmp_path):
    # Both ratings are finite, but their span overflows: the error names
    # the input range, not the NaN the normalization would make of it.
    p = _write(tmp_path, "a1,2,b1,-1e308\na1,4,b2,1e308\n")
    with pytest.raises(IngestError, match=r"rating range \[-1e\+308, 1e\+308\] is too wide"):
        ingest(p)


def test_row_order_does_not_move_prices(tmp_path):
    rows = [f"a{i},{b},b{i},{r}" for i, (b, r) in enumerate([(3, 5), (8, 1), (6, 9), (2, 2), (7, 7)])]
    p1 = _write(tmp_path, "\n".join(rows) + "\n", name="fwd.csv")
    p2 = _write(tmp_path, "\n".join(reversed(rows)) + "\n", name="rev.csv")
    d1, _ = ingest(p1)
    d2, _ = ingest(p2)
    assert uniform_erm(d1.y) == uniform_erm(d2.y)
    pf1, _ = k_markets_erm(d1, 2)
    pf2, _ = k_markets_erm(d2, 2)
    assert pf1.prices == pf2.prices


def test_cli_price(tmp_path, capsys):
    p = _write(tmp_path, "a1,2,b1,10\na1,4,b2,20\na2,6,b3,30\n")
    assert main(["price", "--input", str(p), "--k", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rows_read=3 bidders_kept=3"
    assert out[1] == "bid_range=[2, 6]"
    assert out[2] == "rating_range=[10, 30]"
    assert out[3] == "k_requested=2 k_effective=2"
    assert out[4] == "market 1: x [0, 0.5) n=1 price=0"
    assert out[5] == "market 2: x [0.5, 1] n=2 price=0.5"


def test_cli_price_missing_file(tmp_path, capsys):
    assert main(["price", "--input", str(tmp_path / "nope.csv"), "--k", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_simulate_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    rc = main([
        "simulate", "--family", "power", "--strategy", "uniform",
        "--n", "64,128,256", "--reps", "5", "--seed", "1", "--out", str(out_path),
    ])
    assert rc == 0
    assert capsys.readouterr().out.strip() == f"wrote 3 rows to {out_path}"

    points = read_curve(out_path)
    direct = deficiency_curve(PowerSimulated(), uniform_strategy(), [64, 128, 256], 5, 1)
    assert [p.n for p in points] == [64, 128, 256]
    for got, want in zip(points, direct):
        assert got.strategy_tag == want.strategy_tag
        assert got.reps == want.reps
        assert got.mean_deficiency == pytest.approx(want.mean_deficiency, abs=1e-12)
        assert got.std_error == pytest.approx(want.std_error, abs=1e-12)
        assert got.mean_revenue == pytest.approx(want.mean_revenue, abs=1e-12)

    assert main(["rates", "--curve", str(out_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    fields = dict(line.split("=", 1) for line in lines if "=" in line)
    fit = fit_rate(direct)
    assert float(fields["slope"]) == pytest.approx(fit.slope, abs=1e-12)
    assert float(fields["intercept"]) == pytest.approx(fit.intercept, abs=1e-12)
    assert float(fields["r_squared"]) == pytest.approx(fit.r_squared, abs=1e-12)


def test_cli_simulate_writes_csv_to_stdout(capsys):
    rc = main([
        "simulate", "--family", "power", "--strategy", "uniform",
        "--n", "64,128,256", "--reps", "5", "--seed", "1",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,strategy,mean_deficiency,std_error,reps,mean_revenue"
    assert len(lines) == 4
    assert lines[1].startswith("64,uniform,")


def test_cli_crossing_none(capsys):
    rc = main(["crossing", "--family", "power", "--k", "4",
               "--n", "16,32", "--reps", "10", "--seed", "9"])
    assert rc == 0
    assert "crossing=none" in capsys.readouterr().out


def test_cli_rates_rejects_mixed_strategies(tmp_path, capsys):
    out_path = tmp_path / "cross.csv"
    rc = main([
        "crossing", "--family", "power", "--k", "4",
        "--n", "16,32,64", "--reps", "10", "--seed", "9", "--out", str(out_path),
    ])
    assert rc == 0
    capsys.readouterr()
    assert len(read_curve(out_path)) == 6  # both strategies, all three sizes

    assert main(["rates", "--curve", str(out_path)]) == 2
    assert "mixes strategies" in capsys.readouterr().err
    assert main(["rates", "--curve", str(out_path), "--strategy", "uniform"]) == 0
    capsys.readouterr()


def test_read_curve_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(IngestError, match="empty"):
        read_curve(empty)

    bad_header = tmp_path / "hdr.csv"
    bad_header.write_text("n,foo\n1,2\n")
    with pytest.raises(IngestError, match="header"):
        read_curve(bad_header)

    bad_row = tmp_path / "row.csv"
    bad_row.write_text(
        "n,strategy,mean_deficiency,std_error,reps,mean_revenue\n64,uniform,x,0,5,0.3\n"
    )
    with pytest.raises(IngestError, match="line 2: malformed curve row"):
        read_curve(bad_row)


CURVE_HEADER = "n,strategy,mean_deficiency,std_error,reps,mean_revenue\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("128,uniform,nan,0,5,0.3", "line 3: non-finite number"),
        ("128,uniform,0.05,inf,5,0.3", "line 3: non-finite number"),
        ("128,uniform,0.05,0,5,-inf", "line 3: non-finite number"),
        ("0,uniform,0.05,0,5,0.3", "line 3: n and reps must be >= 1"),
        ("-5,uniform,0.05,0,5,0.3", "line 3: n and reps must be >= 1"),
        ("128,uniform,0.05,0,0,0.3", "line 3: n and reps must be >= 1"),
        ("128,uniform,0.05,0,5,0.3,7", "line 3: malformed curve row of 7 cells"),
        ("128,uniform,0.05,0,5", "line 3: malformed curve row of 5 cells"),
    ],
)
def test_cli_rates_rejects_bad_curve_rows(tmp_path, capsys, row, message):
    curve = tmp_path / "curve.csv"
    curve.write_text(CURVE_HEADER + "64,uniform,0.1,0,5,0.3\n" + row + "\n256,uniform,0.01,0,5,0.3\n")
    with pytest.raises(IngestError, match=message):
        read_curve(curve)
    assert main(["rates", "--curve", str(curve)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_cli_exit_codes(capsys):
    # missing required --seed is a usage error
    rc = main(["simulate", "--family", "power", "--strategy", "uniform",
               "--n", "64,128,256", "--reps", "5"])
    assert rc == 1
    capsys.readouterr()
    # unparsable strategy is a data error
    rc = main(["simulate", "--family", "power", "--strategy", "k=oops",
               "--n", "64,128,256", "--reps", "5", "--seed", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = main(["simulate", "--family", "power", "--strategy", "ksched=cubic",
               "--n", "64,128,256", "--reps", "5", "--seed", "1"])
    assert rc == 2
    capsys.readouterr()


def test_cli_adversarial_outputs(capsys):
    assert main(["adversarial", "gv", "--m", "8"]) == 0
    assert capsys.readouterr().out.strip() == "m=8 words=256 min_distance>=1"

    assert main(["adversarial", "lemma-c3", "--b", "1.0", "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "inside=true" in out
    assert "p_star=0.49" in out

    assert main(["adversarial", "hellinger", "--a", "1.0", "--delta", "0.05",
                 "--quad-y", "512"]) == 0
    out = capsys.readouterr().out
    assert "bound_satisfied=true" in out
    assert "analytic_bound=" in out

    assert main(["adversarial", "validate", "--family", "perturbed", "--a", "1.0",
                 "--delta", "0.1", "--grid", "41"]) == 0
    out = capsys.readouterr().out
    assert "max_norm_error=0" in out
    assert "min_density=0.9" in out


def test_cli_pointwise(capsys):
    rc = main(["pointwise", "--family", "power", "--k", "4", "--at", "0.5",
               "--n", "64,128", "--reps", "10", "--seed", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,strategy,mean_deficiency,std_error,reps,mean_revenue"
    assert len(lines) == 3
    assert lines[1].startswith("64,k=4,")

"""The ingest row loop against a reference copy of its earlier, plainer form.

``reference_ingest`` is the loop as it stood before the per-row work was
trimmed: it tests every row for blankness first, looks each column index up
in a dict and keeps a (bid, rating) tuple per bidder.  The library's
``ingest`` must give the same bytes, the same report and the same errors.
"""

import csv
import math
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kmarkets import IngestError, ingest
from kmarkets.cli import main
from kmarkets.families import Dataset
from kmarkets.ingest import COLUMNS, IngestReport, _normalize

HEADER = "auction_id,bid,bidder_id,bidder_rating\n"


def reference_ingest(path, has_header=True):
    best = {}  # bidder -> (highest bid, rating of that row)
    rows_read = 0
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        col_idx = {name: i for i, name in enumerate(COLUMNS)}
        start_line = 1
        if has_header:
            try:
                header = next(reader)
            except StopIteration:
                raise IngestError("empty input: no header row") from None
            names = [h.strip() for h in header]
            for name in COLUMNS:
                if name not in names:
                    raise IngestError(f"missing column '{name}'")
            col_idx = {name: names.index(name) for name in COLUMNS}
            start_line = 2
        needed = max(col_idx.values()) + 1
        for line_no, row in enumerate(reader, start=start_line):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < needed:
                raise IngestError(f"line {line_no}: expected {needed} columns, got {len(row)}")
            try:
                bid = float(row[col_idx["bid"]])
                rating = float(row[col_idx["bidder_rating"]])
            except ValueError:
                raise IngestError(f"line {line_no}: non-numeric bid or rating") from None
            if not 0.0 <= bid < math.inf:
                raise IngestError(f"line {line_no}: {'negative' if bid < 0.0 else 'non-finite'} bid")
            if not -math.inf < rating < math.inf:
                raise IngestError(f"line {line_no}: non-finite rating")
            rows_read += 1
            bidder = row[col_idx["bidder_id"]].strip()
            if not bidder:
                raise IngestError(f"line {line_no}: blank bidder_id")
            prev = best.get(bidder)
            if prev is None or bid > prev[0]:
                best[bidder] = (bid, rating)
    if not rows_read:
        raise IngestError("no usable rows in input")
    bids = np.array([b for b, _ in best.values()])
    ratings = np.array([r for _, r in best.values()])
    lo, hi = float(ratings.min()), float(ratings.max())
    if not math.isfinite(hi - lo):
        raise IngestError(f"rating range [{lo!r}, {hi!r}] is too wide to normalize")
    data = Dataset(y=_normalize(bids), x=_normalize(ratings))
    report = IngestReport(rows_read, len(best), float(bids.min()), float(bids.max()), lo, hi)
    return data, report


def _outcome(fn, path, has_header):
    try:
        data, report = fn(path, has_header)
    except Exception as exc:  # the type and the message must match too
        return type(exc).__name__, str(exc)
    return data.y.tobytes(), data.x.tobytes(), [repr(v) for v in astuple(report)]


# Cells that parse, including ties, rising bids, -0, padding, quoting and
# extremes, and cells that fail one check or another.
GOOD_NUMBERS = st.one_of(st.integers(0, 6).map(str), st.sampled_from(["2.5", "-0", " 3 ", '"4"', "1e308", "5e-324"]))
BAD_NUMBERS = st.sampled_from(["-1", "inf", "-inf", "nan", "-1e308", "abc", "", " ", '"1,5"'])
GOOD_BIDDERS = st.sampled_from(["u1", "u2", "u3", " u1", "u2 "])
BAD_BIDDERS = st.sampled_from(["", " "])
EXTRA = "note"  # a column the reader must ignore


@st.composite
def auction_csvs(draw):
    has_header = draw(st.booleans())
    columns = list(COLUMNS) + [EXTRA] * draw(st.integers(0, 1))
    if has_header:
        columns = draw(st.permutations(columns))
        if draw(st.integers(0, 9)) == 0:  # now and then a header missing a column
            columns.pop(draw(st.integers(0, len(columns) - 1)))
    # About half the files hold only rows that parse, blank rows and long rows.
    clean = draw(st.booleans())
    numbers = GOOD_NUMBERS if clean else GOOD_NUMBERS | BAD_NUMBERS
    cell = {
        "auction_id": st.sampled_from(["a1", "a2", ""]),
        "bid": numbers,
        "bidder_id": GOOD_BIDDERS if clean else GOOD_BIDDERS | BAD_BIDDERS,
        "bidder_rating": numbers | st.sampled_from(["-1", "-7.5"]),
        EXTRA: st.sampled_from(["", "x", " "]),
    }
    kinds = ["row"] * 4 + ["blank", "spaces", "long"] + ([] if clean else ["short"])
    lines = []
    if has_header:
        lines.append(",".join(draw(st.sampled_from([name, f" {name}", f"{name} "])) for name in columns))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        row = [draw(cell[name]) for name in columns]
        if kind == "blank":
            row = []
        elif kind == "spaces":
            row = [draw(st.sampled_from(["", " ", "\t"])) for _ in range(draw(st.integers(1, 6)))]
        elif kind == "short":
            row = row[: draw(st.integers(1, max(1, len(row) - 1)))]
        elif kind == "long":
            row.append("tail")
        lines.append(",".join(row))
    return has_header, "".join(line + "\n" for line in lines)


@settings(deadline=None, max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=auction_csvs())
def test_ingest_matches_the_reference_loop(tmp_path, case):
    has_header, text = case
    path = tmp_path / "bids.csv"
    path.write_text(text)
    assert _outcome(ingest, path, has_header) == _outcome(reference_ingest, path, has_header)


def test_a_byte_order_mark_is_not_part_of_the_header(tmp_path):
    body = HEADER + "a1,2,b1,10\na1,4,b2,20\na2,6,b1,30\n"
    plain = tmp_path / "plain.csv"
    plain.write_bytes(body.encode())
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + body.encode())
    assert _outcome(ingest, marked, True) == _outcome(ingest, plain, True)
    assert ingest(marked)[1].bidders_kept == 2


def test_a_byte_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes((HEADER + "a1,2,b1,10\n").encode() + b"a2,3,caf\xff,20\n")
    with pytest.raises(IngestError, match=r"input is not UTF-8: byte 0xff"):
        ingest(path)
    assert main(["price", "--input", str(path), "--k", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not UTF-8" in err


def _oversized_field():
    return "9" * (csv.field_size_limit() + 1)


def test_a_field_over_the_csv_limit_exits_2_from_price(tmp_path, capsys):
    path = tmp_path / "bids.csv"
    path.write_text(HEADER + "a1,2,b1,10\n" + f"a2,3,{_oversized_field()},20\n")
    assert main(["price", "--input", str(path), "--k", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"line 3: field larger than field limit ({csv.field_size_limit()})" in err


def test_a_field_over_the_csv_limit_exits_2_from_rates(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text(
        "n,strategy,mean_deficiency,std_error,reps,mean_revenue\n"
        "64,uniform,0.1,0,5,0.3\n"
        f"128,uniform,{_oversized_field()},0,5,0.3\n"
    )
    assert main(["rates", "--curve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"line 3: field larger than field limit ({csv.field_size_limit()})" in err

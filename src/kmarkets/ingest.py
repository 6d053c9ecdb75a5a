"""Auction-export CSV ingestion into a unit-square dataset.

Expected columns: auction_id, bid, bidder_id, bidder_rating.  Each bidder
is reduced to their highest bid (first occurrence wins ties) with the
rating taken from that same row, then bids and ratings are min-max
normalized to [0, 1].  A degenerate range maps everyone to 0.5.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .families import Dataset

COLUMNS = ("auction_id", "bid", "bidder_id", "bidder_rating")


class IngestError(ValueError):
    """Malformed or unusable input data."""


@dataclass(frozen=True)
class BidRecord:
    auction_id: str
    bid: float
    bidder_id: str
    bidder_rating: float


@dataclass(frozen=True)
class IngestReport:
    rows_read: int
    bidders_kept: int
    y_min: float
    y_max: float
    x_min: float
    x_max: float


@contextmanager
def _csv_reader(path):
    """A csv reader over a UTF-8 file, BOM optional; a bad record or non-UTF-8 byte raises IngestError."""
    with open(Path(path), newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise IngestError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise IngestError(f"input is not UTF-8: byte {exc.object[exc.start]:#04x} ({exc.reason})") from None


def _normalize(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        return (values - lo) / (hi - lo)
    return np.full_like(values, 0.5)


def _blank(row) -> bool:
    return not any(cell.strip() for cell in row)


def ingest(path, has_header: bool = True) -> tuple[Dataset, IngestReport]:
    """Read an auction CSV and return per-bidder (valuation, covariate) data.

    The file is decoded as UTF-8, with or without a byte-order mark.  Raises
    IngestError on a byte that is not UTF-8, on a missing column, on a
    non-numeric, non-finite or negative bid, a non-numeric or non-finite
    rating, a blank bidder_id or a malformed CSV record (reported with its
    line number), on a rating range that overflows, or when no usable rows
    remain.  Negative ratings are legitimate feedback scores and are kept.
    Rows whose cells are all blank are skipped.
    """
    top: dict[str, float] = {}  # bidder -> highest bid, first occurrence wins ties
    rating_of: dict[str, float] = {}  # bidder -> rating of the row holding that bid
    rows_read = 0
    with _csv_reader(path) as reader:
        col = range(len(COLUMNS))  # without a header, the columns come in COLUMNS order
        start_line = 1
        if has_header:
            header = next(reader, None)
            if header is None:
                raise IngestError("empty input: no header row")
            names = [h.strip() for h in header]
            for name in COLUMNS:
                if name not in names:
                    raise IngestError(f"missing column '{name}'")
            col = [names.index(name) for name in COLUMNS]
            start_line = 2
        _, bid_i, bidder_i, rating_i = col
        needed = max(col) + 1
        # A blank row is short or has an unparsable bid or rating, so it
        # is tested for only where one of those checks fails.
        for line_no, row in enumerate(reader, start=start_line):
            if len(row) < needed:
                if _blank(row):
                    continue
                raise IngestError(f"line {line_no}: expected {needed} columns, got {len(row)}")
            try:
                bid = float(row[bid_i])
                rating = float(row[rating_i])
            except ValueError:
                if _blank(row):
                    continue
                raise IngestError(f"line {line_no}: non-numeric bid or rating") from None
            if not 0.0 <= bid < math.inf:
                raise IngestError(f"line {line_no}: {'negative' if bid < 0.0 else 'non-finite'} bid")
            if not -math.inf < rating < math.inf:
                raise IngestError(f"line {line_no}: non-finite rating")
            rows_read += 1
            bidder = row[bidder_i].strip()
            if not bidder:
                raise IngestError(f"line {line_no}: blank bidder_id")
            # Bids are >= 0, so a new bidder always enters; an update
            # keeps the bidder's first-appearance slot in both dicts.
            if bid > top.get(bidder, -1.0):
                top[bidder] = bid
                rating_of[bidder] = rating
    if not rows_read:
        raise IngestError("no usable rows in input")
    bids = np.fromiter(top.values(), float, len(top))
    ratings = np.fromiter(rating_of.values(), float, len(top))
    # Bids are finite and non-negative, so only ratings can span more than a float.
    lo, hi = float(ratings.min()), float(ratings.max())
    if not math.isfinite(hi - lo):
        raise IngestError(f"rating range [{lo!r}, {hi!r}] is too wide to normalize")
    data = Dataset(y=_normalize(bids), x=_normalize(ratings))
    report = IngestReport(
        rows_read=rows_read,
        bidders_kept=len(top),
        y_min=float(bids.min()),
        y_max=float(bids.max()),
        x_min=lo,
        x_max=hi,
    )
    return data, report

"""Auction-export CSV ingestion into a unit-square dataset.

Expected columns: auction_id, bid, bidder_id, bidder_rating.  Each bidder
is reduced to their highest bid (first occurrence wins ties) with the
rating taken from that same row, then bids and ratings are min-max
normalized to [0, 1].  A degenerate range maps everyone to 0.5.
"""

from __future__ import annotations

import csv
import math
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


def _normalize(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        return (values - lo) / (hi - lo)
    return np.full_like(values, 0.5)


def ingest(path, has_header: bool = True) -> tuple[Dataset, IngestReport]:
    """Read an auction CSV and return per-bidder (valuation, covariate) data.

    Raises IngestError on a missing column, on a non-numeric, non-finite or
    negative bid, a non-numeric or non-finite rating or a blank bidder_id
    (reported with its line number), on a rating range that overflows, or when no usable rows
    remain.  Negative ratings are legitimate feedback scores and are kept.
    """
    best: dict[str, tuple[float, float]] = {}  # bidder -> (highest bid, rating of that row)
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
                best[bidder] = (bid, rating)  # an update keeps the bidder's first-appearance slot
    if not rows_read:
        raise IngestError("no usable rows in input")
    bids = np.array([b for b, _ in best.values()])
    ratings = np.array([r for _, r in best.values()])
    # Bids are finite and non-negative, so only ratings can span more than a float.
    lo, hi = float(ratings.min()), float(ratings.max())
    if not math.isfinite(hi - lo):
        raise IngestError(f"rating range [{lo!r}, {hi!r}] is too wide to normalize")
    data = Dataset(y=_normalize(bids), x=_normalize(ratings))
    report = IngestReport(
        rows_read=rows_read,
        bidders_kept=len(best),
        y_min=float(bids.min()),
        y_max=float(bids.max()),
        x_min=lo,
        x_max=hi,
    )
    return data, report

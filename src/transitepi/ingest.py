"""Parse, validate, filter and profile trip-record datasets.

Input is delimited text with a header row.  Bad rows are rejected with a
reason and counted, never silently dropped; a missing column or an unreadable
stream is fatal.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple, Union

REQUIRED_COLUMNS = (
    "card_id",
    "vehicle_id",
    "board_time",
    "alight_time",
    "board_stop_id",
    "board_lat",
    "board_lon",
    "alight_stop_id",
    "alight_lat",
    "alight_lon",
)

# rejection reasons, stable vocabulary used in IngestReport
REASON_MISSING_FIELD = "missing field"
REASON_BAD_TIMESTAMP = "bad timestamp"
REASON_BAD_COORDINATE = "bad coordinate"
REASON_NON_POSITIVE_DURATION = "non-positive duration"


class SchemaError(Exception):
    """The input header does not carry the required columns."""


@dataclass(frozen=True)
class StopRef:
    stop_id: str
    lat: float
    lon: float

    def coords(self) -> Tuple[float, float]:
        return (self.lat, self.lon)


@dataclass(frozen=True)
class TripRecord:
    """One boarding/alighting event for one card on one vehicle.

    Times are seconds since the Unix epoch (UTC), board strictly before
    alight.  Loops (board stop equal to alight stop) are allowed.
    """

    card_id: str
    vehicle_id: str
    board_time: float
    alight_time: float
    board_stop: StopRef
    alight_stop: StopRef


@dataclass
class IngestReport:
    total_rows: int = 0
    accepted: int = 0
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected_by_reason[reason] = self.rejected_by_reason.get(reason, 0) + 1

    @property
    def rejected(self) -> int:
        return sum(self.rejected_by_reason.values())

    def to_json(self) -> str:
        return json.dumps(
            {
                "total_rows": self.total_rows,
                "accepted": self.accepted,
                "rejected_by_reason": dict(sorted(self.rejected_by_reason.items())),
            },
            sort_keys=True,
            indent=2,
        )


@dataclass(frozen=True)
class TripFormat:
    """Format descriptor for trip files: delimiter only, header is mandatory."""

    delimiter: str = ","


class _TimeColumn:
    """Per-column timestamp parser.

    The format (epoch seconds or ISO-8601) is locked on the first cell that
    parses; later cells must follow the same format.
    """

    def __init__(self) -> None:
        self._format: Optional[str] = None

    def parse(self, text: str) -> Optional[float]:
        text = text.strip()
        if not text:
            return None
        if self._format is None:
            value = _parse_epoch(text)
            if value is not None:
                self._format = "epoch"
                return value
            value = _parse_iso(text)
            if value is not None:
                self._format = "iso"
                return value
            return None
        if self._format == "epoch":
            return _parse_epoch(text)
        return _parse_iso(text)


def _parse_epoch(text: str) -> Optional[float]:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _parse_iso(text: str) -> Optional[float]:
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _parse_coord(lat_text: str, lon_text: str) -> Optional[Tuple[float, float]]:
    try:
        lat = float(lat_text)
        lon = float(lon_text)
    except ValueError:
        return None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return None
    return (lat, lon)


def parse_trip_records(
    source: Union[str, Path, TextIO],
    fmt: TripFormat = TripFormat(),
) -> Tuple[List[TripRecord], IngestReport]:
    """Read trip records from a delimited text source.

    Returns the accepted records in input order plus an IngestReport whose
    counts reconcile exactly with the output.  Raises SchemaError when a
    required column is absent and OSError when the source cannot be read.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="", encoding="utf-8") as fh:
            return _parse_stream(fh, fmt)
    return _parse_stream(source, fmt)


def _parse_stream(stream: TextIO, fmt: TripFormat) -> Tuple[List[TripRecord], IngestReport]:
    reader = csv.reader(stream, delimiter=fmt.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty input: no header row")
    positions = {name.strip(): i for i, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in positions]
    if missing:
        raise SchemaError(f"missing required column(s): {', '.join(missing)}")
    idx = [positions[c] for c in REQUIRED_COLUMNS]
    width = max(idx) + 1

    board_col = _TimeColumn()
    alight_col = _TimeColumn()
    # stops are heavily repeated; share StopRef instances across records
    stop_cache: Dict[Tuple[str, float, float], StopRef] = {}

    records: List[TripRecord] = []
    report = IngestReport()
    for row in reader:
        report.total_rows += 1
        if len(row) < width:
            report.reject(REASON_MISSING_FIELD)
            continue
        cells = [row[i].strip() for i in idx]
        (card_id, vehicle_id, board_text, alight_text,
         b_stop, b_lat, b_lon, a_stop, a_lat, a_lon) = cells
        if not card_id or not vehicle_id or not b_stop or not a_stop:
            report.reject(REASON_MISSING_FIELD)
            continue
        board_time = board_col.parse(board_text)
        alight_time = alight_col.parse(alight_text)
        if board_time is None or alight_time is None:
            report.reject(REASON_BAD_TIMESTAMP)
            continue
        board_coord = _parse_coord(b_lat, b_lon)
        alight_coord = _parse_coord(a_lat, a_lon)
        if board_coord is None or alight_coord is None:
            report.reject(REASON_BAD_COORDINATE)
            continue
        if not board_time < alight_time:
            report.reject(REASON_NON_POSITIVE_DURATION)
            continue
        board_key = (b_stop, *board_coord)
        alight_key = (a_stop, *alight_coord)
        board_stop = stop_cache.get(board_key)
        if board_stop is None:
            board_stop = stop_cache[board_key] = StopRef(b_stop, *board_coord)
        alight_stop = stop_cache.get(alight_key)
        if alight_stop is None:
            alight_stop = stop_cache[alight_key] = StopRef(a_stop, *alight_coord)
        records.append(
            TripRecord(card_id, vehicle_id, board_time, alight_time, board_stop, alight_stop)
        )
        report.accepted += 1
    return records, report


def filter_by_min_trips(records: Sequence[TripRecord], threshold: int) -> List[TripRecord]:
    """Drop all records of cards with fewer than `threshold` trips.

    Surviving records are returned unmodified and in input order.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    counts = _trips_per_card(records)
    return [rec for rec in records if counts[rec.card_id] >= threshold]


def _trips_per_card(records: Sequence[TripRecord]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for rec in records:
        counts[rec.card_id] = counts.get(rec.card_id, 0) + 1
    return counts


def trip_frequency_distribution(records: Sequence[TripRecord]) -> Dict[int, int]:
    """Histogram of trips-per-card: {trip count -> number of cards}."""
    hist: Dict[int, int] = {}
    for n in _trips_per_card(records).values():
        hist[n] = hist.get(n, 0) + 1
    return hist


def population_vs_threshold(
    records: Sequence[TripRecord], thresholds: Sequence[int]
) -> List[Tuple[int, int]]:
    """Surviving population size for each minimum-trip threshold.

    Thresholds must be strictly increasing; the resulting populations are
    non-increasing.
    """
    for a, b in zip(thresholds, thresholds[1:]):
        if not a < b:
            raise ValueError(f"thresholds must be strictly increasing, got {a} before {b}")
    values = sorted(_trips_per_card(records).values())
    # cards with count >= t are those right of the leftmost insertion point
    return [(t, len(values) - bisect.bisect_left(values, t)) for t in thresholds]


def write_trip_csv(records: Iterable[TripRecord], path: Union[str, Path]) -> None:
    """Write records in the canonical trip CSV schema."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.card_id,
                    r.vehicle_id,
                    _format_time(r.board_time),
                    _format_time(r.alight_time),
                    r.board_stop.stop_id,
                    f"{r.board_stop.lat:.6f}",
                    f"{r.board_stop.lon:.6f}",
                    r.alight_stop.stop_id,
                    f"{r.alight_stop.lat:.6f}",
                    f"{r.alight_stop.lon:.6f}",
                ]
            )


def _format_time(t: float) -> str:
    if t == int(t):
        return str(int(t))
    return repr(t)

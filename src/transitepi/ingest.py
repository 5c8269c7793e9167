"""Parse, validate, filter and profile trip-record datasets.

Input is delimited text with a header row.  Bad rows are rejected with a
reason and counted, never silently dropped; a missing column, an unreadable
stream or a stop id given two coordinate pairs is fatal.

Accepted trips are held in one columnar `TripTable`: integer codes for card,
vehicle and stops over id-sorted vocabularies, float board and alight times,
and one (lat, lon) pair per stop.  The parser appends each accepted row to
typed columns, so no per-row Python object outlives its row.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

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

# rows formatted at a time by write_trip_csv
BLOCK_ROWS = 8192


class SchemaError(Exception):
    """The input header does not carry the required columns."""


@dataclass(eq=False)
class TripTable:
    """Trips column-wise: one row per boarding/alighting of one card on one vehicle.

    `card`, `vehicle`, `board_stop` and `alight_stop` are int32 codes into
    the vocabularies `cards`, `vehicles` and `stops`, each sorted by id and
    holding exactly the ids the rows use, so code order is id order.
    `board` and `alight` are seconds since the Unix epoch (UTC), board
    strictly before alight; loops (board stop equal to alight stop) are
    allowed.  `stop_lat` and `stop_lon` give each stop code's coordinates.
    """

    cards: List[str]
    vehicles: List[str]
    stops: List[str]
    stop_lat: np.ndarray
    stop_lon: np.ndarray
    card: np.ndarray
    vehicle: np.ndarray
    board_stop: np.ndarray
    alight_stop: np.ndarray
    board: np.ndarray
    alight: np.ndarray

    def __len__(self) -> int:
        return int(self.card.size)

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple[str, str, float, float, str, str]],
                  stops: Mapping[str, Tuple[float, float]]) -> "TripTable":
        """A table from (card, vehicle, board, alight, board stop, alight stop) rows, built column-wise.

        `stops` maps each stop id the rows name to its (lat, lon).
        """
        card, vehicle, board, alight, board_stop, alight_stop = ([row[i] for row in rows] for i in range(6))
        cards, card = _vocabulary(card)
        vehicles, vehicle = _vocabulary(vehicle)
        stop_ids, stop = _vocabulary(board_stop + alight_stop)
        return _table(cards, vehicles, stop_ids, [stops[s] for s in stop_ids], card, vehicle, *stop.reshape(2, -1),
                      np.array(board, np.float64), np.array(alight, np.float64))

    def take(self, rows: np.ndarray) -> "TripTable":
        """The rows selected by an index array or boolean mask, in that order.

        The vocabularies shrink to the ids the selected rows use.
        """
        cards, card, _ = _renumber(self.cards, self.card[rows])
        vehicles, vehicle, _ = _renumber(self.vehicles, self.vehicle[rows])
        stops, stop, used = _renumber(self.stops, np.concatenate([self.board_stop[rows], self.alight_stop[rows]]))
        n = card.size
        return TripTable(cards, vehicles, stops, self.stop_lat[used], self.stop_lon[used], card, vehicle,
                         stop[:n], stop[n:], self.board[rows], self.alight[rows])


def _vocabulary(ids: Sequence[str]) -> Tuple[List[str], np.ndarray]:
    """The distinct ids, sorted, and each id's int32 code over them."""
    vocabulary = sorted(set(ids))
    code = {c: i for i, c in enumerate(vocabulary)}
    return vocabulary, np.fromiter(map(code.__getitem__, ids), np.int32, len(ids))


def _table(cards: List[str], vehicles: List[str], stops: List[str], coords: Sequence[Tuple[float, float]],
           card: np.ndarray, vehicle: np.ndarray, board_stop: np.ndarray, alight_stop: np.ndarray,
           board: np.ndarray, alight: np.ndarray) -> TripTable:
    """A table from codes over vocabularies in any order, renumbered so that code order is id order.

    `coords` holds each stop code's (lat, lon).
    """
    cards, card, _ = _renumber(cards, card)
    vehicles, vehicle, _ = _renumber(vehicles, vehicle)
    stops, stop, used = _renumber(stops, np.concatenate([board_stop, alight_stop]))
    lat, lon = np.array(coords, np.float64).reshape(-1, 2)[used].T.copy()
    n = board.size
    return TripTable(cards, vehicles, stops, lat, lon, card, vehicle, stop[:n], stop[n:], board, alight)


def _renumber(ids: List[str], codes: np.ndarray) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """The ids that `codes` uses, sorted; the codes renumbered over them; their old codes."""
    used = sorted(np.flatnonzero(np.bincount(codes, minlength=len(ids))).tolist(), key=ids.__getitem__)
    code = np.zeros(len(ids), np.int32)
    code[used] = np.arange(len(used), dtype=np.int32)
    return [ids[i] for i in used], code[codes], np.array(used, np.int64)


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


class _TimeColumn:
    """Per-column timestamp parser for stripped cells.

    The format (epoch seconds or ISO-8601) is locked on the first cell that
    parses; later cells must follow the same format.
    """

    def __init__(self) -> None:
        self._format: Optional[Callable[[str], Optional[float]]] = None

    def parse(self, text: str) -> Optional[float]:
        if not text:
            return None
        for parser in (self._format,) if self._format else (_parse_epoch, _parse_iso):
            value = parser(text)
            if value is not None:
                self._format = parser
                return value
        return None


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
    source: Union[str, Path, TextIO], delimiter: str = ","
) -> Tuple[TripTable, IngestReport]:
    """Read trip records from a delimited text source.

    Returns the accepted rows in input order plus an IngestReport whose
    counts reconcile exactly with the table.  Raises SchemaError when a
    required column is absent, OSError when the source cannot be read and
    ValueError when accepted rows give one stop id two coordinate pairs.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="", encoding="utf-8") as fh:
            return _parse_stream(fh, delimiter)
    return _parse_stream(source, delimiter)


def _parse_stream(stream: TextIO, delimiter: str) -> Tuple[TripTable, IngestReport]:
    reader = csv.reader(stream, delimiter=delimiter)
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
    cards: Dict[str, int] = {}
    vehicles: Dict[str, int] = {}
    stops: Dict[str, Tuple[int, Tuple[float, float]]] = {}
    card, vehicle, board_stop, alight_stop = (array("i") for _ in range(4))
    boards, alights = array("d"), array("d")

    def stop_code(stop_id: str, coord: Tuple[float, float]) -> int:
        code, known = stops.setdefault(stop_id, (len(stops), coord))
        if known != coord:
            raise ValueError(f"stop {stop_id!r} has two coordinate pairs: {known} and {coord}")
        return code

    report = IngestReport()
    for row in reader:
        report.total_rows += 1
        if len(row) < width:
            report.reject(REASON_MISSING_FIELD)
            continue
        (card_id, vehicle_id, board_text, alight_text,
         b_stop, b_lat, b_lon, a_stop, a_lat, a_lon) = [row[i].strip() for i in idx]
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
        board_stop.append(stop_code(b_stop, board_coord))
        alight_stop.append(stop_code(a_stop, alight_coord))
        card.append(cards.setdefault(card_id, len(cards)))
        vehicle.append(vehicles.setdefault(vehicle_id, len(vehicles)))
        boards.append(board_time)
        alights.append(alight_time)
        report.accepted += 1
    codes = (np.frombuffer(c, np.int32) for c in (card, vehicle, board_stop, alight_stop))
    return _table(list(cards), list(vehicles), list(stops), [c for _, c in stops.values()], *codes,
                  np.frombuffer(boards), np.frombuffer(alights)), report


def filter_by_min_trips(trips: TripTable, threshold: int) -> TripTable:
    """Drop all rows of cards with fewer than `threshold` trips.

    Surviving rows keep their values and their order.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    return trips.take(_trips_per_card(trips)[trips.card] >= threshold)


def _trips_per_card(trips: TripTable) -> np.ndarray:
    return np.bincount(trips.card, minlength=len(trips.cards))


def trip_frequency_distribution(trips: TripTable) -> Dict[int, int]:
    """Histogram of trips-per-card: {trip count -> number of cards}."""
    values, n = np.unique(_trips_per_card(trips), return_counts=True)
    return dict(zip(values.tolist(), n.tolist()))


def population_vs_threshold(trips: TripTable, thresholds: Sequence[int]) -> List[Tuple[int, int]]:
    """Surviving population size for each minimum-trip threshold.

    Thresholds must be strictly increasing; the resulting populations are
    non-increasing.
    """
    for a, b in zip(thresholds, thresholds[1:]):
        if not a < b:
            raise ValueError(f"thresholds must be strictly increasing, got {a} before {b}")
    values = np.sort(_trips_per_card(trips))
    # cards with count >= t are those right of the leftmost insertion point
    return [(t, int(values.size - np.searchsorted(values, t))) for t in thresholds]


def write_trip_csv(trips: TripTable, path: Union[str, Path]) -> None:
    """Write a table in the canonical trip CSV schema, one block of rows at a time."""
    lat = [f"{x:.6f}" for x in trips.stop_lat.tolist()]
    lon = [f"{x:.6f}" for x in trips.stop_lon.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for lo in range(0, len(trips), BLOCK_ROWS):
            rows = slice(lo, lo + BLOCK_ROWS)
            b_stop = trips.board_stop[rows].tolist()
            a_stop = trips.alight_stop[rows].tolist()
            writer.writerows(zip(
                map(trips.cards.__getitem__, trips.card[rows].tolist()),
                map(trips.vehicles.__getitem__, trips.vehicle[rows].tolist()),
                map(_format_time, trips.board[rows].tolist()),
                map(_format_time, trips.alight[rows].tolist()),
                map(trips.stops.__getitem__, b_stop), map(lat.__getitem__, b_stop), map(lon.__getitem__, b_stop),
                map(trips.stops.__getitem__, a_stop), map(lat.__getitem__, a_stop), map(lon.__getitem__, a_stop),
            ))


def _format_time(t: float) -> str:
    if t == int(t):
        return str(int(t))
    return repr(t)

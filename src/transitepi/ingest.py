"""Parse, validate, filter and profile trip-record datasets.

Input is delimited text with a header row.  Bad rows are rejected with a
reason and counted, never silently dropped; a missing column, an unreadable
stream or a stop id given two coordinate pairs is fatal.

Accepted trips are held in one columnar `TripTable`: integer codes for card,
vehicle and stops over id-sorted vocabularies, float board and alight times,
and one (lat, lon) pair per stop.  The parser reads the body in blocks of
lines.  A block without a quote character is read by numpy's C reader in
one call, then checked and coded column by column; a block it cannot take
whole (a bad cell, a blank line, a stop conflict, ISO times) goes through a
`csv` row loop that rejects row by row with a reason, and after a quote the
row loop reads the rest, since a quoted field may span blocks.  Both paths
append to the same typed columns, so no per-row Python object outlives its
block.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

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

# characters of whole lines read at a time by parse_trip_records
_BLOCK_BYTES = 1 << 18

# the required columns as numpy's reader gives them: ids as str objects, times and coordinates as float64
_BLOCK_DTYPE = np.dtype([(c, object if c.endswith("_id") else np.float64) for c in REQUIRED_COLUMNS])


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
    def from_columns(cls, card: Sequence[str], vehicle: Sequence[str], board: Sequence[float],
                     alight: Sequence[float], board_stop: Sequence[str], alight_stop: Sequence[str],
                     stops: Mapping[str, Tuple[float, float]]) -> "TripTable":
        """A table from one sequence per column, ids as str.

        `stops` maps each stop id the columns name to its (lat, lon).
        """
        cards, card = _vocabulary(card)
        vehicles, vehicle = _vocabulary(vehicle)
        stop_ids, stop = _vocabulary([*board_stop, *alight_stop])
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
        self.format: Optional[Callable[[str], Optional[float]]] = None

    def parse(self, text: str) -> Optional[float]:
        if not text:
            return None
        for parser in (self.format,) if self.format else (_parse_epoch, _parse_iso):
            value = parser(text)
            if value is not None:
                self.format = parser
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
    ValueError when accepted rows give one stop id two coordinate pairs or
    when `delimiter` fails `check_delimiter`.
    """
    check_delimiter(delimiter)
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="", encoding="utf-8") as fh:
            return _parse_stream(fh, delimiter)
    return _parse_stream(source, delimiter)


def check_delimiter(delimiter: str) -> None:
    """Raise ValueError unless `delimiter` is one character other than a quote or a line break."""
    if len(delimiter) != 1 or delimiter in '"\r\n':
        raise ValueError(f"delimiter must be one character other than '\"', '\\r' or '\\n', got {delimiter!r}")


def _parse_stream(stream: TextIO, delimiter: str) -> Tuple[TripTable, IngestReport]:
    try:
        header = next(csv.reader(stream, delimiter=delimiter))
    except StopIteration:
        raise SchemaError("empty input: no header row")
    positions = {name.strip(): i for i, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in positions]
    if missing:
        raise SchemaError(f"missing required column(s): {', '.join(missing)}")
    columns = _Columns([positions[c] for c in REQUIRED_COLUMNS], delimiter)
    while True:
        lines = stream.readlines(_BLOCK_BYTES)
        if not lines:
            break
        if '"' in "".join(lines):
            # a quoted field may span blocks: the csv module reads the rest
            columns.rows(csv.reader(chain(lines, stream), delimiter=delimiter))
            break
        if not columns.block(lines):
            columns.rows(csv.reader(lines, delimiter=delimiter))
    return columns.table(), columns.report


class _Columns:
    """Accepted rows so far: first-appearance id codes, stop coordinates by code, typed columns, the report.

    `rows` takes csv rows one at a time and rejects bad ones with a reason;
    `block` takes a whole block of lines at once, or nothing.  Both append to
    the same accumulators, so blocks may take either path in any order.
    """

    def __init__(self, idx: List[int], delimiter: str) -> None:
        self.idx = idx
        self.delimiter = delimiter
        self.board_col = _TimeColumn()
        self.alight_col = _TimeColumn()
        self.cards: Dict[str, int] = {}
        self.vehicles: Dict[str, int] = {}
        self.stops: Dict[str, int] = {}
        self.stop_lat, self.stop_lon = array("d"), array("d")
        self.card, self.vehicle, self.board_stop, self.alight_stop = (array("i") for _ in range(4))
        self.board, self.alight = array("d"), array("d")
        self.report = IngestReport()

    def stop_code(self, stop_id: str, coord: Tuple[float, float]) -> int:
        code = self.stops.setdefault(stop_id, len(self.stops))
        if code == len(self.stop_lat):
            self.stop_lat.append(coord[0])
            self.stop_lon.append(coord[1])
            return code
        known = (self.stop_lat[code], self.stop_lon[code])
        if known != coord:
            raise ValueError(f"stop {stop_id!r} has two coordinate pairs: {known} and {coord}")
        return code

    def rows(self, reader: Iterable[List[str]]) -> None:
        width = max(self.idx) + 1
        report = self.report
        for row in reader:
            report.total_rows += 1
            if len(row) < width:
                report.reject(REASON_MISSING_FIELD)
                continue
            (card_id, vehicle_id, board_text, alight_text,
             b_stop, b_lat, b_lon, a_stop, a_lat, a_lon) = [row[i].strip() for i in self.idx]
            if not card_id or not vehicle_id or not b_stop or not a_stop:
                report.reject(REASON_MISSING_FIELD)
                continue
            board_time = self.board_col.parse(board_text)
            alight_time = self.alight_col.parse(alight_text)
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
            self.board_stop.append(self.stop_code(b_stop, board_coord))
            self.alight_stop.append(self.stop_code(a_stop, alight_coord))
            self.card.append(self.cards.setdefault(card_id, len(self.cards)))
            self.vehicle.append(self.vehicles.setdefault(vehicle_id, len(self.vehicles)))
            self.board.append(board_time)
            self.alight.append(alight_time)
            report.accepted += 1

    def block(self, lines: List[str]) -> bool:
        """Take every row of quote-free `lines` through numpy's C reader, or take nothing and return False.

        It declines unless `rows` would accept every line with epoch times
        and no stop conflict, so the row loop gives every rejection and error.
        """
        # a block of blank lines would make loadtxt warn of no data; the csv module refuses
        # a field over its size limit and, before Python 3.11, a NUL: the row loop rejects
        # or raises for all three
        if (_parse_iso in (self.board_col.format, self.alight_col.format) or not lines[0].strip()
                or max(map(len, lines)) > csv.field_size_limit() or "\x00" in "".join(lines)):
            return False
        try:
            cols = np.loadtxt(lines, delimiter=self.delimiter, usecols=self.idx, dtype=_BLOCK_DTYPE,
                              comments=None, quotechar=None, ndmin=1)
        except ValueError:
            return False
        # loadtxt skips blank lines, which the row loop rejects
        if cols.size != len(lines):
            return False
        board, alight = cols["board_time"], cols["alight_time"]
        lat = np.stack([cols["board_lat"], cols["alight_lat"]], 1).ravel()
        lon = np.stack([cols["board_lon"], cols["alight_lon"]], 1).ravel()
        if not ((np.isfinite(board) & np.isfinite(alight) & (board < alight)).all()
                and (np.abs(lat) <= 90.0).all() and (np.abs(lon) <= 180.0).all()):
            return False
        # stop ids interleaved as the row loop meets them: board, then alight
        stop_ids = np.stack([cols["board_stop_id"], cols["alight_stop_id"]], 1).ravel()
        plans = [_plan_codes(vocab, ids.tolist()) for vocab, ids in (
            (self.cards, cols["card_id"]), (self.vehicles, cols["vehicle_id"]), (self.stops, stop_ids))]
        if None in plans:
            return False
        (card, new_cards), (vehicle, new_vehicles), (stop, new_stops) = plans
        # new stops take the highest codes; each keeps the coordinates of its first row
        first = np.unique(stop, return_index=True)[1][-len(new_stops):] if new_stops else np.empty(0, np.intp)
        known_lat = np.concatenate([np.array(self.stop_lat), lat[first]])
        known_lon = np.concatenate([np.array(self.stop_lon), lon[first]])
        if (known_lat[stop] != lat).any() or (known_lon[stop] != lon).any():
            return False
        for vocab, new in ((self.cards, new_cards), (self.vehicles, new_vehicles), (self.stops, new_stops)):
            vocab.update(new)
        for acc, values in ((self.stop_lat, lat[first]), (self.stop_lon, lon[first]),
                            (self.card, card), (self.vehicle, vehicle),
                            (self.board_stop, stop[0::2]), (self.alight_stop, stop[1::2]),
                            (self.board, board), (self.alight, alight)):
            acc.frombytes(values.tobytes())
        self.board_col.format = self.alight_col.format = _parse_epoch
        self.report.total_rows += len(lines)
        self.report.accepted += len(lines)
        return True

    def table(self) -> TripTable:
        codes = (np.frombuffer(c, np.int32) for c in (self.card, self.vehicle, self.board_stop, self.alight_stop))
        coords = np.column_stack([np.frombuffer(self.stop_lat), np.frombuffer(self.stop_lon)])
        return _table(list(self.cards), list(self.vehicles), list(self.stops), coords, *codes,
                      np.frombuffer(self.board), np.frombuffer(self.alight))


def _plan_codes(vocab: Dict[str, int], cells: List[str]) -> Optional[Tuple[np.ndarray, Dict[str, int]]]:
    """Each stripped cell's int32 code over `vocab` extended in first-appearance order, and the extension.

    None when a cell strips to nothing.  `vocab` itself is left as it is.
    """
    code = np.fromiter(map(vocab.get, cells, repeat(-1)), np.int32, len(cells))
    new: Dict[str, int] = {}
    missing = np.flatnonzero(code < 0).tolist()
    if missing:
        # ids not seen before, or cells that need stripping
        unknown = [cells[i] for i in missing]
        local: Dict[str, int] = dict.fromkeys(unknown)
        for cell in local:
            ident = cell.strip()
            if not ident:
                return None
            known = vocab.get(ident)
            local[cell] = new.setdefault(ident, len(vocab) + len(new)) if known is None else known
        code[missing] = np.fromiter(map(local.__getitem__, unknown), np.int32, len(unknown))
    return code, new


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

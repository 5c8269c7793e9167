"""Parse, validate, filter and profile trip-record datasets.

Input is delimited text with a header row.  Bad rows are rejected with a
reason and counted, never silently dropped; a missing column, an unreadable
stream or a stop id given two coordinate pairs is fatal.

Accepted trips are held in one columnar `TripTable`: integer codes for card,
vehicle and stops over id-sorted vocabularies, float board and alight times,
and one (lat, lon) pair per stop.  The parser reads the body in blocks of
lines and turns each block into columns: numpy's C reader takes a
quote-free block it can read whole, ids as text and numbers as float64,
and the `csv` module any other (a blank line, a cell that is no number)
and after a quote the rest, since a quoted field may span blocks.
One vectorised checker then gives each row its first failing reason,
keeps each time column's format (epoch seconds or ISO-8601, fixed by its
first cell that parses), and codes the accepted rows into typed columns.

A file is parsed once.  Its table and report go to a hidden sidecar next to
it (`.trips.csv.table` for `trips.csv`), keyed by a hash of the file's
bytes, the delimiter and a hash of this module's source, and a later parse
with the same key reads them back after checking the `TripTable` contract.
A sidecar that is missing, stale, damaged or cannot be written costs only
the parse; it never changes a result.
"""

from __future__ import annotations

import csv
import json
import os
import stat
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib.util import source_hash
from itertools import chain, islice, repeat
from operator import add, itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

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

# bytes of a trip file hashed at a time: the file is never held whole
_HASH_CHUNK = 1 << 20

# the TripTable arrays in the order a sidecar stores them, with their stored dtypes
_SIDECAR_ARRAYS = (("stop_lat", "<f8"), ("stop_lon", "<f8"), ("card", "<i4"), ("vehicle", "<i4"),
                   ("board_stop", "<i4"), ("alight_stop", "<i4"), ("board", "<f8"), ("alight", "<f8"))


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
        return _table(self.cards, self.vehicles, self.stops, np.column_stack([self.stop_lat, self.stop_lon]),
                      self.card[rows], self.vehicle[rows], self.board_stop[rows], self.alight_stop[rows],
                      self.board[rows], self.alight[rows])


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
    """The ids that `codes` uses, sorted; the codes renumbered over them; their old codes.

    When every id is used and already in order, int32 `codes` come back as they are.
    """
    seen = np.zeros(len(ids), bool)
    seen[codes] = True  # not np.bincount, which first copies int32 codes to int64
    used = sorted(np.flatnonzero(seen).tolist(), key=ids.__getitem__)
    if used == list(range(len(ids))):
        return ids, codes.astype(np.int32, copy=False), np.arange(len(ids))
    code = np.zeros(len(ids), np.int32)
    code[used] = np.arange(len(used), dtype=np.int32)
    return [ids[i] for i in used], code[codes], np.array(used, np.int64)


@dataclass
class IngestReport:
    total_rows: int = 0
    accepted: int = 0
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str, rows: int = 1) -> None:
        self.rejected_by_reason[reason] = self.rejected_by_reason.get(reason, 0) + rows

    @property
    def rejected(self) -> int:
        return sum(self.rejected_by_reason.values())


def parse_trip_records(
    source: Union[str, Path, TextIO], delimiter: str = ","
) -> Tuple[TripTable, IngestReport]:
    """Read trip records from a delimited text source.

    Returns the accepted rows in input order plus an IngestReport whose
    counts reconcile exactly with the table.  Raises SchemaError when a
    required column is absent, OSError when the source cannot be read and
    ValueError when accepted rows give one stop id two coordinate pairs or
    when `delimiter` fails `check_delimiter`.

    A path to a regular file is parsed once: a successful parse is stored in
    the file's sidecar, and a later call for the same bytes, delimiter and
    parser returns the stored table and report.  Streams are always parsed.
    """
    check_delimiter(delimiter)
    if not isinstance(source, (str, Path)):
        return _parse_stream(source, delimiter)
    key = _source_key(source, delimiter)
    if key:
        stored = _read_sidecar(_sidecar(source), key)
        if stored:
            return stored
    with open(source, "r", newline="", encoding="utf-8") as fh:
        trips, report = _parse_stream(fh, delimiter)
    # a file that changed while it was parsed is not stored under either content's key
    if key and _source_key(source, delimiter) == key:
        _write_sidecar(_sidecar(source), key, trips, report)
    return trips, report


def _sidecar(path: Union[str, Path]) -> Path:
    """Where the parse of the file at `path` is kept: `.trips.csv.table` next to `trips.csv`."""
    path = Path(path)
    return path.with_name(f".{path.name}.table")


def _parser_identity() -> str:
    """A hash of this module's source and numpy's version: any other parser's sidecars are stale."""
    return f"{source_hash(Path(__file__).read_bytes()).hex()} numpy {np.__version__}"


def _source_key(path: Union[str, Path], delimiter: str) -> Optional[bytes]:
    """The first line a sidecar must start with to stand for `path` parsed with `delimiter`.

    It names a hash of the file's bytes, their count, the delimiter and the
    parser.  None when `path` is not a regular file that can be read: a
    pipe would be drained by the hashing.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        digests, size = [], 0
        chunk = memoryview(bytearray(_HASH_CHUNK))
        with open(path, "rb", buffering=0) as fh:
            while n := fh.readinto(chunk):
                digests.append(source_hash(chunk[:n]))
                size += n
        parser = _parser_identity()
    except OSError:
        return None
    key = {"bytes": size, "delimiter": delimiter, "hash": source_hash(b"".join(digests)).hex(), "parser": parser}
    return json.dumps(key, sort_keys=True).encode("ascii") + b"\n"


def _write_sidecar(path: Path, key: bytes, trips: TripTable, report: IngestReport) -> None:
    """Store a parse for `_read_sidecar`: the key line, a JSON header line, then the arrays' raw bytes.

    The header holds the report and the vocabularies; the arrays are stored
    little-endian in `_SIDECAR_ARRAYS` order.  The sidecar is written to a
    temporary file and renamed into place, so a reader finds a whole one or
    none; a directory that cannot be written, or a full disk, leaves none.
    """
    header = {"report": vars(report), "cards": trips.cards, "vehicles": trips.vehicles, "stops": trips.stops}
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as fh:
            fh.write(key + json.dumps(header).encode("ascii") + b"\n")
            for name, dtype in _SIDECAR_ARRAYS:
                fh.write(np.ascontiguousarray(getattr(trips, name), dtype))
        os.replace(temp, path)
    except OSError:
        try:
            os.unlink(temp)
        except OSError:
            pass


def _read_sidecar(path: Path, key: bytes) -> Optional[Tuple[TripTable, IngestReport]]:
    """The parse stored at `path` under `key`, or None when there is none or it fails a check."""
    try:
        with open(path, "rb") as fh:
            if fh.readline(len(key)) != key:
                return None
            header = json.loads(fh.readline())
            report = IngestReport(header["report"]["total_rows"], header["report"]["accepted"],
                                  header["report"]["rejected_by_reason"])
            vocabularies = header["cards"], header["vehicles"], header["stops"]
            if not (_reconciles(report) and all(map(_sorted_ids, vocabularies))):
                return None
            counts = [len(header["stops"])] * 2 + [report.accepted] * 6
            expected = sum(n * np.dtype(dtype).itemsize for n, (_, dtype) in zip(counts, _SIDECAR_ARRAYS))
            if os.fstat(fh.fileno()).st_size - fh.tell() != expected:
                return None
            arrays = {name: np.fromfile(fh, dtype, n).astype(dtype[1:], copy=False)
                      for n, (name, dtype) in zip(counts, _SIDECAR_ARRAYS)}
        trips = TripTable(*vocabularies, **arrays)
        return (trips, report) if _well_formed(trips) else None
    # a damaged header can fail as any of these, and a nested one as RecursionError
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return None


def _reconciles(report: IngestReport) -> bool:
    """Non-negative integer counts, known rejection reasons, and accepted plus rejected rows equal to all rows."""
    rejected = report.rejected_by_reason
    if not isinstance(rejected, dict):
        return False
    reasons = {REASON_MISSING_FIELD, REASON_BAD_TIMESTAMP, REASON_BAD_COORDINATE, REASON_NON_POSITIVE_DURATION}
    counts = [report.total_rows, report.accepted, *rejected.values()]
    return (all(type(n) is int and n >= 0 for n in counts) and set(rejected) <= reasons
            and 0 not in rejected.values() and report.total_rows == report.accepted + report.rejected)


def _sorted_ids(ids) -> bool:
    """A list of str in strictly increasing order."""
    return isinstance(ids, list) and all(isinstance(i, str) for i in ids) and all(map(str.__lt__, ids, ids[1:]))


def _well_formed(trips: TripTable) -> bool:
    """Whether the arrays keep the TripTable contract.

    Every code lies within its vocabulary, every id is used, every time is
    finite with board before alight, and every stop lies on the globe.
    """
    def uses_each(codes: np.ndarray, ids: List[str]) -> bool:
        counts = np.bincount(codes, minlength=len(ids))  # ValueError on a negative code
        return counts.size == len(ids) and bool(counts.all())

    stops = np.concatenate([trips.board_stop, trips.alight_stop])
    return (uses_each(trips.card, trips.cards) and uses_each(trips.vehicle, trips.vehicles)
            and uses_each(stops, trips.stops)
            and bool((np.isfinite(trips.board) & np.isfinite(trips.alight) & (trips.board < trips.alight)).all())
            and bool(((np.abs(trips.stop_lat) <= 90.0) & (np.abs(trips.stop_lon) <= 180.0)).all()))


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
    columns = _Columns()
    for cells, short in _blocks(stream, [positions[c] for c in REQUIRED_COLUMNS], delimiter, columns.dtype):
        columns.add(cells, short)
    return columns.table(), columns.report


def _blocks(stream: TextIO, idx: List[int], delimiter: str,
            dtype: Callable[[], np.dtype]) -> Iterator[Tuple[List[np.ndarray], np.ndarray]]:
    """The body a block at a time: the cells at `idx` of each row as columns, and which rows are too short for them.

    A quote-free block that numpy's C reader splits whole with the `dtype()`
    of that moment is read in one call.  Any other block, say with a blank
    line or a cell that is no number, goes through the `csv` module, and
    from the first quote on so does the rest of the stream, since a quoted
    field may span blocks.  Text cells come unstripped as str objects.
    """
    while lines := stream.readlines(_BLOCK_BYTES):
        text = "".join(lines)
        if '"' in text:
            yield from _csv_blocks(chain(lines, stream), idx, delimiter, len(lines))
            return
        # numpy's reader skips a blank line, which csv counts as a row, and takes a field
        # over the csv module's size limit, which csv refuses: such a block goes to csv
        if lines[0].strip() and max(map(len, lines)) <= csv.field_size_limit():
            try:
                cells = np.loadtxt(lines, delimiter=delimiter, usecols=idx, dtype=dtype(), comments=None,
                                   quotechar=None, ndmin=1)
            except ValueError:
                cells = ()
            if len(cells) == len(lines):
                yield [cells[c] for c in REQUIRED_COLUMNS], np.zeros(len(lines), bool)
                continue
        yield from _csv_blocks(lines, idx, delimiter, len(lines))


def _csv_blocks(lines: Iterable[str], idx: List[int], delimiter: str,
                block_rows: int) -> Iterator[Tuple[List[np.ndarray], np.ndarray]]:
    """`_blocks` for lines read by the `csv` module, `block_rows` rows at a time.

    A csv error is raised once the rows before it are yielded, so a stop
    conflict among them still comes first.
    """
    reader = csv.reader(lines, delimiter=delimiter)
    width = max(idx) + 1
    pad = [""] * width
    while True:
        rows: List[List[str]] = []
        error = None
        try:
            rows.extend(islice(reader, block_rows))  # keeps the rows read before an error
        except csv.Error as exc:
            error = exc
        if rows:
            short = np.fromiter(map(len, rows), np.intp, len(rows)) < width
            # a short row is padded with empty cells, which `short` overrides
            cells = list(map(itemgetter(*idx), map(add, rows, repeat(pad))))
            yield list(np.array(cells, object).T), short
        if error is not None:
            raise error
        if len(rows) < block_rows:
            return


class _Columns:
    """Rows accepted so far as typed columns, and the report, one block of rows at a time.

    The vocabularies code every id a row names, accepted or not; a stop's
    coordinates are NaN until a row with it is accepted, and `table` keeps
    only what accepted rows use.  Each time column keeps its format across
    blocks: None until one of its cells parses, then whether it is ISO-8601.
    """

    def __init__(self) -> None:
        self.board_iso: Optional[bool] = None
        self.alight_iso: Optional[bool] = None
        self.cards, self.vehicles, self.stops = {}, {}, {}  # id -> code
        self.stop_coords = np.empty((0, 2))  # (lat, lon) by stop code
        self.card, self.vehicle, self.board_stop, self.alight_stop = (array("i") for _ in range(4))
        self.board, self.alight = array("d"), array("d")
        self.report = IngestReport()

    def dtype(self) -> np.dtype:
        """How numpy's reader reads the next block: ids, and times locked to ISO-8601, as text, the rest as float64."""
        text = {"board_time": self.board_iso, "alight_time": self.alight_iso}
        return np.dtype([(c, object if c.endswith("_id") or text.get(c) else np.float64) for c in REQUIRED_COLUMNS])

    def add(self, cells: Sequence[np.ndarray], short: np.ndarray) -> None:
        """Check one block's rows, count each rejected row under its first failing reason, keep the rest.

        `cells` holds a column per entry of `REQUIRED_COLUMNS`, as `_blocks`
        gives them, and `short` the rows too short to hold them.  The first
        row that gives a stop other coordinates than its first accepted row
        raises ValueError.
        """
        card, vehicle = _codes(self.cards, cells[0]), _codes(self.vehicles, cells[1])
        # each row's board point, then its alight point: stop code, latitude, longitude
        stop = _codes(self.stops, np.stack([cells[4], cells[7]], 1).ravel())
        lat = _floats(np.stack([cells[5], cells[8]], 1).ravel())
        lon = _floats(np.stack([cells[6], cells[9]], 1).ravel())
        coded, on_globe = stop >= 0, (np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0)
        missing = short | (card < 0) | (vehicle < 0) | ~(coded[0::2] & coded[1::2])
        # a row that misses a field parses no time, so it locks no format
        board, self.board_iso = _times(cells[2], ~missing, self.board_iso)
        alight, self.alight_iso = _times(cells[3], ~missing, self.alight_iso)
        timed = ~(missing | np.isnan(board) | np.isnan(alight))
        placed = timed & on_globe[0::2] & on_globe[1::2]
        accepted = placed & (board < alight)
        report = self.report
        report.total_rows += len(short)
        report.accepted += int(np.count_nonzero(accepted))
        for reason, rejected in ((REASON_MISSING_FIELD, missing), (REASON_BAD_TIMESTAMP, ~(missing | timed)),
                                 (REASON_BAD_COORDINATE, timed & ~placed),
                                 (REASON_NON_POSITIVE_DURATION, placed & ~accepted)):
            if rejected.any():
                report.reject(reason, int(np.count_nonzero(rejected)))

        # the accepted rows' points in the order the rows meet them
        points = np.repeat(accepted, 2)
        stop, lat, lon = stop[points], lat[points], lon[points]
        known = np.concatenate([self.stop_coords, np.full((len(self.stops) - len(self.stop_coords), 2), np.nan)])
        # a stop no earlier row placed takes the coordinates of its first row here
        fresh = np.flatnonzero(np.isnan(known[stop, 0]))
        codes, first = np.unique(stop[fresh], return_index=True)
        known[codes, 0], known[codes, 1] = lat[fresh[first]], lon[fresh[first]]
        moved = np.flatnonzero((known[stop, 0] != lat) | (known[stop, 1] != lon))
        if moved.size:
            at = moved[0]
            raise ValueError(f"stop {list(self.stops)[stop[at]]!r} has two coordinate pairs: "
                             f"{tuple(known[stop[at]].tolist())} and {(float(lat[at]), float(lon[at]))}")
        self.stop_coords = known
        for acc, values in ((self.card, card[accepted]), (self.vehicle, vehicle[accepted]),
                            (self.board_stop, stop[0::2]), (self.alight_stop, stop[1::2]),
                            (self.board, board[accepted]), (self.alight, alight[accepted])):
            acc.frombytes(values.tobytes())

    def table(self) -> TripTable:
        codes = (np.frombuffer(c, np.int32) for c in (self.card, self.vehicle, self.board_stop, self.alight_stop))
        return _table(list(self.cards), list(self.vehicles), list(self.stops), self.stop_coords, *codes,
                      np.frombuffer(self.board), np.frombuffer(self.alight))


def _codes(vocab: Dict[str, int], cells: np.ndarray) -> np.ndarray:
    """Each cell's int32 code over `vocab` once stripped, -1 where it strips to nothing.

    `vocab` takes the ids it lacks, in first-appearance order.
    """
    cells = cells.tolist()
    code = np.fromiter(map(vocab.get, cells, repeat(-1)), np.int32, len(cells))
    unknown = np.flatnonzero(code < 0).tolist()
    if unknown:
        # ids not seen before, or cells that need stripping
        raw = [cells[i] for i in unknown]
        local = {}
        for cell in dict.fromkeys(raw):
            ident = cell.strip()
            local[cell] = vocab.setdefault(ident, len(vocab)) if ident else -1
        code[unknown] = np.fromiter(map(local.__getitem__, raw), np.int32, len(raw))
    return code


def _times(cells: np.ndarray, eligible: np.ndarray, iso: Optional[bool]) -> Tuple[np.ndarray, Optional[bool]]:
    """Each cell of one time column as seconds since the Unix epoch, and the column's format after them.

    A cell that is no time in the column's format reads NaN.  `iso` is the
    format so far: None until an `eligible` cell parses, then whether it is
    ISO-8601.  The first eligible cell that parses, as finite epoch seconds
    before ISO-8601, locks it.
    """
    if iso is None:
        candidates = cells[eligible]
        at = np.flatnonzero(~np.isnan(_floats(candidates)))
        # the cells before the first epoch time are no times, or one of them locks ISO;
        # a cell numpy's reader read as a number is none
        before = candidates[:at[0] if at.size else len(candidates)]
        if before.dtype == object and not np.isnan(_iso_seconds(before)).all():
            iso = True
        elif at.size:
            iso = False
    return (_iso_seconds(cells) if iso else _floats(cells)), iso


def _floats(cells: np.ndarray) -> np.ndarray:
    """Each cell as Python's `float` reads it once stripped, NaN where that is no finite number.

    numpy's reader reads no number `float` refuses, and the cast of str cells
    calls `float`: only a block whose cast fails is read cell by cell.
    """
    try:
        values = cells.astype(np.float64, copy=False)
    except ValueError:
        values = np.fromiter(map(_float, cells.ravel().tolist()), np.float64, cells.size).reshape(cells.shape)
    return np.where(np.isfinite(values), values, np.nan)


def _float(cell: str) -> float:
    try:
        return float(cell.strip())
    except ValueError:
        return np.nan


def _iso_seconds(cells: np.ndarray) -> np.ndarray:
    """Each cell as ISO-8601 seconds since the Unix epoch, naive times as UTC, NaN where it is none."""
    cells = cells.tolist()
    return np.fromiter(map(_parse_iso, cells), np.float64, len(cells))


def _parse_iso(text: str) -> float:
    text = text.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        return np.nan
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def filter_by_min_trips(trips: TripTable, threshold: int) -> TripTable:
    """Drop all rows of cards with fewer than `threshold` trips.

    Surviving rows keep their values and their order; when no card falls
    below the threshold the result is `trips` itself.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    keep = _trips_per_card(trips) >= threshold
    return trips if keep.all() else trips.take(keep[trips.card])


def _trips_per_card(trips: TripTable) -> np.ndarray:
    return np.bincount(trips.card, minlength=len(trips.cards))


def trip_frequency_distribution(trips: TripTable) -> Dict[int, int]:
    """Histogram of trips-per-card: {trip count -> number of cards}."""
    values, n = np.unique(_trips_per_card(trips), return_counts=True)
    return dict(zip(values.tolist(), n.tolist()))


def check_thresholds(thresholds: Sequence[int]) -> None:
    """Raise ValueError unless the thresholds are strictly increasing."""
    for a, b in zip(thresholds, thresholds[1:]):
        if not a < b:
            raise ValueError(f"thresholds must be strictly increasing, got {a} before {b}")


def population_vs_threshold(trips: TripTable, thresholds: Sequence[int]) -> List[Tuple[int, int]]:
    """Surviving population size for each minimum-trip threshold.

    Thresholds must be strictly increasing; the resulting populations are
    non-increasing.
    """
    check_thresholds(thresholds)
    values = np.sort(_trips_per_card(trips))
    # cards with count >= t are those right of the leftmost insertion point
    return [(t, int(values.size - np.searchsorted(values, t))) for t in thresholds]


def write_trip_csv(trips: TripTable, path: Union[str, Path]) -> None:
    """Write a table in the canonical trip CSV schema, one block of rows at a time.

    The bytes are those of `csv.writer` writing each row in the default
    dialect.  A time that is not finite raises ValueError naming its row
    before the file is opened.
    """
    finite = np.isfinite(trips.board) & np.isfinite(trips.alight)
    if not finite.all():
        at = int(np.argmin(finite))
        raise ValueError(f"trip row {at} has a time that is not finite: board {float(trips.board[at])}, "
                         f"alight {float(trips.alight[at])}")
    # each id as the rows' writer quotes it: writerow returns what the file's write
    # returns, here the line, and an empty second field keeps an empty id unquoted
    line = csv.writer(SimpleNamespace(write=str)).writerow
    cards, vehicles, stops = ([line((i, ""))[:-3] for i in ids] for ids in (trips.cards, trips.vehicles, trips.stops))
    stops = [f"{s},{lat:.6f},{lon:.6f}" for s, lat, lon in zip(stops, trips.stop_lat.tolist(), trips.stop_lon.tolist())]
    cards, vehicles, stops = (np.array(text, object) for text in (cards, vehicles, stops))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(REQUIRED_COLUMNS)
        for lo in range(0, len(trips), BLOCK_ROWS):
            rows = slice(lo, lo + BLOCK_ROWS)
            columns = (cards[trips.card[rows]].tolist(), vehicles[trips.vehicle[rows]].tolist(),
                       _time_text(trips.board[rows]), _time_text(trips.alight[rows]),
                       stops[trips.board_stop[rows]].tolist(), stops[trips.alight_stop[rows]].tolist())
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _time_text(times: np.ndarray) -> List[str]:
    """Each finite time as `_format_time` writes it, through int64 when every one is integral and fits."""
    if ((times == np.trunc(times)) & (np.abs(times) < 2.0 ** 63)).all():
        return list(map(str, times.astype(np.int64).tolist()))
    return list(map(_format_time, times.tolist()))


def _format_time(t: float) -> str:
    if t == int(t):
        return str(int(t))
    return repr(t)

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import random
import tempfile
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import same_table, table, trip
from oracles import parse_reference, write_reference
from transitepi import ingest
from transitepi.synth import SynthConfig, synthesize
from transitepi.ingest import (
    REQUIRED_COLUMNS,
    IngestReport,
    SchemaError,
    TripTable,
    filter_by_min_trips,
    parse_trip_records,
    population_vs_threshold,
    trip_frequency_distribution,
    write_trip_csv,
)

HEADER = ",".join(REQUIRED_COLUMNS)


def row(card="c1", veh="v1", board="100", alight="200", bstop="sA", blat="-33.8", blon="151.2",
        astop="sB", alat="-33.9", alon="151.3"):
    return ",".join([card, veh, board, alight, bstop, blat, blon, astop, alat, alon])


def parse_text(text: str):
    return parse_trip_records(io.StringIO(text))


@pytest.fixture
def local_zone_not_utc(monkeypatch):
    """The process's local time zone set to UTC+10 for the test: naive ISO times must still read as UTC."""
    monkeypatch.setenv("TZ", "AEST-10")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


class TestParse:
    def test_well_formed_three_rows(self):
        text = "\n".join([HEADER, row(card="a"), row(card="b"), row(card="c")]) + "\n"
        records, report = parse_text(text)
        assert len(records) == 3
        assert report.total_rows == 3
        assert report.accepted == 3
        assert report.rejected_by_reason == {}
        assert [records.cards[c] for c in records.card] == ["a", "b", "c"]

    def test_non_positive_duration_rejected(self):
        text = "\n".join([HEADER, row(board="200", alight="200")]) + "\n"
        records, report = parse_text(text)
        assert len(records) == 0
        assert report.rejected_by_reason == {"non-positive duration": 1}

    def test_one_bad_timestamp_among_five(self):
        rows = [row(card=f"c{i}") for i in range(4)] + [row(card="bad", board="not-a-time")]
        records, report = parse_text("\n".join([HEADER] + rows) + "\n")
        assert len(records) == 4
        assert report.total_rows == 5
        assert report.rejected_by_reason == {"bad timestamp": 1}

    @pytest.mark.parametrize(
        "board, alight",
        [("100", "inf"), ("100", "1e400"), ("inf", "200"), ("nan", "200"), ("100", "nan")],
    )
    def test_non_finite_timestamp_is_bad_timestamp(self, board, alight):
        rows = [row(card="ok"), row(card="bad", board=board, alight=alight)]
        records, report = parse_text("\n".join([HEADER] + rows) + "\n")
        assert records.cards == ["ok"]
        assert report.rejected_by_reason == {"bad timestamp": 1}

    def test_missing_column_is_fatal(self):
        header = HEADER.replace("alight_time,", "")
        with pytest.raises(SchemaError, match="alight_time"):
            parse_text(header + "\n" + row())

    def test_iso_timestamps(self, local_zone_not_utc):
        text = "\n".join(
            [HEADER, row(board="2017-04-01T08:00:00", alight="2017-04-01T08:10:00")]
        )
        records, _ = parse_text(text)
        assert records.alight[0] - records.board[0] == 600.0
        assert records.board[0] == 1_491_033_600.0  # naive is UTC

    def test_mixed_timestamp_formats_in_column_rejected(self):
        rows = [row(board="100"), row(board="2017-04-01T08:00:00", alight="9999999999")]
        records, report = parse_text("\n".join([HEADER] + rows))
        assert len(records) == 1
        assert report.rejected_by_reason == {"bad timestamp": 1}

    def test_bad_coordinate_rejected(self):
        rows = [row(blat="91.0"), row(blon="oops")]
        records, report = parse_text("\n".join([HEADER] + rows))
        assert len(records) == 0
        assert report.rejected_by_reason == {"bad coordinate": 2}

    def test_short_row_rejected(self):
        records, report = parse_text("\n".join([HEADER, "c1,v1,100"]))
        assert len(records) == 0
        assert report.rejected_by_reason == {"missing field": 1}

    def test_custom_delimiter(self):
        text = "\n".join([HEADER.replace(",", ";"), row().replace(",", ";")])
        records, report = parse_trip_records(io.StringIO(text), delimiter=";")
        assert report.accepted == 1

    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\r", "\n"])
    def test_bad_delimiter_rejected_before_reading(self, delimiter):
        with pytest.raises(ValueError, match="delimiter"):
            parse_trip_records("does-not-exist.csv", delimiter)

    def test_unreadable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            parse_trip_records(tmp_path / "does-not-exist.csv")

    def test_report_reconciles(self):
        rows = [row(), row(board="x"), row(alight="50"), row(blat="999")]
        records, report = parse_text("\n".join([HEADER] + rows))
        assert report.accepted == len(records)
        assert report.accepted + report.rejected == report.total_rows

    def test_stop_with_two_coordinate_pairs_rejected(self):
        rows = [row(card="a"), row(card="b", astop="sA", alat="-33.8", alon="151.25")]
        with pytest.raises(ValueError, match="'sA'"):
            parse_text("\n".join([HEADER] + rows))

    @pytest.mark.parametrize("rows, message", [
        # sB first appears as an alight stop; its conflict comes before sA's in row order
        ([row(), row(bstop="sC", astop="sB", alat="0"), row(blat="0")],
         "stop 'sB' has two coordinate pairs: (-33.9, 151.3) and (0.0, 151.3)"),
        # within a row the board stop comes first
        ([row(), row(blat="1", alat="2")], "stop 'sA' has two coordinate pairs: (-33.8, 151.2) and (1.0, 151.2)"),
    ])
    def test_first_conflict_in_row_order_is_named(self, rows, message):
        with pytest.raises(ValueError) as err:
            parse_text("\n".join([HEADER] + rows))
        assert str(err.value) == message

    def test_every_reason_and_a_late_iso_lock(self):
        # the first cell that parses locks a column's format; rows that fail
        # the missing-field check, or carry an empty time, lock nothing
        iso = "2017-04-01T{:02d}:00:00+00:00".format
        rows = [
            "c1,v1,100",  # missing field: short row
            row(card=""),  # missing field: empty id
            row(board="", alight=""),  # bad timestamp that locks no format
            row(card="c2", board=iso(8), alight=iso(9)),  # locks ISO
            row(card="c3", board="100", alight="200"),  # bad timestamp: epoch after the lock
            row(card="c4", board=iso(9), alight=iso(10), blat="95"),  # bad coordinate
            row(card="c5", board=iso(11), alight=iso(10)),  # non-positive duration
            row(card="c0", veh="v2", board=iso(12), alight=iso(13), astop="sC", alat="-33.7"),
        ]
        trips, report = parse_text("\n".join([HEADER] + rows) + "\n")
        assert report == IngestReport(8, 2, {
            "missing field": 2, "bad timestamp": 2, "bad coordinate": 1, "non-positive duration": 1,
        })
        assert trips.cards == ["c0", "c2"] and trips.vehicles == ["v1", "v2"]
        assert trips.stops == ["sA", "sB", "sC"]
        assert trips.card.tolist() == [1, 0] and trips.vehicle.tolist() == [0, 1]
        assert trips.board_stop.tolist() == [0, 0] and trips.alight_stop.tolist() == [1, 2]
        day = 1_491_004_800.0
        assert trips.board.tolist() == [day + 8 * 3600, day + 12 * 3600]
        assert trips.alight.tolist() == [day + 9 * 3600, day + 13 * 3600]
        assert trips.stop_lat.tolist() == [-33.8, -33.9, -33.7]
        assert trips.stop_lon.tolist() == [151.2, 151.3, 151.3]

    def test_loop_trip_allowed(self):
        records, report = parse_text("\n".join([HEADER, row(astop="sA", alat="-33.8", alon="151.2")]))
        assert report.accepted == 1
        assert records.board_stop[0] == records.alight_stop[0]


def make_records(counts: dict[str, int]):
    records = []
    t = 0
    for card, n in counts.items():
        for _ in range(n):
            records.append(trip(card, "v1", float(t), float(t + 5)))
            t += 10
    return table(records)


class TestFilter:
    def test_threshold_keeps_frequent_card_only(self):
        records = make_records({"A": 16, "B": 2})
        out = filter_by_min_trips(records, 15)
        assert out.cards == ["A"]
        assert len(out) == 16

    def test_threshold_one_is_identity(self):
        records = make_records({"A": 3, "B": 1})
        assert same_table(filter_by_min_trips(records, 1), records)

    @given(st.dictionaries(st.text(alphabet="abcdef", min_size=1, max_size=3),
                           st.integers(min_value=1, max_value=20), max_size=8),
           st.integers(min_value=1, max_value=10))
    def test_no_card_dropped_returns_the_table_itself(self, counts, threshold):
        records = make_records(counts)
        out = filter_by_min_trips(records, threshold)
        keep = np.array([counts[records.cards[c]] >= threshold for c in records.card.tolist()], bool)
        if keep.all():
            assert out is records
        else:
            assert same_table(out, records.take(keep))

    def test_all_below_threshold(self):
        records = make_records({"A": 3, "B": 1})
        assert len(filter_by_min_trips(records, 10)) == 0

    def test_threshold_zero_rejected(self):
        with pytest.raises(ValueError):
            filter_by_min_trips(table([]), 0)

    @given(st.dictionaries(st.text(alphabet="abcdef", min_size=1, max_size=3),
                           st.integers(min_value=1, max_value=20), max_size=8),
           st.integers(min_value=1, max_value=10))
    def test_idempotent(self, counts, threshold):
        records = make_records(counts)
        once = filter_by_min_trips(records, threshold)
        assert same_table(filter_by_min_trips(once, threshold), once)

    @given(st.dictionaries(st.text(alphabet="abcdef", min_size=1, max_size=3),
                           st.integers(min_value=1, max_value=20), max_size=8),
           st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10))
    def test_nested_survivors(self, counts, t1, extra):
        t2 = t1 + extra
        records = make_records(counts)
        low = set(filter_by_min_trips(records, t1).cards)
        high = set(filter_by_min_trips(records, t2).cards)
        assert high <= low


class TestDistributions:
    def test_simple_histogram(self):
        hist = trip_frequency_distribution(make_records({"a": 1, "b": 1, "c": 2}))
        assert hist == {1: 2, 2: 1}

    def test_empty(self):
        assert trip_frequency_distribution(table([])) == {}

    def test_three_cards_fifteen_trips(self):
        hist = trip_frequency_distribution(make_records({"a": 15, "b": 15, "c": 15}))
        assert hist == {15: 3}

    def test_histogram_sums_to_card_count(self):
        records = make_records({"a": 4, "b": 9, "c": 1, "d": 9})
        hist = trip_frequency_distribution(records)
        assert sum(hist.values()) == 4

    def test_population_curve_example(self):
        records = make_records({"a": 1, "b": 2, "c": 16})
        assert population_vs_threshold(records, [1, 2, 15]) == [(1, 3), (2, 2), (15, 1)]

    def test_population_single_threshold(self):
        records = make_records({"a": 1, "b": 2, "c": 16})
        assert population_vs_threshold(records, [1]) == [(1, 3)]

    def test_population_curve_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            population_vs_threshold(table([]), [2, 2])

    def test_population_curve_matches_filter_oracle(self):
        rnd = random.Random(5)
        counts = {f"c{i}": rnd.randint(1, 30) for i in range(40)}
        records = make_records(counts)
        thresholds = [1, 3, 7, 15, 29]
        curve = population_vs_threshold(records, thresholds)
        for t, pop in curve:
            survivors = set(filter_by_min_trips(records, t).cards)
            assert pop == len(survivors)
        pops = [p for _, p in curve]
        assert pops == sorted(pops, reverse=True)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_written_blocks_change_nothing(tmp_path, monkeypatch, block):
    records = make_records({"a": 2, "b": 3})
    write_trip_csv(records, tmp_path / "whole.csv")
    monkeypatch.setattr(ingest, "BLOCK_ROWS", block)
    write_trip_csv(records, tmp_path / "blocked.csv")
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


# ids the csv module must quote, or must not touch, and times on either side of
# the integral, 2**53 and int64 limits
WRITER_ID_TEXT = [",", '"', "\r", "\n", " ", "é", "日", "a", "7"]
WRITER_IDS = st.text(
    st.one_of(st.sampled_from(WRITER_ID_TEXT), st.characters(codec="utf-8", exclude_characters="\x00")), max_size=5)
WRITER_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 100.0, 1.5, -1.5, -7.0, 2.0 ** 53, 2.0 ** 53 + 2, -(2.0 ** 53) - 2, 2.0 ** 63 - 1024,
                     2.0 ** 63, -(2.0 ** 63), -(2.0 ** 63) - 2048, 2.0 ** 64, 1e300, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2 ** 70), 2 ** 70).map(float))


@st.composite
def writer_tables(draw):
    """A table of odd ids, times and coordinates; a single time column may mix integral and fractional times."""
    stops = draw(st.lists(st.tuples(WRITER_IDS, st.floats(-90, 90), st.floats(-180, 180)), min_size=1, max_size=4))
    stop = st.sampled_from(stops)
    rides = draw(st.lists(st.builds(trip, WRITER_IDS, WRITER_IDS, WRITER_TIMES, WRITER_TIMES, stop, stop),
                          max_size=12))
    return table(rides)


@given(trips=writer_tables(), block=st.integers(1, 4))
@example(trips=table([trip(card, vehicle, board, alight, (stop, -0.0, 180.0), (stop[::-1], -33.8, 151.2))
                      for card, vehicle, stop, (board, alight) in zip(
                          [" c1", "c2 ", "c,3", 'c"4', "c\r5", "c\n6", "ć7", ""],
                          ["v 1", "v,2", '"v3"', "v\r\n4", "vé5", " ", "v7", "v8"],
                          [" s", "s,", 's"', "s\n", "s\r", "ś", "", "s 8"],
                          [(100.0, 200.5), (-0.0, 1.0), (-5.0, -2.5), (2.0 ** 53, 2.0 ** 53 + 2),
                           (2.0 ** 63 - 1024, 2.0 ** 63), (-(2.0 ** 63), 2.0 ** 64), (1e300, 1e301), (0.1, 0.2)])]),
         block=3)
def test_written_bytes_match_the_reference_row_loop(trips, block):
    with tempfile.TemporaryDirectory() as work:
        write_reference(trips, Path(work) / "reference.csv")
        with mock.patch.object(ingest, "BLOCK_ROWS", block):
            write_trip_csv(trips, Path(work) / "trips.csv")
        assert (Path(work) / "trips.csv").read_bytes() == (Path(work) / "reference.csv").read_bytes()


@given(trips=writer_tables(), data=st.data())
def test_take_is_a_table_of_the_selected_rows(trips, data):
    """The vocabularies shrink to the ids the selected rows use, and each kept stop keeps its own coordinates."""
    n = len(trips)
    rows = data.draw(st.one_of(st.lists(st.booleans(), min_size=n, max_size=n).map(lambda m: np.array(m, bool)),
                               st.lists(st.integers(0, n - 1) if n else st.nothing()).map(lambda i: np.array(i, int))))
    stops = dict(zip(trips.stops, zip(trips.stop_lat.tolist(), trips.stop_lon.tolist())))
    want = TripTable.from_columns(
        [trips.cards[c] for c in trips.card[rows]], [trips.vehicles[v] for v in trips.vehicle[rows]],
        trips.board[rows], trips.alight[rows], [trips.stops[s] for s in trips.board_stop[rows]],
        [trips.stops[s] for s in trips.alight_stop[rows]], stops)
    assert same_table(trips.take(rows), want)


@pytest.mark.parametrize("column", ["board", "alight"])
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_time_is_refused_before_the_file_is_opened(tmp_path, column, bad):
    records = make_records({"a": 2, "b": 3})
    getattr(records, column)[3] = bad
    getattr(records, column)[4] = bad
    with pytest.raises(ValueError, match="trip row 3 has a time that is not finite"):
        write_trip_csv(records, tmp_path / "trips.csv")
    assert not (tmp_path / "trips.csv").exists()


def test_csv_round_trip(tmp_path):
    records = make_records({"a": 2, "b": 3})
    path = tmp_path / "trips.csv"
    write_trip_csv(records, path)
    back, report = parse_trip_records(path)
    assert report.rejected == 0
    assert same_table(back, records)


def test_reordered_and_extra_columns_accepted():
    header = "extra,alight_lon,alight_lat,alight_stop_id,board_lon,board_lat,board_stop_id,alight_time,board_time,vehicle_id,card_id"
    body = "x,151.3,-33.9,sB,151.2,-33.8,sA,200,100,v1,c1"
    records, report = parse_text("\n".join([header, body]))
    assert report.accepted == 1
    assert records.cards == ["c1"]
    assert records.stops[records.board_stop[0]] == "sA"
    assert records.board[0] == 100.0


def test_header_only_file_is_empty_not_error():
    records, report = parse_text(HEADER + "\n")
    assert len(records) == 0
    assert report.total_rows == 0


# Cells for the comparison with the reference row loop: clean ones, then odd
# ones that a row may carry in one cell.  Clean times are seconds after DAY0,
# written in the file's time format.
DAY0 = 1_491_004_800  # 2017-04-01T00:00:00Z
CLEAN = {"card_id": ["c1", "c2", "c3"], "vehicle_id": ["v1", "v2"], "board_time": [100, 150.5],
         "alight_time": [300, 250], "board_stop_id": ["sA", "sB", "sC"], "alight_stop_id": ["sB", "sC", "sA"]}
STOPS = {"sA": ("-33.8", "151.2"), "sB": ("-33.9", "151.3"), "sC": ("-33.7", "151.1")}
ODD_IDS = [" c1", "c2\x00", "\x00", "", "  ", "c\r1", "sA ", "\tsB"]
ODD_TIMES = [" 120 ", "nan", "-inf", "inf", "1e400", "1_000", "١٢", "", "x", "100", "2017-04-01T08:00:00",
             " 2017-04-01T08:00:00Z ", "2017-04-01T08:00:00+10:00", "20170401", "１２"]
ODD_COORDS = ["-33.80", " -33.9", "0", "151.3", "91", "-181", "nan", "oops", "", "4\x1c", "\u2003-33.8"]
LINE_KINDS = ["row"] * 6 + ["odd cell", "odd cell", "odd cells", "blank", "space", "short", "extra", "quoted",
                            "quoted newline"]


def naive_utc(t: float) -> str:
    return datetime.fromtimestamp(DAY0 + t, timezone.utc).replace(tzinfo=None).isoformat()


TIME_FORMATS = {
    "epoch": lambda t: ingest._format_time(DAY0 + t),
    "iso": naive_utc,
    "iso with Z": lambda t: naive_utc(t) + "Z",
    "iso with offset": lambda t: datetime.fromtimestamp(DAY0 + t, timezone(timedelta(hours=-5))).isoformat(),
}


@st.composite
def trip_csv(draw):
    """A trip file as text, with its delimiter; one time format per file."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    time_format = TIME_FORMATS[draw(st.sampled_from(sorted(TIME_FORMATS)))]
    header = draw(st.permutations(REQUIRED_COLUMNS + ("extra",)))
    lines = [delimiter.join(header)]
    for _ in range(draw(st.integers(0, 30))):
        cells = {c: draw(st.sampled_from(pool)) for c, pool in CLEAN.items()}
        for prefix in ("board", "alight"):
            cells[f"{prefix}_time"] = time_format(cells[f"{prefix}_time"])
            cells[f"{prefix}_lat"], cells[f"{prefix}_lon"] = STOPS[cells[f"{prefix}_stop_id"]]
        cells["extra"] = "x"
        kind = draw(st.sampled_from(LINE_KINDS))
        odd = {"odd cell": 1, "odd cells": 2}.get(kind, 0)
        for column in draw(st.sets(st.sampled_from(REQUIRED_COLUMNS), min_size=odd, max_size=odd)):
            pool = ODD_IDS if column.endswith("_id") else ODD_TIMES if column.endswith("_time") else ODD_COORDS
            cells[column] = draw(st.sampled_from(pool))
        line = [cells[c] for c in header]
        if kind == "blank":
            line = []
        elif kind == "space":
            line = ["  "]
        elif kind == "short":
            line = line[:draw(st.integers(1, len(line) - 1))]
        elif kind == "extra":
            line += ["more", "cells"]
        elif kind.startswith("quoted"):
            at = header.index(draw(st.sampled_from(["card_id", "vehicle_id", "board_time", "extra"])))
            line[at] = '"' + line[at] + ("\n" if kind == "quoted newline" else "") + '"'
        lines.append(delimiter.join(line))
    return delimiter, end.join(lines) + draw(st.sampled_from([end, ""]))


TABLE_ARRAYS = ("stop_lat", "stop_lon", "card", "vehicle", "board_stop", "alight_stop", "board", "alight")


def outcome(parse, source, delimiter: str):
    """A parse as comparable values: every column with its dtype, the vocabularies and the report, or the error."""
    try:
        trips, report = parse(source, delimiter)
    except (ValueError, SchemaError, csv.Error) as exc:
        return type(exc), str(exc)
    columns = {c: (getattr(trips, c).tolist(), getattr(trips, c).dtype) for c in TABLE_ARRAYS}
    return trips.cards, trips.vehicles, trips.stops, columns, report


def parse_outcome(text: str, delimiter: str):
    """`outcome` of `parse_trip_records` on `text` as a stream."""
    return outcome(parse_trip_records, io.StringIO(text, newline=""), delimiter)


def reference_outcome(text: str, delimiter: str):
    """`outcome` of the reference row loop on `text`."""
    return outcome(parse_reference, io.StringIO(text, newline=""), delimiter)


SIDECAR = ".trips.csv.table"


def not_parsed():
    return mock.patch.object(ingest, "_parse_stream", side_effect=AssertionError("parsed, not read from the sidecar"))


def file_outcome(text: str, delimiter: str):
    """`outcome` of `parse_trip_records` on `text` saved as a file, parsed cold and then warm.

    The cold parse stores a sidecar unless it raises, and the warm one reads
    it back with the same outcome.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trips.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        cold = outcome(parse_trip_records, path, delimiter)
        stored = (Path(tmp) / SIDECAR).exists()
        assert stored == (len(cold) != 2)  # an error outcome is (type, message)
        with not_parsed() if stored else contextlib.nullcontext():
            assert outcome(parse_trip_records, path, delimiter) == cold
        return cold


def iso_copy(text: str) -> str:
    """A trip CSV with its epoch times written as ISO-8601 UTC date-times."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    times = [rows[0].index("board_time"), rows[0].index("alight_time")]
    for row in rows[1:]:
        for i in times:
            row[i] = datetime.fromtimestamp(float(row[i]), timezone.utc).isoformat()
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue()


@pytest.mark.filterwarnings("error")
class TestBlocks:
    """Every block parses exactly as the reference row loop: on a stream, cold from a file, warm from its sidecar."""

    @settings(max_examples=300, deadline=None)
    @given(trip_csv(), st.sampled_from([1, 64, 300, 1 << 18]))
    @example((",", "\n".join([HEADER, row(card='"c\n1"'), row(card="c2"), row(card="c3")]) + "\n"), 1)
    def test_same_as_row_loop(self, case, block_bytes):
        delimiter, text = case
        want = reference_outcome(text, delimiter)
        with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
            assert parse_outcome(text, delimiter) == want
            assert file_outcome(text, delimiter) == want

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    @pytest.mark.parametrize("time_format", ["epoch", "iso with offset"])
    def test_each_odd_line_same_as_row_loop(self, delimiter, time_format, local_zone_not_utc):
        # one odd line before or between clean ones, alone in its block or in one block with them
        times = {"board": TIME_FORMATS[time_format](100), "alight": TIME_FORMATS[time_format](200)}
        clean = dict(zip(REQUIRED_COLUMNS, row(**times).split(",")))
        odd = [dict(clean, **{c: v}) for c in REQUIRED_COLUMNS
               for v in (ODD_IDS if c.endswith("_id") else ODD_TIMES if c.endswith("_time") else ODD_COORDS)]
        lines = [",".join(cells.values()) for cells in odd]
        lines += ["", "  ", "c1,v1,100", row(**times) + ",more", row(card='"c1"', **times),
                  row(card='"c\n1"', **times), row(card="c" * (csv.field_size_limit() + 1), **times)]
        for line, at, block_bytes in itertools.product(lines, (0, 1), (1, 1 << 18)):
            body = [row(**times), row(card="c2", **times)]
            body.insert(at, line)
            text = "\r\n".join([HEADER, *body]).replace(",", delimiter) + "\r\n"
            want = reference_outcome(text, delimiter)
            with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
                assert parse_outcome(text, delimiter) == want, (line, at, block_bytes)
                assert file_outcome(text, delimiter) == want, (line, at, block_bytes)

    @pytest.mark.parametrize("first, then", [
        # epoch times lock both columns to epoch, so later ISO rows are bad timestamps
        ("100", "2017-04-01T08:00:00"),
        # and ISO times lock them to ISO, so later epoch rows are
        ("2017-04-01T08:00:00", "100"),
    ])
    @pytest.mark.parametrize("block_bytes", [1, 1 << 18])
    @pytest.mark.parametrize("quoted", [False, True], ids=["numpy", "csv"])
    def test_time_lock_holds_across_paths(self, first, then, block_bytes, quoted):
        def timed(card, board):
            return row(card=card, board=board, alight="2017-04-01T09:00:00" if board.startswith("2017") else "200")

        rows = [timed("c0", first)] + [timed(f"c{i}", then) for i in range(1, 4)]
        text = "\n".join([HEADER, *rows, timed('"c9"' if quoted else "c9", first)]) + "\n"
        want = reference_outcome(text, ",")
        with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
            trips, report = parse_text(text)
            assert parse_outcome(text, ",") == want
            assert file_outcome(text, ",") == want
        assert report.rejected_by_reason == {"bad timestamp": 3}
        assert trips.cards == ["c0", "c9"]

    @pytest.mark.parametrize("conflict_first", [True, False])
    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("block_bytes", [1, 1 << 18])
    def test_first_error_in_row_order(self, conflict_first, quoted, block_bytes):
        # the csv module refuses the long field only after the rows before it are checked
        long_id = "c" * (csv.field_size_limit() + 1)
        rows = [row(card="c2", blat="0"), row(card=f'"{long_id}"' if quoted else long_id)]
        text = "\n".join([HEADER, row(), *(rows if conflict_first else rows[::-1])]) + "\n"
        want = reference_outcome(text, ",")
        assert want[0] is (ValueError if conflict_first else csv.Error)
        with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
            assert parse_outcome(text, ",") == want
            assert file_outcome(text, ",") == want

    def test_synthetic_month_and_its_iso_copy_parse_alike(self, tmp_path):
        _, trips = synthesize(SynthConfig(n_passengers=40, n_routes=4, stops_per_route=6, days=7, rng_seed=3))
        write_trip_csv(trips, tmp_path / "trips.csv")
        (tmp_path / "iso").mkdir()
        iso = tmp_path / "iso" / "trips.csv"
        iso.write_text(iso_copy((tmp_path / "trips.csv").read_text()), newline="")
        with mock.patch.object(ingest, "_BLOCK_BYTES", 4096):
            back, report = parse_trip_records(tmp_path / "trips.csv")
            iso_back, iso_report = parse_trip_records(iso)
        assert report.accepted == report.total_rows == len(trips)
        assert same_table(back, trips)
        assert same_table(iso_back, back) and iso_report == report
        with not_parsed():
            warm, warm_report = parse_trip_records(iso)
        assert same_table(warm, back) and warm_report == report


def write_month(directory: Path) -> Path:
    """A small synthetic month as `directory / trips.csv`."""
    _, trips = synthesize(SynthConfig(n_passengers=30, n_routes=4, stops_per_route=6, days=5, rng_seed=4))
    write_trip_csv(trips, directory / "trips.csv")
    return directory / "trips.csv"


def load_sidecar(path: Path):
    """A sidecar's key line, its JSON header and its arrays by name."""
    with open(path, "rb") as fh:
        key, header = fh.readline(), json.loads(fh.readline())
        arrays = {name: np.fromfile(fh, dtype, len(header["stops"]) if name.startswith("stop_")
                                    else header["report"]["accepted"])
                  for name, dtype in ingest._SIDECAR_ARRAYS}
    return key, header, arrays


def save_sidecar(path: Path, key: bytes, header: dict, arrays: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(key + json.dumps(header).encode("ascii") + b"\n")
        for name, dtype in ingest._SIDECAR_ARRAYS:
            fh.write(arrays[name].astype(dtype).tobytes())


def tampered(change):
    """A damage to a sidecar that keeps its key: `change` edits the header and arrays in place."""
    def damage(path: Path) -> None:
        key, header, arrays = load_sidecar(path)
        change(header, arrays)
        save_sidecar(path, key, header, arrays)
    return damage


def rewritten(path: Path, data) -> None:
    path.write_bytes(data(path.read_bytes()))


def another_delimiter(path: Path) -> None:
    _, header, arrays = load_sidecar(path)
    save_sidecar(path, ingest._source_key(path.with_name("trips.csv"), ";"), header, arrays)


def array_item(name, index, value):
    """A tampering that sets one array element; `value` may be a function of the header and the arrays."""
    def change(header, arrays):
        arrays[name][index] = value(header, arrays) if callable(value) else value
    return change


def report_fields(**fields):
    """A tampering that sets report fields; each value may be a function of the report."""
    def change(header, arrays):
        report = header["report"]
        report.update({k: v(report) if callable(v) else v for k, v in fields.items()})
    return change


DAMAGES = {
    "truncated": lambda p: rewritten(p, lambda b: b[: len(b) // 2]),
    "one byte short": lambda p: rewritten(p, lambda b: b[:-1]),
    "one byte long": lambda p: rewritten(p, lambda b: b + b"\0"),
    "garbage": lambda p: rewritten(p, lambda b: bytes(range(256)) * 4),
    "garbage after the key": lambda p: rewritten(p, lambda b: b.split(b"\n")[0] + b"\n[[[{\n" + b"\xff" * 64),
    "empty": lambda p: rewritten(p, lambda b: b""),
    "another delimiter": another_delimiter,
    "code out of range": tampered(array_item("card", 0, lambda h, a: len(h["cards"]))),
    "negative code": tampered(array_item("vehicle", 0, -1)),
    "stop code out of range": tampered(array_item("alight_stop", -1, lambda h, a: len(h["stops"]))),
    "unsorted vocabulary": tampered(lambda h, a: h["cards"].reverse()),
    "duplicate id": tampered(lambda h, a: h["vehicles"].__setitem__(1, h["vehicles"][0])),
    "unused vocabulary id": tampered(lambda h, a: h["cards"].append("~unused")),
    "id not a string": tampered(lambda h, a: h["stops"].__setitem__(0, 7)),
    "board at alight": tampered(array_item("board", 3, lambda h, a: a["alight"][3])),
    "board after alight": tampered(array_item("board", 0, lambda h, a: a["alight"][0] + 1.0)),
    "non-finite alight": tampered(array_item("alight", 2, np.inf)),
    "nan board": tampered(array_item("board", 1, np.nan)),
    "stop off the globe": tampered(array_item("stop_lat", 0, 91.0)),
    "total rows off": tampered(report_fields(total_rows=lambda r: r["total_rows"] + 1)),
    "accepted off": tampered(report_fields(accepted=lambda r: r["accepted"] - 1)),
    "unknown reason": tampered(report_fields(total_rows=lambda r: r["total_rows"] + 1,
                                             rejected_by_reason={"gremlins": 1})),
    "count not an integer": tampered(report_fields(total_rows=lambda r: float(r["total_rows"]))),
    "reasons not an object": tampered(report_fields(rejected_by_reason=[])),
    "report not an object": tampered(lambda h, a: h.update(report=[1, 2, 3])),
}


class TestSidecar:
    """A trip file is parsed once; its sidecar never changes a result."""

    def test_warm_parse_equals_cold(self, tmp_path):
        path = write_month(tmp_path)
        cold, cold_report = parse_trip_records(path)
        assert (tmp_path / SIDECAR).is_file()
        with not_parsed():
            warm, warm_report = parse_trip_records(str(path))
        assert same_table(warm, cold) and warm_report == cold_report
        assert same_table(cold, parse_trip_records(io.StringIO(path.read_bytes().decode(), newline=""))[0])

    def test_changed_byte_at_same_size_reparses(self, tmp_path):
        path = write_month(tmp_path)
        parse_trip_records(path)
        data = path.read_bytes()
        at = data.rindex(b"\n", 0, len(data) - 1) + 1  # the last row starts with its card id
        changed = data[:at] + (b"Q" if data[at:at + 1] != b"Q" else b"R") + data[at + 1:]
        path.write_bytes(changed)
        trips, report = parse_trip_records(path)
        want, want_report = parse_trip_records(io.StringIO(changed.decode(), newline=""))
        assert same_table(trips, want) and report == want_report
        with not_parsed():
            assert same_table(parse_trip_records(path)[0], want)

    @pytest.mark.parametrize("damage", DAMAGES.values(), ids=DAMAGES.keys())
    def test_damaged_sidecar_is_ignored_and_rewritten(self, tmp_path, damage):
        path = write_month(tmp_path)
        cold, cold_report = parse_trip_records(path)
        sidecar = tmp_path / SIDECAR
        good = sidecar.read_bytes()
        damage(sidecar)
        assert sidecar.read_bytes() != good
        parse = mock.Mock(wraps=ingest._parse_stream)
        with mock.patch.object(ingest, "_parse_stream", parse):
            trips, report = parse_trip_records(path)
        assert parse.call_count == 1
        assert same_table(trips, cold) and report == cold_report
        assert sidecar.read_bytes() == good

    def test_parser_identity_is_part_of_the_key(self, tmp_path, monkeypatch):
        path = write_month(tmp_path)
        cold, _ = parse_trip_records(path)
        monkeypatch.setattr(ingest, "_parser_identity", lambda: "another parser")
        parse = mock.Mock(wraps=ingest._parse_stream)
        with mock.patch.object(ingest, "_parse_stream", parse):
            trips, _ = parse_trip_records(path)
            assert parse.call_count == 1
            parse_trip_records(path)
            assert parse.call_count == 1
        assert same_table(trips, cold)
        assert b"another parser" in (tmp_path / SIDECAR).read_bytes().split(b"\n")[0]

    def test_read_only_directory_parses_and_writes_nothing(self, tmp_path, monkeypatch):
        path = write_month(tmp_path)
        want, want_report = parse_trip_records(io.StringIO(path.read_bytes().decode(), newline=""))
        if os.geteuid() == 0:
            # a superuser writes past the mode bits: refuse new files as the mode would
            def refuse_writes(file, mode="r", *args, **kwargs):
                if "w" in mode or "x" in mode:
                    raise PermissionError(13, "Permission denied", str(file))
                return open(file, mode, *args, **kwargs)

            monkeypatch.setattr(ingest, "open", refuse_writes, raising=False)
        tmp_path.chmod(0o555)
        try:
            for _ in range(2):
                trips, report = parse_trip_records(path)
                assert same_table(trips, want) and report == want_report
        finally:
            tmp_path.chmod(0o755)
        assert [p.name for p in tmp_path.iterdir()] == ["trips.csv"]

    def test_stream_writes_nothing(self, tmp_path):
        path = write_month(tmp_path)
        with open(path, "r", newline="", encoding="utf-8") as fh:
            trips, _ = parse_trip_records(fh)
        assert len(trips) and [p.name for p in tmp_path.iterdir()] == ["trips.csv"]

    def test_pipe_is_not_read_for_a_key(self, tmp_path):
        fifo = tmp_path / "trips.csv"
        os.mkfifo(fifo)
        assert ingest._source_key(fifo, ",") is None  # an open would block here, with no writer

    @pytest.mark.parametrize("text, error", [
        (HEADER.replace("vehicle_id", "bus") + "\n" + row() + "\n", SchemaError),
        ("\n".join([HEADER, row(), row(card="c2", blat="-33.7")]) + "\n", ValueError),
    ], ids=["schema", "stop conflict"])
    def test_failed_parse_stores_nothing(self, tmp_path, text, error):
        path = tmp_path / "trips.csv"
        path.write_text(text)
        for _ in range(2):
            with pytest.raises(error):
                parse_trip_records(path)
        assert [p.name for p in tmp_path.iterdir()] == ["trips.csv"]

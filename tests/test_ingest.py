from __future__ import annotations

import csv
import io
import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import same_table, table, trip
from transitepi import ingest
from transitepi.synth import SynthConfig, synthesize
from transitepi.ingest import (
    REQUIRED_COLUMNS,
    IngestReport,
    SchemaError,
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

    def test_iso_timestamps(self):
        text = "\n".join(
            [HEADER, row(board="2017-04-01T08:00:00", alight="2017-04-01T08:10:00")]
        )
        records, _ = parse_text(text)
        assert records.alight[0] - records.board[0] == 600.0

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


# Cells for the block-versus-row-loop comparison: clean ones, then odd ones
# that a row may carry in one cell.
CLEAN = {"card_id": ["c1", "c2", "c3"], "vehicle_id": ["v1", "v2"], "board_time": ["100", "150.5"],
         "alight_time": ["300", "250"], "board_stop_id": ["sA", "sB", "sC"], "alight_stop_id": ["sB", "sC", "sA"]}
STOPS = {"sA": ("-33.8", "151.2"), "sB": ("-33.9", "151.3"), "sC": ("-33.7", "151.1")}
ODD_IDS = [" c1", "c2\x00", "\x00", "", "  ", "c\r1", "sA ", "\tsB"]
ODD_TIMES = [" 120 ", "nan", "-inf", "inf", "1e400", "1_000", "١٢", "", "x", "100", "2017-04-01T08:00:00"]
ODD_COORDS = ["-33.80", " -33.9", "0", "151.3", "91", "-181", "nan", "oops", ""]
LINE_KINDS = ["row"] * 6 + ["odd cell", "odd cell", "blank", "space", "short", "extra", "quoted", "quoted newline"]


@st.composite
def trip_csv(draw):
    """A trip file as text, with its delimiter."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    header = draw(st.permutations(REQUIRED_COLUMNS + ("extra",)))
    lines = [delimiter.join(header)]
    for _ in range(draw(st.integers(0, 30))):
        cells = {c: draw(st.sampled_from(pool)) for c, pool in CLEAN.items()}
        for prefix in ("board", "alight"):
            cells[f"{prefix}_lat"], cells[f"{prefix}_lon"] = STOPS[cells[f"{prefix}_stop_id"]]
        cells["extra"] = "x"
        kind = draw(st.sampled_from(LINE_KINDS))
        if kind == "odd cell":
            column = draw(st.sampled_from(REQUIRED_COLUMNS))
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


def parse_outcome(text: str, delimiter: str):
    """The parse of `text` as comparable values: every column with its dtype and the report, or the error."""
    try:
        trips, report = parse_trip_records(io.StringIO(text, newline=""), delimiter)
    except (ValueError, SchemaError, csv.Error) as exc:
        return type(exc), str(exc)
    columns = {c: (getattr(trips, c).tolist(), getattr(trips, c).dtype) for c in TABLE_ARRAYS}
    return trips.cards, trips.vehicles, trips.stops, columns, report


def row_loop_only():
    return mock.patch.object(ingest._Columns, "block", lambda self, lines: False)


@pytest.mark.filterwarnings("error")
class TestBlocks:
    """Blocks taken by numpy's reader parse exactly as the row loop would."""

    @settings(max_examples=300, deadline=None)
    @given(trip_csv(), st.sampled_from([1, 64, 300, 1 << 18]))
    @example((",", "\n".join([HEADER, row(card='"c\n1"'), row(card="c2"), row(card="c3")]) + "\n"), 1)
    def test_same_as_row_loop(self, case, block_bytes):
        delimiter, text = case
        with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
            vectorised = parse_outcome(text, delimiter)
            with row_loop_only():
                assert parse_outcome(text, delimiter) == vectorised

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_each_odd_line_same_as_row_loop(self, delimiter):
        # one odd line before or between clean ones, alone in its block or in one block with them
        clean = dict(zip(REQUIRED_COLUMNS, row().split(",")))
        odd = [dict(clean, **{c: v}) for c in REQUIRED_COLUMNS
               for v in (ODD_IDS if c.endswith("_id") else ODD_TIMES if c.endswith("_time") else ODD_COORDS)]
        lines = [",".join(cells.values()) for cells in odd]
        lines += ["", "  ", "c1,v1,100", row() + ",more", row(card='"c1"'), row(card='"c\n1"'),
                  row(card="c" * (csv.field_size_limit() + 1))]
        for line, at, block_bytes in itertools.product(lines, (0, 1), (1, 1 << 18)):
            body = [row(), row(card="c2")]
            body.insert(at, line)
            text = "\r\n".join([HEADER, *body]).replace(",", delimiter) + "\r\n"
            with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
                vectorised = parse_outcome(text, delimiter)
                with row_loop_only():
                    assert parse_outcome(text, delimiter) == vectorised, (line, at, block_bytes)

    @pytest.mark.parametrize("first, then", [
        # epoch blocks lock both columns to epoch, so later ISO rows are bad timestamps
        ("100", "2017-04-01T08:00:00"),
        # an ISO lock from the row loop sends later epoch blocks there, to be rejected
        ("2017-04-01T08:00:00", "100"),
    ])
    def test_time_lock_holds_across_paths(self, first, then):
        def timed(card, board):
            return row(card=card, board=board, alight="2017-04-01T09:00:00" if board.startswith("2017") else "200")

        rows = [timed("c0", first)] + [timed(f"c{i}", then) for i in range(1, 4)] + [timed("c9", first)]
        with mock.patch.object(ingest, "_BLOCK_BYTES", 1):
            trips, report = parse_text("\n".join([HEADER, *rows]) + "\n")
        assert report.rejected_by_reason == {"bad timestamp": 3}
        assert trips.cards == ["c0", "c9"]

    def test_synthetic_month_never_takes_the_row_loop(self, tmp_path):
        _, trips = synthesize(SynthConfig(n_passengers=40, n_routes=4, stops_per_route=6, days=7, rng_seed=3))
        write_trip_csv(trips, tmp_path / "trips.csv")
        taken = []
        block = ingest._Columns.block

        def spy(self, lines):
            taken.append(block(self, lines))
            return taken[-1]

        with mock.patch.object(ingest, "_BLOCK_BYTES", 4096), mock.patch.object(ingest._Columns, "block", spy), \
                mock.patch.object(ingest._Columns, "rows", side_effect=AssertionError("row loop")):
            back, report = parse_trip_records(tmp_path / "trips.csv")
        assert len(taken) > 1 and all(taken)
        assert report.accepted == report.total_rows == len(trips)
        assert same_table(back, trips)

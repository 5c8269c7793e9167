"""The artifact file format: every CSV and JSON file the commands write, and
the checked reader `analyze` reads CSV artifacts back with.

A CSV artifact uses the csv module's default dialect (CRLF line ends), is
UTF-8 and starts with a header row.  A JSON artifact has its keys sorted, is
indented by two and ends with a newline.  A reader that finds a malformed
artifact raises `DataIntegrityError` naming the first bad physical line.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np


class DataIntegrityError(ValueError):
    """A stored artifact is malformed, or references a passenger with no classification."""


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_csv(path, header: List[str]) -> Tuple[List[Tuple[str, ...]], np.ndarray, List[int]]:
    """The columns of a CSV artifact, each row's field count and the physical line each row ends on.

    A header other than `header` raises naming line 1.  Short rows are padded
    with "" and long rows cut, so that there are always `len(header)` columns.
    """
    width = len(header)
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise DataIntegrityError(f"{path}:1: expected header {','.join(header)}, got {found!r}")
        rows, lines = [], []
        for row in reader:
            rows.append(row)
            lines.append(reader.line_num)
    fields = np.fromiter(map(len, rows), np.int64, len(rows))
    if (fields != width).any():
        rows = [(row + [""] * width)[:width] for row in rows]
    return list(zip(*rows)) if rows else [()] * width, fields, lines


def first_rows(codes: np.ndarray) -> np.ndarray:
    """For each row, the first row that holds the same code."""
    order = np.argsort(codes, kind="stable")
    return order[np.searchsorted(codes[order], codes)]


def raise_first_failure(path, lines: Sequence[int], checks: Sequence[Tuple[np.ndarray, Callable[[int], str]]]) -> None:
    """Raise on the first row any check fails, with the message of the first check it fails.

    Each check is a mask over the rows and a function of a failing row giving its message.
    """
    bad = np.logical_or.reduce([failed for failed, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        message = next(describe for failed, describe in checks if failed[i])
        raise DataIntegrityError(f"{path}:{lines[i]}: {message(i)}")

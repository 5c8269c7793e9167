from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable, NamedTuple, Tuple

import numpy as np
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("suite")

from transitepi.ingest import TripTable

Stop = Tuple[str, float, float]  # (stop id, lat, lon)


class Ride(NamedTuple):
    """One test trip; `table` turns a list of them into a TripTable."""

    card_id: str
    vehicle_id: str
    board_time: float
    alight_time: float
    board_stop: Stop
    alight_stop: Stop


def planar_stop(stop_id: str, x: float, y: float) -> Stop:
    """Stop whose lat/lon are plain planar metres (use with the planar model)."""
    return (stop_id, x, y)


def trip(
    card: str,
    vehicle: str,
    board: float,
    alight: float,
    board_stop: Stop | None = None,
    alight_stop: Stop | None = None,
) -> Ride:
    return Ride(
        card, vehicle, board, alight,
        board_stop or planar_stop("sA", 0.0, 0.0),
        alight_stop or planar_stop("sB", 0.0, 1.0),
    )


def table(rides: Iterable[Ride]) -> TripTable:
    rides = list(rides)
    stops = {s[0]: (s[1], s[2]) for r in rides for s in (r.board_stop, r.alight_stop)}
    return TripTable.from_columns(
        [r.card_id for r in rides], [r.vehicle_id for r in rides], [r.board_time for r in rides],
        [r.alight_time for r in rides], [r.board_stop[0] for r in rides], [r.alight_stop[0] for r in rides],
        stops,
    )


TABLE_COLUMNS = ("cards", "vehicles", "stops", "stop_lat", "stop_lon", "card", "vehicle",
                 "board_stop", "alight_stop", "board", "alight")


def same_table(a: TripTable, b: TripTable) -> bool:
    """Equal vocabularies and equal columns, dtypes included."""
    return all(
        np.array_equal(x, y) and np.asarray(x).dtype == np.asarray(y).dtype
        for x, y in ((getattr(a, c), getattr(b, c)) for c in TABLE_COLUMNS)
    )

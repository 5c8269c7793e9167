"""Passenger mobility classification and traced epidemic simulation on
public-transport contact networks.

The package namespace holds the names the README and the acceptance suite
use; everything else is imported from its own module.
"""

from .classify import GROUP_NAMES, classify_population, group_sizes, is_returner, kmeans_1d
from .contacts import build_exposure_log, connected_components
from .flows import (chord_export, chord_import, count_events, difference_matrix, group_flow_matrix,
                    per_group_summary)
from .geo import HAVERSINE, PLANAR
from .ingest import TripTable, filter_by_min_trips, parse_trip_records, write_trip_csv
from .mobility import MobilityTable, mobility_table, radii_of_gyration
from .sim import SimConfig, run_ensemble, run_sir
from .synth import SynthConfig, synthesize

__version__ = "0.1.0"

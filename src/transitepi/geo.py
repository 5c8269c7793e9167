"""Distance models: great-circle geometry for real coordinates, plain
Euclidean geometry for synthetic/test coordinates.

A "point" throughout is a ``(lat, lon)`` pair whose components may be
arrays, so that one call serves many points.  In the planar model the two
components are interpreted directly as metres on a flat plane, which makes
hand-computable test geometries possible.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

Point = Tuple[float, float]

EARTH_RADIUS_M = 6_371_000.0


def haversine_m(a, b):
    """Great-circle distance between (lat, lon) points in metres.

    Each component may be a float or an array; arrays broadcast.
    """
    lat1, lon1 = a
    lat2, lon2 = b
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    d_phi = phi2 - phi1
    d_lam = np.radians(np.subtract(lon2, lon1))
    h = np.sin(d_phi / 2) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(d_lam / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(1.0, h)))


class PlanarModel:
    """Flat-plane geometry. Centre of mass is the weighted arithmetic mean."""

    name = "planar"

    def distance(self, a, b):
        """Planar distance; coordinates are already metres."""
        return np.hypot(np.subtract(a[0], b[0]), np.subtract(a[1], b[1]))

    def center_of_mass(self, lat, lon, weight, group, n_groups: int) -> Tuple[np.ndarray, np.ndarray]:
        """Weighted centre of each group of points: `group[i]` in 0 .. n_groups-1."""
        total = np.bincount(group, weight, n_groups)
        return (np.bincount(group, weight * lat, n_groups) / total,
                np.bincount(group, weight * lon, n_groups) / total)


class HaversineModel:
    """Spherical geometry on WGS84 with mean Earth radius.

    The centre of mass is computed by averaging weighted 3-D unit vectors and
    renormalizing, then converting back to (lat, lon).  This avoids the
    antimeridian and polar artefacts of naive lat/lon averaging.
    """

    name = "haversine"

    def distance(self, a, b):
        return haversine_m(a, b)

    def center_of_mass(self, lat, lon, weight, group, n_groups: int) -> Tuple[np.ndarray, np.ndarray]:
        """Weighted centre of each group of points: `group[i]` in 0 .. n_groups-1."""
        phi, lam = np.radians(lat), np.radians(lon)
        total = np.bincount(group, weight, n_groups)
        x = np.bincount(group, weight * np.cos(phi) * np.cos(lam), n_groups) / total
        y = np.bincount(group, weight * np.cos(phi) * np.sin(lam), n_groups) / total
        z = np.bincount(group, weight * np.sin(phi), n_groups) / total
        norm = np.sqrt(x * x + y * y + z * z)
        # antipodal cancellation; fall back to naive averaging
        flat = norm < 1e-12
        norm[flat] = 1.0
        naive_lat, naive_lon = PLANAR.center_of_mass(lat, lon, weight, group, n_groups)
        return (np.where(flat, naive_lat, np.degrees(np.arcsin(z / norm))),
                np.where(flat, naive_lon, np.degrees(np.arctan2(y, x))))


PLANAR = PlanarModel()
HAVERSINE = HaversineModel()

_MODELS = {"planar": PLANAR, "haversine": HAVERSINE}


def get_model(name: str):
    try:
        return _MODELS[name]
    except KeyError:
        raise ValueError(f"unknown distance model {name!r}; expected one of {sorted(_MODELS)}")


def local_km_to_latlon(x_km: float, y_km: float, origin_lat: float, origin_lon: float) -> Point:
    """Map a local (east, north) km offset to (lat, lon) near an origin.

    Equirectangular approximation; adequate for city-scale extents.
    """
    lat = origin_lat + y_km / 111.32
    lon = origin_lon + x_km / (111.32 * math.cos(math.radians(origin_lat)))
    return (lat, lon)


def latlon_to_local_km(lat: float, lon: float, origin_lat: float, origin_lon: float) -> Tuple[float, float]:
    """Inverse of :func:`local_km_to_latlon`."""
    y_km = (lat - origin_lat) * 111.32
    x_km = (lon - origin_lon) * 111.32 * math.cos(math.radians(origin_lat))
    return (x_km, y_km)

"""Geospatial primitives shared by every stage of the pipeline.

The paper (eq. 1) measures all distances with the Haversine formula on a
spherical Earth. :func:`haversine_np` is its vectorised numpy form, used
on the driver by every HAC distance test (the 50 m station
pre-assignment, the 100 m proximity graph and the 100 m linkage) and by
Algorithm 1's distance rules and orphan reassignment.

Also provided: a geo-grid bucketing scheme that turns "all pairs within
eps metres" into a sort and a lookup of each point's 3x3 neighbouring
cells (:func:`eps_pairs`), the basis of HAC's 100 m proximity graph and of
its 50 m station pre-assignment.
"""
from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

#: Metres per degree of latitude (constant on a sphere).
M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0

#: Reference latitude of the geo-grid: north of every Dublin location, so
#: the longitude side of a cell is >= eps there.
GRID_REF_LAT_DEG = 54.0


def haversine_np(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """Vectorised numpy Haversine distance in metres (broadcasts)."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = np.radians(np.asarray(lat2) - np.asarray(lat1)) / 2.0
    dlmb = np.radians(np.asarray(lon2) - np.asarray(lon1)) / 2.0
    a = np.sin(dphi) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlmb) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def pairwise_haversine_np(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Full n x n Haversine distance matrix in metres (for small n)."""
    return haversine_np(lat[:, None], lon[:, None], lat[None, :], lon[None, :])


def cell_size_deg(eps_m: float) -> tuple[float, float]:
    """Grid cell size (dlat, dlon) in degrees such that any two points
    within ``eps_m`` metres fall in the same or an adjacent cell.

    Longitude degrees shrink by cos(latitude), so the longitude side is
    sized at :data:`GRID_REF_LAT_DEG`, north of every point it must cover.
    """
    dlat = eps_m / M_PER_DEG_LAT
    dlon = eps_m / (M_PER_DEG_LAT * math.cos(math.radians(GRID_REF_LAT_DEG)))
    return dlat, dlon


def grid_cells(
    lat: np.ndarray, lon: np.ndarray, *, eps_m: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integer grid coordinates ``(cell_i, cell_j)`` of each point.

    Cell side is >= eps in both axes (at latitudes up to
    :data:`GRID_REF_LAT_DEG`), so eps-neighbours are always in the same
    cell or one of the 8 adjacent cells.
    """
    dlat, dlon = cell_size_deg(eps_m)
    return (
        np.floor(np.asarray(lat) / dlat).astype(np.int64),
        np.floor(np.asarray(lon) / dlon).astype(np.int64),
    )


def _cell_key(cell_i: np.ndarray, cell_j: np.ndarray) -> np.ndarray:
    """One int64 per cell, ordered as ``(cell_i, cell_j)`` (|cell_j| < 2**31)."""
    return cell_i * 2**32 + cell_j


def eps_pairs(
    lat: np.ndarray, lon: np.ndarray, lat_b: np.ndarray | None = None,
    lon_b: np.ndarray | None = None, *, eps_m: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of points within ``eps_m`` metres as ``(i, j, dist_m)``:
    ``i`` indexes ``lat``/``lon``, ``j`` indexes ``lat_b``/``lon_b``. Without
    the second point set the points are paired with themselves and each
    unordered pair comes once, with ``i < j``.

    A grid join: the second set is sorted by grid cell, and each point
    meets the second set's points in the 3x3 cells around its own. Each of
    the nine cell offsets is filtered by exact Haversine distance before
    the next one is built, so only one offset's candidate pairs are held
    at a time.
    """
    lat, lon = np.asarray(lat), np.asarray(lon)
    same = lat_b is None
    lat_b, lon_b = (lat, lon) if same else (np.asarray(lat_b), np.asarray(lon_b))
    cell_i, cell_j = grid_cells(lat, lon, eps_m=eps_m)
    key_b = _cell_key(*grid_cells(lat_b, lon_b, eps_m=eps_m))
    order = np.argsort(key_b, kind="stable")
    key_b = key_b[order]
    found = []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            key = _cell_key(cell_i + di, cell_j + dj)
            lo = np.searchsorted(key_b, key, "left")
            n = np.searchsorted(key_b, key, "right") - lo
            # point i's k-th candidate is order[lo[i] + k]
            i = np.repeat(np.arange(len(key)), n)
            j = order[np.arange(len(i)) - np.repeat(np.cumsum(n) - n - lo, n)]
            if same:
                keep = i < j
                i, j = i[keep], j[keep]
            d = haversine_np(lat[i], lon[i], lat_b[j], lon_b[j])
            near = d <= eps_m
            found.append((i[near], j[near], d[near]))
    i, j, d = (np.concatenate(c) for c in zip(*found))
    return i, j, d

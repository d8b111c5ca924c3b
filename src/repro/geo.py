"""Geospatial primitives shared by every stage of the pipeline.

The paper (eq. 1) measures all distances with the Haversine formula on a
spherical Earth. Two implementations are provided: a Spark ``Column``
expression (used inside joins/aggregations so distance math stays in
Catalyst) and a vectorised numpy version (used on the driver by the exact
HAC and by Algorithm 1's distance rules and orphan reassignment, and in
tests as an independent check).

Also provided: a geo-grid bucketing scheme used to turn "within eps
metres" into an equi-join on cell ids, the basis of HAC's 100 m
proximity graph and of its 50 m station pre-assignment.
"""
from __future__ import annotations

import math

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

EARTH_RADIUS_M = 6_371_000.0

#: Metres per degree of latitude (constant on a sphere).
M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0

#: Reference latitude of the geo-grid: north of every Dublin location, so
#: the longitude side of a cell is >= eps there.
GRID_REF_LAT_DEG = 54.0


def haversine_col(lat1: Column, lon1: Column, lat2: Column, lon2: Column) -> Column:
    """Haversine distance in metres as a Spark SQL column expression (eq. 1).

    ``d = 2R asin(sqrt(sin^2(dphi/2) + cos(phi1) cos(phi2) sin^2(dlambda/2)))``
    """
    phi1, phi2 = F.radians(lat1), F.radians(lat2)
    dphi = F.radians(lat2 - lat1) / 2.0
    dlmb = F.radians(lon2 - lon1) / 2.0
    a = F.sin(dphi) ** 2 + F.cos(phi1) * F.cos(phi2) * F.sin(dlmb) ** 2
    # Clamp for numerical noise at antipodal/identical points.
    a = F.least(F.greatest(a, F.lit(0.0)), F.lit(1.0))
    return 2.0 * EARTH_RADIUS_M * F.asin(F.sqrt(a))


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


def with_grid_cell(
    df: DataFrame, *, lat_col: str = "lat", lon_col: str = "lon", eps_m: float
) -> DataFrame:
    """Attach integer grid coordinates ``cell_i``/``cell_j``.

    Cell side is >= eps in both axes (at latitudes up to
    :data:`GRID_REF_LAT_DEG`), so eps-neighbours are always in the same
    cell or one of the 8 adjacent cells — the basis for the distributed
    eps-proximity join in :mod:`repro.hac.proximity`.
    """
    dlat, dlon = cell_size_deg(eps_m)
    return df.withColumn(
        "cell_i", F.floor(F.col(lat_col) / F.lit(dlat)).cast("long")
    ).withColumn(
        "cell_j", F.floor(F.col(lon_col) / F.lit(dlon)).cast("long")
    )

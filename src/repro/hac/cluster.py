"""Candidate-station construction (paper Section IV-A).

The cleaned locations are collected once, as ``(location_id, lat, lon,
is_station, station_id)``; the fixed stations are the rows flagged
``is_station``. Every distance test below is :func:`repro.geo.haversine_np`
on the driver.

Pipeline:

1. **Pre-assignment** — any location within 50 m of a fixed station is
   assigned to that station's group (nearest wins, an exact distance tie
   to the smaller station id) and excluded from clustering; stations are
   immovable group centroids. The location-station pairs within 50 m come
   from the eps-grid join :func:`repro.geo.eps_pairs` (each location meets
   the stations of the 3x3 grid cells around its own); the driver sorts
   them by ``(location, distance, station id)`` and keeps each location's
   first. Locations without a station within 50 m are free.
2. **eps decomposition** — the free locations are split into connected
   components of their 100 m proximity graph, built with the same grid
   join and labelled by :func:`repro.graph.components.connected_components`.
   Complete-linkage clusters with diameter <= 100 m are always subsets of
   such components, and the graph and the linkage use the same distance,
   so this decomposition is *lossless*.
3. **Exact HAC** — complete-linkage clustering with the 100 m diameter
   cutoff runs per component on the driver (a few thousand points in
   components of at most ~100), each component sorted by location id so
   the result does not depend on row order.
4. **Centroids** — each candidate cluster is represented by the mean of
   its member coordinates, computed on the driver as the sequential sum
   in location-id order divided by the member count; station groups by
   the station coordinate.

The assignment and the groups table are built on the driver and stay
there as pandas frames: Algorithm 1 reads both on the driver, and the
pipeline hands Spark only the ``(location_id, group_id)`` map its trip
join reads. The component labels come back from Spark as a local frame
(a ``LocalRelation``), read with one job.

Group ids: stations ``"S<station_id>"``, candidates ``"C<component>#<k>"``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.geo import eps_pairs
from repro.graph.components import connected_components
from repro.hac.linkage import complete_linkage_labels

PRE_ASSIGN_M = 50.0
MAX_DIAMETER_M = 100.0


@dataclass(frozen=True)
class CandidateResult:
    """Both pandas. ``assignment``: (location_id, group_id,
    kind[station|candidate], lat, lon), one row per cleaned location,
    sorted by location id; ``groups``: (group_id, kind, lat, lon,
    station_id nullable)."""

    assignment: pd.DataFrame
    groups: pd.DataFrame


def _sequential_mean(v: pd.Series) -> float:
    """Sum in row order, then divide by the count. ``np.mean`` and pandas'
    ``mean`` sum pairwise and can differ from it in the last bit."""
    return np.cumsum(v.to_numpy())[-1] / len(v)


def build_candidates(locations: DataFrame) -> CandidateResult:
    """Group every cleaned location into a station group or a candidate
    cluster. ``locations``: (location_id, lat, lon, is_station,
    station_id), the fixed stations being the rows with ``is_station``.
    Raises ``ValueError`` when there is no fixed station: pre-assignment
    and the groups table need them."""
    rows = locations.select(
        "location_id", "lat", "lon", "is_station",
        F.col("station_id").cast("long").alias("station_id"),
    ).toPandas()
    st = rows.loc[rows["is_station"], ["station_id", "lat", "lon"]].astype(
        {"station_id": "int64"}
    )
    if st.empty:
        raise ValueError("build_candidates: there is no station among the locations")
    loc = rows[["location_id", "lat", "lon"]].sort_values("location_id", ignore_index=True)
    lat, lon = loc["lat"].to_numpy(), loc["lon"].to_numpy()

    # Pre-assignment: each location's first pair by (dist, id) is its
    # nearest station within range, ties to the smaller id.
    i, j, dist = eps_pairs(
        lat, lon, st["lat"].to_numpy(), st["lon"].to_numpy(), eps_m=PRE_ASSIGN_M
    )
    st_id = st["station_id"].to_numpy()[j]
    order = np.lexsort((st_id, dist, i))
    i, st_id = i[order], st_id[order]
    first = np.diff(i, prepend=-1) != 0
    nearest = pd.Series(st_id[first], index=i[first])  # row of loc -> station id
    assigned = loc.index.isin(nearest.index)

    # eps-components of the free points, in location-id order, so the
    # linkage's tie-breaks and cluster numbering depend on the ids alone.
    free_pdf = loc.loc[~assigned]
    src, dst, _ = eps_pairs(lat[~assigned], lon[~assigned], eps_m=MAX_DIAMETER_M)
    ids = free_pdf["location_id"].to_numpy()
    comp = connected_components(locations.sparkSession, ids, ids[src], ids[dst]).toPandas()
    pdf = free_pdf.merge(
        comp.rename(columns={"id": "location_id"}), on="location_id"
    ).sort_values(["component", "location_id"], ignore_index=True)
    group_id: list[str] = []
    for comp_id, c in pdf.groupby("component", sort=False):
        labels = complete_linkage_labels(
            c["lat"].to_numpy(), c["lon"].to_numpy(), max_diameter_m=MAX_DIAMETER_M
        )
        group_id.extend(f"C{comp_id}#{k}" for k in labels)
    pdf["group_id"] = pd.Series(group_id, dtype=object)

    station_rows = loc.loc[nearest.index].assign(
        group_id="S" + nearest.astype(str),
        kind="station",
    )
    assignment = pd.concat(
        [station_rows, pdf.assign(kind="candidate")], ignore_index=True
    )[["location_id", "group_id", "kind", "lat", "lon"]].sort_values(
        "location_id", ignore_index=True
    )

    # Each group's rows are in location-id order (pdf is sorted by
    # component, then location id, and a group lies in one component).
    centroids = pdf.groupby("group_id", sort=False).agg(
        lat=("lat", _sequential_mean), lon=("lon", _sequential_mean)
    ).reset_index()
    groups = pd.concat(
        [
            st.assign(group_id="S" + st["station_id"].astype(str), kind="station"),
            centroids.assign(kind="candidate", station_id=None),
        ],
        ignore_index=True,
    )[["group_id", "kind", "lat", "lon", "station_id"]].astype({"station_id": "Int64"})
    return CandidateResult(assignment=assignment, groups=groups)

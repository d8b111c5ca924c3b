"""Candidate-station construction (paper Section IV-A).

Pipeline:

1. **Pre-assignment** — any location within 50 m of a fixed station is
   assigned to that station's group (nearest wins, an exact distance tie
   to the smaller station id) and excluded from clustering; stations are
   immovable group centroids. This is an eps-grid join at 50 m
   (:mod:`repro.hac.proximity`): each location stays in its home cell, the
   stations are replicated to their 3x3 neighbouring cells and broadcast,
   so every station within 50 m of a location meets it in a left join.
   Per location, the minimum ``(distance, station_id)`` over the pairs
   within 50 m picks the station, null when there is none. That one table
   (every location with its coordinates and its station or null) is
   collected once; the driver splits it into station-assigned and free
   locations.
2. **eps decomposition** — the free locations are split into connected
   components of the 100 m proximity graph (distributed grid join in
   Spark over the free points handed back as a local frame, components
   labelled on the driver). Complete-linkage clusters with diameter
   <= 100 m are always subsets of such components, so this decomposition
   is *lossless*.
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
join reads. The frames this stage hands to Spark joins (the stations of
the pre-assignment, the free points of the eps-graph) go from pandas
through Arrow (a ``LocalRelation``), so no Python worker process is
started.

Group ids: stations ``"S<station_id>"``, candidates ``"C<component>#<k>"``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.geo import haversine_col, with_grid_cell
from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.hac.linkage import complete_linkage_labels
from repro.hac.proximity import eps_edges, neighbour_cells

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


def build_candidates(locations: DataFrame, stations: DataFrame) -> CandidateResult:
    """Group every cleaned location into a station group or a candidate
    cluster. ``locations``: (location_id, lat, lon); ``stations``:
    (location_id, lat, lon, station_id). Raises ``ValueError`` when there
    is no fixed station: pre-assignment and the groups table need them."""
    spark = locations.sparkSession
    st = stations.select(
        F.col("station_id").cast("long").alias("station_id"), "lat", "lon"
    ).toPandas()
    if st.empty:
        raise ValueError("build_candidates: the stations table is empty")

    # Pre-assignment: the left eps-grid join at PRE_ASSIGN_M; per location
    # the min (dist, id) within range, or null.
    pts = with_grid_cell(locations.select("location_id", "lat", "lon"), eps_m=PRE_ASSIGN_M)
    st_cells = neighbour_cells(
        with_grid_cell(
            spark.createDataFrame(
                st.rename(columns={"lat": "st_lat", "lon": "st_lon"}),
                schema="station_id long, st_lat double, st_lon double",
            ),
            lat_col="st_lat", lon_col="st_lon", eps_m=PRE_ASSIGN_M,
        )
    )
    dist = haversine_col(F.col("lat"), F.col("lon"), F.col("st_lat"), F.col("st_lon"))
    near = F.when(
        F.col("dist_m") <= F.lit(PRE_ASSIGN_M), F.struct("dist_m", "station_id")
    )
    pre = (
        pts.join(F.broadcast(st_cells), ["cell_i", "cell_j"], "left")
        .withColumn("dist_m", dist)
        .groupBy("location_id", "lat", "lon")
        .agg(F.min(near).alias("best"))
        .select("location_id", "lat", "lon", F.col("best.station_id").alias("station_id"))
        .toPandas()
    )
    assigned = pre["station_id"].notna()

    # eps-components of the free points. The collect hands rows over in
    # partition order; the sort makes the linkage's tie-breaks and cluster
    # numbering depend on the ids alone.
    free_pdf = pre.loc[~assigned, ["location_id", "lat", "lon"]]
    free = spark.createDataFrame(free_pdf, schema="location_id long, lat double, lon double")
    edges = eps_edges(free, eps_m=MAX_DIAMETER_M).select(
        F.col("src"), F.col("dst"), F.lit(1.0).alias("weight")
    )
    verts = free.select(F.col("location_id").alias("id"))
    comp = connected_components(Graph(verts, edges)).toPandas()
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

    station_rows = pre.loc[assigned, ["location_id", "lat", "lon"]].assign(
        group_id="S" + pre["station_id"][assigned].astype("int64").astype(str),
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

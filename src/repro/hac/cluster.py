"""Candidate-station construction (paper Section IV-A).

Pipeline:

1. **Pre-assignment** — any location within 50 m of a fixed station is
   assigned to that station's group (nearest wins) and excluded from
   clustering; stations are immovable group centroids.
2. **eps decomposition** — the remaining locations are split into
   connected components of the 100 m proximity graph (distributed grid
   join in Spark, components labelled on the driver). Complete-linkage
   clusters with diameter <= 100 m are always subsets of such components,
   so this decomposition is *lossless*.
3. **Exact HAC** — the free locations are collected once with their
   component (a few thousand points in components of at most ~100) and
   complete-linkage clustering with the 100 m diameter cutoff runs per
   component on the driver, each component sorted by location id so the
   result does not depend on row order.
4. **Centroids** — each candidate cluster is represented by the mean of
   its member coordinates; station groups by the station coordinate.

Group ids: stations ``"S<station_id>"``, candidates ``"C<component>#<k>"``.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.geo import nearest_station
from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.hac.linkage import complete_linkage_labels
from repro.hac.proximity import eps_edges

PRE_ASSIGN_M = 50.0
MAX_DIAMETER_M = 100.0


@dataclass(frozen=True)
class CandidateResult:
    """``assignment``: (location_id, group_id, kind[station|candidate]);
    ``groups``: (group_id, kind, lat, lon, station_id nullable)."""

    assignment: DataFrame
    groups: DataFrame


def build_candidates(
    locations: DataFrame,
    stations: DataFrame,
    *,
    pre_assign_m: float = PRE_ASSIGN_M,
    max_diameter_m: float = MAX_DIAMETER_M,
) -> CandidateResult:
    """Group every cleaned location into a station group or a candidate
    cluster. ``locations``: (location_id, lat, lon); ``stations``:
    (location_id, lat, lon, station_id)."""
    pts = locations.select("location_id", "lat", "lon")
    st = stations.select("station_id", "lat", "lon")

    near = nearest_station(pts, st, out_col="ns")
    station_assigned = near.filter(F.col("ns_dist_m") <= pre_assign_m).select(
        "location_id",
        F.concat(F.lit("S"), F.col("ns").cast("long")).alias("group_id"),
        F.lit("station").alias("kind"),
    )
    free = near.filter(F.col("ns_dist_m") > pre_assign_m).select(
        "location_id", "lat", "lon"
    ).cache()

    # eps-components of the free points
    edges = eps_edges(free, eps_m=max_diameter_m).select(
        F.col("src"), F.col("dst"), F.lit(1.0).alias("weight")
    )
    verts = free.select(F.col("location_id").alias("id"))
    comp = connected_components(Graph(verts, edges))
    # The collect hands rows over in partition order; sorting makes the
    # linkage's tie-breaks and cluster numbering depend on the ids alone.
    pdf = (
        free.join(comp.withColumnRenamed("id", "location_id"), "location_id")
        .toPandas()
        .sort_values(["component", "location_id"], ignore_index=True)
    )
    group_id: list[str] = []
    for comp_id, c in pdf.groupby("component", sort=False):
        labels = complete_linkage_labels(
            c["lat"].to_numpy(), c["lon"].to_numpy(), max_diameter_m=max_diameter_m
        )
        group_id.extend(f"C{comp_id}#{k}" for k in labels)

    candidate_assigned = locations.sparkSession.createDataFrame(
        list(zip(pdf["location_id"].tolist(), group_id)),
        schema="location_id long, group_id string",
    ).select("location_id", "group_id", F.lit("candidate").alias("kind"))
    # localCheckpoint (not cache): downstream stages reference this frame
    # many times and nest it inside further joins — materialising here
    # keeps their logical plans shallow (a cache does not truncate lineage).
    assignment = station_assigned.unionByName(candidate_assigned).localCheckpoint()

    cand_groups = (
        candidate_assigned.join(pts, "location_id")
        .groupBy("group_id")
        .agg(F.avg("lat").alias("lat"), F.avg("lon").alias("lon"))
        .select(
            "group_id", F.lit("candidate").alias("kind"), "lat", "lon",
            F.lit(None).cast("long").alias("station_id"),
        )
    )
    st_groups = st.select(
        F.concat(F.lit("S"), F.col("station_id").cast("long")).alias("group_id"),
        F.lit("station").alias("kind"), "lat", "lon",
        F.col("station_id").cast("long").alias("station_id"),
    )
    groups = st_groups.unionByName(cand_groups).localCheckpoint()
    return CandidateResult(assignment=assignment, groups=groups)

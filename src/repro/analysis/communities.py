"""Per-community statistics (paper Tables IV, V, VI).

Given a station-level community assignment and the selected-graph trips,
compute for every community: number of old (pre-existing) and new
(selected) stations, and the trip split — *within* (start and end in the
community), *out* (start in, end elsewhere), *in* (end in, start
elsewhere), and their total.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def community_table(
    assignment: DataFrame,
    station_kinds: DataFrame,
    trips: DataFrame,
) -> DataFrame:
    """Build one paper-style community table.

    ``assignment``: (group_id, community); ``station_kinds``: (group_id,
    is_new bool); ``trips``: (src_group, dst_group).
    Returns (community, old_stations, new_stations, total_stations,
    trips_within, trips_out, trips_in, trips_total) sorted by community.
    """
    st = (
        station_kinds.join(assignment, "group_id")
        .groupBy("community")
        .agg(
            F.sum(F.when(~F.col("is_new"), 1).otherwise(0)).alias("old_stations"),
            F.sum(F.when(F.col("is_new"), 1).otherwise(0)).alias("new_stations"),
            F.count(F.lit(1)).alias("total_stations"),
        )
    )
    c_src = assignment.select(
        F.col("group_id").alias("src_group"), F.col("community").alias("c_src")
    )
    c_dst = assignment.select(
        F.col("group_id").alias("dst_group"), F.col("community").alias("c_dst")
    )
    t = trips.join(c_src, "src_group").join(c_dst, "dst_group")
    within = (
        t.filter(F.col("c_src") == F.col("c_dst"))
        .groupBy(F.col("c_src").alias("community"))
        .agg(F.count(F.lit(1)).alias("trips_within"))
    )
    outs = (
        t.filter(F.col("c_src") != F.col("c_dst"))
        .groupBy(F.col("c_src").alias("community"))
        .agg(F.count(F.lit(1)).alias("trips_out"))
    )
    ins = (
        t.filter(F.col("c_src") != F.col("c_dst"))
        .groupBy(F.col("c_dst").alias("community"))
        .agg(F.count(F.lit(1)).alias("trips_in"))
    )
    out = (
        st.join(within, "community", "left")
        .join(outs, "community", "left")
        .join(ins, "community", "left")
        .fillna({"trips_within": 0, "trips_out": 0, "trips_in": 0})
        .withColumn(
            "trips_total",
            F.col("trips_within") + F.col("trips_out") + F.col("trips_in"),
        )
    )
    return out.orderBy("community")


def intra_community_share(table: DataFrame) -> float:
    """Fraction of trips that start and end in the same community (the
    paper's ~74% self-containment headline for G_Basic), from a
    :func:`community_table`: every trip is counted once, as *within* or as
    *out* of its start community."""
    within, out = table.agg(F.sum("trips_within"), F.sum("trips_out")).first()
    return within / (within + out) if within or out else 0.0

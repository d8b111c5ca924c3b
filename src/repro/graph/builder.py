"""Build the paper's trip graphs from rentals + a location->group map.

- :func:`trips_with_groups` resolves both rental endpoints to group ids and
  attaches the temporal features (ISO day-of-week 1..7, start hour 0..23).
- :func:`pair_counts` collects the trips per directed group pair, the
  small driver-side table (one row per group pair: 14k rows for the
  candidate graph at SF=1) that Table II and Algorithm 1's degrees read,
  and for the selected graph Tables III-VI.
- :func:`graph_stats` computes the Table II measures from that table.
- :func:`temporal_graph` aggregates trips into a weighted station graph,
  in symmetric form, at one of the paper's three granularities:

  * ``"basic"`` — weight = number of trips (G_Basic);
  * ``"day"``   — weight = sum of day-of-week codes 1..7 (G_Day);
  * ``"hour"``  — weight = sum of (start hour + 1) codes 1..24 (G_Hour).

  The temporal weightings are the documented interpretation of the paper's
  "each trip is a unique edge with a day/hour property" + "Louvain ...
  ability to incorporate weighted edges": Neo4j GDS Louvain consumes one
  scalar relationship weight, and summing the per-trip temporal code over
  parallel edges is the aggregation its multigraph projection performs.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

GRANULARITIES = ("basic", "day", "hour")


def trips_with_groups(rentals: DataFrame, assignment: DataFrame) -> DataFrame:
    """Resolve rentals to ``(src_group, dst_group, day_of_week, hour)``.

    ``assignment`` maps location_id -> group_id. Rentals referencing an
    unmapped location are dropped (cleaning guarantees there are none).
    """
    a = assignment.select("location_id", "group_id")
    out = (
        rentals.select(
            "rental_id",
            F.col("rental_location_id").cast("long").alias("rental_location_id"),
            F.col("return_location_id").cast("long").alias("return_location_id"),
            "start_time",
        )
        .join(
            a.select(
                F.col("location_id").alias("rental_location_id"),
                F.col("group_id").alias("src_group"),
            ),
            "rental_location_id",
        )
        .join(
            a.select(
                F.col("location_id").alias("return_location_id"),
                F.col("group_id").alias("dst_group"),
            ),
            "return_location_id",
        )
    )
    return out.select(
        "rental_id", "src_group", "dst_group",
        F.dayofweek(F.col("start_time")).alias("__dow_sun1"),
        F.hour(F.col("start_time")).alias("hour"),
    ).withColumn(
        # ISO day-of-week: Monday=1 .. Sunday=7
        "day_of_week",
        ((F.col("__dow_sun1") + 5) % 7 + 1).cast("int"),
    ).drop("__dow_sun1")


@dataclass(frozen=True)
class GraphStats:
    """The measures of Table II for one trip set."""

    n_nodes: int
    undirected_edges: int
    undirected_edges_no_loops: int
    directed_edges: int
    directed_edges_no_loops: int
    n_trips: int


def pair_counts(trips: DataFrame) -> pd.DataFrame:
    """Trips per directed group pair, ``(src_group, dst_group, count)``,
    collected by one Spark action. Row order follows the partitioning."""
    return trips.groupBy("src_group", "dst_group").count().toPandas()


def graph_stats(pairs: pd.DataFrame) -> GraphStats:
    """Count nodes/edges/trips of the (multi)graph whose directed group
    pairs and trip counts are ``pairs`` (from :func:`pair_counts`), with
    and without self-loops."""
    src, dst = pairs["src_group"], pairs["dst_group"]
    loops = int((src == dst).sum())
    undirected = len({(min(u, v), max(u, v)) for u, v in zip(src, dst)})
    return GraphStats(
        n_nodes=len(set(src) | set(dst)),
        undirected_edges=undirected,
        undirected_edges_no_loops=undirected - loops,
        directed_edges=len(pairs),
        directed_edges_no_loops=len(pairs) - loops,
        n_trips=int(pairs["count"].sum()),
    )


@dataclass(frozen=True)
class StationGraph:
    """``edges``: the symmetric ``(src, dst, weight)`` rows. A record, not a
    bare frame, because ``perfbench/run.py`` reads ``.edges``."""

    edges: DataFrame


def temporal_graph(trips: DataFrame, granularity: str) -> StationGraph:
    """The weighted station graph at one temporal granularity (see module
    docstring), keyed by group id, in symmetric form.

    The paper's graphs are bidirectional, so each trip adds its code to its
    *unordered* group pair: one aggregate gives the ``src <= dst`` rows and
    its non-loop rows reversed give the other direction, so each self-loop
    appears once. Hence ``m = (sum of non-loop w)/2 + (sum of loop w)`` and
    a loop counts 2w towards its vertex's degree ``k_i`` (the networkx and
    Louvain convention)."""
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be one of {GRANULARITIES}")
    if granularity == "basic":
        w = F.lit(1.0)
    elif granularity == "day":
        w = F.col("day_of_week").cast("double")
    else:
        w = (F.col("hour") + F.lit(1)).cast("double")
    und = (
        trips.select(
            F.least("src_group", "dst_group").alias("src"),
            F.greatest("src_group", "dst_group").alias("dst"),
            w.alias("weight"),
        )
        .groupBy("src", "dst")
        .agg(F.sum("weight").alias("weight"))
    )
    reverse = und.filter(F.col("src") != F.col("dst")).select(
        F.col("dst").alias("src"), F.col("src").alias("dst"), "weight"
    )
    return StationGraph(und.unionByName(reverse))

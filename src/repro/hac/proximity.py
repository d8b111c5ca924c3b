"""Distributed eps-proximity joins over GPS points.

"All pairs within eps metres" as an equi-join: bucket points into a
geo-grid whose cell side is >= eps (so any eps-pair lands in the same or
an adjacent cell), replicate one side of the join to its 3x3 cell
neighbourhood (:func:`neighbour_cells`), keep the other side in its home
cell, equi-join on cell id, then filter by exact Haversine distance.
:func:`eps_edges` joins the points with themselves and emits each
unordered pair once (``src < dst``); HAC's 50 m station pre-assignment
(:mod:`repro.hac.cluster`) joins the locations with the replicated
stations. Both joins broadcast one side (the home-cell points, the
stations), so no point is shuffled.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.geo import haversine_col, with_grid_cell


def neighbour_cells(cells: DataFrame) -> DataFrame:
    """Replicate every row of ``cells`` (which carries ``cell_i``/``cell_j``
    from :func:`~repro.geo.with_grid_cell`) to each cell of its 3x3
    neighbourhood: nine rows per input row, the other columns unchanged."""
    offsets = F.expr(
        "explode(arrays_zip(array(-1,-1,-1,0,0,0,1,1,1), array(-1,0,1,-1,0,1,-1,0,1)))"
    ).alias("o")
    rest = [c for c in cells.columns if c not in ("cell_i", "cell_j")]
    return cells.select("*", offsets).select(
        *rest,
        (F.col("cell_i") + F.col("o.0")).alias("cell_i"),
        (F.col("cell_j") + F.col("o.1")).alias("cell_j"),
    )


def eps_edges(points: DataFrame, *, eps_m: float) -> DataFrame:
    """Edges ``(src, dst, dist_m)`` for all unordered pairs within
    ``eps_m`` metres of ``points`` (location_id, lat, lon), whose
    ``location_id`` must be unique."""
    p = with_grid_cell(
        points.select(F.col("location_id").alias("id"), "lat", "lon"), eps_m=eps_m
    )
    # left side: points in their home cell
    left = p.select(
        F.col("id").alias("src"), F.col("lat").alias("lat_a"),
        F.col("lon").alias("lon_a"), "cell_i", "cell_j",
    )
    right = neighbour_cells(
        p.select(
            F.col("id").alias("dst"), F.col("lat").alias("lat_b"),
            F.col("lon").alias("lon_b"), "cell_i", "cell_j",
        )
    )
    # the home-cell side has one row per point, the other nine: broadcast it
    pairs = F.broadcast(left).join(right, ["cell_i", "cell_j"]).filter(
        F.col("src") < F.col("dst")
    )
    dist = haversine_col(
        F.col("lat_a"), F.col("lon_a"), F.col("lat_b"), F.col("lon_b")
    )
    return (
        pairs.withColumn("dist_m", dist)
        .filter(F.col("dist_m") <= F.lit(float(eps_m)))
        .select("src", "dst", "dist_m")
    )

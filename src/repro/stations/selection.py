"""Station ranking & selection (paper Section IV-B, Algorithm 1).

Rules:

1. *Cluster-Boundary* (enforced upstream by HAC's 100 m diameter cutoff).
2. *Cluster-Proximity* (enforced upstream: candidate centroids closer than
   50 m can only arise from distinct eps-components, which are >= 100 m
   apart by construction).
3. *Degree-Threshold* — candidate degree >= min degree over fixed stations.
4. *Secondary-Distance* — candidate centroid >= 250 m from every fixed
   station, and (iterated) >= 250 m from every surviving higher-degree
   candidate.

The degrees (weighted in+out degree = trips touching the group,
self-trips counted twice) are sums over the candidate graph's collected
pair table (:func:`repro.graph.builder.pair_counts`, which Table II reads
too). The groups table is collected once — at most a few thousand rows
(1,080 candidates + 92 stations in the paper) — and the degrees, the
threshold, the 250 m rule against fixed stations and the greedy
suppression loop (Algorithm 1 lines 10-16, inherently sequential) run on
the driver in numpy and pandas.

After selection, every location of an unselected candidate is reassigned
to the nearest of the (old + new) stations, so total trips are conserved
(paper: "All trips from non-selected stations were redirected...").
The assignment and the locations are collected once each (~14k rows at
SF=1) and joined on the driver for that argmin, and the final mapping
goes back to Spark as one local frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.geo import haversine_np

SECONDARY_DISTANCE_M = 250.0


@dataclass(frozen=True)
class SelectionResult:
    """``selected``: (group_id, lat, lon, degree) of the new stations;
    ``threshold``: the degree threshold used; ``final_assignment``:
    (station_group, location_id, is_new) mapping every location to one of
    the old+new stations; ``station_kinds``: (group_id, is_new) of every
    station some location maps to."""

    selected: DataFrame
    threshold: float
    final_assignment: DataFrame
    n_selected: int
    station_kinds: DataFrame


def group_degrees(pairs: pd.DataFrame) -> pd.DataFrame:
    """Weighted total degree per group from the pair table
    ``(src_group, dst_group, count)``: trips out + trips in (self-trips
    count twice), as ``(group_id, degree)``."""
    ends = pd.concat([
        pairs[[end, "count"]].set_axis(["group_id", "degree"], axis=1)
        for end in ("src_group", "dst_group")
    ])
    return ends.groupby("group_id", as_index=False)["degree"].sum().astype({"degree": float})


def _suppress(cand: pd.DataFrame, min_dist_m: float) -> np.ndarray:
    """Algorithm 1 lines 10-16: repeatedly zero the lower-degree member of
    any candidate pair closer than ``min_dist_m``. Equivalent greedy form:
    process candidates by descending degree (ties: smaller group_id) and
    keep one iff no already-kept candidate is within range."""
    order = np.lexsort((cand["group_id"].to_numpy(), -cand["degree"].to_numpy()))
    lat = cand["lat"].to_numpy()
    lon = cand["lon"].to_numpy()
    keep = np.zeros(len(cand), dtype=bool)
    kept_idx: list[int] = []
    for i in order:
        if kept_idx:
            d = haversine_np(lat[i], lon[i], lat[kept_idx], lon[kept_idx])
            if (d < min_dist_m).any():
                continue
        keep[i] = True
        kept_idx.append(i)
    return keep


def _distances(points: pd.DataFrame, stations: pd.DataFrame) -> np.ndarray:
    """Haversine matrix, one row per point and one column per station."""
    return haversine_np(
        points["lat"].to_numpy()[:, None], points["lon"].to_numpy()[:, None],
        stations["lat"].to_numpy()[None, :], stations["lon"].to_numpy()[None, :],
    )


def select_stations(
    candidate_groups: DataFrame,
    pairs: pd.DataFrame,
    locations: DataFrame,
    assignment: DataFrame,
    *,
    secondary_distance_m: float = SECONDARY_DISTANCE_M,
) -> SelectionResult:
    """Run Algorithm 1.

    ``candidate_groups``: the HAC groups table (group_id, kind, lat, lon,
    station_id); ``pairs``: the candidate graph's trips per directed
    group pair (:func:`repro.graph.builder.pair_counts`); ``locations``:
    cleaned locations (location_id, lat, lon);
    ``assignment``: location_id -> group_id/kind from the HAC stage.
    Raises ``ValueError`` when the groups table has no fixed station: the
    threshold and both distance rules are defined against fixed stations.
    """
    # Sorted by group_id so that no output follows the collected row order.
    g = (
        candidate_groups.select("group_id", "kind", "lat", "lon").toPandas()
        .merge(group_degrees(pairs), on="group_id", how="left")
        .fillna({"degree": 0.0})
        .sort_values("group_id", ignore_index=True)
    )
    stations = g[g["kind"] == "station"]
    if stations.empty:
        raise ValueError("select_stations: the groups table has no row with kind == 'station'")
    cands = g[g["kind"] == "candidate"]
    threshold = float(stations["degree"].min())

    # Rule 3 + Rule 4 (vs fixed stations), then the sequential suppression.
    survivors = cands[
        (cands["degree"] >= threshold)
        & (_distances(cands, stations).min(axis=1) >= secondary_distance_m)
    ]
    sel = survivors[_suppress(survivors, secondary_distance_m)]
    spark = candidate_groups.sparkSession
    selected = spark.createDataFrame(
        sel[["group_id", "lat", "lon", "degree"]],
        schema="group_id string, lat double, lon double, degree double",
    )

    # --- final location -> station mapping ------------------------------
    # Orphans take the nearest old or new station; argmin over stations
    # sorted by group_id keeps the smaller id on an exact distance tie.
    all_stations = pd.concat([stations, sel]).sort_values("group_id", ignore_index=True)
    loc = assignment.select("location_id", "group_id").toPandas().merge(
        locations.select("location_id", "lat", "lon").toPandas(), on="location_id"
    )
    orphan = ~loc["group_id"].isin(all_stations["group_id"])
    nearest = _distances(loc[orphan], all_stations).argmin(axis=1)
    loc.loc[orphan, "group_id"] = all_stations["group_id"].to_numpy()[nearest]
    final = pd.DataFrame(
        {
            "station_group": loc["group_id"],
            "location_id": loc["location_id"],
            "is_new": loc["group_id"].isin(sel["group_id"]),
        }
    ).sort_values("location_id", ignore_index=True)
    kinds = final[["station_group", "is_new"]].drop_duplicates()
    return SelectionResult(
        selected=selected,
        threshold=threshold,
        final_assignment=spark.createDataFrame(
            final, schema="station_group string, location_id long, is_new boolean"
        ),
        n_selected=len(sel),
        station_kinds=spark.createDataFrame(kinds, schema="group_id string, is_new boolean"),
    )

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

The whole stage is pandas and numpy on the driver and starts no Spark
job. Its inputs are already there: HAC's groups table (at most a few
thousand rows: 1,080 candidates + 92 stations in the paper) and
assignment (one row per location with its coordinates, ~14k rows at
SF=1), and the candidate graph's collected pair table
(:func:`repro.graph.builder.pair_counts`, which Table II reads too). The
degrees (weighted in+out degree = trips touching the group, self-trips
counted twice) are sums over that pair table; the threshold, the 250 m
rule against fixed stations and the greedy suppression loop (Algorithm 1
lines 10-16, inherently sequential) follow.

After selection, every location of an unselected candidate is reassigned
to the nearest of the (old + new) stations, so total trips are conserved
(paper: "All trips from non-selected stations were redirected...").
The outputs stay pandas; the pipeline builds the Spark frames its joins
read from them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.geo import haversine_np

SECONDARY_DISTANCE_M = 250.0


@dataclass(frozen=True)
class SelectionResult:
    """The frames are pandas. ``selected``: (group_id, lat, lon, degree) of
    the new stations, by group id; ``threshold``: the degree threshold
    used; ``final_assignment``: (station_group, location_id, is_new)
    mapping every location to one of the old+new stations, by location
    id; ``station_kinds``: (group_id, is_new) of every station some
    location maps to, in the order of its first location."""

    selected: pd.DataFrame
    threshold: float
    final_assignment: pd.DataFrame
    n_selected: int
    station_kinds: pd.DataFrame


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
    candidate_groups: pd.DataFrame, pairs: pd.DataFrame, assignment: pd.DataFrame
) -> SelectionResult:
    """Run Algorithm 1.

    ``candidate_groups``: the HAC groups table (group_id, kind, lat, lon);
    ``pairs``: the candidate graph's trips per directed group pair
    (:func:`repro.graph.builder.pair_counts`); ``assignment``: the HAC
    assignment (location_id, group_id, lat, lon).
    Raises ``ValueError`` when the groups table has no fixed station: the
    threshold and both distance rules are defined against fixed stations.
    """
    # Sorted by group_id so that no output follows the input row order.
    g = (
        candidate_groups[["group_id", "kind", "lat", "lon"]]
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
        & (_distances(cands, stations).min(axis=1) >= SECONDARY_DISTANCE_M)
    ]
    sel = survivors[_suppress(survivors, SECONDARY_DISTANCE_M)]

    # --- final location -> station mapping ------------------------------
    # Orphans take the nearest old or new station; argmin over stations
    # sorted by group_id keeps the smaller id on an exact distance tie.
    all_stations = pd.concat([stations, sel]).sort_values("group_id", ignore_index=True)
    station_group = assignment["group_id"].copy()
    orphan = ~station_group.isin(all_stations["group_id"])
    nearest = _distances(assignment[orphan], all_stations).argmin(axis=1)
    station_group[orphan] = all_stations["group_id"].to_numpy()[nearest]
    final = pd.DataFrame(
        {
            "station_group": station_group,
            "location_id": assignment["location_id"],
            "is_new": station_group.isin(sel["group_id"]),
        }
    ).sort_values("location_id", ignore_index=True)
    kinds = final[["station_group", "is_new"]].drop_duplicates(ignore_index=True)
    return SelectionResult(
        selected=sel[["group_id", "lat", "lon", "degree"]].reset_index(drop=True),
        threshold=threshold,
        final_assignment=final,
        n_selected=len(sel),
        station_kinds=kinds.rename(columns={"station_group": "group_id"}),
    )

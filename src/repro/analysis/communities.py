"""Per-community statistics (paper Tables IV, V, VI), on the driver.

Given a station-level community assignment and the selected graph's trips
per directed station pair (``builder.pair_counts``), compute for every
community: number of old (pre-existing) and new (selected) stations, and
the trip split — *within* (start and end in the community), *out* (start
in, end elsewhere), *in* (end in, start elsewhere), and their total. Each
trip count is a sum of pair counts grouped by the labels of the pair's
endpoints.
"""
from __future__ import annotations

import pandas as pd


def community_table(
    assignment: pd.DataFrame,
    station_kinds: pd.DataFrame,
    pairs: pd.DataFrame,
) -> pd.DataFrame:
    """Build one paper-style community table.

    ``assignment``: (group_id, community); ``station_kinds``: (group_id,
    is_new bool); ``pairs``: (src_group, dst_group, count), every endpoint
    labelled in ``assignment``. A community has a row if one of its
    stations has a kind. Returns (community, old_stations, new_stations,
    total_stations, trips_within, trips_out, trips_in, trips_total) sorted
    by community.
    """
    st = station_kinds.merge(assignment, on="group_id")
    new = st["is_new"].groupby(st["community"])
    out = pd.DataFrame({"old_stations": new.size() - new.sum(), "new_stations": new.sum()})
    out["total_stations"] = out["old_stations"] + out["new_stations"]
    label = assignment.set_index("group_id")["community"]
    c_src, c_dst = pairs["src_group"].map(label), pairs["dst_group"].map(label)
    inside, n = c_src == c_dst, pairs["count"]
    out["trips_within"] = n[inside].groupby(c_src[inside]).sum()
    out["trips_out"] = n[~inside].groupby(c_src[~inside]).sum()
    out["trips_in"] = n[~inside].groupby(c_dst[~inside]).sum()
    out = out.fillna(0).astype("int64")
    out["trips_total"] = out["trips_within"] + out["trips_out"] + out["trips_in"]
    return out.rename_axis("community").reset_index()


def intra_community_share(table: pd.DataFrame) -> float:
    """Fraction of trips that start and end in the same community (the
    paper's ~74% self-containment headline for G_Basic), from a
    :func:`community_table`: every trip is counted once, as *within* or as
    *out* of its start community."""
    within, out = int(table["trips_within"].sum()), int(table["trips_out"].sum())
    return within / (within + out) if within or out else 0.0
